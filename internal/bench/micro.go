package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"govolve/internal/asm"
	"govolve/internal/bytecode"
	"govolve/internal/classfile"
	"govolve/internal/core"
	"govolve/internal/obs"
	"govolve/internal/rt"
	"govolve/internal/upt"
	"govolve/internal/vm"
)

// The Table 1 / Figure 6 microbenchmark, following the paper §4.1 exactly:
// "two simple classes, Change and NoChange. Both contain three integer
// fields, and three reference fields that are always null. The update adds
// an integer field to Change. The user-provided object transformation
// function copies the existing fields and initializes the new field to
// zero" — which is precisely UPT's generated default transformer.

const microV1 = `
class Change {
  field i1 I
  field i2 I
  field i3 I
  field r1 LChange;
  field r2 LChange;
  field r3 LChange;
  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    return
  }
}
class NoChange {
  field i1 I
  field i2 I
  field i3 I
  field r1 LNoChange;
  field r2 LNoChange;
  field r3 LNoChange;
  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    return
  }
}
`

var microV2 = strings.Replace(microV1,
	"class Change {\n  field i1 I",
	"class Change {\n  field i1 I\n  field i4 I", 1)

// MicroConfig sizes one microbenchmark cell.
type MicroConfig struct {
	// Objects is the total object count. The paper uses 280k–3.67M
	// (heaps of 160–1280 MB).
	Objects int
	// FracUpdated is the fraction of objects of class Change (0..1).
	FracUpdated float64
	// HeapLabel annotates output rows (e.g. "160 MB").
	HeapLabel string
	// HandWritten replaces Change's generated default transformer with
	// the transformer a programmer would write for this update — the same
	// six field copies plus an explicit i4 = 0. The
	// default is a pure field copy, which the collector performs itself
	// while it copies the object (upt.Spec.ObjectMoves); the hand-written
	// one is not, so every instance gets a shell + old-copy pair and one
	// interpreted jvolveObject call: the paper's configuration (§3.4,
	// Table 1), and the one that exercises old copies, pending pairs and the
	// transformer phase.
	HandWritten bool
	// Lazy defers per-object transformation past the pause: objects stay
	// pending and are drained on first touch through the read
	// barrier. The measured pause then excludes transformer execution;
	// the forced drain is timed separately.
	Lazy bool
	// Metrics, when non-nil, attaches the registry to the VM so the engine
	// publishes its pause/update series, and arms a default gate engine
	// under the observe policy so every micro update is judged. The
	// resulting verdict is reported on MicroResult.
	Metrics *obs.Registry
	// Concurrent moves discovery and the DSU copy itself out of the pause:
	// the SATB concurrent mark finds the updated-class instances before it,
	// the pause shrinks to flip preparation (rescan, flip, eager evacuation
	// of those instances only — or none at all, and no mark, with Lazy), and
	// the remaining live set is evacuated afterwards by the background
	// relocator and the self-healing load barrier. The measured pause then
	// excludes the trace and the bulk copy; the mark and the relocation drain
	// are reported separately.
	Concurrent bool
}

// MicroResult reports one run: the update's own Stats — the three row groups
// of Table 1 are PauseGC, PauseTransform and PauseTotal, and CopiedWords
// counts the old copies placed in from-space's tail again in TailWords (§3.5)
// — plus what only the driver knows.
type MicroResult struct {
	Config MicroConfig
	core.Stats
	Drain time.Duration // forced post-pause drain wall-clock (Lazy; outside the pause)
	// Verdict is the gate judgment for this update (nil unless
	// MicroConfig.Metrics armed the gate engine).
	Verdict *obs.Verdict
}

// RunMicro builds a heap with the requested population and applies the
// Change-gains-a-field update, measuring the collection time, the
// transformer-execution time, and the total update pause.
func RunMicro(cfg MicroConfig) (*MicroResult, error) {
	if cfg.Objects <= 0 {
		return nil, fmt.Errorf("bench: objects must be positive")
	}
	if cfg.FracUpdated < 0 || cfg.FracUpdated > 1 {
		return nil, fmt.Errorf("bench: fraction out of range")
	}
	// One object is 8 words (2 header + 6 fields); during the DSU
	// collection an updated object costs its copy plus a 9-word shell.
	// A factor-5 heap over the live size keeps the only collection the
	// DSU-triggered one, matching the paper's methodology.
	live := cfg.Objects*8 + cfg.Objects + 2*rt.HeaderWords + 64
	machine, err := vm.New(vm.Options{
		HeapWords:     5 * live,
		LazyTransform: cfg.Lazy,
		Concurrent:    cfg.Concurrent,
		Out:           io.Discard,
	})
	if err != nil {
		return nil, err
	}
	v1, err := asm.AssembleProgram("micro-v1.jva", microV1)
	if err != nil {
		return nil, err
	}
	v2, err := asm.AssembleProgram("micro-v2.jva", microV2)
	if err != nil {
		return nil, err
	}
	if err := machine.LoadProgram(v1); err != nil {
		return nil, err
	}

	change := machine.Reg.LookupClass("Change")
	noChange := machine.Reg.LookupClass("NoChange")
	nChange := int(float64(cfg.Objects)*cfg.FracUpdated + 0.5)

	// Populate the heap from the driver side (the paper's harness builds
	// the array before triggering the update; allocation cost is not part
	// of the measured pause). The array pins everything.
	arr, ok := machine.Heap.AllocArray(true, cfg.Objects)
	if !ok {
		return nil, fmt.Errorf("bench: heap too small for %d objects", cfg.Objects)
	}
	h := machine.PushHandle(arr)
	defer machine.PopHandle(1)
	for i := 0; i < cfg.Objects; i++ {
		cls := noChange
		if i < nChange {
			cls = change
		}
		obj, ok := machine.Heap.AllocObject(cls)
		if !ok {
			return nil, fmt.Errorf("bench: heap exhausted at object %d", i)
		}
		machine.Heap.SetFieldValue(obj, rt.HeaderWords+0, rt.IntVal(int64(i)))
		machine.Heap.SetFieldValue(obj, rt.HeaderWords+1, rt.IntVal(int64(i*2)))
		machine.Heap.SetFieldValue(obj, rt.HeaderWords+2, rt.IntVal(int64(i*3)))
		machine.Heap.SetElem(h.Ref(), i, rt.RefVal(obj))
	}

	spec, err := upt.Prepare("m", v1, v2)
	if err != nil {
		return nil, err
	}
	if cfg.HandWritten {
		// The generated copies, then i4 = 0 spelled out before the return.
		m := spec.Transformers.Method("jvolveObject", classfile.Sig("(LChange;L"+spec.RenamedName("Change")+";)V"))
		ret := len(m.Code) - 1
		m.Code = append(m.Code[:ret:ret],
			bytecode.Ins{Op: bytecode.LOAD, A: 0},
			bytecode.Ins{Op: bytecode.CONST, A: 0},
			bytecode.Ins{Op: bytecode.PUTFIELD, Sym: "Change.i4", Desc: "I"},
			m.Code[ret])
	}
	engine := core.NewEngine(machine)
	if cfg.Metrics != nil {
		machine.AttachObs(nil, cfg.Metrics)
		engine.AttachGates(obs.NewGateEngine(nil, 0, cfg.Metrics), core.GateObserve)
	}
	res, err := engine.ApplyNow(spec, core.Options{})
	if err != nil {
		return nil, err
	}
	if res.Outcome != core.Applied {
		return nil, fmt.Errorf("bench: micro update %v: %v", res.Outcome, res.Err)
	}
	var drain time.Duration
	if cfg.Lazy && !cfg.Concurrent {
		// The pause arms instead of transforming; every updated instance
		// must still be pending when it ends. (Composed with Concurrent
		// the pause creates almost no pairs at all — discovery itself rides
		// the drain — so the pending count at apply is near zero instead.)
		want := 0 // a moved instance was never a pair: nothing pending
		if cfg.HandWritten {
			want = nChange
		}
		if res.Stats.LazyPending != want {
			return nil, fmt.Errorf("bench: lazy pause left %d pending, want %d", res.Stats.LazyPending, want)
		}
	}
	if cfg.Lazy || cfg.Concurrent {
		// The driver forces the whole drain and times it — the work the
		// pause no longer does. With Concurrent the relocation drains
		// first, then any lazy residue; the relocation's own flip-to-finalize
		// wall clock is reported separately from the stats.
		t0 := time.Now()
		if err := engine.ForceDrain(); err != nil {
			return nil, fmt.Errorf("bench: forced drain: %w", err)
		}
		if cfg.Lazy {
			drain = time.Since(t0)
		}
	}
	if res.Stats.TransformedObjects != nChange {
		return nil, fmt.Errorf("bench: transformed %d, want %d", res.Stats.TransformedObjects, nChange)
	}
	return &MicroResult{Config: cfg, Stats: res.Stats, Drain: drain, Verdict: res.Verdict}, nil
}

// MicroSweep is the full Table 1 grid: for each size, pause times over the
// fraction sweep 0%..100% in steps of 10%.
type MicroSweep struct {
	Sizes     []MicroConfig // FracUpdated ignored; one row group per size
	Fractions []float64
	Runs      int // runs per cell; the median is reported
}

// DefaultFractions is the paper's 0..100% in steps of 10.
func DefaultFractions() []float64 {
	out := make([]float64, 11)
	for i := range out {
		out[i] = float64(i) / 10
	}
	return out
}

// PaperSizes returns the paper's four configurations. The heap labels keep
// the paper's names; object counts are the paper's.
func PaperSizes() []MicroConfig {
	return []MicroConfig{
		{Objects: 280_000, HeapLabel: "160 MB"},
		{Objects: 770_000, HeapLabel: "320 MB"},
		{Objects: 1_760_000, HeapLabel: "640 MB"},
		{Objects: 3_670_000, HeapLabel: "1280 MB"},
	}
}

// ScaledSizes returns the paper's configurations divided by the given
// factor, for quick runs (go test -bench uses factor 10).
func ScaledSizes(factor int) []MicroConfig {
	sizes := PaperSizes()
	for i := range sizes {
		sizes[i].Objects /= factor
		sizes[i].HeapLabel += fmt.Sprintf(" ÷%d", factor)
	}
	return sizes
}

// Cell is one measured grid cell.
type Cell struct {
	Size     MicroConfig
	Fraction float64
	GC       Summary
	Tr       Summary
	Total    Summary
}

// RunSweep measures the whole grid.
func RunSweep(sw MicroSweep, progress io.Writer) ([]Cell, error) {
	if sw.Runs <= 0 {
		sw.Runs = 1
	}
	if len(sw.Fractions) == 0 {
		sw.Fractions = DefaultFractions()
	}
	var cells []Cell
	for _, size := range sw.Sizes {
		for _, frac := range sw.Fractions {
			var gcs, trs, tots []float64
			for r := 0; r < sw.Runs; r++ {
				cfg := size
				cfg.FracUpdated = frac
				res, err := RunMicro(cfg)
				if err != nil {
					return nil, err
				}
				gcs = append(gcs, Millis(res.PauseGC))
				trs = append(trs, Millis(res.PauseTransform))
				tots = append(tots, Millis(res.PauseTotal))
			}
			cells = append(cells, Cell{
				Size: size, Fraction: frac,
				GC: Summarize(gcs), Tr: Summarize(trs), Total: Summarize(tots),
			})
			if progress != nil {
				fmt.Fprintf(progress, ".")
			}
		}
		if progress != nil {
			fmt.Fprintln(progress)
		}
	}
	return cells, nil
}

// PrintTable1 renders the grid in the paper's three row groups.
func PrintTable1(w io.Writer, sizes []MicroConfig, fractions []float64, cells []Cell) {
	get := func(size MicroConfig, frac float64) *Cell {
		for i := range cells {
			if cells[i].Size.HeapLabel == size.HeapLabel && cells[i].Fraction == frac {
				return &cells[i]
			}
		}
		return nil
	}
	header := func() {
		fmt.Fprintf(w, "%10s %12s", "# objects", "Heap size")
		for _, f := range fractions {
			fmt.Fprintf(w, " %7.0f%%", f*100)
		}
		fmt.Fprintln(w)
	}
	group := func(title string, pick func(*Cell) float64) {
		fmt.Fprintf(w, "%s (ms)\n", title)
		header()
		for _, size := range sizes {
			fmt.Fprintf(w, "%10d %12s", size.Objects, size.HeapLabel)
			for _, f := range fractions {
				c := get(size, f)
				if c == nil {
					fmt.Fprintf(w, " %8s", "-")
					continue
				}
				fmt.Fprintf(w, " %8.1f", pick(c))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	group("Garbage collection time", func(c *Cell) float64 { return c.GC.Median })
	group("Running transformation functions", func(c *Cell) float64 { return c.Tr.Median })
	group("Total DSU pause time", func(c *Cell) float64 { return c.Total.Median })
}

// PrintFig6 renders the largest size's three series against the fraction
// axis (the paper's Figure 6 plot, as data).
func PrintFig6(w io.Writer, sizes []MicroConfig, fractions []float64, cells []Cell) {
	if len(sizes) == 0 {
		return
	}
	big := sizes[len(sizes)-1]
	fmt.Fprintf(w, "Figure 6: pause decomposition, %d objects (%s)\n", big.Objects, big.HeapLabel)
	fmt.Fprintf(w, "%9s %12s %14s %12s\n", "fraction", "GC (ms)", "transform (ms)", "total (ms)")
	for _, f := range fractions {
		for i := range cells {
			c := &cells[i]
			if c.Size.HeapLabel == big.HeapLabel && c.Fraction == f {
				fmt.Fprintf(w, "%8.0f%% %12.1f %14.1f %12.1f\n",
					f*100, c.GC.Median, c.Tr.Median, c.Total.Median)
			}
		}
	}
}
