package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"govolve/internal/asm"
	"govolve/internal/vm"
)

// The dispatch experiment measures raw interpreter throughput across the
// tier ladder: the base threaded interpreter, the fused superinstruction
// tier with inline caches disabled, and the full fused+IC configuration.
// Two opcode mixes pin down where each mechanism pays: a pure arithmetic
// loop (fusion dominates; ICs are irrelevant) and a virtual-call loop
// (fusion collapses the load+invoke pair and the monomorphic IC bypasses
// the TIB walk). This is the evidence behind the PR's >=2x fused-dispatch
// claim and the IC hit-rate numbers in EXPERIMENTS.md E17. A third mix, the
// webserver's String natives on one request line, measures the native
// boundary instead of dispatch: tiers barely move it, the native call path
// and the string runtime do.

// dispatchArithSrc is the arithmetic mix: the same loop the
// BenchmarkInterpDispatch family in internal/vm measures — no calls, no
// allocation, one taken backedge per iteration.
const dispatchArithSrc = `
class Hot {
  static method main()V {
    const 0
    store 0
    const 1
    store 1
  loop:
    load 0
    load 1
    add
    const 3
    mul
    const 7
    rem
    store 0
    load 1
    const 1
    add
    const 1048575
    and
    store 1
    goto loop
  }
}
`

// dispatchVirtualSrc is the virtual-call mix: a monomorphic invokevirtual
// in the hot loop, so the load+invoke pair fuses to FLOADINVOKE and the
// call site's inline cache stays monomorphic — the best case ICs exist for.
const dispatchVirtualSrc = `
class Hot {
  field v I

  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    return
  }

  method step(I)I {
    load 0
    getfield Hot.v I
    load 1
    add
    return
  }

  static method main()V {
    new Hot
    dup
    invokespecial Hot.<init>()V
    store 0
    const 1
    store 1
  loop:
    load 0
    load 1
    invokevirtual Hot.step(I)I
    const 1048575
    and
    store 1
    goto loop
  }
}
`

// DispatchSweep configures the mix x tier grid.
type DispatchSweep struct {
	// Rounds is the best-of count per cell (default 3). Each round pumps
	// the VM for at least MinRoundMillis of wall time.
	Rounds int
	// MinRoundMillis is the minimum timed window per round (default 50).
	MinRoundMillis int
}

// DispatchRow is one measured (mix, tier) cell.
type DispatchRow struct {
	Mix  string `json:"mix"`
	Tier string `json:"tier"`

	// InsPerSec is the best-of-Rounds steady-state throughput.
	InsPerSec float64 `json:"ins_per_sec"`
	// SpeedupVsBase is InsPerSec over the same mix's base-tier row.
	SpeedupVsBase float64 `json:"speedup_vs_base"`

	// AllocsPerSlice is heap allocations per scheduling slice at steady
	// state (mallocs delta over 200 slices). The dispatch fast-path
	// contract is 0 for the arith mix on every tier; the virtual mix pays
	// per-call frame allocation, which dispatch tiers don't touch.
	AllocsPerSlice float64 `json:"allocs_per_slice"`

	// TracePromotions confirms (or, for the base tier, denies) that the
	// hot loop actually ran on the fused tier during measurement.
	TracePromotions int64 `json:"trace_promotions"`
	ICHits          int64 `json:"ic_hits"`
	ICMisses        int64 `json:"ic_misses"`
	// ICHitRate is hits/(hits+misses), 0 when the mix has no cached sites.
	ICHitRate float64 `json:"ic_hit_rate"`
}

// DispatchReport is the BENCH_dispatch.json document.
type DispatchReport struct {
	Experiment string        `json:"experiment"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	Note       string        `json:"note"`
	Rows       []DispatchRow `json:"rows"`
}

// dispatchTiers is the tier axis. Base pins the pre-fusion interpreter
// (trace promotion off, opt recompilation out of reach); fused runs
// superinstructions with inline caches disabled; fused+ic is the default
// production configuration.
var dispatchTiers = []struct {
	Name string
	Opts vm.Options
}{
	{"base", vm.Options{TraceThreshold: -1, OptThreshold: 1 << 30}},
	{"fused", vm.Options{NoInlineCache: true}},
	{"fused+ic", vm.Options{}},
}

var dispatchMixes = []struct {
	Name string
	Src  string
}{
	{"arith", dispatchArithSrc},
	{"virtual", dispatchVirtualSrc},
	{"native", vm.StringMixSrc},
}

// runDispatchCell builds, warms, and measures one VM configuration.
func runDispatchCell(src string, opts vm.Options, rounds, minRoundMs int) (DispatchRow, error) {
	var out bytes.Buffer
	opts.HeapWords = 1 << 14
	opts.Out = &out
	v, err := vm.New(opts)
	if err != nil {
		return DispatchRow{}, err
	}
	prog, err := asm.AssembleProgram("dispatch.jva", src)
	if err != nil {
		return DispatchRow{}, err
	}
	if err := v.LoadProgram(prog); err != nil {
		return DispatchRow{}, err
	}
	if _, err := v.SpawnMain("Hot"); err != nil {
		return DispatchRow{}, err
	}
	// Warmup: past adaptive recompilation, trace promotion, and capacity
	// growth in the frame and scheduler structures.
	v.Step(500)

	best := 0.0
	for r := 0; r < rounds; r++ {
		start := v.TotalSteps
		t0 := time.Now()
		deadline := t0.Add(time.Duration(minRoundMs) * time.Millisecond)
		for time.Now().Before(deadline) {
			v.Step(2000)
		}
		el := time.Since(t0)
		if el <= 0 {
			continue
		}
		if rate := float64(v.TotalSteps-start) / el.Seconds(); rate > best {
			best = rate
		}
	}
	if best == 0 {
		return DispatchRow{}, fmt.Errorf("bench: dispatch cell measured zero throughput")
	}
	// Steady-state allocation check: mallocs delta over 200 slices,
	// recorded in the JSON alongside the throughput number (0 for the
	// arith mix on every tier — the zero-alloc fast-path evidence).
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 200; i++ {
		v.Step(1)
	}
	runtime.ReadMemStats(&after)

	st := v.Stats()
	row := DispatchRow{
		InsPerSec:       best,
		AllocsPerSlice:  float64(after.Mallocs-before.Mallocs) / 200,
		TracePromotions: st.TracePromotions,
		ICHits:          st.ICHits,
		ICMisses:        st.ICMisses,
	}
	if total := st.ICHits + st.ICMisses; total > 0 {
		row.ICHitRate = float64(st.ICHits) / float64(total)
	}
	return row, nil
}

// RunDispatch measures the full grid. A cell that fails to build or runs
// zero instructions is a bench failure, not a data point. The base tier is
// additionally required to have stayed off the fused tier and the other
// tiers to have trace-promoted, so a row can't silently measure the wrong
// interpreter.
func RunDispatch(sw DispatchSweep, progress io.Writer) (*DispatchReport, error) {
	if sw.Rounds <= 0 {
		sw.Rounds = 3
	}
	if sw.MinRoundMillis <= 0 {
		sw.MinRoundMillis = 50
	}
	rep := &DispatchReport{
		Experiment: "dispatch",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Note: "ins_per_sec is best-of-" + fmt.Sprint(sw.Rounds) + " steady-state " +
			"interpreter throughput after warmup; speedup_vs_base divides by the " +
			"same mix's base-tier row. The arith mix isolates superinstruction " +
			"fusion; the virtual mix adds a monomorphic call so inline caches " +
			"matter; the native mix is the webserver's String natives on one " +
			"request line (ten native calls per 40 instructions), where the " +
			"native boundary, not the tier, sets the rate (before the string " +
			"runtime worked in place and native calls were pre-bound, PR 13, " +
			"this mix ran at 3.2-3.8M ins/s with 22 834 Go allocs/slice on the " +
			"2-vCPU recording host). trace_promotions proves which tier " +
			"actually executed.",
	}
	for _, mix := range dispatchMixes {
		var baseRate float64
		for _, tier := range dispatchTiers {
			row, err := runDispatchCell(mix.Src, tier.Opts, sw.Rounds, sw.MinRoundMillis)
			if err != nil {
				return nil, fmt.Errorf("bench: dispatch mix=%s tier=%s: %w", mix.Name, tier.Name, err)
			}
			row.Mix, row.Tier = mix.Name, tier.Name
			if tier.Name == "base" {
				if row.TracePromotions != 0 {
					return nil, fmt.Errorf("bench: dispatch mix=%s: base tier trace-promoted", mix.Name)
				}
				baseRate = row.InsPerSec
			} else if row.TracePromotions == 0 {
				return nil, fmt.Errorf("bench: dispatch mix=%s tier=%s: hot loop never trace-promoted", mix.Name, tier.Name)
			}
			if baseRate > 0 {
				row.SpeedupVsBase = row.InsPerSec / baseRate
			}
			rep.Rows = append(rep.Rows, row)
			if progress != nil {
				fmt.Fprintf(progress, ".")
			}
		}
		if progress != nil {
			fmt.Fprintln(progress)
		}
	}
	return rep, nil
}

// WriteDispatchJSON writes the report as indented JSON (BENCH_dispatch.json).
func WriteDispatchJSON(path string, rep *DispatchReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// PrintDispatch renders the grid as text.
func PrintDispatch(w io.Writer, rep *DispatchReport) {
	fmt.Fprintf(w, "Interpreter dispatch tiers (gomaxprocs=%d, cpus=%d)\n",
		rep.GOMAXPROCS, rep.NumCPU)
	fmt.Fprintf(w, "%8s %9s %14s %9s %12s %12s %10s %10s %9s\n",
		"mix", "tier", "ins/s", "speedup", "allocs/slice", "promotions", "ic-hits", "ic-misses", "hit-rate")
	for _, r := range rep.Rows {
		fmt.Fprintf(w, "%8s %9s %14.0f %8.2fx %12.2f %12d %10d %10d %9.3f\n",
			r.Mix, r.Tier, r.InsPerSec, r.SpeedupVsBase, r.AllocsPerSlice,
			r.TracePromotions, r.ICHits, r.ICMisses, r.ICHitRate)
	}
	fmt.Fprintf(w, "note: %s\n", rep.Note)
}
