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
// tier ladder that exists — base code and opt code — next to the plain
// reference spelling of base code (1:1 resolution, no superinstructions, no
// inline caches: jit.Compiler.Plain), which is what fusion has to beat to
// stay in the base compiler. Four opcode mixes pin down where each mechanism
// pays: a pure arithmetic loop (fusion dominates), a virtual-call loop
// (fusion collapses the load+invoke pair and the monomorphic IC bypasses the
// TIB walk; inlining cannot touch it), a static-call loop (the shape the opt
// tier's inliner exists for), and the webserver's String natives on one
// request line, which measures the native boundary instead of dispatch:
// tiers barely move it, the native call path and the string runtime do.
// EXPERIMENTS.md E17 reads the recorded grid.

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

// dispatchStaticSrc is the static-call mix: the hot loop calls a five-
// instruction static helper, which base code invokes (a frame per iteration)
// and opt code inlines.
const dispatchStaticSrc = `
class Hot {
  static method step(II)I {
    load 0
    load 1
    add
    const 1048575
    and
    return
  }

  static method main()V {
    const 0
    store 0
    const 1
    store 1
  loop:
    load 0
    load 1
    invokestatic Hot.step(II)I
    store 0
    load 1
    const 1
    add
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
	// SpeedupVsBase is InsPerSec over the same mix's base row: under 1 on
	// the plain row (its inverse is what fusion and inline caches buy), and
	// on the opt row what inlining and folding add.
	SpeedupVsBase float64 `json:"speedup_vs_base"`

	// AllocsPerSlice is heap allocations per scheduling slice at steady
	// state (mallocs delta over 200 slices). The dispatch fast-path
	// contract is 0 for the arith mix on every tier; the call mixes pay one
	// activation record per guest call, which only inlining removes.
	AllocsPerSlice float64 `json:"allocs_per_slice"`

	ICHits   int64 `json:"ic_hits"`
	ICMisses int64 `json:"ic_misses"`
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

// dispatchTier is one point of the tier axis: plain and base keep opt
// recompilation out of reach and differ in the compiler's Plain switch; opt
// compiles every method at the opt level on its first invocation.
type dispatchTier struct {
	Name         string
	OptThreshold int
	Plain        bool
}

var dispatchTiers = []dispatchTier{
	{"plain", 1 << 30, true},
	{"base", 1 << 30, false},
	{"opt", 1, false},
}

var dispatchMixes = []struct {
	Name string
	Src  string
}{
	{"arith", dispatchArithSrc},
	{"virtual", dispatchVirtualSrc},
	{"static", dispatchStaticSrc},
	{"native", vm.StringMixSrc},
}

// runDispatchCell builds, warms, and measures one VM configuration, and
// checks that the hot loop ran the code the tier's name says: no
// superinstruction in a plain main, one in a base main, an opt compile on
// the opt row — so a row can't silently measure the wrong interpreter.
func runDispatchCell(src string, tier dispatchTier, rounds, minRoundMs int) (DispatchRow, error) {
	var out bytes.Buffer
	v, err := vm.New(vm.Options{HeapWords: 1 << 14, Out: &out, OptThreshold: tier.OptThreshold})
	if err != nil {
		return DispatchRow{}, err
	}
	v.JIT.Plain = tier.Plain
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
	// Warmup: past adaptive recompilation and capacity growth in the frame
	// and scheduler structures.
	v.Step(500)
	fused := v.Reg.LookupClass("Hot").Method("main", "()V").Compiled.HoldsSuperinstruction()
	switch {
	case fused == tier.Plain:
		return DispatchRow{}, fmt.Errorf("bench: superinstruction in main: %v", fused)
	case (v.JIT.OptCompiles > 0) != (tier.Name == "opt"):
		return DispatchRow{}, fmt.Errorf("bench: %d opt compiles", v.JIT.OptCompiles)
	}

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
		InsPerSec:      best,
		AllocsPerSlice: float64(after.Mallocs-before.Mallocs) / 200,
		ICHits:         st.ICHits,
		ICMisses:       st.ICMisses,
	}
	if total := st.ICHits + st.ICMisses; total > 0 {
		row.ICHitRate = float64(st.ICHits) / float64(total)
	}
	return row, nil
}

// RunDispatch measures the full grid. A cell that fails to build or runs
// zero instructions, or whose hot loop is not the code its tier names
// (runDispatchCell), is a bench failure, not a data point.
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
			"interpreter throughput after warmup; speedup_vs_base is ins_per_sec " +
			"over the same mix's base row. plain " +
			"is base code without superinstructions or inline caches (the " +
			"compiler's reference spelling), base is what every method starts " +
			"as, opt compiles every method at the opt level on first call. The " +
			"arith mix isolates superinstruction fusion; the virtual mix adds a " +
			"monomorphic call so inline caches matter; the static mix calls a " +
			"five-instruction static helper, which opt inlines (the inlined loop " +
			"retires 16 instructions a turn against the call's 15, so ins/s " +
			"flatters that one cell by 6.7 %); the native mix " +
			"is the webserver's String natives on one " +
			"request line (ten native calls per 40 instructions), where the " +
			"native boundary, not the tier, sets the rate (before the string " +
			"runtime worked in place and native calls were pre-bound, PR 13, " +
			"this mix ran at 3.2-3.8M ins/s with 22 834 Go allocs/slice on the " +
			"2-vCPU recording host). Every cell checks that its hot loop " +
			"holds the code its tier names before it is timed.",
	}
	for _, mix := range dispatchMixes {
		first := len(rep.Rows)
		for _, tier := range dispatchTiers {
			row, err := runDispatchCell(mix.Src, tier, sw.Rounds, sw.MinRoundMillis)
			if err != nil {
				return nil, fmt.Errorf("bench: dispatch mix=%s tier=%s: %w", mix.Name, tier.Name, err)
			}
			row.Mix, row.Tier = mix.Name, tier.Name
			rep.Rows = append(rep.Rows, row)
			if progress != nil {
				fmt.Fprintf(progress, ".")
			}
		}
		base := rep.Rows[first+1].InsPerSec
		for i := first; i < len(rep.Rows); i++ {
			rep.Rows[i].SpeedupVsBase = rep.Rows[i].InsPerSec / base
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
	fmt.Fprintf(w, "%8s %6s %14s %9s %12s %10s %10s %9s\n",
		"mix", "tier", "ins/s", "vs-base", "allocs/slice", "ic-hits", "ic-misses", "hit-rate")
	for _, r := range rep.Rows {
		fmt.Fprintf(w, "%8s %6s %14.0f %8.2fx %12.2f %10d %10d %9.3f\n",
			r.Mix, r.Tier, r.InsPerSec, r.SpeedupVsBase, r.AllocsPerSlice,
			r.ICHits, r.ICMisses, r.ICHitRate)
	}
	fmt.Fprintf(w, "note: %s\n", rep.Note)
}
