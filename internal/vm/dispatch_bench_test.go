package vm

import (
	"bytes"
	"runtime"
	"testing"

	"govolve/internal/asm"
)

// dispatchLoopSrc is a tight arithmetic loop: the interpreter fast path with
// no calls, no allocation, and one taken backedge per iteration. An infinite
// loop lets the harness pump as many slices as it likes.
const dispatchLoopSrc = `
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

// newDispatchVM builds a VM running the arithmetic loop and warms it past
// JIT recompilation and slice-ring growth so steady state is measured.
// With default options the hot loop trace-promotes onto the fused tier
// during warmup, so this measures the current production configuration.
func newDispatchVM(tb testing.TB) *VM {
	return newDispatchVMOpts(tb, Options{})
}

// newDispatchVMOpts is newDispatchVM with tier selection: pass
// TraceThreshold -1 + a huge OptThreshold for the base-only interpreter,
// or NoInlineCache to isolate the fusion win from the IC win.
func newDispatchVMOpts(tb testing.TB, opts Options) *VM {
	tb.Helper()
	var out bytes.Buffer
	opts.HeapWords = 1 << 14
	opts.Out = &out
	v, err := New(opts)
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := asm.AssembleProgram("dispatch.jva", dispatchLoopSrc)
	if err != nil {
		tb.Fatal(err)
	}
	if err := v.LoadProgram(prog); err != nil {
		tb.Fatal(err)
	}
	if _, err := v.SpawnMain("Hot"); err != nil {
		tb.Fatal(err)
	}
	// Warmup: enough slices for adaptive recompilation and for the frame's
	// operand stack and scheduler structures to reach their final capacity.
	v.Step(500)
	return v
}

// BenchmarkInterpDispatch measures steady-state interpreter dispatch: one op
// is one scheduling slice (Quantum instructions). It reports instructions
// per op and per second, plus allocs/op — the inner loop must be
// allocation-free.
func BenchmarkInterpDispatch(b *testing.B) {
	benchDispatch(b, newDispatchVM(b))
}

// benchDispatch measures steady-state dispatch on an already-warm VM.
func benchDispatch(b *testing.B, v *VM) {
	b.Helper()
	b.ReportAllocs()
	start := v.TotalSteps
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Step(1)
	}
	b.StopTimer()
	executed := v.TotalSteps - start
	if executed == 0 {
		b.Fatal("no instructions executed")
	}
	b.ReportMetric(float64(executed)/float64(b.N), "instructions/op")
	b.ReportMetric(float64(executed)/b.Elapsed().Seconds(), "instructions/s")
}

// BenchmarkInterpDispatchBase pins the pre-fusion interpreter: trace
// promotion disabled, opt recompilation out of reach. This is the PR 1
// number — the denominator of the fused-tier speedup claim.
func BenchmarkInterpDispatchBase(b *testing.B) {
	v := newDispatchVMOpts(b, Options{TraceThreshold: -1, OptThreshold: 1 << 30})
	benchDispatch(b, v)
}

// BenchmarkInterpDispatchFused measures the fused tier explicitly (trace
// promotion fires during warmup; the loop runs as superinstructions).
func BenchmarkInterpDispatchFused(b *testing.B) {
	v := newDispatchVMOpts(b, Options{})
	if v.Stats().TracePromotions == 0 {
		b.Fatal("warmup did not trace-promote the hot loop")
	}
	benchDispatch(b, v)
}

// TestInterpFastPathZeroAlloc is the guard: after warmup, interpreting the
// arithmetic fast path performs zero heap allocations per instruction —
// no closure churn, no boxing, no scheduler garbage. Runs the base tier
// explicitly; TestFusedDispatchZeroAlloc covers the fused tier.
func TestInterpFastPathZeroAlloc(t *testing.T) {
	v := newDispatchVMOpts(t, Options{TraceThreshold: -1, OptThreshold: 1 << 30})
	// One more warm round so every slice-local structure has grown.
	v.Step(100)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	before := v.TotalSteps
	allocs := testing.AllocsPerRun(50, func() {
		v.Step(10)
	})
	executed := v.TotalSteps - before
	if executed < 1000 {
		t.Fatalf("fast path barely ran: %d instructions", executed)
	}
	if allocs != 0 {
		t.Fatalf("interpreter fast path allocates: %.1f allocs per 10 slices (%d instructions executed)", allocs, executed)
	}
}

// TestFusedDispatchZeroAlloc is the fused-tier guard: after trace promotion
// the superinstruction fast path — fused dispatch plus inline-cache-carrying
// code — must also run allocation-free. A single alloc per op here would
// erase the tier's win under GC pressure.
func TestFusedDispatchZeroAlloc(t *testing.T) {
	v := newDispatchVMOpts(t, Options{})
	v.Step(100)
	if v.Stats().TracePromotions == 0 {
		t.Fatal("warmup did not trace-promote the hot loop")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	before := v.TotalSteps
	allocs := testing.AllocsPerRun(50, func() {
		v.Step(10)
	})
	executed := v.TotalSteps - before
	if executed < 1000 {
		t.Fatalf("fused fast path barely ran: %d instructions", executed)
	}
	if allocs != 0 {
		t.Fatalf("fused fast path allocates: %.1f allocs per 10 slices (%d instructions executed)", allocs, executed)
	}
}

// TestFusedSpeedupRatio is the perf tripwire: the fused tier must execute
// the arithmetic loop at least fusedSpeedupFloor times as fast as the base
// interpreter, by pairedDispatchRatio (the median of 101 interleaved
// base/fused pairs; the sequential best-of-three it replaces read 1.26 once
// in a slow host phase against 1.9–2.2 in its reruns). Skipped under the race
// detector, whose instrumentation swamps dispatch cost.
func TestFusedSpeedupRatio(t *testing.T) {
	if raceEnabled {
		t.Skip("dispatch timing is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("timing test")
	}
	ratio := pairedDispatchRatio(t, func() (*VM, *VM) {
		return newDispatchVMOpts(t, Options{TraceThreshold: -1, OptThreshold: 1 << 30}), newDispatchVMOpts(t, Options{})
	})
	t.Logf("fused/base dispatch = %.2fx", ratio)
	if ratio < fusedSpeedupFloor {
		t.Fatalf("fused tier only %.2fx over base, want >= %.2fx", ratio, fusedSpeedupFloor)
	}
}

// fusedSpeedupFloor is a tripwire for the tier falling off the arithmetic
// loop (no promotion, no fusion: 1.0), not a measurement of it. 110 recorded
// runs on the 2-vCPU host read 2.15–2.28 (median 2.21).
const fusedSpeedupFloor = 1.8
