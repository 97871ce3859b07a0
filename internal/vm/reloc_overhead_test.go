package vm

import (
	"runtime"
	"testing"

	"govolve/internal/rt"
)

// Overhead gates for the concurrent-relocation load barrier, mirroring the
// lazy-transform gates in lazy_overhead_test.go and reusing their
// ref-load-heavy dispatch loop (loadLoopSrc / newLoadDispatchVM). Two states
// matter: disabled (no drain in flight — one nil check on the heap's access
// paths and one nil check per slice for the residue hook) and
// armed-but-drained (barrier armed, from-space interval already empty —
// every reference load pays the atomic word load plus the interval test but
// never heals, and the installed eager residue adds its flag test per
// dereference).

// armRelocDrained arms the relocation barrier with an empty from-space
// interval and a heal hook that must never fire, plus an idle residue hook
// (no-op scheduler tick, not on-touch): the steady state of a drain that
// the workers have already run dry but that has not yet been retired.
func armRelocDrained(tb testing.TB, v *VM) {
	tb.Helper()
	v.Heap.ArmReloc(1, 1, func(a rt.Addr) rt.Addr {
		tb.Fatalf("reloc heal hook fired at @%d with an empty from-space", a)
		return a
	})
	v.Residue = stubResidue(tb, false)
}

// BenchmarkRelocDisabledDispatch measures the load-heavy dispatch loop with
// the relocation barrier disabled — the state every instruction between
// updates runs in. Compare with BenchmarkRelocArmedDrainedDispatch.
func BenchmarkRelocDisabledDispatch(b *testing.B) {
	v := newLoadDispatchVM(b)
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

// BenchmarkRelocArmedDrainedDispatch is the armed-but-drained tripwire: the
// barrier is armed with an empty from-space, so every reference load pays
// the full barrier sequence (atomic load + interval test) without ever
// healing. This is the worst steady-state tax a mutator sees near the end of
// a drain, and the benchmark that catches an accidentally expensive armed
// path.
func BenchmarkRelocArmedDrainedDispatch(b *testing.B) {
	v := newLoadDispatchVM(b)
	armRelocDrained(b, v)
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

// TestRelocArmedDrainedZeroAlloc: the armed load barrier must not allocate —
// healing is CAS-on-heap-words and the drained fast path is a pure read.
func TestRelocArmedDrainedZeroAlloc(t *testing.T) {
	v := newLoadDispatchVM(t)
	armRelocDrained(t, v)
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
		t.Fatalf("armed-drained load path allocates: %.1f allocs per 10 slices", allocs)
	}
}

// TestRelocDisabledOverheadGate bounds the relocation barrier's dispatch
// cost. As with the lazy gate, the disabled path (barrier disarmed, no
// residue hook) is nil checks compiled in unconditionally, with no in-binary
// baseline to diff against — its ≤2% claim rides on the zero-alloc tests and
// the printed benchmark pair. What this gate pins is the armed-but-drained
// tax: atomic loads plus an interval test on every reference load. Same
// estimator and floor as the lazy gate (armedDispatchRatio).
func TestRelocDisabledOverheadGate(t *testing.T) {
	if r := armedDispatchRatio(t, armRelocDrained); r < armedOverheadFloor {
		t.Fatalf("armed-drained dispatch at %.1f%% of disabled, want ≥%.0f%%", r*100, armedOverheadFloor*100)
	}
}
