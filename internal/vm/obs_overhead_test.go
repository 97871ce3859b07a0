package vm

import (
	"runtime"
	"testing"
	"time"

	"govolve/internal/obs"
)

// newObsDispatchVM is newDispatchVM plus an attached-but-disabled flight
// recorder and a live registry: the configuration every production run uses
// between updates, and the one the disabled-overhead gate must keep free.
func newObsDispatchVM(tb testing.TB) *VM {
	tb.Helper()
	v := newDispatchVM(tb)
	rec := obs.NewRecorder(obs.DefaultCapacity)
	rec.SetEnabled(false)
	v.AttachObs(rec, obs.NewRegistry())
	v.Step(100) // re-warm after attach
	return v
}

// BenchmarkObsDisabledOverhead is BenchmarkInterpDispatch with a disabled
// recorder and a registry attached. Compare the two to see what observability
// costs when it is off; the paired allocation test and throughput gate below
// enforce the answer ("nothing measurable") in `make verify`.
func BenchmarkObsDisabledOverhead(b *testing.B) {
	v := newObsDispatchVM(b)
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

// TestObsDisabledZeroAlloc: with the recorder attached but disabled and a
// registry present, the interpreter fast path still allocates nothing.
func TestObsDisabledZeroAlloc(t *testing.T) {
	v := newObsDispatchVM(t)
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
		t.Fatalf("disabled-obs fast path allocates: %.1f allocs per 10 slices", allocs)
	}
}

// dispatchRate times slices on a warmed VM and returns instructions/second.
func dispatchRate(tb testing.TB, v *VM, slices int) float64 {
	tb.Helper()
	start := v.TotalSteps
	t0 := time.Now()
	v.Step(slices)
	el := time.Since(t0)
	executed := v.TotalSteps - start
	if executed == 0 || el <= 0 {
		tb.Fatal("dispatch sample executed nothing")
	}
	return float64(executed) / el.Seconds()
}

// TestObsDisabledOverheadGate is the gate from the observability issue:
// steady-state dispatch with a disabled recorder attached must cost nothing
// next to a bare VM. The disabled path is a nil check plus one atomic load and
// never appears in the dispatch loop at all, so the true ratio is 1.0; the
// estimator is pairedDispatchRatio, and the floor is disabledOverheadFloor.
// Runs under -race too, where both sides are slowed alike.
func TestObsDisabledOverheadGate(t *testing.T) {
	r := pairedDispatchRatio(t, func() (*VM, *VM) { return newDispatchVM(t), newObsDispatchVM(t) })
	t.Logf("disabled-obs/bare dispatch = %.3f", r)
	if r < disabledOverheadFloor {
		t.Fatalf("disabled-obs dispatch at %.1f%% of bare, want ≥%.0f%%", r*100, disabledOverheadFloor*100)
	}
}

// disabledOverheadFloor is where the tripwire lives for the two disabled-plane
// gates. Their true ratio is 1.0 and one run's median scatters around it —
// 110 recorded runs each on the 2-vCPU host: recorder 0.958–1.036 (median
// 1.003, 5th percentile 0.987), profiler 0.971–1.018 (median 0.998); the
// recorder's gate under -race, at 21 pairs, 0.957–1.036 over 106 runs (median
// 1.002, 5th percentile 0.972) — so the 0.98 the best-of gates asked for
// failed one honest run in 25. What the
// floor catches is work that found its way onto the per-slice or
// per-instruction path: an allocation or a lock there costs tens of percent.
const disabledOverheadFloor = 0.94
