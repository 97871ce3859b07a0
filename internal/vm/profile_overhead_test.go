package vm

import (
	"runtime"
	"strings"
	"testing"

	"govolve/internal/obs"
)

// newProfDispatchVM is newDispatchVM plus an attached-but-disabled sampling
// profiler — the configuration a production VM runs in when profiling is
// armed but switched off. The disabled cost the gates below enforce is one
// nil-check in runSlice plus one atomic load in profileSlice, never anything
// per instruction.
func newProfDispatchVM(tb testing.TB) *VM {
	tb.Helper()
	v := newDispatchVM(tb)
	p := obs.NewProfiler(0)
	p.SetEnabled(false)
	v.AttachProfiler(p)
	v.Step(100) // re-warm after attach
	return v
}

// BenchmarkProfDisabledOverhead is BenchmarkInterpDispatch with a disabled
// profiler attached; compare against the bare benchmark to see what sampling
// costs when off.
func BenchmarkProfDisabledOverhead(b *testing.B) {
	v := newProfDispatchVM(b)
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

// TestProfDisabledZeroAlloc: with the profiler attached but disabled, the
// interpreter fast path still allocates nothing.
func TestProfDisabledZeroAlloc(t *testing.T) {
	v := newProfDispatchVM(t)
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
		t.Fatalf("disabled-profiler fast path allocates: %.1f allocs per 10 slices", allocs)
	}
}

// TestProfEnabledSteadyStateZeroAlloc: even with sampling ON, the steady
// state allocates nothing once every frame key has been seen — the scratch
// buffer is reused and names register once.
func TestProfEnabledSteadyStateZeroAlloc(t *testing.T) {
	v := newDispatchVM(t)
	v.AttachProfiler(obs.NewProfiler(64))
	v.Step(200) // populate profSeen and size the scratch buffer
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocs := testing.AllocsPerRun(50, func() {
		v.Step(10)
	})
	if allocs != 0 {
		t.Fatalf("enabled-profiler steady state allocates: %.1f allocs per 10 slices", allocs)
	}
}

// TestProfDisabledOverheadGate is the profiler's dispatch gate: same
// estimator and floor as the recorder's (pairedDispatchRatio,
// disabledOverheadFloor). Skipped under -race: tsan instruments every access
// with a function call, so a relative throughput bound would measure the
// instrumentation, not the dispatch loop (same policy as the heap barrier
// gates).
func TestProfDisabledOverheadGate(t *testing.T) {
	if raceEnabled {
		t.Skip("throughput gate is meaningless under the race detector")
	}
	r := pairedDispatchRatio(t, func() (*VM, *VM) { return newDispatchVM(t), newProfDispatchVM(t) })
	t.Logf("disabled-profiler/bare dispatch = %.3f", r)
	if r < disabledOverheadFloor {
		t.Fatalf("disabled-profiler dispatch at %.1f%% of bare, want ≥%.0f%%", r*100, disabledOverheadFloor*100)
	}
}

// TestProfilerSamplesInterpreterFrames: an enabled profiler attached to a
// running VM collects weighted, version-attributed samples at slice
// boundaries.
func TestProfilerSamplesInterpreterFrames(t *testing.T) {
	v := newDispatchVM(t)
	p := obs.NewProfiler(256)
	v.AttachProfiler(p)
	before := v.TotalSteps
	v.Step(50)
	executed := v.TotalSteps - before
	if p.TotalSamples() == 0 {
		t.Fatal("no samples after 50 slices")
	}
	var weight int64
	for _, l := range p.Folded() {
		weight += l.Weight
		if !strings.Contains(l.Stack, "@c") {
			t.Fatalf("stack %q lacks a class-version discriminator", l.Stack)
		}
	}
	// Every interpreted instruction of the sampled slices is attributed.
	if weight <= 0 || weight > executed {
		t.Fatalf("folded weight %d vs %d instructions executed", weight, executed)
	}
}
