package vm

import (
	"io"
	"strings"
	"testing"

	"govolve/internal/obs"
)

// TestStatsDelta pins the Delta contract: monotonic counters subtract, the
// point-in-time gauges (queue depths, thread counts) pass through from the
// later snapshot untouched.
func TestStatsDelta(t *testing.T) {
	prev := Stats{
		Instructions:   100,
		Slices:         10,
		SchedulerScans: 20,
		WakeChecks:     30,
		ThreadsSpawned: 4,
		ThreadsReaped:  3,
		AllocObjects:   50,
		AllocArrays:    5,
		GCCollections:  1,
		RunnableQueue:  9, // gauges in prev must be ignored
		BlockedThreads: 9,
		LiveThreads:    9,
		TableThreads:   9,
		DeadErrorCount: 9,
	}
	now := Stats{
		Instructions:   175,
		Slices:         16,
		SchedulerScans: 29,
		WakeChecks:     44,
		ThreadsSpawned: 6,
		ThreadsReaped:  5,
		AllocObjects:   71,
		AllocArrays:    8,
		GCCollections:  3,
		RunnableQueue:  2,
		BlockedThreads: 1,
		LiveThreads:    4,
		TableThreads:   7,
		DeadErrorCount: 0,
	}
	d := now.Delta(prev)
	want := Stats{
		Instructions:   75,
		Slices:         6,
		SchedulerScans: 9,
		WakeChecks:     14,
		ThreadsSpawned: 2,
		ThreadsReaped:  2,
		AllocObjects:   21,
		AllocArrays:    3,
		GCCollections:  2,
		// Gauges: exactly the later snapshot's values.
		RunnableQueue:  2,
		BlockedThreads: 1,
		LiveThreads:    4,
		TableThreads:   7,
		DeadErrorCount: 0,
	}
	if d != want {
		t.Fatalf("Delta mismatch:\n got %+v\nwant %+v", d, want)
	}
	// Delta against a zero snapshot is the identity on counters.
	if z := now.Delta(Stats{}); z != now {
		t.Fatalf("Delta(zero) changed the snapshot:\n got %+v\nwant %+v", z, now)
	}
}

// TestPublishMetricsDeltaAdd checks that PublishMetrics adds only the delta
// since the previous publish, so registry counters track the VM counters
// cumulatively instead of double-counting on every snapshot.
func TestPublishMetricsDeltaAdd(t *testing.T) {
	v, err := New(Options{HeapWords: 1 << 12, Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	v.AttachObs(nil, reg)

	v.TotalSteps = 100
	v.PublishMetrics()
	if got := reg.Counter("govolve_vm_instructions_total").Value(); got != 100 {
		t.Fatalf("after first publish: instructions counter = %d, want 100", got)
	}
	v.TotalSteps = 160
	v.PublishMetrics()
	if got := reg.Counter("govolve_vm_instructions_total").Value(); got != 160 {
		t.Fatalf("after second publish: instructions counter = %d, want 160 (delta-add, not 260)", got)
	}
	// Idempotent when nothing moved.
	v.PublishMetrics()
	if got := reg.Counter("govolve_vm_instructions_total").Value(); got != 160 {
		t.Fatalf("idle publish moved the counter to %d", got)
	}
}

// TestTracefRoutesToRecorder checks the tracef fan-out satellite: one
// formatted line reaches both the legacy Trace writer and the flight
// recorder as a KTrace event, and a disabled recorder gets nothing.
func TestTracefRoutesToRecorder(t *testing.T) {
	v, err := New(Options{HeapWords: 1 << 12, Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	rec := obs.NewRecorder(16)
	v.Trace = &sb
	v.AttachObs(rec, nil)

	v.tracef("hello %d", 42)
	if !strings.Contains(sb.String(), "hello 42") {
		t.Fatalf("legacy Trace writer missed the line: %q", sb.String())
	}
	evs := rec.Events()
	if len(evs) != 1 || evs[0].Kind != obs.KTrace || evs[0].Str != "hello 42" {
		t.Fatalf("recorder events = %+v, want one KTrace 'hello 42'", evs)
	}

	rec.SetEnabled(false)
	v.tracef("dropped %d", 7)
	if !strings.Contains(sb.String(), "dropped 7") {
		t.Fatalf("legacy writer must keep working with the recorder off")
	}
	if n := len(rec.Events()); n != 1 {
		t.Fatalf("disabled recorder grew to %d events", n)
	}
}
