package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder(8)
	if !r.Enabled() {
		t.Fatal("fresh recorder must be enabled")
	}
	r.Emit(KUpdateRequested, LaneEngine, 0, "v1")
	r.Emit(KSafePointAttempt, LaneEngine, 1, "")
	r.Emit(KSafePointReached, LaneEngine, 1, "")
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("events = %d, want 3", len(evs))
	}
	if evs[0].Kind != KUpdateRequested || evs[0].Str != "v1" {
		t.Fatalf("first event %+v", evs[0])
	}
	if r.Total() != 3 {
		t.Fatalf("total = %d, want 3", r.Total())
	}
	// Timestamps are monotone non-decreasing.
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("timestamps regressed: %v then %v", evs[i-1].TS, evs[i].TS)
		}
	}
}

func TestRecorderRingWrap(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Emit(KTrace, LaneEngine, int64(i), "")
	}
	if r.Total() != 10 {
		t.Fatalf("total = %d, want 10", r.Total())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("buffered = %d, want capacity 4", len(evs))
	}
	// Oldest-first: the ring must hold exactly the last four, in order.
	for i, e := range evs {
		if e.Arg != int64(6+i) {
			t.Fatalf("evs[%d].Arg = %d, want %d (snapshot %+v)", i, e.Arg, 6+i, evs)
		}
	}
	last2 := r.Last(2)
	if len(last2) != 2 || last2[0].Arg != 8 || last2[1].Arg != 9 {
		t.Fatalf("Last(2) = %+v", last2)
	}
	// Last(n) larger than the buffer returns everything.
	if got := r.Last(100); len(got) != 4 {
		t.Fatalf("Last(100) = %d events", len(got))
	}
}

func TestRecorderNilAndDisabled(t *testing.T) {
	var nilRec *Recorder
	nilRec.Emit(KTrace, LaneEngine, 0, "dropped") // must not panic
	nilRec.Emitf(LaneEngine, "dropped %d", 1)
	nilRec.SetEnabled(true)
	nilRec.Reset()
	if nilRec.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if nilRec.Events() != nil || nilRec.Total() != 0 {
		t.Fatal("nil recorder holds events")
	}
	if !nilRec.Start().IsZero() {
		t.Fatal("nil recorder start time")
	}

	r := NewRecorder(4)
	r.SetEnabled(false)
	r.Emit(KTrace, LaneEngine, 0, "dropped")
	if r.Total() != 0 {
		t.Fatal("disabled recorder recorded an event")
	}
	r.SetEnabled(true)
	r.Emit(KTrace, LaneEngine, 0, "kept")
	if r.Total() != 1 {
		t.Fatal("re-enabled recorder dropped an event")
	}
}

func TestRecorderReset(t *testing.T) {
	r := NewRecorder(4)
	r.Emit(KTrace, LaneEngine, 0, "x")
	before := r.Start()
	time.Sleep(time.Millisecond)
	r.Reset()
	if r.Total() != 0 || len(r.Events()) != 0 {
		t.Fatal("reset left events behind")
	}
	if !r.Start().After(before) {
		t.Fatal("reset did not restart the clock")
	}
}

func TestRecorderConcurrentEmit(t *testing.T) {
	r := NewRecorder(64)
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Emit(KGCWorkerCopy, LaneThread(w), int64(i), "")
			}
		}(w)
	}
	wg.Wait()
	if r.Total() != workers*per {
		t.Fatalf("total = %d, want %d", r.Total(), workers*per)
	}
	if n := len(r.Events()); n != 64 {
		t.Fatalf("buffered = %d, want 64", n)
	}
}

func TestLaneNames(t *testing.T) {
	cases := map[int32]string{
		LaneEngine:     "DSU engine",
		LaneGC:         "GC",
		LaneReloc:      "DSU relocator",
		LaneThread(1):  "VM thread 1",
		LaneThread(42): "VM thread 42",
	}
	for lane, want := range cases {
		if got := LaneName(lane); got != want {
			t.Errorf("LaneName(%d) = %q, want %q", lane, got, want)
		}
	}
}

func TestWriteEventsAndKindStrings(t *testing.T) {
	r := NewRecorder(8)
	r.Emit(KBarrierInstalled, LaneThread(2), 1, "Foo.bar()V")
	r.Emit(KUpdateApplied, LaneEngine, 3, "")
	var b strings.Builder
	WriteEvents(&b, r.Events())
	out := b.String()
	for _, want := range []string{"barrier-installed", "update-applied", "VM thread 2", "Foo.bar()V"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteEvents output missing %q:\n%s", want, out)
		}
	}
	// Every declared kind has a name.
	for k := KTrace; k <= KUpdateFailed; k++ {
		if strings.HasPrefix(k.String(), "kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
}

func TestRecorderDropped(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 3; i++ {
		r.Emit(KTrace, LaneEngine, int64(i), "")
	}
	if r.Dropped() != 0 {
		t.Fatalf("dropped = %d before wrap", r.Dropped())
	}
	for i := 0; i < 7; i++ {
		r.Emit(KTrace, LaneEngine, int64(i), "")
	}
	if r.Total() != 10 || r.Dropped() != 6 {
		t.Fatalf("total=%d dropped=%d, want 10/6", r.Total(), r.Dropped())
	}
	r.Reset()
	if r.Dropped() != 0 {
		t.Fatalf("dropped = %d after reset", r.Dropped())
	}
	var nilR *Recorder
	if nilR.Dropped() != 0 {
		t.Fatal("nil recorder reported loss")
	}
}
