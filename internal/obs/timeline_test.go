package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func ev(ts time.Duration, k Kind, lane int32, arg int64, str string) Event {
	return Event{TS: ts, Kind: k, Lane: lane, Arg: arg, Str: str}
}

func TestBuildTracePairsSpans(t *testing.T) {
	events := []Event{
		ev(0, KUpdateRequested, LaneEngine, 0, "2"),
		ev(1*time.Millisecond, KSafePointAttempt, LaneEngine, 1, "Srv.handle()V"),
		ev(2*time.Millisecond, KSafePointAttempt, LaneEngine, 2, ""),
		ev(2*time.Millisecond, KSafePointReached, LaneEngine, 2, ""),
		ev(2*time.Millisecond, KThreadStop, LaneThread(1), 0, "dsu pause"),
		ev(2*time.Millisecond, KPhaseBegin, LaneEngine, 0, "update pause"),
		ev(2*time.Millisecond, KPhaseBegin, LaneEngine, 0, "install"),
		ev(3*time.Millisecond, KPhaseEnd, LaneEngine, 0, "install"),
		ev(3*time.Millisecond, KPhaseBegin, LaneEngine, 0, "gc"),
		ev(3*time.Millisecond, KPhaseBegin, LaneGC, 0, "gc copy/scan"),
		ev(5*time.Millisecond, KPhaseEnd, LaneGC, 900, "gc copy/scan"),
		ev(5*time.Millisecond, KPhaseEnd, LaneEngine, 0, "gc"),
		ev(6*time.Millisecond, KPhaseEnd, LaneEngine, 0, "update pause"),
		ev(6*time.Millisecond, KThreadResume, LaneThread(1), 0, "dsu pause"),
		ev(6*time.Millisecond, KUpdateApplied, LaneEngine, 2, ""),
	}
	doc := BuildTrace(events)

	type found struct{ x, i int }
	byName := map[string]*found{}
	for _, e := range doc.TraceEvents {
		f := byName[e.Name]
		if f == nil {
			f = &found{}
			byName[e.Name] = f
		}
		switch e.Ph {
		case "X":
			f.x++
			if e.Dur < 0 {
				t.Errorf("span %q has negative duration %v", e.Name, e.Dur)
			}
		case "i":
			f.i++
		}
	}
	for _, span := range []string{"update pause", "install", "gc", "gc copy/scan", "stopped"} {
		if byName[span] == nil || byName[span].x != 1 {
			t.Errorf("span %q: %+v, want exactly one X event", span, byName[span])
		}
	}
	if byName["safe-point attempt"] == nil || byName["safe-point attempt"].i != 2 {
		t.Errorf("safe-point attempt instants: %+v", byName["safe-point attempt"])
	}
	if byName["update applied"] == nil || byName["update applied"].i != 1 {
		t.Errorf("update applied instant missing")
	}

	// Nested spans on the engine lane: "install" must sit inside
	// "update pause".
	var outer, inner *TraceEvent
	for i := range doc.TraceEvents {
		e := &doc.TraceEvents[i]
		if e.Ph != "X" {
			continue
		}
		switch e.Name {
		case "update pause":
			outer = e
		case "install":
			inner = e
		}
	}
	if outer == nil || inner == nil {
		t.Fatal("missing nested spans")
	}
	if inner.TS < outer.TS || inner.TS+inner.Dur > outer.TS+outer.Dur {
		t.Fatalf("install span [%v,%v] escapes update pause [%v,%v]",
			inner.TS, inner.TS+inner.Dur, outer.TS, outer.TS+outer.Dur)
	}

	// Metadata: process name plus one thread_name per lane used.
	lanes := map[int32]bool{LaneEngine: true, LaneGC: true, LaneThread(1): true}
	named := map[int32]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			named[e.TID] = true
		}
	}
	for lane := range lanes {
		if !named[lane] {
			t.Errorf("lane %d has no thread_name metadata", lane)
		}
	}
}

func TestBuildTraceToleratesRingLoss(t *testing.T) {
	// An end without its begin (begin was overwritten): dropped. A begin
	// without its end (end not yet emitted): closed at the last timestamp.
	events := []Event{
		ev(1*time.Millisecond, KPhaseEnd, LaneEngine, 0, "lost-begin"),
		ev(2*time.Millisecond, KPhaseBegin, LaneEngine, 0, "dangling"),
		ev(9*time.Millisecond, KTrace, LaneEngine, 0, "late instant"),
	}
	doc := BuildTrace(events)
	for _, e := range doc.TraceEvents {
		if e.Name == "lost-begin" {
			t.Fatalf("unmatched end produced an event: %+v", e)
		}
	}
	var dangling *TraceEvent
	for i := range doc.TraceEvents {
		if doc.TraceEvents[i].Name == "dangling" {
			dangling = &doc.TraceEvents[i]
		}
	}
	if dangling == nil || dangling.Ph != "X" {
		t.Fatalf("dangling begin not closed: %+v", dangling)
	}
	if got, want := dangling.TS+dangling.Dur, 9000.0; got != want {
		t.Fatalf("dangling span closed at %v µs, want last TS %v", got, want)
	}
}

func TestWriteChromeTraceIsValidJSON(t *testing.T) {
	events := []Event{
		ev(0, KPhaseBegin, LaneEngine, 0, "install"),
		ev(time.Millisecond, KPhaseEnd, LaneEngine, 0, "install"),
		ev(time.Millisecond, KOSRRecompile, LaneEngine, 1, "A.m()V"),
	}
	var b strings.Builder
	if err := WriteChromeTrace(&b, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	// Every event carries the Chrome-required fields.
	for _, e := range doc.TraceEvents {
		for _, k := range []string{"name", "ph", "ts", "pid"} {
			if _, ok := e[k]; !ok {
				t.Fatalf("event %v missing %q", e, k)
			}
		}
	}
	// The active rewrite renders under its own name.
	foundOSR := false
	for _, e := range doc.TraceEvents {
		if e["name"] == "active-method rewrite" {
			foundOSR = true
		}
	}
	if !foundOSR {
		t.Fatal("KOSRRecompile with Arg=1 did not render as active-method rewrite")
	}
}

func TestRecorderBuildTraceCarriesLossMetadata(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 9; i++ {
		r.Emit(KTrace, LaneEngine, int64(i), "")
	}
	doc := r.BuildTrace()
	if doc.Metadata["events_total"] != uint64(9) {
		t.Fatalf("events_total = %v", doc.Metadata["events_total"])
	}
	if doc.Metadata["events_dropped"] != uint64(5) {
		t.Fatalf("events_dropped = %v", doc.Metadata["events_dropped"])
	}
	var b strings.Builder
	if err := r.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Metadata map[string]any `json:"metadata"`
	}
	if err := json.Unmarshal([]byte(b.String()), &parsed); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if parsed.Metadata["events_dropped"] != float64(5) {
		t.Fatalf("serialized metadata %+v", parsed.Metadata)
	}
}
