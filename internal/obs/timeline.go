package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Timeline export: flight-recorder events rendered as Chrome trace-event
// JSON (the "JSON Array Format" with a traceEvents envelope), loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing. One track (tid) per lane:
// the DSU engine, the collector, and each VM thread that took part in a
// stop-the-world window.
//
// Span events (KPhaseBegin/KPhaseEnd, KThreadStop/KThreadResume) are paired
// per lane into complete "X" events — robust against a ring buffer that
// overwrote one side of a pair: unmatched ends are dropped, unmatched
// begins are closed at the last event's timestamp. Everything else becomes
// an instant "i" event on its lane.

// TraceEvent is one Chrome trace-event entry.
type TraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int32          `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// TraceDoc is the trace-event envelope.
type TraceDoc struct {
	TraceEvents []TraceEvent   `json:"traceEvents"`
	Metadata    map[string]any `json:"metadata,omitempty"`
}

const tracePID = 1

func micros(e Event) float64 { return float64(e.TS.Nanoseconds()) / 1e3 }

// spanName maps a begin/end event pair to its display name.
func spanName(e Event) string {
	switch e.Kind {
	case KThreadStop, KThreadResume:
		return "stopped"
	default:
		return e.Str
	}
}

// BuildTrace converts events into a Chrome trace document.
func BuildTrace(events []Event) *TraceDoc {
	doc := &TraceDoc{Metadata: map[string]any{"source": "govolve flight recorder"}}

	// Lane name metadata + a stable sort order for tracks.
	lanes := map[int32]bool{}
	addLane := func(l int32) { lanes[l] = true }

	type openSpan struct {
		name string
		ts   float64
	}
	open := map[int32][]openSpan{} // per-lane stack
	lastTS := 0.0

	closeSpan := func(lane int32, name string, end float64) {
		stack := open[lane]
		// Find the innermost matching open span (tolerate ring loss).
		for i := len(stack) - 1; i >= 0; i-- {
			if stack[i].name == name {
				doc.TraceEvents = append(doc.TraceEvents, TraceEvent{
					Name: name, Ph: "X", TS: stack[i].ts, Dur: end - stack[i].ts,
					PID: tracePID, TID: lane,
				})
				open[lane] = append(stack[:i], stack[i+1:]...)
				return
			}
		}
		// Unmatched end (begin was overwritten in the ring): drop it.
	}

	instant := func(e Event, name string, args map[string]any) {
		doc.TraceEvents = append(doc.TraceEvents, TraceEvent{
			Name: name, Ph: "i", TS: micros(e), PID: tracePID, TID: e.Lane,
			S: "t", Args: args,
		})
	}

	for _, e := range events {
		ts := micros(e)
		if ts > lastTS {
			lastTS = ts
		}
		addLane(e.Lane)
		switch e.Kind {
		case KPhaseBegin:
			open[e.Lane] = append(open[e.Lane], openSpan{name: spanName(e), ts: ts})
		case KPhaseEnd:
			closeSpan(e.Lane, spanName(e), ts)
		case KThreadStop:
			open[e.Lane] = append(open[e.Lane], openSpan{name: "stopped", ts: ts})
		case KThreadResume:
			closeSpan(e.Lane, "stopped", ts)
		case KSafePointAttempt:
			args := map[string]any{"attempt": e.Arg}
			if e.Str != "" {
				args["blocked_by"] = e.Str
			}
			instant(e, "safe-point attempt", args)
		case KSafePointReached:
			instant(e, "safe point reached", map[string]any{"attempts": e.Arg})
		case KBarrierInstalled:
			instant(e, "barrier installed", map[string]any{"method": e.Str})
		case KBarrierFired:
			instant(e, "barrier fired", map[string]any{"method": e.Str})
		case KOSRRecompile:
			name := "OSR recompile"
			if e.Arg == 1 {
				name = "active-method rewrite"
			}
			instant(e, name, map[string]any{"method": e.Str})
		case KGCWorkerCopy:
			instant(e, "copied", map[string]any{"words": e.Arg})
		case KTransformerApplied:
			instant(e, "transformer", map[string]any{"what": e.Str, "objects": e.Arg})
		case KUpdateRequested:
			instant(e, "update requested", map[string]any{"tag": e.Str})
		case KUpdateApplied:
			instant(e, "update applied", nil)
		case KUpdateAborted:
			instant(e, "update aborted", map[string]any{"reason": e.Str})
		case KUpdateFailed:
			instant(e, "update failed", map[string]any{"reason": e.Str})
		case KTrace:
			instant(e, "trace", map[string]any{"msg": e.Str})
		}
	}

	// Close any spans whose end the ring lost (or that were still open).
	for lane, stack := range open {
		for i := len(stack) - 1; i >= 0; i-- {
			doc.TraceEvents = append(doc.TraceEvents, TraceEvent{
				Name: stack[i].name, Ph: "X", TS: stack[i].ts, Dur: lastTS - stack[i].ts,
				PID: tracePID, TID: lane,
			})
		}
	}

	// Track-name metadata, in lane order for stable output.
	ordered := make([]int32, 0, len(lanes))
	for l := range lanes {
		ordered = append(ordered, l)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	meta := make([]TraceEvent, 0, len(ordered)+1)
	meta = append(meta, TraceEvent{
		Name: "process_name", Ph: "M", PID: tracePID,
		Args: map[string]any{"name": "govolve VM"},
	})
	for _, l := range ordered {
		meta = append(meta, TraceEvent{
			Name: "thread_name", Ph: "M", PID: tracePID, TID: l,
			Args: map[string]any{"name": LaneName(l)},
		})
	}
	doc.TraceEvents = append(meta, doc.TraceEvents...)
	return doc
}

// Encode writes the document as Chrome trace-event JSON.
func (d *TraceDoc) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(d); err != nil {
		return fmt.Errorf("obs: encoding trace: %w", err)
	}
	return nil
}

// WriteChromeTrace renders events as Chrome trace-event JSON.
func WriteChromeTrace(w io.Writer, events []Event) error {
	return BuildTrace(events).Encode(w)
}

// BuildTrace converts the recorder's buffered events into a trace document
// whose metadata states how complete the record is: events_total is every
// event ever emitted, events_dropped the ones the ring overwrote (a
// non-zero value means the timeline's left edge is truncated, not quiet).
func (r *Recorder) BuildTrace() *TraceDoc {
	doc := BuildTrace(r.Events())
	doc.Metadata["events_total"] = r.Total()
	doc.Metadata["events_dropped"] = r.Dropped()
	return doc
}

// WriteChromeTrace renders the recorder's buffered events with loss
// metadata — the blessed export for live recorders.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	return r.BuildTrace().Encode(w)
}
