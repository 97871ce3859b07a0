// Package obs is govolve's observability plane: a flight recorder (a
// fixed-capacity ring buffer of typed, timestamped events), a Chrome
// trace-event timeline built from those events, and a metrics registry of
// counters, gauges and fixed-bucket histograms with JSON and Prometheus
// text-exposition snapshots.
//
// The package is deliberately free of any dependency on the rest of the
// repository so every layer (vm, core, gc, storm, bench) can emit into it.
// The disabled path is near-zero: a nil *Recorder is a valid recorder whose
// Emit is a single nil check and whose enabled-but-off path is one atomic
// load — no allocations, no formatting, nothing on the interpreter hot loop
// (guarded by BenchmarkObsDisabledOverhead / TestObsDisabledOverheadGate in
// internal/vm).
package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is the type tag of one flight-recorder event. The taxonomy follows
// the lifecycle of a DSU update (paper §3) plus the VM services around it.
type Kind uint8

const (
	// KTrace is a routed VM.tracef diagnostic line (Str = the message).
	KTrace Kind = iota
	// KUpdateRequested marks an update arriving at the engine (Str = tag).
	KUpdateRequested
	// KSafePointAttempt is one safe-point attempt. Arg is the attempt
	// number; Str names the restricted method that blocked the attempt
	// (empty when the attempt succeeded — see KSafePointReached).
	KSafePointAttempt
	// KSafePointReached marks the DSU safe point (Arg = attempts taken).
	KSafePointReached
	// KBarrierInstalled marks a return barrier installed on the topmost
	// restricted frame of a thread (Str = method, Lane = thread lane).
	KBarrierInstalled
	// KBarrierFired marks a return barrier firing (Str = method, Lane =
	// thread lane); the update attempt restarts.
	KBarrierFired
	// KOSRRecompile marks an on-stack replacement of a frame (Str =
	// method; Arg = 1 for an UpStare-style active-method rewrite).
	KOSRRecompile
	// KPhaseBegin/KPhaseEnd bracket a named span (Str = phase name) on a
	// lane; the timeline renders them as duration slices. KPhaseEnd may
	// carry a payload in Arg (e.g. words copied by a collection).
	KPhaseBegin
	KPhaseEnd
	// KGCWorkerCopy summarizes one collection's in-pause copy work
	// (Lane = LaneGC, Arg = words copied).
	KGCWorkerCopy
	// KTransformerApplied marks transformer work: Str is the class (or a
	// pass label), Arg the object count covered by the event.
	KTransformerApplied
	// KThreadStop/KThreadResume bracket a VM thread's share of the
	// stop-the-world window (Lane = thread lane).
	KThreadStop
	KThreadResume
	// KUpdateApplied / KUpdateAborted / KUpdateFailed are the terminal
	// outcomes (Str = reason for abort/failure).
	KUpdateApplied
	KUpdateAborted
	KUpdateFailed
)

var kindNames = [...]string{
	KTrace:              "trace",
	KUpdateRequested:    "update-requested",
	KSafePointAttempt:   "safe-point-attempt",
	KSafePointReached:   "safe-point-reached",
	KBarrierInstalled:   "barrier-installed",
	KBarrierFired:       "barrier-fired",
	KOSRRecompile:       "osr-recompile",
	KPhaseBegin:         "phase-begin",
	KPhaseEnd:           "phase-end",
	KGCWorkerCopy:       "gc-worker-copy",
	KTransformerApplied: "transformer-applied",
	KThreadStop:         "thread-stop",
	KThreadResume:       "thread-resume",
	KUpdateApplied:      "update-applied",
	KUpdateAborted:      "update-aborted",
	KUpdateFailed:       "update-failed",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Lane conventions: the timeline draws one track per lane. Lane 0 is the
// DSU engine/scheduler; 1 is the collector's in-pause work; 998 is the
// concurrent relocation drain; 999 is the concurrent DSU marker; 1000+ are
// VM threads.
const (
	LaneEngine     int32 = 0
	LaneGC         int32 = 1
	LaneReloc      int32 = 998
	LaneMark       int32 = 999
	laneThreadBase int32 = 1000
)

// LaneThread returns the lane of VM thread id tid.
func LaneThread(tid int) int32 { return laneThreadBase + int32(tid) }

// LaneName renders a lane's display name.
func LaneName(lane int32) string {
	switch {
	case lane == LaneEngine:
		return "DSU engine"
	case lane == LaneGC:
		return "GC"
	case lane == LaneMark:
		return "DSU marker"
	case lane == LaneReloc:
		return "DSU relocator"
	case lane >= laneThreadBase:
		return fmt.Sprintf("VM thread %d", lane-laneThreadBase)
	default:
		return fmt.Sprintf("lane %d", lane)
	}
}

// Event is one flight-recorder entry. TS is monotonic time since the
// recorder's start.
type Event struct {
	TS   time.Duration
	Kind Kind
	Lane int32
	Arg  int64
	Str  string
}

func (e Event) String() string {
	s := fmt.Sprintf("%12.3fms %-20s lane=%-4s", float64(e.TS.Nanoseconds())/1e6, e.Kind, LaneName(e.Lane))
	if e.Arg != 0 {
		s += fmt.Sprintf(" arg=%d", e.Arg)
	}
	if e.Str != "" {
		s += " " + e.Str
	}
	return s
}

// Recorder is the flight recorder: a fixed-capacity ring of events. All
// methods are safe for concurrent use (the tracer and the relocator emit from
// their goroutines),
// and every method is safe on a nil receiver — a nil *Recorder is the
// canonical "recording disabled" value.
type Recorder struct {
	on    atomic.Bool
	start time.Time

	mu    sync.Mutex
	buf   []Event
	next  int    // next write index
	total uint64 // events ever emitted (>= len(buf) once wrapped)
}

// DefaultCapacity is the ring size used when NewRecorder is given n <= 0.
const DefaultCapacity = 4096

// NewRecorder builds an enabled recorder with capacity n (DefaultCapacity
// when n <= 0).
func NewRecorder(n int) *Recorder {
	if n <= 0 {
		n = DefaultCapacity
	}
	r := &Recorder{start: time.Now(), buf: make([]Event, 0, n)}
	r.on.Store(true)
	return r
}

// Enabled reports whether emitted events are recorded.
func (r *Recorder) Enabled() bool { return r != nil && r.on.Load() }

// SetEnabled toggles recording without dropping buffered events.
func (r *Recorder) SetEnabled(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

// Start returns the instant TS values are measured from (zero time for a
// nil recorder).
func (r *Recorder) Start() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.start
}

// Emit records one event. On a nil or disabled recorder it is a single
// nil check plus one atomic load — no locks, no allocations.
func (r *Recorder) Emit(k Kind, lane int32, arg int64, str string) {
	if r == nil || !r.on.Load() {
		return
	}
	e := Event{TS: time.Since(r.start), Kind: k, Lane: lane, Arg: arg, Str: str}
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
	}
	r.next++
	if r.next == cap(r.buf) {
		r.next = 0
	}
	r.total++
	r.mu.Unlock()
}

// Emitf records a KTrace event with a formatted message. Unlike Emit it
// pays for formatting, so callers should check Enabled first when the
// arguments are expensive to materialize.
func (r *Recorder) Emitf(lane int32, format string, args ...any) {
	if r == nil || !r.on.Load() {
		return
	}
	r.Emit(KTrace, lane, 0, fmt.Sprintf(format, args...))
}

// Total reports how many events have ever been emitted (including ones the
// ring has since overwritten).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped reports how many emitted events the ring has overwritten — the
// recorder's loss count, published as govolve_obs_events_dropped_total and
// surfaced in trace metadata.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total - uint64(len(r.buf))
}

// Events returns a chronological snapshot of the buffered events (oldest
// first). The slice is a copy; the caller owns it.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked()
}

func (r *Recorder) snapshotLocked() []Event {
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) || r.next == 0 {
		// Not wrapped (or exactly aligned): buf already chronological.
		return append(out, r.buf...)
	}
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Last returns the most recent n buffered events, oldest first.
func (r *Recorder) Last(n int) []Event {
	evs := r.Events()
	if n < len(evs) {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// Reset drops all buffered events and restarts the clock.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf = r.buf[:0]
	r.next = 0
	r.total = 0
	r.start = time.Now()
	r.mu.Unlock()
}

// WriteEvents renders events as a human-readable listing, one per line —
// the format storm failure reports embed.
func WriteEvents(w io.Writer, events []Event) {
	for _, e := range events {
		fmt.Fprintf(w, "  %s\n", e)
	}
}
