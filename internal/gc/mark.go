package gc

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"govolve/internal/obs"
	"govolve/internal/rt"
)

// The concurrent snapshot-at-the-beginning (SATB) mark phase. JVOLVE's
// update pause is a full collection that *finds* every instance of an
// updated class before copying and transforming it. The Marker
// moves discovery out: when an update request arrives, the engine takes a
// logical heap snapshot (root values captured while the mutator is parked
// between slices, allocation watermark recorded, heap.ArmSATB deletion
// barrier armed) and one tracer goroutine traces the snapshot graph
// concurrently with the mutator. At the DSU safe point the collector
// consumes the mark result (CollectReloc → relocConsumeMark): it drains the
// SATB deletion log and re-scans roots — the only tracing left inside the
// pause — and evacuates eagerly exactly the updated-class instances among the
// marked ∪ post-watermark objects; the drain moves the rest.
//
// Correctness (the classic SATB theorem, specialized to this VM):
//
//   - Every object reachable at snapshot time ends up marked: the trace can
//     only miss an object if the mutator deletes the edge the trace would
//     have used, and the armed heap.Store barrier logs every such deletion.
//     Root stores need no barrier because root *values* were captured
//     up-front.
//   - Objects allocated after the watermark are implicitly live
//     (allocate-black); the pause walks [watermark, alloc) linearly.
//   - The barrier stays armed from snapshot until the pause rescan runs.
//     Trace completion alone does NOT establish "reachable ⊆ marked ∪
//     post-watermark": objects hidden behind logged deletions are unmarked
//     until the pause drains the log, and while any such log-only-reachable
//     object X exists the mutator can load X's child Z, store it into an
//     already-marked (black) object, and sever the unmarked paths to Z. If
//     the barrier were off, that severing would go unlogged, the pause
//     rescan (which never revisits marked objects) would miss Z, and if Z is
//     an updated-class instance the drain would meet it undiscovered and fail
//     on a legal program. So SealMark leaves the barrier armed; only the
//     consuming pause (after the mutator stopped) and the abort paths disarm.
//     The mutator pays the armed-barrier tax during a blocked safe-point
//     wait — that is the price of soundness.
//
// The discovered set may include *floating garbage* — updated-class instances
// that died during the mark. They are paired (or moved) and transformed once
// more than strictly necessary and become unreachable again immediately; the
// next collection reclaims them. That is the standard mostly-concurrent trade:
// a little extra copying for a pause that excludes the whole discovery trace.
//
// Lifecycle discipline: StartMark / SealMark / AbortMark / CollectReloc
// all run on the mutator goroutine (the VM is a green-thread machine —
// exactly one OS goroutine mutates the heap, and the DSU engine runs on
// it). Only the tracer is concurrent, and it is joined (wg.Wait) before any
// pause-time code touches the bitmap, the grey stack or the counters, so the
// race detector sees clean happens-before edges everywhere.

// Marker is one in-flight (or completed) concurrent mark.
type Marker struct {
	c          *Collector
	lo         rt.Addr      // current-space base at snapshot time
	watermark  rt.Addr      // allocation pointer at snapshot time
	updatedIDs map[int]bool // old-class IDs named by the pending update

	// bitmap holds one bit per heap word address in [lo, watermark); grey is
	// the stack of marked, unscanned objects. Both have one owner at a time:
	// StartMark until the tracer spawns, the tracer until it is joined, the
	// pause afterwards.
	bitmap []uint32
	grey   []rt.Addr

	done  atomic.Bool
	abort atomic.Bool
	wg    sync.WaitGroup

	// failErr records a structural error found by the tracer (unknown class
	// ID); the marker aborts itself and the engine falls back to STW.
	failMu  sync.Mutex
	failErr error

	start   time.Time
	setup   time.Duration // snapshot + arm + spawn (a mini-pause)
	trace   time.Duration // wall-clock mark time, stored by the tracer at completion
	sealed  bool          // mutator goroutine: tracer joined, result consumable
	aborted bool          // mutator goroutine: result must not be consumed
	satb    []rt.Addr     // deletion log, stashed at pause/abort disarm time

	// The trace's results, under the same ownership as the bitmap.
	// updatedAddrs are the updated-class instances the concurrent trace
	// attributed (root captures included — the root loop greys through the
	// same path): the set the CollectReloc pause evacuates eagerly. Instances
	// the *pause* discovers (SATB/rescan marks, allocate-black walk) are not
	// attributed here; the authoritative copied set is Result.PairsLogged.
	markedObjects int
	updatedAddrs  []rt.Addr
}

// markBitmapFor returns a cleared bitmap covering the snapshot region
// [lo, watermark) — bit indexes are relative to lo, so the bitmap's size
// depends only on the words in use, not on which semispace is current —
// reusing the pooled backing array when it is large enough (the storm
// harness applies hundreds of updates against one heap; per-cycle scratch
// must not be re-allocated every time).
func (c *Collector) markBitmapFor(lo, watermark rt.Addr) []uint32 {
	n := int((watermark-lo)>>5) + 1
	if cap(c.pool.bitmap) < n {
		c.pool.bitmap = make([]uint32, n)
	}
	bm := c.pool.bitmap[:n]
	clear(bm)
	return bm
}

// markPool holds the per-collection scratch the marker reuses across
// updates: the mark bitmap, the SATB deletion-log buffer, and the grey stack.
type markPool struct {
	bitmap []uint32
	satb   []rt.Addr
	grey   []rt.Addr
}

// recycleMark returns a marker's scratch to the pool. Callers guarantee the
// tracer has been joined; a stale *Marker held by the engine only ever
// reads its aborted/sealed flags afterwards.
func (c *Collector) recycleMark(m *Marker) {
	c.pool.bitmap = m.bitmap[:0]
	if m.satb != nil {
		c.pool.satb = m.satb[:0]
	}
	c.pool.grey = m.grey[:0]
}

// setMarkSerial sets the mark bit for a, returning true if this call
// transitioned it. The bitmap has one writer at a time (the tracer, then the
// pause — which joins the tracer first), so it is not atomic. Bit indexes are
// relative to the snapshot base; callers bounds-check [lo, watermark) first.
func (m *Marker) setMarkSerial(a rt.Addr) bool {
	a -= m.lo
	w := &m.bitmap[a>>5]
	bit := uint32(1) << (a & 31)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	return true
}

// StartMark snapshots the heap and begins a concurrent mark: root values
// are captured into the grey stack (the mutator is parked between
// scheduling slices at this instant, so the capture is a consistent
// snapshot), the SATB deletion barrier is armed, and the tracer starts
// tracing concurrently with the mutator. updatedIDs names the old-class IDs
// of the pending update so the mark can report the instance set it
// discovers. Any previous marker is aborted first.
func (c *Collector) StartMark(roots Roots, updatedIDs map[int]bool) *Marker {
	if c.mark != nil {
		c.AbortMark()
	}
	start := time.Now()
	h := c.Heap
	m := &Marker{
		c:          c,
		lo:         h.ScanStart(),
		updatedIDs: updatedIDs,
		grey:       c.pool.grey[:0],
		start:      start,
	}
	c.pool.grey = nil
	m.watermark = h.ArmSATB(c.pool.satb)
	c.pool.satb = nil
	m.bitmap = c.markBitmapFor(m.lo, m.watermark)

	// Capture the root snapshot: every non-null snapshot-region root value
	// is greyed. Greying goes through the tracer's markGrey — not a bare bit
	// set — so root-referenced instances of updated classes get the same
	// attribution as trace-discovered ones (the tracer has not spawned yet,
	// so these calls are race-free).
	roots.ForEachRoot(m.greyRoot)

	c.Rec.Emit(obs.KPhaseBegin, obs.LaneMark, 0, "concurrent mark")
	m.wg.Add(1)
	go m.run()
	m.setup = time.Since(start)
	c.mark = m
	return m
}

// Done reports whether the concurrent trace has terminated (successfully or
// via abort). Safe from the mutator goroutine while the tracer runs.
func (m *Marker) Done() bool { return m.done.Load() || m.abort.Load() }

// Aborted reports whether the marker's result is unusable (a collection
// intervened, the tracer failed, or the engine gave up). Mutator goroutine.
func (m *Marker) Aborted() bool { return m.aborted || m.abort.Load() }

// Err returns the structural error that aborted the mark, if any.
func (m *Marker) Err() error {
	m.failMu.Lock()
	defer m.failMu.Unlock()
	return m.failErr
}

func (m *Marker) fail(err error) {
	m.failMu.Lock()
	if m.failErr == nil {
		m.failErr = err
	}
	m.failMu.Unlock()
	m.abort.Store(true)
}

// SealMark finalizes a completed mark: joins the tracer, which hands its
// bitmap and counters over to the pause. It is idempotent and is called from
// the mutator goroutine the moment Done() is observed.
//
// The SATB barrier stays ARMED. Until the pause drains the deletion log
// and rescans roots, "reachable ⊆ marked ∪ post-watermark" does not hold:
// an object reachable only through the log is still unmarked, and a
// mutator running between seal and pause could move its children behind
// black objects and sever the unmarked paths — unlogged, if the barrier
// were off, and invisible to the rescan, which never revisits marked
// objects. CollectReloc disarms inside the pause; AbortMark disarms on
// the failure paths. Returns false if the mark aborted instead of
// completing.
func (c *Collector) SealMark(m *Marker) bool {
	if m.sealed || m.aborted {
		return m.sealed && !m.aborted
	}
	m.wg.Wait()
	if m.abort.Load() {
		m.satb = c.Heap.DisarmSATB()
		m.aborted = true
		if !m.done.Load() {
			c.Rec.Emit(obs.KPhaseEnd, obs.LaneMark, 0, "concurrent mark")
		}
		if c.mark == m {
			c.mark = nil
			c.recycleMark(m)
		}
		return false
	}
	m.sealed = true
	return true
}

// AbortMark discards the active marker: the tracer is signalled and joined,
// the barrier is disarmed, and the pooled scratch is recycled. It is called
// by Collect when a collection must run while a mark is in flight (the flip
// would invalidate every marked address and move memory under the tracer),
// and by the engine when an update resolves without consuming its snapshot
// — the "discard a stale snapshot" abort path.
func (c *Collector) AbortMark() {
	m := c.mark
	if m == nil {
		return
	}
	c.mark = nil
	m.abort.Store(true)
	m.wg.Wait()
	// Sealed or not, an attached marker keeps the barrier armed until the
	// pause consumes it — so the abort path always disarms. (A marker that
	// aborted inside SealMark already disarmed, but it also detached itself
	// from c.mark, so it never reaches here.)
	m.satb = c.Heap.DisarmSATB()
	if !m.done.Load() {
		// The tracer closes the span at trace completion; only an
		// interrupted trace needs its span closed here. done is stable after
		// wg.Wait.
		c.Rec.Emit(obs.KPhaseEnd, obs.LaneMark, int64(m.markedObjects), "concurrent mark")
	}
	m.aborted = true
	c.recycleMark(m)
}

// MarkActive reports whether a marker is attached to the collector.
func (c *Collector) MarkActive() bool { return c.mark != nil }

// run is the tracer: drain the grey stack. Only the tracer pushes (the
// mutator's deletions go to the SATB log, which the pause drains), so an empty
// stack is the end of the trace.
func (m *Marker) run() {
	defer m.wg.Done()
	if !m.drain() {
		return // interrupted, or the last scan failed: the aborter closes the span
	}
	// The trace is complete. Record the wall-clock mark time and the end of
	// the Perfetto "mark" lane span here, at the true completion instant, not
	// when the engine happens to poll (the recorder is mutex-protected, so a
	// tracer-goroutine emission is safe).
	m.trace = time.Since(m.start)
	m.c.Rec.Emit(obs.KPhaseEnd, obs.LaneMark, int64(m.markedObjects), "concurrent mark")
	m.done.Store(true)
}

// drain pops and scans until the grey stack is empty, reporting false if the
// mark was aborted or a scan failed first. Every popped address has its mark
// bit already set (the bit is set at grey time), so each object is scanned
// exactly once. It is the tracer's loop, and the pause's rescan finishes the
// trace with it once the tracer is joined.
func (m *Marker) drain() bool {
	for len(m.grey) > 0 && !m.abort.Load() {
		a := m.grey[len(m.grey)-1]
		m.grey = m.grey[:len(m.grey)-1]
		m.scan(a)
	}
	return !m.abort.Load()
}

// scan greys every snapshot-region object referenced by a. Headers and
// array lengths of snapshot-region objects are immutable during the mark
// (written before the tracer spawned), so plain reads are safe; ref slots
// are concurrently written by the mutator's armed barrier, so they go
// through the atomic RefSlotLoad.
func (m *Marker) scan(a rt.Addr) {
	h := m.c.Heap
	if h.IsArray(a) {
		if h.ArrayElemIsRef(a) {
			n := h.ArrayLen(a)
			for i := 0; i < n; i++ {
				m.markGrey(rt.Addr(h.RefSlotLoad(a + rt.HeaderWords + rt.Addr(i))))
			}
		}
		return
	}
	cls := m.c.Reg.ClassByID(h.ClassID(a))
	if cls == nil {
		m.fail(fmt.Errorf("gc: concurrent mark: object @%d with unknown class id %d", a, h.ClassID(a)))
		return
	}
	for _, off := range cls.RefOffsets {
		m.markGrey(rt.Addr(h.RefSlotLoad(a + off)))
	}
}

// markGrey marks and pushes one snapshot-region address. References at or
// above the watermark are allocate-black (never scanned — the pause walks
// that region wholesale), and everything outside the current space (null,
// or an old copy in the last flip's tail, which cannot occur between
// updates) is ignored.
func (m *Marker) markGrey(a rt.Addr) {
	if a == 0 || a < m.lo || a >= m.watermark {
		return
	}
	if !m.setMarkSerial(a) {
		return
	}
	m.markedObjects++
	h := m.c.Heap
	if m.updatedIDs != nil && !h.IsArray(a) && m.updatedIDs[h.ClassID(a)] {
		m.updatedAddrs = append(m.updatedAddrs, a)
	}
	m.grey = append(m.grey, a)
}

// greyRoot greys what one root slot references: the snapshot's root capture
// and the pause's root rescan.
func (m *Marker) greyRoot(v *rt.Value) {
	if v.IsRef {
		m.markGrey(v.Ref())
	}
}
