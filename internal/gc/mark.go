package gc

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"govolve/internal/obs"
	"govolve/internal/rt"
)

// The concurrent snapshot-at-the-beginning (SATB) mark phase. JVOLVE's
// update pause is a full collection that *finds* every instance of an
// updated class before copying and transforming it; PR 3 parallelized the
// copy inside the window, but discovery still ran in the pause. The Marker
// moves discovery out: when an update request arrives, the engine takes a
// logical heap snapshot (root values captured while the mutator is parked
// between slices, allocation watermark recorded, heap.ArmSATB deletion
// barrier armed) and mark workers trace the snapshot graph concurrently
// with the mutator, on the same work-stealing deques and ChunkedRoots
// partitioning as the PR 3 collector. At the DSU safe point the collector
// consumes the mark result (CollectWithMark): it drains the SATB deletion
// log and re-scans roots — the only tracing left inside the pause — then
// copies exactly the marked ∪ post-watermark objects.
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
//     rescan (which never revisits marked objects) would miss Z, and fixup
//     would fail on a legal program. So SealMark leaves the barrier armed;
//     only CollectWithMark (inside the pause, after the mutator stopped)
//     and the abort paths disarm. The mutator pays the armed-barrier tax
//     during a blocked safe-point wait — that is the price of soundness.
//
// The marked set may include *floating garbage* — objects that died during
// the mark. They are copied (and, for updated classes, paired and
// transformed) once more than strictly necessary and become unreachable
// again immediately; the next collection reclaims them. That is the
// standard mostly-concurrent trade: a little extra copying for a pause
// that excludes the whole discovery trace.
//
// Lifecycle discipline: StartMark / SealMark / AbortMark / CollectWithMark
// all run on the mutator goroutine (the VM is a green-thread machine —
// exactly one OS goroutine mutates the heap, and the DSU engine runs on
// it). Only the mark workers are concurrent, and they are joined (wg.Wait)
// before any pause-time code touches the bitmap, so the race detector sees
// clean happens-before edges everywhere.

// Marker is one in-flight (or completed) concurrent mark.
type Marker struct {
	c          *Collector
	lo         rt.Addr // current-space base at snapshot time
	watermark  rt.Addr // allocation pointer at snapshot time
	workers    []*markWorker
	deques     []*deque
	updatedIDs map[int]bool // old-class IDs named by the pending update

	bitmap []uint32 // one bit per heap word address < watermark; CAS-set

	// collectAddrs (set from Opts.ConcurrentReloc) makes the trace record
	// the addresses of updated-class instances, not just their counts — the
	// CollectReloc pause evacuates exactly that set eagerly instead of
	// sweeping the whole marked list.
	collectAddrs bool

	idle  atomic.Int32
	done  atomic.Bool
	abort atomic.Bool
	wg    sync.WaitGroup

	// failErr records a structural error found by a worker (unknown class
	// ID); the marker aborts itself and the engine falls back to STW.
	failMu  sync.Mutex
	failErr error

	start   time.Time
	setup   time.Duration // snapshot + arm + spawn (a mini-pause)
	traceNS atomic.Int64  // wall-clock mark time, stored by the finisher
	sealed  bool          // mutator goroutine: workers joined, stats merged
	aborted bool          // mutator goroutine: result must not be consumed
	satb    []rt.Addr     // deletion log, stashed at pause/abort disarm time

	// Merged at seal time. updatedByClass is the concurrent trace's
	// per-class instance attribution (root captures included — the root
	// loop greys through the same worker path); instances the *pause*
	// discovers (SATB/rescan marks, allocate-black walk) are not attributed
	// here. The authoritative copied set is Result.PairsLogged.
	markedObjects    int
	updatedInstances int
	updatedByClass   map[int]int
	updatedAddrs     []rt.Addr // merged per-worker addrs (collectAddrs only)
	steals           int64
}

// markWorker is one concurrent tracer.
type markWorker struct {
	m  *Marker
	id int
	dq *deque

	marked       int
	updated      map[int]int // old-class ID → instances discovered (lazy)
	updatedAddrs []rt.Addr   // their addresses, when the marker collects them
	steals       int64
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
// updates: the mark bitmap, the SATB deletion-log buffer, and the worker
// deques (whose grey-stack backing arrays persist).
type markPool struct {
	bitmap  []uint32
	satb    []rt.Addr
	deques  []*deque
	entries []sweepEntry // sweep-phase live list (CollectWithMark)
}

// recycleMark returns a marker's scratch to the pool. Callers guarantee the
// workers have been joined; a stale *Marker held by the engine only ever
// reads its aborted/sealed flags afterwards.
func (c *Collector) recycleMark(m *Marker) {
	c.pool.bitmap = m.bitmap[:0]
	if m.satb != nil {
		c.pool.satb = m.satb[:0]
	}
	c.pool.deques = m.deques
	for _, d := range c.pool.deques {
		d.buf = d.buf[:0]
		d.head = 0
		d.size.Store(0)
	}
}

// markDeques returns w empty deques, pooled.
func (c *Collector) markDeques(w int) []*deque {
	ds := c.pool.deques
	c.pool.deques = nil
	for len(ds) < w {
		ds = append(ds, &deque{})
	}
	return ds[:w]
}

// trySetMark CAS-sets the mark bit for a, returning true if this call
// transitioned it (a CAS loop rather than atomic.Or keeps the word-level
// protocol portable). Exactly one marker greys each object. Bit indexes are
// relative to the snapshot base; callers bounds-check [lo, watermark) first.
func (m *Marker) trySetMark(a rt.Addr) bool {
	a -= m.lo
	w := &m.bitmap[a>>5]
	bit := uint32(1) << (a & 31)
	for {
		old := atomic.LoadUint32(w)
		if old&bit != 0 {
			return false
		}
		if atomic.CompareAndSwapUint32(w, old, old|bit) {
			return true
		}
	}
}

// setMarkSerial is the pause-time (single-threaded) bit set; isMarked the
// pause-time query. The workers were joined before either is called.
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

func (m *Marker) isMarked(a rt.Addr) bool {
	a -= m.lo
	return m.bitmap[a>>5]&(uint32(1)<<(a&31)) != 0
}

// StartMark snapshots the heap and begins a concurrent mark: root values
// are captured into the worker deques (the mutator is parked between
// scheduling slices at this instant, so the capture is a consistent
// snapshot), the SATB deletion barrier is armed, and EffectiveWorkers mark
// workers start tracing concurrently with the mutator. updatedIDs names the
// old-class IDs of the pending update so the mark can report the per-class
// instance set it discovers. Any previous marker is aborted first.
func (c *Collector) StartMark(roots Roots, updatedIDs map[int]bool) *Marker {
	if c.mark != nil {
		c.AbortMark()
	}
	start := time.Now()
	h := c.Heap
	w := c.EffectiveWorkers()
	m := &Marker{
		c:            c,
		lo:           h.ScanStart(),
		updatedIDs:   updatedIDs,
		deques:       c.markDeques(w),
		start:        start,
		collectAddrs: c.Opts.ConcurrentReloc,
	}
	m.watermark = h.ArmSATB(c.pool.satb)
	c.pool.satb = nil
	m.bitmap = c.markBitmapFor(m.lo, m.watermark)
	m.workers = make([]*markWorker, w)
	for i := range m.workers {
		m.workers[i] = &markWorker{m: m, id: i, dq: m.deques[i]}
	}

	// Capture the root snapshot: every non-null snapshot-region root value
	// is greyed and dealt round-robin across the worker deques. Greying
	// goes through the workers' grey() — not a bare trySetMark — so
	// root-referenced instances of updated classes get the same per-class
	// attribution as trace-discovered ones (the workers have not spawned
	// yet, so these single-threaded calls are race-free; SealMark merges
	// the counters after the join).
	i := 0
	roots.ForEachRoot(func(v *rt.Value) {
		if !v.IsRef {
			return
		}
		m.workers[i%w].grey(v.Ref())
		i++
	})

	c.Rec.Emit(obs.KPhaseBegin, obs.LaneMark, int64(w), "concurrent mark")
	m.wg.Add(w)
	for _, mw := range m.workers {
		go mw.run()
	}
	m.setup = time.Since(start)
	c.mark = m
	return m
}

// Done reports whether the concurrent trace has terminated (successfully or
// via abort). Safe from the mutator goroutine while workers run.
func (m *Marker) Done() bool { return m.done.Load() || m.abort.Load() }

// Aborted reports whether the marker's result is unusable (a collection
// intervened, a worker failed, or the engine gave up). Mutator goroutine.
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

// SealMark finalizes a completed mark: joins the workers and merges
// per-worker statistics. It is idempotent and is called from the mutator
// goroutine the moment Done() is observed.
//
// The SATB barrier stays ARMED. Until the pause drains the deletion log
// and rescans roots, "reachable ⊆ marked ∪ post-watermark" does not hold:
// an object reachable only through the log is still unmarked, and a
// mutator running between seal and pause could move its children behind
// black objects and sever the unmarked paths — unlogged, if the barrier
// were off, and invisible to the rescan, which never revisits marked
// objects. CollectWithMark disarms inside the pause; AbortMark disarms on
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
	for _, mw := range m.workers {
		m.markedObjects += mw.marked
		m.steals += mw.steals
		m.updatedAddrs = append(m.updatedAddrs, mw.updatedAddrs...)
		for id, n := range mw.updated {
			if m.updatedByClass == nil {
				m.updatedByClass = make(map[int]int)
			}
			m.updatedByClass[id] += n
			m.updatedInstances += n
		}
	}
	m.sealed = true
	return true
}

// AbortMark discards the active marker: workers are signalled and joined,
// the barrier is disarmed, and the pooled scratch is recycled. It is called
// by Collect when a collection must run while a mark is in flight (the flip
// would invalidate every marked address and move memory under the tracers),
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
		// The finisher worker closes the span at trace completion; only an
		// interrupted trace needs its span closed here. done is stable after
		// wg.Wait.
		c.Rec.Emit(obs.KPhaseEnd, obs.LaneMark, int64(m.markedObjects), "concurrent mark")
	}
	m.aborted = true
	c.recycleMark(m)
}

// MarkActive reports whether a marker is attached to the collector.
func (c *Collector) MarkActive() bool { return c.mark != nil }

// MarkReady reports whether the active marker has been sealed and can feed
// CollectWithMark.
func (c *Collector) MarkReady() bool { return c.mark != nil && c.mark.sealed }

// run is one worker's trace loop: drain the local deque, steal when empty,
// terminate via the PR 3 idle-counter protocol. Every popped address has
// its mark bit already set (the bit is set at grey time), so each object is
// scanned exactly once across all workers.
func (mw *markWorker) run() {
	m := mw.m
	defer m.wg.Done()
	n := len(m.deques)
	for {
		if m.abort.Load() || m.done.Load() {
			return
		}
		if a, ok := mw.dq.pop(); ok {
			mw.scan(a)
			continue
		}
		if a, ok := mw.steal(); ok {
			mw.scan(a)
			continue
		}
		m.idle.Add(1)
		for {
			if m.abort.Load() || m.done.Load() {
				return
			}
			if mw.anyWork() {
				m.idle.Add(-1)
				break
			}
			if m.idle.Load() == int32(n) {
				// Last worker idle: the trace is complete. Record the
				// wall-clock mark time and the end of the Perfetto "mark"
				// lane span here, at the true completion instant, not when
				// the engine happens to poll. Reading the other workers'
				// plain counters is safe: every worker is idle (its counter
				// writes happen-before its idle.Add, which this goroutine
				// observed), and no worker can leave idle once all deques
				// are empty.
				m.traceNS.Store(int64(time.Since(m.start)))
				m.emitEnd()
				m.done.Store(true)
				return
			}
			runtime.Gosched()
		}
	}
}

// emitEnd closes the mark-lane span (recorder is mutex-protected, so a
// worker-goroutine emission is safe).
func (m *Marker) emitEnd() {
	total := 0
	for _, mw := range m.workers {
		total += mw.marked
	}
	m.c.Rec.Emit(obs.KPhaseEnd, obs.LaneMark, int64(total), "concurrent mark")
}

func (mw *markWorker) steal() (rt.Addr, bool) {
	m := mw.m
	n := len(m.deques)
	for k := 1; k < n; k++ {
		d := m.deques[(mw.id+k)%n]
		if d.size.Load() == 0 {
			continue
		}
		if a, ok := d.steal(); ok {
			mw.steals++
			return a, true
		}
	}
	return 0, false
}

func (mw *markWorker) anyWork() bool {
	for _, d := range mw.m.deques {
		if d.size.Load() > 0 {
			return true
		}
	}
	return false
}

// scan greys every snapshot-region object referenced by a. Headers and
// array lengths of snapshot-region objects are immutable during the mark
// (written before the workers spawned), so plain reads are safe; ref slots
// are concurrently written by the mutator's armed barrier, so they go
// through the atomic RefSlotLoad.
func (mw *markWorker) scan(a rt.Addr) {
	m := mw.m
	h := m.c.Heap
	if h.IsArray(a) {
		if h.ArrayElemIsRef(a) {
			n := h.ArrayLen(a)
			for i := 0; i < n; i++ {
				mw.grey(rt.Addr(h.RefSlotLoad(a + rt.HeaderWords + rt.Addr(i))))
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
		mw.grey(rt.Addr(h.RefSlotLoad(a + off)))
	}
}

// grey marks and enqueues one snapshot-region address. References at or
// above the watermark are allocate-black (never scanned — the pause walks
// that region wholesale), and everything outside the current space (null,
// or a scratch address, which cannot occur between updates) is ignored.
func (mw *markWorker) grey(a rt.Addr) {
	m := mw.m
	if a == 0 || a < m.lo || a >= m.watermark {
		return
	}
	if !m.trySetMark(a) {
		return
	}
	mw.marked++
	h := m.c.Heap
	if m.updatedIDs != nil && !h.IsArray(a) {
		if id := h.ClassID(a); m.updatedIDs[id] {
			if mw.updated == nil {
				mw.updated = make(map[int]int)
			}
			mw.updated[id]++
			if m.collectAddrs {
				mw.updatedAddrs = append(mw.updatedAddrs, a)
			}
		}
	}
	mw.dq.push(a)
}
