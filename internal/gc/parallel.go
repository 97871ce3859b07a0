package gc

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"govolve/internal/heap"
	"govolve/internal/obs"
	"govolve/internal/rt"
)

// The parallel DSU collector. JVOLVE's update pause is dominated by the
// full-heap collection that finds and transforms every instance of an
// updated class; the paper defers "a more sophisticated GC" to future work.
// This is that GC: the stop-the-world window is divided across N workers.
//
//   - Roots are partitioned across workers (the VM deals its thread stacks
//     round-robin via ChunkedRoots; arbitrary root providers fall back to a
//     gather-and-split).
//   - Forwarding pointers are installed with a CAS claim/publish protocol
//     on the header word (heap.TryForward / heap.PublishForward), so
//     exactly one worker evacuates each object and losers adopt the
//     winner's address.
//   - Workers allocate copies and shells from per-worker TLABs carved off
//     to-space (and the scratch region, when configured), never contending
//     on the global bump pointer per object.
//   - Grey objects drain through per-worker deques with work-stealing:
//     owners pop LIFO (cache-hot), thieves steal FIFO (coarse-grained).
//   - DSU pair logging is per-worker and merged
//     deterministically — sorted by the new shell's to-space address — so
//     Result.Log order is a pure function of the final heap layout, not of
//     scheduling interleavings.
//
// Termination uses the classic idle-counter protocol: only a worker's owner
// pushes to its deque, so once every worker is idle no deque can become
// non-empty again, and the last worker to go idle declares completion.

// ChunkedRoots is optionally implemented by root providers (the VM) that
// can split the root set into n disjoint enumerators whose union is exactly
// ForEachRoot. The parallel collector runs one chunk per worker,
// concurrently — chunks must not share root slots.
type ChunkedRoots interface {
	Roots
	RootChunks(n int) []Roots
}

// defaultTLABWords is the preferred per-worker carve size. It is clamped so
// that all workers' buffers together cannot strand more than ~1/8 of a
// semispace in abandoned tails.
const defaultTLABWords = 4096

// deque is one worker's grey-object queue. The owner pushes and pops at the
// tail; thieves steal from the head. A mutex is plenty here: pushes and
// pops are amortized over whole-object scans, and the size counter lets
// idle workers poll emptiness without taking the lock.
type deque struct {
	mu   sync.Mutex
	buf  []rt.Addr
	head int
	size atomic.Int32
}

func (d *deque) push(a rt.Addr) {
	d.mu.Lock()
	d.buf = append(d.buf, a)
	d.size.Store(int32(len(d.buf) - d.head))
	d.mu.Unlock()
}

// pop takes the newest entry (owner side).
func (d *deque) pop() (rt.Addr, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head == len(d.buf) {
		d.buf = d.buf[:0]
		d.head = 0
		d.size.Store(0)
		return 0, false
	}
	a := d.buf[len(d.buf)-1]
	d.buf = d.buf[:len(d.buf)-1]
	d.size.Store(int32(len(d.buf) - d.head))
	return a, true
}

// steal takes the oldest entry (thief side).
func (d *deque) steal() (rt.Addr, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head == len(d.buf) {
		return 0, false
	}
	a := d.buf[d.head]
	d.head++
	if d.head > 64 && d.head*2 >= len(d.buf) {
		n := copy(d.buf, d.buf[d.head:])
		d.buf = d.buf[:n]
		d.head = 0
	}
	d.size.Store(int32(len(d.buf) - d.head))
	return a, true
}

// pstate is the shared collection state.
type pstate struct {
	workers int
	deques  []*deque

	idle   atomic.Int32
	done   atomic.Bool
	failed atomic.Bool

	errMu sync.Mutex
	err   error

	steals atomic.Int64
}

func (ps *pstate) fail(err error) {
	ps.errMu.Lock()
	if ps.err == nil {
		ps.err = err
	}
	ps.errMu.Unlock()
	ps.failed.Store(true)
	ps.done.Store(true)
}

func (ps *pstate) firstErr() error {
	ps.errMu.Lock()
	defer ps.errMu.Unlock()
	return ps.err
}

// pworker is one copy/scan worker.
type pworker struct {
	c  *Collector
	ps *pstate
	id int

	dsu bool
	raw heap.Raw // bounds and words only: workers allocate through their TLABs

	tlab *heap.TLAB
	old  *heap.TLAB // where old copies go: a scratch TLAB, or tlab itself

	dq *deque

	log           []Pair
	copiedObjects int
	copiedWords   int
	scratchWords  int
	moved         int
	steals        int64
}

// forward is kernel.forward under the header CAS protocol: it returns where
// the object behind a non-null reference word lives after this collection,
// evacuating it or adopting another worker's evacuation. A failing
// collection leaves the reference as it was.
func (w *pworker) forward(ref uint64) uint64 {
	a := rt.Addr(ref)
	if w.raw.To.Contains(a) || w.raw.Scratch.Contains(a) {
		return ref // already copied (to-space object, shell, or old copy)
	}
	h := w.c.Heap
	for !w.ps.failed.Load() {
		hw := h.HeaderLoad(a)
		if to, forwarded, claimed := heap.HeaderForwarded(hw); forwarded {
			return uint64(to)
		} else if claimed {
			runtime.Gosched() // another worker is mid-copy; wait for it to publish
			continue
		}
		if !h.TryForward(a, hw) {
			continue // lost the claim race; re-read the header
		}
		if to := w.copyClaimed(a, hw); to != rt.Null {
			return uint64(to)
		}
		h.RestoreHeader(a, hw) // release spinners; collection is failing
	}
	return ref
}

// copyClaimed evacuates an object this worker has claimed (its header word
// holds the sentinel; hw is the saved original). It either publishes a
// forwarding pointer and returns the new address, or fails the collection and
// returns null (the caller restores the header).
func (w *pworker) copyClaimed(a rt.Addr, hw uint64) rt.Addr {
	words := w.raw.Words
	var size rt.Addr
	var moved *rt.Class // the object's old version, when the copy is a move
	if heap.HeaderIsArray(hw) {
		size = rt.HeaderWords + rt.Addr(words[a+1]) // only word 0 is ever CASed
	} else {
		cls := w.c.Reg.ClassByID(heap.HeaderClassID(hw))
		if cls == nil {
			w.ps.fail(errUnknownClass(a, hw))
			return rt.Null
		}
		size = rt.Addr(cls.Size)
		if newCls := cls.UpdatedTo; w.dsu && newCls != nil && cls.Moves == nil {
			shell, ok1 := w.tlab.Alloc(newCls.Size)
			oldCopy, ok2 := w.old.Alloc(int(size))
			if !ok1 || !ok2 {
				w.ps.fail(errPairExhausted)
				return rt.Null
			}
			w.log = append(w.log, writePair(words, a, hw, size, newCls, shell, oldCopy))
			w.c.Heap.PublishForward(a, shell)
			w.copiedObjects += 2
			w.copiedWords += int(size) + newCls.Size
			if w.old != w.tlab {
				w.scratchWords += int(size)
			}
			// The shell is all zeros — nothing to scan; the old copy is
			// scanned like any live object so transformers can dereference
			// forwarded referents.
			w.dq.push(oldCopy)
			return shell
		} else if w.dsu && newCls != nil {
			// A move transformer: the plain copy below, in the new layout.
			moved, size = cls, rt.Addr(newCls.Size)
		}
	}
	to, ok := w.tlab.Alloc(int(size))
	if !ok {
		w.ps.fail(ErrToSpaceExhausted)
		return rt.Null
	}
	if moved != nil {
		writeMoved(words, a, moved, to)
		w.moved++
	} else {
		words[to] = hw // the source header holds the claim sentinel
		copy(words[to+1:to+size], words[a+1:a+size])
	}
	w.c.Heap.PublishForward(a, to)
	w.copiedObjects++
	w.copiedWords += int(size)
	w.dq.push(to)
	return to
}

// scan forwards every reference inside one grey object (a to-space copy or
// a scratch old copy — never a from-space object, so plain reads are safe:
// nobody CASes current-space headers, and each grey object has one scanner).
func (w *pworker) scan(a rt.Addr) {
	words := w.raw.Words
	hw := words[a]
	if heap.HeaderIsArray(hw) {
		if heap.HeaderArrayElemIsRef(hw) {
			elems := words[a+rt.HeaderWords : a+rt.HeaderWords+rt.Addr(words[a+1])]
			for i, ref := range elems {
				if ref != 0 {
					elems[i] = w.forward(ref)
				}
			}
		}
		return
	}
	cls := w.c.Reg.ClassByID(heap.HeaderClassID(hw))
	if cls == nil {
		w.ps.fail(errUnknownClass(a, hw))
		return
	}
	for _, off := range cls.RefOffsets {
		if ref := words[a+off]; ref != 0 {
			words[a+off] = w.forward(ref)
		}
	}
}

// drain runs the worker's scan loop to global termination.
func (w *pworker) drain() {
	ps := w.ps
	for {
		if ps.done.Load() {
			return
		}
		if a, ok := w.dq.pop(); ok {
			w.scan(a)
			continue
		}
		if a, ok := w.stealWork(); ok {
			w.scan(a)
			continue
		}
		// Nothing local, nothing to steal: go idle. Only owners push to
		// their own deques, so "all workers idle" implies no deque can ever
		// become non-empty again — the last worker to observe that
		// terminates the collection.
		ps.idle.Add(1)
		for {
			if ps.done.Load() {
				return
			}
			if w.anyWork() {
				ps.idle.Add(-1)
				break
			}
			if ps.idle.Load() == int32(ps.workers) {
				ps.done.Store(true)
				return
			}
			runtime.Gosched()
		}
	}
}

func (w *pworker) stealWork() (rt.Addr, bool) {
	n := w.ps.workers
	for k := 1; k < n; k++ {
		d := w.ps.deques[(w.id+k)%n]
		if d.size.Load() == 0 {
			continue
		}
		if a, ok := d.steal(); ok {
			w.ps.steals.Add(1)
			w.steals++
			return a, true
		}
	}
	return 0, false
}

func (w *pworker) anyWork() bool {
	for _, d := range w.ps.deques {
		if d.size.Load() > 0 {
			return true
		}
	}
	return false
}

// tlabWords resolves the per-worker carve size for this heap.
func (c *Collector) tlabWords(workers int) int {
	n := c.Opts.TLABWords
	if n <= 0 {
		n = defaultTLABWords
	}
	// All workers' stranded tails together should not exceed ~1/8 of a
	// semispace, or small-heap DSU collections would OOM on slack alone.
	if lim := c.Heap.SemiWords() / (8 * workers); n > lim {
		n = lim
	}
	if n < 64 {
		n = 64
	}
	return n
}

// collectParallel is the multi-worker analog of collectSerial.
func (c *Collector) collectParallel(roots Roots, dsu bool, workers int) (*Result, error) {
	start := time.Now()
	h := c.Heap
	h.Flip()
	raw := h.Raw()
	useScratch := dsu && h.HasScratch()

	// Partition the roots. The VM hands out disjoint per-worker chunks;
	// arbitrary providers are gathered serially and split.
	var chunks []Roots
	if cr, ok := roots.(ChunkedRoots); ok {
		chunks = cr.RootChunks(workers)
	} else {
		chunks = splitRoots(roots, workers)
	}

	ps := &pstate{workers: workers, deques: make([]*deque, workers)}
	ws := make([]*pworker, workers)
	tlabSize := c.tlabWords(workers)
	for i := range ws {
		ps.deques[i] = &deque{}
		ws[i] = &pworker{
			c: c, ps: ps, id: i,
			dsu: dsu, raw: raw,
			tlab: h.NewTLAB(tlabSize, false),
			dq:   ps.deques[i],
		}
		ws[i].old = ws[i].tlab
		if useScratch {
			ws[i].old = h.NewTLAB(tlabSize, true)
		}
	}

	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *pworker) {
			defer wg.Done()
			// Per-worker flight-recorder lane: one copy/scan span plus
			// copied-words and steal summaries (the recorder is mutex-
			// protected, so concurrent emission is safe).
			c.Rec.Emit(obs.KPhaseBegin, obs.LaneGCWorker(i), 0, "gc copy/scan")
			if i < len(chunks) && chunks[i] != nil {
				forwardRoots(chunks[i], w.forward)
			}
			w.drain()
			c.Rec.Emit(obs.KGCWorkerCopy, obs.LaneGCWorker(i), int64(w.copiedWords), "")
			if w.steals > 0 {
				c.Rec.Emit(obs.KGCWorkerSteal, obs.LaneGCWorker(i), w.steals, "")
			}
			c.Rec.Emit(obs.KPhaseEnd, obs.LaneGCWorker(i), int64(w.copiedWords), "gc copy/scan")
		}(i, w)
	}
	wg.Wait()

	waste := 0
	for _, w := range ws {
		w.tlab.Retire()
		waste += w.tlab.Waste
		if w.old != w.tlab {
			w.old.Retire()
			waste += w.old.Waste
		}
	}

	if ps.failed.Load() {
		return nil, ps.firstErr()
	}

	// Deterministic merge: per-worker logs and counters fold into one
	// result, with the update log sorted by new-shell address so its order
	// is a function of the final heap layout, not of which worker won which
	// race first.
	res := &Result{Workers: workers, WorkerWords: make([]int, workers), TLABWaste: waste, Steals: ps.steals.Load()}
	total := 0
	for _, w := range ws {
		total += len(w.log)
	}
	if dsu {
		res.Log = make([]Pair, 0, total)
	}
	for i, w := range ws {
		res.Log = append(res.Log, w.log...)
		res.CopiedObjects += w.copiedObjects
		res.CopiedWords += w.copiedWords
		res.ScratchWords += w.scratchWords
		res.Moved += w.moved
		res.WorkerWords[i] = w.copiedWords
	}
	sort.Slice(res.Log, func(i, j int) bool { return res.Log[i].New < res.Log[j].New })
	res.PairsLogged = len(res.Log)

	c.Collections++
	c.CopiedObjects += res.CopiedObjects
	res.Duration = time.Since(start)
	res.PauseCopy = res.Duration // STW: the trace is fused with the copy
	return res, nil
}

// splitRoots is the fallback partitioner for providers that only implement
// Roots: gather every slot serially, then deal contiguous shares.
func splitRoots(roots Roots, n int) []Roots {
	var slots []*rt.Value
	roots.ForEachRoot(func(v *rt.Value) { slots = append(slots, v) })
	chunks := make([]Roots, n)
	per := (len(slots) + n - 1) / n
	for i := 0; i < n; i++ {
		lo := i * per
		hi := lo + per
		if lo > len(slots) {
			lo = len(slots)
		}
		if hi > len(slots) {
			hi = len(slots)
		}
		share := slots[lo:hi]
		chunks[i] = RootsFunc(func(fn func(*rt.Value)) {
			for _, v := range share {
				fn(v)
			}
		})
	}
	return chunks
}
