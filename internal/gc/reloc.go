package gc

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"govolve/internal/heap"
	"govolve/internal/obs"
	"govolve/internal/rt"
)

// Concurrent relocation (vm.VM.Concurrent): the Shenandoah/ZGC-style
// answer to the last stop-the-world phase that still scaled with live-set
// size. Where the concurrent mark (mark.go) moves *discovery* out of the DSU
// pause and the lazy pipeline moves *transformation* out, CollectReloc moves
// the bulk *copy* out:
//
//	pause   — take the updated-class instances the sealed concurrent mark
//	          discovered (the rescan is the marker's own trace, finished
//	          here), flip, and run the serial collector's kernel without
//	          its scan: it moves or pairs only those instances (shell + old
//	          copy, the pairs the transformer pipeline needs immediately —
//	          or, in deferPairs mode, nothing at all, and no mark either),
//	          then forwards every root, so every root leaves the pause
//	          canonical. Arm the heap's self-healing load barrier over the
//	          old semispace and resume the world with from-space still live.
//	          The claim protocol below starts only when the world does.
//	drain   — one background relocator evacuates the remaining live set:
//	          a CAS cursor parses to-space [flip base, drain start) — every
//	          object the pause and the in-pause transformers created — and
//	          each evacuated copy, like each tail old copy the pause left
//	          holding a reference, is pushed on the drain's stack for
//	          scanning. Scanning heals stale slots (SlotCAS) and evacuates
//	          their targets through the TryForward/PublishForward claim
//	          protocol (heap/reloc.go). The mutator helps: the heap's load
//	          barrier calls back into mutatorHeal, so every from-space
//	          reference the program touches is evacuated-or-adopted on the
//	          spot and the slot healed — each slot pays the barrier at most
//	          once. Relocator and mutator race for the same objects and the
//	          same slots, which is why the claim protocol and the slot CAS
//	          are there with a single relocator.
//	retire  — when the drain terminates (relocator idle, region cursor
//	          exhausted, no mutator mid-evacuation, queue empty),
//	          from-space holds no live data. The engine finalizes on the
//	          mutator goroutine: disarm the barrier and run the deferred class
//	          cleanup. Collections, follow-up updates, and
//	          Engine.ForceDrain force-complete an unfinished drain first —
//	          the same drain contract the lazy transformer pipeline uses.
//
// Liveness needs no extra mark: the drain computes the reachability closure
// of to-space. Every root was forwarded in the pause, so anything live is
// reachable from a to-space object or a tail old copy (or is one already);
// the region scan plus the pushed copies cover exactly that closure. Objects
// the mutator allocates after the drain starts are born clean — they can only
// ever hold canonical references (loads heal, roots were forwarded) — and are
// never scanned.
//
// deferPairs (vm.Options.LazyTransform ∧ Concurrent) is full deferral:
// the pause creates no pairs except where a root points at an updated-class
// instance — the kernel pairs (or moves) it there, into the pause log. The
// drain discovers the other updated-class instances during evacuation, builds the
// shell + old copy right there — the shell's pair word makes it pending for
// the lazy read barrier — and registers the pair for the lazy drain to adopt.
// Class cleanup (unregistering the renamed old classes) is deferred to drain
// finalize in every reloc mode, because the drain sizes old copies by their
// old class ids.

// RelocStats summarizes a completed (or failed) relocation drain.
type RelocStats struct {
	// Objects/Words count evacuations performed after the pause: the
	// relocator, the mutator load barrier and forced drains. What the pause
	// copied, the objects the roots point at included, is in its Result.
	Objects int
	Words   int
	// TailWords counts deferred-pair old-copy words placed in from-space's
	// tail (Collection.TailWords' drain half).
	TailWords int
	// HealedSlots counts stale slots rewritten to canonical addresses —
	// mutator barrier heals plus drain fixup heals.
	HealedSlots uint64
	// DeferredPairs is the number of shell/old-copy pairs created by the
	// drain (deferPairs mode) for the lazy pipeline to adopt.
	DeferredPairs int
	// Moved counts updated-class instances the drain wrote directly in their
	// new layout (deferPairs mode; rt.Class.Moves) — Result.Moved's drain half.
	Moved int
	// Drain is the wall-clock time from Start (or the first forced work)
	// to termination — the copy cost that no longer sits in the pause.
	Drain time.Duration
}

// Relocation is one in-flight concurrent relocation drain. CollectReloc
// creates it inside the pause; the engine calls Start after the transformer
// phase (still inside the pause) and finalizes with Finish once Done — or
// forces completion with ForceDrain when a collection or follow-up update
// cannot wait.
type Relocation struct {
	c   *Collector
	h   *heap.Heap
	reg *rt.Registry

	deferPairs bool

	fromLo, fromHi rt.Addr // the held from-space interval

	// The scan region [regionStart, regionEnd) is to-space from the flip to
	// the Start snapshot: pause evacuations, shells, old copies, and
	// everything the in-pause transformers allocated. It is hole-free (all
	// pause allocation is bump-serial), so a CAS cursor — relocator and
	// forcing mutator both claim from it — parses it without coordination.
	regionStart rt.Addr
	regionEnd   rt.Addr
	cursor      atomic.Int64

	spawned bool // the relocator goroutine is running (false until Start)
	wg      sync.WaitGroup

	// work holds the copies awaiting their scan, seeded with the pause's
	// dirty tail old copies. Relocator and mutator both push and pop.
	work stack

	idle atomic.Bool // the relocator found nothing to take
	// mutatorBusy guards the window between a mutator-side evacuation and
	// the push of its copy: termination checks it before re-checking queue
	// emptiness, so the relocator can never declare the drain done while the
	// mutator holds an unscanned copy.
	mutatorBusy atomic.Int32
	done        atomic.Bool
	failed      atomic.Bool

	errMu sync.Mutex
	err   error

	// deferred are the drain-created pairs (deferPairs mode), in creation
	// order; a root's pair is the pause's, in its Result.Log.
	mu       sync.Mutex
	deferred []Pair

	objects, words, tailWords atomic.Int64
	moved                     atomic.Int64 // of objects, written in their new layout
	healed                    atomic.Int64 // drain-side slot heals

	started   bool // beginDrain ran (mutator goroutine)
	finished  bool // Finish ran (mutator goroutine)
	startTime time.Time
	drainNS   atomic.Int64

	mutAl *relocAllocator // mutator-side allocator (global, no TLAB)
}

// relocAllocator abstracts where an evacuation's memory comes from: the
// relocator owns TLABs (a locked bump per object instead cost ≈15 % on a
// full-heap drain); the mutator (load barrier, forced drains) allocates under
// the heap mutex.
type relocAllocator struct {
	rl   *Relocation
	tlab *heap.TLAB // nil → global locked allocation
}

func (al *relocAllocator) allocCopy(size int) (rt.Addr, bool) {
	if al.tlab != nil {
		return al.tlab.Alloc(size)
	}
	return al.rl.h.AllocBlock(size)
}

func (al *relocAllocator) allocShell(size int) (rt.Addr, bool) {
	if al.tlab != nil {
		return al.tlab.AllocZeroed(size)
	}
	return al.rl.h.Alloc(size) // armed → locked and zeroed
}

// CollectReloc is the pause half of a concurrent DSU collection. It returns
// the pause Result (the eager pairs and moves, and the copies of what the
// roots point at — the pause decomposition's PauseCopy is that kernel work)
// plus the live Relocation the engine must Start and eventually Finish.
// deferPairs selects full deferral for the lazy-transform pipeline. Post-flip
// errors leave the heap unusable exactly as in the STW collector; discovery
// errors are ErrPreFlip.
//
// Without deferPairs the pause needs the instance set of a sealed mark. If the
// marker is missing, unsealed or aborted — the engine gave up on the mark
// after too many restarts — it is the ordinary DSU Collect and there is no
// Relocation: a longer pause, the same heap.
func (c *Collector) CollectReloc(roots Roots, deferPairs bool) (Result, *Relocation, error) {
	if m := c.mark; !deferPairs && (m == nil || !m.sealed || m.aborted) {
		res, err := c.Collect(roots, true)
		return res, nil, err
	}
	start := time.Now()
	h := c.Heap
	res := Result{Collection: Collection{Relocated: true}}

	// --- discovery ---------------------------------------------------------
	var addrs []rt.Addr
	if deferPairs {
		// Full deferral: the drain discovers updated instances itself, so no
		// trace runs at all. A leftover marker's snapshot would go stale
		// across the flip — drop it (the engine does not start one in this
		// mode; this is the defensive path).
		if c.mark != nil {
			c.AbortMark()
		}
	} else {
		var err error
		addrs, err = c.relocConsumeMark(c.mark, roots, &res)
		if err != nil {
			return Result{}, nil, err
		}
	}
	// Sorted evacuation order makes the pair log a pure function of the
	// pre-flip heap layout (and sorted by shell: shells are bump-allocated).
	slices.Sort(addrs)

	fromLo, fromHi := h.ScanStart(), h.AllocPointer()
	h.Flip()
	tCopy := time.Now()

	// --- the kernel, without its scan ---------------------------------------
	// The updated-class instances the transformer pipeline needs right now,
	// then every root: a root's object is copied (in deferPairs mode, paired
	// or moved if it is an updated instance), or already was. Everything else
	// stays in from-space for the drain. Every copy lies in to-space below the
	// region's end, where the cursor heals its slots, except old copies in
	// the tail: the ones holding a reference seed the drain's stack.
	k := c.open(true)
	for _, a := range addrs {
		hw := k.Words[a]
		cls := c.Reg.ClassByID(heap.HeaderClassID(hw))
		if cls == nil || cls.UpdatedTo == nil {
			continue
		}
		if cls.Moves != nil {
			k.move(a, cls)
		} else {
			k.pair(a, hw, cls)
		}
		if k.err != nil {
			break
		}
	}
	roots.ForEachRoot(k.root)
	k.commit(h, &res)
	if k.err != nil {
		return Result{}, nil, k.err
	}
	res.PauseCopy = time.Since(tCopy)

	rl := &Relocation{
		c: c, h: h, reg: c.Reg,
		deferPairs:  deferPairs,
		fromLo:      fromLo,
		fromHi:      fromHi,
		regionStart: k.To.Lo,
	}
	rl.mutAl = &relocAllocator{rl: rl}
	rl.work.buf = slices.Clone(k.dirty)
	rl.work.size.Store(int32(len(k.dirty)))

	// Arm the self-healing load barrier before the world (and the in-pause
	// transformers, which run next) touches the heap again: every from-space
	// reference loaded from here on is evacuated-or-adopted and its slot
	// healed.
	h.ArmReloc(fromLo, fromHi, rl.mutatorHeal)

	c.Collections++
	c.CopiedObjects += res.CopiedObjects
	res.Duration = time.Since(start)
	return res, rl, nil
}

// relocConsumeMark consumes a sealed concurrent mark for the reloc pause. The
// barrier stayed armed through the blocked safe-point wait (see SealMark); the
// mutator is stopped now, so it disarms and takes the full deletion log —
// every snapshot-region edge severed since the snapshot is in it, which is
// what makes the rescan sound. The rescan is the marker's own trace, finished
// on this goroutine (the tracer was joined at the seal): grey the log and the
// root set, then pop and scan until the grey stack is empty, marking any
// snapshot-region object the concurrent trace has not seen (typically a
// handful: values the mutator moved around while the trace ran; stamped into
// PauseRescan). What it gathers is only updated-class instance addresses —
// those the trace and the rescan attributed, and the allocate-black region
// [watermark, alloc), walked linearly past the dead gaps an earlier drain left
// (the heap's hole list). Errors are ErrPreFlip: nothing has moved yet.
func (c *Collector) relocConsumeMark(m *Marker, roots Roots, res *Result) ([]rt.Addr, error) {
	c.mark = nil
	defer c.recycleMark(m)
	h := c.Heap
	m.satb = h.DisarmSATB()
	res.MarkConcurrent = true
	res.MarkOutside = m.trace
	res.MarkSetup = m.setup
	res.MarkedObjects = m.markedObjects
	res.SATBDrained = len(m.satb)

	tRescan := time.Now()
	for _, a := range m.satb {
		m.markGrey(a)
	}
	roots.ForEachRoot(m.greyRoot)
	if !m.drain() {
		return nil, preFlipErr(m.Err())
	}
	res.RescanMarked = m.markedObjects - res.MarkedObjects
	res.PauseRescan = time.Since(tRescan)
	addrs := m.updatedAddrs

	// Allocate-black walk: everything at or above the watermark is
	// implicitly live; collect its updated-class instances.
	holes := h.Holes()
	for len(holes) > 0 && holes[0].Addr < m.watermark {
		holes = holes[1:]
	}
	for a := m.watermark; a < h.AllocPointer(); {
		if len(holes) > 0 && holes[0].Addr == a {
			a += rt.Addr(holes[0].Size)
			holes = holes[1:]
			continue
		}
		var size int
		if h.IsArray(a) {
			size = rt.HeaderWords + h.ArrayLen(a)
		} else {
			cls := c.Reg.ClassByID(h.ClassID(a))
			if cls == nil {
				return nil, preFlipErr(fmt.Errorf("gc: reloc sweep: object @%d with unknown class id %d", a, h.ClassID(a)))
			}
			if cls.UpdatedTo != nil {
				addrs = append(addrs, a)
			}
			size = cls.Size
		}
		a += rt.Addr(size)
	}
	return addrs, nil
}

// --- the drain -------------------------------------------------------------

// stack is the drain's queue of copies awaiting their scan, one-ended: the
// relocator and a forcing mutator both push and pop the newest (cache-hot). A
// mutex is plenty here: pushes and pops are amortized over whole-object scans,
// and the size counter lets the idle relocator poll emptiness without taking
// the lock.
type stack struct {
	mu   sync.Mutex
	buf  []rt.Addr
	size atomic.Int32
}

func (s *stack) push(a rt.Addr) {
	s.mu.Lock()
	s.buf = append(s.buf, a)
	s.size.Store(int32(len(s.buf)))
	s.mu.Unlock()
}

// pop takes the newest entry.
func (s *stack) pop() (rt.Addr, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.buf)
	if n == 0 {
		return 0, false
	}
	a := s.buf[n-1]
	s.buf = s.buf[:n-1]
	s.size.Store(int32(n - 1))
	return a, true
}

// Start launches the background relocator. Called by the engine at
// the end of the pause, after the transformer and clinit phases — their
// allocations land below the region snapshot and get scanned like everything
// else the pause created.
func (rl *Relocation) Start() {
	if rl.started {
		return
	}
	rl.beginDrain()
	rl.spawned = true
	rl.c.Rec.Emit(obs.KPhaseBegin, obs.LaneReloc, 0, "reloc drain")
	rl.wg.Add(1)
	go rl.run()
}

func (rl *Relocation) beginDrain() {
	rl.regionEnd = rl.h.AllocPointer()
	rl.cursor.Store(int64(rl.regionStart))
	rl.startTime = time.Now()
	rl.started = true
}

// relocTLABWords is the relocator's preferred carve size, clamped so its
// abandoned tails cannot strand more than ~1/8 of a small semispace.
func relocTLABWords(h *heap.Heap) int {
	return max(64, min(4096, h.SemiWords()/8))
}

// run is the relocator's drain loop: its stack, the region cursor, then the
// idle-termination protocol. The termination condition checks mutatorBusy
// BEFORE re-checking queue emptiness — a mutator mid-evacuation increments
// busy before claiming, so either the relocator sees busy > 0 and stays, or
// the mutator's push is already visible.
func (rl *Relocation) run() {
	defer rl.wg.Done()
	h := rl.h
	al := &relocAllocator{rl: rl, tlab: h.NewTLAB(relocTLABWords(h))}
loop:
	for !rl.done.Load() && !rl.failed.Load() {
		if a, ok := rl.takeAny(); ok {
			rl.scanObj(a, al)
			continue
		}
		rl.idle.Store(true)
		for !rl.done.Load() && !rl.failed.Load() {
			if rl.workQueued() {
				rl.idle.Store(false)
				continue loop
			}
			if rl.mutatorBusy.Load() == 0 && !rl.workQueued() {
				rl.completeDrain()
				break loop
			}
			runtime.Gosched()
		}
	}
	al.tlab.Retire()
}

// workQueued reports whether an unscanned copy or an unclaimed region object
// is waiting.
func (rl *Relocation) workQueued() bool {
	return rl.work.size.Load() > 0 || rl.regionRemaining()
}

func (rl *Relocation) regionRemaining() bool {
	return rl.started && rl.cursor.Load() < int64(rl.regionEnd)
}

// nextRegion claims the next to-space region object via the CAS cursor. The
// region is hole-free (pause allocation is bump-serial), so the header at
// the cursor always parses; it is read with SlotLoad, like every header the
// drain reads while the mutator runs.
func (rl *Relocation) nextRegion() (rt.Addr, bool) {
	for {
		cur := rl.cursor.Load()
		if !rl.started || cur >= int64(rl.regionEnd) {
			return 0, false
		}
		a := rt.Addr(cur)
		hw := rl.h.SlotLoad(a)
		size := rl.h.SizeFromHeader(a, hw, rl.reg.ClassByID)
		if size < 0 {
			rl.fail(fmt.Errorf("gc: reloc drain: region object @%d with unknown class id %d", a, heap.HeaderClassID(hw)))
			return 0, false
		}
		if rl.cursor.CompareAndSwap(cur, cur+int64(size)) {
			return a, true
		}
	}
}

func (rl *Relocation) completeDrain() {
	if rl.done.CompareAndSwap(false, true) {
		rl.drainNS.Store(int64(time.Since(rl.startTime)))
		rl.c.Rec.Emit(obs.KPhaseEnd, obs.LaneReloc, rl.objects.Load(), "reloc drain")
	}
}

func (rl *Relocation) fail(err error) {
	rl.errMu.Lock()
	if rl.err == nil {
		rl.err = err
	}
	rl.errMu.Unlock()
	rl.failed.Store(true)
}

func (rl *Relocation) firstErr() error {
	rl.errMu.Lock()
	defer rl.errMu.Unlock()
	return rl.err
}

// scanObj heals every stale reference slot of one to-space (or tail)
// object, evacuating the targets. Headers and slots are read atomically (slot
// stores race with mutator writes by design — both sides are atomic while the
// barrier is armed).
func (rl *Relocation) scanObj(a rt.Addr, al *relocAllocator) {
	h := rl.h
	hw := h.SlotLoad(a)
	if heap.HeaderIsArray(hw) {
		if heap.HeaderArrayElemIsRef(hw) {
			n := h.ArrayLen(a)
			for i := 0; i < n; i++ {
				rl.healWordSlot(a+rt.HeaderWords+rt.Addr(i), al)
			}
		}
		return
	}
	cls := rl.reg.ClassByID(heap.HeaderClassID(hw))
	if cls == nil {
		rl.fail(fmt.Errorf("gc: reloc drain: object @%d with unknown class id %d", a, heap.HeaderClassID(hw)))
		return
	}
	for _, off := range cls.RefOffsets {
		rl.healWordSlot(a+off, al)
	}
}

// healWordSlot canonicalizes one reference slot: load atomically, evacuate-
// or-adopt a from-space target, CAS the canonical address back. A failed CAS
// means the mutator stored a new value meanwhile — necessarily canonical, so
// nothing is lost.
func (rl *Relocation) healWordSlot(idx rt.Addr, al *relocAllocator) {
	if rl.failed.Load() {
		return
	}
	h := rl.h
	w := h.SlotLoad(idx)
	a := rt.Addr(w)
	if a < rl.fromLo || a >= rl.fromHi {
		return // null, to-space, or the tail: already canonical
	}
	to := rl.evac(a, al)
	if to == 0 {
		return // drain is failing
	}
	if h.SlotCAS(idx, w, uint64(to)) {
		rl.healed.Add(1)
	}
}

// evac evacuates (or adopts the evacuation of) one from-space object via the
// shared CAS claim/publish protocol, returning its canonical address — or 0
// when the drain is failing.
func (rl *Relocation) evac(a rt.Addr, al *relocAllocator) rt.Addr {
	h := rl.h
	for {
		hw := h.HeaderLoad(a)
		if to, forwarded, claimed := heap.HeaderForwarded(hw); forwarded {
			return to
		} else if claimed {
			if rl.failed.Load() {
				return 0
			}
			runtime.Gosched()
			continue
		}
		if !h.TryForward(a, hw) {
			continue // lost the claim race; re-read
		}
		to, ok := rl.copyClaimed(a, hw, al)
		if !ok {
			h.RestoreHeader(a, hw) // release spinners; the drain is failing
			return 0
		}
		return to
	}
}

// copyClaimed evacuates an object this caller has claimed. Updated-class
// instances must all have been paired in the pause unless deferPairs is on —
// meeting one otherwise means discovery missed a live object, and the drain
// fails loudly rather than preserving an old-layout instance past cleanup.
func (rl *Relocation) copyClaimed(a rt.Addr, hw uint64, al *relocAllocator) (rt.Addr, bool) {
	h, reg := rl.h, rl.reg
	size := h.SizeFromHeader(a, hw, reg.ClassByID)
	if size < 0 {
		rl.fail(fmt.Errorf("gc: reloc drain: object @%d with unknown class id %d", a, heap.HeaderClassID(hw)))
		return 0, false
	}
	if !heap.HeaderIsArray(hw) {
		if cls := reg.ClassByID(heap.HeaderClassID(hw)); cls != nil && cls.UpdatedTo != nil {
			if !rl.deferPairs {
				rl.fail(fmt.Errorf("gc: reloc drain: undiscovered updated-class instance @%d (%s)", a, cls.Name))
				return 0, false
			}
			if cls.Moves == nil {
				return rl.deferredPair(a, hw, size, cls.UpdatedTo, al)
			}
			return rl.movedCopy(a, cls, al)
		}
	}
	to, ok := al.allocCopy(size)
	if !ok {
		rl.fail(ErrToSpaceExhausted)
		return 0, false
	}
	// Skip the source header word — it holds the claim sentinel; write the
	// saved original instead.
	if size > 1 {
		h.CopyWords(to+1, a+1, size-1)
	}
	h.SetWord(to, hw)
	h.PublishForward(a, to)
	rl.objects.Add(1)
	rl.words.Add(int64(size))
	rl.work.push(to)
	return to, true
}

// movedCopy is the plain evacuation above for an instance the drain met whose
// transformer is a move (deferPairs mode): one zeroed object of the new size,
// the new class id, the carried runs straight out of the claimed from-space
// object — finished before PublishForward, never pending, never a pair. It is
// pushed like any copy, so the scan heals its slots.
func (rl *Relocation) movedCopy(a rt.Addr, old *rt.Class, al *relocAllocator) (rt.Addr, bool) {
	h, newCls := rl.h, old.UpdatedTo
	to, ok := al.allocShell(newCls.Size)
	if !ok {
		rl.fail(ErrToSpaceExhausted)
		return 0, false
	}
	h.SetWord(to, uint64(newCls.ID))
	for _, m := range old.Moves {
		h.CopyWords(to+m.To, a+m.From, int(m.N))
	}
	h.PublishForward(a, to)
	rl.objects.Add(1)
	rl.words.Add(int64(newCls.Size))
	rl.moved.Add(1)
	rl.work.push(to)
	return to, true
}

// deferredPair builds a shell + old copy for an updated-class instance the
// drain discovered (deferPairs mode) and registers the pair for the lazy
// drain to adopt. The shell and its pair word — what makes it pending for the
// lazy read barrier — are written before PublishForward, so no other
// goroutine ever sees a half-built pair. The old copy goes to from-space's
// tail while it has room, else to to-space.
func (rl *Relocation) deferredPair(a rt.Addr, hw uint64, size int, newCls *rt.Class, al *relocAllocator) (rt.Addr, bool) {
	h := rl.h
	shell, ok1 := al.allocShell(newCls.Size)
	oldCopy, ok2 := h.AllocTail(size)
	if ok2 {
		rl.tailWords.Add(int64(size))
	} else {
		oldCopy, ok2 = al.allocCopy(size)
	}
	if !ok1 || !ok2 {
		rl.fail(fmt.Errorf("gc: DSU copy: %w", ErrToSpaceExhausted))
		return 0, false
	}
	h.SetWord(shell, uint64(newCls.ID))
	h.SetPairWord(shell, uint64(oldCopy))
	if size > 1 {
		h.CopyWords(oldCopy+1, a+1, size-1)
	}
	h.SetWord(oldCopy, hw)
	rl.mu.Lock()
	rl.deferred = append(rl.deferred, Pair{OldCopy: oldCopy, New: shell})
	rl.mu.Unlock()
	h.PublishForward(a, shell)
	rl.objects.Add(2)
	rl.words.Add(int64(size + newCls.Size))
	rl.work.push(oldCopy)
	return shell, true
}

// mutatorHeal is the heap load barrier's callback: evacuate-or-adopt one
// from-space reference on the mutator goroutine. busy brackets the window so
// the drain cannot terminate while the copy is unpushed. On a failing drain
// it returns the argument unchanged (the slot stays stale; the engine's next
// tick surfaces the error and marks the heap unusable).
func (rl *Relocation) mutatorHeal(a rt.Addr) rt.Addr {
	rl.mutatorBusy.Add(1)
	to := rl.evac(a, rl.mutAl)
	rl.mutatorBusy.Add(-1)
	if to == 0 {
		return a
	}
	return to
}

// HealObject canonicalizes every reference slot of one object immediately —
// the lazy-transform pipeline calls it on an old copy before running its
// transformer, so bulk field copies read canonical addresses. Safe mid-drain
// (idempotent against a concurrent relocator scan of the same object) and
// in-pause (before Start).
func (rl *Relocation) HealObject(a rt.Addr) {
	if rl == nil || a == 0 {
		return
	}
	rl.mutatorBusy.Add(1)
	rl.scanObj(a, rl.mutAl)
	rl.mutatorBusy.Add(-1)
}

// Done reports whether the drain has terminated (completed or failed).
func (rl *Relocation) Done() bool { return rl.done.Load() || rl.failed.Load() }

// Failed reports whether the drain failed (OOM or structural error).
func (rl *Relocation) Failed() bool { return rl.failed.Load() }

// Err returns the drain's first error, if any.
func (rl *Relocation) Err() error { return rl.firstErr() }

// Backlog approximates the drain's remaining work (unscanned region words
// plus queued copies) — the obs backlog gauge. Zero once done.
func (rl *Relocation) Backlog() int {
	if rl == nil || rl.Done() {
		return 0
	}
	n := int(rl.work.size.Load())
	if rl.started {
		if rem := int64(rl.regionEnd) - rl.cursor.Load(); rem > 0 {
			n += int(rem)
		}
	}
	return n
}

// ForceDrain completes the drain on the mutator goroutine: the mutator runs
// the relocator's loop, popping the newest entry as it does (bracketing each
// item with the busy counter), until termination. Collections, follow-up
// updates, and Engine.ForceDrain
// use it through the engine's residue (core.residue.force). Safe
// before Start (it begins the drain itself, with no relocator running).
func (rl *Relocation) ForceDrain() error {
	if !rl.started {
		rl.beginDrain()
		rl.c.Rec.Emit(obs.KPhaseBegin, obs.LaneReloc, 0, "reloc drain")
	}
	for !rl.failed.Load() && !rl.done.Load() {
		rl.mutatorBusy.Add(1)
		a, ok := rl.takeAny()
		if !ok {
			rl.mutatorBusy.Add(-1)
			if (!rl.spawned || rl.idle.Load()) && !rl.workQueued() {
				rl.completeDrain()
				break
			}
			runtime.Gosched()
			continue
		}
		rl.scanObj(a, rl.mutAl)
		rl.mutatorBusy.Add(-1)
	}
	if rl.failed.Load() {
		return rl.firstErr()
	}
	return nil
}

// takeAny claims work from the stack (its newest entry) or the region cursor,
// for the relocator and a forcing mutator alike. The size test keeps a mutator
// that is only waiting for the relocator to go idle off the stack's mutex.
func (rl *Relocation) takeAny() (rt.Addr, bool) {
	if rl.work.size.Load() > 0 {
		if a, ok := rl.work.pop(); ok {
			return a, true
		}
	}
	return rl.nextRegion()
}

// Finish joins the relocator, disarms the load barrier, and returns the drain
// statistics. Mutator goroutine, once Done (it force-completes defensively
// otherwise). From-space holds nothing live after this but old copies in its
// tail, which the engine's residue retires before the next Flip reuses it.
// The engine still owns the mode-level finalization (class cleanup,
// deferred-pair adoption).
func (rl *Relocation) Finish() (RelocStats, error) {
	if rl.finished {
		return RelocStats{}, nil
	}
	rl.finished = true
	if !rl.Done() {
		_ = rl.ForceDrain() // error surfaces via failed below
	}
	rl.wg.Wait()
	mutHealed := rl.h.DisarmReloc()
	st := RelocStats{
		Objects:       int(rl.objects.Load()),
		Words:         int(rl.words.Load()),
		TailWords:     int(rl.tailWords.Load()),
		HealedSlots:   uint64(rl.healed.Load()) + mutHealed,
		DeferredPairs: len(rl.deferred),
		Moved:         int(rl.moved.Load()),
		Drain:         time.Duration(rl.drainNS.Load()),
	}
	if rl.failed.Load() {
		rl.c.Rec.Emit(obs.KPhaseEnd, obs.LaneReloc, rl.objects.Load(), "reloc drain")
		return st, rl.firstErr()
	}
	return st, nil
}

// Deferred returns the drain-created pairs so far, in creation order. The
// list only grows and a pair is listed before its shell is published, so the
// lazy drain adopts by position: everything past what it took last time.
func (rl *Relocation) Deferred() []Pair {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.deferred[:len(rl.deferred):len(rl.deferred)]
}
