package gc

import (
	"math"
	"time"

	"govolve/internal/heap"
	"govolve/internal/obs"
	"govolve/internal/rt"
)

// Incremental relocation (vm.VM.Concurrent): the answer to the last
// stop-the-world phase that still scaled with live-set size. Where on-touch
// transformation moves the *transformers* out of the DSU pause, CollectReloc
// moves the bulk *copy* out, and with it discovery of the updated-class
// instances —
// Baker's incremental copying (CACM 1978) on the collector's own kernel:
//
//	pause   — flip, and run the kernel without its scan over the roots only:
//	          a root's object is copied, or paired (shell + old copy) or
//	          moved if it is an updated-class instance, so every root leaves
//	          the pause canonical. Arm the heap's self-healing load barrier
//	          over the old semispace and resume the world with from-space
//	          still live.
//	drain   — the rest of the Cheney scan, resumable, run on the mutator
//	          goroutine in quanta of drainQuantum scanned words: the
//	          scheduler runs one between slices (vm.DSUResidue.Tick), a
//	          collection, a follow-up update or Engine.ForceDrain run them
//	          until the drain is done. The mutator helps: the heap's load
//	          barrier calls back into heal, which evacuates-or-adopts one
//	          from-space object with the kernel, so every from-space
//	          reference the program touches is canonical on the spot and the
//	          slot healed — each slot pays the barrier at most once.
//	retire  — when the scan has nothing left, from-space holds no live data.
//	          The engine finalizes: disarm the barrier and run the deferred
//	          class cleanup, once the on-touch transformers are done too.
//
// Liveness needs no extra mark: the drain computes the reachability closure
// of to-space. Every root was forwarded in the pause, so anything live is
// reachable from a kernel copy or a tail old copy (or is one). The scan covers
// exactly those: spans of to-space awaiting their scan — span 0 is what the
// pause and its in-pause transformers left, every later quantum or barrier
// evacuation adds the copies it made — and the kernel's dirty list of tail old
// copies. Objects the mutator allocates after the pause lie between the spans
// and are never scanned: they are born clean — they can only ever hold
// canonical references (loads heal, roots were forwarded) — so the drain's
// work is bounded by the live set at the pause whatever the allocation rate.
// The clean runs the kernel records are jumped here as in a stop-the-world
// scan: an object clean when it was copied can since have been given only
// canonical references.
//
// Pairs are deferred (vm.Options.Concurrent transforms on touch): the drain
// discovers the updated-class instances the roots do not point at during
// evacuation, builds the shell + old copy right there — the shell's pair word
// makes it pending for the on-touch read barrier — and the kernel's pair log
// lists the pair for the engine's residue to adopt. Class cleanup (unregistering
// the renamed old classes) waits for drain finalize, because the kernel sizes
// old copies by their old class ids.
//
// Nothing here is concurrent: every view of the heap the drain opens is one
// stop-the-world step of the kernel (heap.Raw), so a seeded run is a pure
// function of its seed in this mode as in the others.

// drainQuantum is how many words one scheduler tick's quantum scans (at least
// one object, which is never split; a clean run jumped costs nothing). It
// counts work, never wall-clock time, so the drain's interleaving with the
// mutator is deterministic. The value is the smallest quantum whose drain
// window stays within 2x of an unsplit drain's in EXPERIMENTS E12's
// measurement; the collector's own time is flat across quantum sizes there.
const drainQuantum = 1 << 10

// RelocStats summarizes a completed (or failed) relocation drain.
type RelocStats struct {
	// Objects/Words count evacuations performed after the pause: quanta, the
	// mutator's load barrier and forced drains. What the pause copied, the
	// objects the roots point at included, is in its Result.
	Objects int
	Words   int
	// TailWords counts deferred-pair old-copy words placed in from-space's
	// tail (Collection.TailWords' drain half).
	TailWords int
	// HealedSlots counts stale slots rewritten to canonical addresses — by
	// the barrier and by the drain's scan.
	HealedSlots uint64
	// DeferredPairs is the number of shell/old-copy pairs created by the
	// drain for the engine's residue to adopt.
	DeferredPairs int
	// Moved counts updated-class instances the drain wrote directly in their
	// new layout (rt.Class.Moves) — Result.Moved's drain half.
	Moved int
	// Drain is the wall-clock time from Start to the scan's end — the copy
	// cost that no longer sits in the pause. Zero for a failed drain.
	Drain time.Duration
}

// Relocation is one in-flight relocation drain. CollectReloc creates it inside
// the pause; the engine calls Start after the transformer phase (still inside
// the pause), runs Step between scheduler slices and finalizes with Finish
// once Done — or forces completion with ForceDrain when a collection or
// follow-up update cannot wait. The drain holds the collector's kernel from
// the pause to Finish: no collection runs in between.
type Relocation struct {
	c *Collector
	h *heap.Heap

	// spans are the stretches of to-space awaiting their scan, in address
	// order; spans[0].lo is the scan cursor. While a view is open the last
	// span is live: its copies extend it (open, close).
	spans   []run
	oldScan int // kernel.dirty[:oldScan] are scanned
	paused  int // the pause's pairs: kernel.log[:paused]

	started, finished bool
	err               error
	startTime         time.Time
	drain             time.Duration
}

// CollectReloc is the pause half of a relocating DSU collection. It returns
// the pause Result (the pairs and moves of updated instances the roots point
// at, and the copies of what the roots point at — the pause decomposition's
// PauseCopy is that kernel work) plus the live Relocation the engine must
// Start and eventually Finish. Errors leave the heap unusable exactly as in
// the STW collector.
func (c *Collector) CollectReloc(roots Roots) (Result, *Relocation, error) {
	start := time.Now()
	h := c.Heap
	res := Result{Collection: Collection{Relocated: true}}

	fromLo, fromHi := h.ScanStart(), h.AllocPointer()
	h.Flip()
	tCopy := time.Now()

	// The kernel, without its scan: every root's object is copied (paired or
	// moved if it is an updated instance), or already was. Everything else
	// stays in from-space for the drain.
	k := c.open(true)
	roots.ForEachRoot(k.root)
	k.commit(h, &res)
	if k.err != nil {
		return Result{}, nil, k.err
	}
	res.PauseCopy = time.Since(tCopy)
	res.Log = res.Log[:len(res.Log):len(res.Log)] // the drain appends its pairs to the kernel's log
	// From here the kernel counts the drain's share.
	k.objects, k.words, k.tailWords, k.moved, k.hits = 0, 0, 0, 0, 0

	rl := &Relocation{c: c, h: h, paused: len(k.log)}
	// Arm the self-healing load barrier before the world (and the in-pause
	// transformers, which run next) touches the heap again: every from-space
	// reference loaded from here on is evacuated-or-adopted and its slot
	// healed.
	h.ArmReloc(fromLo, fromHi, rl.heal)

	c.Collections++
	c.CopiedObjects += res.CopiedObjects
	res.Duration = time.Since(start)
	return res, rl, nil
}

// Start begins the drain: span 0 is to-space from the flip to here —
// the pause's copies and everything the transformer and clinit phases
// allocated, which are scanned like the rest. Called by the engine at the end
// of the pause; ForceDrain calls it when nothing did.
func (rl *Relocation) Start() {
	if rl.started {
		return
	}
	rl.started = true
	rl.spans = append(rl.spans, run{rl.h.ScanStart(), rl.h.AllocPointer()})
	rl.startTime = time.Now()
	rl.c.Rec.Emit(obs.KPhaseBegin, obs.LaneReloc, 0, "reloc drain")
}

// open opens one step of the kernel over the heap as it is now. Once the drain
// has started, the last span becomes live: the one ending at the allocation
// pointer when no allocation came between, a new empty one otherwise.
func (rl *Relocation) open() *kernel {
	k := &rl.c.kernel
	k.Raw = rl.h.Raw()
	if n := len(rl.spans); rl.started && (n == 0 || rl.spans[n-1].hi != k.To.Alloc) {
		rl.spans = append(rl.spans, run{k.To.Alloc, k.To.Alloc})
	}
	return k
}

// close ends the step: the bump pointers go back to the heap, the live span
// takes the step's copies, and the drain's end is stamped when the scan has
// nothing left.
func (rl *Relocation) close(k *kernel) {
	rl.h.CommitRaw(&k.Raw)
	if n := len(rl.spans); n > 0 {
		s := &rl.spans[n-1]
		if s.hi = k.To.Alloc; s.lo >= s.hi {
			rl.spans = rl.spans[:n-1]
		}
	}
	if k.err != nil && rl.err == nil {
		rl.err = k.err
	}
	if rl.drain == 0 && rl.err == nil && rl.Done() {
		rl.drain = time.Since(rl.startTime)
		rl.c.Rec.Emit(obs.KPhaseEnd, obs.LaneReloc, int64(k.objects), "reloc drain")
	}
}

// scan is one quantum: the Cheney scan over the pending spans — the live one
// last, up to the allocation pointer its own copies push on — interleaved
// with the dirty tail old copies, until budget words are scanned or nothing is
// left.
func (rl *Relocation) scan(budget int) {
	k := rl.open()
	for budget > 0 && k.err == nil {
		s, n := &rl.spans[0], 0
		switch {
		case len(rl.spans) > 1:
			if s.lo, n = k.scanTo(s.lo, s.hi, budget); s.lo >= s.hi {
				rl.spans = rl.spans[1:]
			}
		case s.lo < k.To.Alloc:
			s.lo, n = k.scanTo(s.lo, ^rt.Addr(0), budget)
		case rl.oldScan < len(k.dirty):
			rl.oldScan, n = k.scanDirty(rl.oldScan, budget)
		default:
			n = budget // nothing left
		}
		budget -= n
	}
	rl.close(k)
}

// Step runs one quantum of a started drain and reports whether the drain is
// done: the scheduler's between-slices poll.
func (rl *Relocation) Step() bool {
	if rl.started && !rl.Done() {
		rl.scan(drainQuantum)
	}
	return rl.Done()
}

// heal is the heap load barrier's callback: evacuate-or-adopt one from-space
// object with the kernel. On a failing drain it returns the argument
// unchanged (the slot stays stale; the engine's next tick surfaces the error
// and marks the heap unusable).
func (rl *Relocation) heal(a rt.Addr) rt.Addr {
	k := rl.open()
	to := k.forward(uint64(a))
	rl.close(k)
	return rt.Addr(to)
}

// HealObject canonicalizes every reference slot of one object immediately —
// the engine's residue calls it on an old copy before running its
// transformer, so bulk field copies read canonical addresses. Safe mid-drain
// (a later scan of the same object finds nothing to do) and in-pause (before
// Start).
func (rl *Relocation) HealObject(a rt.Addr) {
	if rl == nil || a == 0 {
		return
	}
	k := rl.open()
	k.scan(a)
	rl.close(k)
}

// Done reports whether the drain has terminated (completed or failed).
func (rl *Relocation) Done() bool {
	return rl.finished || rl.err != nil || (rl.started && len(rl.spans) == 0 && rl.oldScan == len(rl.c.dirty))
}

// Failed reports whether the drain failed (OOM or structural error).
func (rl *Relocation) Failed() bool { return rl.err != nil }

// Err returns the drain's first error, if any.
func (rl *Relocation) Err() error { return rl.err }

// Backlog is the drain's remaining work in words: to-space the scan has not
// passed yet, plus the unscanned tail old copies — the obs backlog gauge.
// Zero once done.
func (rl *Relocation) Backlog() int {
	if rl == nil || rl.Done() {
		return 0
	}
	n := 0
	for _, s := range rl.spans {
		n += int(s.hi - s.lo)
	}
	for _, a := range rl.c.dirty[rl.oldScan:] {
		if cls := rl.c.Reg.ClassByID(rl.h.ClassID(a)); cls != nil {
			n += cls.Size
		}
	}
	return n
}

// ForceDrain completes the drain on the mutator goroutine in one quantum
// without a budget. Collections, follow-up updates and Engine.ForceDrain use
// it through the engine's residue (core.residue.force). Safe before Start
// (it starts the drain itself).
func (rl *Relocation) ForceDrain() error {
	rl.Start()
	if !rl.Done() {
		rl.scan(math.MaxInt)
	}
	return rl.err
}

// Finish disarms the load barrier and returns the drain statistics. Mutator
// goroutine, once Done (it force-completes otherwise). From-space holds
// nothing live after this but old copies in its tail, which the engine's
// residue retires before the next Flip reuses it. The engine still owns the
// mode-level finalization (class cleanup, deferred-pair adoption).
func (rl *Relocation) Finish() (RelocStats, error) {
	if rl.finished {
		return RelocStats{}, nil
	}
	_ = rl.ForceDrain() // a no-op once done; an error surfaces below
	k := &rl.c.kernel
	rl.finished = true
	rl.h.DisarmReloc()
	pairs := len(k.log) - rl.paused
	st := RelocStats{
		Objects:   k.objects,
		Words:     k.words,
		TailWords: k.tailWords,
		// Every evacuation after the pause healed the slot it came from (a
		// pair is two objects and one evacuation); every hit healed one too.
		HealedSlots:   uint64(k.hits + k.objects - pairs),
		DeferredPairs: pairs,
		Moved:         k.moved,
		Drain:         rl.drain,
	}
	if rl.err != nil {
		rl.c.Rec.Emit(obs.KPhaseEnd, obs.LaneReloc, int64(k.objects), "reloc drain")
	}
	return st, rl.err
}

// Deferred returns the drain-created pairs so far, in creation order — which
// is shell-address order, since kernel.pair bump-allocates every shell at the
// to-space cursor: the kernel's pair log past the pause's pairs, valid until
// the next collection reuses the kernel. The list only grows, so the engine's
// residue adopts by position: everything past what it took last time.
func (rl *Relocation) Deferred() []Pair {
	log := rl.c.log
	return log[rl.paused:len(log):len(log)]
}
