package heap

import (
	"sync/atomic"

	"govolve/internal/rt"
)

// Concurrent relocation support (vm.Options.Concurrent): after a DSU
// flip the world resumes with from-space still live, and the remaining live
// set is evacuated concurrently — by one background relocator and by the
// mutator through a self-healing load barrier on the reference read paths
// (FieldValue, Elem). This file is the drain's whole heap surface: the
// barrier's armed state and the slot-heal CAS, the claim/publish forwarding
// protocol on the header word, and the relocator's TLAB. The drain itself
// (region scan, queue, termination) lives in internal/gc. Nothing here is on
// a stop-the-world collection's path: the kernel (scan.go, internal/gc) works
// on plain words with the world stopped.
//
// Barrier contract while armed:
//
//   - Reference LOADS atomically read the slot; a value inside
//     [fromLo, fromHi) is a from-space reference — the heal callback
//     evacuates-or-adopts it (TryForward/PublishForward CAS protocol,
//     bits.go) and the slot is CAS-healed to the canonical address. A healed
//     slot never re-faults: the canonical address is outside the from-space
//     interval, so the next load takes only the interval check.
//   - STORES go atomic, because the relocator CAS-heals the slots of the
//     to-space objects it scans while the mutator may store to them. The
//     mutator only ever stores canonical references (its loads heal, its
//     roots were remapped in the pause), so stores need no from-space check.
//   - Mutator ALLOCATION takes the heap mutex (allocLocked): the relocator
//     carves TLAB blocks off the same bump pointer.
//   - Flip is forbidden (panic): from-space is held until the drain
//     completes; collections force-complete it first.
//
// Arm/disarm discipline mirrors satb.go: one nil check on every disabled
// path, the gc layer arms inside the pause and disarms at drain finalize on
// the mutator goroutine.

// relocState is the armed barrier: the from-space interval being drained and
// the gc-layer callback that evacuates-or-adopts one from-space object,
// returning its canonical to-space address (or its argument unchanged if
// evacuation failed — the drain is then failing and the VM will be marked
// unusable; the slot is left stale so nothing is lost).
type relocState struct {
	fromLo, fromHi rt.Addr
	heal           func(rt.Addr) rt.Addr

	// healed counts slots the MUTATOR barrier healed (relocator-side heals
	// are counted by the drain). Mutator-only, no atomics needed.
	healed uint64
}

func (r *relocState) inFrom(a rt.Addr) bool { return a >= r.fromLo && a < r.fromHi }

// ArmReloc installs the relocation load barrier over the given from-space
// interval. Called inside the DSU pause, before the world resumes.
func (h *Heap) ArmReloc(fromLo, fromHi rt.Addr, heal func(rt.Addr) rt.Addr) {
	if h.reloc != nil {
		panic("heap: relocation barrier already armed")
	}
	h.reloc = &relocState{fromLo: fromLo, fromHi: fromHi, heal: heal}
}

// DisarmReloc removes the barrier once the drain has fully evacuated
// from-space, returning the number of slots the mutator barrier healed.
// Called on the mutator goroutine with the relocator stopped.
func (h *Heap) DisarmReloc() uint64 {
	r := h.reloc
	h.reloc = nil
	if r == nil {
		return 0
	}
	return r.healed
}

// RelocArmed reports whether a relocation drain holds from-space live.
func (h *Heap) RelocArmed() bool { return h.reloc != nil }

// InRelocFromSpace reports whether a lies in the from-space interval of an
// armed relocation drain (false when disarmed).
func (h *Heap) InRelocFromSpace(a rt.Addr) bool {
	r := h.reloc
	return r != nil && r.inFrom(a)
}

// healSlot canonicalizes a from-space reference read from slot idx and
// CAS-heals the slot. A failed CAS means the relocator healed it first (to
// the same canonical address — forwarding is published exactly once), so the
// return value is correct either way.
func (h *Heap) healSlot(r *relocState, idx rt.Addr, w uint64) uint64 {
	to := r.heal(rt.Addr(w))
	if to == rt.Addr(w) {
		return w // evacuation failed; leave the slot stale
	}
	if atomic.CompareAndSwapUint64(&h.words[idx], w, uint64(to)) {
		r.healed++
	}
	return uint64(to)
}

// SlotLoad atomically reads an arbitrary heap word — the drain uses it on
// the ref slots of to-space objects it scans, which race with mutator
// stores.
func (h *Heap) SlotLoad(idx rt.Addr) uint64 { return atomic.LoadUint64(&h.words[idx]) }

// SlotCAS atomically swaps a heap word — the drain's half of slot healing.
func (h *Heap) SlotCAS(idx rt.Addr, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(&h.words[idx], old, new)
}

// --- evacuation: the claim/publish protocol and the relocator's TLAB --------
//
// Relocator and mutator race to evacuate the same from-space objects, so the
// forwarding pointer is installed in two steps on the header word: claim with
// a CAS to the sentinel (claimedWord, bits.go), publish when the copy is
// complete. Exactly one side evacuates each object and the loser waits for
// the winner's address.

// HeaderLoad atomically reads an object's header word. During a relocation
// drain every read of a from-space header must go through it, because
// relocator and mutator CAS the same word.
func (h *Heap) HeaderLoad(a rt.Addr) uint64 {
	return atomic.LoadUint64(&h.words[a])
}

// HeaderForwarded decodes a header word previously read with HeaderLoad:
// it returns the forwarding target and true if the object has been
// evacuated. A claimed (in-progress) header reports forwarded=false,
// claimed=true — the caller must re-load until the winner publishes.
func HeaderForwarded(w uint64) (to rt.Addr, forwarded, claimed bool) {
	if w&ForwardBit == 0 {
		return 0, false, false
	}
	if w == claimedWord {
		return 0, false, true
	}
	return rt.Addr(w & ForwardMask), true, false
}

// TryForward attempts to claim the evacuation of the object at a by
// CAS-ing its header from old (a non-forwarded value the caller read via
// HeaderLoad) to the claim sentinel. On success the caller owns the
// object: it must copy it and then PublishForward the real target — or
// RestoreHeader(a, old) if allocation failed, so spinning losers can
// observe the abort. On failure the other side got there first; re-load
// the header.
func (h *Heap) TryForward(a rt.Addr, old uint64) bool {
	return atomic.CompareAndSwapUint64(&h.words[a], old, claimedWord)
}

// PublishForward atomically installs the final forwarding pointer,
// releasing whoever spins on the claim sentinel.
func (h *Heap) PublishForward(a, to rt.Addr) {
	atomic.StoreUint64(&h.words[a], ForwardBit|uint64(to))
}

// RestoreHeader atomically rewrites a claimed header back to its original
// value — the abort path when the claimer could not allocate the
// copy. The drain is failing at that point; restoring keeps a spinning
// loser from hanging on the sentinel forever.
func (h *Heap) RestoreHeader(a rt.Addr, w uint64) {
	atomic.StoreUint64(&h.words[a], w)
}

// SizeFromHeader computes an object's size from a header word the caller
// already holds (the header in memory may meanwhile carry the claim
// sentinel; only word 0 of a from-space object is ever mutated during a
// drain, so the array length at word 1 is safe to read directly). It returns
// -1 when the class ID does not resolve.
func (h *Heap) SizeFromHeader(a rt.Addr, w uint64, classByID func(int) *rt.Class) int {
	if w&ArrayBit != 0 {
		return rt.HeaderWords + int(h.words[a+1])
	}
	c := classByID(HeaderClassID(w))
	if c == nil {
		return -1
	}
	return c.Size
}

// CopyWords block-copies size words from src to dst, into space the caller
// already owns. Callers that copy a claimed object must skip its header word
// (copy from src+1) and write the saved header themselves, because word 0 of
// the source is concurrently CASed by the forwarding protocol.
func (h *Heap) CopyWords(dst, src rt.Addr, size int) {
	copy(h.words[dst:dst+rt.Addr(size)], h.words[src:src+rt.Addr(size)])
}

// AllocBlock carves a raw block of size words off the current space under
// the heap mutex: a TLAB refill, or one mutator-side evacuation. The block is
// NOT zeroed: its users either overwrite every word (old copies, evacuated
// objects) or zero explicitly (new-class shells via TLAB.AllocZeroed).
func (h *Heap) AllocBlock(size int) (rt.Addr, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.alloc+rt.Addr(size) > h.limit(h.cur) {
		return 0, false
	}
	a := h.alloc
	h.alloc += rt.Addr(size)
	return a, true
}

// AllocTail carves a raw block of size words off the tail the last Flip left
// (heap.go), under the heap mutex: the relocation drain's DSU old copies. Like
// AllocBlock's, the block is not zeroed.
func (h *Heap) AllocTail(size int) (rt.Addr, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.tail.Alloc+rt.Addr(size) > h.tail.Hi {
		return 0, false
	}
	a := h.tail.Alloc
	h.tail.Alloc += rt.Addr(size)
	return a, true
}

// TLAB is the relocator's bump allocator. All its allocations come from
// blocks carved off the shared space under the heap mutex — the mutator
// allocates from the same bump pointer while the drain runs — and individual
// object allocations are lock-free bumps within the current block. Block ends
// abandoned at refill or retire time stay dead until the next collection
// reclaims the space wholesale; they are recorded as holes (heap.go), because
// a linear walk cannot parse them.
type TLAB struct {
	h     *Heap
	block int // preferred carve size in words

	cur, end rt.Addr
}

// NewTLAB creates an allocation buffer carving blockWords-sized
// blocks from to-space. No space is reserved until the first allocation.
func (h *Heap) NewTLAB(blockWords int) *TLAB {
	if blockWords < 16 {
		blockWords = 16
	}
	return &TLAB{h: h, block: blockWords}
}

// Alloc reserves size words from the buffer, refilling from the shared
// space as needed. The words are NOT zeroed — use AllocZeroed for objects
// whose fields must start at their defaults.
func (t *TLAB) Alloc(size int) (rt.Addr, bool) {
	if size < rt.HeaderWords {
		size = rt.HeaderWords
	}
	if int(t.end-t.cur) < size && !t.refill(size) {
		return 0, false
	}
	a := t.cur
	t.cur += rt.Addr(size)
	return a, true
}

// AllocZeroed is Alloc with the reserved words cleared — the shell
// allocation path (a new-class object must present zeroed fields to its
// transformer).
func (t *TLAB) AllocZeroed(size int) (rt.Addr, bool) {
	a, ok := t.Alloc(size)
	if !ok {
		return 0, false
	}
	clear(t.h.words[a : a+rt.Addr(size)])
	return a, true
}

// refill carves a fresh block, abandoning the current tail. When a full
// preferred-size block no longer fits it falls back to carving exactly the
// words needed, so the last stretch of space is still usable.
func (t *TLAB) refill(need int) bool {
	n := t.block
	if need > n {
		n = need
	}
	a, ok := t.h.AllocBlock(n)
	if !ok && n > need {
		a, ok = t.h.AllocBlock(need)
		n = need
	}
	if !ok {
		return false
	}
	if tail := int(t.end - t.cur); tail > 0 {
		t.h.RecordHole(t.cur, tail)
	}
	t.cur, t.end = a, a+rt.Addr(n)
	return true
}

// Retire returns the buffer's unused tail to the shared space when it is
// still the topmost allocation, records it as a hole otherwise, and
// deactivates the TLAB.
func (t *TLAB) Retire() {
	h := t.h
	h.mu.Lock()
	defer h.mu.Unlock()
	if t.cur < t.end {
		if h.alloc == t.end {
			h.alloc = t.cur
		} else {
			h.recordHoleLocked(t.cur, int(t.end-t.cur))
		}
	}
	t.cur, t.end = 0, 0
}
