package heap

import (
	"sync/atomic"

	"govolve/internal/rt"
)

// This file is the heap's parallel-collection surface. A stop-the-world
// parallel collection has N workers racing to evacuate the same from-space
// object graph; the heap contributes two pieces of machinery:
//
//  1. An atomic forwarding protocol on the header word (claim with CAS,
//     publish when the copy is complete), so exactly one worker evacuates
//     each object and the losers wait for the winner's address.
//  2. Per-worker TLABs — thread-local allocation buffers bump-allocated
//     from blocks carved off to-space (or the scratch region) under the
//     heap mutex — so workers never contend on the global bump pointer for
//     individual objects.
//
// Everything here is inert for the serial collector and the mutator, which
// keep their unsynchronized fast paths.

// The claim sentinel (claimedWord) and the rest of the header bit layout
// live in bits.go — the shared map for this CAS protocol, the serial
// collector, and the concurrent relocation drain.

// HeaderLoad atomically reads an object's header word. During a parallel
// collection every read of a from-space header must go through it, because
// racing workers CAS the same word.
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

// HeaderIsArray reports whether a (non-forwarded) header word describes an
// array.
func HeaderIsArray(w uint64) bool { return w&ArrayBit != 0 }

// HeaderArrayElemIsRef reports whether a (non-forwarded) array header word
// describes an array of references.
func HeaderArrayElemIsRef(w uint64) bool { return w&ArrayRefBit != 0 }

// HeaderClassID extracts the class ID from a (non-forwarded) header word.
func HeaderClassID(w uint64) int { return int(w & ClassIDMask) }

// TryForward attempts to claim the evacuation of the object at a by
// CAS-ing its header from old (a non-forwarded value the caller read via
// HeaderLoad) to the claim sentinel. On success the caller owns the
// object: it must copy it and then PublishForward the real target — or
// RestoreHeader(a, old) if allocation failed, so spinning losers can
// observe the abort. On failure another worker got there first; re-load
// the header.
func (h *Heap) TryForward(a rt.Addr, old uint64) bool {
	return atomic.CompareAndSwapUint64(&h.words[a], old, claimedWord)
}

// PublishForward atomically installs the final forwarding pointer,
// releasing workers spinning on the claim sentinel.
func (h *Heap) PublishForward(a, to rt.Addr) {
	atomic.StoreUint64(&h.words[a], ForwardBit|uint64(to))
}

// RestoreHeader atomically rewrites a claimed header back to its original
// value — the abort path when the claiming worker could not allocate the
// copy. The collection is failing at that point; restoring keeps spinning
// losers from hanging on the sentinel forever.
func (h *Heap) RestoreHeader(a rt.Addr, w uint64) {
	atomic.StoreUint64(&h.words[a], w)
}

// SizeFromHeader computes an object's size from a header word the caller
// already holds (the header in memory may meanwhile carry the claim
// sentinel; only word 0 is ever mutated during a collection, so the array
// length at word 1 is safe to read directly). It returns -1 when the class
// ID does not resolve.
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

// CopyWords block-copies size words from src to dst. Unlike Copy it does
// not allocate — parallel workers copy into TLAB space they already own.
// Callers that copy a claimed object must skip its header word (copy from
// src+1) and write the saved header themselves, because word 0 of the
// source is concurrently CASed by the forwarding protocol.
func (h *Heap) CopyWords(dst, src rt.Addr, size int) {
	copy(h.words[dst:dst+rt.Addr(size)], h.words[src:src+rt.Addr(size)])
}

// AllocBlock carves a raw block of size words off the current space under
// the heap mutex, for TLAB refills. The block is NOT zeroed: TLAB users
// either overwrite every word (old copies, evacuated objects) or zero
// explicitly (new-class shells via TLAB.AllocZeroed).
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

// AllocScratchBlock is AllocBlock against the scratch region (DSU old
// copies under the §3.5 alternative).
func (h *Heap) AllocScratchBlock(size int) (rt.Addr, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.scratchSize == 0 || h.scratchAlloc+rt.Addr(size) > h.scratchBase()+h.scratchSize {
		return 0, false
	}
	a := h.scratchAlloc
	h.scratchAlloc += rt.Addr(size)
	return a, true
}

// TLAB is one parallel-collection worker's bump allocator. All its
// allocations come from blocks carved off the shared space under the heap
// mutex; individual object allocations are lock-free bumps within the
// current block. Tails abandoned at refill or retire time are accounted in
// Waste (they stay dead until the next collection reclaims the space
// wholesale — exactly like any other to-space slack).
type TLAB struct {
	h       *Heap
	scratch bool
	block   int // preferred carve size in words

	cur, end rt.Addr

	allocs, words int64 // flushed into Heap counters at Retire

	// Waste counts words abandoned in block tails by this TLAB.
	Waste int
}

// NewTLAB creates a worker allocation buffer carving blockWords-sized
// blocks from to-space (or the scratch region when scratch is set). No
// space is reserved until the first allocation.
func (h *Heap) NewTLAB(blockWords int, scratch bool) *TLAB {
	if blockWords < 16 {
		blockWords = 16
	}
	return &TLAB{h: h, scratch: scratch, block: blockWords}
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
	t.allocs++
	t.words += int64(size)
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
	carve := func(sz int) (rt.Addr, bool) {
		if t.scratch {
			return t.h.AllocScratchBlock(sz)
		}
		return t.h.AllocBlock(sz)
	}
	a, ok := carve(n)
	if !ok && n > need {
		a, ok = carve(need)
		n = need
	}
	if !ok {
		return false
	}
	if tail := int(t.end - t.cur); tail > 0 {
		t.Waste += tail
		if !t.scratch {
			t.h.RecordHole(t.cur, tail)
		}
	}
	t.cur, t.end = a, a+rt.Addr(n)
	return true
}

// Retire returns the buffer's unused tail to the shared space when it is
// still the topmost allocation (only one worker's can be), flushes the
// allocation counters into the heap's, and deactivates the TLAB.
func (t *TLAB) Retire() {
	h := t.h
	h.mu.Lock()
	defer h.mu.Unlock()
	if t.cur < t.end {
		switch {
		case t.scratch && h.scratchAlloc == t.end:
			h.scratchAlloc = t.cur
		case !t.scratch && h.alloc == t.end:
			h.alloc = t.cur
		default:
			t.Waste += int(t.end - t.cur)
			if !t.scratch {
				h.recordHoleLocked(t.cur, int(t.end-t.cur))
			}
		}
	}
	t.cur, t.end = 0, 0
	h.Allocs += t.allocs
	h.AllocWords += t.words
	t.allocs, t.words = 0, 0
}
