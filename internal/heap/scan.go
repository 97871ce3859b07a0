package heap

import "govolve/internal/rt"

// ScanStart returns the first address of the current space — where a
// Cheney-style scan begins after Flip.
func (h *Heap) ScanStart() rt.Addr { return h.base(h.cur) }

// AllocPointer returns the bump pointer: one past the last allocated word
// in the current space. While a relocation drain is live the relocator carves
// TLAB blocks off the same pointer under the heap mutex, so the read takes
// it too (whole-VM audits run mid-drain); disabled, it is a plain load.
func (h *Heap) AllocPointer() rt.Addr {
	if h.reloc != nil {
		h.mu.Lock()
		defer h.mu.Unlock()
	}
	return h.alloc
}

// Region is one bump-allocated address range: [Lo, Hi) with Alloc the next
// free word.
type Region struct{ Lo, Alloc, Hi rt.Addr }

// Contains reports whether a lies in [Lo, Hi) — one unsigned compare, false
// for every address when the region is empty.
func (r Region) Contains(a rt.Addr) bool { return a-r.Lo < r.Hi-r.Lo }

// Raw is the collector's view of the heap for the length of one
// stop-the-world flip: the word array itself plus the two regions a
// collection allocates in, to-space and the tail of the space it left (DSU
// old copies; heap.go). It exists so the copy/scan kernel (internal/gc)
// can test, copy and rewrite words without a call, a barrier check or a
// tagged rt.Value per slot. Nothing else may use it, and it may not outlive
// the collection that took it:
//
//   - It is legal only between Flip and the end of the same pause. The world
//     is stopped and the relocation barrier is disarmed (Raw panics
//     otherwise), so the barrier-checked accessors would take their plain
//     branch on every word anyway; Raw is that branch, hoisted.
//   - To and Tail are copies. The collection bumps them privately and hands
//     the pointers back with CommitRaw on every exit path.
type Raw struct {
	Words []uint64
	To    Region // the allocation space (to-space after Flip)
	Tail  Region // the unallocated end of the space Flip left
}

// Raw opens the collector's word-level view; see the type for the contract.
func (h *Heap) Raw() Raw {
	if h.reloc != nil {
		panic("heap: Raw with the relocation barrier armed — the word-level view is stop-the-world only")
	}
	return Raw{
		Words: h.words,
		To:    Region{Lo: h.base(h.cur), Alloc: h.alloc, Hi: h.limit(h.cur)},
		Tail:  h.tail,
	}
}

// CommitRaw hands back the bump pointers a collection advanced in its Raw
// view.
func (h *Heap) CommitRaw(r *Raw) {
	h.alloc, h.tail.Alloc = r.To.Alloc, r.Tail.Alloc
}
