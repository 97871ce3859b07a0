package heap

import "govolve/internal/rt"

// ScanStart returns the first address of the current space — where a
// Cheney-style scan begins after Flip.
func (h *Heap) ScanStart() rt.Addr { return h.base(h.cur) }

// AllocPointer returns the bump pointer: one past the last allocated word
// in the current space.
func (h *Heap) AllocPointer() rt.Addr { return h.alloc }

// Region is one bump-allocated address range: [Lo, Hi) with Alloc the next
// free word.
type Region struct{ Lo, Alloc, Hi rt.Addr }

// Contains reports whether a lies in [Lo, Hi) — one unsigned compare, false
// for every address when the region is empty.
func (r Region) Contains(a rt.Addr) bool { return a-r.Lo < r.Hi-r.Lo }

// Raw is the collector's word-level view of the heap: the word array itself
// plus the two regions a collection allocates in, to-space and the tail of the
// space the last Flip left (DSU old copies; heap.go). It exists so the
// copy/scan kernel (internal/gc) can test, copy and rewrite words without a
// call, a barrier check or a tagged rt.Value per slot. Nothing else may use
// it, and no guest instruction runs while a view is open:
//
//   - A view lasts one stop-the-world step: a collection's pause, or one
//     quantum or one barrier evacuation of a relocation drain. The
//     barrier-checked accessors would take their plain branch on every word
//     the kernel touches anyway; Raw is that branch, hoisted.
//   - To and Tail are copies. The kernel bumps them privately and hands the
//     pointers back with CommitRaw on every exit path. CommitRaw panics if
//     the heap allocated while the view was open: the bump pointers it would
//     write back no longer describe the heap.
type Raw struct {
	Words []uint64
	To    Region // the allocation space (to-space after Flip)
	Tail  Region // the unallocated end of the space Flip left
}

// Raw opens the collector's word-level view; see the type for the contract.
func (h *Heap) Raw() Raw {
	h.rawAt = [2]rt.Addr{h.alloc, h.tail.Alloc}
	return Raw{
		Words: h.words,
		To:    Region{Lo: h.base(h.cur), Alloc: h.alloc, Hi: h.limit(h.cur)},
		Tail:  h.tail,
	}
}

// CommitRaw hands back the bump pointers the kernel advanced in its Raw view.
func (h *Heap) CommitRaw(r *Raw) {
	if h.rawAt != [2]rt.Addr{h.alloc, h.tail.Alloc} {
		panic("heap: the heap allocated while a Raw view was open — no guest instruction may run inside a collector step")
	}
	h.alloc, h.tail.Alloc = r.To.Alloc, r.Tail.Alloc
}
