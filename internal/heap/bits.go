package heap

import "govolve/internal/rt"

// Header-word-0 bit layout — the single authoritative map of every protocol
// that claims bits in an object header. Three protocols share the word:
//
//	bits 0..31   class ID (0 for arrays but Strings)    — allocation/dispatch
//	bits 32..60  unused (reserved)
//	bit 61       array-of-references flag               — allocation
//	bit 62       array flag                             — allocation
//	bit 63       forwarded flag                         — gc forwarding
//
// Forwarding (bit 63) repurposes bits 0..60 as the forwarding address
// (ForwardMask), destroying the class id — legal because a forwarded header
// only ever appears on a FROM-space object, whose identity has already moved
// to the copy. Every collection, a relocation drain's included, writes the
// forwarded form in one store, so a header is always in one of two states:
// plain (class id + flags) or forwarded (ForwardBit | to).
// TestHeaderBitLayout pins these disjointness claims.
//
// One kind of array carries a class id: a String is a non-reference array
// (ArrayBit without ArrayRefBit) whose header also holds String's class id;
// its elements are its code points, one a word (AllocChars). Every other
// array holds 0 there. So the collector sizes, copies and settles a String as
// the array it is, while dispatch, instanceof and checkcast read its class id
// as they read any object's.
//
// Header word 1 is an array's length. On a scalar object it is the DSU pair
// word — the paper's "we instead cache a pointer to the old version in the
// new version" (§3.4) — and the only transformation status there is: the old
// copy's address on a shell whose transformer has not run (Pending),
// Transforming while it runs (the §3.4 cycle check), 0 afterwards and on every
// object that is half of no pair. The collector that creates a pair writes the
// address; the engine's residue moves it on, and zeroes whatever a failed
// update or drain leaves pending. The two uses never meet: updated-class
// instances are never arrays (String, a bootstrap class, is never updated),
// and the residue is forced before any flip, so the word is 0 whenever a
// collector may copy the object and no stale pointer is ever carried along. The same rule bounds the life of the old copies themselves:
// a DSU collection puts them in the tail of the space it left (heap.go), the
// next flip refills that space, and by then no pair word points there. The
// on-touch placement (vm.Options.LazyTransform, the §5 hybrid) leaves shells
// pending past the pause behind the interpreter's read barrier
// (vm.DSUResidue.OnTouch), which tests Pending on receivers and field
// accesses — a pending shell already carries the new class id, so dispatch,
// instanceof and checkcast need no barrier, and arrays never did. The barrier
// asks Pending of no array, a String receiver included: its word 1 is a length.
const (
	// ClassIDMask covers the class id of a scalar object's header.
	ClassIDMask = uint64(1)<<32 - 1

	// ArrayRefBit marks an array whose elements are references.
	ArrayRefBit = uint64(1) << 61

	// ArrayBit marks an array header: word 1 holds the length, and the class
	// id is 0 except on a String.
	ArrayBit = uint64(1) << 62

	// ForwardBit marks a forwarded from-space header; bits 0..60 then hold
	// the forwarding address.
	ForwardBit = uint64(1) << 63

	// ForwardMask extracts the forwarding address from a forwarded header.
	ForwardMask = uint64(1)<<61 - 1
)

// Transforming is the pair word's in-progress sentinel; no 32-bit rt.Addr equals it.
const Transforming = ^uint64(0)

// HeaderClassID extracts the class ID from a (non-forwarded) header word.
func HeaderClassID(w uint64) int { return int(w & ClassIDMask) }

// Pending reports whether a scalar object's transformer has not run yet: its
// pair word holds an old copy's address. Meaningless on an array.
func (h *Heap) Pending(a rt.Addr) bool {
	w := h.words[a+1]
	return w != 0 && w != Transforming
}

// PairWord reads a scalar object's pair word.
func (h *Heap) PairWord(a rt.Addr) uint64 { return h.words[a+1] }

// SetPairWord writes a scalar object's pair word.
func (h *Heap) SetPairWord(a rt.Addr, w uint64) { h.words[a+1] = w }
