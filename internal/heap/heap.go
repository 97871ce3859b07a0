// Package heap implements the VM's word-addressed semi-space heap. Objects
// are contiguous word sequences with a two-word header; addresses are word
// indexes; address 0 is null. The collector (internal/gc) copies objects
// between the two semispaces and installs forwarding pointers in the header,
// exactly the structure JVOLVE's modified semi-space collector relies on.
package heap

import (
	"strings"
	"unsafe"

	"govolve/internal/rt"
)

// The header word 0 bit layout lives in bits.go — the one documented map of
// every protocol (class id, array flags, forwarding) that shares the word —
// and of word 1, an array's length or a scalar's DSU pair word.

// Heap is a semi-space heap. Access is not synchronized: the VM scheduler
// serializes it (the VM is a green-thread machine), and every collection —
// a stop-the-world one, and each quantum or barrier evacuation of a
// relocation drain (reloc.go) — runs on that same goroutine. No other
// goroutine ever touches the heap.
type Heap struct {
	words []uint64
	semi  rt.Addr // words per semispace
	cur   int     // current allocation space, 0 or 1
	alloc rt.Addr // next free word (absolute)

	// tail is [alloc, limit) of the space the last Flip left: the paper's
	// §3.5 "special block of memory" the DSU old copies go to. They cost
	// to-space nothing, and the next Flip reclaims them with that space; the
	// engine retires an update's residue before any flip (bits.go).
	tail Region

	// reloc, when non-nil, is the armed self-healing load barrier for an
	// in-flight relocation drain (see reloc.go): loads of from-space
	// references evacuate-or-adopt and heal the slot. Disarmed it costs the
	// load paths one nil check; stores and allocation never test it.
	reloc *relocState

	rawAt [2]rt.Addr // the bump pointers when the last Raw view was opened
}

// New creates a heap with the given number of words per semispace.
// Word 0 is reserved so that address 0 means null.
func New(semiWords int) *Heap {
	if semiWords < 16 {
		semiWords = 16
	}
	h := &Heap{words: backing(1 + 2*semiWords), semi: rt.Addr(semiWords)}
	h.alloc = h.base(0)
	return h
}

// backing returns n words that Go has not cleared: the heap never reads a
// word it has not written (DESIGN.md §8), so a launch pays only for the pages
// its guest touches. strings.Builder.Grow allocates without clearing (Go
// 1.21+); a toolchain that clears makes New slower, not wrong. The buffer is
// pointer-free, as a []uint64 is. Word 0 is written here: it is null.
func backing(n int) []uint64 {
	var b strings.Builder
	b.Grow(8 * n)
	b.WriteByte(0)
	w := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.StringData(b.String()))), n)
	if poisonBacking {
		poison(w)
	}
	w[0] = 0
	return w
}

// poison fills w with staleWord. Under the heappoison build tag (poison.go)
// every fresh backing gets it instead of what Go's allocator left there, so a
// read of a never-written word fails the same way on every run.
func poison(w []uint64) {
	for a := range w {
		w[a] = staleWord(rt.Addr(a))
	}
}

// staleWord is what a poisoned backing holds at address a: nonzero, distinct
// per address, and — read as a header — forwarded far outside any space.
func staleWord(a rt.Addr) uint64 { return 0xA5A5_A5A5_0000_0000 | uint64(a) }

// InTail reports whether an address lies in the tail the last Flip left.
func (h *Heap) InTail(a rt.Addr) bool { return a-h.tail.Lo < h.tail.Hi-h.tail.Lo }

// base returns the first address of semispace s.
func (h *Heap) base(s int) rt.Addr {
	if s == 0 {
		return 1
	}
	return 1 + h.semi
}

// limit returns one past the last address of semispace s.
func (h *Heap) limit(s int) rt.Addr { return h.base(s) + h.semi }

// SemiWords returns the size of one semispace in words.
func (h *Heap) SemiWords() int { return int(h.semi) }

// UsedWords returns the words allocated in the current space.
func (h *Heap) UsedWords() int { return int(h.alloc - h.base(h.cur)) }

// FreeWords returns the words remaining in the current space.
func (h *Heap) FreeWords() int { return int(h.limit(h.cur) - h.alloc) }

// Alloc reserves size words, zeroed, returning the base address, or
// (0, false) if the current space is full — the caller (VM) then triggers a
// collection and retries.
func (h *Heap) Alloc(size int) (rt.Addr, bool) {
	if size < rt.HeaderWords {
		size = rt.HeaderWords
	}
	if h.alloc+rt.Addr(size) > h.limit(h.cur) {
		return 0, false
	}
	a := h.alloc
	h.alloc += rt.Addr(size)
	// clear compiles to a memclr, unlike the equivalent index loop. The
	// collector's kernel skips zeroing entirely: it overwrites every word
	// it copies immediately.
	clear(h.words[a:h.alloc])
	return a, true
}

// AllocObject allocates a zeroed instance of the class and writes its header.
func (h *Heap) AllocObject(c *rt.Class) (rt.Addr, bool) {
	a, ok := h.Alloc(c.Size)
	if !ok {
		return 0, false
	}
	h.words[a] = uint64(c.ID)
	return a, true
}

// AllocArray allocates a zeroed array of the given length.
func (h *Heap) AllocArray(elemIsRef bool, length int) (rt.Addr, bool) {
	a, ok := h.Alloc(rt.HeaderWords + length)
	if !ok {
		return 0, false
	}
	hdr := ArrayBit
	if elemIsRef {
		hdr |= ArrayRefBit
	}
	h.words[a] = hdr
	h.words[a+1] = uint64(length)
	return a, true
}

// AllocChars allocates a String of class c holding length code points: a
// non-reference array whose header carries c's id (bits.go). It writes the
// header only: the elements hold whatever the space held before. The caller
// must write every element before its next allocation (DESIGN.md §7.1).
func (h *Heap) AllocChars(c *rt.Class, length int) (rt.Addr, bool) {
	size := rt.Addr(rt.HeaderWords + length)
	if h.alloc+size > h.limit(h.cur) {
		return 0, false
	}
	a := h.alloc
	h.alloc += size
	h.words[a] = ArrayBit | uint64(c.ID)
	h.words[a+1] = uint64(length)
	return a, true
}

// Word reads a raw word.
func (h *Heap) Word(a rt.Addr) uint64 { return h.words[a] }

// SetWord writes a raw word.
func (h *Heap) SetWord(a rt.Addr, v uint64) { h.words[a] = v }

// ClassID returns the object's class ID (0 for an array, except a String's).
func (h *Heap) ClassID(a rt.Addr) int {
	return int(h.words[a] & ClassIDMask)
}

// SetClassID rewrites the object's class ID — the DSU collector points
// transformed objects at their new class ("initializes the new object to
// point to the TIB of the new type").
func (h *Heap) SetClassID(a rt.Addr, id int) {
	h.words[a] = (h.words[a] &^ ClassIDMask) | uint64(id)
}

// IsArray reports whether the object is an array.
func (h *Heap) IsArray(a rt.Addr) bool { return h.words[a]&ArrayBit != 0 }

// ArrayElemIsRef reports whether the array's elements are references.
func (h *Heap) ArrayElemIsRef(a rt.Addr) bool { return h.words[a]&ArrayRefBit != 0 }

// ArrayLen returns the array length (a String's, too).
func (h *Heap) ArrayLen(a rt.Addr) int { return int(h.words[a+1]) }

// Forwarded returns the forwarding target if the object has been moved by
// the current collection.
func (h *Heap) Forwarded(a rt.Addr) (rt.Addr, bool) {
	w := h.words[a]
	if w&ForwardBit == 0 {
		return 0, false
	}
	return rt.Addr(w & ForwardMask), true
}

// SetForward installs a forwarding pointer in the header, destroying it.
func (h *Heap) SetForward(a, to rt.Addr) {
	h.words[a] = ForwardBit | uint64(to)
}

// InCurrentSpace reports whether the address lies in the current
// (allocation) space. During a collection the current space is to-space.
func (h *Heap) InCurrentSpace(a rt.Addr) bool {
	return a >= h.base(h.cur) && a < h.limit(h.cur)
}

// Flip switches allocation to the other semispace. The collector calls it
// at the start of a collection; everything subsequently allocated (the
// copies) lands in to-space, and the old space becomes garbage wholesale —
// its unallocated end the tail, for DSU old copies.
func (h *Heap) Flip() {
	if h.reloc != nil {
		panic("heap: Flip with relocation barrier armed — force the drain first")
	}
	h.tail = Region{Lo: h.alloc, Alloc: h.alloc, Hi: h.limit(h.cur)}
	h.cur ^= 1
	h.alloc = h.base(h.cur)
}

// FieldValue reads a tagged field value given the offset and ref-ness that
// compiled code baked in. With the relocation barrier armed, a load that
// observes a from-space reference evacuates-or-adopts the target and heals
// the slot with the canonical address — the self-healing half of the
// Shenandoah-style barrier; each slot pays it at most once.
func (h *Heap) FieldValue(a rt.Addr, offset int, isRef bool) rt.Value {
	idx := a + rt.Addr(offset)
	w := h.words[idx]
	if r := h.reloc; r != nil && isRef && r.inFrom(rt.Addr(w)) {
		w = h.healSlot(r, idx, w)
	}
	return rt.Value{Bits: w, IsRef: isRef}
}

// SetFieldValue writes a field word. Stores need no barrier: the mutator
// only ever holds canonical references (its loads heal, its roots were
// forwarded in the pause).
func (h *Heap) SetFieldValue(a rt.Addr, offset int, v rt.Value) {
	h.words[a+rt.Addr(offset)] = v.Bits
}

// Elem reads array element i, paying the relocation load barrier when armed
// (the element's ref-ness comes from the array header, so even untagged
// readers are covered).
func (h *Heap) Elem(a rt.Addr, i int) rt.Value {
	idx := a + rt.HeaderWords + rt.Addr(i)
	w, isRef := h.words[idx], h.words[a]&ArrayRefBit != 0
	if r := h.reloc; r != nil && isRef && r.inFrom(rt.Addr(w)) {
		w = h.healSlot(r, idx, w)
	}
	return rt.Value{Bits: w, IsRef: isRef}
}

// SetElem writes array element i; like SetFieldValue it needs no barrier.
func (h *Heap) SetElem(a rt.Addr, i int, v rt.Value) {
	h.words[a+rt.HeaderWords+rt.Addr(i)] = v.Bits
}

// ElemWords returns the element words of a NON-reference array as a window
// onto the heap: no copy, no allocation. It is legal only on arrays whose
// elements are not references, which is why it may skip the relocation
// barrier even while it is armed: no element is ever a from-space reference.
// The window is dead after the next guest allocation: a collection moves the
// array.
func (h *Heap) ElemWords(a rt.Addr) []uint64 {
	lo := a + rt.HeaderWords
	hi := lo + rt.Addr(h.words[a+1])
	return h.words[lo:hi:hi]
}

// CopyElems copies n elements of array src, from index si, into array dst
// from index di — heap to heap, legal on arrays of either kind as long as
// both are the same kind. With the relocation barrier disarmed it is one
// block copy; armed, it takes the per-element Elem/SetElem path, which heals
// exactly as a guest aget/aset loop would.
func (h *Heap) CopyElems(dst rt.Addr, di int, src rt.Addr, si, n int) {
	if n <= 0 {
		return
	}
	if h.reloc == nil {
		d := dst + rt.HeaderWords + rt.Addr(di)
		s := src + rt.HeaderWords + rt.Addr(si)
		copy(h.words[d:d+rt.Addr(n)], h.words[s:s+rt.Addr(n)])
		return
	}
	for i := 0; i < n; i++ {
		h.SetElem(dst, di+i, h.Elem(src, si+i))
	}
}
