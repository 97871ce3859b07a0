// Package heap implements the VM's word-addressed semi-space heap. Objects
// are contiguous word sequences with a two-word header; addresses are word
// indexes; address 0 is null. The collector (internal/gc) copies objects
// between the two semispaces and installs forwarding pointers in the header,
// exactly the structure JVOLVE's modified semi-space collector relies on.
package heap

import (
	"sort"
	"sync"
	"sync/atomic"

	"govolve/internal/rt"
)

// The header word 0 bit layout lives in bits.go — the one documented map of
// every protocol (class id, array flags, forwarding/claim) that shares the
// word — and of word 1, an array's length or a scalar's DSU pair word.

// Heap is a semi-space heap. Mutator access is not synchronized; the VM
// scheduler serializes it (the VM is a green-thread machine), and a
// stop-the-world collection runs on that same goroutine. Two goroutines ever
// share the heap with it: the concurrent marker's tracer (satb.go) and the
// relocation drain's relocator (reloc.go); the entry points documented there,
// and only those, are safe for concurrent use.
type Heap struct {
	words []uint64
	semi  rt.Addr // words per semispace
	cur   int     // current allocation space, 0 or 1
	alloc rt.Addr // next free word (absolute)

	// mu guards the bump pointers (alloc, tail.Alloc) and the hole list
	// while a relocation drain is live: the relocator's TLAB refills and
	// retires take it, and so do the mutator's allocation (allocLocked) and
	// AllocTail. Outside a drain nobody does.
	mu sync.Mutex

	// tail is [alloc, limit) of the space the last Flip left: the paper's
	// §3.5 "special block of memory" the DSU old copies go to. They cost
	// to-space nothing, and the next Flip reclaims them with that space; the
	// engine retires an update's residue before any flip (bits.go).
	tail Region

	// satb, when non-nil, is the armed snapshot-at-the-beginning deletion
	// barrier for an in-flight concurrent DSU mark (see satb.go). Disarmed
	// it costs the store paths one nil check — the same discipline as the
	// disabled flight recorder.
	satb *satbState

	// reloc, when non-nil, is the armed self-healing load barrier for an
	// in-flight concurrent relocation drain (see reloc.go): loads of
	// from-space references evacuate-or-adopt and heal the slot; stores go
	// atomic because the relocator CAS-heals the same slots. Disarmed it
	// costs the access paths one nil check.
	reloc *relocState

	// holes records the dead gaps a relocation drain leaves in each
	// semispace (the relocator's TLAB block tails abandoned at
	// refill/retire). A bump region is self-parsing only while it is
	// gap-free; the pause that consumes a concurrent mark walks the
	// allocate-black end of from-space linearly and skips these. Indexed by
	// semispace; Flip clears the list of the space it starts refilling.
	holes [2][]Hole
}

// Hole is one unparseable gap inside a semispace: a TLAB block tail
// abandoned during a relocation drain. The words are dead (never
// referenced) but contain stale bits, so linear heap walks must skip them.
type Hole struct {
	Addr rt.Addr
	Size int
}

// recordHoleLocked notes a dead gap in the current space. Callers hold h.mu.
func (h *Heap) recordHoleLocked(a rt.Addr, size int) {
	if size <= 0 {
		return
	}
	h.holes[h.cur] = append(h.holes[h.cur], Hole{Addr: a, Size: size})
}

// RecordHole notes a dead gap in the current space (TLAB refill path, which
// does not hold the heap mutex).
func (h *Heap) RecordHole(a rt.Addr, size int) {
	h.mu.Lock()
	h.recordHoleLocked(a, size)
	h.mu.Unlock()
}

// Holes returns the current space's dead gaps sorted by address — the
// skip-list a linear from-space walk needs. Called only inside a pause.
func (h *Heap) Holes() []Hole {
	hs := h.holes[h.cur]
	sort.Slice(hs, func(i, j int) bool { return hs[i].Addr < hs[j].Addr })
	return hs
}

// New creates a heap with the given number of words per semispace.
// Word 0 is reserved so that address 0 means null.
func New(semiWords int) *Heap {
	if semiWords < 16 {
		semiWords = 16
	}
	h := &Heap{words: make([]uint64, 1+2*semiWords), semi: rt.Addr(semiWords)}
	h.alloc = h.base(0)
	return h
}

// InTail reports whether an address lies in the tail the last Flip left. It
// reads only the bounds, which no one but Flip writes, so it is safe beside a
// relocator bumping the tail.
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

// UsedWords returns the words allocated in the current space. Like
// AllocPointer it takes the heap mutex while a relocation drain is live
// (the relocator bumps the same pointer); disabled, it is a plain load.
func (h *Heap) UsedWords() int {
	if h.reloc != nil {
		h.mu.Lock()
		defer h.mu.Unlock()
	}
	return int(h.alloc - h.base(h.cur))
}

// FreeWords returns the words remaining in the current space; see UsedWords
// for the locking discipline.
func (h *Heap) FreeWords() int {
	if h.reloc != nil {
		h.mu.Lock()
		defer h.mu.Unlock()
	}
	return int(h.limit(h.cur) - h.alloc)
}

// Alloc reserves size words, zeroed, returning the base address, or
// (0, false) if the current space is full — the caller (VM) then triggers a
// collection and retries.
func (h *Heap) Alloc(size int) (rt.Addr, bool) {
	if size < rt.HeaderWords {
		size = rt.HeaderWords
	}
	if h.reloc != nil {
		return h.allocLocked(size)
	}
	if h.alloc+rt.Addr(size) > h.limit(h.cur) {
		return 0, false
	}
	a := h.alloc
	h.alloc += rt.Addr(size)
	// clear compiles to a memclr, unlike the equivalent index loop. Copy
	// paths (the collector's kernel, TLAB allocation) skip zeroing
	// entirely — they overwrite every word immediately.
	clear(h.words[a:h.alloc])
	return a, true
}

// allocLocked is Alloc under the heap mutex — the mutator's allocation path
// while a concurrent relocation drain is live, when the relocator carves
// TLAB blocks off the same bump pointer.
func (h *Heap) allocLocked(size int) (rt.Addr, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.alloc+rt.Addr(size) > h.limit(h.cur) {
		return 0, false
	}
	a := h.alloc
	h.alloc += rt.Addr(size)
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

// AllocChars allocates a non-reference array of the given length and writes
// its header only: the elements hold whatever the space held before. The
// caller must write every element before its next allocation (DESIGN.md
// §7.1). While the relocation barrier is armed it is AllocArray: the
// relocator carves TLABs off the same bump pointer.
func (h *Heap) AllocChars(length int) (rt.Addr, bool) {
	if h.reloc != nil {
		return h.AllocArray(false, length)
	}
	size := rt.Addr(rt.HeaderWords + length)
	if h.alloc+size > h.limit(h.cur) {
		return 0, false
	}
	a := h.alloc
	h.alloc += size
	h.words[a] = ArrayBit
	h.words[a+1] = uint64(length)
	return a, true
}

// Word reads a raw word.
func (h *Heap) Word(a rt.Addr) uint64 { return h.words[a] }

// SetWord writes a raw word.
func (h *Heap) SetWord(a rt.Addr, v uint64) { h.words[a] = v }

// ClassID returns the object's class ID (0 for arrays).
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

// ArrayLen returns the array length.
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
	// The space we are about to refill is empty again: its recorded holes
	// (from the relocation drain two flips ago) died with its contents.
	h.holes[h.cur] = h.holes[h.cur][:0]
}

// FieldValue reads a tagged field value given the offset and ref-ness that
// compiled code baked in. With the relocation barrier armed, a load that
// observes a from-space reference evacuates-or-adopts the target and heals
// the slot with the canonical address — the self-healing half of the
// Shenandoah-style barrier; each slot pays it at most once.
func (h *Heap) FieldValue(a rt.Addr, offset int, isRef bool) rt.Value {
	idx := a + rt.Addr(offset)
	if r := h.reloc; r != nil {
		w := atomic.LoadUint64(&h.words[idx])
		if isRef && r.inFrom(rt.Addr(w)) {
			w = h.healSlot(r, idx, w)
		}
		return rt.Value{Bits: w, IsRef: isRef}
	}
	return rt.Value{Bits: h.words[idx], IsRef: isRef}
}

// SetFieldValue writes a field word. With the SATB barrier armed (concurrent
// DSU mark in flight) a reference store additionally logs the overwritten
// value and goes atomic; with the relocation barrier armed the store goes
// atomic because the relocator CAS-heals the same slots. The disarmed path is
// the plain store plus the nil checks.
func (h *Heap) SetFieldValue(a rt.Addr, offset int, v rt.Value) {
	idx := a + rt.Addr(offset)
	if s := h.satb; s != nil && v.IsRef {
		h.satbStore(s, idx, v.Bits)
		return
	}
	if h.reloc != nil {
		atomic.StoreUint64(&h.words[idx], v.Bits)
		return
	}
	h.words[idx] = v.Bits
}

// Elem reads array element i, paying the relocation load barrier when armed
// (the element's ref-ness comes from the array header, so even untagged
// readers are covered).
func (h *Heap) Elem(a rt.Addr, i int) rt.Value {
	idx := a + rt.HeaderWords + rt.Addr(i)
	if r := h.reloc; r != nil {
		isRef := h.words[a]&ArrayRefBit != 0
		w := atomic.LoadUint64(&h.words[idx])
		if isRef && r.inFrom(rt.Addr(w)) {
			w = h.healSlot(r, idx, w)
		}
		return rt.Value{Bits: w, IsRef: isRef}
	}
	return rt.Value{Bits: h.words[idx], IsRef: h.ArrayElemIsRef(a)}
}

// SetElem writes array element i, paying the SATB barrier (log + atomic) or
// the relocation barrier (atomic) when either is armed.
func (h *Heap) SetElem(a rt.Addr, i int, v rt.Value) {
	idx := a + rt.HeaderWords + rt.Addr(i)
	if s := h.satb; s != nil && h.words[a]&ArrayRefBit != 0 {
		h.satbStore(s, idx, v.Bits)
		return
	}
	if h.reloc != nil {
		atomic.StoreUint64(&h.words[idx], v.Bits)
		return
	}
	h.words[idx] = v.Bits
}

// ElemWords returns the element words of a NON-reference array as a window
// onto the heap: no copy, no allocation. It is legal only on arrays whose
// elements are not references, which is why it may skip both barriers even
// while one is armed: the SATB barrier logs overwritten references and the
// tracer reads reference slots only, and the relocator neither reads nor
// writes the elements of a to-space array once its copy is published (the
// mutator never holds a from-space address — its loads heal). The window is
// dead after the next guest allocation: a collection moves the array.
func (h *Heap) ElemWords(a rt.Addr) []uint64 {
	lo := a + rt.HeaderWords
	hi := lo + rt.Addr(h.words[a+1])
	return h.words[lo:hi:hi]
}

// CopyElems copies n elements of array src, from index si, into array dst
// from index di — heap to heap, legal on arrays of either kind as long as
// both are the same kind. With neither barrier armed it is one block copy;
// with the SATB or the relocation barrier armed it takes the per-element
// Elem/SetElem path, which logs, heals and goes atomic exactly as a guest
// aget/aset loop would.
func (h *Heap) CopyElems(dst rt.Addr, di int, src rt.Addr, si, n int) {
	if n <= 0 {
		return
	}
	if h.satb == nil && h.reloc == nil {
		d := dst + rt.HeaderWords + rt.Addr(di)
		s := src + rt.HeaderWords + rt.Addr(si)
		copy(h.words[d:d+rt.Addr(n)], h.words[s:s+rt.Addr(n)])
		return
	}
	for i := 0; i < n; i++ {
		h.SetElem(dst, di+i, h.Elem(src, si+i))
	}
}
