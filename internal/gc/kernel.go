package gc

import (
	"fmt"
	"math"
	"slices"

	"govolve/internal/heap"
	"govolve/internal/rt"
)

// The copy/scan kernel: the one word-level implementation of "evacuate this
// object" and "forward every reference in that one" under every
// stop-the-world collection (DESIGN.md §8.1). It works on heap.Raw — the
// word array, to-space and the tail the flip left — and on the per-class scan
// descriptor rt.Class.RefOffsets, so a slot costs a load, a null test and,
// only for a reference that still points into from-space, a call. No
// rt.Value is built and no barrier is consulted: no guest instruction runs
// while a Raw view is open.
//
// The scan reads a to-space word only if it may still hold a from-space
// reference: objects that cannot are clean — decided once, at the write, while
// the words are in cache (settle) — and form runs that the scan cursor jumps.
//
// Every copy goes through the collector's one kernel: Collect whole, and a
// relocation (reloc.go) in steps — the pause's root forwarding, then the rest
// of the same Cheney scan in bounded quanta, and the load barrier's
// evacuations one object at a time.

// errUnknownClass is the structural error every tracer reports for a header
// whose class id the registry cannot resolve.
func errUnknownClass(a rt.Addr, hw uint64) error {
	return fmt.Errorf("gc: object @%d with unknown class id %d", a, heap.HeaderClassID(hw))
}

// errPairExhausted is ErrToSpaceExhausted met while making a DSU pair.
var errPairExhausted = fmt.Errorf("gc: DSU copy: %w", ErrToSpaceExhausted)

// run is a stretch [lo, hi) of to-space holding only clean objects.
type run struct{ lo, hi rt.Addr }

// kernel is one serial collection's state, embedded in its Collector and reset
// by open. The bump pointers live in its Raw copy for the whole collection;
// commit hands them back to the heap, with the counters, on every exit path.
type kernel struct {
	heap.Raw
	reg *rt.Registry
	// old is where DSU old copies go: the tail (the paper's §3.5 block —
	// to-space pays nothing for them, and the next flip reclaims them) until
	// one does not fit, to-space behind its shell from then on.
	old *heap.Region

	log            []Pair
	objects, words int // copied, shells included
	tailWords      int // of those, old-copy words that went to the tail
	moved          int // of objects, instances written in their new layout
	hits           int // references forwarded to an object already evacuated

	// runs are the clean runs in address order, kept for their capacity.
	// The scan cursor has jumped runs[:next]; settle never extends those.
	runs  []run
	next  int
	scans int // objects scan was entered for
	// dirty, also kept, are the tail old copies holding a reference, in
	// placement order: the only tail objects the scan has anything to do in.
	dirty []rt.Addr

	// plan, indexed by class id, is how a DSU collection evacuates each
	// class's instances (buildPlan; empty in a plain one), fixes its fixup
	// lists; both kept for their capacity.
	plan  []evac
	fixes []fixup

	// root is forwardRoot bound once per collector (New): the root visitor a
	// collection hands ForEachRoot is no fresh closure.
	root func(*rt.Value)

	// err is the first failure. Once set, evacuate refuses further work and
	// references are left as they were; the heap is unusable either way.
	err error
}

// open resets the collector's kernel over the just-flipped heap.
func (c *Collector) open(dsu bool) *kernel {
	k := &c.kernel
	*k = kernel{Raw: c.Heap.Raw(), reg: c.Reg, runs: k.runs[:0], dirty: k.dirty[:0], plan: k.plan[:0], fixes: k.fixes[:0], root: k.root}
	k.old = &k.Tail
	if dsu {
		k.log = make([]Pair, 0, c.lastPairs)
		k.buildPlan()
	}
	return k
}

// evac is one class's plan entry: its instances take size words in to-space,
// the first body of them block-copied from the old object, the header
// rewritten to hw&keep | set, then the fixups; refs is the resulting class's
// scan descriptor.
type evac struct {
	kind       uint8
	size, body rt.Addr
	keep, set  uint64
	refs       []rt.Addr
	fix        []fixup
	cls        *rt.Class
}

// The kinds of evac. unchanged and moved are 0 and 1: place adds the kind to
// the moved count.
const (
	unchanged uint8 = iota
	moved           // an updated class whose transformer is a move (rt.Class.Moves)
	paired          // an updated class whose transformer has to run
)

// fixup is one word a move writes differently from the block copy of the old
// body: words[to+dst] = words[a+src] & keep — a shifted field (keep all ones),
// or a new one zero-filled (keep 0).
type fixup struct {
	dst, src rt.Addr
	keep     uint64
}

// noFixup rewrites word 1 with what the block copy put there: the padding.
var noFixup = fixup{1, 1, ^uint64(0)}

// A DSU collection places an unchanged instance from the plan, padded like a
// moved one, only while more than 1/placeShare of the objects it has copied so
// far were moved: below, the padding costs more than the mispredictions it
// saves, and past maxPad fixups it always does, so no list is padded then
// (DESIGN.md §8.1).
const placeShare, maxPad = 4, 8

// buildPlan fills the plan for every class id of the registry (ids are
// dense). Every fixup list is padded with noFixup to the longest one's length
// (up to maxPad) and an unchanged class's list is all padding, so that where
// evacuate places unchanged instances too every instance runs the same
// instruction stream whatever its class. The block copy carries word 1, the
// pair word, as it is: 0 on every object a collection meets, what a move
// writes there.
func (k *kernel) buildPlan() {
	nfix, total, nmoved := 0, 0, 0
	for id := 0; id == 0 || k.reg.ClassByID(id) != nil; id++ {
		e := evac{kind: paired, cls: k.reg.ClassByID(id)}
		if cls := e.cls; cls != nil && cls.UpdatedTo == nil {
			size := rt.Addr(cls.Size)
			e = evac{size: size, body: size, keep: ^uint64(0), refs: cls.RefOffsets}
		} else if cls != nil && cls.Moves != nil {
			to := cls.UpdatedTo
			e = evac{kind: moved, size: rt.Addr(to.Size), body: rt.Addr(min(cls.Size, to.Size)),
				set: uint64(to.ID), refs: to.RefOffsets, cls: cls}
			k.fixes = e.appendFixups(k.fixes[:0])
			nfix, total, nmoved = max(nfix, len(k.fixes)), total+len(k.fixes), nmoved+1
		}
		k.plan = append(k.plan, e)
	}
	if nfix > maxPad {
		nfix = 0
	}
	k.fixes = slices.Grow(k.fixes[:0], nfix+max(nmoved*nfix, total))
	for range nfix {
		k.fixes = append(k.fixes, noFixup)
	}
	pad := k.fixes[:nfix:nfix]
	for i := range k.plan {
		switch e := &k.plan[i]; e.kind {
		case unchanged:
			e.fix = pad
		case moved:
			lo := len(k.fixes)
			k.fixes = e.appendFixups(k.fixes)
			k.fixes = append(k.fixes, pad[:max(0, lo+nfix-len(k.fixes))]...)
			e.fix = k.fixes[lo:]
		}
	}
}

// appendFixups appends the words of a moved instance that the block copy
// leaves different from the move of e.cls (its runs over a zeroed object):
// every field but one carried from its own offset, which is inside the body.
func (e *evac) appendFixups(dst []fixup) []fixup {
	for d := rt.Addr(rt.HeaderWords); d < e.size; d++ {
		f := fixup{dst: d} // src 0: d is zero-filled
		for _, m := range e.cls.Moves {
			if m.To <= d && d < m.To+m.N {
				f.src, f.keep = m.From+d-m.To, ^uint64(0)
			}
		}
		if f.src != d {
			dst = append(dst, f)
		}
	}
	return dst
}

// commit writes the bump pointers back to the heap and the counters into res.
func (k *kernel) commit(h *heap.Heap, res *Result) {
	h.CommitRaw(&k.Raw)
	res.Log = k.log
	res.CopiedObjects += k.objects
	res.CopiedWords += k.words
	res.PairsLogged += len(k.log)
	res.TailWords += k.tailWords
	res.Moved += k.moved
}

// forward returns where the object a non-null reference word points at lives
// after this collection, evacuating it on first encounter. A failed
// evacuation leaves the reference as it was.
func (k *kernel) forward(w uint64) uint64 {
	a := rt.Addr(w)
	if k.To.Contains(a) || k.Tail.Contains(a) {
		return w // already copied: a to-space object, a shell, or an old copy
	}
	hw := k.Words[a]
	if hw&heap.ForwardBit != 0 {
		k.hits++
		return hw & heap.ForwardMask
	}
	if to := k.evacuate(a, hw); to != rt.Null {
		return uint64(to)
	}
	return w
}

// evacuate moves the from-space object at a (header hw, not forwarded) and
// returns its new address — the shell's, for an instance of an updated class
// — or null with err set. A DSU collection takes an instance's way from the
// plan: a pair, or place — for an unchanged one only at the share of moved
// instances placeShare asks for, a plain copy below it.
func (k *kernel) evacuate(a rt.Addr, hw uint64) rt.Addr {
	if k.err != nil {
		return rt.Null
	}
	if hw&heap.ArrayBit != 0 {
		size := rt.HeaderWords + rt.Addr(k.Words[a+1])
		if hw&heap.ArrayRefBit != 0 {
			return k.copy(a, size) // always scanned
		}
		return k.settle(k.copy(a, size), size, nil)
	}
	if id := heap.HeaderClassID(hw); 0 < id && id < len(k.plan) {
		e := &k.plan[id]
		switch {
		case e.kind == paired:
			return k.pair(a, hw, e.cls).New
		case placeShare*k.moved <= k.objects && e.kind == unchanged: // the share first: the kind is the test that mispredicts
			return k.settle(k.copy(a, e.size), e.size, e.refs)
		}
		return k.place(a, hw, e)
	}
	cls := k.reg.ClassByID(heap.HeaderClassID(hw)) // a plain collection, or no class
	if cls == nil {
		k.err = errUnknownClass(a, hw)
		return rt.Null
	}
	return k.settle(k.copy(a, rt.Addr(cls.Size)), rt.Addr(cls.Size), cls.RefOffsets)
}

// holdsRef reports whether any of the slots refs of the object at a is non-null.
func (k *kernel) holdsRef(a rt.Addr, refs []rt.Addr) bool {
	for _, off := range refs {
		if k.Words[a+off] != 0 {
			return true
		}
	}
	return false
}

// settle records the object just written at [to, to+size) as clean if none of
// its slots refs holds a reference, and returns to — null if the write failed.
func (k *kernel) settle(to, size rt.Addr, refs []rt.Addr) rt.Addr {
	if to == rt.Null || k.holdsRef(to, refs) {
		return to
	}
	if n := len(k.runs); n > k.next && k.runs[n-1].hi == to {
		k.runs[n-1].hi = to + size
	} else {
		k.runs = append(k.runs, run{to, to + size})
	}
	return to
}

// copy block-copies size words to the bump pointer ("the GC uses memcopy,
// which is highly optimized", §3.4) and leaves the forwarding pointer behind.
func (k *kernel) copy(a, size rt.Addr) rt.Addr {
	to := k.To.Alloc
	if to+size > k.To.Hi {
		k.err = ErrToSpaceExhausted
		return rt.Null
	}
	k.To.Alloc = to + size
	copy(k.Words[to:to+size], k.Words[a:a+size])
	k.Words[a] = heap.ForwardBit | uint64(to)
	k.objects++
	k.words += int(size)
	return to
}

// place evacuates an instance by its plan entry: for a moved class a move
// (DESIGN.md §8.4) — no shell, no old copy, no log entry: one object of the
// new size written once in the new layout, finished, with its pair word 0 —
// and for an unchanged one a copy. Nothing is written unless it fits.
func (k *kernel) place(a rt.Addr, hw uint64, e *evac) rt.Addr {
	to := k.To.Alloc
	if to+e.size > k.To.Hi {
		k.err = ErrToSpaceExhausted
		return rt.Null
	}
	k.To.Alloc = to + e.size
	words := k.Words
	copy(words[to:to+e.body], words[a:a+e.body])
	words[to] = hw&e.keep | e.set
	for _, f := range e.fix {
		words[to+f.dst] = words[a+f.src] & f.keep
	}
	words[a] = heap.ForwardBit | uint64(to)
	k.objects++
	k.words += int(e.size)
	k.moved += int(e.kind)
	return k.settle(to, e.size, e.refs)
}

// pair evacuates an instance of an updated class whose transformer has to run
// (hand-written, or anything ObjectMoves cannot prove): shell first, then the old
// copy (in the tail, or behind the shell once the tail is full), the log entry,
// and the forwarding pointer to the shell: the zeroed shell of newCls with the
// old copy's address cached in its pair word (header word 1, heap/bits.go), and
// the old version — header hw, body from a — at oldCopy. The zero Pair means
// err is set. The shell is clean by construction, the old copy under its own
// class's test: in to-space it may join a run, in the tail it is listed in
// dirty unless clean.
func (k *kernel) pair(a rt.Addr, hw uint64, old *rt.Class) Pair {
	size, newCls := rt.Addr(old.Size), old.UpdatedTo
	shell := k.To.Alloc
	k.To.Alloc += rt.Addr(newCls.Size)
	if k.old == &k.Tail && k.Tail.Alloc+size > k.Tail.Hi {
		k.old = &k.To
	}
	oldCopy := k.old.Alloc
	k.old.Alloc += size
	if k.To.Alloc > k.To.Hi || k.old.Alloc > k.old.Hi {
		// Nothing was written. This order: old may be To itself.
		k.old.Alloc = oldCopy
		k.To.Alloc = shell
		k.err = errPairExhausted
		return Pair{}
	}
	words := k.Words
	clear(words[shell : shell+rt.Addr(newCls.Size)])
	words[shell] = uint64(newCls.ID)
	words[shell+1] = uint64(oldCopy)
	words[oldCopy] = hw
	copy(words[oldCopy+1:oldCopy+size], words[a+1:a+size])
	p := Pair{OldCopy: oldCopy, New: shell}
	k.log = append(k.log, p)
	words[a] = heap.ForwardBit | uint64(shell)
	k.objects += 2
	k.words += int(size) + newCls.Size
	k.settle(shell, rt.Addr(newCls.Size), nil)
	if k.old == &k.To {
		k.settle(oldCopy, size, old.RefOffsets)
	} else {
		k.tailWords += int(size)
		if k.holdsRef(oldCopy, old.RefOffsets) {
			k.dirty = append(k.dirty, oldCopy)
		}
	}
	return p
}

// scan forwards every reference inside the copied object at a and returns its
// size, 0 on a structural error. Old copies are scanned like any object —
// that is what lets a transformer dereference an old object's fields and see
// transformed referents.
func (k *kernel) scan(a rt.Addr) rt.Addr {
	k.scans++
	words := k.Words
	hw := words[a]
	if hw&heap.ArrayBit != 0 {
		n := rt.Addr(words[a+1])
		if hw&heap.ArrayRefBit != 0 {
			elems := words[a+rt.HeaderWords : a+rt.HeaderWords+n]
			for i, w := range elems {
				if w != 0 {
					elems[i] = k.forward(w)
				}
			}
		}
		return rt.HeaderWords + n
	}
	cls := k.reg.ClassByID(heap.HeaderClassID(hw))
	if cls == nil {
		k.err = errUnknownClass(a, hw)
		return 0
	}
	for _, off := range cls.RefOffsets {
		if w := words[a+off]; w != 0 {
			words[a+off] = k.forward(w)
		}
	}
	return rt.Addr(cls.Size)
}

// forwardRoot forwards one root slot (the root visitor, bound as root).
func (k *kernel) forwardRoot(v *rt.Value) {
	if v.IsRef && v.Bits != 0 {
		v.Bits = k.forward(v.Bits)
	}
}

// cheney is the collection proper: the roots in enumeration order, then a
// Cheney scan of to-space interleaved with the dirty tail old copies until
// neither grows. Copy order is an invariant — every to-space address, the
// log order and the storm/stream fingerprints are functions of it.
func (k *kernel) cheney(roots Roots) error {
	scan, oldScan := k.To.Alloc, 0
	roots.ForEachRoot(k.root)
	for k.err == nil && (scan < k.To.Alloc || oldScan < len(k.dirty)) {
		scan, _ = k.scanTo(scan, ^rt.Addr(0), math.MaxInt)
		oldScan, _ = k.scanDirty(oldScan, math.MaxInt)
	}
	return k.err
}

// scanTo advances a Cheney scan cursor from scan over the to-space objects
// below hi and the allocation pointer — which the scan's own copies push on —
// jumping clean runs, until it gets there, an error stops it, or it has
// scanned budget words. It returns the cursor and the words scanned.
func (k *kernel) scanTo(scan, hi rt.Addr, budget int) (rt.Addr, int) {
	left := budget
	for k.err == nil && left > 0 && scan < min(hi, k.To.Alloc) {
		if k.next < len(k.runs) && k.runs[k.next].lo == scan {
			scan, k.next = k.runs[k.next].hi, k.next+1
			continue
		}
		size := k.scan(scan)
		scan += size
		left -= int(size)
	}
	return scan, budget - left
}

// scanDirty scans the dirty tail old copies from index i until none is left,
// an error stops it, or it has scanned budget words. It returns the next
// index and the words scanned.
func (k *kernel) scanDirty(i, budget int) (int, int) {
	n := 0
	for ; i < len(k.dirty) && n < budget && k.err == nil; i++ {
		n += int(k.scan(k.dirty[i]))
	}
	return i, n
}
