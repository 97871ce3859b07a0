package gc

import (
	"fmt"

	"govolve/internal/heap"
	"govolve/internal/rt"
)

// The copy/scan kernel: the one word-level implementation of "evacuate this
// object" and "forward every reference in that one" under every
// stop-the-world collection (DESIGN.md §8.1). It works on heap.Raw — the
// word array, to-space and the tail the flip left — and on the per-class scan
// descriptor rt.Class.RefOffsets, so a slot costs a load, a null test and,
// only for a reference that still points into from-space, a call. No
// rt.Value is built and no barrier is consulted: the world is stopped and
// both barriers are disarmed for as long as a Raw view may exist.
//
// The scan reads a to-space word only if it may still hold a from-space
// reference: objects that cannot are clean — decided once, at the write, while
// the words are in cache (settle) — and form runs that cheney's cursor jumps.
//
// Every copy made with the world stopped goes through the collector's one
// kernel: collectSerial whole, and the relocation pause's eager evacuation
// and root forwarding (no scan there: the drain heals what those copies hold,
// so the runs are never read and the dirty list seeds the drain's stack).

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
	dsu bool
	// old is where DSU old copies go: the tail (the paper's §3.5 block —
	// to-space pays nothing for them, and the next flip reclaims them) until
	// one does not fit, to-space behind its shell from then on.
	old *heap.Region

	log            []Pair
	objects, words int // copied, shells included
	tailWords      int // of those, old-copy words that went to the tail
	moved          int // of objects, instances written in their new layout

	// runs are the clean runs in address order, kept for their capacity.
	// cheney's cursor has jumped runs[:next]; settle never extends those.
	runs  []run
	next  int
	scans int // objects scan was entered for
	// dirty, also kept, are the tail old copies holding a reference, in
	// placement order: the only tail objects the scan has anything to do in.
	dirty []rt.Addr

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
	*k = kernel{Raw: c.Heap.Raw(), reg: c.Reg, dsu: dsu, runs: k.runs[:0], dirty: k.dirty[:0], root: k.root}
	k.old = &k.Tail
	if dsu {
		k.log = make([]Pair, 0, c.lastPairs)
	}
	return k
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
		return hw & heap.ForwardMask
	}
	if to := k.evacuate(a, hw); to != rt.Null {
		return uint64(to)
	}
	return w
}

// evacuate moves the from-space object at a (header hw, not forwarded) and
// returns its new address — the shell's, for an instance of an updated class
// — or null with err set.
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
	cls := k.reg.ClassByID(heap.HeaderClassID(hw))
	if cls == nil {
		k.err = errUnknownClass(a, hw)
		return rt.Null
	}
	if k.dsu && cls.UpdatedTo != nil {
		if cls.Moves != nil {
			return k.move(a, cls)
		}
		return k.pair(a, hw, cls).New
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

// move is copy for an instance of an updated class whose transformer is a move
// transformer (rt.Class.Moves, DESIGN.md §8.4) — a copy with a layout
// permutation: no shell, no old copy, no log entry — one object of the new
// size, written once and in the new version's layout, and nothing is written
// unless it fits. Fields no run carries keep their defaults and word 1, the
// pair word, is 0 from the start: the object is finished, and the scan
// forwards its references under the new class's RefOffsets like any copied
// object's.
func (k *kernel) move(a rt.Addr, old *rt.Class) rt.Addr {
	newCls := old.UpdatedTo
	to, size := k.To.Alloc, rt.Addr(newCls.Size)
	if to+size > k.To.Hi {
		k.err = ErrToSpaceExhausted
		return rt.Null
	}
	k.To.Alloc = to + size
	words := k.Words
	clear(words[to : to+size])
	words[to] = uint64(newCls.ID)
	for _, m := range old.Moves {
		copy(words[to+m.To:to+m.To+m.N], words[a+m.From:a+m.From+m.N])
	}
	words[a] = heap.ForwardBit | uint64(to)
	k.objects++
	k.words += int(size)
	k.moved++
	return k.settle(to, size, newCls.RefOffsets)
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
		for scan < k.To.Alloc && k.err == nil {
			if k.next < len(k.runs) && k.runs[k.next].lo == scan {
				scan, k.next = k.runs[k.next].hi, k.next+1
				continue
			}
			scan += k.scan(scan)
		}
		for oldScan < len(k.dirty) && k.err == nil {
			k.scan(k.dirty[oldScan])
			oldScan++
		}
	}
	return k.err
}
