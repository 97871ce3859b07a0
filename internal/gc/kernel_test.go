package gc

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"govolve/internal/classfile"
	"govolve/internal/heap"
	"govolve/internal/rt"
)

// refCollectSerial is the closure-based serial Cheney loop the kernel
// replaced, kept as the reference the kernel is held to word for word: every
// slot boxed into an rt.Value and moved through the barrier-checked
// accessors, the class resolved per use, RefMap walked entry by entry, every
// tail old copy scanned. Only heap.Copy, which left the heap with the loop,
// and the tail's bump, which left it with the relocator, are spelled out. Old
// copies go to the tail until one does not fit and to to-space from then on,
// as the kernel's do.
func refCollectSerial(c *Collector, roots Roots, dsu bool) (Result, error) {
	h := c.Heap
	var res Result
	h.Flip()
	copyWords := func(to, src rt.Addr, size int) {
		for i := rt.Addr(0); i < rt.Addr(size); i++ {
			h.SetWord(to+i, h.Word(src+i))
		}
	}
	copyTo := func(src rt.Addr, size int) (rt.Addr, bool) {
		if size > h.FreeWords() {
			return 0, false
		}
		to, _ := h.Alloc(size)
		copyWords(to, src, size)
		return to, true
	}
	allocTail := func(size int) (rt.Addr, bool) {
		raw := h.Raw()
		a := raw.Tail.Alloc
		if a+rt.Addr(size) > raw.Tail.Hi {
			return 0, false
		}
		raw.Tail.Alloc += rt.Addr(size)
		h.CommitRaw(&raw)
		return a, true
	}
	objectSize := func(a rt.Addr) int {
		if h.IsArray(a) {
			return rt.HeaderWords + h.ArrayLen(a)
		}
		return c.Reg.ClassByID(h.ClassID(a)).Size
	}

	useTail := dsu
	var tailObjs []rt.Addr
	var gcErr error
	forward := func(v *rt.Value) {
		if gcErr != nil || !v.IsRef || v.Bits == 0 {
			return
		}
		a := v.Ref()
		if h.InCurrentSpace(a) || h.InTail(a) {
			return
		}
		if to, ok := h.Forwarded(a); ok {
			v.Bits = uint64(to)
			return
		}
		size := objectSize(a)
		if dsu && !h.IsArray(a) {
			cls := c.Reg.ClassByID(h.ClassID(a))
			if cls != nil && cls.UpdatedTo != nil && cls.Moves != nil {
				// A move transformer, the slow way: a zeroed instance of the
				// new class, each carried word through the accessors.
				to, ok := h.AllocObject(cls.UpdatedTo)
				if !ok {
					gcErr = ErrToSpaceExhausted
					return
				}
				for _, m := range cls.Moves {
					for i := rt.Addr(0); i < m.N; i++ {
						h.SetWord(to+m.To+i, h.Word(a+m.From+i))
					}
				}
				h.SetForward(a, to)
				res.CopiedObjects++
				res.CopiedWords += cls.UpdatedTo.Size
				res.Moved++
				v.Bits = uint64(to)
				return
			}
			if cls != nil && cls.UpdatedTo != nil {
				newCls := cls.UpdatedTo
				shell, ok1 := h.AllocObject(newCls)
				var oldCopy rt.Addr
				var ok2 bool
				if useTail {
					if oldCopy, ok2 = allocTail(size); ok2 {
						copyWords(oldCopy, a, size)
						tailObjs = append(tailObjs, oldCopy)
						res.TailWords += size
					}
					useTail = ok2
				}
				if !useTail {
					oldCopy, ok2 = copyTo(a, size)
				}
				if !ok1 || !ok2 {
					gcErr = fmt.Errorf("gc: DSU copy: %w", ErrToSpaceExhausted)
					return
				}
				h.SetForward(a, shell)
				h.SetPairWord(shell, uint64(oldCopy))
				res.Log = append(res.Log, Pair{OldCopy: oldCopy, New: shell})
				res.CopiedObjects += 2
				res.CopiedWords += size + newCls.Size
				res.PairsLogged++
				v.Bits = uint64(shell)
				return
			}
		}
		to, ok := copyTo(a, size)
		if !ok {
			gcErr = ErrToSpaceExhausted
			return
		}
		h.SetForward(a, to)
		res.CopiedObjects++
		res.CopiedWords += size
		v.Bits = uint64(to)
	}
	scanObj := func(a rt.Addr) {
		if h.IsArray(a) {
			if h.ArrayElemIsRef(a) {
				for i := 0; i < h.ArrayLen(a); i++ {
					v := h.Elem(a, i)
					forward(&v)
					h.SetElem(a, i, v)
				}
			}
			return
		}
		for i, isRef := range c.Reg.ClassByID(h.ClassID(a)).RefMap {
			if !isRef {
				continue
			}
			v := h.FieldValue(a, rt.HeaderWords+i, true)
			forward(&v)
			h.SetFieldValue(a, rt.HeaderWords+i, v)
		}
	}

	scan := h.ScanStart()
	tailCursor := 0
	roots.ForEachRoot(forward)
	for gcErr == nil {
		progressed := false
		for scan < h.AllocPointer() && gcErr == nil {
			size := objectSize(scan)
			scanObj(scan)
			scan += rt.Addr(size)
			progressed = true
		}
		for tailCursor < len(tailObjs) && gcErr == nil {
			scanObj(tailObjs[tailCursor])
			tailCursor++
			progressed = true
		}
		if !progressed {
			break
		}
	}
	return res, gcErr
}

// staleHeap is heap.New with every word but null holding staleWord. A fresh
// heap's words are whatever Go's allocator left until the heap writes them
// (DESIGN.md §8), so two heaps built alike differ in the words nobody wrote;
// filled, they agree everywhere, and sameCollection can compare every word.
func staleHeap(semi int) *heap.Heap {
	h := heap.New(semi)
	fillStale(h, 1, rt.Addr(1+2*h.SemiWords()))
	return h
}

// fillStale writes staleWord over [lo, hi).
func fillStale(h *heap.Heap, lo, hi rt.Addr) {
	for a := lo; a < hi; a++ {
		h.SetWord(a, staleWord(a))
	}
}

// staleWord is a never-written word's test content: nonzero and distinct per
// address, so a stray write of any value, zero included, shows.
func staleWord(a rt.Addr) uint64 { return 0x5EED_0000_0000_0000 | uint64(a) }

// sameCollection fails unless the kernel's collection (h, res) and the
// reference's (rh, rres) are indistinguishable: every heap word — to-space,
// the tail, and the forwarding pointers left in from-space — the bump
// pointers, and the Result with its log order.
func sameCollection(t *testing.T, what string, h, rh *heap.Heap, res, rres Result) {
	t.Helper()
	raw, rraw := h.Raw(), rh.Raw()
	if raw.To != rraw.To || raw.Tail != rraw.Tail {
		t.Fatalf("%s: regions differ: kernel to=%+v tail=%+v, reference to=%+v tail=%+v",
			what, raw.To, raw.Tail, rraw.To, rraw.Tail)
	}
	if !slices.Equal(raw.Words, rraw.Words) {
		for a := range raw.Words {
			if raw.Words[a] != rraw.Words[a] {
				t.Fatalf("%s: heap word @%d: kernel %#x, reference %#x", what, a, raw.Words[a], rraw.Words[a])
			}
		}
	}
	res.Duration, res.PauseCopy = 0, 0
	if len(res.Log) == 0 {
		res.Log = nil // a DSU collection that met no pair logs an empty, non-nil slice
	}
	if !reflect.DeepEqual(res, rres) {
		t.Fatalf("%s: results differ:\nkernel    %+v\nreference %+v", what, res, rres)
	}
}

// checkRuns fails unless c's run table, as the collection that just ended left
// it, covers exactly the clean objects of to-space — non-reference arrays, and
// instances (shells and to-space old copies among them) whose reference fields
// are all null, which the scan does not change — in address order, no run
// empty or overlapping the one before; and unless its dirty list is exactly the
// tail old copies that are not clean, in address (placement) order.
func checkRuns(t *testing.T, what string, c *Collector) {
	t.Helper()
	raw := c.Heap.Raw()
	var dirty []rt.Addr
	for a := raw.Tail.Lo; a < raw.Tail.Alloc; {
		cls := c.Reg.ClassByID(heap.HeaderClassID(raw.Words[a]))
		for _, off := range cls.RefOffsets {
			if raw.Words[a+off] != 0 {
				dirty = append(dirty, a)
				break
			}
		}
		a += rt.Addr(cls.Size)
	}
	if !slices.Equal(c.dirty, dirty) {
		t.Fatalf("%s: dirty list %v, want the tail old copies holding a reference %v", what, c.dirty, dirty)
	}
	for i, r := range c.runs {
		if r.lo >= r.hi || r.lo < raw.To.Lo || r.hi > raw.To.Alloc || (i > 0 && r.lo < c.runs[i-1].hi) {
			t.Fatalf("%s: run %d of %v is empty, out of order or outside to-space %+v", what, i, c.runs, raw.To)
		}
	}
	next := 0
	for a := raw.To.Lo; a < raw.To.Alloc; {
		var size rt.Addr
		var clean bool
		if hw := raw.Words[a]; hw&heap.ArrayBit != 0 {
			size, clean = rt.HeaderWords+rt.Addr(raw.Words[a+1]), hw&heap.ArrayRefBit == 0
		} else {
			cls := c.Reg.ClassByID(heap.HeaderClassID(hw))
			size, clean = rt.Addr(cls.Size), true
			for _, off := range cls.RefOffsets {
				clean = clean && raw.Words[a+off] == 0
			}
		}
		for next < len(c.runs) && c.runs[next].hi <= a {
			next++
		}
		skipped := next < len(c.runs) && c.runs[next].lo <= a
		if skipped && a+size > c.runs[next].hi {
			t.Fatalf("%s: run %+v ends inside the object @%d (%d words)", what, c.runs[next], a, size)
		}
		if skipped != clean {
			t.Fatalf("%s: object @%d (%d words): clean=%v, in a run=%v; runs %v", what, a, size, clean, skipped, c.runs)
		}
		a += size
	}
}

// buildRunGraph is the run table's own graph: one rooted reference array over
// 84 objects that a collection copies in array order, clean and non-clean ones
// alternating in stretches of period. The clean ones rotate through a Stable
// and an Up with null references, a char array and an instance of a class
// without reference fields; the others through a Stable, an Up and a reference
// array that point at their neighbours — every third also at an object of its
// own, reached only through it, which the scan (of to-space, or of a tail old
// copy once the to-space cursor has caught up) copies behind the rest. With
// overflow, the tail holds the first two old copies and the rest go to
// to-space.
func buildRunGraph(period int, overflow, moved bool) *dsuGraph {
	const n = 84
	g := newDSUGraph(moved)
	refFree := g.load(classfile.NewClass("RefFree", "").Field("a", "I").Field("b", "I"))
	h := g.h
	obj := func(cls *rt.Class, val int) rt.Addr {
		a, ok := h.AllocObject(cls)
		if !ok {
			panic("alloc failed")
		}
		h.SetFieldValue(a, dsuOffVal, rt.IntVal(int64(val)))
		return a
	}
	array := func(isRef bool, length int) rt.Addr {
		a, ok := h.AllocArray(isRef, length)
		if !ok {
			panic("array alloc failed")
		}
		return a
	}
	root := array(true, n)
	ups, stables := []rt.Addr{obj(g.upCls, -1)}, []rt.Addr{obj(g.stableCls, -2)}
	var nClean, nOther int
	for i := 0; i < n; i++ {
		var a rt.Addr
		if (i/period)%2 == 0 {
			switch nClean++; nClean % 4 {
			case 0:
				a = obj(g.stableCls, i)
				stables = append(stables, a)
			case 1:
				a = obj(g.upCls, i)
				ups = append(ups, a)
			case 2:
				a = array(false, i%5)
				for j := 0; j < i%5; j++ {
					h.SetElem(a, j, rt.IntVal(int64('a'+j)))
				}
			case 3:
				a = obj(refFree, i)
			}
		} else {
			up, stable := ups[i%len(ups)], stables[i%len(stables)]
			if i%3 == 0 {
				up, stable = obj(g.upCls, 1000+i), obj(g.stableCls, 2000+i)
				h.SetFieldValue(up, dsuOffOther, rt.RefVal(stable))
			}
			switch nOther++; nOther % 3 {
			case 0:
				a = obj(g.stableCls, i)
				h.SetFieldValue(a, dsuOffPeer, rt.RefVal(up))
				stables = append(stables, a)
			case 1:
				a = obj(g.upCls, i)
				h.SetFieldValue(a, dsuOffPeer, rt.RefVal(up))
				h.SetFieldValue(a, dsuOffOther, rt.RefVal(stable))
				ups = append(ups, a)
			case 2:
				a = array(true, 3)
				h.SetElem(a, 0, rt.RefVal(stable))
				h.SetElem(a, 2, rt.RefVal(up))
			}
		}
		h.SetElem(root, i, rt.RefVal(a))
	}
	g.roots = []rt.Value{rt.RefVal(root)}
	if overflow {
		leaveTail(h, overflowTail)
	}
	return g
}

// buildMixGraph is the plan's own graph: 300 objects in seeded order, each
// rooted or reached only through another's field. They are instances of two
// unchanged classes (Stable, Keep), of a hand-written transformer's class
// (Hand: a pair), char arrays, and of five moved classes whose new layouts
// insert a field mid-object (Grow; Up at the front), delete one (Drop),
// reorder two (Swap) and drop the last two (Trim: a shrink the block copy
// finishes, no fixup); for an odd seed also of a sixth (Wide: a field
// inserted in front of ten, more fixups than maxPad, so no list is padded).
// Sparse, seven in eight moved instances drawn become Keep ones: the
// collection's moved share stays below 1/placeShare, and its unchanged
// instances are copied, not placed. To-space is full of stale words.
func buildMixGraph(tb testing.TB, seed int64, sparse bool) *dsuGraph {
	const n = 300
	rng := rand.New(rand.NewSource(seed))
	g := newDSUGraph(true)
	class := func(name, fields string) *rt.Class {
		b := classfile.NewClass(name, "")
		for _, f := range strings.Fields(fields) {
			if f == "p" {
				b.Field(f, "LObject;")
			} else {
				b.Field(f, "I")
			}
		}
		return g.load(b)
	}
	// update gives old a new version with fields; moved, a move transformer
	// carrying every field the two share.
	update := func(old *rt.Class, fields string, moved bool) *rt.Class {
		old.UpdatedTo = class(old.Name+"V2", fields)
		if moved {
			var carried []string
			for _, f := range strings.Fields(fields) {
				if old.Field(f) != nil {
					carried = append(carried, f)
				}
			}
			old.Moves = fieldMoves(tb, old, old.UpdatedTo, carried...)
		}
		return old
	}
	classes := []*rt.Class{
		g.stableCls, g.upCls,
		class("Keep", "v p q"),
		update(class("Grow", "v p q"), "v n p q", true),
		update(class("Drop", "v x p q"), "v p q", true),
		update(class("Swap", "v p q"), "q p v", true),
		update(class("Trim", "v p q x y"), "v p q", true),
		update(class("Hand", "v p q"), "v n p q", false),
		nil, // a char array
	}
	if seed%2 == 1 {
		classes = append(classes, update(class("Wide", "v p q a b c d e f g"), "n v p q a b c d e f g", true))
	}
	kinds := make([]int, n)
	for i := range kinds {
		kinds[i] = rng.Intn(len(classes))
		if cls := classes[kinds[i]]; sparse && cls != nil && cls.Moves != nil && rng.Intn(8) > 0 {
			kinds[i] = 2
		}
	}
	// To-space holds what a real heap's does, stale words: a move must write
	// every word of its object.
	h := g.h
	junk, _ := h.AllocArray(false, h.FreeWords()-rt.HeaderWords)
	for i := range h.ArrayLen(junk) {
		h.SetElem(junk, i, rt.IntVal(-1))
	}
	h.Flip()
	addrs := make([]rt.Addr, n)
	for i, kind := range kinds {
		var a rt.Addr
		var ok bool
		if cls := classes[kind]; cls == nil {
			a, ok = h.AllocArray(false, 1+i%7)
		} else if a, ok = h.AllocObject(cls); ok {
			for _, f := range cls.Fields {
				if !f.Desc.IsRef() {
					h.SetFieldValue(a, f.Offset, rt.IntVal(rng.Int63n(1<<20)+1))
				}
			}
		}
		if !ok {
			tb.Fatal("alloc failed")
		}
		addrs[i] = a
	}
	for i, kind := range kinds {
		if cls := classes[kind]; cls != nil && rng.Intn(3) > 0 {
			if f := cls.Field("peer"); f != nil { // Up's and Stable's: an Up
				if j := rng.Intn(n); kinds[j] == 1 {
					h.SetFieldValue(addrs[i], f.Offset, rt.RefVal(addrs[j]))
				}
			} else {
				h.SetFieldValue(addrs[i], cls.Field("p").Offset, rt.RefVal(addrs[rng.Intn(n)]))
			}
		}
		if rng.Intn(3) > 0 {
			g.roots = append(g.roots, rt.RefVal(addrs[i]))
		}
	}
	return g
}

// TestKernelMatchesReferenceLoop: over the random graphs of the two property
// tests, and over the run table's graphs, with a tail that holds every old
// copy and one that overflows mid-collection, and over the plan's graphs,
// the kernel and the closure loop it replaced leave the same heap — and the
// kernel a run table that covers the clean objects and nothing else, and a
// dirty list of the tail old copies the scan has work in.
func TestKernelMatchesReferenceLoop(t *testing.T) {
	sameDSU := func(what string, d, rd *dsuGraph, dsu bool) Result {
		t.Helper()
		c := New(d.h, d.reg)
		res, err := c.Collect(d, dsu)
		rres, rerr := refCollectSerial(New(rd.h, rd.reg), rd, dsu)
		if err != nil || rerr != nil {
			t.Fatalf("%s: kernel err %v, reference err %v", what, err, rerr)
		}
		sameCollection(t, what, d.h, rd.h, res, rres)
		if !slices.Equal(d.roots, rd.roots) {
			t.Fatalf("%s: roots differ", what)
		}
		checkRuns(t, what, c)
		return res
	}
	for _, period := range []int{1, 2, 7} {
		for _, overflow := range []bool{false, true} {
			for _, dsu := range []bool{true, false} {
				for _, moved := range []bool{false, true} {
					what := fmt.Sprintf("period %d dsu=%v overflow=%v moved=%v", period, dsu, overflow, moved)
					res := sameDSU(what, buildRunGraph(period, overflow, moved), buildRunGraph(period, overflow, moved), dsu)
					// Up's old copies are 5 words: every one in the tail, or the first two.
					want := 5 * res.PairsLogged
					if overflow {
						want = min(want, 10)
					}
					if res.TailWords != want {
						t.Fatalf("%s: %d old-copy words in the tail, want %d", what, res.TailWords, want)
					}
				}
			}
		}
	}
	for seed := int64(0); seed < 10; seed++ {
		for _, sparse := range []bool{false, true} {
			what := fmt.Sprintf("mix seed %d sparse=%v", seed, sparse)
			res := sameDSU(what, buildMixGraph(t, seed, sparse), buildMixGraph(t, seed, sparse), true)
			if res.Moved == 0 || res.PairsLogged == 0 || sparse != (placeShare*res.Moved <= res.CopiedObjects) {
				t.Fatalf("%s: %d moves of %d objects and %d pairs", what, res.Moved, res.CopiedObjects, res.PairsLogged)
			}
		}
	}
	for seed := int64(0); seed < 30; seed++ {
		g, rg := buildRandomGraph(t, seed), buildRandomGraph(t, seed)
		c := New(g.w.h, g.w.reg)
		res, err := c.Collect(g.w, false)
		rres, rerr := refCollectSerial(New(rg.w.h, rg.w.reg), rg.w, false)
		if err != nil || rerr != nil {
			t.Fatalf("seed %d: kernel err %v, reference err %v", seed, err, rerr)
		}
		sameCollection(t, fmt.Sprintf("plain seed %d", seed), g.w.h, rg.w.h, res, rres)
		if !slices.Equal(g.w.roots, rg.w.roots) {
			t.Fatalf("seed %d: roots differ", seed)
		}
		checkRuns(t, fmt.Sprintf("plain seed %d", seed), c)

		for _, overflow := range []bool{false, true} {
			for _, dsu := range []bool{true, false} { // an update pending but a plain collection: no pairs
				for _, moved := range []bool{false, true} { // Up's transformer runs, or is a move
					what := fmt.Sprintf("seed %d dsu=%v overflow=%v moved=%v", seed, dsu, overflow, moved)
					res := sameDSU(what, buildDSUGraph(seed, overflow, moved), buildDSUGraph(seed, overflow, moved), dsu)
					if dsu && moved && (res.PairsLogged != 0 || res.TailWords != 0) {
						t.Fatalf("%s: a moved class made %d pairs, %d tail words", what, res.PairsLogged, res.TailWords)
					}
				}
			}
		}
	}
}

// benchShape is what the references of a benchWorld's objects hold (shape).
type benchShape int

const (
	nullRefs benchShape = iota
	linked
	chars
)

func (s benchShape) String() string { return [...]string{"clean", "linked", "chars"}[s] }

// benchWorld is the update-pause shape: n 8-word objects (3 ints, 3 null
// references) pinned by one reference array, those order picks of a class,
// Change, that an update grows by a word.
type benchWorld struct {
	reg    *rt.Registry
	h      *heap.Heap
	change *rt.Class
	root   rt.Value
	order  benchOrder
}

// benchOrder is which of a benchWorld's objects are of class Change, in
// allocation (and so copy) order. Past everySecond the update inserts its
// word mid-object, so a move shifts the fields behind it.
type benchOrder int

const (
	everySecond benchOrder = iota
	shuffled               // a seeded half: the bench of record's order
	sparse                 // a seeded twentieth: most of the heap is left alone
)

// update makes every Change instance an instance of an updated class — one
// whose transformer is a move of all six fields, if moved.
func (w *benchWorld) update(tb testing.TB, moved bool) {
	w.change.UpdatedTo = w.load(tb, "ChangeV2", true)
	if moved {
		w.change.Moves = fieldMoves(tb, w.change, w.change.UpdatedTo, "a", "b", "c", "x", "y", "z")
	}
}

func (w *benchWorld) load(tb testing.TB, name string, extra bool) *rt.Class {
	b := classfile.NewClass(name, "").Field("a", "I").Field("b", "I").Field("c", "I")
	if extra && w.order != everySecond {
		b.Field("d", "I")
	}
	b.Field("x", "LObject;").Field("y", "LObject;").Field("z", "LObject;")
	if extra && w.order == everySecond {
		b.Field("d", "I")
	}
	cls, err := w.reg.Load(b.MustBuild())
	if err != nil {
		tb.Fatal(err)
	}
	return cls
}

func (w *benchWorld) ForEachRoot(fn func(*rt.Value)) { fn(&w.root) }

func newBenchWorld(tb testing.TB, n, semi int, updated, moved bool, order benchOrder) *benchWorld {
	tb.Helper()
	w := &benchWorld{reg: rt.NewRegistry(), h: heap.New(semi), order: order}
	var unchanged *rt.Class
	w.change, unchanged = w.load(tb, "Change", false), w.load(tb, "NoChange", false)
	if updated {
		w.update(tb, moved)
	}
	arr, ok := w.h.AllocArray(true, n)
	if !ok {
		tb.Fatal("array alloc failed")
	}
	isChange := make([]bool, n)
	for i := range isChange {
		isChange[i] = i%2 == 0 && order != sparse || i%20 == 0
	}
	if order != everySecond {
		rand.New(rand.NewSource(401)).Shuffle(n, func(i, j int) { isChange[i], isChange[j] = isChange[j], isChange[i] })
	}
	for i := 0; i < n; i++ {
		cls := unchanged
		if isChange[i] {
			cls = w.change
		}
		a, ok := w.h.AllocObject(cls)
		if !ok {
			tb.Fatal("object alloc failed")
		}
		w.h.SetFieldValue(a, rt.HeaderWords, rt.IntVal(int64(i)))
		w.h.SetElem(arr, i, rt.RefVal(a))
	}
	w.root = rt.RefVal(arr)
	return w
}

// shape gives the objects' first reference field something to hold. linked:
// its successor (the last one's the array), so no object is clean and the scan
// skips nothing. chars: a 6-char array of the object's own, the string-heavy
// shape of the apps — half the live words are in non-reference arrays.
func (w *benchWorld) shape(tb testing.TB, s benchShape) *benchWorld {
	if s == nullRefs {
		return w
	}
	const x = rt.HeaderWords + 3
	arr := w.root.Ref()
	for i, n := 0, w.h.ArrayLen(arr); i < n; i++ {
		to := arr
		if s == chars {
			var ok bool
			if to, ok = w.h.AllocArray(false, 6); !ok {
				tb.Fatal("char array alloc failed")
			}
		} else if i+1 < n {
			to = w.h.Elem(arr, i+1).Ref()
		}
		w.h.SetFieldValue(w.h.Elem(arr, i).Ref(), x, rt.RefVal(to))
	}
	return w
}

// driveKernel collects the way Collect does and keeps the kernel, for
// the count of objects its scan was entered for.
func driveKernel(tb testing.TB, c *Collector, roots Roots, dsu bool) (*kernel, Result) {
	tb.Helper()
	c.Heap.Flip()
	k := c.open(dsu)
	if err := k.cheney(roots); err != nil {
		tb.Fatal(err)
	}
	var res Result
	k.commit(c.Heap, &res)
	return k, res
}

// scans collects w and returns how many objects the scan was entered for.
func (w *benchWorld) scans(tb testing.TB, dsu bool) int {
	k, _ := driveKernel(tb, New(w.h, w.reg), w, dsu)
	return k.scans
}

// TestScanSkipsCleanObjects: the cursor really steps over clean objects — on
// the update-pause shape the scan is entered for the root array and nothing
// else (shells and old copies included, in the tail or, overflowed, in
// to-space), on the linked one for every object (old copies in the tail
// through the dirty list, shells never), on the chars one for every instance
// and no char array.
func TestScanSkipsCleanObjects(t *testing.T) {
	const n = 1000
	for _, tc := range []struct {
		name       string
		shape      benchShape
		dsu, moved bool
		overflow   bool // from-space is left full: every old copy goes to to-space
		want       int
	}{
		{"plain", nullRefs, false, false, false, 1},
		{"plain-linked", linked, false, false, false, 1 + n},
		{"plain-chars", chars, false, false, false, 1 + n},
		{"dsu", nullRefs, true, false, false, 1},
		{"dsu-overflow", nullRefs, true, false, true, 1},
		{"dsu-linked", linked, true, false, false, 1 + n},
		{"dsu-moved", nullRefs, true, true, false, 1},
		{"dsu-moved-linked", linked, true, true, false, 1 + n},
	} {
		w := newBenchWorld(t, n, 4*n*8, tc.dsu, tc.moved, everySecond).shape(t, tc.shape)
		if tc.overflow {
			leaveTail(w.h, 0)
		}
		if got := w.scans(t, tc.dsu); got != tc.want {
			t.Errorf("%s: scan entered for %d objects, want %d", tc.name, got, tc.want)
		}
	}
}

// TestPassedRunIsNotExtended: a clean object evacuated at the hi of a run the
// cursor has already jumped opens a new run. A rooted Up whose old copy, in
// the tail, points at a clean Stable: the cursor jumps the shell — the whole of
// to-space — and stops at the bump pointer; the dirty loop then scans the
// old copy and copies the Stable exactly there. It is copied once and reached
// by the old copy's forwarded reference like in the reference loop, and it is
// skipped, not scanned: the scan is entered for the old copy alone.
func TestPassedRunIsNotExtended(t *testing.T) {
	build := func() *dsuGraph {
		g := newDSUGraph(false)
		up, _ := g.h.AllocObject(g.upCls)
		stable, _ := g.h.AllocObject(g.stableCls)
		g.h.SetFieldValue(stable, dsuOffVal, rt.IntVal(7))
		g.h.SetFieldValue(up, dsuOffOther, rt.RefVal(stable))
		g.roots = []rt.Value{rt.RefVal(up)}
		return g
	}
	g, rg := build(), build()
	c := New(g.h, g.reg)
	k, res := driveKernel(t, c, g, true)
	rres, err := refCollectSerial(New(rg.h, rg.reg), rg, true)
	if err != nil {
		t.Fatal(err)
	}
	sameCollection(t, "passed run", g.h, rg.h, res, rres)
	checkRuns(t, "passed run", c)
	lo := g.h.ScanStart()
	shell, stable := rt.Addr(g.newCls.Size), rt.Addr(g.stableCls.Size)
	want := []run{{lo, lo + shell}, {lo + shell, lo + shell + stable}}
	if res.CopiedObjects != 3 || k.scans != 1 || !slices.Equal(c.runs, want) {
		t.Fatalf("copied %d objects, scanned %d, runs %v; want 3, 1 and %v", res.CopiedObjects, k.scans, c.runs, want)
	}
}

// TestTailOverflowIsSticky: once an old copy has not fit the tail, every later
// one goes to to-space, even one that would fit. A 4-word tail, a rooted Up (a
// 5-word old copy) and then an instance of a smaller updated class (3 words):
// both old copies land behind their shells, as in the reference loop.
func TestTailOverflowIsSticky(t *testing.T) {
	build := func() *dsuGraph {
		g := newDSUGraph(false)
		small := g.load(classfile.NewClass("Small", "").Field("v", "I"))
		small.UpdatedTo = g.load(classfile.NewClass("SmallV2", "").Field("v", "I").Field("w", "I"))
		up, _ := g.h.AllocObject(g.upCls)
		s, _ := g.h.AllocObject(small)
		g.roots = []rt.Value{rt.RefVal(up), rt.RefVal(s)}
		leaveTail(g.h, 4)
		return g
	}
	g, rg := build(), build()
	c := New(g.h, g.reg)
	res, err := c.Collect(g, true)
	rres, rerr := refCollectSerial(New(rg.h, rg.reg), rg, true)
	if err != nil || rerr != nil {
		t.Fatalf("kernel err %v, reference err %v", err, rerr)
	}
	sameCollection(t, "sticky overflow", g.h, rg.h, res, rres)
	checkRuns(t, "sticky overflow", c)
	if res.PairsLogged != 2 || res.TailWords != 0 {
		t.Fatalf("%d pairs, %d old-copy words in the tail; want 2 and 0", res.PairsLogged, res.TailWords)
	}
}

// TestCollectExhaustion leaves the copy space one word short at each place a
// serial collection allocates. Each must end in ErrToSpaceExhausted — never a
// panic, never a write past either space — with the bump pointers inside them.
//
// The graph is a 6-word array over Change, NoChange, Change, NoChange (8 words
// each, 38 in from-space); a DSU collection copies it in that order and a
// Change costs a 9-word shell in to-space plus its 8-word old copy, in the tail
// from-space leaves (tail words, the rest of from-space a dead array) while it
// has room and behind the shell from then on. With a 9-word tail the first old
// copy fits and the second does not, so to-space fills 6, 15, 23, 32, 40, 48;
// with a tail of 7 or less neither fits: 6, 15, 23, 31, 40, 48, 56. When
// Change's transformer is a move it costs its 9 new words and nothing else: 6,
// 15, 23, 32, 40 — and with a fifth object, a Change, under a 7-word array: 7,
// 16, 24, 33, 41, 50. One row fits: a 10-word tail takes the first old copy,
// the second overflows, and the 48 words of to-space just hold the rest.
//
// Every cell runs with the objects clean and (linked: each holds a reference,
// which copies nothing more) not: a failed copy, move or pair records no run,
// whatever the failing object would have been. The char-array cell fails on an
// object that is clean whatever it holds: one Change (3, 12, 20 with its old
// copy overflowed) and its 8-word char array.
func TestCollectExhaustion(t *testing.T) {
	cases := []struct {
		name           string
		n              int
		moved          bool
		semi, tail     int
		used, tailUsed int // at the end: nothing of a failed allocation is kept
		chars, fits    bool
	}{
		{"plain copy", 4, false, 47, 9, 40, 8, false, false},
		{"shell", 4, false, 39, 1, 31, 0, false, false},
		{"old copy in to-space", 4, false, 47, 7, 31, 0, false, false}, // tail and to-space both full
		{"tail overflows", 4, false, 48, 10, 48, 8, false, true},
		{"moved copy", 5, true, 49, 2, 41, 0, false, false},
		{"plain copy after a moved one", 4, true, 39, 1, 32, 0, false, false},
		{"char array", 1, false, 27, 6, 20, 0, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			shapes := []benchShape{nullRefs, linked}
			if tc.chars {
				shapes = []benchShape{chars}
			}
			for _, shape := range shapes {
				t.Run(shape.String(), func(t *testing.T) {
					w := newBenchWorld(t, tc.n, tc.semi, true, tc.moved, everySecond).shape(t, shape)
					leaveTail(w.h, tc.tail)
					// Everything but from-space's objects: the tail to be and
					// the whole of to-space.
					fillStale(w.h, 1, w.h.ScanStart())
					fillStale(w.h, w.h.AllocPointer(), rt.Addr(1+2*w.h.SemiWords()))
					c := New(w.h, w.reg)
					_, err := c.Collect(w, true)
					if tc.fits && err != nil {
						t.Fatalf("err = %v, want the collection to fit", err)
					} else if !tc.fits && !errors.Is(err, ErrToSpaceExhausted) {
						t.Fatalf("err = %v, want ErrToSpaceExhausted", err)
					}
					raw := w.h.Raw()
					if raw.To.Alloc < raw.To.Lo || raw.To.Alloc > raw.To.Hi ||
						raw.Tail.Alloc < raw.Tail.Lo || raw.Tail.Alloc > raw.Tail.Hi {
						t.Fatalf("bump pointer left its space: to=%+v tail=%+v", raw.To, raw.Tail)
					}
					if used, tailUsed := w.h.UsedWords(), int(raw.Tail.Alloc-raw.Tail.Lo); used != tc.used || tailUsed != tc.tailUsed {
						t.Fatalf("used %d to-space / %d tail words, want %d / %d", used, tailUsed, tc.used, tc.tailUsed)
					}
					// Nothing half-written: past the bump pointers both regions
					// still hold what was filled in before the collection.
					for _, r := range []heap.Region{raw.To, raw.Tail} {
						for a := r.Alloc; a < r.Hi; a++ {
							if raw.Words[a] != staleWord(a) {
								t.Fatalf("word @%d past the bump pointer %d was written: %#x", a, r.Alloc, raw.Words[a])
							}
						}
					}
					checkRuns(t, "after the collection", c)
				})
			}
		})
	}
}

// TestCollectUnknownClassIsAnError: an object whose class id does not resolve
// is the same structural error whether the collector meets it while forwarding
// (it used to panic there, inside the pause) or while scanning.
func TestCollectUnknownClassIsAnError(t *testing.T) {
	for _, nested := range []bool{false, true} { // met from a root, or from a scanned slot
		w := newWorld(t, 4096)
		bad := w.alloc(t, 1)
		root := bad
		if nested {
			root = w.alloc(t, 2)
			w.h.SetFieldValue(root, offLeft, rt.RefVal(bad))
		}
		w.h.SetWord(bad, 9999)
		w.roots = []rt.Value{rt.RefVal(root)}
		_, err := New(w.h, w.reg).Collect(w, false)
		want := fmt.Sprintf("gc: object @%d with unknown class id 9999", bad)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("nested=%v: err = %v, want %q", nested, err, want)
		}
	}
}

// TestCollectSerialAllocs: a plain collection makes no Go allocation,
// whatever the heap holds: the Result is returned by value, the kernel is the
// collector's own with its root visitor bound once, no slot is boxed and
// nothing is queued.
func TestCollectSerialAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		w := newBenchWorld(t, n, 16*n, false, false, everySecond)
		c := New(w.h, w.reg)
		return testing.AllocsPerRun(5, func() {
			if _, err := c.Collect(w, false); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(20000)
	if small != 0 || large != 0 {
		t.Fatalf("Go allocations per plain collection: %v at 100 objects, %v at 20000; want 0", small, large)
	}
}

// TestCollectDSUAllocs: a warm DSU collection makes no Go allocation but its
// pair log — exactly one, sized from the previous DSU collection's, when its
// updated instances pair, none when they move: the plan and its fixups keep
// their capacity like the run table. Change and ChangeV2 are each other's
// update, so every collection transforms every one of their instances again;
// the heap is the bench of record's shape.
func TestCollectDSUAllocs(t *testing.T) {
	for _, moved := range []bool{false, true} {
		w := newBenchWorld(t, 2000, 64*2000, true, moved, shuffled)
		v2 := w.change.UpdatedTo
		v2.UpdatedTo, v2.Moves = w.change, nil
		if moved {
			v2.Moves = fieldMoves(t, v2, w.change, "a", "b", "c", "x", "y", "z")
		}
		c := New(w.h, w.reg)
		var res Result
		allocs := testing.AllocsPerRun(5, func() {
			var err error
			if res, err = c.Collect(w, true); err != nil {
				t.Fatal(err)
			}
		})
		want, transformed := 1.0, res.PairsLogged
		if moved {
			want, transformed = 0, res.Moved
		}
		if allocs != want || transformed != 1000 {
			t.Fatalf("moved=%v: %v Go allocations per warm DSU collection, %d instances transformed; want %v, 1000",
				moved, allocs, transformed, want)
		}
	}
}

// BenchmarkCollectSerial is the collector's own benchmark of the update-pause
// shape: 100 000 8-word objects under one reference array (900 002 live
// words), collected plain, and as a DSU collection with every second object
// updated (old copies in from-space's tail) or moved, and moved on the bench
// of record's shape (the new field inserted mid-object, Change and NoChange in
// seeded order): shuffled, the row where the class of the next object is not
// predictable, and sparse (f0.05), where it mostly is and the plan's padding
// would only cost (placeShare). plain-linked is the clean test's cost row — it fails on
// every object's first field and nothing is skipped — and plain-chars the
// apps' shape. words/s counts copied words (shells and old copies included)
// and ns/object is per live instance, both of the fastest iteration: on a
// shared host the floor is the estimate that repeats (ns/op stays the mean).
// scanned/object is how many objects the scan was entered for, per instance.
// A dsu-moved row's allocations are a fresh collector's plan growing.
func BenchmarkCollectSerial(b *testing.B) {
	const n = 100000
	for _, bc := range []struct {
		name       string
		shape      benchShape
		dsu, moved bool
		order      benchOrder
	}{
		{"plain", nullRefs, false, false, everySecond},
		{"plain-linked", linked, false, false, everySecond},
		{"plain-chars", chars, false, false, everySecond},
		{"dsu-f0.5", nullRefs, true, false, everySecond},
		{"dsu-moved-f0.5", nullRefs, true, true, everySecond},
		{"dsu-moved-f0.5-shuffled", nullRefs, true, true, shuffled},
		{"dsu-moved-f0.05-shuffled", nullRefs, true, true, sparse},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			semi := 2 * n * 8
			if bc.shape == chars {
				semi += n * 8
			}
			var words int
			floor := time.Duration(1<<63 - 1)
			for i := 0; i < b.N; i++ {
				// A DSU collection consumes its input (the survivors are of
				// the new class), so every iteration gets a fresh world; two
				// untimed plain collections fault both semispaces in first.
				b.StopTimer()
				w := newBenchWorld(b, n, semi, false, false, bc.order).shape(b, bc.shape)
				c := New(w.h, w.reg)
				for range 2 {
					if _, err := c.Collect(w, false); err != nil {
						b.Fatal(err)
					}
				}
				if bc.dsu {
					w.update(b, bc.moved)
				}
				b.StartTimer()
				res, err := c.Collect(w, bc.dsu)
				if err != nil {
					b.Fatal(err)
				}
				words, floor = res.CopiedWords, min(floor, res.Duration)
			}
			b.ReportMetric(float64(words)/floor.Seconds(), "words/s")
			b.ReportMetric(float64(floor.Nanoseconds())/n, "ns/object")
			b.StopTimer()
			w := newBenchWorld(b, n, semi, bc.dsu, bc.moved, bc.order).shape(b, bc.shape)
			b.ReportMetric(float64(w.scans(b, bc.dsu))/n, "scanned/object")
		})
	}
}
