package gc

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"govolve/internal/classfile"
	"govolve/internal/heap"
	"govolve/internal/rt"
)

// node is a 2-ref, 1-int class used to build arbitrary object graphs.
func nodeClass(t testing.TB, reg *rt.Registry, name string) *rt.Class {
	t.Helper()
	def, err := classfile.NewClass(name, "").
		Field("val", "I").
		Field("left", classfile.RefOf(name)).
		Field("right", classfile.RefOf(name)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	cls, err := reg.Load(def)
	if err != nil {
		t.Fatal(err)
	}
	return cls
}

const (
	offVal   = rt.HeaderWords + 0
	offLeft  = rt.HeaderWords + 1
	offRight = rt.HeaderWords + 2
)

type world struct {
	reg   *rt.Registry
	h     *heap.Heap
	cls   *rt.Class
	leaf  *rt.Class // buildWorld's second class (nil elsewhere); its update is a move
	roots []rt.Value
}

// fieldMoves is the move transformer that carries the named fields of old
// into new's fields of the same names, in that order, adjacent runs coalesced
// — what core resolves from a transformer body upt proved a pure field copy.
func fieldMoves(t testing.TB, old, new *rt.Class, names ...string) []rt.Move {
	t.Helper()
	moves := []rt.Move{}
	for _, name := range names {
		of, nf := old.Field(name), new.Field(name)
		if of == nil || nf == nil {
			t.Fatalf("fieldMoves: no field %s in %s/%s", name, old.Name, new.Name)
		}
		from, to := rt.Addr(of.Offset), rt.Addr(nf.Offset)
		if k := len(moves) - 1; k >= 0 && moves[k].From+moves[k].N == from && moves[k].To+moves[k].N == to {
			moves[k].N++
			continue
		}
		moves = append(moves, rt.Move{From: from, To: to, N: 1})
	}
	return moves
}

func newWorld(t testing.TB, semi int) *world {
	reg := rt.NewRegistry()
	return &world{reg: reg, h: staleHeap(semi), cls: nodeClass(t, reg, "Node")}
}

func (w *world) ForEachRoot(fn func(*rt.Value)) {
	for i := range w.roots {
		if w.roots[i].IsRef {
			fn(&w.roots[i])
		}
	}
}

func (w *world) alloc(t testing.TB, val int64) rt.Addr {
	a, ok := w.h.AllocObject(w.cls)
	if !ok {
		t.Fatal("alloc failed")
	}
	w.h.SetFieldValue(a, offVal, rt.IntVal(val))
	return a
}

func TestCollectPreservesReachableGraph(t *testing.T) {
	w := newWorld(t, 4096)
	// Build: root -> a -> b -> a (cycle), root2 -> c; d is garbage.
	a := w.alloc(t, 1)
	b := w.alloc(t, 2)
	c := w.alloc(t, 3)
	_ = w.alloc(t, 99) // garbage
	w.h.SetFieldValue(a, offLeft, rt.RefVal(b))
	w.h.SetFieldValue(b, offLeft, rt.RefVal(a))
	w.roots = []rt.Value{rt.RefVal(a), rt.RefVal(c)}

	col := New(w.h, w.reg)
	res, err := col.Collect(w, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.CopiedObjects != 3 {
		t.Fatalf("copied %d objects, want 3 (garbage must not survive)", res.CopiedObjects)
	}
	na := w.roots[0].Ref()
	nc := w.roots[1].Ref()
	if w.h.FieldValue(na, offVal, false).Int() != 1 ||
		w.h.FieldValue(nc, offVal, false).Int() != 3 {
		t.Fatal("values lost in copy")
	}
	nb := w.h.FieldValue(na, offLeft, true).Ref()
	if w.h.FieldValue(nb, offVal, false).Int() != 2 {
		t.Fatal("edge a->b broken")
	}
	// Cycle: b.left must point back to the *new* a.
	if w.h.FieldValue(nb, offLeft, true).Ref() != na {
		t.Fatal("cycle not preserved / sharing broken")
	}
}

func TestCollectPreservesSharing(t *testing.T) {
	w := newWorld(t, 4096)
	shared := w.alloc(t, 7)
	p := w.alloc(t, 1)
	q := w.alloc(t, 2)
	w.h.SetFieldValue(p, offLeft, rt.RefVal(shared))
	w.h.SetFieldValue(q, offLeft, rt.RefVal(shared))
	w.roots = []rt.Value{rt.RefVal(p), rt.RefVal(q)}
	col := New(w.h, w.reg)
	if _, err := col.Collect(w, false); err != nil {
		t.Fatal(err)
	}
	np, nq := w.roots[0].Ref(), w.roots[1].Ref()
	if w.h.FieldValue(np, offLeft, true).Ref() != w.h.FieldValue(nq, offLeft, true).Ref() {
		t.Fatal("shared object duplicated")
	}
}

func TestCollectArrays(t *testing.T) {
	w := newWorld(t, 4096)
	a := w.alloc(t, 5)
	arr, ok := w.h.AllocArray(true, 3)
	if !ok {
		t.Fatal("array alloc")
	}
	w.h.SetElem(arr, 0, rt.RefVal(a))
	w.h.SetElem(arr, 2, rt.RefVal(arr)) // self-reference
	iarr, _ := w.h.AllocArray(false, 4)
	w.h.SetElem(iarr, 1, rt.IntVal(42))
	w.roots = []rt.Value{rt.RefVal(arr), rt.RefVal(iarr)}
	col := New(w.h, w.reg)
	if _, err := col.Collect(w, false); err != nil {
		t.Fatal(err)
	}
	narr, niarr := w.roots[0].Ref(), w.roots[1].Ref()
	if w.h.ArrayLen(narr) != 3 || !w.h.ArrayElemIsRef(narr) {
		t.Fatal("array header lost")
	}
	na := w.h.Elem(narr, 0).Ref()
	if w.h.FieldValue(na, offVal, false).Int() != 5 {
		t.Fatal("array element edge broken")
	}
	if w.h.Elem(narr, 2).Ref() != narr {
		t.Fatal("self reference broken")
	}
	if w.h.Elem(niarr, 1).Int() != 42 {
		t.Fatal("int array contents lost")
	}
}

func TestDSUCollectTransformsPairs(t *testing.T) {
	reg := rt.NewRegistry()
	h := heap.New(8192)
	oldCls := nodeClass(t, reg, "Node")
	// New version: one extra int field.
	newDef, err := classfile.NewClass("NodeV2", "").
		Field("val", "I").
		Field("left", "LNodeV2;").
		Field("right", "LNodeV2;").
		Field("extra", "I").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	newCls, err := reg.Load(newDef)
	if err != nil {
		t.Fatal(err)
	}
	oldCls.UpdatedTo = newCls

	w := &world{reg: reg, h: h, cls: oldCls}
	a := w.alloc(t, 10)
	b := w.alloc(t, 20)
	w.h.SetFieldValue(a, offLeft, rt.RefVal(b))
	w.roots = []rt.Value{rt.RefVal(a)}

	col := New(h, reg)
	res, err := col.Collect(w, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Log) != 2 {
		t.Fatalf("update log has %d pairs, want 2", len(res.Log))
	}
	// Roots point at new shells with the new class and zeroed fields.
	na := w.roots[0].Ref()
	if h.ClassID(na) != newCls.ID {
		t.Fatalf("root class id = %d, want new class", h.ClassID(na))
	}
	if h.FieldValue(na, offVal, false).Int() != 0 {
		t.Fatal("shell not zeroed")
	}
	// Each pair: old copy keeps old class id, values, and *forwarded*
	// references (old copies are scanned).
	for _, pair := range res.Log {
		if h.ClassID(pair.OldCopy) != oldCls.ID {
			t.Fatal("old copy lost its class")
		}
		if h.ClassID(pair.New) != newCls.ID {
			t.Fatal("new shell has wrong class")
		}
	}
	checkPairWords(t, h, res.Log)
	// Old copy of a: val=10, left points to b's NEW shell.
	oldA := rt.Addr(h.PairWord(na))
	if h.FieldValue(oldA, offVal, false).Int() != 10 {
		t.Fatal("old copy lost field value")
	}
	left := h.FieldValue(oldA, offLeft, true).Ref()
	if h.ClassID(left) != newCls.ID {
		t.Fatal("old copy's reference was not forwarded to the transformed object")
	}
}

func TestDSUCollectLeavesOtherClassesAlone(t *testing.T) {
	reg := rt.NewRegistry()
	h := heap.New(4096)
	cls := nodeClass(t, reg, "Stable")
	w := &world{reg: reg, h: h, cls: cls}
	a := w.alloc(t, 1)
	w.roots = []rt.Value{rt.RefVal(a)}
	res, err := New(h, reg).Collect(w, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Log) != 0 {
		t.Fatal("unchanged class landed in update log")
	}
	if h.ClassID(w.roots[0].Ref()) != cls.ID {
		t.Fatal("class id changed")
	}
}

func TestCollectToSpaceExhaustion(t *testing.T) {
	w := newWorld(t, 64)
	var prev rt.Addr
	for i := 0; i < 10; i++ {
		a, ok := w.h.AllocObject(w.cls)
		if !ok {
			break
		}
		w.h.SetFieldValue(a, offLeft, rt.RefVal(prev))
		prev = a
	}
	w.roots = []rt.Value{rt.RefVal(prev)}
	// Keep everything alive and also pretend there is more: to-space has
	// the same size, so copying all live objects plus DSU duplicates can
	// overflow. Force it by collecting with dsu while every object is
	// "updated" to a same-shape class.
	newDef, _ := classfile.NewClass("Node2", "").
		Field("val", "I").Field("left", "LNode2;").Field("right", "LNode2;").
		Build()
	newCls, err := w.reg.Load(newDef)
	if err != nil {
		t.Fatal(err)
	}
	w.cls.UpdatedTo = newCls
	_, err = New(w.h, w.reg).Collect(w, true)
	if err == nil {
		t.Fatal("expected to-space exhaustion error")
	}
}

// TestSerialCollectTypedOOM pins the typed error: a DSU collection that cannot
// fit old copy + shell fails with ErrToSpaceExhausted.
func TestSerialCollectTypedOOM(t *testing.T) {
	w := newWorld(t, 64)
	var prev rt.Addr
	for {
		a, ok := w.h.AllocObject(w.cls)
		if !ok {
			break
		}
		w.h.SetFieldValue(a, offLeft, rt.RefVal(prev))
		prev = a
	}
	w.roots = []rt.Value{rt.RefVal(prev)}
	newDef, _ := classfile.NewClass("Node2", "").
		Field("val", "I").Field("left", "LNode2;").Field("right", "LNode2;").
		Build()
	newCls, err := w.reg.Load(newDef)
	if err != nil {
		t.Fatal(err)
	}
	w.cls.UpdatedTo = newCls
	_, err = New(w.h, w.reg).Collect(w, true)
	if !errors.Is(err, ErrToSpaceExhausted) {
		t.Fatalf("serial DSU OOM %v is not ErrToSpaceExhausted", err)
	}
}

// randomGraph is one seeded object graph over the Node class with the model
// the property tests check a collection against.
type randomGraph struct {
	w         *world
	vals      []int64
	edges     []graphEdge
	idxOfRoot []int        // model index of each root, in w.roots order
	reach     map[int]bool // model indices reachable from the roots
}

type graphEdge struct{ from, slot, to int }

func buildRandomGraph(t testing.TB, seed int64) *randomGraph {
	rng := rand.New(rand.NewSource(seed))
	g := &randomGraph{w: newWorld(t, 1<<14), reach: map[int]bool{}}
	w := g.w
	n := rng.Intn(60) + 2
	addrs := make([]rt.Addr, n)
	g.vals = make([]int64, n)
	for i := range addrs {
		g.vals[i] = rng.Int63n(1 << 30)
		addrs[i] = w.alloc(t, g.vals[i])
	}
	for i := range addrs {
		if rng.Intn(2) == 0 {
			to := rng.Intn(n)
			w.h.SetFieldValue(addrs[i], offLeft, rt.RefVal(addrs[to]))
			g.edges = append(g.edges, graphEdge{i, offLeft, to})
		}
		if rng.Intn(2) == 0 {
			to := rng.Intn(n)
			w.h.SetFieldValue(addrs[i], offRight, rt.RefVal(addrs[to]))
			g.edges = append(g.edges, graphEdge{i, offRight, to})
		}
	}
	// Roots: a random subset.
	rootIdx := map[int]bool{}
	for i := range addrs {
		if rng.Intn(3) == 0 {
			rootIdx[i] = true
		}
	}
	rootIdx[0] = true
	for i := range addrs {
		if rootIdx[i] {
			w.roots = append(w.roots, rt.RefVal(addrs[i]))
			g.idxOfRoot = append(g.idxOfRoot, i)
		}
	}
	// Expected reachable set.
	var mark func(int)
	mark = func(i int) {
		if g.reach[i] {
			return
		}
		g.reach[i] = true
		for _, e := range g.edges {
			if e.from == i {
				mark(e.to)
			}
		}
	}
	for i := range rootIdx {
		mark(i)
	}
	return g
}

// Property test: random object graphs survive collection with isomorphic
// structure and identical values, and garbage never survives.
func TestCollectRandomGraphsProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := buildRandomGraph(t, seed)
		w, vals, edges := g.w, g.vals, g.edges

		res, err := New(w.h, w.reg).Collect(w, false)
		if err != nil {
			return false
		}
		if res.CopiedObjects != len(g.reach) {
			return false
		}
		// Walk the new graph from each root and compare values via BFS
		// with the old index structure.
		newOf := map[int]rt.Addr{}
		var walk func(i int, a rt.Addr) bool
		walk = func(i int, a rt.Addr) bool {
			if prev, ok := newOf[i]; ok {
				return prev == a // sharing preserved
			}
			newOf[i] = a
			if w.h.FieldValue(a, offVal, false).Int() != vals[i] {
				return false
			}
			for _, e := range edges {
				if e.from != i {
					continue
				}
				na := w.h.FieldValue(a, e.slot, true).Ref()
				if na == rt.Null {
					return false
				}
				if !walk(e.to, na) {
					return false
				}
			}
			return true
		}
		for k, i := range g.idxOfRoot {
			if !walk(i, w.roots[k].Ref()) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
