package gc

import (
	"math/rand"
	"testing"

	"govolve/internal/classfile"
	"govolve/internal/heap"
	"govolve/internal/rt"
)

// The worlds the equivalence suite (reloc_test.go) collects two ways and
// compares: a seeded random object graph, its DSU variant, and the
// lockstep isomorphism check.

// buildWorld deterministically builds a random object graph from seed:
// Node instances (2 refs + 1 int), arrays of both kinds, shared structure
// and cycles, plus unreachable garbage, and a rooted array of Leaf instances
// (1 int + 2 refs: a Node and another Leaf) — the class whose update
// addUpdatedTo makes a move. Two calls with the same seed
// produce word-for-word identical heaps, so one can be collected by the
// stop-the-world collector and the other by the pipeline under test and the
// results compared.
func buildWorld(t testing.TB, seed int64, semi int) *world {
	rng := rand.New(rand.NewSource(seed))
	reg := rt.NewRegistry()
	w := &world{reg: reg, h: heap.New(semi), cls: nodeClass(t, reg, "Node")}

	n := 40 + rng.Intn(120)
	addrs := make([]rt.Addr, n)
	for i := range addrs {
		addrs[i] = w.alloc(t, rng.Int63n(1<<30))
	}
	// Random edges (cycles and sharing included).
	for i := range addrs {
		if rng.Intn(2) == 0 {
			w.h.SetFieldValue(addrs[i], offLeft, rt.RefVal(addrs[rng.Intn(n)]))
		}
		if rng.Intn(2) == 0 {
			w.h.SetFieldValue(addrs[i], offRight, rt.RefVal(addrs[rng.Intn(n)]))
		}
	}
	// A few arrays referencing nodes, and an int array.
	for k := 0; k < 3; k++ {
		arr, ok := w.h.AllocArray(true, 2+rng.Intn(6))
		if !ok {
			t.Fatal("array alloc")
		}
		for i := 0; i < w.h.ArrayLen(arr); i++ {
			if rng.Intn(3) != 0 {
				w.h.SetElem(arr, i, rt.RefVal(addrs[rng.Intn(n)]))
			}
		}
		w.roots = append(w.roots, rt.RefVal(arr))
	}
	iarr, ok := w.h.AllocArray(false, 5)
	if !ok {
		t.Fatal("int array alloc")
	}
	for i := 0; i < 5; i++ {
		w.h.SetElem(iarr, i, rt.IntVal(rng.Int63n(1<<20)))
	}
	w.roots = append(w.roots, rt.RefVal(iarr))
	// Garbage: allocated, never rooted.
	for k := 0; k < 10; k++ {
		w.alloc(t, 999)
	}
	// Root a random subset of nodes.
	for i := range addrs {
		if rng.Intn(3) == 0 {
			w.roots = append(w.roots, rt.RefVal(addrs[i]))
		}
	}
	w.roots = append(w.roots, rt.RefVal(addrs[0]))
	// Leaves, pinned by one array; some never linked in (garbage).
	w.leaf = leafClass(t, reg)
	leaves := make([]rt.Addr, 6+rng.Intn(20))
	larr, ok := w.h.AllocArray(true, len(leaves))
	if !ok {
		t.Fatal("leaf array alloc")
	}
	for i := range leaves {
		a, ok := w.h.AllocObject(w.leaf)
		if !ok {
			t.Fatal("leaf alloc")
		}
		leaves[i] = a
		w.h.SetFieldValue(a, leafOffTag, rt.IntVal(rng.Int63n(1<<30)))
		if rng.Intn(3) != 0 {
			w.h.SetFieldValue(a, leafOffNode, rt.RefVal(addrs[rng.Intn(n)]))
		}
		if rng.Intn(2) == 0 {
			w.h.SetFieldValue(a, leafOffTwin, rt.RefVal(leaves[rng.Intn(i+1)]))
		}
		if rng.Intn(4) != 0 {
			w.h.SetElem(larr, i, rt.RefVal(a))
		}
	}
	w.roots = append(w.roots, rt.RefVal(larr))
	return w
}

// leafClass loads Leaf: tag I, node LNode;, twin LLeaf;.
func leafClass(t testing.TB, reg *rt.Registry) *rt.Class {
	t.Helper()
	def, err := classfile.NewClass("Leaf", "").
		Field("tag", "I").Field("node", "LNode;").Field("twin", "LLeaf;").Build()
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
	leafOffTag  = rt.HeaderWords + 0
	leafOffNode = rt.HeaderWords + 1
	leafOffTwin = rt.HeaderWords + 2
)

// addUpdatedTo marks the Node class as updated to a wider NodeV2 in w's
// registry, mirroring what the DSU engine's install phase does: Node's
// transformer has to run (pairs), and Leaf's — where the world has leaves — is
// a move into LeafV2's reordered, wider layout, so the collector under test
// writes those instances itself.
func addUpdatedTo(t testing.TB, w *world) *rt.Class {
	if w.leaf != nil {
		leafDef, err := classfile.NewClass("LeafV2", "").
			Field("twin", "LLeafV2;").Field("pad", "I").
			Field("tag", "I").Field("node", "LNodeV2;").Build()
		if err != nil {
			t.Fatal(err)
		}
		newLeaf, err := w.reg.Load(leafDef)
		if err != nil {
			t.Fatal(err)
		}
		w.leaf.UpdatedTo = newLeaf
		w.leaf.Moves = fieldMoves(t, w.leaf, newLeaf, "tag", "node", "twin")
	}
	newDef, err := classfile.NewClass("NodeV2", "").
		Field("val", "I").
		Field("left", "LNodeV2;").
		Field("right", "LNodeV2;").
		Field("extra", "I").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	newCls, err := w.reg.Load(newDef)
	if err != nil {
		t.Fatal(err)
	}
	w.cls.UpdatedTo = newCls
	return newCls
}

// isoCheck walks the two post-collection heaps in lockstep from paired
// roots, requiring a graph isomorphism: same kinds, same class IDs, same
// non-reference words, same null-ness, and a bijective address pairing
// (sharing preserved both ways). With dsu set it additionally pairs each
// reachable new object's old copy through the pointer cached in the shell
// (the pair word), which must agree with the side's update log: set on
// exactly the logged shells, to exactly the logged old copy.
func isoCheck(t *testing.T, wa, wb *world, ra, rb Result, dsu bool) {
	t.Helper()
	logA, logB := pairMap(ra.Log), pairMap(rb.Log)
	aToB := make(map[rt.Addr]rt.Addr)
	bToA := make(map[rt.Addr]rt.Addr)
	var compare func(a, b rt.Addr)
	compare = func(a, b rt.Addr) {
		if (a == rt.Null) != (b == rt.Null) {
			t.Fatalf("null-ness mismatch: @%d vs @%d", a, b)
		}
		if a == rt.Null {
			return
		}
		if prev, ok := aToB[a]; ok {
			if prev != b {
				t.Fatalf("sharing broken: @%d maps to @%d and @%d", a, prev, b)
			}
			return
		}
		if prev, ok := bToA[b]; ok {
			t.Fatalf("sharing broken: @%d already paired with @%d", b, prev)
		}
		aToB[a], bToA[b] = b, a
		ha, hb := wa.h, wb.h
		if ha.IsArray(a) != hb.IsArray(b) {
			t.Fatalf("kind mismatch @%d/@%d", a, b)
		}
		if ha.IsArray(a) {
			if ha.ArrayLen(a) != hb.ArrayLen(b) || ha.ArrayElemIsRef(a) != hb.ArrayElemIsRef(b) {
				t.Fatalf("array shape mismatch @%d/@%d", a, b)
			}
			for i := 0; i < ha.ArrayLen(a); i++ {
				va, vb := ha.Elem(a, i), hb.Elem(b, i)
				if ha.ArrayElemIsRef(a) {
					compare(va.Ref(), vb.Ref())
				} else if va.Bits != vb.Bits {
					t.Fatalf("int array divergence @%d[%d]", a, i)
				}
			}
			return
		}
		if ha.ClassID(a) != hb.ClassID(b) {
			t.Fatalf("class mismatch @%d(%d) vs @%d(%d)", a, ha.ClassID(a), b, hb.ClassID(b))
		}
		cls := wa.reg.ClassByID(ha.ClassID(a))
		if cls == nil {
			t.Fatalf("unknown class id %d", ha.ClassID(a))
		}
		for i, isRef := range cls.RefMap {
			va := ha.FieldValue(a, rt.HeaderWords+i, isRef)
			vb := hb.FieldValue(b, rt.HeaderWords+i, isRef)
			if isRef {
				compare(va.Ref(), vb.Ref())
			} else if va.Bits != vb.Bits {
				t.Fatalf("field divergence %s@%d slot %d: %d vs %d", cls.Name, a, i, va.Bits, vb.Bits)
			}
		}
		if dsu {
			oa, ob := ha.PairWord(a), hb.PairWord(b)
			if oa != uint64(logA[a]) || ob != uint64(logB[b]) {
				t.Fatalf("pair word disagrees with the log: @%d holds %d (log %d), @%d holds %d (log %d)",
					a, oa, logA[a], b, ob, logB[b])
			}
			if (oa != 0) != (ob != 0) {
				t.Fatalf("pair-ness mismatch @%d/@%d", a, b)
			}
			if oa != 0 {
				compare(rt.Addr(oa), rt.Addr(ob))
			}
		}
	}
	if len(wa.roots) != len(wb.roots) {
		t.Fatalf("root count mismatch %d vs %d", len(wa.roots), len(wb.roots))
	}
	for i := range wa.roots {
		compare(wa.roots[i].Ref(), wb.roots[i].Ref())
	}
}

// pairMap indexes an update log by shell address.
func pairMap(log []Pair) map[rt.Addr]rt.Addr {
	m := make(map[rt.Addr]rt.Addr, len(log))
	for _, p := range log {
		m[p.New] = p.OldCopy
	}
	return m
}

// checkPairWords requires every logged shell to cache exactly its old copy's
// address in its pair word (paper §3.4).
func checkPairWords(t *testing.T, h *heap.Heap, log []Pair) {
	t.Helper()
	for _, p := range log {
		if got := h.PairWord(p.New); got != uint64(p.OldCopy) {
			t.Fatalf("shell @%d: pair word %d, log says old copy @%d", p.New, got, p.OldCopy)
		}
	}
}
