package heap_test

import (
	"testing"

	"govolve/internal/classfile"
	"govolve/internal/gc"
	"govolve/internal/heap"
	"govolve/internal/rt"
)

type rootSet []rt.Value

func (r rootSet) ForEachRoot(fn func(*rt.Value)) {
	for i := range r {
		fn(&r[i])
	}
}

// TestCollectionLeavesUnallocatedWords: on a poisoned heap a collection
// writes nothing past either bump pointer — [alloc, limit) of to-space and of
// the tail still hold the stale words after a plain and a DSU collection,
// old copies in the tail included.
func TestCollectionLeavesUnallocatedWords(t *testing.T) {
	for _, dsu := range []bool{false, true} {
		reg := rt.NewRegistry()
		load := func(b *classfile.ClassBuilder) *rt.Class {
			cls, err := reg.Load(b.MustBuild())
			if err != nil {
				t.Fatal(err)
			}
			return cls
		}
		node := load(classfile.NewClass("Node", "").Field("v", "I").Field("next", "LNode;"))
		if dsu {
			node.UpdatedTo = load(classfile.NewClass("NodeV2", "").Field("v", "I").Field("w", "I").Field("next", "LNodeV2;"))
		}
		h := heap.Poisoned(1 << 10)
		prev := rt.Addr(0)
		for i := 0; i < 20; i++ {
			a, _ := h.AllocObject(node)
			h.SetFieldValue(a, rt.HeaderWords+1, rt.RefVal(prev))
			if _, ok := h.AllocArray(false, i); !ok { // garbage between the nodes
				t.Fatal("alloc failed")
			}
			prev = a
		}
		s, _ := h.AllocChars(load(classfile.NewClass("String", "")), 3)
		for i := 0; i < 3; i++ {
			h.SetElem(s, i, rt.IntVal(int64('a'+i)))
		}
		res, err := gc.New(h, reg).Collect(rootSet{rt.RefVal(prev), rt.RefVal(s)}, dsu)
		if err != nil {
			t.Fatal(err)
		}
		if dsu != (res.TailWords > 0) {
			t.Fatalf("dsu=%v: %d old-copy words in the tail", dsu, res.TailWords)
		}
		raw := h.Raw()
		for _, r := range []heap.Region{raw.To, raw.Tail} {
			for a := r.Alloc; a < r.Hi; a++ {
				if raw.Words[a] != heap.StaleWord(a) {
					t.Fatalf("dsu=%v: word @%d past the bump pointer %d was written: %#x", dsu, a, r.Alloc, raw.Words[a])
				}
			}
		}
	}
}
