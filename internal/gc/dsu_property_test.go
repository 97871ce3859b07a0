package gc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"govolve/internal/classfile"
	"govolve/internal/heap"
	"govolve/internal/rt"
)

// dsuGraph is one seeded object graph mixing an updated class and a stable
// one, with the model TestDSUCollectRandomGraphsProperty checks against.
type dsuGraph struct {
	reg                      *rt.Registry
	h                        *heap.Heap
	upCls, stableCls, newCls *rt.Class
	isUp                     []bool
	vals                     []int64
	peer, other              []int // model index of the referent, -1 = null
	roots                    []rt.Value
	rootIdx                  []int
}

const (
	dsuOffVal   = rt.HeaderWords // Up.val / Stable.val
	dsuOffPeer  = rt.HeaderWords + 1
	dsuOffOther = rt.HeaderWords + 2
)

func (g *dsuGraph) ForEachRoot(fn func(*rt.Value)) {
	for i := range g.roots {
		fn(&g.roots[i])
	}
}

// newDSUGraph is the empty world of the DSU graphs: Up, updated to the wider
// UpV2, and Stable. moved makes Up's transformer a move of its three fields.
func newDSUGraph(moved bool) *dsuGraph {
	g := &dsuGraph{reg: rt.NewRegistry(), h: heap.New(1 << 15)}
	g.upCls = g.load(classfile.NewClass("Up", "").
		Field("val", "I").
		Field("peer", "LUp;").
		Field("other", "LStable;"))
	g.stableCls = g.load(classfile.NewClass("Stable", "").
		Field("val", "I").
		Field("peer", "LUp;"))
	g.newCls = g.load(classfile.NewClass("UpV2", "").
		Field("added", "I").
		Field("val", "I").
		Field("peer", "LUpV2;").
		Field("other", "LStable;"))
	g.upCls.UpdatedTo = g.newCls
	if moved {
		g.upCls.Moves = []rt.Move{{From: dsuOffVal, To: dsuOffVal + 1, N: 3}}
	}
	return g
}

func (g *dsuGraph) load(b *classfile.ClassBuilder) *rt.Class {
	cls, err := g.reg.Load(b.MustBuild())
	if err != nil {
		panic(err)
	}
	return cls
}

// overflowTail is the tail the graphs leave when old copies are to overflow:
// two of Up's 5-word old copies fit, the third goes to to-space.
const overflowTail = 12

// leaveTail fills h's current space with one dead int array so that exactly
// words stay free: the tail the next flip leaves for DSU old copies.
func leaveTail(h *heap.Heap, words int) {
	n := h.FreeWords() - words
	if n == 0 {
		return
	}
	if n < rt.HeaderWords {
		panic("leaveTail: the gap is smaller than an array")
	}
	if _, ok := h.AllocArray(false, n-rt.HeaderWords); !ok {
		panic("leaveTail: alloc failed")
	}
}

// buildDSUGraph builds the graph for a seed, with old copies going to
// from-space's tail (§3.5), overflowing into to-space once the tail is full
// (overflow: it holds two), or with no old copies at all (moved).
func buildDSUGraph(seed int64, overflow, moved bool) *dsuGraph {
	rng := rand.New(rand.NewSource(seed))
	g := newDSUGraph(moved)
	h := g.h

	n := rng.Intn(40) + 2
	addrs := make([]rt.Addr, n)
	g.isUp = make([]bool, n)
	g.vals = make([]int64, n)
	for i := range addrs {
		g.isUp[i] = rng.Intn(2) == 0
		cls := g.stableCls
		if g.isUp[i] {
			cls = g.upCls
		}
		a, ok := h.AllocObject(cls)
		if !ok {
			panic("alloc failed")
		}
		g.vals[i] = rng.Int63n(1 << 20)
		h.SetFieldValue(a, dsuOffVal, rt.IntVal(g.vals[i]))
		addrs[i] = a
	}
	g.peer = make([]int, n)
	g.other = make([]int, n)
	for i := range addrs {
		g.peer[i] = -1
		g.other[i] = -1
		// peer must point at an Up object, other at a Stable one
		// (type-correct graphs only).
		if rng.Intn(3) > 0 {
			j := rng.Intn(n)
			if g.isUp[j] {
				g.peer[i] = j
				h.SetFieldValue(addrs[i], dsuOffPeer, rt.RefVal(addrs[j]))
			}
		}
		if g.isUp[i] && rng.Intn(3) > 0 {
			j := rng.Intn(n)
			if !g.isUp[j] {
				g.other[i] = j
				h.SetFieldValue(addrs[i], dsuOffOther, rt.RefVal(addrs[j]))
			}
		}
	}

	// Roots: a random non-empty subset.
	for i := range addrs {
		if i == 0 || rng.Intn(3) == 0 {
			g.roots = append(g.roots, rt.RefVal(addrs[i]))
			g.rootIdx = append(g.rootIdx, i)
		}
	}
	if overflow {
		leaveTail(h, overflowTail)
	}
	return g
}

// TestDSUCollectRandomGraphsProperty: random object graphs mixing an
// updated class and a stable class. After a DSU collection:
//
//   - every reachable updated-class object has exactly one log pair;
//   - every shell carries the new class with zeroed fields;
//   - every old copy preserves the original's values, with its references
//     forwarded into to-space;
//   - stable objects are copied normally with values intact;
//   - sharing is preserved (two paths to one object reach one copy).
//
// When the updated class's transformer is a move there is no pair: the one
// copy has the new class, the added field zero, the value carried and the
// references carried and forwarded, and its pair word is 0.
func TestDSUCollectRandomGraphsProperty(t *testing.T) {
	f := func(seed int64, moved bool) bool {
		// Alternate between a tail that holds every old copy and one that
		// overflows into to-space; the invariants are identical.
		g := buildDSUGraph(seed, seed%2 != 0, moved)
		h, reg, upCls, stableCls, newCls := g.h, g.reg, g.upCls, g.stableCls, g.newCls
		isUp, vals, peer, other, roots, rootIdx := g.isUp, g.vals, g.peer, g.other, g.roots, g.rootIdx
		const offVal, offPeer, offOther = dsuOffVal, dsuOffPeer, dsuOffOther

		col := New(h, reg)
		res, err := col.Collect(g, true)
		if err != nil {
			return false
		}

		// Reachability in the model.
		reach := map[int]bool{}
		var mark func(int)
		mark = func(i int) {
			if reach[i] {
				return
			}
			reach[i] = true
			if peer[i] >= 0 {
				mark(peer[i])
			}
			if other[i] >= 0 {
				mark(other[i])
			}
		}
		for _, i := range rootIdx {
			mark(i)
		}
		wantPairs := 0
		for i := range reach {
			if isUp[i] {
				wantPairs++
			}
		}
		wantMoved := 0
		if moved {
			wantPairs, wantMoved = 0, wantPairs
		}
		if len(res.Log) != wantPairs || res.Moved != wantMoved {
			t.Logf("seed %d: %d pairs and %d moved, want %d and %d", seed, len(res.Log), res.Moved, wantPairs, wantMoved)
			return false
		}

		// Walk the new graph checking all invariants.
		newOf := map[int]rt.Addr{}
		var walk func(i int, a rt.Addr) bool
		walk = func(i int, a rt.Addr) bool {
			if prev, ok := newOf[i]; ok {
				return prev == a
			}
			newOf[i] = a
			if isUp[i] {
				if h.ClassID(a) != newCls.ID {
					return false
				}
				if moved {
					// UpV2 is (added, val, peer, other): Up's fields one word up.
					if h.PairWord(a) != 0 || h.FieldValue(a, offVal, false).Int() != 0 ||
						h.FieldValue(a, offVal+1, false).Int() != vals[i] {
						return false
					}
					if peer[i] >= 0 && !walk(peer[i], h.FieldValue(a, offPeer+1, true).Ref()) {
						return false
					}
					if other[i] >= 0 && !walk(other[i], h.FieldValue(a, offOther+1, true).Ref()) {
						return false
					}
					return (peer[i] >= 0 || h.FieldValue(a, offPeer+1, true).Ref() == rt.Null) &&
						(other[i] >= 0 || h.FieldValue(a, offOther+1, true).Ref() == rt.Null)
				}
				// Shell fields zeroed.
				for w := 0; w < newCls.Size-rt.HeaderWords; w++ {
					if h.FieldValue(a, rt.HeaderWords+w, false).Bits != 0 {
						return false
					}
				}
				// The paired old copy preserves the value and forwards
				// its references to the new copies.
				oldCopy := rt.Addr(h.PairWord(a))
				if oldCopy == rt.Null || h.ClassID(oldCopy) != upCls.ID {
					return false
				}
				if h.FieldValue(oldCopy, offVal, false).Int() != vals[i] {
					return false
				}
				if peer[i] >= 0 {
					ref := h.FieldValue(oldCopy, offPeer, true).Ref()
					if !walk(peer[i], ref) {
						return false
					}
				}
				if other[i] >= 0 {
					ref := h.FieldValue(oldCopy, offOther, true).Ref()
					if !walk(other[i], ref) {
						return false
					}
				}
				return true
			}
			// Stable object: plain copy.
			if h.ClassID(a) != stableCls.ID {
				return false
			}
			if h.FieldValue(a, offVal, false).Int() != vals[i] {
				return false
			}
			if peer[i] >= 0 {
				if !walk(peer[i], h.FieldValue(a, offPeer, true).Ref()) {
					return false
				}
			}
			return true
		}
		for k, i := range rootIdx {
			if !walk(i, roots[k].Ref()) {
				t.Logf("seed %d: invariant violated at root %d", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
