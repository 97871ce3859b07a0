package gc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"govolve/internal/classfile"
	"govolve/internal/heap"
	"govolve/internal/rt"
)

// TestDSUCollectRandomGraphsProperty: random object graphs mixing an
// updated class and a stable class. After a DSU collection:
//
//   - every reachable updated-class object has exactly one log pair;
//   - every shell carries the new class with zeroed fields;
//   - every old copy preserves the original's values, with its references
//     forwarded into to-space;
//   - stable objects are copied normally with values intact;
//   - sharing is preserved (two paths to one object reach one copy).
func TestDSUCollectRandomGraphsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		reg := rt.NewRegistry()
		// Alternate between the paper's old-copies-in-to-space layout and
		// the §3.5 scratch-region variant; the invariants are identical.
		var h *heap.Heap
		if seed%2 == 0 {
			h = heap.New(1 << 15)
		} else {
			h = heap.NewWithScratch(1<<15, 1<<14)
		}

		oldDef := classfile.NewClass("Up", "").
			Field("val", "I").
			Field("peer", "LUp;").
			Field("other", "LStable;").
			MustBuild()
		upCls, err := reg.Load(oldDef)
		if err != nil {
			return false
		}
		stableCls, err := reg.Load(classfile.NewClass("Stable", "").
			Field("val", "I").
			Field("peer", "LUp;").
			MustBuild())
		if err != nil {
			return false
		}
		newDef := classfile.NewClass("UpV2", "").
			Field("added", "I").
			Field("val", "I").
			Field("peer", "LUpV2;").
			Field("other", "LStable;").
			MustBuild()
		newCls, err := reg.Load(newDef)
		if err != nil {
			return false
		}
		upCls.UpdatedTo = newCls

		const (
			offVal   = rt.HeaderWords // Up.val / Stable.val
			offPeer  = rt.HeaderWords + 1
			offOther = rt.HeaderWords + 2
		)

		n := rng.Intn(40) + 2
		addrs := make([]rt.Addr, n)
		isUp := make([]bool, n)
		vals := make([]int64, n)
		for i := range addrs {
			isUp[i] = rng.Intn(2) == 0
			cls := stableCls
			if isUp[i] {
				cls = upCls
			}
			a, ok := h.AllocObject(cls)
			if !ok {
				return false
			}
			vals[i] = rng.Int63n(1 << 20)
			h.SetFieldValue(a, offVal, rt.IntVal(vals[i]))
			addrs[i] = a
		}
		peer := make([]int, n) // -1 = null
		other := make([]int, n)
		for i := range addrs {
			peer[i] = -1
			other[i] = -1
			// peer must point at an Up object, other at a Stable one
			// (type-correct graphs only).
			if rng.Intn(3) > 0 {
				j := rng.Intn(n)
				if isUp[j] {
					peer[i] = j
					h.SetFieldValue(addrs[i], offPeer, rt.RefVal(addrs[j]))
				}
			}
			if isUp[i] && rng.Intn(3) > 0 {
				j := rng.Intn(n)
				if !isUp[j] {
					other[i] = j
					h.SetFieldValue(addrs[i], offOther, rt.RefVal(addrs[j]))
				}
			}
		}

		// Roots: a random non-empty subset.
		roots := []rt.Value{}
		rootIdx := []int{}
		for i := range addrs {
			if i == 0 || rng.Intn(3) == 0 {
				roots = append(roots, rt.RefVal(addrs[i]))
				rootIdx = append(rootIdx, i)
			}
		}

		col := New(h, reg)
		res, err := col.Collect(RootsFunc(func(fn func(*rt.Value)) {
			for i := range roots {
				fn(&roots[i])
			}
		}), true)
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
		if len(res.Log) != wantPairs {
			t.Logf("seed %d: %d pairs, want %d", seed, len(res.Log), wantPairs)
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
