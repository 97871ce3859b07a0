package gc

import (
	"errors"
	"testing"

	"govolve/internal/rt"
)

// The concurrent-mark suite: the snapshot/barrier contract, driven through the
// pause that consumes a sealed mark (CollectReloc) and the drain behind it. For
// any interleaving of mutator activity with the concurrent trace the heap must
// end observationally identical to the STW collector's — isomorphic reachable
// graph, identical DSU pair treatment for every reachable object. With the
// mutator quiescent the copy counts match exactly (runConcurrentEquivalence,
// reloc_test.go); with in-flight mutation the mark may additionally discover
// floating garbage (updated-class instances that died during the trace, paired
// once more than necessary), which is invisible to the reachable-graph walk
// and reclaimed by the next collection.

func TestConcurrentMarkEquivalenceSerialSweep(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		runConcurrentEquivalence(t, seed, false, false)
	}
}

func TestConcurrentMarkDSUEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		runConcurrentEquivalence(t, seed, true, false)
	}
}

func TestConcurrentMarkDSUEquivalenceOverflow(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 11, 12} {
		runConcurrentEquivalence(t, seed, true, true)
	}
}

// mutationScript applies a deterministic in-flight mutation to a buildWorld
// heap while the mark runs: it rewires edges between rooted nodes (SATB
// deletion-barrier traffic), severs edges (dead-during-mark objects), and
// allocates a fresh chain published through a root (allocate-black traffic).
// The script depends only on the world's initial layout, so running it on an
// identical world with no mark in flight produces the identical final graph.
func mutationScript(t *testing.T, w *world) func() {
	t.Helper()
	// Collect the node addresses reachable as direct roots (stable across
	// identical worlds: buildWorld is deterministic).
	var nodes []rt.Addr
	for _, r := range w.roots {
		a := r.Ref()
		if a != rt.Null && !w.h.IsArray(a) {
			nodes = append(nodes, a)
		}
	}
	return func() {
		n := len(nodes)
		if n < 4 {
			t.Fatal("mutation script needs at least 4 rooted nodes")
		}
		// Rewire: every rooted node's left edge points at its successor —
		// each store overwrites (and logs, while armed) the previous value.
		for i, a := range nodes {
			w.h.SetFieldValue(a, offLeft, rt.RefVal(nodes[(i+1)%n]))
		}
		// Sever: half the right edges go null. Anything only reachable
		// through them dies during the mark (floating garbage for the
		// concurrent path).
		for i := 0; i < n; i += 2 {
			w.h.SetFieldValue(nodes[i], offRight, rt.NullVal)
		}
		// Allocate-black: a fresh chain, published via the first root.
		var prev rt.Addr
		for k := 0; k < 8; k++ {
			a, ok := w.h.AllocObject(w.cls)
			if !ok {
				t.Fatal("alloc during mark")
			}
			w.h.SetFieldValue(a, offVal, rt.IntVal(int64(7000+k)))
			w.h.SetFieldValue(a, offLeft, rt.RefVal(prev))
			prev = a
		}
		w.h.SetFieldValue(nodes[0], offRight, rt.RefVal(prev))
		// Churn the ref arrays too (SetElem barrier path).
		for _, r := range w.roots {
			a := r.Ref()
			if a != rt.Null && w.h.IsArray(a) && w.h.ArrayElemIsRef(a) {
				w.h.SetElem(a, 0, rt.RefVal(nodes[n-1]))
			}
		}
	}
}

// runMutationEquivalence runs the same deterministic mutation script on two
// identical worlds — on A while the concurrent mark traces, on B before a
// plain STW collection — and requires isomorphic post-collection graphs.
// Copy counts are NOT compared: the concurrent path may pair floating
// garbage the STW path never sees, and evacuate what it references.
func runMutationEquivalence(t *testing.T, seed int64, dsu bool) {
	t.Helper()
	const semi = 1 << 13
	wa := buildWorld(t, seed, semi)
	wb := buildWorld(t, seed, semi)
	if dsu {
		addUpdatedTo(t, wa)
		addUpdatedTo(t, wb)
	}

	ra, stats := runConcurrentCycle(t, wa, New(wa.h, wa.reg), mutationScript(t, wa), nil)

	mutationScript(t, wb)()
	rb, err := New(wb.h, wb.reg).Collect(wb, dsu)
	if err != nil {
		t.Fatalf("STW collect: %v", err)
	}

	// The concurrent path can only ever copy MORE (floating garbage).
	if got := ra.CopiedObjects + stats.Objects; got < rb.CopiedObjects {
		t.Fatalf("concurrent copied %d < STW %d: live objects escaped the mark",
			got, rb.CopiedObjects)
	}
	if dsu && (ra.PairsLogged < rb.PairsLogged || ra.Moved < rb.Moved) {
		t.Fatalf("concurrent paired %d and moved %d, STW %d and %d instances",
			ra.PairsLogged, ra.Moved, rb.PairsLogged, rb.Moved)
	}
	isoCheck(t, wa, wb, ra, rb, dsu)
}

func TestConcurrentMarkInFlightMutation(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		runMutationEquivalence(t, seed, false)
	}
}

func TestConcurrentMarkInFlightMutationDSU(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		runMutationEquivalence(t, seed, true)
	}
}

// TestCollectAbortsInFlightMark pins the safety interlock: an ordinary
// collection (the allocation-pressure path) aborts an in-flight mark — the
// flip would move memory under the tracer — and the collection itself
// stays correct. CollectReloc afterwards falls back to plain Collect.
func TestCollectAbortsInFlightMark(t *testing.T) {
	w := buildWorld(t, 42, 1<<13)
	c := New(w.h, w.reg)
	m := c.StartMark(w, nil)
	res, err := c.Collect(w, false)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if !m.Aborted() {
		t.Fatal("in-flight mark not aborted by Collect")
	}
	if c.MarkActive() {
		t.Fatal("collector still holds the aborted marker")
	}
	if w.h.SATBArmed() {
		t.Fatal("barrier left armed after abort")
	}
	if res.MarkConcurrent {
		t.Fatal("fallback collection flagged MarkConcurrent")
	}
	// The engine's give-up path: CollectReloc with no usable marker must
	// behave as plain Collect and leave no relocation behind.
	res2, rl, err := c.CollectReloc(w, false)
	if err != nil {
		t.Fatalf("fallback CollectReloc: %v", err)
	}
	if res2.MarkConcurrent || res2.Relocated || rl != nil || w.h.RelocArmed() {
		t.Fatalf("fallback CollectReloc did not take the stop-the-world path: %+v, relocation %v", res2, rl)
	}
	if res2.CopiedObjects != res.CopiedObjects {
		t.Fatalf("fallback copied %d, first collection %d", res2.CopiedObjects, res.CopiedObjects)
	}
}

// rootsView exposes a fixed subset of root values — used to hand StartMark
// a *partial* snapshot, simulating the interleaving where the concurrent
// trace loses a race with the mutator for part of the graph (the missed
// part plays the role of the log-only-reachable set).
type rootsView struct{ vals []*rt.Value }

func (r rootsView) ForEachRoot(fn func(*rt.Value)) {
	for _, v := range r.vals {
		fn(v)
	}
}

// TestBarrierArmedBetweenSealAndPause pins the soundness hole a disarm-at-
// seal would open. Snapshot graph, every object an instance of an updated
// class: root b (traced, marked black) and root x → z where x's subgraph is
// hidden from the trace (partial root view). Between seal and pause — the
// blocked safe-point wait — the mutator:
//
//	b.left = z   // store z's only surviving ref into a black object
//	x.left = nil // sever the unmarked path to z
//
// The rescan never revisits marked objects, so z is reachable from the
// pause's perspective only through the deletion log. If SealMark had
// disarmed the barrier, the severing would be unlogged, z never discovered,
// and the drain would fail on an "undiscovered updated-class instance" in a
// legal program. With the barrier armed until the pause, the severed edge is
// logged and z is paired with the rest.
func TestBarrierArmedBetweenSealAndPause(t *testing.T) {
	w := newWorld(t, 4096)
	b := w.alloc(t, 1)
	x := w.alloc(t, 2)
	z := w.alloc(t, 3)
	w.h.SetFieldValue(x, offLeft, rt.RefVal(z))
	w.roots = []rt.Value{rt.RefVal(b), rt.RefVal(x)}
	addUpdatedTo(t, w)

	c := New(w.h, w.reg)
	sealMark(t, rootsView{[]*rt.Value{&w.roots[0]}}, w, c, nil)

	// The blocked-wait mutations: hide z behind black b, sever x → z.
	w.h.SetFieldValue(b, offLeft, rt.RefVal(z))
	w.h.SetFieldValue(x, offLeft, rt.NullVal)

	res, _ := runRelocCycle(t, w, c, false, nil)
	if res.SATBDrained == 0 {
		t.Fatal("severed edge was not logged")
	}
	if res.PairsLogged != 3 {
		t.Fatalf("paired %d of b, x and z", res.PairsLogged)
	}
	// b's shell → its old copy → left, healed by the drain to z's shell.
	oldB := rt.Addr(w.h.PairWord(w.roots[0].Ref()))
	nz := w.h.FieldValue(oldB, offLeft, true).Ref()
	if nz == 0 || w.h.FieldValue(rt.Addr(w.h.PairWord(nz)), offVal, false).Int() != 3 {
		t.Fatal("z not preserved through b.left")
	}
}

// TestPreFlipErrorLeavesHeapUsable pins the error contract the engine's
// apply path relies on: a structural error raised by CollectReloc
// *before* the semispace flip (here: the allocate-black walk trips over an
// unknown class ID) is tagged ErrPreFlip, nothing has been moved or
// forwarded, and the heap remains fully collectable afterwards — the
// update fails cleanly instead of killing the VM.
func TestPreFlipErrorLeavesHeapUsable(t *testing.T) {
	w := newWorld(t, 4096)
	b := w.alloc(t, 1)
	w.roots = []rt.Value{rt.RefVal(b)}

	c := New(w.h, w.reg)
	var g rt.Addr
	sealMark(t, w, w, c, func() {
		g = w.alloc(t, 99) // garbage above the watermark: unreachable, but the linear walk parses it
	})
	w.h.SetWord(g, 9999) // corrupt the header: unknown class id

	_, _, err := c.CollectReloc(w, false)
	if err == nil {
		t.Fatal("expected a structural error from the allocate-black walk")
	}
	if !errors.Is(err, ErrPreFlip) {
		t.Fatalf("pre-flip structural error not tagged ErrPreFlip: %v", err)
	}
	if w.h.SATBArmed() || w.h.RelocArmed() || c.MarkActive() {
		t.Fatal("a barrier or the marker outlived the failed pause")
	}
	// Nothing flipped or forwarded: the root still points at the original b
	// with its field intact, and after repairing the header a plain
	// collection succeeds on the very same heap.
	if w.roots[0].Ref() != b || w.h.FieldValue(b, offVal, false).Int() != 1 {
		t.Fatal("heap mutated by a pre-flip failure")
	}
	w.h.SetWord(g, uint64(w.cls.ID))
	if _, err := c.Collect(w, false); err != nil {
		t.Fatalf("heap not usable after pre-flip failure: %v", err)
	}
}

// TestAbortMarkIdempotent pins the discard path the engine uses when an
// update resolves without consuming its snapshot.
func TestAbortMarkIdempotent(t *testing.T) {
	w := buildWorld(t, 7, 1<<13)
	c := New(w.h, w.reg)
	c.StartMark(w, nil)
	c.AbortMark()
	c.AbortMark() // second abort is a no-op
	if c.MarkActive() || w.h.SATBArmed() {
		t.Fatal("abort left state behind")
	}
}

// TestMarkScratchPooled asserts the mark-phase scratch (bitmap, grey stack,
// SATB buffer) is reused across collections — the storm harness applies
// hundreds of updates against one VM and must not re-allocate per cycle.
func TestMarkScratchPooled(t *testing.T) {
	w := buildWorld(t, 3, 1<<13)
	c := New(w.h, w.reg)
	// Drained on this goroutine before Start: no relocator, so no TLAB tails,
	// to-space stays compact and the second snapshot region is no larger than
	// the first.
	cycle := func() {
		sealMark(t, w, w, c, nil)
		_, rl, err := c.CollectReloc(w, false)
		if err != nil {
			t.Fatalf("CollectReloc: %v", err)
		}
		if err := rl.ForceDrain(); err != nil {
			t.Fatalf("ForceDrain: %v", err)
		}
		if _, err := rl.Finish(); err != nil {
			t.Fatalf("Finish: %v", err)
		}
	}

	cycle()
	bitmap0 := c.pool.bitmap[:1]
	grey0 := c.pool.grey[:1]

	cycle()
	if &c.pool.bitmap[:1][0] != &bitmap0[0] {
		t.Fatal("mark bitmap re-allocated on second cycle")
	}
	if &c.pool.grey[:1][0] != &grey0[0] {
		t.Fatal("grey stack re-allocated on second cycle")
	}
}

// TestMarkWithNoHeapRoots pins the one edge the single tracer has that the
// worker pool did not: a snapshot whose roots hold no heap reference hands the
// tracer an empty grey stack. It must still reach Done and seal, with nothing
// marked, and the collection that consumes it copies exactly what is reachable
// in the allocate-black region — the objects allocated after the snapshot: the
// rooted one in the pause, the one it points at in the drain.
func TestMarkWithNoHeapRoots(t *testing.T) {
	w := newWorld(t, 4096)
	w.alloc(t, 1) // garbage: allocated before the snapshot, never rooted
	w.roots = []rt.Value{rt.NullVal, rt.IntVal(7)}

	res, stats := runConcurrentCycle(t, w, New(w.h, w.reg), func() {
		black := w.alloc(t, 2)
		w.h.SetFieldValue(black, offLeft, rt.RefVal(w.alloc(t, 3)))
		w.roots[0] = rt.RefVal(black)
	}, nil)
	if res.MarkedObjects != 0 || res.RescanMarked != 0 {
		t.Fatalf("marked %d + %d objects from roots that hold no reference", res.MarkedObjects, res.RescanMarked)
	}
	if res.CopiedObjects != 1 || stats.Objects != 1 || res.CopiedWords+stats.Words != 2*w.cls.Size {
		t.Fatalf("pause copied %d, drain %d objects (%d words); want the rooted allocate-black one from the pause, its child from the drain",
			res.CopiedObjects, stats.Objects, res.CopiedWords+stats.Words)
	}
	black := w.roots[0].Ref()
	if w.h.FieldValue(black, offVal, false).Int() != 2 ||
		w.h.FieldValue(w.h.FieldValue(black, offLeft, true).Ref(), offVal, false).Int() != 3 {
		t.Fatal("allocate-black chain not preserved")
	}
}

// BenchmarkConcurrentMarkCycle measures a full mark + pause + drain cycle,
// with ReportAllocs showing what the pooled scratch keeps out of steady-state
// allocation.
func BenchmarkConcurrentMarkCycle(b *testing.B) {
	b.ReportAllocs()
	w := buildWorld(b, 5, 1<<15)
	c := New(w.h, w.reg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runConcurrentCycle(b, w, c, nil, nil)
	}
}
