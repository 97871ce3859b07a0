package gc

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"govolve/internal/rt"
)

// The concurrent-mark equivalence suite. CollectWithMark must produce a heap
// observationally identical to the STW collector's — isomorphic reachable
// graph, identical DSU pair treatment for every reachable object — for any
// interleaving of mutator activity with the concurrent trace. With the
// mutator quiescent during the mark the copy counts must match exactly; with
// in-flight mutation the concurrent path may additionally copy floating
// garbage (objects that died during the trace), which is invisible to the
// reachable-graph walk and reclaimed by the next collection.

// runMarkCycle drives a full concurrent-mark collection on w: snapshot +
// trace (mutate, if given, runs while the barrier is armed), seal, pause.
func runMarkCycle(t *testing.T, w *world, c *Collector, dsu bool, updatedIDs map[int]bool, mutate func()) *Result {
	t.Helper()
	m := c.StartMark(w, updatedIDs)
	if mutate != nil {
		mutate()
	}
	deadline := time.Now().Add(10 * time.Second)
	for !m.Done() {
		if time.Now().After(deadline) {
			t.Fatal("concurrent mark did not terminate")
		}
		time.Sleep(10 * time.Microsecond)
	}
	if !c.SealMark(m) {
		t.Fatalf("mark aborted: %v", m.Err())
	}
	if !w.h.SATBArmed() {
		t.Fatal("barrier disarmed at seal: mutations between seal and pause would go unlogged")
	}
	res, err := c.CollectWithMark(w, dsu)
	if err != nil {
		t.Fatalf("CollectWithMark: %v", err)
	}
	if w.h.SATBArmed() {
		t.Fatal("barrier still armed after the pause")
	}
	if !res.MarkConcurrent {
		t.Fatal("result not flagged MarkConcurrent")
	}
	return res
}

// runMarkEquivalence compares a quiescent concurrent-mark collection against
// the serial Cheney collector on identical worlds. Quiescence means no
// floating garbage, so even the copy counts must match.
func runMarkEquivalence(t *testing.T, seed int64, dsu bool, scratch int) {
	t.Helper()
	const semi = 1 << 13
	wa := buildWorld(t, seed, semi, scratch)
	wb := buildWorld(t, seed, semi, scratch)
	var updatedIDs map[int]bool
	if dsu {
		addUpdatedTo(t, wa)
		addUpdatedTo(t, wb)
		updatedIDs = wb.updatedIDs()
	}

	ra, err := New(wa.h, wa.reg).Collect(wa, dsu)
	if err != nil {
		t.Fatalf("serial collect: %v", err)
	}
	cb := NewWithOptions(wb.h, wb.reg, Options{ConcurrentMark: true})
	rb := runMarkCycle(t, wb, cb, dsu, updatedIDs, nil)

	if ra.CopiedObjects != rb.CopiedObjects {
		t.Fatalf("copied objects: STW %d, concurrent %d", ra.CopiedObjects, rb.CopiedObjects)
	}
	if ra.CopiedWords != rb.CopiedWords {
		t.Fatalf("copied words: STW %d, concurrent %d", ra.CopiedWords, rb.CopiedWords)
	}
	if ra.PairsLogged != rb.PairsLogged {
		t.Fatalf("pairs: STW %d, concurrent %d", ra.PairsLogged, rb.PairsLogged)
	}
	if ra.Moved != rb.Moved || (ra.Moved > 0) != dsu {
		t.Fatalf("moved: STW %d, concurrent %d (dsu=%v)", ra.Moved, rb.Moved, dsu)
	}
	for i := 1; i < len(rb.Log); i++ {
		if rb.Log[i-1].New >= rb.Log[i].New {
			t.Fatal("concurrent log not sorted by new-shell address")
		}
	}
	if rb.PauseMark != 0 {
		t.Fatalf("concurrent collection reports in-pause mark %v", rb.PauseMark)
	}
	isoCheck(t, wa, wb, ra, rb, dsu)
}

func TestConcurrentMarkEquivalenceSerialSweep(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		runMarkEquivalence(t, seed, false, 0)
	}
}

func TestConcurrentMarkDSUEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		runMarkEquivalence(t, seed, true, 0)
	}
}

func TestConcurrentMarkDSUEquivalenceScratch(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 11, 12} {
		runMarkEquivalence(t, seed, true, 1<<13)
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
// Copy counts are NOT compared: the concurrent path may copy floating
// garbage the STW path never sees.
func runMutationEquivalence(t *testing.T, seed int64, dsu bool) {
	t.Helper()
	const semi = 1 << 13
	wa := buildWorld(t, seed, semi, 0)
	wb := buildWorld(t, seed, semi, 0)
	var updatedIDs map[int]bool
	if dsu {
		addUpdatedTo(t, wa)
		addUpdatedTo(t, wb)
		updatedIDs = wa.updatedIDs()
	}

	ca := NewWithOptions(wa.h, wa.reg, Options{ConcurrentMark: true})
	ra := runMarkCycle(t, wa, ca, dsu, updatedIDs, mutationScript(t, wa))

	mutationScript(t, wb)()
	rb, err := New(wb.h, wb.reg).Collect(wb, dsu)
	if err != nil {
		t.Fatalf("STW collect: %v", err)
	}

	// The concurrent path can only ever copy MORE (floating garbage).
	if ra.CopiedObjects < rb.CopiedObjects {
		t.Fatalf("concurrent copied %d < STW %d: live objects escaped the mark",
			ra.CopiedObjects, rb.CopiedObjects)
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
// stays correct. CollectWithMark afterwards falls back to plain Collect.
func TestCollectAbortsInFlightMark(t *testing.T) {
	w := buildWorld(t, 42, 1<<13, 0)
	c := NewWithOptions(w.h, w.reg, Options{ConcurrentMark: true})
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
	// The engine's fallback path: CollectWithMark with no usable marker must
	// behave as plain Collect.
	res2, err := c.CollectWithMark(w, false)
	if err != nil {
		t.Fatalf("fallback CollectWithMark: %v", err)
	}
	if res2.MarkConcurrent {
		t.Fatal("fallback CollectWithMark flagged MarkConcurrent")
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
// seal would open. Snapshot graph: root b (traced, marked black) and root
// x → z where x's subgraph is hidden from the trace (partial root view).
// Between seal and pause — the blocked safe-point wait — the mutator:
//
//	b.left = z   // store z's only surviving ref into a black object
//	x.left = nil // sever the unmarked path to z
//
// The rescan never revisits marked objects, so z is reachable from the
// pause's perspective only through the deletion log. If SealMark had
// disarmed the barrier, the severing would be unlogged, z never copied,
// and fixup would fail with "SATB invariant violated" on a legal program.
// With the barrier armed until the pause, the severed edge is logged and
// z survives.
func TestBarrierArmedBetweenSealAndPause(t *testing.T) {
	w := newWorld(t, 4096)
	b := w.alloc(t, 1)
	x := w.alloc(t, 2)
	z := w.alloc(t, 3)
	w.h.SetFieldValue(x, offLeft, rt.RefVal(z))
	w.roots = []rt.Value{rt.RefVal(b), rt.RefVal(x)}

	c := NewWithOptions(w.h, w.reg, Options{ConcurrentMark: true})
	m := c.StartMark(rootsView{[]*rt.Value{&w.roots[0]}}, nil)
	deadline := time.Now().Add(10 * time.Second)
	for !m.Done() {
		if time.Now().After(deadline) {
			t.Fatal("concurrent mark did not terminate")
		}
		time.Sleep(10 * time.Microsecond)
	}
	if !c.SealMark(m) {
		t.Fatalf("mark aborted: %v", m.Err())
	}
	if !w.h.SATBArmed() {
		t.Fatal("barrier disarmed at seal")
	}

	// The blocked-wait mutations: hide z behind black b, sever x → z.
	w.h.SetFieldValue(b, offLeft, rt.RefVal(z))
	w.h.SetFieldValue(x, offLeft, rt.NullVal)

	res, err := c.CollectWithMark(w, false)
	if err != nil {
		t.Fatalf("hidden object lost: %v", err)
	}
	if w.h.SATBArmed() {
		t.Fatal("barrier still armed after the pause")
	}
	if res.SATBDrained == 0 {
		t.Fatal("severed edge was not logged")
	}
	nb := w.roots[0].Ref()
	nz := w.h.FieldValue(nb, offLeft, true).Ref()
	if nz == 0 || w.h.FieldValue(nz, offVal, false).Int() != 3 {
		t.Fatal("z not preserved through b.left")
	}
}

// TestPreFlipErrorLeavesHeapUsable pins the error contract the engine's
// apply path relies on: a structural error raised by CollectWithMark
// *before* the semispace flip (here: the live-list walk trips over an
// unknown class ID) is tagged ErrPreFlip, nothing has been moved or
// forwarded, and the heap remains fully collectable afterwards — the
// update fails cleanly instead of killing the VM.
func TestPreFlipErrorLeavesHeapUsable(t *testing.T) {
	w := newWorld(t, 4096)
	b := w.alloc(t, 1)
	g := w.alloc(t, 99) // garbage: unreachable, but the linear sweep walk parses it
	w.roots = []rt.Value{rt.RefVal(b)}

	c := NewWithOptions(w.h, w.reg, Options{ConcurrentMark: true})
	m := c.StartMark(w, nil)
	deadline := time.Now().Add(10 * time.Second)
	for !m.Done() {
		if time.Now().After(deadline) {
			t.Fatal("concurrent mark did not terminate")
		}
		time.Sleep(10 * time.Microsecond)
	}
	if !c.SealMark(m) {
		t.Fatalf("mark aborted: %v", m.Err())
	}
	w.h.SetWord(g, 9999) // corrupt the header: unknown class id

	_, err := c.CollectWithMark(w, false)
	if err == nil {
		t.Fatal("expected a structural error from the live-list walk")
	}
	if !errors.Is(err, ErrPreFlip) {
		t.Fatalf("pre-flip structural error not tagged ErrPreFlip: %v", err)
	}
	if w.h.SATBArmed() {
		t.Fatal("barrier left armed after failed pause")
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
	w := buildWorld(t, 7, 1<<13, 0)
	c := NewWithOptions(w.h, w.reg, Options{ConcurrentMark: true})
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
	w := buildWorld(t, 3, 1<<13, 0)
	c := NewWithOptions(w.h, w.reg, Options{ConcurrentMark: true})

	runMarkCycle(t, w, c, false, nil, nil)
	bitmap0 := c.pool.bitmap[:1]
	grey0 := c.pool.grey[:1]

	runMarkCycle(t, w, c, false, nil, nil)
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
// marked, and the pause that consumes it copies exactly the allocate-black
// region — the objects allocated (and rooted) after the snapshot.
func TestMarkWithNoHeapRoots(t *testing.T) {
	w := newWorld(t, 4096)
	w.alloc(t, 1) // garbage: allocated before the snapshot, never rooted
	w.roots = []rt.Value{rt.NullVal, rt.IntVal(7)}

	c := NewWithOptions(w.h, w.reg, Options{ConcurrentMark: true})
	res := runMarkCycle(t, w, c, false, nil, func() {
		black := w.alloc(t, 2)
		w.h.SetFieldValue(black, offLeft, rt.RefVal(w.alloc(t, 3)))
		w.roots[0] = rt.RefVal(black)
	})
	if res.MarkedObjects != 0 || res.RescanMarked != 0 {
		t.Fatalf("marked %d + %d objects from roots that hold no reference", res.MarkedObjects, res.RescanMarked)
	}
	if res.CopiedObjects != 2 || res.CopiedWords != 2*w.cls.Size {
		t.Fatalf("copied %d objects (%d words), want the 2 allocate-black ones", res.CopiedObjects, res.CopiedWords)
	}
	black := w.roots[0].Ref()
	if w.h.FieldValue(black, offVal, false).Int() != 2 ||
		w.h.FieldValue(w.h.FieldValue(black, offLeft, true).Ref(), offVal, false).Int() != 3 {
		t.Fatal("allocate-black chain not preserved")
	}
}

// BenchmarkConcurrentMarkCycle measures a full mark+pause cycle, with
// ReportAllocs asserting the pooled scratch keeps steady-state allocation
// flat (the equivalent of the obs plane's zero-alloc gate, but for the
// collector's own bookkeeping).
func BenchmarkConcurrentMarkCycle(b *testing.B) {
	b.ReportAllocs()
	w := buildWorld(b, 5, 1<<15, 0)
	c := NewWithOptions(w.h, w.reg, Options{ConcurrentMark: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := c.StartMark(w, nil)
		for !m.Done() {
			runtime.Gosched()
		}
		if !c.SealMark(m) {
			b.Fatalf("mark aborted: %v", m.Err())
		}
		if _, err := c.CollectWithMark(w, false); err != nil {
			b.Fatal(err)
		}
	}
}
