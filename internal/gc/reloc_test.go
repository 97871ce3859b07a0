package gc

import (
	"errors"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"govolve/internal/classfile"
	"govolve/internal/heap"
	"govolve/internal/rt"
)

// The stw/concurrent equivalence suite. A concurrent collection — a sealed
// mark, a short pause (rescan, eager pairs + root forwarding), then a drain that
// evacuates the rest of the live set with the background relocator and the
// self-healing load barrier — must end in a heap observationally identical to
// the serial Cheney collector's: isomorphic reachable graph, identical values,
// identical DSU pair treatment. With the mutator quiescent throughout even the
// copy accounting must match exactly: serial CopiedObjects == pause
// CopiedObjects + drain RelocStats.Objects (each live object is evacuated
// exactly once on either path).

// sealMark runs a concurrent mark over roots to the point where the pause can
// consume it: snapshot + trace (mutate, if given, runs while the barrier is
// armed), seal.
func sealMark(t testing.TB, roots Roots, w *world, c *Collector, mutate func()) {
	t.Helper()
	m := c.StartMark(roots, w.updatedIDs())
	if mutate != nil {
		mutate()
	}
	deadline := time.Now().Add(10 * time.Second)
	for !m.Done() {
		if time.Now().After(deadline) {
			t.Fatal("concurrent mark did not terminate")
		}
		runtime.Gosched()
	}
	if !c.SealMark(m) {
		t.Fatalf("mark aborted: %v", m.Err())
	}
	if !w.h.SATBArmed() {
		t.Fatal("barrier disarmed at seal: mutations between seal and pause would go unlogged")
	}
}

// checkPause pins what a reloc pause leaves for the drain, before it starts.
// The pause ran on the serial kernel, so no from-space header holds the claim
// sentinel (the claim protocol starts with the world), every root is forwarded
// out of from-space, and the drain's stack holds exactly the kernel's dirty
// list: the tail old copies of the log holding a reference, in placement order.
func checkPause(t testing.TB, w *world, c *Collector, res Result, rl *Relocation) {
	t.Helper()
	for a := rl.fromLo; a < rl.fromHi; a++ {
		if _, _, claimed := heap.HeaderForwarded(w.h.Word(a)); claimed {
			t.Fatalf("from-space word @%d holds the claim sentinel after the pause", a)
		}
	}
	for i, r := range w.roots {
		if a := r.Ref(); r.IsRef && a >= rl.fromLo && a < rl.fromHi {
			t.Fatalf("root %d still points into from-space @%d after the pause", i, a)
		}
	}
	var dirty []rt.Addr
	for _, p := range res.Log {
		if !w.h.InTail(p.OldCopy) {
			continue
		}
		for _, off := range w.reg.ClassByID(w.h.ClassID(p.OldCopy)).RefOffsets {
			if w.h.Word(p.OldCopy+off) != 0 {
				dirty = append(dirty, p.OldCopy)
				break
			}
		}
	}
	if !slices.Equal(c.dirty, dirty) || !slices.Equal(rl.work.buf, dirty) {
		t.Fatalf("dirty list %v, drain stack %v; want the tail old copies holding a reference %v", c.dirty, rl.work.buf, dirty)
	}
}

// runRelocCycle drives the pause and the drain of a concurrent collection on
// w — after sealMark, or with deferPairs and no mark at all: pause, Start,
// optional mutation while the drain runs, force-complete, Finish.
func runRelocCycle(t testing.TB, w *world, c *Collector, deferPairs bool, mutate func()) (Result, RelocStats) {
	t.Helper()
	res, rl, err := c.CollectReloc(w, deferPairs)
	if err != nil {
		t.Fatalf("CollectReloc: %v", err)
	}
	checkPause(t, w, c, res, rl)
	if !res.Relocated || res.MarkConcurrent == deferPairs {
		t.Fatalf("result flagged Relocated=%v MarkConcurrent=%v (deferPairs=%v)", res.Relocated, res.MarkConcurrent, deferPairs)
	}
	if w.h.SATBArmed() {
		t.Fatal("SATB barrier still armed after the pause")
	}
	if !w.h.RelocArmed() {
		t.Fatal("load barrier not armed after the reloc pause")
	}
	rl.Start()
	if mutate != nil {
		mutate()
	}
	if err := rl.ForceDrain(); err != nil {
		t.Fatalf("ForceDrain: %v", err)
	}
	if !rl.Done() {
		t.Fatal("drain not done after ForceDrain")
	}
	if rl.Backlog() != 0 {
		t.Fatalf("done drain reports backlog %d", rl.Backlog())
	}
	stats, err := rl.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if w.h.RelocArmed() {
		t.Fatal("load barrier still armed after Finish")
	}
	return res, stats
}

// runConcurrentCycle is a whole concurrent collection of w: sealMark (with
// duringMark), then runRelocCycle consuming it (with duringDrain).
func runConcurrentCycle(t testing.TB, w *world, c *Collector, duringMark, duringDrain func()) (Result, RelocStats) {
	t.Helper()
	sealMark(t, w, w, c, duringMark)
	return runRelocCycle(t, w, c, false, duringDrain)
}

// runConcurrentEquivalence compares a quiescent concurrent collection against
// the serial collector on identical worlds, with exact copy accounting. With
// overflow, from-space is left with a tail for two old copies, and the rest
// go to to-space.
func runConcurrentEquivalence(t *testing.T, seed int64, dsu, overflow bool) {
	t.Helper()
	const semi = 1 << 13
	wa := buildWorld(t, seed, semi)
	wb := buildWorld(t, seed, semi)
	if overflow {
		leaveTail(wa.h, overflowTail)
		leaveTail(wb.h, overflowTail)
	}
	if dsu {
		addUpdatedTo(t, wa)
		addUpdatedTo(t, wb)
	}

	ra, err := New(wa.h, wa.reg).Collect(wa, dsu)
	if err != nil {
		t.Fatalf("serial collect: %v", err)
	}
	rb, stats := runConcurrentCycle(t, wb, New(wb.h, wb.reg), nil, nil)

	if got := rb.CopiedObjects + stats.Objects; got != ra.CopiedObjects {
		t.Fatalf("copied objects: serial %d, concurrent pause %d + drain %d = %d",
			ra.CopiedObjects, rb.CopiedObjects, stats.Objects, got)
	}
	if got := rb.CopiedWords + stats.Words; got != ra.CopiedWords {
		t.Fatalf("copied words: serial %d, concurrent %d", ra.CopiedWords, got)
	}
	if ra.PairsLogged != rb.PairsLogged || len(ra.Log) != len(rb.Log) {
		t.Fatalf("pair counts: serial %d, concurrent %d", len(ra.Log), len(rb.Log))
	}
	if got := rb.TailWords + stats.TailWords; got != ra.TailWords {
		t.Fatalf("tail words: serial %d, concurrent %d", ra.TailWords, got)
	}
	if stats.DeferredPairs != 0 {
		t.Fatalf("eager mode created %d deferred pairs", stats.DeferredPairs)
	}
	if ra.Moved != rb.Moved || stats.Moved != 0 || (ra.Moved > 0) != dsu {
		t.Fatalf("moved: serial %d, concurrent pause %d + drain %d (dsu=%v)", ra.Moved, rb.Moved, stats.Moved, dsu)
	}
	for i := 1; i < len(rb.Log); i++ {
		if rb.Log[i-1].New >= rb.Log[i].New {
			t.Fatal("concurrent pair log not sorted by new-shell address")
		}
	}
	checkPairWords(t, wb.h, rb.Log)
	isoCheck(t, wa, wb, ra, rb, dsu)
}

func TestRelocCollectEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		runConcurrentEquivalence(t, seed, false, false)
	}
}

func TestRelocDSUCollectEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		runConcurrentEquivalence(t, seed, true, false)
	}
}

func TestRelocDSUCollectEquivalenceOverflow(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 11, 12} {
		runConcurrentEquivalence(t, seed, true, true)
	}
}

func TestRelocConsumesConcurrentMark(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		runConcurrentEquivalence(t, seed, false, false)
		runConcurrentEquivalence(t, seed, true, false)
	}
}

// TestRelocInFlightMutation runs the shared deterministic mutation script
// while the drain is live — stores land through the armed atomic path,
// loads heal through the barrier, allocations are born clean above the
// region snapshot — and requires the final graph isomorphic to the STW
// baseline. Because the reloc pause happens BEFORE the mutation, the
// baseline mutates after its own collection: both sides then see the same
// logical program order (pause, then mutation). Copy counts are not
// compared: the drain also evacuates objects the script kills mid-drain
// (floating garbage, reclaimed by the next collection).
func TestRelocInFlightMutation(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, dsu := range []bool{false, true} {
			const semi = 1 << 13
			wa := buildWorld(t, seed, semi)
			wb := buildWorld(t, seed, semi)
			if dsu {
				addUpdatedTo(t, wa)
				addUpdatedTo(t, wb)
			}

			// Built AFTER the pause: the script captures the remapped
			// (canonical) root addresses — in DSU mode those are the new
			// shells, exactly as on the baseline below. Its logic depends
			// only on root order and graph shape, so it lands identically.
			res, _ := runConcurrentCycle(t, wa, New(wa.h, wa.reg), nil, func() { mutationScript(t, wa)() })

			rbs, err := New(wb.h, wb.reg).Collect(wb, dsu)
			if err != nil {
				t.Fatalf("STW collect: %v", err)
			}
			mutationScript(t, wb)()
			// Both sides paired the identical pre-mutation live set.
			if dsu && res.PairsLogged != rbs.PairsLogged {
				t.Fatalf("pairs: reloc %d, STW %d", res.PairsLogged, rbs.PairsLogged)
			}
			isoCheck(t, wa, wb, res, rbs, dsu)
		}
	}
}

// TestRelocDeferredPairs pins full deferral (reloc + lazy transform): the
// pause creates a pair only where a root points at an updated instance, in its
// own log; the drain builds the rest — pending shells, old copies registered
// for adoption, every old-copy reference healed to a canonical (shell)
// address, the pause's tail old copy's through the stack the pause seeded.
// Old copies go to from-space's tail while it has room (overflow: two of them)
// and to to-space after.
func TestRelocDeferredPairs(t *testing.T) {
	for _, overflow := range []bool{false, true} {
		w := &world{reg: rt.NewRegistry(), h: heap.New(1 << 12)}
		w.cls = nodeClass(t, w.reg, "Node")
		const n = 10
		var addrs [n]rt.Addr
		for i := range addrs {
			addrs[i] = w.alloc(t, int64(100+i))
			if i > 0 {
				w.h.SetFieldValue(addrs[i-1], offLeft, rt.RefVal(addrs[i]))
			}
		}
		w.roots = []rt.Value{rt.RefVal(addrs[0])}
		if overflow {
			leaveTail(w.h, overflowTail)
		}
		newCls := addUpdatedTo(t, w)

		c := New(w.h, w.reg)
		res, rl, err := c.CollectReloc(w, true)
		if err != nil {
			t.Fatalf("CollectReloc: %v", err)
		}
		// Full deferral: the pause logged exactly one pair, the chain head
		// the root points at, whose shell the root now holds.
		if len(res.Log) != 1 || res.PairsLogged != 1 || res.Log[0].New != w.roots[0].Ref() {
			t.Fatalf("deferred pause logged %v (%d), want the root's pair alone", res.Log, res.PairsLogged)
		}
		checkPause(t, w, c, res, rl)
		rl.Start()
		if err := rl.ForceDrain(); err != nil {
			t.Fatalf("ForceDrain: %v", err)
		}
		stats, err := rl.Finish()
		if err != nil {
			t.Fatalf("Finish: %v", err)
		}
		if stats.DeferredPairs != n-1 {
			t.Fatalf("deferred pairs %d, want %d", stats.DeferredPairs, n-1)
		}
		wantTail := n * w.cls.Size
		if overflow {
			wantTail = 2 * w.cls.Size
		}
		if res.TailWords != w.cls.Size || res.TailWords+stats.TailWords != wantTail {
			t.Fatalf("%d + %d old-copy words in the tail, want %d + %d",
				res.TailWords, stats.TailWords, w.cls.Size, wantTail-w.cls.Size)
		}

		// The pause's pair and the drain's; each shell caches its old copy.
		pairs := slices.Concat(res.Log, rl.Deferred())
		checkPairWords(t, w.h, pairs)
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].New < pairs[j].New })
		oldFor := make(map[rt.Addr]rt.Addr, n)
		for i, p := range pairs {
			if i > 0 && pairs[i-1].New == p.New {
				t.Fatalf("shell @%d listed twice", p.New)
			}
			if w.h.ClassID(p.New) != newCls.ID {
				t.Fatalf("shell @%d has class %d, want %d", p.New, w.h.ClassID(p.New), newCls.ID)
			}
			if !w.h.Pending(p.New) {
				t.Fatalf("shell @%d not pending: pair word %#x", p.New, w.h.PairWord(p.New))
			}
			if w.h.ClassID(p.OldCopy) != w.cls.ID {
				t.Fatalf("old copy @%d has class %d, want %d", p.OldCopy, w.h.ClassID(p.OldCopy), w.cls.ID)
			}
			if !w.h.InTail(p.OldCopy) && !w.h.InCurrentSpace(p.OldCopy) {
				t.Fatalf("old copy @%d neither in the tail nor in to-space", p.OldCopy)
			}
			oldFor[p.New] = p.OldCopy
		}
		// Walk the chain through the healed old copies: root → shell,
		// shell's old copy preserves val and links to the NEXT shell.
		shell := w.roots[0].Ref()
		for i := 0; i < n; i++ {
			oc, ok := oldFor[shell]
			if !ok {
				t.Fatalf("chain node %d: shell @%d has no deferred old copy", i, shell)
			}
			if got := w.h.FieldValue(oc, offVal, false).Int(); got != int64(100+i) {
				t.Fatalf("chain node %d: old copy val %d, want %d", i, got, 100+i)
			}
			next := w.h.FieldValue(oc, offLeft, true).Ref()
			if i == n-1 {
				if next != rt.Null {
					t.Fatalf("chain tail old copy has left @%d", next)
				}
				break
			}
			if next == rt.Null || !w.h.InCurrentSpace(next) {
				t.Fatalf("chain node %d: old-copy left @%d not healed to a shell", i, next)
			}
			shell = next
		}
	}
}

// TestRelocDeferredMoves: under full deferral an updated-class instance whose
// transformer is a move is no pair at all. Whoever evacuates it — the pause's
// kernel for the chain's head the root points at, the drain for the rest —
// writes the one finished copy: new class, carried fields in their new places,
// never pending (pair word 0), and references healed like any evacuated
// object's.
func TestRelocDeferredMoves(t *testing.T) {
	w := &world{reg: rt.NewRegistry(), h: heap.New(1 << 12)}
	w.cls = nodeClass(t, w.reg, "Node")
	w.leaf = leafClass(t, w.reg)
	const n = 10
	var leaves [n]rt.Addr
	for i := range leaves {
		a, ok := w.h.AllocObject(w.leaf)
		if !ok {
			t.Fatal("leaf alloc")
		}
		leaves[i] = a
		w.h.SetFieldValue(a, leafOffTag, rt.IntVal(int64(100+i)))
		w.h.SetFieldValue(a, leafOffNode, rt.RefVal(w.alloc(t, int64(200+i))))
		if i > 0 {
			w.h.SetFieldValue(leaves[i-1], leafOffTwin, rt.RefVal(a))
		}
	}
	w.roots = []rt.Value{rt.RefVal(leaves[0])}
	newNode := addUpdatedTo(t, w)
	newLeaf := w.leaf.UpdatedTo

	res, stats := runRelocCycle(t, w, New(w.h, w.reg), true, nil)
	if len(res.Log) != 0 || res.Moved != 1 || res.CopiedObjects != 1 {
		t.Fatalf("deferred pause logged %d pairs, moved %d and copied %d; want the root's leaf moved alone",
			len(res.Log), res.Moved, res.CopiedObjects)
	}
	if stats.Moved != n-1 || stats.DeferredPairs != n {
		t.Fatalf("drain moved %d leaves and paired %d nodes, want %d and %d", stats.Moved, stats.DeferredPairs, n-1, n)
	}
	tagOff, nodeOff, twinOff := newLeaf.Field("tag").Offset, newLeaf.Field("node").Offset, newLeaf.Field("twin").Offset
	a := w.roots[0].Ref()
	for i := 0; i < n; i++ {
		if !w.h.InCurrentSpace(a) || w.h.ClassID(a) != newLeaf.ID {
			t.Fatalf("leaf %d @%d: not a to-space LeafV2 (class %d)", i, a, w.h.ClassID(a))
		}
		if w.h.PairWord(a) != 0 {
			t.Fatalf("leaf %d @%d: pair word %d — a moved object is finished", i, a, w.h.PairWord(a))
		}
		if got := w.h.FieldValue(a, tagOff, false).Int(); got != int64(100+i) {
			t.Fatalf("leaf %d: tag %d, want %d", i, got, 100+i)
		}
		if got := w.h.FieldValue(a, newLeaf.Field("pad").Offset, false).Int(); got != 0 {
			t.Fatalf("leaf %d: new field pad = %d", i, got)
		}
		// Its node is a pair the drain deferred: a pending NodeV2 shell.
		node := w.h.FieldValue(a, nodeOff, true).Ref()
		if !w.h.InCurrentSpace(node) || w.h.ClassID(node) != newNode.ID || !w.h.Pending(node) {
			t.Fatalf("leaf %d: node @%d not healed to a pending NodeV2 shell", i, node)
		}
		if old := rt.Addr(w.h.PairWord(node)); w.h.FieldValue(old, offVal, false).Int() != int64(200+i) {
			t.Fatalf("leaf %d: node's old copy lost its value", i)
		}
		next := w.h.FieldValue(a, twinOff, true).Ref()
		if (next == rt.Null) != (i == n-1) {
			t.Fatalf("leaf %d: twin @%d", i, next)
		}
		a = next
	}
}

// TestRelocDrainToSpaceExhaustion: the pause fits (one widening pair), but
// from-space was packed so full that the drain's plain evacuations cannot —
// the drain must fail with the typed error, surfaced by Finish, and the
// relocation must report Failed (the engine marks the heap unusable).
func TestRelocDrainToSpaceExhaustion(t *testing.T) {
	reg := rt.NewRegistry()
	w := &world{reg: reg, h: heap.New(128), cls: nodeClass(t, reg, "Node")}
	special := nodeClass(t, reg, "Special")
	sp, ok := w.h.AllocObject(special)
	if !ok {
		t.Fatal("alloc Special")
	}
	var prev rt.Addr = sp
	for {
		a, ok := w.h.AllocObject(w.cls)
		if !ok {
			break
		}
		w.h.SetFieldValue(a, offLeft, rt.RefVal(prev))
		prev = a
	}
	w.roots = []rt.Value{rt.RefVal(prev)}
	newDef, _ := classfile.NewClass("SpecialV2", "").
		Field("val", "I").Field("left", "LSpecialV2;").Field("right", "LSpecialV2;").
		Field("extra", "I").Field("extra2", "I").
		Build()
	newCls, err := reg.Load(newDef)
	if err != nil {
		t.Fatal(err)
	}
	special.UpdatedTo = newCls

	c := New(w.h, w.reg)
	sealMark(t, w, w, c, nil)
	_, rl, err := c.CollectReloc(w, false)
	if err != nil {
		// Acceptable variant: the pause itself hits the wall (post-flip
		// fatal). Either way the typed error must surface.
		if !errors.Is(err, ErrToSpaceExhausted) {
			t.Fatalf("pause error %v is not ErrToSpaceExhausted", err)
		}
		return
	}
	rl.Start()
	_, ferr := rl.Finish()
	if ferr == nil {
		t.Fatal("expected drain exhaustion")
	}
	if !errors.Is(ferr, ErrToSpaceExhausted) {
		t.Fatalf("drain error %v is not ErrToSpaceExhausted", ferr)
	}
	if !rl.Failed() || rl.Err() == nil {
		t.Fatal("failed drain not reporting Failed/Err")
	}
}

// TestRelocForceDrainBeforeStart: a collection or follow-up update can land
// between the pause and Start — ForceDrain must complete the whole drain on
// the mutator with no relocator running.
func TestRelocForceDrainBeforeStart(t *testing.T) {
	w := buildWorld(t, 21, 1<<13)
	addUpdatedTo(t, w)
	c := New(w.h, w.reg)
	sealMark(t, w, w, c, nil)
	res, rl, err := c.CollectReloc(w, false)
	if err != nil {
		t.Fatalf("CollectReloc: %v", err)
	}
	if err := rl.ForceDrain(); err != nil {
		t.Fatalf("ForceDrain before Start: %v", err)
	}
	if !rl.Done() {
		t.Fatal("drain not done")
	}
	rl.Start() // must be a no-op after completion (started already set)
	stats, err := rl.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	// This world's roots reach every live object directly, so the pause copied
	// them all; the forced drain's work is healing what those copies hold.
	if stats.HealedSlots == 0 || res.PairsLogged == 0 {
		t.Fatalf("forced drain did no work: %+v", stats)
	}
	if err := WalkReachable(w.h, w.reg, w, func(rt.Addr, *rt.Class) error { return nil }); err != nil {
		t.Fatalf("post-drain heap audit: %v", err)
	}
}

// TestRelocFlipGuard pins the from-space hold: flipping with the barrier
// armed would hand the held space to the allocator while stale slots still
// point into it.
func TestRelocFlipGuard(t *testing.T) {
	w := buildWorld(t, 5, 1<<13)
	c := New(w.h, w.reg)
	sealMark(t, w, w, c, nil)
	_, rl, err := c.CollectReloc(w, false)
	if err != nil {
		t.Fatalf("CollectReloc: %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Flip with armed relocation barrier did not panic")
			}
		}()
		w.h.Flip()
	}()
	if err := rl.ForceDrain(); err != nil {
		t.Fatal(err)
	}
	if _, err := rl.Finish(); err != nil {
		t.Fatal(err)
	}
}

// FuzzRelocDrain fuzzes the quiescent equivalence property over world
// seeds and DSU-ness.
func FuzzRelocDrain(f *testing.F) {
	f.Add(int64(1), false)
	f.Add(int64(2), true)
	f.Add(int64(3), true)
	f.Add(int64(17), false)
	f.Fuzz(func(t *testing.T, seed int64, dsu bool) {
		runConcurrentEquivalence(t, seed, dsu, false)
	})
}
