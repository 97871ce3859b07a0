package gc

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"govolve/internal/classfile"
	"govolve/internal/heap"
	"govolve/internal/rt"
)

// The stw/incremental equivalence suite. A relocating collection — a short
// pause (root forwarding, pairs and moves for what the roots point at), then a
// drain that evacuates the rest of the live set, pairing the updated-class
// instances it meets, in quanta of the kernel and through the self-healing
// load barrier — must end in a heap observationally identical to the serial
// Cheney collector's: isomorphic reachable graph, identical values, identical
// DSU pair treatment, whatever the quantum schedule. With the mutator
// quiescent throughout even the accounting must match exactly as pause +
// drain sums: serial CopiedObjects == pause CopiedObjects + drain
// RelocStats.Objects (each live object is evacuated exactly once on either
// path), and likewise for words, tail words, pairs and moves.

// checkPause pins what a reloc pause leaves for the drain, before it starts:
// every root is forwarded out of from-space, and the drain's old-copy work is
// exactly the kernel's dirty list — the tail old copies of the log holding a
// reference, in placement order — none of it scanned yet.
func checkPause(t testing.TB, w *world, c *Collector, res Result, rl *Relocation) {
	t.Helper()
	for i, r := range w.roots {
		if a := r.Ref(); r.IsRef && a != rt.Null && !w.h.InCurrentSpace(a) {
			t.Fatalf("root %d still points out of to-space @%d after the pause", i, a)
		}
	}
	dirty := pauseDirty(w, res)
	if !slices.Equal(c.dirty, dirty) || rl.oldScan != 0 || len(rl.spans) != 0 {
		t.Fatalf("dirty list %v (%d scanned, %d spans); want the tail old copies holding a reference %v, none scanned",
			c.dirty, rl.oldScan, len(rl.spans), dirty)
	}
}

// pauseDirty lists the pause's tail old copies holding a reference, in log order.
func pauseDirty(w *world, res Result) []rt.Addr {
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
	return dirty
}

// seededQuanta draws a drain's quantum schedule from seed: budgets in scanned
// words, taken in turn and cycling, 0 a whole-drain quantum. It always holds
// a one-word quantum (first) and a whole-drain one, somewhere after it; the
// rest are small, so the test worlds take many quanta.
func seededQuanta(seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	q := []int{1}
	for range 6 {
		q = append(q, 1+rng.Intn(64))
	}
	return slices.Insert(q, 1+rng.Intn(len(q)), 0)
}

// fuzzQuanta reads a fuzzed quantum schedule: one budget per byte, 0 a
// whole-drain quantum; empty is one whole-drain quantum.
func fuzzQuanta(b []byte) []int {
	if len(b) == 0 {
		return []int{0}
	}
	q := make([]int, len(b))
	for i, x := range b {
		q[i] = int(x)
	}
	return q
}

// runQuantum runs the i-th quantum of schedule q (cycling) and reports whether
// the drain is done.
func runQuantum(rl *Relocation, q []int, i int) bool {
	budget := q[i%len(q)]
	if budget == 0 {
		budget = math.MaxInt
	}
	if !rl.Done() {
		rl.scan(budget)
	}
	return rl.Done()
}

// runRelocCycle drives the pause and the drain of a relocating collection on
// w: pause, Start, then before each step of the mutation script (built once
// the pause has forwarded the roots; nil for none) one quantum of schedule q,
// quanta until the drain is done, Finish. It returns the pause's Result, the
// drain's stats and the whole pair log: the pause's pairs, then the drain's.
func runRelocCycle(t testing.TB, w *world, c *Collector, q []int, script func() []func()) (Result, RelocStats, []Pair) {
	t.Helper()
	res, rl, err := c.CollectReloc(w)
	if err != nil {
		t.Fatalf("CollectReloc: %v", err)
	}
	checkPause(t, w, c, res, rl)
	if !res.Relocated {
		t.Fatal("reloc pause result not flagged Relocated")
	}
	if !w.h.RelocArmed() {
		t.Fatal("load barrier not armed after the reloc pause")
	}
	rl.Start()
	var steps []func()
	if script != nil {
		steps = script()
	}
	i := 0
	for _, step := range steps {
		runQuantum(rl, q, i)
		i++
		step()
	}
	// Every quantum scans at least one object, and the drain only ever scans
	// what the pause left or its own copies: a bound on the quanta left.
	for limit := i + w.h.SemiWords(); !runQuantum(rl, q, i); i++ {
		if i > limit {
			t.Fatalf("drain not done after %d quanta of %v", i, q)
		}
	}
	if err := rl.ForceDrain(); err != nil {
		t.Fatalf("ForceDrain: %v", err)
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
	log := slices.Concat(res.Log, rl.Deferred())
	checkDrained(t, w, log)
	return res, stats, log
}

// checkDrained requires a drained heap to hold no reference out of to-space:
// none on a path from the roots, and none in an old copy, which the lazy
// pipeline's transformers read after the barrier is gone.
func checkDrained(t testing.TB, w *world, log []Pair) {
	t.Helper()
	if err := WalkReachable(w.h, w.reg, w, func(rt.Addr, *rt.Class) error { return nil }); err != nil {
		t.Fatalf("drained heap: %v", err)
	}
	for _, p := range log {
		for _, off := range w.reg.ClassByID(w.h.ClassID(p.OldCopy)).RefOffsets {
			if a := rt.Addr(w.h.Word(p.OldCopy + off)); a != rt.Null && !w.h.InCurrentSpace(a) {
				t.Fatalf("old copy @%d slot %d holds @%d, out of to-space", p.OldCopy, off, a)
			}
		}
	}
}

// runConcurrentEquivalence compares a quiescent relocating collection, drained
// in quanta of schedule q, against the serial collector on identical worlds,
// with exact copy accounting. With overflow, from-space is left with a tail
// for two old copies, and the rest go to to-space.
func runConcurrentEquivalence(t *testing.T, seed int64, dsu, overflow bool, q []int) {
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
	rb, stats, log := runRelocCycle(t, wb, New(wb.h, wb.reg), q, nil)

	if got := rb.CopiedObjects + stats.Objects; got != ra.CopiedObjects {
		t.Fatalf("copied objects: serial %d, concurrent pause %d + drain %d = %d",
			ra.CopiedObjects, rb.CopiedObjects, stats.Objects, got)
	}
	if got := rb.CopiedWords + stats.Words; got != ra.CopiedWords {
		t.Fatalf("copied words: serial %d, concurrent %d", ra.CopiedWords, got)
	}
	if got := rb.PairsLogged + stats.DeferredPairs; got != ra.PairsLogged || len(log) != len(ra.Log) {
		t.Fatalf("pair counts: serial %d, concurrent pause %d + drain %d", len(ra.Log), rb.PairsLogged, stats.DeferredPairs)
	}
	if got := rb.TailWords + stats.TailWords; got != ra.TailWords {
		t.Fatalf("tail words: serial %d, concurrent %d", ra.TailWords, got)
	}
	if got := rb.Moved + stats.Moved; got != ra.Moved || (ra.Moved > 0) != dsu {
		t.Fatalf("moved: serial %d, concurrent pause %d + drain %d (dsu=%v)", ra.Moved, rb.Moved, stats.Moved, dsu)
	}
	for i := 1; i < len(rb.Log); i++ {
		if rb.Log[i-1].New >= rb.Log[i].New {
			t.Fatal("pause pair log not sorted by new-shell address")
		}
	}
	checkPairWords(t, wb.h, log)
	rb.Log = log
	isoCheck(t, wa, wb, ra, rb, dsu)
}

func TestRelocCollectEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		runConcurrentEquivalence(t, seed, false, false, seededQuanta(seed))
	}
}

func TestRelocDSUCollectEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		runConcurrentEquivalence(t, seed, true, false, seededQuanta(seed))
	}
}

func TestRelocDSUCollectEquivalenceOverflow(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 11, 12} {
		runConcurrentEquivalence(t, seed, true, true, seededQuanta(seed))
	}
}

// TestRelocInFlightMutation runs the shared deterministic mutation script
// while the drain is live, one seeded quantum before each of its steps —
// allocations are born clean between the drain's spans, loads heal through
// the barrier, stores land plainly in scanned and unscanned objects alike —
// and
// requires the final graph isomorphic to the STW baseline. Every schedule holds
// a one-word quantum and a whole-drain one, so some steps run with the scan
// barely started and some after it ended. Because the reloc pause happens
// BEFORE the mutation, the baseline mutates after its own collection: both
// sides then see the same logical program order (pause, then mutation). Copy
// counts are not compared: the drain also evacuates objects the script kills
// mid-drain (floating garbage, reclaimed by the next collection), and never
// reaches some the script kills first — so with DSU the drain pairs and moves
// at most what the baseline did.
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
			res, stats, log := runRelocCycle(t, wa, New(wa.h, wa.reg), seededQuanta(seed),
				func() []func() { return mutationScript(t, wa) })

			rbs, err := New(wb.h, wb.reg).Collect(wb, dsu)
			if err != nil {
				t.Fatalf("STW collect: %v", err)
			}
			for _, step := range mutationScript(t, wb) {
				step()
			}
			// The drain met only objects of the pre-mutation live set.
			if dsu && (len(log) > rbs.PairsLogged || res.Moved+stats.Moved > rbs.Moved) {
				t.Fatalf("reloc paired %d and moved %d, STW %d and %d",
					len(log), res.Moved+stats.Moved, rbs.PairsLogged, rbs.Moved)
			}
			res.Log = log
			isoCheck(t, wa, wb, res, rbs, dsu)
		}
	}
}

// mutationScript is a deterministic in-flight mutation of a buildWorld heap
// while the drain runs, in six steps: it allocates a fresh chain (objects born
// clean between the drain's spans), loads every rooted node's edges (heals
// mid-drain, each evacuation in a span of its own),
// rewires edges between rooted nodes, severs edges (objects that die
// mid-drain), publishes the chain through a root, and churns the ref arrays.
// The script depends only on root order and graph shape, so running it on an
// identical world after a serial collection produces the identical final
// graph.
func mutationScript(t *testing.T, w *world) []func() {
	t.Helper()
	// The node addresses reachable as direct roots (stable across identical
	// worlds: buildWorld is deterministic).
	var nodes []rt.Addr
	for _, r := range w.roots {
		a := r.Ref()
		if a != rt.Null && !w.h.IsArray(a) {
			nodes = append(nodes, a)
		}
	}
	n := len(nodes)
	if n < 4 {
		t.Fatal("mutation script needs at least 4 rooted nodes")
	}
	var chain rt.Addr
	return []func(){
		// A fresh chain, published later.
		func() {
			for k := 0; k < 8; k++ {
				a, ok := w.h.AllocObject(w.cls)
				if !ok {
					t.Fatal("alloc during drain")
				}
				w.h.SetFieldValue(a, offVal, rt.IntVal(int64(7000+k)))
				w.h.SetFieldValue(a, offLeft, rt.RefVal(chain))
				chain = a
			}
		},
		// Load: every rooted node's edges, through the barrier, each pair
		// of loads after an allocation (garbage), so every evacuation starts
		// a span.
		func() {
			for _, a := range nodes {
				if _, ok := w.h.AllocArray(false, 1); !ok {
					t.Fatal("alloc during drain")
				}
				w.h.FieldValue(a, offLeft, true)
				w.h.FieldValue(a, offRight, true)
			}
		},
		// Rewire: every rooted node's left edge points at its successor.
		func() {
			for i, a := range nodes {
				w.h.SetFieldValue(a, offLeft, rt.RefVal(nodes[(i+1)%n]))
			}
		},
		// Sever: half the right edges go null. Anything only reachable
		// through them dies mid-drain.
		func() {
			for i := 0; i < n; i += 2 {
				w.h.SetFieldValue(nodes[i], offRight, rt.NullVal)
			}
		},
		// Publish the chain via the first root.
		func() { w.h.SetFieldValue(nodes[0], offRight, rt.RefVal(chain)) },
		// Churn the ref arrays too (SetElem path).
		func() {
			for _, r := range w.roots {
				a := r.Ref()
				if a != rt.Null && w.h.IsArray(a) && w.h.ArrayElemIsRef(a) {
					w.h.SetElem(a, 0, rt.RefVal(nodes[n-1]))
				}
			}
		},
	}
}

// TestRelocDeferredPairs pins deferral: the pause creates a pair only where a root points at an updated instance, in its
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
		res, rl, err := c.CollectReloc(w)
		if err != nil {
			t.Fatalf("CollectReloc: %v", err)
		}
		// Deferral: the pause logged exactly one pair, the chain head
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

// TestRelocDeferredMoves: under deferral an updated-class instance whose
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

	res, stats, _ := runRelocCycle(t, w, New(w.h, w.reg), []int{1}, nil)
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

// TestRelocDrainToSpaceExhaustion: the pause fits (one root copy), but
// from-space was packed so full that the drain's evacuations, and the one
// widening pair among them, cannot — the drain must fail with the typed error,
// surfaced by Finish, and the relocation must report Failed (the engine marks
// the heap unusable).
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

	_, rl, err := New(w.h, w.reg).CollectReloc(w)
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
// the mutator with no quantum run.
func TestRelocForceDrainBeforeStart(t *testing.T) {
	w := buildWorld(t, 21, 1<<13)
	addUpdatedTo(t, w)
	res, rl, err := New(w.h, w.reg).CollectReloc(w)
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
	// The pause paired the rooted Nodes; the forced drain's work includes
	// healing what those copies hold.
	if stats.HealedSlots == 0 || res.PairsLogged == 0 {
		t.Fatalf("forced drain did no work: %+v", stats)
	}
	if err := WalkReachable(w.h, w.reg, w, func(rt.Addr, *rt.Class) error { return nil }); err != nil {
		t.Fatalf("post-drain heap audit: %v", err)
	}
}

// TestRelocNeverScansNewObjects: what the mutator allocates after the pause is
// born clean and lies between the drain's spans, never in one, so the drain's
// work is bounded by the live set at the pause. The same drain, in one-word
// quanta, scans exactly as many objects with an allocation before every
// quantum as with none.
func TestRelocNeverScansNewObjects(t *testing.T) {
	scans := func(allocate bool) int {
		w := buildWorld(t, 6, 1<<13)
		addUpdatedTo(t, w)
		c := New(w.h, w.reg)
		_, rl, err := c.CollectReloc(w)
		if err != nil {
			t.Fatalf("CollectReloc: %v", err)
		}
		rl.Start()
		for i := 0; !runQuantum(rl, []int{1}, i); i++ {
			if !allocate {
				continue
			}
			_, ok1 := w.h.AllocObject(w.cls)
			_, ok2 := w.h.AllocArray(true, 3)
			if !ok1 || !ok2 {
				t.Fatalf("to-space full after %d quanta: the drain is not catching up", i)
			}
		}
		if _, err := rl.Finish(); err != nil {
			t.Fatal(err)
		}
		return c.scans
	}
	if quiet, busy := scans(false), scans(true); quiet != busy || quiet == 0 {
		t.Fatalf("the drain scanned %d objects alone and %d beside an allocating mutator", quiet, busy)
	}
}

// TestRelocBacklogIsWords: the backlog is one unit, words. Right after Start
// it is exactly span 0 — to-space from the flip to the start — plus the
// pause's dirty tail old copies, word for word; it stays positive while the
// drain runs in one-word quanta, and is 0 once it is done.
func TestRelocBacklogIsWords(t *testing.T) {
	w := buildWorld(t, 4, 1<<13)
	addUpdatedTo(t, w)
	c := New(w.h, w.reg)
	res, rl, err := c.CollectReloc(w)
	if err != nil {
		t.Fatalf("CollectReloc: %v", err)
	}
	rl.Start()
	want := int(w.h.AllocPointer() - w.h.ScanStart())
	dirty := pauseDirty(w, res)
	for _, a := range dirty {
		want += w.reg.ClassByID(w.h.ClassID(a)).Size
	}
	if len(dirty) == 0 {
		t.Fatal("the pause left no dirty tail old copy: the test needs one")
	}
	if got := rl.Backlog(); got != want {
		t.Fatalf("backlog at start %d, want %d words", got, want)
	}
	for i := 0; !runQuantum(rl, []int{1}, i); i++ {
		if rl.Backlog() <= 0 {
			t.Fatalf("quantum %d: drain not done with backlog %d", i, rl.Backlog())
		}
	}
	if got := rl.Backlog(); got != 0 {
		t.Fatalf("done drain reports backlog %d", got)
	}
	if _, err := rl.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestRelocFlipGuard pins the from-space hold: flipping with the barrier
// armed would hand the held space to the allocator while stale slots still
// point into it.
func TestRelocFlipGuard(t *testing.T) {
	w := buildWorld(t, 5, 1<<13)
	_, rl, err := New(w.h, w.reg).CollectReloc(w)
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
// seeds, DSU-ness and the drain's quantum schedule (fuzzQuanta).
func FuzzRelocDrain(f *testing.F) {
	f.Add(int64(1), false, []byte(nil))
	f.Add(int64(2), true, []byte{1})
	f.Add(int64(3), true, []byte{1, 0})
	f.Add(int64(17), false, []byte{3, 200, 17})
	f.Fuzz(func(t *testing.T, seed int64, dsu bool, sched []byte) {
		runConcurrentEquivalence(t, seed, dsu, false, fuzzQuanta(sched))
	})
}
