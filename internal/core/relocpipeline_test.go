package core_test

import (
	"bytes"
	"strings"
	"testing"

	"govolve/internal/core"
	"govolve/internal/vm"
)

// End-to-end coverage of a Concurrent update: the DSU pause stops at flip
// preparation, the world resumes with from-space still live behind the
// self-healing load barrier, and the remaining live set is evacuated — its
// updated-class instances paired — in quanta between scheduler slices and by
// the mutator's loads, and transformed behind the on-touch read barrier. The observable
// outcome (program output, update success, transformed state) must be
// identical to the fused stop-the-world pipeline's; only the pause
// decomposition and the drain-side stats differ.

// newRelocFixture builds a Concurrent fixture.
func newRelocFixture(t *testing.T, heapWords int) *fixture {
	t.Helper()
	var out bytes.Buffer
	v, err := vm.New(vm.Options{
		HeapWords:  heapWords,
		Out:        &out,
		Concurrent: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// These suites are about pairs — pending, draining, pair evacuation — so
	// every generated transformer is made hand-written; moved defaults under
	// the same pipelines are TestMovesMatchInterpreter's.
	return &fixture{t: t, vm: v, out: &out, engine: core.NewEngine(v), editSpec: handWrite}
}

// newSerialFixture is the stop-the-world reference, with the same
// hand-written transformers.
func newSerialFixture(t *testing.T) *fixture {
	f := newFixture(t, 1<<16)
	f.editSpec = handWrite
	return f
}

// drain force-completes any in-flight relocation/on-touch residue so the final
// stats are stamped and the heap is back to its quiescent state.
func (f *fixture) drain() {
	f.t.Helper()
	if err := f.engine.ForceDrain(); err != nil {
		f.t.Fatalf("ForceDrain: %v", err)
	}
}

// relocV1 is ringV1 with ballast: 300 Pad objects (a class the update does
// NOT touch) are linked into a static list before the Node ring is built.
// At the update's safe point the live set is therefore a mix — the pause
// eagerly evacuates only the Nodes, and the Pads are exactly the population
// the drain (quanta + load barrier) must move afterwards.
const relocV1 = `
class Pad {
  field a I
  field next LPad;
  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    return
  }
}
class Node {
  field val I
  field next LNode;
  method <init>(I)V {
    load 0
    invokespecial Object.<init>()V
    load 0
    load 1
    putfield Node.val I
    return
  }
}
class App {
  static field head LNode;
  static field first LNode;
  static field pads LPad;
  static method main()V {
    const 0
    store 0
  padloop:
    load 0
    const 300
    if_icmpge seed
    new Pad
    dup
    invokespecial Pad.<init>()V
    store 1
    load 1
    getstatic App.pads LPad;
    putfield Pad.next LPad;
    load 1
    putstatic App.pads LPad;
    load 0
    const 1
    add
    store 0
    goto padloop
  seed:
    new Node
    dup
    const 0
    invokespecial Node.<init>(I)V
    dup
    putstatic App.head LNode;
    putstatic App.first LNode;
    const 1
    store 0
  build:
    load 0
    const 200
    if_icmpge link
    new Node
    dup
    load 0
    invokespecial Node.<init>(I)V
    store 1
    load 1
    getstatic App.head LNode;
    putfield Node.next LNode;
    load 1
    putstatic App.head LNode;
    load 0
    const 1
    add
    store 0
    goto build
  link:
    getstatic App.first LNode;
    getstatic App.head LNode;
    putfield Node.next LNode;
    const 0
    store 0
  loop:
    load 0
    const 60000
    if_icmpge done
    getstatic App.head LNode;
    getfield Node.next LNode;
    putstatic App.head LNode;
    getstatic App.head LNode;
    getstatic App.head LNode;
    getfield Node.next LNode;
    getfield Node.next LNode;
    putfield Node.next LNode;
    load 0
    const 1
    add
    store 0
    goto loop
  done:
    getstatic App.head LNode;
    getfield Node.val I
    invokestatic System.printInt(I)V
    getstatic App.pads LPad;
    getfield Pad.a I
    invokestatic System.printInt(I)V
    return
  }
}
`

// relocV2 widens Node with a generation counter; Pad and App are unchanged,
// so the program's output is version-invariant.
const relocV2 = `
class Pad {
  field a I
  field next LPad;
  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    return
  }
}
class Node {
  field val I
  field next LNode;
  field gen I
  method <init>(I)V {
    load 0
    invokespecial Object.<init>()V
    load 0
    load 1
    putfield Node.val I
    return
  }
}
class App {
  static field head LNode;
  static field first LNode;
  static field pads LPad;
  static method main()V {
    const 0
    store 0
  padloop:
    load 0
    const 300
    if_icmpge seed
    new Pad
    dup
    invokespecial Pad.<init>()V
    store 1
    load 1
    getstatic App.pads LPad;
    putfield Pad.next LPad;
    load 1
    putstatic App.pads LPad;
    load 0
    const 1
    add
    store 0
    goto padloop
  seed:
    new Node
    dup
    const 0
    invokespecial Node.<init>(I)V
    dup
    putstatic App.head LNode;
    putstatic App.first LNode;
    const 1
    store 0
  build:
    load 0
    const 200
    if_icmpge link
    new Node
    dup
    load 0
    invokespecial Node.<init>(I)V
    store 1
    load 1
    getstatic App.head LNode;
    putfield Node.next LNode;
    load 1
    putstatic App.head LNode;
    load 0
    const 1
    add
    store 0
    goto build
  link:
    getstatic App.first LNode;
    getstatic App.head LNode;
    putfield Node.next LNode;
    const 0
    store 0
  loop:
    load 0
    const 60000
    if_icmpge done
    getstatic App.head LNode;
    getfield Node.next LNode;
    putstatic App.head LNode;
    getstatic App.head LNode;
    getstatic App.head LNode;
    getfield Node.next LNode;
    getfield Node.next LNode;
    putfield Node.next LNode;
    load 0
    const 1
    add
    store 0
    goto loop
  done:
    getstatic App.head LNode;
    getfield Node.val I
    invokestatic System.printInt(I)V
    getstatic App.pads LPad;
    getfield Pad.a I
    invokestatic System.printInt(I)V
    return
  }
}
`

// runRelocUpdate drives the ballasted ring workload through one update,
// landing it after the Pad list and most of the ring exist (the churn loop
// keeps rewriting ref slots while the drain runs — exactly the traffic the
// self-healing barrier must absorb), and returns (program output, result).
func runRelocUpdate(f *fixture) (string, *core.Result) {
	f.t.Helper()
	v1 := f.load(relocV1)
	v2 := f.prog(relocV2)
	f.spawn("App")
	f.vm.Step(10)
	res := f.mustApply("1", v1, v2, "")
	return f.finish(), res
}

// TestConcurrentRelocPipelineEquivalence runs the update stop-the-world and
// in the concurrent mode: the concurrent one defers every pair the roots do
// not point at to the drain and runs no object transformer in the pause, and
// both end with the same output.
func TestConcurrentRelocPipelineEquivalence(t *testing.T) {
	outSTW, resSTW := runRelocUpdate(newSerialFixture(t))

	rf := newRelocFixture(t, 1<<16)
	var atPause core.Stats
	rf.engine.AfterUpdate = func(res *core.Result) { atPause = res.Stats }
	outRel, resRel := runRelocUpdate(rf)
	// The program may finish before its slices' quanta run the drain
	// dry; force-complete so the stats below are final.
	rf.drain()

	if outSTW != outRel {
		t.Fatalf("output diverged: STW %q, reloc %q", outSTW, outRel)
	}
	if outRel == "" {
		t.Fatal("empty program output")
	}

	s, c := resSTW.Stats, resRel.Stats
	if s.Relocated {
		t.Fatal("STW run flagged Relocated")
	}
	if !c.Relocated {
		t.Fatal("reloc run fell back to STW copy")
	}
	// The Pad ballast is live but not updated: it must have moved in
	// the concurrent drain, not in the pause.
	if c.Reloc.Objects == 0 {
		t.Fatalf("concurrent drain relocated nothing: %+v", c)
	}
	if c.Reloc.Drain == 0 {
		t.Fatal("no drain time recorded")
	}
	// The pause pairs only the Nodes the statics point at and leaves
	// them pending; the rest are created by the drain and adopted into
	// the pair log one-for-one.
	if c.Reloc.DeferredPairs == 0 {
		t.Fatal("drain registered no deferred pairs")
	}
	if atPause.TransformedObjects != 0 || atPause.LazyPending == 0 || atPause.LazyPending != atPause.PairsLogged {
		t.Fatalf("pause transformed %d objects and left %d of its %d pairs pending",
			atPause.TransformedObjects, atPause.LazyPending, atPause.PairsLogged)
	}
	// The pause copies shell + old copy per pair it makes and the objects
	// the roots point at, never the whole live set.
	pausePairs := c.PairsLogged - c.Reloc.DeferredPairs
	if pausePairs < 1 || c.CopiedObjects < 2*pausePairs {
		t.Fatalf("pause copied %d objects for %d pairs", c.CopiedObjects, pausePairs)
	}
	if c.CopiedObjects >= s.CopiedObjects {
		t.Fatalf("reloc pause copied %d ≥ STW's %d — copy never left the pause",
			c.CopiedObjects, s.CopiedObjects)
	}
	assertRetired(t, rf, false)
	// The VM must remain collectable and updatable after the drain.
	if _, err := rf.vm.CollectGarbage(); err != nil {
		t.Fatalf("post-drain collection: %v", err)
	}
}

// TestRelocFollowUpUpdate pins the update-during-drain path: a second update
// arriving while the first one's relocation drain is in flight must
// force-complete that drain and then apply cleanly. The program output must match a VM that took both updates
// stop-the-world.
func TestRelocFollowUpUpdate(t *testing.T) {
	run := func(f *fixture) string {
		f.t.Helper()
		v1 := f.load(relocV1)
		v2 := f.prog(relocV2)
		f.spawn("App")
		f.vm.Step(10)
		f.mustApply("1", v1, v2, "")
		f.vm.Step(2)
		f.mustApply("2", v2, f.prog(relocV2), "")
		out := f.finish()
		f.drain()
		return out
	}
	stw := newSerialFixture(t)
	rel := newRelocFixture(t, 1<<16)
	outSTW := run(stw)
	outRel := run(rel)
	if outSTW != outRel {
		t.Fatalf("output diverged across chained updates: STW %q, reloc %q", outSTW, outRel)
	}
	assertRetired(t, rel, false)
}

// listV1 builds a 600-Node list behind one static, then walks it twice,
// idling between hops. The pause pairs only the head. After it the walk's
// first hops heal old copies' next slots (the load barrier evacuates, pairing
// the next Node) and transform what they touch (the read barrier); between
// slices each drain quantum pairs a batch of Nodes ahead of the walk, which
// the next touch adopts at once — and the relocation's end adopts the rest.
const listV1 = `
class Node {
  field val I
  field next LNode;
  method <init>(I)V {
    load 0
    invokespecial Object.<init>()V
    load 0
    load 1
    putfield Node.val I
    return
  }
}
class App {
  static field head LNode;
  static method main()V {
    const 0
    store 0
  build:
    load 0
    const 600
    if_icmpge walk
    new Node
    dup
    load 0
    invokespecial Node.<init>(I)V
    store 1
    load 1
    getstatic App.head LNode;
    putfield Node.next LNode;
    load 1
    putstatic App.head LNode;
    load 0
    const 1
    add
    store 0
    goto build
  walk:
    const 0
    store 2
  round:
    load 2
    const 2
    if_icmpge done
    getstatic App.head LNode;
    store 1
  hop:
    load 1
    ifnull next
    const 0
    store 3
  idle:
    load 3
    const 20
    if_icmpge step
    load 3
    const 1
    add
    store 3
    goto idle
  step:
    load 1
    getfield Node.next LNode;
    store 1
    goto hop
  next:
    load 2
    const 1
    add
    store 2
    goto round
  done:
    getstatic App.head LNode;
    getfield Node.val I
    invokestatic System.printInt(I)V
    return
  }
}
`

// TestRelocLazyDeferredPairs pins deferral end to end: discovery, pair
// creation and transformation all ride the drain and the read barrier, and
// every touched instance comes out transformed. It also pins the order the
// residue relies on instead of sorting: the pair log is in shell-address
// order — strictly ascending New — mid-drain, with barrier evacuations and
// touches between the quanta, and at the end.
func TestRelocLazyDeferredPairs(t *testing.T) {
	f := newRelocFixture(t, 1<<16)
	v1 := f.load(listV1)
	v2 := f.prog(strings.Replace(listV1, "field next LNode;", "field next LNode;\n  field gen I", 1))
	f.spawn("App")
	f.vm.Step(40) // the list is built; the walk has begun
	// The pause itself pairs only the Nodes the roots point at, and books them
	// pending behind the barrier it arms; everything else is discovered and
	// paired by the drain afterwards. Sampled as the pause ends: the first
	// touch after it adopts whatever the drain has created by then.
	applyPairs, applyPending := -1, -1
	f.engine.AfterUpdate = func(res *core.Result) {
		applyPairs, applyPending = res.Stats.PairsLogged, res.Stats.LazyPending
	}
	res := f.mustApply("1", v1, v2, "")
	ascending := func(when string) int {
		t.Helper()
		pairs := f.vm.Residue.Pairs()
		for i := 1; i < len(pairs); i++ {
			if pairs[i].New <= pairs[i-1].New {
				t.Fatalf("%s: pair %d's shell @%d follows @%d", when, i, pairs[i].New, pairs[i-1].New)
			}
		}
		return len(pairs)
	}
	// One scheduler slice at a time: each runs a drain quantum and lets the
	// program's ring walk evacuate through the load barrier and transform
	// through the read barrier.
	grew := false
	for i := 0; f.vm.DrainActive() && f.vm.Heap.RelocArmed(); i++ {
		if i > 1<<16 {
			t.Fatal("relocation never ran dry")
		}
		grew = ascending("mid-drain") > applyPairs || grew
		f.vm.Step(1)
	}
	if !grew {
		t.Fatal("no mid-drain sample saw the drain's pairs")
	}
	if f.vm.DrainActive() {
		ascending("relocation finished")
	}
	out := f.finish()
	if f.vm.DrainActive() {
		ascending("program finished")
	}
	f.drain()
	if out == "" {
		t.Fatal("empty program output")
	}
	st := res.Stats
	if st.Reloc.DeferredPairs == 0 {
		t.Fatalf("drain registered no deferred pairs: %+v", st)
	}
	if st.LazyDrained+st.LazyForced == 0 {
		t.Fatalf("no deferred instance was ever transformed: %+v", st)
	}
	if applyPairs < 1 || applyPending != applyPairs {
		t.Fatalf("pause made %d pairs for the roots' Nodes and booked %d of them pending", applyPairs, applyPending)
	}
	if applyPairs >= st.PairsLogged {
		t.Fatalf("drain created no pairs beyond the pause's %d (final %d)", applyPairs, st.PairsLogged)
	}
	if st.LazyDrained+st.LazyForced != st.LazyPending || st.LazyPending != st.PairsLogged {
		t.Fatalf("drained %d + forced %d of %d pending, %d pairs logged",
			st.LazyDrained, st.LazyForced, st.LazyPending, st.PairsLogged)
	}
	if st.TransformedObjects != st.PairsLogged {
		t.Fatalf("conservation broken after terminal drain: transformed %d != pairs logged %d",
			st.TransformedObjects, st.PairsLogged)
	}
	assertRetired(t, f, false)
}
