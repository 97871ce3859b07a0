package core_test

import (
	"bytes"
	"testing"

	"govolve/internal/core"
	"govolve/internal/vm"
)

// End-to-end coverage of a Concurrent update: the DSU pause stops at flip
// preparation, the world resumes with from-space still live behind the
// self-healing load barrier, and the remaining live set is evacuated — its
// updated-class instances paired — in quanta between scheduler slices and by
// the mutator's loads, and transformed behind the lazy read barrier. The observable
// outcome (program output, update success, transformed state) must be
// identical to the fused stop-the-world pipeline's; only the pause
// decomposition and the drain-side stats differ.

// newRelocFixture builds a Concurrent fixture. lazy sets LazyTransform as
// well, which Concurrent implies: both spellings must behave alike.
func newRelocFixture(t *testing.T, heapWords int, lazy bool) *fixture {
	t.Helper()
	var out bytes.Buffer
	v, err := vm.New(vm.Options{
		HeapWords:     heapWords,
		Out:           &out,
		Concurrent:    true,
		LazyTransform: lazy,
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

// drain force-completes any in-flight relocation/lazy residue so the final
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

// TestConcurrentRelocPipelineEquivalence runs the update on a VM built with
// Concurrent alone and on one with LazyTransform spelled out too: both defer
// every pair the roots do not point at to the drain and run no object
// transformer in the pause.
func TestConcurrentRelocPipelineEquivalence(t *testing.T) {
	modes := []struct {
		name string
		lazy bool
	}{
		{"concurrent", false},
		{"concurrent+lazy", true},
	}
	for _, m := range modes {
		outSTW, resSTW := runRelocUpdate(newSerialFixture(t))

		rf := newRelocFixture(t, 1<<16, m.lazy)
		var atPause core.Stats
		rf.engine.AfterUpdate = func(res *core.Result) { atPause = res.Stats }
		outRel, resRel := runRelocUpdate(rf)
		// The program may finish before its slices' quanta run the drain
		// dry; force-complete so the stats below are final.
		rf.drain()

		if outSTW != outRel {
			t.Fatalf("%s: output diverged: STW %q, reloc %q",
				m.name, outSTW, outRel)
		}
		if outRel == "" {
			t.Fatalf("%s: empty program output", m.name)
		}

		s, c := resSTW.Stats, resRel.Stats
		if s.Relocated {
			t.Fatalf("%s: STW run flagged Relocated", m.name)
		}
		if !c.Relocated {
			t.Fatalf("%s: reloc run fell back to STW copy", m.name)
		}
		// The Pad ballast is live but not updated: it must have moved in
		// the concurrent drain, not in the pause.
		if c.Reloc.Objects == 0 {
			t.Fatalf("%s: concurrent drain relocated nothing: %+v",
				m.name, c)
		}
		if c.Reloc.Drain == 0 {
			t.Fatalf("%s: no drain time recorded", m.name)
		}
		// The pause pairs only the Nodes the statics point at and leaves
		// them pending; the rest are created by the drain and adopted into
		// the pair log one-for-one.
		if c.Reloc.DeferredPairs == 0 {
			t.Fatalf("%s: drain registered no deferred pairs", m.name)
		}
		if atPause.TransformedObjects != 0 || atPause.LazyPending == 0 || atPause.LazyPending != atPause.PairsLogged {
			t.Fatalf("%s: pause transformed %d objects and left %d of its %d pairs pending",
				m.name, atPause.TransformedObjects, atPause.LazyPending, atPause.PairsLogged)
		}
		// The pause copies shell + old copy per pair it makes and the objects
		// the roots point at, never the whole live set.
		pausePairs := c.PairsLogged - c.Reloc.DeferredPairs
		if pausePairs < 1 || c.CopiedObjects < 2*pausePairs {
			t.Fatalf("%s: pause copied %d objects for %d pairs",
				m.name, c.CopiedObjects, pausePairs)
		}
		if c.CopiedObjects >= s.CopiedObjects {
			t.Fatalf("%s: reloc pause copied %d ≥ STW's %d — copy never left the pause",
				m.name, c.CopiedObjects, s.CopiedObjects)
		}
		assertRetired(t, rf, false)
		// The VM must remain collectable and updatable after the drain.
		if _, err := rf.vm.CollectGarbage(); err != nil {
			t.Fatalf("%s: post-drain collection: %v", m.name, err)
		}
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
	rel := newRelocFixture(t, 1<<16, false)
	outSTW := run(stw)
	outRel := run(rel)
	if outSTW != outRel {
		t.Fatalf("output diverged across chained updates: STW %q, reloc %q", outSTW, outRel)
	}
	assertRetired(t, rel, false)
}

// TestRelocLazyDeferredPairs pins deferral end to end: discovery, pair
// creation and transformation all ride the drain and the read barrier, and
// every touched instance comes out transformed.
func TestRelocLazyDeferredPairs(t *testing.T) {
	f := newRelocFixture(t, 1<<16, true)
	v1 := f.load(relocV1)
	v2 := f.prog(relocV2)
	f.spawn("App")
	f.vm.Step(10)
	// The pause itself pairs only the Nodes the roots point at, and books them
	// pending behind the barrier it arms; everything else is discovered and
	// paired by the drain afterwards. Sampled as the pause ends: the first
	// touch after it adopts whatever the drain has created by then.
	applyPairs, applyPending := -1, -1
	f.engine.AfterUpdate = func(res *core.Result) {
		applyPairs, applyPending = res.Stats.PairsLogged, res.Stats.LazyPending
	}
	res := f.mustApply("1", v1, v2, "")
	out := f.finish()
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
