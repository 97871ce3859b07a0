package core_test

import (
	"bytes"
	"testing"

	"govolve/internal/core"
	"govolve/internal/upt"
	"govolve/internal/vm"
)

// End-to-end coverage of the concurrent-mark update pipeline: the engine
// starts a snapshot-at-the-beginning trace on the update request, lets the
// program keep mutating the heap while the tracer runs, and consumes the
// sealed result at the safe point. The observable outcome (program output,
// update success, transformed state) must be identical to the fused
// stop-the-world pipeline's; only the pause decomposition differs.

func newMarkFixture(t *testing.T, heapWords int, concurrent bool) *fixture {
	t.Helper()
	var out bytes.Buffer
	v, err := vm.New(vm.Options{
		HeapWords:        heapWords,
		Out:              &out,
		GCConcurrentMark: concurrent,
	})
	if err != nil {
		t.Fatal(err)
	}
	// These suites are about pairs — tagging, draining, pair evacuation — so
	// every generated transformer is made hand-written; moved defaults under
	// the same pipelines are TestMovesMatchInterpreter's.
	return &fixture{t: t, vm: v, out: &out, engine: core.NewEngine(v), editSpec: handWrite}
}

// ringV1 builds a 200-node ring, then spends 60000 slices rotating the head
// and unlinking one node per iteration — every iteration overwrites heap ref
// slots, which is exactly the traffic the SATB deletion barrier must log
// while the concurrent mark traces.
const ringV1 = `
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
  static method main()V {
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
    return
  }
}
`

// ringV2 widens Node with a generation counter; App is unchanged, so the
// program's output is version-invariant and the two pipelines must print the
// same value no matter which slice the update lands on.
const ringV2 = `
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
  static method main()V {
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
    return
  }
}
`

// runRingUpdate drives the ring workload through one update on f and returns
// (program output, update result).
func runRingUpdate(f *fixture) (string, *core.Result) {
	f.t.Helper()
	v1 := f.load(ringV1)
	v2 := f.prog(ringV2)
	f.spawn("App")
	f.vm.Step(2) // land early: the ring is still being built and churned
	res := f.mustApply("1", v1, v2, "")
	return f.finish(), res
}

func TestConcurrentMarkPipelineEquivalence(t *testing.T) {
	stw := newMarkFixture(t, 1<<16, false)
	outSTW, resSTW := runRingUpdate(stw)

	cm := newMarkFixture(t, 1<<16, true)
	outCM, resCM := runRingUpdate(cm)

	if outSTW != outCM {
		t.Fatalf("output diverged: STW %q, concurrent %q", outSTW, outCM)
	}
	if outCM == "" {
		t.Fatal("empty program output")
	}

	s, c := resSTW.Stats, resCM.Stats
	if s.GCMarkConcurrent {
		t.Fatal("STW run flagged GCMarkConcurrent")
	}
	// Uniform decomposition: the STW collectors' fused trace+copy is
	// reported as copy time, with the mark slice reserved for collections
	// that run a distinct in-pause trace.
	if s.PauseGCMark != 0 || s.PauseGCCopy == 0 || s.GCMarkOutside != 0 || s.GCRescanMarked != 0 {
		t.Fatalf("STW decomposition wrong: %+v", s)
	}
	if !c.GCMarkConcurrent {
		t.Fatal("concurrent run fell back to STW discovery")
	}
	if c.PauseGCMark != 0 {
		t.Fatalf("concurrent run reports in-pause mark %v", c.PauseGCMark)
	}
	if c.GCMarkOutside == 0 {
		t.Fatal("concurrent run reports no outside-pause mark time")
	}
	if c.GCMarkedObjects == 0 {
		t.Fatal("concurrent mark discovered nothing")
	}
	if c.TransformedObjects == 0 || s.TransformedObjects == 0 {
		t.Fatalf("no objects transformed (STW %d, concurrent %d)",
			s.TransformedObjects, c.TransformedObjects)
	}
	// The concurrent trace may additionally pair floating garbage — dead
	// ring nodes that died mid-trace — but never fewer than the ~200 live
	// nodes plus the ring's survivors.
	if c.PairsLogged < 1 {
		t.Fatal("concurrent run paired nothing")
	}
	if got := c.PauseGCRescan + c.PauseGCCopy; got > c.PauseGC {
		t.Fatalf("rescan+copy %v exceeds PauseGC %v", got, c.PauseGC)
	}
	if cm.vm.Heap.SATBArmed() {
		t.Fatal("barrier left armed after update")
	}
}

// TestConcurrentMarkAbortDisarms pins the discard path: an update that never
// reaches its safe point (blacklisted method always on stack) must abort
// with the snapshot discarded and the write barrier disarmed, leaving the
// program to finish on the old version unharmed.
func TestConcurrentMarkAbortDisarms(t *testing.T) {
	f := newMarkFixture(t, 1<<16, true)
	v1 := f.load(ringV1)
	v2 := f.prog(ringV2)
	f.spawn("App")
	f.vm.Step(2)
	res, err := f.update("1", v1, v2, "",
		core.Options{MaxAttempts: 3},
		upt.MethodRef{Class: "App", Name: "main", Sig: "()V"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != core.Aborted {
		t.Fatalf("outcome = %v (err %v), want Aborted", res.Outcome, res.Err)
	}
	if f.vm.Heap.SATBArmed() {
		t.Fatal("barrier left armed after aborted update")
	}
	if f.vm.GC.MarkActive() {
		t.Fatal("collector still holds a marker after aborted update")
	}
	if out := f.finish(); out == "" {
		t.Fatal("program did not finish on the old version")
	}
	// The VM must remain updatable: the same update without the blacklist
	// applies cleanly, concurrent mark and all.
	f2 := newMarkFixture(t, 1<<16, true)
	outSTW, res2 := runRingUpdate(f2)
	if res2.Outcome != core.Applied || outSTW == "" {
		t.Fatalf("follow-up update failed: %v", res2.Err)
	}
}
