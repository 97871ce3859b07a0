package core_test

import (
	"bytes"
	"strings"
	"testing"

	"govolve/internal/core"
	"govolve/internal/upt"
	"govolve/internal/vm"
)

// End-to-end coverage of the concurrent-mark half of a Concurrent update: the
// engine starts a snapshot-at-the-beginning trace on the update request, lets
// the program keep mutating the heap while the tracer runs, and consumes the
// sealed result at the safe point. The observable outcome (program output,
// update success, transformed state) must be identical to the fused
// stop-the-world pipeline's; only the pause decomposition differs. (The
// relocation half is relocpipeline_test.go's.)

func newMarkFixture(t *testing.T, heapWords int, concurrent bool) *fixture {
	t.Helper()
	var out bytes.Buffer
	v, err := vm.New(vm.Options{
		HeapWords:  heapWords,
		Out:        &out,
		Concurrent: concurrent,
	})
	if err != nil {
		t.Fatal(err)
	}
	// These suites are about pairs — pending, draining, pair evacuation — so
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

// runRingUpdate drives the ring workload (ringV1 → ringV2, or an edit of the
// pair) through one update on f and returns (program output, update result).
func runRingUpdate(f *fixture, ringV1, ringV2 string) (string, *core.Result) {
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
	outSTW, resSTW := runRingUpdate(stw, ringV1, ringV2)

	cm := newMarkFixture(t, 1<<16, true)
	outCM, resCM := runRingUpdate(cm, ringV1, ringV2)

	if outSTW != outCM {
		t.Fatalf("output diverged: STW %q, concurrent %q", outSTW, outCM)
	}
	if outCM == "" {
		t.Fatal("empty program output")
	}

	s, c := resSTW.Stats, resCM.Stats
	if s.MarkConcurrent {
		t.Fatal("STW run flagged MarkConcurrent")
	}
	// Uniform decomposition: the STW collector's fused trace+copy is
	// reported as copy time.
	if s.PauseCopy == 0 || s.PauseRescan != 0 || s.MarkOutside != 0 || s.RescanMarked != 0 {
		t.Fatalf("STW decomposition wrong: %+v", s)
	}
	if !c.MarkConcurrent {
		t.Fatal("concurrent run fell back to STW discovery")
	}
	if c.MarkOutside == 0 {
		t.Fatal("concurrent run reports no outside-pause mark time")
	}
	if c.MarkedObjects == 0 {
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
	if got := c.PauseRescan + c.PauseCopy; got > c.PauseGC {
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
	outSTW, res2 := runRingUpdate(f2, ringV1, ringV2)
	if res2.Outcome != core.Applied || outSTW == "" {
		t.Fatalf("follow-up update failed: %v", res2.Err)
	}
}

// TestConcurrentMarkGivesUp pins the bounded-restart path. Both loops of the
// ring program are made to allocate more than a semispace of garbage per
// scheduling slice, so a plain collection flips the heap between every two
// polls and invalidates each snapshot the engine takes. After the fourth the
// engine gives up on the mark, and that one update is the stop-the-world
// collection: applied, nothing concurrent about it, no barrier left armed, and
// the program ends as it does on a serial VM.
func TestConcurrentMarkGivesUp(t *testing.T) {
	const garbage = "    const 512\n    newarray I\n    pop\n"
	churn := strings.NewReplacer("  build:\n", "  build:\n"+garbage, "  loop:\n", "  loop:\n"+garbage)
	v1, v2 := churn.Replace(ringV1), churn.Replace(ringV2)

	outSerial, resSerial := runRingUpdate(newMarkFixture(t, 1<<12, false), v1, v2)
	f := newMarkFixture(t, 1<<12, true)
	out, res := runRingUpdate(f, v1, v2)

	if res.Outcome != core.Applied || resSerial.Outcome != core.Applied {
		t.Fatalf("outcomes: concurrent %v (%v), serial %v (%v)", res.Outcome, res.Err, resSerial.Outcome, resSerial.Err)
	}
	s := res.Stats
	if s.MarkRestarts != 4 {
		t.Fatalf("MarkRestarts = %d, want 4: one more than the engine tolerates", s.MarkRestarts)
	}
	if s.MarkConcurrent || s.Relocated || s.MarkOutside != 0 || s.Reloc.Objects != 0 {
		t.Fatalf("the give-up update still reports concurrent work: %+v", s)
	}
	if s.PairsLogged == 0 || s.TransformedObjects != s.PairsLogged {
		t.Fatalf("%d pairs logged, %d transformed inside the pause", s.PairsLogged, s.TransformedObjects)
	}
	if f.vm.Heap.RelocArmed() || f.vm.Heap.SATBArmed() || f.vm.GC.MarkActive() || f.vm.DrainActive() {
		t.Fatal("a barrier, a marker or a residue outlived the update")
	}
	if out == "" || out != outSerial {
		t.Fatalf("output diverged: serial %q, concurrent after giving up %q", outSerial, out)
	}
}
