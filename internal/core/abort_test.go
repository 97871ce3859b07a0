package core_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"govolve/internal/classfile"
	"govolve/internal/core"
	"govolve/internal/gc"
	"govolve/internal/storm"
	"govolve/internal/upt"
	"govolve/internal/vm"
)

// TestAbortPathsLeaveVMServiceable drives every negative path of the
// update coordinator — wall-clock timeout, safe-point starvation via the
// restricted-method blacklist, transformer cycle detection, and verifier
// rejection of transformer bytecode that is broken beyond even the relaxed
// mode — and after each one requires the VM to be fully serviceable: the
// application threads keep running, no update debris (renamed classes,
// transformer classes, barriers) survives, the whole-VM invariant sweep
// passes, and a benign follow-up update still applies.
func TestAbortPathsLeaveVMServiceable(t *testing.T) {
	cases := []struct {
		name string
		// drive performs the failing update and asserts on its outcome.
		drive func(t *testing.T, f *fixture, v1 *fixtureProgs)
		// heapDead marks the one genuinely unrecoverable path: the DSU
		// collection itself OOMed, so the heap is gone by contract
		// (gc.ErrToSpaceExhausted). Metadata-cleanup checks still apply,
		// but heap-dependent serviceability (invariant sweep, follow-up
		// update) is replaced by fatal-OOM assertions.
		heapDead bool
		// fixture overrides the default stop-the-world VM.
		fixture func(t *testing.T) *fixture
	}{
		{
			name: "timeout",
			drive: func(t *testing.T, f *fixture, v1 *fixtureProgs) {
				// Change the method that never leaves the stack; with a
				// nanosecond budget the very first blocked attempt aborts.
				v2 := f.prog(strings.Replace(abortV1, "const 1\n    ifne top", "const 2\n    ifne top", 1))
				res, err := f.update("1", v1.prog, v2, "", core.Options{Timeout: time.Nanosecond})
				if err != nil {
					t.Fatal(err)
				}
				if res.Outcome != core.Aborted {
					t.Fatalf("outcome = %v, want Aborted via timeout", res.Outcome)
				}
			},
		},
		{
			name: "blacklist",
			drive: func(t *testing.T, f *fixture, v1 *fixtureProgs) {
				// Structurally the update is trivial (one added class), but
				// the blacklist restricts the pinned spin method, so no DSU
				// safe point is ever reachable.
				v2 := f.prog(abortV1 + "\nclass Extra {\n  static method e()I {\n    const 0\n    return\n  }\n}\n")
				res, err := f.update("1", v1.prog, v2, "", core.Options{MaxAttempts: 8},
					upt.MethodRef{Class: "Loop", Name: "spin", Sig: "()V"})
				if err != nil {
					t.Fatal(err)
				}
				if res.Outcome != core.Aborted {
					t.Fatalf("outcome = %v, want Aborted via blacklist", res.Outcome)
				}
			},
		},
		{
			name: "transformer cycle",
			drive: func(t *testing.T, f *fixture, v1 *fixtureProgs) {
				// Two Pair objects point at each other; a pathological
				// transformer force-transforms its peer first, so the peer's
				// transformer re-enters the first object mid-transform.
				v2 := f.prog(strings.Replace(abortV1, "field w I", "field w I\n  field extra I", 1))
				custom := `
class JvolveTransformers {
  static method jvolveObject(LPair;Lv1_Pair;)V {
    load 1
    getfield v1_Pair.peer LPair;
    ifnull done
    load 1
    getfield v1_Pair.peer LPair;
    invokestatic Jvolve.forceTransform(LObject;)V
  done:
    load 0
    load 1
    getfield v1_Pair.w I
    putfield Pair.w I
    return
  }
}
`
				res, err := f.update("1", v1.prog, v2, custom, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if res.Outcome != core.Failed || res.Err == nil ||
					!strings.Contains(res.Err.Error(), "transformer cycle detected") {
					t.Fatalf("outcome = %v err = %v, want transformer cycle failure", res.Outcome, res.Err)
				}
			},
		},
		{
			name: "OSR failure",
			drive: func(t *testing.T, f *fixture, v1 *fixtureProgs) {
				// An active-method update of the pinned spin loop whose
				// user-supplied locals map is bogus: the safe-point check
				// accepts the frame (every pc is mapped), so the failure
				// surfaces inside the pause, in OSRRewrite — after install
				// has renamed classes and loaded the transformer class. The
				// fail path must unwind all of it.
				v2 := f.prog(strings.Replace(abortV1, "const 1\n    ifne top", "const 1\n    nop\n    ifne top", 1))
				spec, err := f.updateSpec("1", v1.prog, v2)
				if err != nil {
					t.Fatal(err)
				}
				spec.AddActiveUpdate(upt.MethodRef{Class: "Loop", Name: "spin", Sig: "()V"},
					upt.ActivePCMap{
						PC:     map[int]int{0: 0, 1: 1, 2: 2, 3: 3},
						Locals: map[int]int{99: 0}, // slot 99 does not exist
					})
				res, err := f.engine.ApplyNow(spec, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if res.Outcome != core.Failed || res.Err == nil ||
					!strings.Contains(res.Err.Error(), "active-method update") {
					t.Fatalf("outcome = %v err = %v, want OSR rewrite failure", res.Outcome, res.Err)
				}
				// Regression: failed updates must publish their true pause
				// cost, not zero (the pause stopped the world either way).
				if res.Stats.PauseTotal <= 0 {
					t.Fatalf("failed update published PauseTotal = %v, want > 0", res.Stats.PauseTotal)
				}
				if res.Stats.PauseTotal < res.Stats.PauseInstall+res.Stats.PauseGC+res.Stats.PauseTransform {
					t.Fatalf("PauseTotal %v < install %v + gc %v + transform %v",
						res.Stats.PauseTotal, res.Stats.PauseInstall, res.Stats.PauseGC, res.Stats.PauseTransform)
				}
			},
		},
		{
			name:     "OOM during DSU copy",
			heapDead: true,
			drive: func(t *testing.T, f *fixture, v1 *fixtureProgs) {
				// Pin live Pair objects past ~70% of the semispace. With a
				// hand-written transformer the DSU collection must copy each
				// one twice (old copy + wider shell, ~2.25x its size), so
				// to-space exhausts mid-flight and the update fails with the
				// typed OOM. (As a move it would cost 1.25x and fit.)
				f.editSpec = handWrite
				cls := f.vm.Reg.LookupClass("Pair")
				for f.vm.Heap.UsedWords()*10 < f.vm.Heap.SemiWords()*7 {
					a, ok := f.vm.Heap.AllocObject(cls)
					if !ok {
						t.Fatal("heap filled before reaching the target fraction")
					}
					f.vm.PushHandle(a)
				}
				v2 := f.prog(strings.Replace(abortV1, "field w I", "field w I\n  field extra I", 1))
				res, err := f.update("1", v1.prog, v2, "", core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if res.Outcome != core.Failed {
					t.Fatalf("outcome = %v, want Failed via collection OOM", res.Outcome)
				}
				if !errors.Is(res.Err, gc.ErrToSpaceExhausted) {
					t.Fatalf("err = %v, want gc.ErrToSpaceExhausted in the chain", res.Err)
				}
			},
		},
		{
			name:     "follow-up update after a failed forced drain",
			heapDead: true,
			fixture:  func(t *testing.T) *fixture { return newRelocFixture(t, 1<<16, false) },
			drive: func(t *testing.T, f *fixture, v1 *fixtureProgs) {
				// Update 1 triples Pair on a crowded heap: its pause fits, its
				// relocation drain cannot. Update 2's handler force-completes
				// that drain first, which is where the exhaustion surfaces —
				// and the handler must stop there: installing classes and
				// flipping a heap whose slots still hold from-space addresses
				// would spread the damage.
				crowdHeap(f, f.vm.Reg.LookupClass("Pair"))
				wide := strings.Replace(abortV1, "field w I", "field w I\n  field g0 I\n  field g1 I\n  field g2 I\n  field g3 I\n  field g4 I\n  field g5 I\n  field g6 I\n  field g7 I", 1)
				v2 := f.prog(wide)
				f.mustApply("1", v1.prog, v2, "")
				flips := f.vm.GC.Collections
				v3 := f.prog(wide + "\nclass Followup {\n  static method ok()I {\n    const 7\n    return\n  }\n}\n")
				res, err := f.update("2", v2, v3, "", core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if res.Outcome != core.Failed || !errors.Is(res.Err, gc.ErrToSpaceExhausted) {
					t.Fatalf("outcome = %v err = %v, want Failed via the drain's exhaustion", res.Outcome, res.Err)
				}
				if f.vm.GC.Collections != flips {
					t.Fatalf("follow-up flipped a dead heap (%d → %d collections)", flips, f.vm.GC.Collections)
				}
				if f.vm.Reg.LookupClass("Followup") != nil || res.Stats.PauseTotal != 0 {
					t.Fatalf("follow-up installed on a dead heap (pause %v)", res.Stats.PauseTotal)
				}
				// From here on requests are refused before anything stops.
				if _, err := f.update("3", v2, v3, "", core.Options{}); err == nil ||
					!errors.Is(err, gc.ErrToSpaceExhausted) {
					t.Fatalf("request on a dead heap: err = %v, want refusal naming the cause", err)
				}
			},
		},
		{
			name: "transformer rejected by verifier",
			drive: func(t *testing.T, f *fixture, v1 *fixtureProgs) {
				// The transformer underflows the operand stack — illegal
				// even in relaxed mode, so the request must be refused
				// before the VM stops a single thread.
				v2 := f.prog(strings.Replace(abortV1, "field w I", "field w I\n  field extra I", 1))
				custom := `
class JvolveTransformers {
  static method jvolveObject(LPair;Lv1_Pair;)V {
    add
    return
  }
}
`
				_, err := f.update("1", v1.prog, v2, custom, core.Options{})
				if err == nil || !strings.Contains(err.Error(), "transformers rejected") {
					t.Fatalf("err = %v, want transformer verification rejection", err)
				}
			},
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, 1<<16)
			if tc.fixture != nil {
				f = tc.fixture(t)
			}
			v1 := &fixtureProgs{prog: f.load(abortV1)}
			f.spawn("App")
			f.vm.Step(8)

			tc.drive(t, f, v1)

			// --- serviceability, uniform across every path ---------------

			// 1. No update debris: renamed old versions, transformer class,
			//    pending flags, or return barriers.
			if f.vm.Reg.LookupClass("v1_Pair") != nil || f.vm.Reg.LookupClass("v1_Loop") != nil {
				t.Fatal("abort left renamed old classes registered")
			}
			if f.vm.Reg.LookupClass(upt.TransformersClassName) != nil {
				t.Fatal("abort left the transformer class registered")
			}
			if f.vm.UpdatePending() {
				t.Fatal("abort left the update-pending flag set")
			}

			if tc.heapDead {
				// The heap is unusable by contract: the flip happened and an
				// unknown subset of roots is forwarded. Heap-dependent
				// serviceability cannot hold; instead the VM must have gone
				// into the fatal-OOM regime.
				if f.vm.FatalHeap == nil {
					t.Fatal("collection failed but FatalHeap is not set")
				}
				if !errors.Is(f.vm.FatalHeap, gc.ErrToSpaceExhausted) {
					t.Fatalf("FatalHeap = %v, want gc.ErrToSpaceExhausted in the chain", f.vm.FatalHeap)
				}
				// Any thread that needs an allocation now dies with the
				// typed OOM, flagged distinctly in DeadErrors. Drain the
				// residual bump space so the next `new Pair` must collect.
				cls := f.vm.Reg.LookupClass("Pair")
				for {
					a, ok := f.vm.Heap.AllocObject(cls)
					if !ok {
						break
					}
					f.vm.PushHandle(a)
				}
				f.spawn("App")
				f.vm.Step(200)
				f.vm.ReapDeadThreads()
				found := false
				for _, de := range f.vm.DeadErrors {
					if de.OOM {
						found = true
						if !errors.Is(de.Err, gc.ErrToSpaceExhausted) {
							t.Fatalf("DeadError flagged OOM but err = %v", de.Err)
						}
					}
				}
				if !found {
					t.Fatalf("no DeadError flagged OOM after fatal collection (dead errors: %v)", f.vm.DeadErrors)
				}
				return
			}

			// 2. The whole-VM invariant sweep holds.
			if err := storm.CheckVM(f.vm); err != nil {
				t.Fatalf("invariant sweep after abort: %v", err)
			}

			// 3. Application threads are alive and keep making progress.
			f.vm.Step(50)
			for _, th := range f.vm.Threads {
				if th.Err != nil {
					t.Fatalf("thread %s errored after abort: %v", th.Name, th.Err)
				}
				if th.State == vm.Dead {
					t.Fatalf("thread %s died after abort", th.Name)
				}
			}

			// 4. A benign follow-up update (added class only — no
			//    restricted methods) still applies.
			v3 := f.prog(abortV1 + "\nclass Followup {\n  static method ok()I {\n    const 7\n    return\n  }\n}\n")
			res, err := f.update("2", v1.prog, v3, "", core.Options{})
			if err != nil {
				t.Fatalf("follow-up update: %v", err)
			}
			if res.Outcome != core.Applied {
				t.Fatalf("follow-up outcome = %v err = %v, want Applied", res.Outcome, res.Err)
			}
			if err := storm.CheckVM(f.vm); err != nil {
				t.Fatalf("invariant sweep after follow-up update: %v", err)
			}
		})
	}
}

// TestFailedUpdatePauseTotalRecorded pins the failure-path accounting fix:
// a transformer-phase failure reaches the pause's deepest phase, and the
// published stats must still satisfy PauseTotal ≥ install + gc + transform
// with every component non-zero where the phase actually ran. (Before the
// fix, failed updates published PauseTotal=0 alongside non-zero per-phase
// stats, skewing the pause histograms.)
func TestFailedUpdatePauseTotalRecorded(t *testing.T) {
	f := newFixture(t, 1<<16)
	v1 := &fixtureProgs{prog: f.load(abortV1)}
	f.spawn("App")
	f.vm.Step(8)

	v2 := f.prog(strings.Replace(abortV1, "field w I", "field w I\n  field extra I", 1))
	custom := `
class JvolveTransformers {
  static method jvolveObject(LPair;Lv1_Pair;)V {
    load 1
    getfield v1_Pair.peer LPair;
    ifnull done
    load 1
    getfield v1_Pair.peer LPair;
    invokestatic Jvolve.forceTransform(LObject;)V
  done:
    return
  }
}
`
	res, err := f.update("1", v1.prog, v2, custom, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != core.Failed {
		t.Fatalf("outcome = %v err = %v, want Failed via transformer cycle", res.Outcome, res.Err)
	}
	s := res.Stats
	if s.PauseInstall <= 0 || s.PauseGC <= 0 || s.PauseTransform <= 0 {
		t.Fatalf("failed update lost phase stats: install=%v gc=%v transform=%v",
			s.PauseInstall, s.PauseGC, s.PauseTransform)
	}
	if s.PauseTotal < s.PauseInstall+s.PauseGC+s.PauseTransform {
		t.Fatalf("PauseTotal %v < install %v + gc %v + transform %v",
			s.PauseTotal, s.PauseInstall, s.PauseGC, s.PauseTransform)
	}
}

// TestResidueTrapAtObjectK: an object transformer trapping in the middle of
// the pause's log walk fails the update with pairs on both sides of it — some
// transformed, one in progress, the rest pending. The one teardown must leave
// no pair word behind on any of them (assertRetired's invariant sweep walks
// every reachable object) and the VM serviceable: the program runs on with
// the untransformed objects at their defaults, and the next update applies.
func TestResidueTrapAtObjectK(t *testing.T) {
	f := newFixture(t, 1<<16)
	v1 := f.load(consV1)
	f.spawn("App")
	f.vm.Step(8)
	const trapAt7 = `
class JvolveTransformers {
  static method jvolveObject(LBox;Lv1_Box;)V {
    load 1
    getfield v1_Box.v I
    const 7
    if_icmpne copy
    trap "box 7"
  copy:
    load 0
    load 1
    getfield v1_Box.v I
    putfield Box.v I
    load 0
    load 1
    getfield v1_Box.next LBox;
    putfield Box.next LBox;
    return
  }
}
`
	v2 := f.prog(consV2(false))
	res, err := f.update("1", v1, v2, trapAt7, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != core.Failed || res.Err == nil || !strings.Contains(res.Err.Error(), "box 7") {
		t.Fatalf("outcome = %v err = %v, want Failed via the trap", res.Outcome, res.Err)
	}
	// TransformedObjects counts every transformer that ran, the trapping one included.
	if n := res.Stats.TransformedObjects; n <= 1 || n >= 20 || res.Stats.PairsLogged != 20 {
		t.Fatalf("%d of %d transformers ran up to the trap, want pairs on both sides of it",
			n, res.Stats.PairsLogged)
	}
	assertRetired(t, f, false)

	v3 := f.prog(consV2(false) + "\nclass Followup {\n  static method ok()I {\n    const 7\n    return\n  }\n}\n")
	f.mustApply("2", v2, v3, "")
	assertRetired(t, f, false)
	f.finish()
}

// fixtureProgs bundles the loaded v1 program for the table cases.
type fixtureProgs struct{ prog *classfile.Program }

// abortV1 is the shared baseline: a spinning thread that never leaves
// Loop.spin (safe-point starvation fodder) plus a pair of mutually linked
// heap objects (transformer cycle fodder).
const abortV1 = `
class Pair {
  field peer LPair;
  field w I
  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    return
  }
}
class Loop {
  static method spin()V {
  top:
    const 1
    ifne top
    return
  }
}
class App {
  static field a LPair;
  static method main()V {
    new Pair
    dup
    invokespecial Pair.<init>()V
    putstatic App.a LPair;
    new Pair
    dup
    invokespecial Pair.<init>()V
    getstatic App.a LPair;
    swap
    putfield Pair.peer LPair;
    getstatic App.a LPair;
    getfield Pair.peer LPair;
    getstatic App.a LPair;
    putfield Pair.peer LPair;
    invokestatic Loop.spin()V
    return
  }
}
`
