package core_test

import (
	"strings"
	"testing"

	"govolve/internal/core"
	"govolve/internal/storm"
	"govolve/internal/vm"
)

// The on-touch half of the concurrent mode (the paper's §5 on-first-use
// hybrid, named lazy here as in the Lazy* statistics): updated instances
// leave the pause pending and transform on first touch behind the read
// barrier, or when the drain is forced. Both Boxes below are static roots, so
// the pause pairs them itself; the relocation only moves the rest.

// lazyV1: two Box instances pinned in statics, set to 7 and 9, a long spin
// loop (the update window), then a read of a.v — the touch that fires the
// read barrier.
const lazyV1 = `
class Box {
  field v I
  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    return
  }
}
class App {
  static field a LBox;
  static field b LBox;
  static method main()V {
    new Box
    dup
    invokespecial Box.<init>()V
    putstatic App.a LBox;
    new Box
    dup
    invokespecial Box.<init>()V
    putstatic App.b LBox;
    getstatic App.a LBox;
    const 7
    putfield Box.v I
    getstatic App.b LBox;
    const 9
    putfield Box.v I
    const 0
    store 0
  loop:
    load 0
    const 60000
    if_icmpge done
    load 0
    const 1
    add
    store 0
    goto loop
  done:
    getstatic App.a LBox;
    getfield Box.v I
    invokestatic System.printInt(I)V
    return
  }
}
`

// rawBoxV reads a Box static's v field straight from the heap (no barrier).
func rawBoxV(t *testing.T, f *fixture, static string) int64 {
	t.Helper()
	app := f.vm.Reg.LookupClass("App")
	sf := app.StaticField(static)
	if sf == nil {
		t.Fatalf("App.%s missing", static)
	}
	a := f.vm.Reg.JTOC[sf.Slot].Ref()
	box := f.vm.Reg.ClassByID(f.vm.Heap.ClassID(a))
	fl := box.Field("v")
	if fl == nil {
		t.Fatalf("%s has no field v", box.Name)
	}
	return f.vm.Heap.FieldValue(a, fl.Offset, false).Int()
}

// TestLazyTransformDrainsOnTouch is the tentpole's end-to-end contract: the
// pause ends with every pair pending (TransformedObjects=0, transform share
// of the pause ≈ 0), the renamed old version and the old copies outlive the
// pause under a drain-aware CheckVM, the read barrier transforms exactly
// what the program touches, and ForceDrain retires the rest — converging on
// the same final heap state and output as an eager run.
func TestLazyTransformDrainsOnTouch(t *testing.T) {
	f := newRelocFixture(t, 1<<16)
	v1 := f.load(lazyV1)
	v2 := f.prog(strings.Replace(lazyV1, "class Box {\n  field v I",
		"class Box {\n  field pad LString;\n  field v I", 1))
	f.spawn("App")
	f.vm.Step(1)

	res := f.mustApply("1", v1, v2, "")
	if res.Stats.LazyPending != 2 {
		t.Fatalf("LazyPending = %d, want 2", res.Stats.LazyPending)
	}
	if res.Stats.TransformedObjects != 0 {
		t.Fatalf("pause transformed %d objects in the concurrent mode, want 0", res.Stats.TransformedObjects)
	}
	if !f.vm.DrainActive() {
		t.Fatal("drain not active after a concurrent update")
	}
	// Mid-drain the renamed old version and the old copies must survive
	// (the drain needs them), and the drain-aware sweep must hold.
	if f.vm.Reg.LookupClass("v1_Box") == nil {
		t.Fatal("drain dropped the renamed old version it still needs")
	}
	for _, p := range f.vm.Residue.Pairs() {
		if h := f.vm.Heap; !h.InTail(p.OldCopy) && !h.InCurrentSpace(p.OldCopy) {
			t.Fatalf("pending pair's old copy @%d is neither in the tail nor in the current space", p.OldCopy)
		}
	}
	if err := storm.CheckVM(f.vm); err != nil {
		t.Fatalf("mid-drain invariant sweep: %v", err)
	}

	// The program touches a (prints its v) but never b.
	if got := strings.TrimSpace(f.finish()); got != "7" {
		t.Fatalf("output = %q, want 7 (field carried through on-touch transform)", got)
	}
	if res.Stats.LazyDrained != 1 {
		t.Fatalf("LazyDrained = %d, want 1 (only a was touched)", res.Stats.LazyDrained)
	}
	if !f.vm.DrainActive() {
		t.Fatal("drain retired early: b was never touched")
	}

	if err := f.engine.ForceDrain(); err != nil {
		t.Fatalf("ForceDrain: %v", err)
	}
	if res.Stats.LazyForced != 1 || res.Stats.LazyDrained != 1 {
		t.Fatalf("drained/forced = %d/%d, want 1/1", res.Stats.LazyDrained, res.Stats.LazyForced)
	}
	if res.Stats.TransformedObjects != 2 {
		t.Fatalf("TransformedObjects = %d after drain, want 2 (eager count)", res.Stats.TransformedObjects)
	}
	// Post-drain the VM must be indistinguishable from an eager update, and
	// the untouched object's field carried by the (forced) default
	// transformer.
	assertRetired(t, f, false)
	if got := rawBoxV(t, f, "b"); got != 9 {
		t.Fatalf("b.v = %d after forced drain, want 9", got)
	}
}

// TestLazyEagerSameOutput pins observational equivalence at the fixture
// level (the storm test covers it at scale): the same program and update
// produce identical output and identical final field values in the serial
// and the concurrent mode. In the second row a class transformer reads a
// field of a pending instance: the serial mode walks the object log only
// after the class transformers, so it reads the shell's default, and the
// concurrent mode must too — which pins where the read barrier is armed:
// after the class transformers, not when the residue is attached.
func TestLazyEagerSameOutput(t *testing.T) {
	const classReads = `
class JvolveTransformers {
  static method jvolveClass(LBox;)V {
    getstatic App.a LBox;
    getfield Box.v I
    putstatic Box.seen I
    return
  }
}
`
	for _, row := range []struct{ name, box, custom string }{
		{"object transformers", "field pad LString;", ""},
		{"class transformer reads a pending instance", "field pad LString;\n  static field seen I", classReads},
	} {
		run := func(concurrent bool) (out string, b, seen int64) {
			f := newSerialFixture(t) // pairs in both placements
			if concurrent {
				f = newRelocFixture(t, 1<<16)
			}
			v1 := f.load(lazyV1)
			v2 := f.prog(strings.Replace(lazyV1, "class Box {\n  field v I",
				"class Box {\n  "+row.box+"\n  field v I", 1))
			f.spawn("App")
			f.vm.Step(1)
			f.mustApply("1", v1, v2, row.custom)
			out = strings.TrimSpace(f.finish())
			if err := f.engine.ForceDrain(); err != nil {
				t.Fatalf("ForceDrain: %v", err)
			}
			if sf := f.vm.Reg.LookupClass("Box").StaticField("seen"); sf != nil {
				seen = f.vm.Reg.JTOC[sf.Slot].Int()
			}
			return out, rawBoxV(t, f, "b"), seen
		}
		eagerOut, eagerB, eagerSeen := run(false)
		lazyOut, lazyB, lazySeen := run(true)
		if eagerOut != lazyOut || eagerB != lazyB || eagerSeen != lazySeen {
			t.Fatalf("%s: serial (out=%q b=%d seen=%d) != concurrent (out=%q b=%d seen=%d)",
				row.name, eagerOut, eagerB, eagerSeen, lazyOut, lazyB, lazySeen)
		}
	}
}

// lazyCycleV1 builds two mutually linked Pair objects, spins, then touches
// one — in the concurrent mode the touch runs the (pathological) transformer
// from barrier context.
const lazyCycleV1 = `
class Pair {
  field peer LPair;
  field w I
  method <init>()V {
    load 0
    invokespecial Object.<init>()V
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
    const 0
    store 0
  loop:
    load 0
    const 60000
    if_icmpge done
    load 0
    const 1
    add
    store 0
    goto loop
  done:
    getstatic App.a LPair;
    getfield Pair.w I
    invokestatic System.printInt(I)V
    return
  }
}
`

// TestLazyBarrierCycleLeavesVMServiceable: a transformer cycle detected
// from read-barrier context (post-pause!) kills only the touching thread;
// the drain completes done-with-defaults, the VM stays serviceable, and a
// follow-up update still applies. The eager analogue fails the whole
// update; on touch the update is already committed, so the failure is scoped
// to data loss plus the toucher.
func TestLazyBarrierCycleLeavesVMServiceable(t *testing.T) {
	f := newRelocFixture(t, 1<<16)
	v1 := f.load(lazyCycleV1)
	v2 := f.prog(strings.Replace(lazyCycleV1, "field w I", "field w I\n  field extra I", 1))
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
	f.spawn("App")
	f.vm.Step(1)
	res := f.mustApply("1", v1, v2, custom)
	// The pause pairs the static's Pair; the relocation pairs its peer.
	if res.Stats.LazyPending != 1 {
		t.Fatalf("LazyPending = %d at the pause's end, want 1", res.Stats.LazyPending)
	}

	// Resume: main's getfield fires the barrier, the transformer chain
	// cycles, and the touching thread dies with the cycle error.
	if err := f.vm.Run(); err != nil {
		t.Fatal(err)
	}
	var killed *vm.Thread
	for _, th := range f.vm.Threads {
		if th.Err != nil {
			killed = th
		}
	}
	if killed == nil || !strings.Contains(killed.Err.Error(), "cycle") {
		t.Fatalf("touching thread not killed by cycle detection (threads: %v)", f.vm.Threads)
	}

	// The cycle unwound done-with-defaults: both chain members retired, so
	// the drain completed and the VM is clean.
	assertRetired(t, f, false)
	if s := res.Stats; s.LazyPending != 2 || s.LazyDrained+s.LazyForced != 2 {
		t.Fatalf("pending %d, drained %d + forced %d, want 2 = 2", s.LazyPending, s.LazyDrained, s.LazyForced)
	}
	// The error was already delivered to the touching thread; the retired
	// drain makes ForceDrain a no-op.
	if err := f.engine.ForceDrain(); err != nil {
		t.Fatalf("ForceDrain after retired drain: %v", err)
	}

	// A benign follow-up update still applies.
	v3 := f.prog(strings.Replace(lazyCycleV1, "field w I", "field w I\n  field extra I", 1) +
		"\nclass Followup {\n  static method ok()I {\n    const 7\n    return\n  }\n}\n")
	res2, err := f.update("2", v2, v3, "", core.Options{})
	if err != nil {
		t.Fatalf("follow-up update: %v", err)
	}
	if res2.Outcome != core.Applied {
		t.Fatalf("follow-up outcome = %v err = %v, want Applied", res2.Outcome, res2.Err)
	}
}

// TestLazySecondUpdateForcesDrain: a follow-up update arriving mid-drain
// must force-complete the previous residue before its own pause — and the
// values must carry through both layout changes.
func TestLazySecondUpdateForcesDrain(t *testing.T) {
	f := newRelocFixture(t, 1<<16)
	v1 := f.load(lazyV1)
	v2src := strings.Replace(lazyV1, "class Box {\n  field v I",
		"class Box {\n  field pad LString;\n  field v I", 1)
	v2 := f.prog(v2src)
	v3 := f.prog(strings.Replace(v2src, "field v I", "field v I\n  field q I", 1))
	f.spawn("App")
	f.vm.Step(1)

	res1 := f.mustApply("1", v1, v2, "")
	if res1.Stats.LazyPending != 2 || res1.Stats.LazyDrained != 0 {
		t.Fatalf("update 1: pending=%d drained=%d, want 2/0", res1.Stats.LazyPending, res1.Stats.LazyDrained)
	}

	// Nothing touched; the second update must force the residue first.
	res2 := f.mustApply("2", v2, v3, "")
	if res1.Stats.LazyForced != 2 {
		t.Fatalf("update 2 did not force update 1's residue: forced=%d, want 2", res1.Stats.LazyForced)
	}
	if res2.Stats.LazyPending != 2 {
		t.Fatalf("update 2: LazyPending = %d, want 2", res2.Stats.LazyPending)
	}
	if err := f.engine.ForceDrain(); err != nil {
		t.Fatalf("ForceDrain: %v", err)
	}
	if got := rawBoxV(t, f, "a"); got != 7 {
		t.Fatalf("a.v = %d after two concurrent updates, want 7", got)
	}
	if got := rawBoxV(t, f, "b"); got != 9 {
		t.Fatalf("b.v = %d after two concurrent updates, want 9", got)
	}
	assertRetired(t, f, false)
	if got := strings.TrimSpace(f.finish()); got != "7" {
		t.Fatalf("output = %q, want 7", got)
	}
}
