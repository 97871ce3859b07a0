package core_test

import (
	"slices"
	"strings"
	"testing"

	"govolve/internal/bytecode"
	"govolve/internal/core"
	"govolve/internal/rt"
	"govolve/internal/storm"
	"govolve/internal/upt"
	"govolve/internal/vm"
)

// These tests pin the DSU-honesty contract of what base compilation adds to
// 1:1 resolution: a frame resting in code that holds superinstructions must
// OSR onto fresh base code at the same pc when its baked assumptions go
// stale, and a hot monomorphic inline cache must be flushed when the class
// behind it is replaced — a stale IC entry would silently dispatch to the old
// version.

// fusedOSRV1: App.main spins forever reading Loop.bias through a baked
// field offset and publishing it to Hub.out; const 1, mul on the way is a
// superinstruction in its code. The call to Hub.tick sits between the read
// and the publish, so two of the loop's three yield points (tick's entry and
// exit) find main mid-expression, the value it read still on its operand
// stack.
const fusedOSRV1 = `
class Hub {
  static field out I
  static method tick()I {
    const 0
    return
  }
}
class Loop {
  field bias I
  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    load 0
    const 7
    putfield Loop.bias I
    return
  }
}
class App {
  static method main()V {
    new Loop
    dup
    invokespecial Loop.<init>()V
    store 0
  spin:
    load 0
    getfield Loop.bias I
    invokestatic Hub.tick()I
    add
    const 1
    mul
    putstatic Hub.out I
    goto spin
  }
}
`

// bottomFrame returns the spinning thread's outermost frame, after checking
// that the code it runs holds a superinstruction of the given kind.
func bottomFrame(t *testing.T, f *fixture, super bytecode.Op) *vm.Frame {
	t.Helper()
	fr := f.vm.Threads[0].Frames[0]
	if fr.CM.Level != rt.Base || !slices.ContainsFunc(fr.CM.Code, func(ins rt.Ins) bool { return ins.Op == super }) {
		t.Fatalf("%s runs %v code without a %v:\n%v", fr.Method().FullName(), fr.CM.Level, super, fr.CM.Code)
	}
	return fr
}

// hubOutSlot is Hub.out's JTOC slot; hubOut reads it.
func hubOutSlot(t *testing.T, f *fixture) *rt.Value {
	t.Helper()
	hub := f.vm.Reg.LookupClass("Hub")
	if hub == nil {
		t.Fatal("Hub class missing")
	}
	return &f.vm.Reg.JTOC[hub.StaticField("out").Slot]
}

func hubOut(t *testing.T, f *fixture) int64 { return hubOutSlot(t, f).Int() }

// TestFusedFrameOSRUpdate lands a field-layout update on Loop while main
// is pinned inside a loop whose code holds a superinstruction and baked
// Loop.bias's old offset. The update must OSR the frame onto fresh base code
// at the pc it rests at (fusion is in place, so the pc map is the identity),
// after which the loop must keep publishing bias at its *new* offset — a
// stale offset would read the freshly inserted pad field (0) instead of 7.
func TestFusedFrameOSRUpdate(t *testing.T) {
	f := newFixture(t, 1<<16)
	v1 := f.load(fusedOSRV1)
	v2 := f.prog(strings.Replace(fusedOSRV1, "field bias I",
		"field pad I\n  field bias I", 1))
	f.spawn("App")
	f.vm.Step(20)

	// Park main mid-expression: the update lands between slices, exactly here.
	main := bottomFrame(t, f, bytecode.FCONSTARITH)
	for i := 0; i < 10 && len(main.Stack) == 0; i++ {
		f.vm.Step(1)
	}
	if len(main.Stack) == 0 {
		t.Fatal("main not parked mid-expression")
	}
	parked := append([]rt.Value(nil), main.Stack...)
	stale, pc := main.CM, main.PC

	// The rewritten frame is the same record: two base compiles of one
	// bytecode have the same bounds, so nothing moves and nothing is lost.
	// Checked the instant the update lands, before the thread runs on.
	landed := false
	f.engine.AfterUpdate = func(*core.Result) {
		landed = true
		if main.CM == stale || main.PC != pc || !slices.Equal(main.Stack, parked) {
			t.Errorf("after OSR main is at pc %d with operands %v (code replaced: %v), want fresh code at pc %d with %v",
				main.PC, main.Stack, main.CM != stale, pc, parked)
		}
		if len(main.Locals) < main.CM.MaxLocals || cap(main.Stack) < main.CM.MaxStack {
			t.Errorf("after OSR main has %d locals and room for %d operands, its code needs %d and %d",
				len(main.Locals), cap(main.Stack), main.CM.MaxLocals, main.CM.MaxStack)
		}
	}
	res := f.mustApply("1", v1, v2, "")
	if res.Stats.OSRFrames == 0 || !landed {
		t.Fatal("no OSR frames: the main frame was not rewritten")
	}
	if res.Stats.InvalidatedLayout == 0 {
		t.Fatal("no layout invalidations: App.main's baked Loop.bias offset survived")
	}

	// The loop runs on in the fresh code — superinstruction and all — and
	// still reads 7.
	bottomFrame(t, f, bytecode.FCONSTARITH)
	*hubOutSlot(t, f) = rt.IntVal(-1)
	f.vm.Step(20)
	if got := hubOut(t, f); got != 7 {
		t.Fatalf("Hub.out = %d after update, want 7 (stale field offset?)", got)
	}
}

// staleICV1: App.main hammers a monomorphic invokevirtual: the call site
// is a FLOADINVOKE superinstruction whose inline cache
// caches (T's class id -> T.probe). The call site is
// declared against the unchanged supertype B and the T instance is built
// in a separate factory, so App.main's compiled code bakes nothing from
// T itself — it survives the update and its warm IC entry is exactly the
// stale state the install-phase flush exists for.
const staleICV1 = `
class Hub {
  static field out I
}
class B {
  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    return
  }
  method probe()I {
    const 0
    return
  }
}
class T extends B {
  field base I
  method <init>()V {
    load 0
    invokespecial B.<init>()V
    load 0
    const 1
    putfield T.base I
    return
  }
  method probe()I {
    load 0
    getfield T.base I
    return
  }
}
class Maker {
  static method make()LB; {
    new T
    dup
    invokespecial T.<init>()V
    return
  }
}
class App {
  static method main()V {
    invokestatic Maker.make()LB;
    store 0
  loop:
    load 0
    invokevirtual B.probe()I
    putstatic Hub.out I
    goto loop
  }
}
`

// TestStaleICFlushOnClassReplacement replaces the class behind a hot
// monomorphic call site: v2 both shifts T's field layout (forcing a real
// class replacement, not a body-only swap) and changes probe to return
// base+1. The install phase must flush the warmed IC entry — a stale
// (old class id -> old probe) entry that kept hitting would dispatch the
// v1 method and Hub.out would stay 1.
func TestStaleICFlushOnClassReplacement(t *testing.T) {
	f := newFixture(t, 1<<16)
	v1 := f.load(staleICV1)
	v2src := strings.Replace(staleICV1, "field base I",
		"field pad I\n  field base I", 1)
	v2src = strings.Replace(v2src, "getfield T.base I\n    return",
		"getfield T.base I\n    const 1\n    add\n    return", 1)
	v2 := f.prog(v2src)
	f.spawn("App")
	f.vm.Step(20)
	bottomFrame(t, f, bytecode.FLOADINVOKE)
	if f.vm.Stats().ICHits == 0 {
		t.Fatal("call site never hit its inline cache before the update")
	}
	if got := hubOut(t, f); got != 1 {
		t.Fatalf("Hub.out = %d before update, want 1", got)
	}

	res := f.mustApply("1", v1, v2, "")
	if res.Stats.ICFlushed == 0 {
		t.Fatal("no IC entries flushed at install: stale class ids survive in caches")
	}

	// Run on: the site must miss, re-resolve against the new class, and
	// publish the v2 result.
	f.vm.Step(20)
	if got := hubOut(t, f); got != 2 {
		t.Fatalf("Hub.out = %d after update, want 2 (stale IC dispatched the old probe?)", got)
	}
}

// padV1: spin parks at top with 40 on its operand stack and 7 in local 1.
const padV1 = `
class Hub {
  static field out I
}
class Loop {
  static method spin()V {
    const 7
    store 1
    const 40
  top:
    const 1
    ifne top
    putstatic Hub.out I
    return
  }
}
`

// padV2 publishes local 1 from under a load; load pair: pcs 5 and 6 compile
// to one FLOADLOAD and its pad.
var padV2 = strings.Replace(padV1, `    const 40
  top:
    const 1
    ifne top
    putstatic Hub.out I
`, `    const 5
    store 0
    nop
    load 0
    load 1
    putstatic Hub.out I
    pop
  top:
    const 1
    ifne top
`, 1)

// TestActiveRewriteRefusesPad: a yield-point map is written against bytecode,
// and bytecode pc 6 of v2's spin — "the first load has run, the second has
// not", which is what the parked frame's one operand looks like — is the pad
// of a superinstruction in the code the frame would resume in. Resuming there
// would run the pad as a nop and publish the parked 40 instead of local 1's 7,
// so the rewrite is refused and the update rolls back like any other bad map;
// the same update landing on the boundary where v2 holds one operand applies.
func TestActiveRewriteRefusesPad(t *testing.T) {
	f := newFixture(t, 1<<16)
	v1 := f.load(padV1)
	v2 := f.prog(padV2)
	m := f.vm.Reg.LookupClass("Loop").Method("spin", "()V")
	if _, err := f.vm.Spawn("spin", m, nil); err != nil {
		t.Fatal(err)
	}
	f.vm.Step(2)
	spin := f.vm.Threads[0].Frames[0]
	if spin.PC != 3 || len(spin.Stack) != 1 {
		t.Fatalf("spin not parked at top with one operand: pc %d, operands %v", spin.PC, spin.Stack)
	}
	apply := func(newPC int) *core.Result {
		t.Helper()
		spec, err := upt.Prepare("1", v1, v2)
		if err != nil {
			t.Fatal(err)
		}
		spec.AddActiveUpdate(upt.MethodRef{Class: "Loop", Name: "spin", Sig: "()V"},
			upt.ActivePCMap{PC: map[int]int{3: newPC}})
		res, err := f.engine.ApplyNow(spec, core.Options{MaxAttempts: 50})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	stale := spin.CM
	res := apply(6)
	if res.Outcome != core.Failed || res.Err == nil || !strings.Contains(res.Err.Error(), "inside a superinstruction") {
		f.vm.Step(2)
		t.Fatalf("outcome = %v (%v), want the rewrite onto a pad refused; run on, spin published Hub.out = %d (v2 publishes 7) and its thread ended with %v",
			res.Outcome, res.Err, hubOut(t, f), f.vm.Threads[0].Err)
	}
	f.vm.Step(2)
	if spin.CM != stale || spin.PC != 3 || f.vm.Threads[0].Err != nil || f.vm.Reg.LookupClass("v1_Loop") != nil {
		t.Fatalf("refused rewrite left its mark: code replaced %v, pc %d, thread error %v", spin.CM != stale, spin.PC, f.vm.Threads[0].Err)
	}
	if err := storm.CheckVM(f.vm); err != nil {
		t.Fatal(err)
	}

	// pc 8, the pop past the publish, is an instruction boundary where v2
	// holds one operand.
	if res = apply(8); res.Outcome != core.Applied || res.Stats.ActiveRewrites != 1 {
		t.Fatalf("outcome = %v (%v), %d active rewrites; want the same update applied at a boundary", res.Outcome, res.Err, res.Stats.ActiveRewrites)
	}
	bottomFrame(t, f, bytecode.FLOADLOAD)
	f.vm.Step(2)
	if spin.PC != 9 || len(spin.Stack) != 0 || f.vm.Threads[0].Err != nil {
		t.Fatalf("spin at pc %d with operands %v (thread error %v), want it spinning at v2's top", spin.PC, spin.Stack, f.vm.Threads[0].Err)
	}
}
