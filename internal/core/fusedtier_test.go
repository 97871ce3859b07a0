package core_test

import (
	"slices"
	"strings"
	"testing"

	"govolve/internal/core"
	"govolve/internal/rt"
)

// These tests pin the DSU-honesty contract of the new interpreter tier:
// a frame running trace-promoted fused code must OSR through the fused
// pc-map when its baked assumptions go stale, and a hot monomorphic
// inline cache must be flushed when the class behind it is replaced —
// a stale IC entry would silently dispatch to the old version.

// fusedOSRV1: App.main spins forever reading Loop.bias through a baked
// field offset and publishing it to Hub.out. The loop is exactly the
// shape trace promotion hunts for (loop-pinned thread, one backedge per
// iteration), so after a few slices main runs on the fused tier. The call
// to Hub.tick sits between the read and the publish, so two of the loop's
// three yield points (tick's entry and exit) find main mid-expression, the
// value it read still on its operand stack.
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
    putstatic Hub.out I
    goto spin
  }
}
`

// warmToFused steps the VM until the first trace promotion lands and the
// spinning main frame is actually executing fused code.
func warmToFused(t *testing.T, f *fixture) {
	t.Helper()
	for i := 0; i < 400 && f.vm.Stats().TracePromotions == 0; i++ {
		f.vm.Step(5)
	}
	if f.vm.Stats().TracePromotions == 0 {
		t.Fatal("main never trace-promoted to the fused tier")
	}
	// Step until the thread is resting in main's fused code (a callee
	// frame — e.g. an opt-recompiled probe — may be on top right after a
	// slice boundary).
	for i := 0; i < 400; i++ {
		top := f.vm.Threads[0].Top()
		if top.CM.Level == rt.Fused && top.Method().Def.Name == "main" {
			return
		}
		f.vm.Step(1)
	}
	top := f.vm.Threads[0].Top()
	t.Fatalf("main never rested on the fused tier (top = %s, %v)",
		top.Method().FullName(), top.CM.Level)
}

// hubOut reads Hub.out straight from the JTOC.
func hubOut(t *testing.T, f *fixture) int64 {
	t.Helper()
	hub := f.vm.Reg.LookupClass("Hub")
	if hub == nil {
		t.Fatal("Hub class missing")
	}
	return int64(f.vm.Reg.JTOC[hub.StaticField("out").Slot].Bits)
}

// TestFusedFrameOSRUpdate lands a field-layout update on Loop while main
// is pinned inside a fused loop whose code baked Loop.bias's old offset.
// The update must OSR the fused frame (the pc-map identity mapping lets
// deopt happen at any resting pc), after which the loop must keep
// publishing bias at its *new* offset — a stale offset would read the
// freshly inserted pad field (0) instead of 7.
func TestFusedFrameOSRUpdate(t *testing.T) {
	f := newFixture(t, 1<<16)
	v1 := f.load(fusedOSRV1)
	v2 := f.prog(strings.Replace(fusedOSRV1, "field bias I",
		"field pad I\n  field bias I", 1))
	f.spawn("App")
	warmToFused(t, f)

	// Park main mid-expression: the update lands between slices, exactly here.
	main := f.vm.Threads[0].Frames[0]
	for i := 0; i < 10 && len(main.Stack) == 0; i++ {
		f.vm.Step(1)
	}
	if main.CM.Level != rt.Fused || len(main.Stack) == 0 {
		t.Fatalf("main not parked mid-expression on the fused tier (%v, %d operands)", main.CM.Level, len(main.Stack))
	}
	parked := append([]rt.Value(nil), main.Stack...)

	// The rewritten frame is the same record: base code has the bounds of the
	// fused code it was fused from, so nothing moves and nothing is lost.
	// Checked the instant the update lands, before the thread runs on.
	landed := false
	f.engine.AfterUpdate = func(*core.Result) {
		landed = true
		if main.CM.Level != rt.Base || !slices.Equal(main.Stack, parked) {
			t.Errorf("after OSR main is %v with operands %v, want base with %v", main.CM.Level, main.Stack, parked)
		}
		if len(main.Locals) < main.CM.MaxLocals || cap(main.Stack) < main.CM.MaxStack {
			t.Errorf("after OSR main has %d locals and room for %d operands, its code needs %d and %d",
				len(main.Locals), cap(main.Stack), main.CM.MaxLocals, main.CM.MaxStack)
		}
	}
	promoted := f.vm.Stats().TracePromotions
	res := f.mustApply("1", v1, v2, "")
	if res.Stats.OSRFrames == 0 || !landed {
		t.Fatal("no OSR frames: the fused main frame was not rewritten")
	}
	if res.Stats.OSRFusedFrames == 0 {
		t.Fatal("OSR frames recorded, but none was on the fused tier")
	}
	if res.Stats.InvalidatedLayout == 0 {
		t.Fatal("no layout invalidations: App.main's baked Loop.bias offset survived")
	}

	// The loop must re-warm back onto the fused tier and still read 7.
	for i := 0; i < 400 && f.vm.Stats().TracePromotions == promoted; i++ {
		f.vm.Step(5)
	}
	if f.vm.Stats().TracePromotions == promoted {
		t.Fatal("main never re-promoted after OSR deopt")
	}
	if got := hubOut(t, f); got != 7 {
		t.Fatalf("Hub.out = %d after update, want 7 (stale field offset?)", got)
	}
}

// staleICV1: App.main hammers a monomorphic invokevirtual, so once main
// is trace-promoted the call site runs through a fused FLOADINVOKE with
// an inline cache caching (T's class id -> T.probe). The call site is
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
	warmToFused(t, f)

	for i := 0; i < 400 && f.vm.Stats().ICHits == 0; i++ {
		f.vm.Step(5)
	}
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
	for i := 0; i < 400 && hubOut(t, f) != 2; i++ {
		f.vm.Step(5)
	}
	if got := hubOut(t, f); got != 2 {
		t.Fatalf("Hub.out = %d after update, want 2 (stale IC dispatched the old probe?)", got)
	}
}
