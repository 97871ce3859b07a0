package core_test

import (
	"strings"
	"testing"

	"govolve/internal/asm"
	"govolve/internal/bytecode"
	"govolve/internal/core"
	"govolve/internal/rt"
	"govolve/internal/upt"
	"govolve/internal/vm"
)

// optOSRV1: work() gets hot (opt-compiled), reads Cell.x, and eventually
// parks in a blocking accept — with Cell's offsets baked into its opt code.
const optOSRV1 = `
class Cell {
  field x I
  method <init>(I)V {
    load 0
    invokespecial Object.<init>()V
    load 0
    load 1
    putfield Cell.x I
    return
  }
}
class App {
  static field c LCell;
  static method work(I)I {
    load 0
    const 199
    if_icmplt skip
    const 99
    invokestatic Net.accept(I)I
    pop
  skip:
    getstatic App.c LCell;
    getfield Cell.x I
    return
  }
  static method main()V {
    new Cell
    dup
    const 5
    invokespecial Cell.<init>(I)V
    putstatic App.c LCell;
    const 0
    store 0
  loop:
    load 0
    const 200
    if_icmpge done
    load 0
    invokestatic App.work(I)I
    pop
    load 0
    const 1
    add
    store 0
    goto loop
  done:
    load 0
    invokestatic App.work(I)I
    invokestatic System.printInt(I)V
    return
  }
}
`

// optOSRV2 prepends a field to Cell, shifting x.
var optOSRV2 = strings.Replace(optOSRV1,
	"class Cell {\n  field x I",
	"class Cell {\n  field pad LString;\n  field x I", 1)

// setupOptOSR drives the program until work() is opt-compiled and parked in
// the blocking accept with stale-to-be offsets on stack.
func setupOptOSR(t *testing.T) *fixture {
	t.Helper()
	f := newFixture(t, 1<<16)
	f.vm.JIT.OptThreshold = 20
	f.load(optOSRV1)
	f.spawn("App")
	for i := 0; i < 500 && f.vm.Threads[0].State != vm.Blocked; i++ {
		f.vm.Step(1)
	}
	th := f.vm.Threads[0]
	if th.State != vm.Blocked {
		t.Fatalf("main never blocked in work(): %s", th.Backtrace())
	}
	work := th.Top()
	if work.Method().Def.Name != "work" || work.CM.Level != rt.Opt {
		t.Fatalf("top frame not opt work(): %s (%v)", work.Method().FullName(), work.CM.Level)
	}
	return f
}

func TestOptOSRDisabledBlocks(t *testing.T) {
	f := setupOptOSR(t)
	v1 := f.prog(optOSRV1)
	v2 := f.prog(optOSRV2)
	res, err := f.update("1", v1, v2, "", core.Options{MaxAttempts: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Without opt-OSR the stale opt frame blocks forever (it is parked in
	// a native call and its barrier cannot fire).
	if res.Outcome != core.Aborted {
		t.Fatalf("outcome = %v, want Aborted without OSROpt", res.Outcome)
	}
}

func TestOptOSREnabledRewritesFrame(t *testing.T) {
	f := setupOptOSR(t)
	v1 := f.prog(optOSRV1)
	v2 := f.prog(optOSRV2)
	res, err := f.update("1", v1, v2, "", core.Options{MaxAttempts: 10, OSROpt: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != core.Applied {
		t.Fatalf("outcome = %v (%v), want Applied with OSROpt", res.Outcome, res.Err)
	}
	if res.Stats.OSRFrames == 0 {
		t.Fatal("no OSR frames recorded")
	}
	// Unblock the accept: connect a client so work() resumes on the
	// rewritten base code and reads x at its *new* offset.
	if _, err := f.vm.Net.Connect(99); err == nil {
		t.Fatal("connect before listen should fail")
	}
	// work() blocked in accept on an unbound port 99; bind it from the
	// driver side by... accept blocks on hasPending(99), which is false
	// for an unbound port. Listen isn't exposed driver-side, so instead
	// verify the frame was rewritten and the pc is mappable state.
	th := f.vm.Threads[0]
	top := th.Top()
	if top.CM.Level != rt.Base {
		t.Fatalf("top frame still %v after OSR", top.CM.Level)
	}
	// The rewritten code must read Cell.x at the new offset (3, after the
	// inserted pad), not the stale 2.
	newCell := f.vm.Reg.LookupClass("Cell")
	if off := newCell.Field("x").Offset; off != rt.HeaderWords+1 {
		t.Fatalf("new x offset = %d", off)
	}
	found := false
	for _, ins := range top.CM.Code {
		if ins.Op.String() == "getfield_r" && ins.A == int64(newCell.Field("x").Offset) {
			found = true
		}
	}
	if !found {
		t.Fatal("rewritten code does not use the new field offset")
	}
}

// TestMovedDefaultMatchesInterpreted: a generated default transformer is a
// move the collector performs while it copies (no pair, no transformer run);
// the same body made hand-written runs interpreted over pairs. Both leave the
// same heap behind.
func TestMovedDefaultMatchesInterpreted(t *testing.T) {
	for _, moved := range []bool{true, false} {
		f := newFixture(t, 1<<17)
		if !moved {
			f.editSpec = handWrite
		}
		v1 := f.load(arrayV1)
		v2 := f.prog(strings.Replace(arrayV1, "class P {\n  field v I",
			"class P {\n  field pad LString;\n  field v I", 1))
		f.spawn("App")
		f.vm.Step(2)
		res, err := f.update("1", v1, v2, "", core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != core.Applied {
			t.Fatalf("moved=%v: %v (%v)", moved, res.Outcome, res.Err)
		}
		wantMoved, wantPairs := 8, 0
		if !moved {
			wantMoved, wantPairs = 0, 8
		}
		if s := res.Stats; s.TransformedObjects != 8 || s.MovedObjects != wantMoved || s.PairsLogged != wantPairs {
			t.Fatalf("moved=%v: transformed %d = %d pairs + %d moved, want 8 = %d + %d",
				moved, s.TransformedObjects, s.PairsLogged, s.MovedObjects, wantPairs, wantMoved)
		}
		if got := strings.TrimSpace(f.finish()); got != "28" {
			t.Fatalf("moved=%v: sum = %q, want 28", moved, got)
		}
	}
}

// boostCount is a custom transformer: the old count plus 1000.
const boostCount = `
class JvolveTransformers {
  static method jvolveObject(LCtr;Lv1_Ctr;)V {
    load 0
    load 1
    getfield v1_Ctr.count I
    const 1000
    add
    putfield Ctr.count I
    return
  }
}
`

// TestCustomTransformerIsNeverAMove: user code that is not a pure field copy
// runs as bytecode, however it got into the spec — through
// OverrideTransformer, or by replacing the method in the exported
// Spec.Transformers directly. (The second used to be silently ignored by the
// native path: the record of which transformers were still the generated
// defaults lived beside the class and only OverrideTransformer kept it.)
func TestCustomTransformerIsNeverAMove(t *testing.T) {
	for _, direct := range []bool{false, true} {
		f := newFixture(t, 1<<16)
		v1 := f.load(counterLike)
		v2 := f.prog(strings.Replace(counterLike, "field count I", "field count I\n  field boost I", 1))
		f.spawn("CApp")
		f.vm.Step(2)
		custom := boostCount
		if direct {
			custom = ""
			f.editSpec = func(spec *upt.Spec) {
				classes, err := asm.Assemble("custom.jva", boostCount)
				if err != nil {
					t.Fatal(err)
				}
				m := classes[0].Methods[0]
				for i, generated := range spec.Transformers.Methods {
					if generated.ID() == m.ID() {
						spec.Transformers.Methods[i] = m
						return
					}
				}
				t.Fatalf("spec has no %s to replace", m.ID())
			}
		}
		res, err := f.update("1", v1, v2, custom, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != core.Applied {
			t.Fatalf("direct=%v: %v (%v)", direct, res.Outcome, res.Err)
		}
		if res.Stats.MovedObjects != 0 || res.Stats.PairsLogged != 1 {
			t.Fatalf("direct=%v: %d moved, %d pairs; the one Ctr must be a pair", direct, res.Stats.MovedObjects, res.Stats.PairsLogged)
		}
		out := strings.TrimSpace(f.finish())
		// The transformer added 1000 to whatever the count was at update
		// time; a move would have carried it unchanged and the final count
		// would be exactly 9000.
		if out != "10000" {
			t.Fatalf("direct=%v: count = %q, want 10000 (9000 bumps + the transformer's 1000)", direct, out)
		}
	}
}

// TestConstantStoreIsVisible: the smallest direct edit — one generated
// transformer replaced by a body that stores a constant — runs interpreted
// and the program sees the constant.
func TestConstantStoreIsVisible(t *testing.T) {
	f := newFixture(t, 1<<16)
	v1 := f.load(counterLike)
	v2 := f.prog(strings.Replace(counterLike, "field count I", "field count I\n  field boost I", 1))
	f.spawn("CApp")
	f.vm.Step(2)
	f.editSpec = func(spec *upt.Spec) {
		for _, m := range spec.Transformers.Methods {
			if m.Name == "jvolveObject" {
				m.Code = []bytecode.Ins{
					{Op: bytecode.LOAD, A: 0},
					{Op: bytecode.CONST, A: 500000},
					{Op: bytecode.PUTFIELD, Sym: "Ctr.count", Desc: "I"},
					{Op: bytecode.RETURN},
				}
			}
		}
	}
	res, err := f.update("1", v1, v2, "", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != core.Applied || res.Stats.MovedObjects != 0 || res.Stats.PairsLogged != 1 {
		t.Fatalf("%v (%v): %d moved, %d pairs", res.Outcome, res.Err, res.Stats.MovedObjects, res.Stats.PairsLogged)
	}
	out := strings.TrimSpace(f.finish())
	if len(out) != 6 || !strings.HasPrefix(out, "50") {
		t.Fatalf("count = %q, want 500000 plus the bumps after the update", out)
	}
}

const counterLike = `
class Ctr {
  field count I
  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    return
  }
  method bump()V {
    load 0
    load 0
    getfield Ctr.count I
    const 1
    add
    putfield Ctr.count I
    return
  }
}
class CApp {
  static field c LCtr;
  static method main()V {
    new Ctr
    dup
    invokespecial Ctr.<init>()V
    putstatic CApp.c LCtr;
    const 0
    store 0
  loop:
    load 0
    const 9000
    if_icmpge done
    getstatic CApp.c LCtr;
    invokevirtual Ctr.bump()V
    load 0
    const 1
    add
    store 0
    goto loop
  done:
    getstatic CApp.c LCtr;
    getfield Ctr.count I
    invokestatic System.printInt(I)V
    return
  }
}
`

// TestInlinedUpdatedMethodRestrictsCaller: if an updated method was inlined
// into a hot caller, the caller must be restricted even though its own
// bytecode is unchanged (paper §3.2 on inlining).
func TestInlinedUpdatedMethodRestrictsCaller(t *testing.T) {
	f := newFixture(t, 1<<16)
	f.vm.JIT.OptThreshold = 10
	v1 := f.load(`
class Tiny {
  static method val()I {
    const 7
    return
  }
}
class HApp {
  static method hot()I {
    invokestatic Tiny.val()I
    const 1
    add
    return
  }
  static method main()V {
    const 0
    store 0
  loop:
    load 0
    const 9000
    if_icmpge done
    invokestatic HApp.hot()I
    pop
    load 0
    const 1
    add
    store 0
    goto loop
  done:
    invokestatic HApp.hot()I
    invokestatic System.printInt(I)V
    return
  }
}
`)
	v2 := f.prog(strings.Replace(`
class Tiny {
  static method val()I {
    const 7
    return
  }
}
`, "const 7", "const 70", 1) + `
class HApp {
  static method hot()I {
    invokestatic Tiny.val()I
    const 1
    add
    return
  }
  static method main()V {
    const 0
    store 0
  loop:
    load 0
    const 9000
    if_icmpge done
    invokestatic HApp.hot()I
    pop
    load 0
    const 1
    add
    store 0
    goto loop
  done:
    invokestatic HApp.hot()I
    invokestatic System.printInt(I)V
    return
  }
}
`)
	f.spawn("HApp")
	f.vm.Step(5)
	// hot() is opt-compiled by now with Tiny.val inlined.
	hot := f.vm.Reg.LookupClass("HApp").Method("hot", "()I")
	if hot.Compiled == nil || hot.Compiled.Level != rt.Opt || len(hot.Compiled.Inlined) == 0 {
		t.Skipf("hot not yet opt+inlined: %+v", hot.Compiled)
	}
	res := f.mustApply("1", v1, v2, "")
	_ = res
	// After the update the inlined copy of Tiny.val must be gone: the
	// final call must print 71.
	if got := strings.TrimSpace(f.finish()); got != "71" {
		t.Fatalf("hot() after update = %q, want 71 (stale inlined body survived?)", got)
	}
}

// TestActiveUpdateUnitSynthetic exercises OSRRewrite through a minimal
// changed-loop scenario with a hand-written map.
func TestActiveUpdateUnitSynthetic(t *testing.T) {
	f := newFixture(t, 1<<16)
	v1 := f.load(foreverV1)
	v2 := f.prog(strings.Replace(foreverV1, "const 1\n    ifne top", "const 2\n    ifne top", 1))
	f.spawn("App")
	f.vm.Step(2)
	spec, err := upt.Prepare("1", v1, v2)
	if err != nil {
		t.Fatal(err)
	}
	// The entire loop body changed, so LCS inference rightly gives up…
	unmapped := spec.InferActiveUpdates()
	if len(unmapped) != 1 || unmapped[0].Name != "spin" {
		t.Fatalf("unmapped = %v, want spin (no common structure)", unmapped)
	}
	// …and the user supplies the map by hand, as in UpStare: both bodies
	// are const/ifne/return, equivalent at every yield point.
	spec.AddActiveUpdate(upt.MethodRef{Class: "Loop", Name: "spin", Sig: "()V"},
		upt.ActivePCMap{PC: map[int]int{0: 0, 1: 1, 2: 2}})
	res, err := f.engine.ApplyNow(spec, core.Options{MaxAttempts: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != core.Applied {
		t.Fatalf("outcome = %v (%v)", res.Outcome, res.Err)
	}
	if res.Stats.ActiveRewrites == 0 {
		t.Fatal("no active rewrites recorded")
	}

	// The same rewrite onto a body that outgrows the frame it lands on: spin
	// v1 has no locals and never holds more than two operands, and is parked
	// with one (40) on its stack; v2 resumes at the mapped pc, moves that
	// operand into a local the old frame did not have, and goes six deep.
	f = newFixture(t, 1<<16)
	v1 = f.load(reseatV1)
	v2 = f.prog(reseatV2)
	f.spawn("App")
	f.vm.Step(2)
	spin := f.vm.Threads[0].Top()
	if spin.Method().Def.Name != "spin" || len(spin.Stack) == 0 {
		t.Fatalf("spin not parked mid-expression: top %s, %d operands", spin.Method().FullName(), len(spin.Stack))
	}
	small := cap(spin.Stack)
	spin.Barrier = true // header state the re-seat must carry along
	if spec, err = upt.Prepare("1", v1, v2); err != nil {
		t.Fatal(err)
	}
	spec.AddActiveUpdate(upt.MethodRef{Class: "Loop", Name: "spin", Sig: "()V"},
		upt.ActivePCMap{PC: map[int]int{0: 0, 1: 1, 2: 2}})
	f.engine.AfterUpdate = func(*core.Result) {
		cm := spin.CM
		if cm.MaxLocals != 1 || cm.MaxStack <= small {
			t.Errorf("v2 spin needs %d locals, %d operands: no bigger than the v1 frame (0, %d)", cm.MaxLocals, cm.MaxStack, small)
		}
		if len(spin.Locals) != cm.MaxLocals || cap(spin.Stack) < cm.MaxStack {
			t.Errorf("rewritten frame has %d locals, room for %d operands; v2 needs %d, %d",
				len(spin.Locals), cap(spin.Stack), cm.MaxLocals, cm.MaxStack)
		}
		if len(spin.Stack) != 1 || spin.Stack[0].Int() != 40 || !spin.Barrier {
			t.Errorf("rewritten frame lost its state: operands %v, barrier %v", spin.Stack, spin.Barrier)
		}
		spin.Barrier = false
		small = cap(spin.Stack)
	}
	if res, err = f.engine.ApplyNow(spec, core.Options{MaxAttempts: 50}); err != nil || res.Outcome != core.Applied {
		t.Fatalf("outcome = %v (%v, %v)", res.Outcome, res.Err, err)
	}
	f.vm.Step(2)
	if got := hubOut(t, f); got != 55 || f.vm.Threads[0].Err != nil {
		t.Fatalf("Hub.out = %d (thread error %v), want 55 = the parked 40 + 1+2+3+4+5", got, f.vm.Threads[0].Err)
	}
	if cap(spin.Stack) != small {
		t.Fatalf("v2 spin regrew its stack after the re-seat: room for %d operands, now %d", small, cap(spin.Stack))
	}
}

const reseatV1 = `
class Hub {
  static field out I
}
class Loop {
  static method spin()V {
    const 40
  top:
    const 1
    ifne top
    putstatic Hub.out I
    return
  }
}
class App {
  static method main()V {
    invokestatic Loop.spin()V
    return
  }
}
`

var reseatV2 = strings.Replace(reseatV1, `    const 1
    ifne top
`, `    const 0
    ifne top
    store 0
    load 0
    const 1
    const 2
    const 3
    const 4
    const 5
    add
    add
    add
    add
    add
    putstatic Hub.out I
  done:
    const 1
    ifne done
    load 0
`, 1)
