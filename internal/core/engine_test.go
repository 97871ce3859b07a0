package core_test

import (
	"bytes"
	"strings"
	"testing"

	"govolve/internal/asm"
	"govolve/internal/classfile"
	"govolve/internal/core"
	"govolve/internal/upt"
	"govolve/internal/upt/upttest"
	"govolve/internal/vm"
)

type fixture struct {
	t      *testing.T
	vm     *vm.VM
	out    *bytes.Buffer
	engine *core.Engine
	// editSpec, if set, gets every prepared spec last (after the custom
	// transformers): handWrite, or a test's own edit of spec.Transformers.
	editSpec func(*upt.Spec)
}

// handWrite makes every generated object transformer of a spec hand-written,
// so the update builds pairs and interprets it (see upttest.HandWrite).
var handWrite = upttest.HandWrite

func newFixture(t *testing.T, heapWords int) *fixture {
	t.Helper()
	var out bytes.Buffer
	v, err := vm.New(vm.Options{HeapWords: heapWords, Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{t: t, vm: v, out: &out, engine: core.NewEngine(v)}
}

func (f *fixture) prog(src string) *classfile.Program {
	f.t.Helper()
	p, err := asm.AssembleProgram("t.jva", src)
	if err != nil {
		f.t.Fatal(err)
	}
	return p
}

func (f *fixture) load(src string) *classfile.Program {
	f.t.Helper()
	p := f.prog(src)
	if err := f.vm.LoadProgram(p); err != nil {
		f.t.Fatal(err)
	}
	return p
}

func (f *fixture) spawn(class string) {
	f.t.Helper()
	if _, err := f.vm.SpawnMain(class); err != nil {
		f.t.Fatal(err)
	}
}

// update prepares and applies old→new, with optional custom transformer
// source (a JvolveTransformers class) and blacklist.
func (f *fixture) update(tag string, old, new_ *classfile.Program, custom string, opts core.Options, blacklist ...upt.MethodRef) (*core.Result, error) {
	f.t.Helper()
	spec, err := upt.Prepare(tag, old, new_)
	if err != nil {
		return nil, err
	}
	spec.AddBlacklist(blacklist...)
	if custom != "" {
		classes, err := asm.Assemble("custom.jva", custom)
		if err != nil {
			f.t.Fatal(err)
		}
		for _, m := range classes[0].Methods {
			spec.OverrideTransformer(m)
		}
	}
	if f.editSpec != nil {
		f.editSpec(spec)
	}
	return f.engine.ApplyNow(spec, opts)
}

func (f *fixture) mustApply(tag string, old, new_ *classfile.Program, custom string) *core.Result {
	f.t.Helper()
	res, err := f.update(tag, old, new_, custom, core.Options{})
	if err != nil {
		f.t.Fatal(err)
	}
	if res.Outcome != core.Applied {
		f.t.Fatalf("outcome = %v, err = %v", res.Outcome, res.Err)
	}
	return res
}

func (f *fixture) finish() string {
	f.t.Helper()
	if err := f.vm.Run(); err != nil {
		f.t.Fatal(err)
	}
	for _, th := range f.vm.Threads {
		if th.Err != nil {
			f.t.Fatalf("thread %s: %v\n%s", th.Name, th.Err, th.Backtrace())
		}
	}
	return f.out.String()
}

// --- 1. method body update ------------------------------------------------

const bodyV1 = `
class Worker {
  static method answer()I {
    const 1
    return
  }
}
class App {
  static method main()V {
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
    invokestatic Worker.answer()I
    invokestatic System.printInt(I)V
    return
  }
}
`

func TestMethodBodyUpdate(t *testing.T) {
	f := newFixture(t, 1<<16)
	v1 := f.load(bodyV1)
	v2 := f.prog(strings.Replace(bodyV1, "const 1\n    return", "const 2\n    return", 1))
	f.spawn("App")
	f.vm.Step(1)
	res := f.mustApply("1", v1, v2, "")
	if res.Stats.TransformedObjects != 0 {
		t.Fatalf("body-only update transformed %d objects", res.Stats.TransformedObjects)
	}
	if got := strings.TrimSpace(f.finish()); got != "2" {
		t.Fatalf("answer = %q, want 2 (new body)", got)
	}
}

// --- 2. field delete + type change ------------------------------------------

const shapeV1 = `
class Box {
  field w I
  field h I
  field label LString;
  field junk I
  method <init>(II)V {
    load 0
    invokespecial Object.<init>()V
    load 0
    load 1
    putfield Box.w I
    load 0
    load 2
    putfield Box.h I
    load 0
    ldc "box"
    putfield Box.label LString;
    load 0
    const 99
    putfield Box.junk I
    return
  }
  method area()I {
    load 0
    getfield Box.w I
    load 0
    getfield Box.h I
    mul
    return
  }
}
class App {
  static field b LBox;
  static method main()V {
    new Box
    dup
    const 6
    const 7
    invokespecial Box.<init>(II)V
    putstatic App.b LBox;
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
    getstatic App.b LBox;
    invokevirtual Box.area()I
    invokestatic System.printInt(I)V
    return
  }
}
`

// v2 deletes junk, changes label's type to an array, keeps w/h.
const shapeV2 = `
class Box {
  field w I
  field h I
  field label [C
  method <init>(II)V {
    load 0
    invokespecial Object.<init>()V
    load 0
    load 1
    putfield Box.w I
    load 0
    load 2
    putfield Box.h I
    return
  }
  method area()I {
    load 0
    getfield Box.w I
    load 0
    getfield Box.h I
    mul
    return
  }
}
class App {
  static field b LBox;
  static method main()V {
    new Box
    dup
    const 6
    const 7
    invokespecial Box.<init>(II)V
    putstatic App.b LBox;
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
    getstatic App.b LBox;
    invokevirtual Box.area()I
    invokestatic System.printInt(I)V
    return
  }
}
`

func TestFieldDeleteAndTypeChange(t *testing.T) {
	f := newFixture(t, 1<<16)
	v1 := f.load(shapeV1)
	v2 := f.prog(shapeV2)
	f.spawn("App")
	f.vm.Step(2)
	res := f.mustApply("1", v1, v2, "")
	if res.Stats.TransformedObjects == 0 {
		t.Fatal("no objects transformed")
	}
	if got := strings.TrimSpace(f.finish()); got != "42" {
		t.Fatalf("area = %q, want 42 (w,h preserved through delete/retype)", got)
	}
}

// --- 3. statics via class transformer ----------------------------------------

// App.main is version-invariant (a method whose bytecode changes and never
// leaves the stack would rightly block the update — see the abort test);
// the version-varying code lives in report().
const staticsShell = `
class App {
  static method main()V {
    const 0
    store 0
  loop:
    load 0
    const 9000
    if_icmpge done
    invokestatic Config.bump()V
    load 0
    const 1
    add
    store 0
    goto loop
  done:
    invokestatic App.report()V
    return
  }
  static method report()V {
%REPORT%
    return
  }
}
`

const staticsV1 = `
class Config {
  static field hits I
  static field banner LString;
  static method bump()V {
    getstatic Config.hits I
    const 1
    add
    putstatic Config.hits I
    return
  }
}
`

const staticsV2 = `
class Config {
  static field hits I
  static field banner LString;
  static field retries I
  static method bump()V {
    getstatic Config.hits I
    const 1
    add
    putstatic Config.hits I
    return
  }
}
`

func TestStaticsCarriedByClassTransformer(t *testing.T) {
	f := newFixture(t, 1<<16)
	report1 := "    getstatic Config.hits I\n    invokestatic System.printInt(I)V"
	report2 := "    getstatic Config.hits I\n    invokestatic System.printInt(I)V\n    getstatic Config.retries I\n    invokestatic System.printInt(I)V"
	v1 := f.load(staticsV1 + strings.Replace(staticsShell, "%REPORT%", report1, 1))
	v2 := f.prog(staticsV2 + strings.Replace(staticsShell, "%REPORT%", report2, 1))
	f.spawn("App")
	f.vm.Step(2)
	custom := `
class JvolveTransformers {
  static method jvolveClass(LConfig;)V {
    getstatic v1_Config.hits I
    putstatic Config.hits I
    const 3
    putstatic Config.retries I
    return
  }
}
`
	f.mustApply("1", v1, v2, custom)
	out := strings.Split(strings.TrimSpace(f.finish()), "\n")
	if out[0] != "9000" {
		t.Fatalf("hits = %q, want 9000 (carried across update)", out[0])
	}
	if out[len(out)-1] != "3" {
		t.Fatalf("retries = %q, want 3 (custom class transformer)", out[len(out)-1])
	}
}

// --- 4. OSR of on-stack indirect method -------------------------------------

const osrV1 = `
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
    const 60000
    if_icmpge done
    load 0
    const 1
    add
    store 0
    goto loop
  done:
    getstatic App.c LCell;
    getfield Cell.x I
    invokestatic System.printInt(I)V
    return
  }
}
`

// v2 prepends a new field before x, shifting x's offset — stale compiled
// code in App.main would read the wrong slot without OSR.
const osrV2 = `
class Cell {
  field pad LString;
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
    const 60000
    if_icmpge done
    load 0
    const 1
    add
    store 0
    goto loop
  done:
    getstatic App.c LCell;
    getfield Cell.x I
    invokestatic System.printInt(I)V
    return
  }
}
`

func TestOSRRewritesStaleOnStackFrame(t *testing.T) {
	f := newFixture(t, 1<<16)
	v1 := f.load(osrV1)
	v2 := f.prog(osrV2)
	f.spawn("App")
	f.vm.Step(2) // main is mid-loop with Cell offsets baked in
	res := f.mustApply("1", v1, v2, "")
	if res.Stats.OSRFrames == 0 {
		t.Fatal("expected OSR of App.main (bytecode unchanged, offsets stale)")
	}
	if got := strings.TrimSpace(f.finish()); got != "5" {
		t.Fatalf("x = %q, want 5 — stale offset read after field insertion", got)
	}
}

// --- 5. return barrier ---------------------------------------------------------

const barrierV1 = `
class Job {
  static method work(I)I {
    const 0
    store 1
  loop:
    load 1
    load 0
    if_icmpge done
    load 1
    const 1
    add
    store 1
    goto loop
  done:
    const 10
    return
  }
}
class App {
  static method main()V {
    const 0
    store 0
  outer:
    load 0
    const 40
    if_icmpge done
    const 9000
    invokestatic Job.work(I)I
    pop
    load 0
    const 1
    add
    store 0
    goto outer
  done:
    const 9000
    invokestatic Job.work(I)I
    invokestatic System.printInt(I)V
    return
  }
}
`

func TestReturnBarrierDefersUpdate(t *testing.T) {
	f := newFixture(t, 1<<16)
	v1 := f.load(barrierV1)
	v2 := f.prog(strings.Replace(barrierV1, "const 10\n    return", "const 20\n    return", 1))
	f.spawn("App")
	// Step into the middle of a work() call so the changed method is on
	// stack at the first attempt.
	f.vm.Step(2)
	onStack := false
	for _, fr := range f.vm.Threads[0].Frames {
		if strings.Contains(fr.Method().FullName(), "work") {
			onStack = true
		}
	}
	if !onStack {
		t.Skip("scheduling did not land inside work(); quantum changed?")
	}
	res := f.mustApply("1", v1, v2, "")
	if res.Stats.BarriersInstalled == 0 {
		t.Fatalf("expected a return barrier; stats %+v", res.Stats)
	}
	if res.Stats.Immediate {
		t.Fatal("update claims immediate safe point with work() on stack")
	}
	if got := strings.TrimSpace(f.finish()); got != "20" {
		t.Fatalf("work = %q, want 20", got)
	}
}

// --- 6. abort on method that never leaves the stack ---------------------------

const foreverV1 = `
class Loop {
  static method spin()V {
  top:
    const 1
    ifne top
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

func TestAbortWhenChangedMethodAlwaysOnStack(t *testing.T) {
	f := newFixture(t, 1<<16)
	v1 := f.load(foreverV1)
	v2 := f.prog(strings.Replace(foreverV1, "const 1\n    ifne top", "const 2\n    ifne top", 1))
	f.spawn("App")
	f.vm.Step(2)
	res, err := f.update("1", v1, v2, "", core.Options{MaxAttempts: 25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != core.Aborted {
		t.Fatalf("outcome = %v, want Aborted (spin never returns)", res.Outcome)
	}
	// The program is unharmed and still running version 1.
	if f.vm.Threads[0].State == vm.Dead {
		t.Fatal("application thread died during aborted update")
	}
	if f.vm.Reg.LookupClass("v1_Loop") != nil {
		t.Fatal("abort left renamed classes behind")
	}
	f.vm.Step(5)
	if f.vm.Threads[0].Err != nil {
		t.Fatalf("thread error after abort: %v", f.vm.Threads[0].Err)
	}
}

// --- 7. added + deleted classes ----------------------------------------------

const addDelV1 = `
class Legacy {
  static method old()I {
    const 1
    return
  }
}
class App {
  static method main()V {
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
    invokestatic App.report()V
    return
  }
  static method report()V {
    invokestatic Legacy.old()I
    invokestatic System.printInt(I)V
    return
  }
}
`

const addDelV2 = `
class Fresh {
  static field seed I
  static method <clinit>()V {
    const 77
    putstatic Fresh.seed I
    return
  }
  static method neo()I {
    getstatic Fresh.seed I
    return
  }
}
class App {
  static method main()V {
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
    invokestatic App.report()V
    return
  }
  static method report()V {
    invokestatic Fresh.neo()I
    invokestatic System.printInt(I)V
    return
  }
}
`

func TestAddAndDeleteClasses(t *testing.T) {
	f := newFixture(t, 1<<16)
	v1 := f.load(addDelV1)
	v2 := f.prog(addDelV2)
	f.spawn("App")
	f.vm.Step(1)
	f.mustApply("1", v1, v2, "")
	if f.vm.Reg.LookupClass("Legacy") != nil {
		t.Fatal("deleted class still registered")
	}
	if f.vm.Reg.LookupClass("Fresh") == nil {
		t.Fatal("added class missing")
	}
	if got := strings.TrimSpace(f.finish()); got != "77" {
		t.Fatalf("report = %q, want 77 (added class with <clinit>)", got)
	}
}

// --- 8. verification gate -------------------------------------------------------

func TestUpdateRejectedByVerifier(t *testing.T) {
	f := newFixture(t, 1<<16)
	v1 := f.load(bodyV1)
	// New version deletes Worker.answer but App still calls it.
	bad := f.prog(`
class Worker {
  static method other()I {
    const 3
    return
  }
}
class App {
  static method main()V {
    invokestatic Worker.answer()I
    invokestatic System.printInt(I)V
    return
  }
}
`)
	f.spawn("App")
	f.vm.Step(1)
	_, err := f.update("1", v1, bad, "", core.Options{})
	if err == nil || !strings.Contains(err.Error(), "update rejected") {
		t.Fatalf("err = %v, want verification rejection", err)
	}
	// The running program is untouched.
	if got := strings.TrimSpace(f.finish()); got != "1" {
		t.Fatalf("output = %q, want 1 (still v1)", got)
	}
}

// --- 9. blacklist (category 3) ---------------------------------------------------

func TestBlacklistRestrictsUnchangedMethod(t *testing.T) {
	f := newFixture(t, 1<<16)
	v1 := f.load(foreverV1)
	// Change nothing structurally except an unrelated new class; blacklist
	// the spinning method: no safe point can be reached.
	v2 := f.prog(foreverV1 + `
class Extra {
  static method e()I {
    const 0
    return
  }
}
`)
	f.spawn("App")
	f.vm.Step(2)
	res, err := f.update("1", v1, v2, "", core.Options{MaxAttempts: 10},
		upt.MethodRef{Class: "Loop", Name: "spin", Sig: "()V"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != core.Aborted {
		t.Fatalf("outcome = %v, want Aborted via blacklist", res.Outcome)
	}
}

// --- 10. transformer cycle detection ---------------------------------------------

const cycleV1 = `
class Link {
  field peer LLink;
  field v I
  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    return
  }
}
class App {
  static field a LLink;
  static method main()V {
    new Link
    dup
    invokespecial Link.<init>()V
    putstatic App.a LLink;
    new Link
    dup
    invokespecial Link.<init>()V
    getstatic App.a LLink;
    swap
    putfield Link.peer LLink;
    getstatic App.a LLink;
    getfield Link.peer LLink;
    getstatic App.a LLink;
    putfield Link.peer LLink;
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
    return
  }
}
`

func TestTransformerCycleAbortsUpdate(t *testing.T) {
	f := newFixture(t, 1<<16)
	v1 := f.load(cycleV1)
	v2 := f.prog(strings.Replace(cycleV1, "field v I", "field v I\n  field extra I", 1))
	f.spawn("App")
	f.vm.Step(2)
	// A pathological transformer that force-transforms its peer before
	// copying: with the two Links pointing at each other, forcing the
	// peer recurses back and must be detected as a cycle.
	custom := `
class JvolveTransformers {
  static method jvolveObject(LLink;Lv1_Link;)V {
    load 1
    getfield v1_Link.peer LLink;
    ifnull nopeer
    load 1
    getfield v1_Link.peer LLink;
    invokestatic Jvolve.forceTransform(LObject;)V
  nopeer:
    load 0
    load 1
    getfield v1_Link.v I
    putfield Link.v I
    return
  }
}
`
	res, err := f.update("1", v1, v2, custom, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != core.Failed || res.Err == nil ||
		!strings.Contains(res.Err.Error(), "cycle") {
		t.Fatalf("outcome = %v err = %v, want cycle failure", res.Outcome, res.Err)
	}
}

// --- 11. forceTransform happy path ------------------------------------------------

func TestForceTransformOrdersDependentObjects(t *testing.T) {
	f := newFixture(t, 1<<16)
	shell := `
class App {
  static field h LHolder;
  static method main()V {
    new Item
    dup
    const 21
    invokespecial Item.<init>(I)V
    store 0
    new Holder
    dup
    load 0
    invokespecial Holder.<init>(LItem;)V
    putstatic App.h LHolder;
    const 0
    store 1
  loop:
    load 1
    const 60000
    if_icmpge done
    load 1
    const 1
    add
    store 1
    goto loop
  done:
    invokestatic App.report()V
    return
  }
  static method report()V {
%REPORT%
    return
  }
}
`
	v1 := f.load(`
class Item {
  field n I
  method <init>(I)V {
    load 0
    invokespecial Object.<init>()V
    load 0
    load 1
    putfield Item.n I
    return
  }
}
class Holder {
  field item LItem;
  method <init>(LItem;)V {
    load 0
    invokespecial Object.<init>()V
    load 0
    load 1
    putfield Holder.item LItem;
    return
  }
}
` + strings.Replace(shell, "%REPORT%",
		"    getstatic App.h LHolder;\n    getfield Holder.item LItem;\n    getfield Item.n I\n    invokestatic System.printInt(I)V", 1))
	// In v2 Item.n becomes doubled (renamed field → default 0), and
	// Holder gains a cached copy of the item's doubled value — its
	// transformer must dereference the item, so the item must be
	// transformed first via forceTransform.
	v2 := f.prog(`
class Item {
  field doubled I
  method <init>(I)V {
    load 0
    invokespecial Object.<init>()V
    load 0
    load 1
    putfield Item.doubled I
    return
  }
}
class Holder {
  field item LItem;
  field cache I
  method <init>(LItem;)V {
    load 0
    invokespecial Object.<init>()V
    load 0
    load 1
    putfield Holder.item LItem;
    return
  }
}
` + strings.Replace(shell, "%REPORT%",
		"    getstatic App.h LHolder;\n    getfield Holder.cache I\n    invokestatic System.printInt(I)V", 1))
	custom := `
class JvolveTransformers {
  static method jvolveObject(LItem;Lv1_Item;)V {
    load 0
    load 1
    getfield v1_Item.n I
    const 2
    mul
    putfield Item.doubled I
    return
  }
  static method jvolveObject(LHolder;Lv1_Holder;)V {
    load 1
    getfield v1_Holder.item LItem;
    invokestatic Jvolve.forceTransform(LObject;)V
    load 0
    load 1
    getfield v1_Holder.item LItem;
    putfield Holder.item LItem;
    load 0
    load 1
    getfield v1_Holder.item LItem;
    getfield Item.doubled I
    putfield Holder.cache I
    return
  }
}
`
	f.spawn("App")
	f.vm.Step(2)
	f.mustApply("1", v1, v2, custom)
	if got := strings.TrimSpace(f.finish()); got != "42" {
		t.Fatalf("doubled = %q, want 42 (force-transform ordering)", got)
	}
}

// --- 12. sequential updates --------------------------------------------------------

func TestThreeSequentialUpdates(t *testing.T) {
	f := newFixture(t, 1<<17)
	mk := func(extra string, target int) string {
		return `
class Acc {
  field total I
` + extra + `
  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    return
  }
  method add(I)V {
    load 0
    load 0
    getfield Acc.total I
    load 1
    add
    putfield Acc.total I
    return
  }
}
class App {
  static field a LAcc;
  static method main()V {
    new Acc
    dup
    invokespecial Acc.<init>()V
    putstatic App.a LAcc;
    const 0
    store 0
  loop:
    load 0
    const ` + itoa(target) + `
    if_icmpge done
    getstatic App.a LAcc;
    const 1
    invokevirtual Acc.add(I)V
    load 0
    const 1
    add
    store 0
    goto loop
  done:
    getstatic App.a LAcc;
    getfield Acc.total I
    invokestatic System.printInt(I)V
    return
  }
}
`
	}
	v1 := f.load(mk("", 3000))
	v2 := f.prog(mk("  field x1 I\n", 3000))
	v3 := f.prog(mk("  field x1 I\n  field x2 I\n", 3000))
	v4 := f.prog(mk("  field x1 I\n  field x2 I\n  field x3 LString;\n", 3000))
	f.spawn("App")
	f.vm.Step(2)
	f.mustApply("1", v1, v2, "")
	f.vm.Step(2)
	f.mustApply("2", v2, v3, "")
	f.vm.Step(2)
	f.mustApply("3", v3, v4, "")
	if got := strings.TrimSpace(f.finish()); got != "3000" {
		t.Fatalf("total = %q, want 3000 across three updates", got)
	}
	if len(f.engine.Updates) != 3 {
		t.Fatalf("recorded %d updates", len(f.engine.Updates))
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// --- 13. arrays of updated classes ---------------------------------------------

const arrayV1 = `
class P {
  field v I
  method <init>(I)V {
    load 0
    invokespecial Object.<init>()V
    load 0
    load 1
    putfield P.v I
    return
  }
}
class App {
  static field arr [LP;
  static method main()V {
    const 8
    newarray LP;
    putstatic App.arr [LP;
    const 0
    store 0
  fill:
    load 0
    const 8
    if_icmpge spin
    getstatic App.arr [LP;
    load 0
    new P
    dup
    load 0
    invokespecial P.<init>(I)V
    aset
    load 0
    const 1
    add
    store 0
    goto fill
  spin:
    const 0
    store 1
  loop:
    load 1
    const 60000
    if_icmpge done
    load 1
    const 1
    add
    store 1
    goto loop
  done:
    const 0
    store 2
    const 0
    store 3
  sum:
    load 3
    const 8
    if_icmpge out
    load 2
    getstatic App.arr [LP;
    load 3
    aget
    getfield P.v I
    add
    store 2
    load 3
    const 1
    add
    store 3
    goto sum
  out:
    load 2
    invokestatic System.printInt(I)V
    return
  }
}
`

func TestArrayElementsForwardToTransformedObjects(t *testing.T) {
	f := newFixture(t, 1<<17)
	v1 := f.load(arrayV1)
	// v2 prepends a field to P, shifting v; the array's elements must all
	// point at transformed objects afterwards.
	v2 := f.prog(strings.Replace(arrayV1, "class P {\n  field v I", "class P {\n  field pad LString;\n  field v I", 1))
	f.spawn("App")
	f.vm.Step(2)
	res := f.mustApply("1", v1, v2, "")
	if res.Stats.TransformedObjects != 8 {
		t.Fatalf("transformed %d objects, want 8", res.Stats.TransformedObjects)
	}
	// Sum 0..7 = 28, readable through the array after transformation.
	if got := strings.TrimSpace(f.finish()); got != "28" {
		t.Fatalf("sum = %q, want 28", got)
	}
}

// updateSpec prepares an update spec without applying it.
func (f *fixture) updateSpec(tag string, old, new_ *classfile.Program) (*upt.Spec, error) {
	return upt.Prepare(tag, old, new_)
}

// updateOpts returns default options for direct ApplyNow calls in tests.
func updateOpts() core.Options { return core.Options{} }
