package vm

import (
	"bytes"
	"strings"
	"testing"

	"govolve/internal/asm"
	"govolve/internal/classfile"
	"govolve/internal/rt"
)

func newTestVM(t *testing.T, heapWords int) (*VM, *bytes.Buffer) {
	t.Helper()
	var out bytes.Buffer
	v, err := New(Options{HeapWords: heapWords, Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	return v, &out
}

func loadSrc(t *testing.T, v *VM, src string) {
	t.Helper()
	prog, err := asm.AssembleProgram("test.jva", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
}

func runMain(t *testing.T, v *VM, class string) {
	t.Helper()
	if _, err := v.SpawnMain(class); err != nil {
		t.Fatal(err)
	}
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	for _, th := range v.Threads {
		if th.Err != nil {
			t.Fatalf("thread %s: %v\n%s", th.Name, th.Err, th.Backtrace())
		}
	}
}

func TestArithmeticAndControlFlow(t *testing.T) {
	v, out := newTestVM(t, 1<<16)
	loadSrc(t, v, `
class T {
  static method fib(I)I {
    load 0
    const 2
    if_icmpge rec
    load 0
    return
  rec:
    load 0
    const 1
    sub
    invokestatic T.fib(I)I
    load 0
    const 2
    sub
    invokestatic T.fib(I)I
    add
    return
  }
  static method main()V {
    const 15
    invokestatic T.fib(I)I
    invokestatic System.printInt(I)V
    return
  }
}`)
	runMain(t, v, "T")
	if got := strings.TrimSpace(out.String()); got != "610" {
		t.Fatalf("fib(15) = %q, want 610", got)
	}
}

func TestObjectsVirtualDispatchAndInheritance(t *testing.T) {
	v, out := newTestVM(t, 1<<16)
	loadSrc(t, v, `
class Shape {
  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    return
  }
  method area()I {
    const 0
    return
  }
  method describe()I {
    load 0
    invokevirtual Shape.area()I
    const 1000
    add
    return
  }
}
class Square extends Shape {
  field side I
  method <init>(I)V {
    load 0
    invokespecial Shape.<init>()V
    load 0
    load 1
    putfield Square.side I
    return
  }
  method area()I {
    load 0
    getfield Square.side I
    load 0
    getfield Square.side I
    mul
    return
  }
}
class T {
  static method main()V {
    new Square
    dup
    const 6
    invokespecial Square.<init>(I)V
    invokevirtual Shape.describe()I
    invokestatic System.printInt(I)V
    return
  }
}`)
	runMain(t, v, "T")
	if got := strings.TrimSpace(out.String()); got != "1036" {
		t.Fatalf("describe = %q, want 1036 (virtual dispatch through base method)", got)
	}
}

func TestStringNatives(t *testing.T) {
	v, out := newTestVM(t, 1<<16)
	loadSrc(t, v, `
class T {
  static method main()V {
    ldc "user@example.com"
    const 64
    const 0
    invokevirtual String.indexOf(CI)I
    store 0
    ldc "user@example.com"
    const 0
    load 0
    invokevirtual String.substring(II)LString;
    invokestatic System.println(LString;)V
    const 42
    invokestatic String.fromInt(I)LString;
    invokevirtual String.toInt()I
    invokestatic System.printInt(I)V
    ldc "  padded  "
    invokevirtual String.trim()LString;
    invokestatic System.println(LString;)V
    ldc "a,b,c"
    const 44
    invokevirtual String.split(C)[LString;
    arraylen
    invokestatic System.printInt(I)V
    return
  }
}`)
	runMain(t, v, "T")
	want := "user\n42\npadded\n3\n"
	if out.String() != want {
		t.Fatalf("output = %q, want %q", out.String(), want)
	}
}

func TestClinitRunsAtLoad(t *testing.T) {
	v, out := newTestVM(t, 1<<16)
	loadSrc(t, v, `
class T {
  static field x I
  static method <clinit>()V {
    const 7
    putstatic T.x I
    return
  }
  static method main()V {
    getstatic T.x I
    invokestatic System.printInt(I)V
    return
  }
}`)
	runMain(t, v, "T")
	if got := strings.TrimSpace(out.String()); got != "7" {
		t.Fatalf("clinit result = %q", got)
	}
}

func TestGCTriggeredByAllocation(t *testing.T) {
	// A heap just big enough that the loop of garbage allocations forces
	// several collections while a live linked list survives.
	v, out := newTestVM(t, 3000)
	loadSrc(t, v, `
class Node {
  field next LNode;
  field val I
  method <init>(LNode;I)V {
    load 0
    invokespecial Object.<init>()V
    load 0
    load 1
    putfield Node.next LNode;
    load 0
    load 2
    putfield Node.val I
    return
  }
}
class T {
  static method main()V {
    null
    store 0
    const 0
    store 1
  keep:
    load 1
    const 50
    if_icmpge churn
    new Node
    dup
    load 0
    load 1
    invokespecial Node.<init>(LNode;I)V
    store 0
    load 1
    const 1
    add
    store 1
    goto keep
  churn:
    const 0
    store 2
  loop:
    load 2
    const 2000
    if_icmpge check
    new Node
    dup
    null
    const 0
    invokespecial Node.<init>(LNode;I)V
    pop
    load 2
    const 1
    add
    store 2
    goto loop
  check:
    const 0
    store 3
  sum:
    load 0
    ifnull done
    load 3
    load 0
    getfield Node.val I
    add
    store 3
    load 0
    getfield Node.next LNode;
    store 0
    goto sum
  done:
    load 3
    invokestatic System.printInt(I)V
    return
  }
}`)
	runMain(t, v, "T")
	if v.GC.Collections == 0 {
		t.Fatal("expected at least one collection")
	}
	// Sum 0..49 = 1225 — the live list survived collection intact.
	if got := strings.TrimSpace(out.String()); got != "1225" {
		t.Fatalf("sum = %q, want 1225", got)
	}
}

func TestRuntimeErrorsKillOnlyTheThread(t *testing.T) {
	v, _ := newTestVM(t, 1<<16)
	loadSrc(t, v, `
class Bad {
  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    return
  }
  method run()V {
    null
    checkcast Bad
    store 1
    load 1
    invokevirtual Bad.run()V
    return
  }
}
class T {
  static method main()V {
    new Bad
    dup
    invokespecial Bad.<init>()V
    invokestatic Thread.spawn(LObject;)V
    const 0
    store 0
  loop:
    load 0
    const 100
    if_icmpge done
    load 0
    const 1
    add
    store 0
    goto loop
  done:
    const 1
    invokestatic System.printInt(I)V
    return
  }
}`)
	if _, err := v.SpawnMain("T"); err != nil {
		t.Fatal(err)
	}
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	var mainErr, spawnErr error
	for _, th := range v.Threads {
		if th.Name == "main" {
			mainErr = th.Err
		} else if strings.Contains(th.Name, "Bad.run") {
			spawnErr = th.Err
		}
	}
	if mainErr != nil {
		t.Fatalf("main should survive, got %v", mainErr)
	}
	if spawnErr == nil || !strings.Contains(spawnErr.Error(), "null receiver") {
		t.Fatalf("spawned thread should die with null receiver, got %v", spawnErr)
	}
}

func TestDivisionByZeroAndBounds(t *testing.T) {
	for _, c := range []struct{ name, body, wantSub string }{
		{"div", "const 1\n const 0\n div\n pop\n return", "division by zero"},
		{"bounds", "const 2\n newarray I\n const 5\n aget\n pop\n return", "out of bounds"},
		{"nullfield", "null\n arraylen\n pop\n return", "null dereference"},
	} {
		t.Run(c.name, func(t *testing.T) {
			v, _ := newTestVM(t, 1<<16)
			loadSrc(t, v, "class T {\n static method main()V {\n "+c.body+"\n }\n}")
			if _, err := v.SpawnMain("T"); err != nil {
				t.Fatal(err)
			}
			_ = v.Run()
			th := v.Threads[0]
			if th.Err == nil || !strings.Contains(th.Err.Error(), c.wantSub) {
				t.Fatalf("err = %v, want %q", th.Err, c.wantSub)
			}
		})
	}
}

func TestNetSimEndToEnd(t *testing.T) {
	v, _ := newTestVM(t, 1<<16)
	loadSrc(t, v, `
class Echo {
  static method main()V {
    const 80
    invokestatic Net.listen(I)I
    store 0
  acceptloop:
    load 0
    invokestatic Net.accept(I)I
    store 1
  lineloop:
    load 1
    invokestatic Net.recvLine(I)LString;
    store 2
    load 2
    ifnull closed
    load 1
    ldc "echo: "
    load 2
    invokevirtual String.concat(LString;)LString;
    invokestatic Net.send(ILString;)V
    goto lineloop
  closed:
    load 1
    invokestatic Net.close(I)V
    goto acceptloop
  }
}`)
	if _, err := v.SpawnMain("Echo"); err != nil {
		t.Fatal(err)
	}
	// Server blocks on accept.
	v.Step(5)
	if !v.Net.Listening(80) {
		t.Fatal("server not listening")
	}
	conn, err := v.Net.Connect(80)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Net.ClientSend(conn, "hello"); err != nil {
		t.Fatal(err)
	}
	v.Step(50)
	got, ok := v.Net.ClientRecv(conn)
	if !ok || got != "echo: hello" {
		t.Fatalf("response = %q, %v", got, ok)
	}
	// Second request on same connection.
	_ = v.Net.ClientSend(conn, "again")
	v.Step(50)
	got, ok = v.Net.ClientRecv(conn)
	if !ok || got != "echo: again" {
		t.Fatalf("second response = %q, %v", got, ok)
	}
	v.Net.ClientClose(conn)
	v.Step(50)
	// Server loops back to accept; another client connects fine.
	conn2, err := v.Net.Connect(80)
	if err != nil {
		t.Fatal(err)
	}
	_ = v.Net.ClientSend(conn2, "two")
	v.Step(50)
	if got, ok := v.Net.ClientRecv(conn2); !ok || got != "echo: two" {
		t.Fatalf("conn2 response = %q, %v", got, ok)
	}
}

func TestAdaptiveRecompilation(t *testing.T) {
	v, _ := newTestVM(t, 1<<16)
	v.JIT.OptThreshold = 10
	loadSrc(t, v, `
class T {
  static method hot()I {
    const 1
    const 2
    add
    return
  }
  static method main()V {
    const 0
    store 0
  loop:
    load 0
    const 50
    if_icmpge done
    invokestatic T.hot()I
    pop
    load 0
    const 1
    add
    store 0
    goto loop
  done:
    return
  }
}`)
	runMain(t, v, "T")
	hot := v.Reg.LookupClass("T").Method("hot", "()I")
	if hot.Compiled == nil || hot.Compiled.Level != rt.Opt {
		t.Fatalf("hot method not opt-compiled: %+v", hot.Compiled)
	}
	if v.JIT.OptCompiles == 0 {
		t.Fatal("no opt compiles recorded")
	}
}

// TestLoopingMethodStillReachesOpt: which methods reach the opt tier is a
// function of invocation counts alone. spin stays on top of its thread's stack
// for five slices per call — the shape trace promotion used to catch on its
// third slice and move to a level resolveCompiled never promoted from — and is
// opt-compiled by its OptThreshold-th invocation like any other method.
func TestLoopingMethodStillReachesOpt(t *testing.T) {
	var out bytes.Buffer
	v, err := New(Options{HeapWords: 1 << 14, Out: &out, Quantum: 10, OptThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	loadSrc(t, v, `
class T {
  static method spin()V {
    const 50
    store 0
  loop:
    load 0
    ifle done
    load 0
    const 1
    sub
    store 0
    goto loop
  done:
    return
  }
  static method main()V {
  again:
    invokestatic T.spin()V
    goto again
  }
}`)
	if _, err := v.SpawnMain("T"); err != nil {
		t.Fatal(err)
	}
	spin := v.Reg.LookupClass("T").Method("spin", "()V")
	for calls, slices := 0, 0; spin.Invocations < v.JIT.OptThreshold; slices++ {
		if spin.Invocations > calls {
			if calls > 0 && slices < 3 {
				t.Fatalf("call %d of spin took %d slices, want >= 3", calls, slices)
			}
			calls, slices = spin.Invocations, 0
		}
		if spin.Compiled != nil && spin.Compiled.Level != rt.Base {
			t.Fatalf("spin is %v code after %d invocations", spin.Compiled.Level, spin.Invocations)
		}
		if v.Step(1) == 0 {
			t.Fatal("main died")
		}
	}
	if spin.Compiled.Level != rt.Opt {
		t.Fatalf("spin is %v code at invocation %d, threshold %d", spin.Compiled.Level, spin.Invocations, v.JIT.OptThreshold)
	}
}

func TestOSRReplaceChecks(t *testing.T) {
	v, _ := newTestVM(t, 1<<16)
	loadSrc(t, v, `
class T {
  static method m()V {
    nop
    return
  }
}`)
	m := v.Reg.LookupClass("T").Method("m", "()V")
	cm1, err := v.JIT.Compile(m, rt.Base)
	if err != nil {
		t.Fatal(err)
	}
	cm2, err := v.JIT.Compile(m, rt.Base)
	if err != nil {
		t.Fatal(err)
	}
	f := &Frame{CM: cm1, Locals: make([]rt.Value, cm1.MaxLocals)}
	if err := v.OSRReplace(f, cm2); err != nil {
		t.Fatalf("identity OSR failed: %v", err)
	}
	opt, err := v.JIT.Compile(m, rt.Opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.OSRReplace(f, opt); err == nil {
		t.Fatal("OSR to opt code accepted")
	}
}

// TestOSRReseat drives both OSR entry points onto code that needs more than
// the record the frame was laid out in, parked with an operand on the stack
// and a return barrier set: the header stays put (callers hold it by pointer),
// locals and live operands move, and there is room for the new code's bounds.
// A target that fits leaves the record alone.
func TestOSRReseat(t *testing.T) {
	v, _ := newTestVM(t, 1<<16)
	loadSrc(t, v, `
class T {
  static method m(IIIIII)I {
    load 0
    const 3
    const 4
    add
    add
    return
  }
  static method wide(IIIIII)I {
    load 0
    store 7
    load 0
    load 1
    load 2
    load 3
    add
    add
    add
    return
  }
}`)
	m := v.Reg.LookupClass("T").Method("m", "(IIIIII)I")
	opt, err := v.JIT.Compile(m, rt.Opt)
	if err != nil {
		t.Fatal(err)
	}
	base, err := v.JIT.Compile(m, rt.Base)
	if err != nil {
		t.Fatal(err)
	}
	// Folding const 3, const 4, add makes the opt code one operand shallower
	// than the bytecode, and 6 locals + 2 operands fill the 8-slot record.
	if opt.MaxStack != 2 || base.MaxStack != 3 {
		t.Fatalf("MaxStack opt %d, base %d; the test wants 2 and 3", opt.MaxStack, base.MaxStack)
	}
	park := func(cm *rt.CompiledMethod) *Frame {
		f := v.newFrame(cm, cm.MaxLocals, cm.MaxStack)
		for i := range f.Locals {
			f.Locals[i] = rt.IntVal(int64(i + 1))
		}
		f.Stack = append(f.Stack, f.Locals[0]) // as if load 0 had run
		f.PC, f.Barrier = 1, true
		return f
	}
	check := func(f *Frame, cm *rt.CompiledMethod, locals ...int64) {
		t.Helper()
		if f.CM != cm || f.PC != 1 || !f.Barrier || len(f.Stack) != 1 || f.Stack[0].Int() != 1 {
			t.Fatalf("frame state lost: pc %d, barrier %v, operands %v", f.PC, f.Barrier, f.Stack)
		}
		if len(f.Locals) < cm.MaxLocals || cap(f.Stack) < cm.MaxStack {
			t.Fatalf("%d locals, room for %d operands; the code needs %d, %d", len(f.Locals), cap(f.Stack), cm.MaxLocals, cm.MaxStack)
		}
		for i, want := range locals {
			if got := f.Locals[i].Int(); got != want {
				t.Fatalf("local %d = %d, want %d (locals %v)", i, got, want, f.Locals)
			}
		}
	}

	f := park(opt)
	if cap(f.Stack) >= base.MaxStack {
		t.Fatalf("opt frame already has room for %d operands", cap(f.Stack))
	}
	if err := v.OSRReplace(f, base); err != nil {
		t.Fatal(err)
	}
	check(f, base, 1, 2, 3, 4, 5, 6)
	room := cap(f.Stack)
	if err := v.OSRReplace(f, base); err != nil || cap(f.Stack) != room {
		t.Fatalf("OSR onto code that fits moved the frame (err %v)", err)
	}

	// An active-method rewrite onto a body with two more locals and a deeper
	// stack, through a map that swaps two slots and drops the rest.
	wide, err := v.JIT.Compile(v.Reg.LookupClass("T").Method("wide", "(IIIIII)I"), rt.Base)
	if err != nil {
		t.Fatal(err)
	}
	f = park(opt)
	if wide.MaxLocals <= len(f.Locals) || wide.MaxStack <= cap(f.Stack) {
		t.Fatalf("wide needs %d locals, %d operands: it fits", wide.MaxLocals, wide.MaxStack)
	}
	if err := v.OSRRewrite(f, wide, 1, map[int]int{0: 1, 1: 0, 5: 7}); err != nil {
		t.Fatal(err)
	}
	check(f, wide, 2, 1, 0, 0, 0, 0, 0, 6)
	room = cap(f.Stack)
	if err := v.OSRRewrite(f, wide, 1, map[int]int{0: 1, 1: 0}); err != nil || cap(f.Stack) != room {
		t.Fatalf("rewrite onto code that fits moved the frame (err %v)", err)
	}
	check(f, wide, 1, 2, 0, 0, 0, 0, 0, 0)
	if err := v.OSRRewrite(f, wide, 1, nil); err != nil {
		t.Fatal(err)
	}
	check(f, wide, 1, 2, 0, 0, 0, 0, 0, 0)
}

func TestDeadlockDetection(t *testing.T) {
	v, _ := newTestVM(t, 1<<16)
	loadSrc(t, v, `
class T {
  static method main()V {
    const 99
    invokestatic Net.accept(I)I
    pop
    return
  }
}`)
	if _, err := v.SpawnMain("T"); err != nil {
		t.Fatal(err)
	}
	if err := v.Run(); err != ErrDeadlock {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestHandlesSurviveGC(t *testing.T) {
	v, _ := newTestVM(t, 2048)
	a, err := v.NewString("pinned")
	if err != nil {
		t.Fatal(err)
	}
	h := v.PushHandle(a)
	if _, err := v.CollectGarbage(); err != nil {
		t.Fatal(err)
	}
	s, ok := v.GoString(h.Ref())
	if !ok || s != "pinned" {
		t.Fatalf("handle content after GC = %q, %v", s, ok)
	}
	v.PopHandle(1)
}

func TestProgramVerificationRejectsAtLoad(t *testing.T) {
	v, _ := newTestVM(t, 1<<16)
	prog, err := asm.AssembleProgram("bad.jva", `
class T {
  static method main()V {
    add
    return
  }
}`)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.LoadProgram(prog); err == nil {
		t.Fatal("unverifiable program loaded")
	}
	var _ = classfile.Desc("I")
}

// TestRunSynchronousResidentThread: synchronous runs reuse one resident
// thread per nesting depth under a fresh id each, leave the thread table as
// they found it whatever the outcome — a clean return, a trap with frames
// still stacked, a blocking native (an error: nothing can wake it), or guest
// code that registered a thread of its own behind the run's — and a run after
// a failed one starts from cleared locals and an empty operand stack.
func TestRunSynchronousResidentThread(t *testing.T) {
	v, out := newTestVM(t, 1<<14)
	loadSrc(t, v, `
class Child {
  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    return
  }
  method run()V {
    const 7
    invokestatic System.printInt(I)V
    return
  }
}
class S {
  static method sum(II)V {
    load 0
    load 1
    add
    store 2
    load 2
    invokestatic System.printInt(I)V
    return
  }
  static method deep()V {
    const 1
    invokestatic S.boom()I
    add
    invokestatic System.printInt(I)V
    return
  }
  static method boom()I {
    trap "boom"
  }
  static method sleeper()V {
    const 1000
    invokestatic Thread.sleep(I)V
    return
  }
  static method spawner()V {
    new Child
    dup
    invokespecial Child.<init>()V
    invokestatic Thread.spawn(LObject;)V
    return
  }
}`)
	s := v.Reg.LookupClass("S")
	run := func(name, sig string, args ...rt.Value) error {
		t.Helper()
		before, spawned := len(v.Threads), v.Stats().ThreadsSpawned
		err := v.RunSynchronous(name, s.Method(name, classfile.Sig(sig)), args)
		want := before
		if name == "spawner" {
			want, spawned = want+1, spawned+1 // the child, and nothing else
		}
		if len(v.Threads) != want || v.syncDepth != 0 {
			t.Fatalf("%s: %d threads registered (want %d), depth %d", name, len(v.Threads), want, v.syncDepth)
		}
		if got := v.Stats().ThreadsSpawned; got != spawned+1 {
			t.Fatalf("%s: ThreadsSpawned moved %d → %d, want one per run", name, spawned, got)
		}
		return err
	}
	if err := run("sum", "(II)V", rt.IntVal(2), rt.IntVal(3)); err != nil {
		t.Fatal(err)
	}
	if err := run("deep", "()V"); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("trap under a stacked frame: err = %v", err)
	}
	if err := run("sleeper", "()V"); err == nil || !strings.Contains(err.Error(), "synchronous thread sleeper blocked") {
		t.Fatalf("blocking native: err = %v", err)
	}
	if err := run("spawner", "()V"); err != nil {
		t.Fatal(err)
	}
	if child := v.Threads[len(v.Threads)-1]; child.Name != "Child.run" || child == &v.syncThreads[0].Thread {
		t.Fatalf("the run removed the wrong thread: %s is last", child.Name)
	}
	if err := run("sum", "(II)V", rt.IntVal(40)); err != nil { // one argument: local 1 must read 0
		t.Fatal(err)
	}
	if len(v.syncThreads) != 1 || v.syncThreads[0].root.CM != nil || len(v.syncThreads[0].Frames) != 0 {
		t.Fatalf("%d resident threads, idle one holding code or frames", len(v.syncThreads))
	}
	// Methods of different shapes take turns on the root, which settles on one
	// record that holds them all.
	root := &v.syncThreads[0].root
	locals, room := cap(root.Locals), cap(root.Stack)
	if err := run("spawner", "()V"); err != nil {
		t.Fatal(err)
	}
	if err := run("sum", "(II)V", rt.IntVal(40)); err != nil {
		t.Fatal(err)
	}
	if cap(root.Locals) != locals || cap(root.Stack) != room {
		t.Fatalf("resident root re-seated in steady state: %d locals, %d operands → %d, %d", locals, room, cap(root.Locals), cap(root.Stack))
	}
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if out.String() != "5\n40\n40\n7\n7\n" {
		t.Fatalf("output = %q, want 5, 40, 40 and the two children's 7s", out.String())
	}
}
