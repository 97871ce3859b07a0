package vm_test

import (
	"bytes"
	"runtime"
	"testing"

	"govolve/internal/asm"
	"govolve/internal/bytecode"
	"govolve/internal/rt"
	"govolve/internal/vm"
	"govolve/internal/vm/vmtest"
)

// callMixSrc makes every kind of guest→guest call from two places: main's
// loop, which is called once and so stays base code (load 0 + invokevirtual
// tick is a FLOADINVOKE there), and drive, which is itself called every turn
// and so reaches the opt tier. big and priv are longer than the opt compiler
// inlines, so at every tier each call site is a real call.
const callMixSrc = `
class Obj {
  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    return
  }
  method tick()I {
    const 1
    return
  }
  method virt(I)I {
    load 1
    const 1
    add
    return
  }
  method priv(I)I {
    load 1
    const 1
    add
    const 3
    mul
    const 5
    sub
    const 7
    xor
    const 9
    add
    const 11
    or
    const 13
    sub
    const 1048575
    and
    return
  }
}
class K {
  static method big(I)I {
    load 0
    const 2
    add
    const 4
    mul
    const 6
    sub
    const 8
    xor
    const 10
    add
    const 12
    or
    const 14
    sub
    const 1048575
    and
    return
  }
  static method drive(LObj;I)I {
    load 1
    invokestatic K.big(I)I
    store 1
    load 0
    load 1
    invokespecial Obj.priv(I)I
    store 1
    load 0
    load 1
    invokevirtual Obj.virt(I)I
    return
  }
  static method main()V {
    new Obj
    dup
    invokespecial Obj.<init>()V
    store 0
    const 0
    store 1
  loop:
    load 0
    invokevirtual Obj.tick()I
    load 1
    add
    invokestatic K.big(I)I
    store 1
    load 0
    load 1
    invokespecial Obj.priv(I)I
    store 1
    load 0
    load 1
    invokestatic K.drive(LObj;I)I
    store 1
    goto loop
  }
}
`

// TestCallAllocsPerCall is the call path's gate, a count and not a timing: a
// guest→guest call costs one activation record and nothing else, and records
// come vm.FrameChunk to a Go allocation — so at most ⌈calls ÷ FrameChunk⌉
// allocations plus one part-used chunk per record shape — whether the call is
// static, special or virtual and whether the calling code is base, its plain
// spelling or opt; and no frame of the run ends with an operand stack of a
// different capacity than it was laid out with (the interpreter pushes with
// append: a bound that is too small regrows, which is the other way a call
// comes to cost an allocation of its own). Recorder off, no guest allocation
// in the loop. A native call costs none: TestNativeCallZeroAlloc.
func TestCallAllocsPerCall(t *testing.T) {
	prog, err := asm.AssembleProgram("calls.jva", callMixSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, tier := range []struct {
		name         string
		plain        bool
		optThreshold int
		// caller is the method whose code, at level, makes the calls.
		caller string
		level  rt.OptLevel
	}{
		{"plain", true, 1 << 30, "main", rt.Base},
		{"base", false, 1 << 30, "main", rt.Base},
		{"opt", false, 5, "drive", rt.Opt},
	} {
		t.Run(tier.name, func(t *testing.T) {
			var out bytes.Buffer
			v, err := vm.New(vm.Options{HeapWords: 1 << 14, Out: &out, OptThreshold: tier.optThreshold})
			if err != nil {
				t.Fatal(err)
			}
			v.JIT.Plain = tier.plain
			if err := v.LoadProgram(prog); err != nil {
				t.Fatal(err)
			}
			th, err := v.SpawnMain("K")
			if err != nil {
				t.Fatal(err)
			}
			check := vmtest.WatchStacks(v)
			v.Step(200) // past recompilation, every frame watched
			if err := check(); err != nil {
				t.Fatal(err)
			}
			v.OnFrame = nil

			var caller *rt.CompiledMethod
			if tier.caller == "main" {
				caller = th.Frames[0].CM
			} else {
				caller = v.Reg.LookupClass("K").Method("drive", "(LObj;I)I").Compiled
			}
			sites := 0
			for i := range caller.Code {
				switch caller.Code[i].Op {
				case bytecode.INVOKESTAT_R, bytecode.INVOKESPEC_R, bytecode.INVOKEVIRT_R, bytecode.FLOADINVOKE:
					sites++
				}
			}
			if caller.Level != tier.level || len(caller.Inlined) != 0 || sites < 3 || caller.HoldsSuperinstruction() == tier.plain {
				t.Fatalf("%s is %v code (fused: %v) with %d call sites, %d inlined; want %v making the calls itself, plain=%v",
					tier.caller, caller.Level, caller.HoldsSuperinstruction(), sites, len(caller.Inlined), tier.level, tier.plain)
			}

			calls := func() (n int64) {
				for _, m := range v.Reg.Methods() {
					n += int64(m.Invocations)
				}
				return n
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var made int64
			allocs := testing.AllocsPerRun(1, func() {
				before := calls()
				v.Step(50)
				made = calls() - before
			})
			if th.Err != nil || made < 1000 {
				t.Fatalf("the loop barely ran: %d calls, thread error %v", made, th.Err)
			}
			const shapes = 3
			t.Logf("%d Go allocations for %d guest calls", int64(allocs), made)
			if most := (made+vm.FrameChunk-1)/vm.FrameChunk + shapes; int64(allocs) > most || allocs == 0 {
				t.Fatalf("%d Go allocations for %d guest calls, want 1..%d (a chunk of %d records each, one more per shape)",
					int64(allocs), made, most, vm.FrameChunk)
			}
		})
	}
}

// TestUnverifiedJoinDepths: the depth pass cannot assume what the verifier
// proves. Code loaded past it that reaches a pc at two depths — here join,
// one deep from the branch and three deep from the fall-through — is bounded
// by the deeper, and runs.
func TestUnverifiedJoinDepths(t *testing.T) {
	prog, err := asm.AssembleProgram("forged.jva", `
class U {
  static method main()V {
    const 5
    const 0
    ifeq join
    const 1
    const 2
  join:
    const 7
    add
    invokestatic System.printInt(I)V
    return
  }
}`)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	v, err := vm.New(vm.Options{HeapWords: 1 << 14, Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.LoadProgram(prog); err == nil {
		t.Fatal("the verifier accepted a join at two depths")
	}
	if _, err := v.Reg.LoadProgram(prog); err != nil { // no verifier on this road
		t.Fatal(err)
	}
	check := vmtest.WatchStacks(v)
	th, err := v.SpawnMain("U")
	if err != nil {
		t.Fatal(err)
	}
	if got := th.Frames[0].CM.MaxStack; got != 4 {
		t.Fatalf("MaxStack = %d, want 4: the fall-through reaches join three deep and join pushes one", got)
	}
	if err := v.Run(); err != nil || th.Err != nil || out.String() != "12\n" {
		t.Fatalf("run: %v, thread error %v, output %q (want 12)", err, th.Err, out.String())
	}
	if err := check(); err != nil {
		t.Fatal(err)
	}
}

// TestWatchStacksTellsMovesFromRegrowth: the watcher the bound's tests lean on
// accepts a frame that an OSR moved to a larger record and reports one whose
// stack outgrew its record.
func TestWatchStacksTellsMovesFromRegrowth(t *testing.T) {
	prog, err := asm.AssembleProgram("watch.jva", `
class W {
  static method main()V {
  spin:
    goto spin
  }
  static method wide()V {
    const 1
    const 2
    const 3
    const 4
    const 5
    store 0
    pop
    pop
    pop
    pop
    return
  }
}`)
	if err != nil {
		t.Fatal(err)
	}
	v, err := vm.New(vm.Options{HeapWords: 1 << 14, Out: &bytes.Buffer{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	check := vmtest.WatchStacks(v)
	th, err := v.SpawnMain("W")
	if err != nil {
		t.Fatal(err)
	}
	f := th.Frames[0]
	wide, err := v.JIT.Compile(v.Reg.LookupClass("W").Method("wide", "()V"), rt.Base)
	if err != nil {
		t.Fatal(err)
	}
	before := cap(f.Stack)
	if err := v.OSRRewrite(f, wide, 0, nil); err != nil {
		t.Fatal(err)
	}
	if cap(f.Stack) == before {
		t.Fatalf("the rewrite did not need a larger record (room for %d operands)", before)
	}
	if err := check(); err != nil {
		t.Fatalf("a re-seat read as regrowth: %v", err)
	}
	for len(f.Stack) <= wide.MaxStack+8 {
		f.Stack = append(f.Stack, rt.IntVal(0))
	}
	if err := check(); err == nil {
		t.Fatal("a stack pushed past its record went unreported")
	}
}
