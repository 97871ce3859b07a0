package vm_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"govolve/internal/asm"
	"govolve/internal/core"
	"govolve/internal/rt"
	"govolve/internal/storm"
	"govolve/internal/upt"
	"govolve/internal/vm"
)

// gcPressureSrc builds strings in a loop with T.squeeze in front of every
// allocating String native. squeeze (bound by the test) fills the heap to
// within a few words of full, so the native's first or second guest allocation
// collects — and a semispace collection moves every live object, the
// native's operands included. Operands are held in locals and on the operand
// stack only, the slots the collector rewrites.
//
// A moved object's old copy stays intact in from-space, so a native that kept
// an address across the allocation would still read the right words. The test
// takes that away: its residue hook (which every collection force-completes
// first) runs one extra collection and overwrites the space that one emptied.
// The collection proper then copies back into the poisoned space, and every
// address from before the allocation now reads poison or another object.
const gcPressureSrc = `
class T {
  native static method squeeze(I)V

  static method main()V {
    const 0
    store 0
  loop:
    load 0
    const 150
    if_icmpge done

    load 0
    const 6
    rem
    invokestatic T.squeeze(I)V
    load 0
    const 7919
    mul
    invokestatic String.fromInt(I)LString;
    store 1

    load 0
    const 6
    rem
    invokestatic T.squeeze(I)V
    ldc "req-"
    load 1
    invokevirtual String.concat(LString;)LString;
    store 2

    load 0
    const 6
    rem
    invokestatic T.squeeze(I)V
    load 2
    ldc ",päth/😀,"
    invokevirtual String.concat(LString;)LString;
    load 1
    invokevirtual String.concat(LString;)LString;
    store 2

    load 0
    const 6
    rem
    invokestatic T.squeeze(I)V
    load 2
    const 2
    const 9
    invokevirtual String.substring(II)LString;
    store 3

    load 0
    const 32
    rem
    invokestatic T.squeeze(I)V
    load 2
    const 44
    invokevirtual String.split(C)[LString;
    store 4

    load 2
    invokestatic System.println(LString;)V
    load 3
    invokestatic System.println(LString;)V
    load 4
    const 0
    aget
    checkcast String
    invokestatic System.println(LString;)V
    load 4
    const 1
    aget
    checkcast String
    invokestatic System.println(LString;)V
    load 4
    const 2
    aget
    checkcast String
    invokestatic System.println(LString;)V

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

func gcPressureWant() string {
	var b strings.Builder
	for i := 0; i < 150; i++ {
		n := fmt.Sprint(i * 7919)
		line := "req-" + n + ",päth/😀," + n
		parts := strings.Split(line, ",")
		fmt.Fprintf(&b, "%s\n%s\n%s\n%s\n%s\n", line, string([]rune(line)[2:9]), parts[0], parts[1], parts[2])
	}
	return b.String()
}

// TestStringNativesUnderCollection is the GC-safety rule's test: every
// fromInt/concat/substring/split in the loop has a collection land inside it,
// plain and with the relocation load barrier armed around the natives
// (heap.CopyElems' per-element path, atomic field loads), and the program's
// output still matches the Go reference.
func TestStringNativesUnderCollection(t *testing.T) {
	for _, mode := range []struct {
		name  string
		reloc bool
	}{
		{"serial", false},
		{"reloc-armed", true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			var out bytes.Buffer
			v, err := vm.New(vm.Options{HeapWords: 4096, Out: &out})
			if err != nil {
				t.Fatal(err)
			}
			v.Residue = &vm.DSUResidue{
				Transform: func(rt.Addr) error { return fmt.Errorf("nothing is pending") },
				Tick:      func() {},
				Force: func() error {
					v.Heap.DisarmReloc() // squeeze re-arms
					if _, err := v.GC.Collect(v, false); err != nil {
						t.Errorf("extra collection: %v", err)
						return err
					}
					dead := rt.Addr(1)
					if v.Heap.ScanStart() == dead {
						dead += rt.Addr(v.Heap.SemiWords())
					}
					for a := dead; a < dead+rt.Addr(v.Heap.SemiWords()); a++ {
						v.Heap.SetWord(a, 0xDEADDEADDEADDEAD)
					}
					return nil
				},
			}
			squeezes, lastCollections := 0, 0
			v.BindNative("T", "squeeze(I)V", func(v *vm.VM, _ *vm.Thread, args []rt.Value) (rt.Value, vm.WakeFunc, error) {
				if squeezes > 0 && v.GC.Collections == lastCollections {
					return rt.Value{}, nil, fmt.Errorf("no collection inside the native after squeeze #%d", squeezes)
				}
				squeezes++
				if mode.reloc && !v.Heap.RelocArmed() {
					v.Heap.ArmReloc(1, 1, func(a rt.Addr) rt.Addr { return a }) // empty from-space: never heals
				}
				if n := v.Heap.FreeWords() - int(args[0].Int()) - rt.HeaderWords; n >= 0 {
					v.Heap.AllocArray(false, n)
				}
				lastCollections = v.GC.Collections
				return rt.Value{}, nil, nil
			})
			prog, err := asm.AssembleProgram("gc.jva", gcPressureSrc)
			if err != nil {
				t.Fatal(err)
			}
			if err := v.LoadProgram(prog); err != nil {
				t.Fatal(err)
			}
			th, err := v.SpawnMain("T")
			if err != nil {
				t.Fatal(err)
			}
			if err := v.Run(); err != nil {
				t.Fatal(err)
			}
			if th.Err != nil {
				t.Fatalf("main died: %v", th.Err)
			}
			if squeezes != 150*5 || v.GC.Collections < squeezes {
				t.Fatalf("%d squeezes, %d collections: want a collection inside each of %d natives", squeezes, v.GC.Collections, 150*5)
			}
			if got, want := out.String(), gcPressureWant(); got != want {
				g, w := firstLines(got, want)
				t.Fatalf("output diverged from the Go reference under collection:\n got %q\nwant %q", g, w)
			}
			v.Heap.DisarmReloc()
			v.Residue = nil
			if err := storm.CheckVM(v); err != nil {
				t.Fatalf("whole-VM invariants after the run: %v", err)
			}
		})
	}
}

// firstLines returns the first differing line pair, for a readable failure.
func firstLines(got, want string) (string, string) {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range g {
		if i >= len(w) || g[i] != w[i] {
			if i < len(w) {
				return g[i], w[i]
			}
			return g[i], ""
		}
	}
	return "", "(output truncated)"
}

const bindV1 = `
class Dev {
  static field n I
  native static method id()I
}
class App {
  static method call()V {
    invokestatic Dev.id()I
    invokestatic System.printInt(I)V
    return
  }
}
`

// bindV2 gives Dev a second static (a class update: Dev is replaced, its
// rt.Methods with it) and a second native, and has App.call use both.
const bindV2 = `
class Dev {
  static field n I
  static field m I
  native static method id()I
  native static method extra()I
}
class App {
  static method call()V {
    invokestatic Dev.id()I
    invokestatic System.printInt(I)V
    invokestatic Dev.extra()I
    invokestatic System.printInt(I)V
    return
  }
}
`

// TestNativeBindingAcrossClassUpdate: bindings are by name and cached per
// rt.Method. A class update that replaces the class owning a native method
// leaves the new method unbound until its first call, which resolves by name
// — to the same implementation for a kept native, to the registered one for
// an added native — and never copies the cache of the method it replaced.
func TestNativeBindingAcrossClassUpdate(t *testing.T) {
	var out bytes.Buffer
	v, err := vm.New(vm.Options{HeapWords: 1 << 16, Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	engine := core.NewEngine(v)
	ret := func(n int64) vm.NativeFunc {
		return func(*vm.VM, *vm.Thread, []rt.Value) (rt.Value, vm.WakeFunc, error) {
			return rt.IntVal(n), nil, nil
		}
	}
	v.BindNative("Dev", "id()I", ret(1))
	v.BindNative("Dev", "extra()I", ret(2)) // by name, before any class declares it

	p1, err := asm.AssembleProgram("v1.jva", bindV1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := asm.AssembleProgram("v2.jva", bindV2)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.LoadProgram(p1); err != nil {
		t.Fatal(err)
	}
	call := func() {
		t.Helper()
		if err := v.RunSynchronous("call", v.Reg.LookupClass("App").Method("call", "()V"), nil); err != nil {
			t.Fatal(err)
		}
	}
	oldID := v.Reg.LookupClass("Dev").Method("id", "()I")
	if oldID.Native != nil {
		t.Fatal("binding resolved at load, want lazily at the first call")
	}
	call()
	if oldID.Native == nil {
		t.Fatal("first call did not cache the binding on the method")
	}

	spec, err := upt.Prepare("1", p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.ApplyNow(spec, core.Options{})
	if err != nil || res.Outcome != core.Applied {
		t.Fatalf("update: %v / %+v", err, res)
	}
	newID := v.Reg.LookupClass("Dev").Method("id", "()I")
	if newID == oldID {
		t.Fatal("the update kept Dev's rt.Method: not a class replacement, the test shows nothing")
	}
	if newID.Native != nil {
		t.Fatal("the replacing rt.Method inherited a binding")
	}
	v.BindNative("Dev", "id()I", ret(7)) // rebinding a name reaches methods bound or not
	call()
	if newID.Native == nil || v.Reg.LookupClass("Dev").Method("extra", "()I").Native == nil {
		t.Fatal("the new class's natives were called but not bound")
	}
	if got := out.String(); got != "1\n7\n2\n" {
		t.Fatalf("output = %q, want %q", got, "1\n7\n2\n")
	}
}

// TestUnboundNativeFailsAtCall: a class may declare a native nobody has bound;
// loading it is fine, calling it kills the thread with the method's name, and
// the failure is not cached — binding it later makes the next call work.
func TestUnboundNativeFailsAtCall(t *testing.T) {
	var out bytes.Buffer
	v, err := vm.New(vm.Options{HeapWords: 1 << 16, Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.AssembleProgram("u.jva", `
class U {
  native static method nope()I
  static method call()V {
    invokestatic U.nope()I
    invokestatic System.printInt(I)V
    return
  }
}`)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.LoadProgram(prog); err != nil {
		t.Fatalf("loading a class with an unbound native: %v", err)
	}
	call := v.Reg.LookupClass("U").Method("call", "()V")
	err = v.RunSynchronous("call", call, nil)
	if err == nil || !strings.Contains(err.Error(), "vm: unbound native U.nope()I") {
		t.Fatalf("calling an unbound native: err = %v", err)
	}
	v.BindNative("U", "nope()I", func(*vm.VM, *vm.Thread, []rt.Value) (rt.Value, vm.WakeFunc, error) {
		return rt.IntVal(5), nil, nil
	})
	if err := v.RunSynchronous("call", call, nil); err != nil {
		t.Fatal(err)
	}
	if out.String() != "5\n" {
		t.Fatalf("output = %q", out.String())
	}
}
