package verifier

import (
	"strings"
	"testing"
	"testing/quick"

	"govolve/internal/asm"
	"govolve/internal/bytecode"
	"govolve/internal/classfile"
)

// base is a small hierarchy the test programs build on.
const base = `
class Object {
  method <init>()V {
    return
  }
}
class String {
  private field chars [C
  native method concat(LString;)LString;
}
class Animal {
  field legs I
  private field secret I
  final field tag I
  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    load 0
    const 1
    putfield Animal.tag I
    return
  }
  method speak()LString; {
    ldc "..."
    return
  }
}
class Dog extends Animal {
  field tricks I
  method speak()LString; {
    ldc "woof"
    return
  }
}
`

func mustEnv(t *testing.T, extra string) *classfile.Program {
	t.Helper()
	p, err := asm.AssembleProgram("env.jva", base+extra)
	if err != nil {
		t.Fatalf("assemble env: %v", err)
	}
	return p
}

// verifyBoth returns the engine's verdict on the class and fails the test if
// the reference model (reference_test.go) gives a different one: every
// program in this file, the single-fault tables included, is a differential
// case as well.
func verifyBoth(t *testing.T, env Env, mode Mode, c *classfile.Class) error {
	t.Helper()
	verdict, diff := VerifyBoth(env, mode, c)
	if diff != "" {
		t.Error(diff)
	}
	return verdict
}

// verifyOne assembles a class body and verifies the named class.
func verifyOne(t *testing.T, extra, class string, mode Mode) error {
	t.Helper()
	p := mustEnv(t, extra)
	return verifyBoth(t, ProgramEnv{p}, mode, p.Classes[class])
}

func TestAcceptsValidPrograms(t *testing.T) {
	cases := map[string]string{
		"arith": `
class T {
  static method m(II)I {
    load 0
    load 1
    add
    const 2
    mul
    return
  }
}`,
		"branch merge": `
class T {
  static method m(I)LAnimal; {
    load 0
    ifeq a
    new Dog
    goto done
  a:
    new Animal
  done:
    store 1
    load 1
    return
  }
}`,
		"null merges with ref": `
class T {
  static method m(I)LAnimal; {
    load 0
    ifeq a
    new Animal
    goto done
  a:
    null
  done:
    return
  }
}`,
		"virtual dispatch on subclass": `
class T {
  static method m(LDog;)LString; {
    load 0
    invokevirtual Animal.speak()LString;
    return
  }
}`,
		"arrays": `
class T {
  static method m(I)I {
    load 0
    newarray I
    store 1
    load 1
    const 0
    const 7
    aset
    load 1
    arraylen
    return
  }
}`,
		"loop": `
class T {
  static method m(I)I {
    const 0
    store 1
  loop:
    load 0
    ifle done
    load 1
    load 0
    add
    store 1
    load 0
    const 1
    sub
    store 0
    goto loop
  done:
    load 1
    return
  }
}`,
		"instanceof and checkcast": `
class T {
  static method m(LAnimal;)LDog; {
    load 0
    instanceof Dog
    ifeq no
    load 0
    checkcast Dog
    return
  no:
    null
    return
  }
}`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			if err := verifyOne(t, src, "T", Strict); err != nil {
				t.Fatalf("valid program rejected: %v", err)
			}
		})
	}
}

func TestRejectsInvalidPrograms(t *testing.T) {
	cases := map[string]struct{ src, wantSub string }{
		"stack underflow": {`
class T {
  static method m()V {
    add
    return
  }
}`, "underflow"},
		"int where ref": {`
class T {
  static method m()V {
    const 1
    ifnull a
  a:
    return
  }
}`, "want reference"},
		"ref where int": {`
class T {
  static method m()V {
    null
    const 1
    add
    return
  }
}`, "want int"},
		"bad return type": {`
class T {
  static method m()I {
    null
    return
  }
}`, "return"},
		"missing return value": {`
class T {
  static method m()I {
    return
  }
}`, "underflow"},
		"values left on stack": {`
class T {
  static method m()V {
    const 1
    return
  }
}`, "left on stack"},
		"unknown field": {`
class T {
  static method m(LAnimal;)I {
    load 0
    getfield Animal.nope I
    return
  }
}`, "unknown field"},
		"field type mismatch": {`
class T {
  static method m(LAnimal;)I {
    load 0
    getfield Animal.legs Z
    return
  }
}`, "instruction says"},
		"unknown method": {`
class T {
  static method m(LAnimal;)V {
    load 0
    invokevirtual Animal.fly()V
    return
  }
}`, "unknown method"},
		"arg type mismatch": {`
class T {
  static method m(LAnimal;)LString; {
    load 0
    invokevirtual Animal.speak()LString;
    load 0
    invokevirtual String.concat(LString;)LString;
    return
  }
}`, "not a subclass"},
		"superclass direction": {`
class T {
  static method m(LAnimal;)LDog; {
    load 0
    return
  }
}`, "not a subclass"},
		"falls off end": {`
class T {
  static method m()V {
    nop
  }
}`, "falls off end"},
		"stack depth mismatch at join": {`
class T {
  static method m(I)V {
    load 0
    ifeq a
    const 1
  a:
    return
  }
}`, "depth mismatch"},
		"static vs instance": {`
class T {
  static method m(LAnimal;)LString; {
    invokestatic Animal.speak()LString;
    return
  }
}`, "static mismatch"},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			err := verifyOne(t, c.src, "T", Strict)
			if err == nil {
				t.Fatal("invalid program accepted")
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error %q missing %q", err, c.wantSub)
			}
		})
	}
}

// Store out-of-range appears at asm level too; verify the verifier catches
// hand-built code where MaxLocals lies.
func TestLocalNotAssigned(t *testing.T) {
	m := &classfile.Method{Name: "m", Sig: "()I", Static: true, MaxLocals: 2,
		Code: []bytecode.Ins{
			{Op: bytecode.LOAD, A: 1},
			{Op: bytecode.RETURN},
		}}
	cls := &classfile.Class{Name: "T", Super: "Object", Methods: []*classfile.Method{m}}
	p := mustEnv(t, "")
	_ = p.Add(cls)
	err := verifyBoth(t, ProgramEnv{p}, Strict, cls)
	if err == nil || !strings.Contains(err.Error(), "definitely assigned") {
		t.Fatalf("err = %v", err)
	}
}

func TestAccessControl(t *testing.T) {
	// Private field access from another class: rejected strictly,
	// accepted relaxed (the transformer-compiler special case).
	src := `
class T {
  static method m(LAnimal;)I {
    load 0
    getfield Animal.secret I
    return
  }
}`
	if err := verifyOne(t, src, "T", Strict); err == nil ||
		!strings.Contains(err.Error(), "private") {
		t.Fatalf("strict: err = %v", err)
	}
	if err := verifyOne(t, src, "T", Relaxed); err != nil {
		t.Fatalf("relaxed: %v", err)
	}

	// Final field write outside the constructor: same split.
	src2 := `
class T {
  static method m(LAnimal;)V {
    load 0
    const 9
    putfield Animal.tag I
    return
  }
}`
	if err := verifyOne(t, src2, "T", Strict); err == nil ||
		!strings.Contains(err.Error(), "final") {
		t.Fatalf("strict final: err = %v", err)
	}
	if err := verifyOne(t, src2, "T", Relaxed); err != nil {
		t.Fatalf("relaxed final: %v", err)
	}

	// Final write inside the declaring constructor is fine strictly (the
	// Animal <init> in the base env does it).
	if err := verifyOne(t, "", "Animal", Strict); err != nil {
		t.Fatalf("constructor final write rejected: %v", err)
	}
}

func TestHierarchyChecks(t *testing.T) {
	p := mustEnv(t, "")
	// Unknown superclass.
	bad := &classfile.Class{Name: "X", Super: "Nowhere"}
	_ = p.Add(bad)
	if err := verifyBoth(t, ProgramEnv{p}, Strict, bad); err == nil {
		t.Error("unknown superclass accepted")
	}
	// Cycle.
	p2 := mustEnv(t, "")
	a := &classfile.Class{Name: "A", Super: "B"}
	b := &classfile.Class{Name: "B", Super: "A"}
	_ = p2.Add(a)
	_ = p2.Add(b)
	if err := verifyBoth(t, ProgramEnv{p2}, Strict, a); err == nil {
		t.Error("superclass cycle accepted")
	}
}

// Property: a straight-line program made only of CONST pushes and matching
// POPs, ending in return, always verifies; removing one CONST (leaving an
// extra POP) never does.
func TestStackDisciplineProperty(t *testing.T) {
	p := mustEnv(t, "")
	build := func(n int, dropOne bool) *classfile.Method {
		var code []bytecode.Ins
		for i := 0; i < n; i++ {
			code = append(code, bytecode.Ins{Op: bytecode.CONST, A: int64(i)})
		}
		pops := n
		if dropOne {
			pops = n + 1
		}
		for i := 0; i < pops; i++ {
			code = append(code, bytecode.Ins{Op: bytecode.POP})
		}
		code = append(code, bytecode.Ins{Op: bytecode.RETURN})
		return &classfile.Method{Name: "m", Sig: "()V", Static: true, MaxLocals: 0, Code: code}
	}
	f := func(raw uint8) bool {
		n := int(raw%16) + 1
		cls := &classfile.Class{Name: "Q", Super: "Object"}
		cls.Methods = []*classfile.Method{build(n, false)}
		if err := verifyBoth(t, ProgramEnv{p}, Strict, cls); err != nil {
			return false
		}
		cls.Methods = []*classfile.Method{build(n, true)}
		return verifyBoth(t, ProgramEnv{p}, Strict, cls) != nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestVerifyClassAllocs: verification builds no scratch of its own once one
// has been given back. A warm Verifier verifies a class with no Go
// allocation, and so does a fresh one, as a request's transformer check
// builds, once an earlier verification has given its scratch back.
func TestVerifyClassAllocs(t *testing.T) {
	p := mustEnv(t, `
class T {
  field next LT;
  static method walk(LT;I)I {
    load 0
    ifnull done
    load 0
    getfield T.next LT;
    load 1
    const 1
    add
    invokestatic T.walk(LT;I)I
    return
  done:
    load 1
    return
  }
}`)
	c := p.Classes["T"]
	v := New(ProgramEnv{p}, Strict)
	if err := v.VerifyClass(c); err != nil {
		t.Fatal(err)
	}
	warm := testing.AllocsPerRun(50, func() {
		if err := v.VerifyClass(c); err != nil {
			t.Fatal(err)
		}
	})
	fresh := testing.AllocsPerRun(50, func() {
		if err := New(ProgramEnv{p}, Relaxed).VerifyClass(c); err != nil {
			t.Fatal(err)
		}
	})
	if warm != 0 || fresh != 0 {
		t.Fatalf("VerifyClass makes %v Go allocations warm and %v on a fresh Verifier; want 0", warm, fresh)
	}
}
