package core_test

import (
	"strings"
	"testing"

	"govolve/internal/rt"
)

// relinkV1 has one class the updates below replace (Box, read through a
// field and dispatched through its TIB) and the code that names it from
// outside (Use).
const relinkV1 = `
class Box {
  field a I
  field b I
  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    return
  }
  method first()I {
    const 1
    return
  }
  method second()I {
    load 0
    getfield Box.b I
    return
  }
}
class Helper {
  static method tiny(LBox;)I {
    load 0
    getfield Box.a I
    return
  }
}
class Shape {
  method who()I {
    const 1
    return
  }
}
class Circle extends Shape {
}
class Use {
  static method callWho(LCircle;)I {
    load 0
    invokevirtual Circle.who()I
    return
  }
  static method readB(LBox;)I {
    load 0
    getfield Box.b I
    return
  }
  static method callSecond(LBox;)I {
    load 0
    invokevirtual Box.second()I
    return
  }
  static method viaHelper(LBox;)I {
    load 0
    invokestatic Helper.tiny(LBox;)I
    return
  }
}
`

// relinkCase compiles the named methods of relinkV1 at the given level, with
// the given invocation counts, applies the update to v2, and returns the
// methods as the update left them (each class's current version).
func relinkCase(t *testing.T, v2 string, level rt.OptLevel, invocations int, methods ...string) (*fixture, map[string]*rt.Method, int) {
	t.Helper()
	f := newFixture(t, 1<<16)
	v1 := f.load(relinkV1)
	lookup := func(name string) *rt.Method {
		cls, mname, _ := strings.Cut(name, ".")
		c := f.vm.Reg.LookupClass(cls)
		for _, m := range c.DeclaredMethods() {
			if m.Def.Name == mname {
				return m
			}
		}
		t.Fatalf("no method %s", name)
		return nil
	}
	for _, name := range methods {
		m := lookup(name)
		cm, err := f.vm.JIT.Compile(m, level)
		if err != nil {
			t.Fatal(err)
		}
		m.Compiled, m.Invocations = cm, invocations
	}
	relinks := f.vm.JIT.Relinks
	f.mustApply("1", v1, f.prog(v2), "")
	after := map[string]*rt.Method{}
	for _, name := range methods {
		after[name] = lookup(name)
	}
	return f, after, f.vm.JIT.Relinks - relinks
}

// checkRelinked requires the update to have left m relinked code for its
// next call, identical to a fresh compile at its level, and that call to
// install it.
func checkRelinked(t *testing.T, f *fixture, m *rt.Method, level rt.OptLevel) {
	t.Helper()
	cm := m.Relinked
	if cm == nil || cm.Invalid || m.Compiled != nil {
		t.Fatalf("%s: no relinked code after the update", m.FullName())
	}
	if cm.Level != level || cm.Method != m {
		t.Fatalf("%s: relinked code is %v for %s; want %v for itself", m.FullName(), cm.Level, cm.Method.FullName(), level)
	}
	fresh, err := f.vm.JIT.Compile(m, level)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := render(cm), render(fresh); got != want {
		t.Fatalf("%s: relinked code differs from a compile\nrelinked:\n%s\ncompiled:\n%s", m.FullName(), got, want)
	}
	args := make([]rt.Value, m.NumArgs)
	for i := range args {
		args[i] = rt.NullVal
	}
	_ = f.vm.RunSynchronous("call", m, args) // a null receiver traps past the install
	if m.Compiled != cm || m.Relinked != nil {
		t.Fatalf("%s: its next call did not install the relinked code", m.FullName())
	}
}

func render(cm *rt.CompiledMethod) string {
	var b strings.Builder
	for _, ins := range cm.Code {
		b.WriteString(ins.String())
		b.WriteByte('\n')
	}
	for _, d := range cm.LayoutDeps {
		b.WriteString(" dep " + d.Name)
	}
	for _, m := range cm.Inlined {
		b.WriteString(" inlined " + m.FullName())
	}
	return b.String()
}

// TestRelinkKeepsWhatTheUpdateLeftValid: a field appended to Box and a
// virtual method appended after the others change no offset and no TIB slot
// any compiled code baked in, so the code naming Box — outside it, and its
// own unchanged methods, now the new version's — is relinked, at base and at
// opt, and is what a compile would emit.
func TestRelinkKeepsWhatTheUpdateLeftValid(t *testing.T) {
	v2 := strings.Replace(relinkV1, "  field b I\n", "  field b I\n  field c I\n", 1)
	v2 = strings.Replace(v2, "class Helper {", `class Helper {
  static method extra()I {
    const 3
    return
  }`, 1)
	v2 = strings.Replace(v2, "    getfield Box.b I\n    return\n  }\n}\nclass Helper", "    getfield Box.b I\n    return\n  }\n  method third()I {\n    const 3\n    return\n  }\n}\nclass Helper", 1)
	for _, tc := range []struct {
		level       rt.OptLevel
		invocations int
	}{{rt.Base, 1}, {rt.Opt, 60}} {
		methods := []string{"Use.readB", "Use.callSecond", "Use.viaHelper", "Box.second", "Box.first"}
		f, after, relinks := relinkCase(t, v2, tc.level, tc.invocations, methods...)
		for _, name := range methods[:3] {
			checkRelinked(t, f, after[name], tc.level)
		}
		// A new version's method starts with no invocations: its next call
		// compiles it at base, so only base code is carried across.
		want := 3
		if tc.level == rt.Base {
			checkRelinked(t, f, after["Box.second"], rt.Base)
			checkRelinked(t, f, after["Box.first"], rt.Base)
			want = 5
		} else if after["Box.second"].Relinked != nil {
			t.Fatalf("opt code of Box.second carried onto the new version, whose next call compiles at base")
		}
		if relinks != want {
			t.Fatalf("%v: %d relinks, want %d", tc.level, relinks, want)
		}
	}
}

// TestRelinkRefusesWhatTheUpdateInvalidated: each update below breaks a fact
// the compiled code baked in, or makes the next call choose the other level,
// so the code is dropped and compiled again on its next call.
func TestRelinkRefusesWhatTheUpdateInvalidated(t *testing.T) {
	for _, tc := range []struct {
		name        string
		v2          string
		level       rt.OptLevel
		invocations int
		method      string
	}{
		{
			name:        "field inserted before an accessed field",
			v2:          strings.Replace(relinkV1, "  field b I\n", "  field z I\n  field b I\n", 1),
			level:       rt.Base,
			invocations: 1,
			method:      "Use.readB",
		},
		{
			name:        "virtual method whose TIB slot shifts",
			v2:          strings.Replace(relinkV1, "  method first()I {", "  method zeroth()I {\n    const 0\n    return\n  }\n  method first()I {", 1),
			level:       rt.Base,
			invocations: 1,
			method:      "Use.callSecond",
		},
		{
			name:        "call a new method hides",
			v2:          strings.Replace(relinkV1, "class Circle extends Shape {\n", "class Circle extends Shape {\n  method who()I {\n    const 2\n    return\n  }\n", 1),
			level:       rt.Base,
			invocations: 1,
			method:      "Use.callWho",
		},
		{
			name:        "opt code that inlined a changed callee",
			v2:          strings.Replace(relinkV1, "    getfield Box.a I\n", "    getfield Box.b I\n", 1),
			level:       rt.Opt,
			invocations: 60,
			method:      "Use.viaHelper",
		},
		{
			name:        "base code whose next call compiles at opt",
			v2:          strings.Replace(relinkV1, "  field b I\n", "  field b I\n  field c I\n", 1),
			level:       rt.Base,
			invocations: 49,
			method:      "Use.readB",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, after, relinks := relinkCase(t, tc.v2, tc.level, tc.invocations, tc.method)
			if m := after[tc.method]; m.Compiled != nil || m.Relinked != nil || relinks != 0 {
				t.Fatalf("%s kept code (%d relinks); want it compiled again on its next call", m.FullName(), relinks)
			}
			if got := f.vm.NextLevel(after[tc.method]); tc.invocations == 49 && got != rt.Opt {
				t.Fatalf("next level %v, want opt", got)
			}
		})
	}
}
