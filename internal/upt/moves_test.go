package upt

import (
	"reflect"
	"testing"

	"govolve/internal/asm"
	"govolve/internal/classfile"
)

// override assembles one JvolveTransformers method and installs it — through
// OverrideTransformer, or by editing the exported class directly, which the
// proof must see just the same.
func override(t *testing.T, s *Spec, direct bool, body string) {
	t.Helper()
	classes, err := asm.Assemble("custom.jva", "class JvolveTransformers {\n"+body+"\n}")
	if err != nil {
		t.Fatal(err)
	}
	m := classes[0].Methods[0]
	if !direct {
		s.OverrideTransformer(m)
		return
	}
	for i, old := range s.Transformers.Methods {
		if old.ID() == m.ID() {
			s.Transformers.Methods[i] = m
			return
		}
	}
	t.Fatalf("no generated %s to replace", m.ID())
}

// TestMoveProof: which jvolveObject / jvolveClass bodies are pure field
// copies. The generated defaults and hand-written pure renames are; anything
// with one instruction more, a constant, a read of the wrong object, another
// tail, or a descriptor that does not match the fields is not.
func TestMoveProof(t *testing.T) {
	const objSig = "  static method jvolveObject(LUser;Lv1_User;)V {\n"
	const clsSig = "  static method jvolveClass(LUser;)V {\n"
	const copyAge = "    load 0\n    load 1\n    getfield v1_User.age I\n    putfield User.age I\n"
	cases := []struct {
		name string
		body string // "" keeps the generated default
		obj  []FieldMove
		cls  []FieldMove
		okO  bool
		okC  bool
	}{
		{name: "generated defaults", okO: true, okC: true,
			obj: []FieldMove{{"name", "name"}, {"age", "age"}}, cls: []FieldMove{{"count", "count"}}},
		{name: "carries nothing", body: objSig + "    return\n  }", okO: true, okC: true,
			obj: []FieldMove{}, cls: []FieldMove{{"count", "count"}}},
		{name: "pure rename, twice into one field", okO: true, okC: true,
			body: objSig + "    load 0\n    load 1\n    getfield v1_User.name LString;\n    putfield User.email LString;\n" +
				copyAge + copyAge + "    return\n  }",
			obj: []FieldMove{{"name", "email"}, {"age", "age"}, {"age", "age"}}, cls: []FieldMove{{"count", "count"}}},
		{name: "an extra instruction", body: objSig + "    nop\n" + copyAge + "    return\n  }", okC: true,
			cls: []FieldMove{{"count", "count"}}},
		{name: "a constant store", okC: true, cls: []FieldMove{{"count", "count"}},
			body: objSig + "    load 0\n    const 7\n    putfield User.age I\n    return\n  }"},
		{name: "getfield on load 0", okC: true, cls: []FieldMove{{"count", "count"}},
			body: objSig + "    load 0\n    load 0\n    getfield User.age I\n    putfield User.age I\n    return\n  }"},
		{name: "loads swapped", okC: true, cls: []FieldMove{{"count", "count"}},
			body: objSig + "    load 1\n    load 0\n    getfield v1_User.age I\n    putfield User.age I\n    return\n  }"},
		{name: "a trap for a tail", okC: true, cls: []FieldMove{{"count", "count"}},
			body: objSig + copyAge + "    trap \"no\"\n  }"},
		{name: "descs differ between get and put", okC: true, cls: []FieldMove{{"count", "count"}},
			body: objSig + "    load 0\n    load 1\n    getfield v1_User.age I\n    putfield User.email LString;\n    return\n  }"},
		{name: "desc is not the field's", okC: true, cls: []FieldMove{{"count", "count"}},
			body: objSig + "    load 0\n    load 1\n    getfield v1_User.name I\n    putfield User.age I\n    return\n  }"},
		{name: "no such old field", okC: true, cls: []FieldMove{{"count", "count"}},
			body: objSig + "    load 0\n    load 1\n    getfield v1_User.email LString;\n    putfield User.email LString;\n    return\n  }"},
		{name: "a static read as a field", okC: true, cls: []FieldMove{{"count", "count"}},
			body: objSig + "    load 0\n    load 1\n    getfield v1_User.count I\n    putfield User.age I\n    return\n  }"},
		{name: "put into another class", okC: true, cls: []FieldMove{{"count", "count"}},
			body: objSig + "    load 0\n    load 1\n    getfield v1_User.age I\n    putfield Admin.age I\n    return\n  }"},
		{name: "class transformer with a constant", okO: true, obj: []FieldMove{{"name", "name"}, {"age", "age"}},
			body: clsSig + "    const 3\n    putstatic User.count I\n    return\n  }"},
		{name: "class transformer reading the new class", okO: true, obj: []FieldMove{{"name", "name"}, {"age", "age"}},
			body: clsSig + "    getstatic User.count I\n    putstatic User.count I\n    return\n  }"},
		{name: "class transformer that carries nothing", okO: true, okC: true,
			obj: []FieldMove{{"name", "name"}, {"age", "age"}}, cls: []FieldMove{},
			body: clsSig + "    return\n  }"},
	}
	for _, tc := range cases {
		for _, direct := range []bool{false, true} {
			s, err := Prepare("1", prog(t, v1), prog(t, v2))
			if err != nil {
				t.Fatal(err)
			}
			if tc.body != "" {
				override(t, s, direct, tc.body)
			}
			obj, okO := s.ObjectMoves("User")
			if okO != tc.okO || (okO && !reflect.DeepEqual(obj, tc.obj)) {
				t.Errorf("%s (direct=%v): ObjectMoves = %v, %v; want %v, %v", tc.name, direct, obj, okO, tc.obj, tc.okO)
			}
			cls, okC := s.ClassMoves("User")
			if okC != tc.okC || (okC && !reflect.DeepEqual(cls, tc.cls)) {
				t.Errorf("%s (direct=%v): ClassMoves = %v, %v; want %v, %v", tc.name, direct, cls, okC, tc.cls, tc.okC)
			}
			// Admin is only transitively updated: its default carries the
			// inherited fields too, whatever was done to User's.
			if adm, ok := s.ObjectMoves("Admin"); !ok || len(adm) != 3 {
				t.Errorf("%s: ObjectMoves(Admin) = %v, %v", tc.name, adm, ok)
			}
		}
	}
}

// TestMoveProofNeedsTheMethod: a class that is not updated, a missing
// transformer and a native or non-static one are all "not a move".
func TestMoveProofNeedsTheMethod(t *testing.T) {
	s, err := Prepare("1", prog(t, v1), prog(t, v2))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.ObjectMoves("Report"); ok {
		t.Error("ObjectMoves(Report): Report is not a class update")
	}
	m := s.Transformers.Method("jvolveObject", classfile.Sig("(LUser;Lv1_User;)V"))
	m.Static = false
	if _, ok := s.ObjectMoves("User"); ok {
		t.Error("ObjectMoves(User) accepted an instance method")
	}
	m.Static, m.Native = true, true
	if _, ok := s.ObjectMoves("User"); ok {
		t.Error("ObjectMoves(User) accepted a native method")
	}
	s.Transformers = nil
	if _, ok := s.ClassMoves("User"); ok {
		t.Error("ClassMoves(User) without a transformer class")
	}
}
