package upt

import (
	"strings"
	"testing"
	"testing/quick"

	"govolve/internal/asm"
	"govolve/internal/bootstrap"
	"govolve/internal/classfile"
)

func prog(t *testing.T, src string) *classfile.Program {
	t.Helper()
	p, err := asm.AssembleProgram("t.jva", src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const v1 = `
class User {
  private field name LString;
  field age I
  static field count I
  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    return
  }
  method getName()LString; {
    load 0
    getfield User.name LString;
    return
  }
  method setAge(I)V {
    load 0
    load 1
    putfield User.age I
    return
  }
}
class Admin extends User {
  field level I
  method promote()V {
    load 0
    load 0
    getfield Admin.level I
    const 1
    add
    putfield Admin.level I
    return
  }
}
class Report {
  static method describe(LUser;)LString; {
    load 0
    invokevirtual User.getName()LString;
    return
  }
  static method untouched()I {
    const 1
    return
  }
}
`

// v2: User gains a field (class update), getName body changes, setAge's
// signature changes, Report.describe bytecode unchanged (indirect), a new
// class appears, and Admin is transitively affected.
const v2 = `
class User {
  private field name LString;
  field age I
  field email LString;
  static field count I
  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    return
  }
  method getName()LString; {
    load 0
    getfield User.name LString;
    ifnull anon
    load 0
    getfield User.name LString;
    return
  anon:
    ldc "anonymous"
    return
  }
  method setAge(II)V {
    load 0
    load 1
    load 2
    add
    putfield User.age I
    return
  }
}
class Admin extends User {
  field level I
  method promote()V {
    load 0
    load 0
    getfield Admin.level I
    const 1
    add
    putfield Admin.level I
    return
  }
}
class Report {
  static method describe(LUser;)LString; {
    load 0
    invokevirtual User.getName()LString;
    return
  }
  static method untouched()I {
    const 1
    return
  }
}
class Audit {
  static method check()I {
    const 0
    return
  }
}
`

func TestPrepareClassifiesChanges(t *testing.T) {
	old, new_ := prog(t, v1), prog(t, v2)
	s, err := Prepare("1", old, new_)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.AddedClasses) != 1 || s.AddedClasses[0] != "Audit" {
		t.Fatalf("added = %v", s.AddedClasses)
	}
	if len(s.DeletedClasses) != 0 {
		t.Fatalf("deleted = %v", s.DeletedClasses)
	}
	if !s.IsClassUpdate("User") {
		t.Fatal("User should be a class update (field added, sig changed)")
	}
	if !s.IsClassUpdate("Admin") {
		t.Fatal("Admin should be transitively affected (superclass layout shifts)")
	}
	for _, c := range s.DirectClassUpdates {
		if c == "Admin" {
			t.Fatal("Admin should not be a *direct* class update")
		}
	}
	if s.IsClassUpdate("Report") {
		t.Fatal("Report is not a class update")
	}

	d := s.Diffs["User"]
	if d == nil {
		t.Fatal("no diff for User")
	}
	if len(d.FieldsAdded) != 1 || d.FieldsAdded[0] != "email" {
		t.Fatalf("fields added = %v", d.FieldsAdded)
	}
	if len(d.MethodsBodyChanged) != 1 || d.MethodsBodyChanged[0].Name != "getName" {
		t.Fatalf("body changed = %v", d.MethodsBodyChanged)
	}
	if len(d.MethodsSigChanged) != 1 || d.MethodsSigChanged[0][0].Name != "setAge" {
		t.Fatalf("sig changed = %v", d.MethodsSigChanged)
	}

	// Report.describe references User with unchanged bytecode: indirect.
	foundDescribe, foundUntouched := false, false
	for _, m := range s.IndirectMethods {
		if m.Class == "Report" && m.Name == "describe" {
			foundDescribe = true
		}
		if m.Name == "untouched" {
			foundUntouched = true
		}
	}
	if !foundDescribe {
		t.Fatalf("describe should be indirect; got %v", s.IndirectMethods)
	}
	if foundUntouched {
		t.Fatal("untouched references nothing updated; must not be indirect")
	}
}

func TestFlattenedOldDefs(t *testing.T) {
	s, err := Prepare("1", prog(t, v1), prog(t, v2))
	if err != nil {
		t.Fatal(err)
	}
	flatAdmin := s.OldFlatDefs["v1_Admin"]
	if flatAdmin == nil {
		t.Fatal("no flattened def for Admin")
	}
	// Flattened: User's instance fields first, then Admin's, no methods.
	var names []string
	for _, f := range flatAdmin.Fields {
		if !f.Static {
			names = append(names, f.Name)
		}
	}
	want := []string{"name", "age", "level"}
	if len(names) != len(want) {
		t.Fatalf("flat fields = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("flat fields = %v, want %v", names, want)
		}
	}
	if len(flatAdmin.Methods) != 0 {
		t.Fatal("flattened def kept methods")
	}
	if flatAdmin.Super != "Object" {
		t.Fatalf("flattened super = %q", flatAdmin.Super)
	}
	// User's flat def carries its statics.
	flatUser := s.OldFlatDefs["v1_User"]
	if f := flatUser.Field("count"); f == nil || !f.Static {
		t.Fatal("statics missing from flattened def")
	}
}

func TestDefaultTransformerGeneration(t *testing.T) {
	s, err := Prepare("1", prog(t, v1), prog(t, v2))
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Transformers
	if tr.Name != TransformersClassName {
		t.Fatalf("transformer class name = %q", tr.Name)
	}
	// jvolveObject for User copies name and age, not email (new).
	m := tr.Method("jvolveObject", "(LUser;Lv1_User;)V")
	if m == nil {
		t.Fatalf("missing User object transformer; methods: %v", methodIDs(tr))
	}
	copies := 0
	for _, ins := range m.Code {
		if ins.Op.String() == "getfield" {
			copies++
			if ins.SymMember() == "email" {
				t.Fatal("default transformer must not copy a new field")
			}
		}
	}
	if copies != 2 {
		t.Fatalf("User transformer copies %d fields, want 2", copies)
	}
	// jvolveClass for User copies the count static.
	cm := tr.Method("jvolveClass", "(LUser;)V")
	if cm == nil {
		t.Fatal("missing class transformer")
	}
	statics := 0
	for _, ins := range cm.Code {
		if ins.Op.String() == "getstatic" {
			statics++
		}
	}
	if statics != 1 {
		t.Fatalf("class transformer copies %d statics, want 1", statics)
	}
	// Admin's transformer copies inherited fields too (3 copies).
	am := tr.Method("jvolveObject", "(LAdmin;Lv1_Admin;)V")
	if am == nil {
		t.Fatal("missing Admin transformer")
	}
	acopies := 0
	for _, ins := range am.Code {
		if ins.Op.String() == "getfield" {
			acopies++
		}
	}
	if acopies != 3 {
		t.Fatalf("Admin transformer copies %d fields, want 3 (inherited included)", acopies)
	}
}

func methodIDs(c *classfile.Class) []string {
	var out []string
	for _, m := range c.Methods {
		out = append(out, m.ID())
	}
	return out
}

func TestOverrideTransformer(t *testing.T) {
	s, err := Prepare("1", prog(t, v1), prog(t, v2))
	if err != nil {
		t.Fatal(err)
	}
	n := len(s.Transformers.Methods)
	repl := &classfile.Method{Name: "jvolveObject", Sig: "(LUser;Lv1_User;)V", Static: true}
	s.OverrideTransformer(repl)
	if len(s.Transformers.Methods) != n {
		t.Fatal("override appended instead of replacing")
	}
	if s.Transformers.Method("jvolveObject", "(LUser;Lv1_User;)V") != repl {
		t.Fatal("override did not take effect")
	}
	extra := &classfile.Method{Name: "helper", Sig: "()V", Static: true}
	s.OverrideTransformer(extra)
	if len(s.Transformers.Methods) != n+1 {
		t.Fatal("new helper method not appended")
	}
}

func TestDiffSelfIsEmpty(t *testing.T) {
	p := prog(t, v1)
	diffs, added, deleted := Diff(p, p)
	if len(diffs) != 0 || len(added) != 0 || len(deleted) != 0 {
		t.Fatalf("self diff not empty: %v %v %v", diffs, added, deleted)
	}
}

func TestDeletedClass(t *testing.T) {
	old := prog(t, v1)
	newSrc := `
class User {
  private field name LString;
  field age I
  static field count I
  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    return
  }
  method getName()LString; {
    load 0
    getfield User.name LString;
    return
  }
  method setAge(I)V {
    load 0
    load 1
    putfield User.age I
    return
  }
}
class Admin extends User {
  field level I
  method promote()V {
    load 0
    load 0
    getfield Admin.level I
    const 1
    add
    putfield Admin.level I
    return
  }
}
`
	s, err := Prepare("1", old, prog(t, newSrc))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.DeletedClasses) != 1 || s.DeletedClasses[0] != "Report" {
		t.Fatalf("deleted = %v", s.DeletedClasses)
	}
	if len(s.ClassUpdates) != 0 {
		t.Fatalf("class updates = %v", s.ClassUpdates)
	}
}

func TestHierarchyPermutationRejected(t *testing.T) {
	old := prog(t, `
class A {
  method m()V {
    return
  }
}
class B extends A {
  method n()V {
    return
  }
}
`)
	new_ := prog(t, `
class B {
  method n()V {
    return
  }
}
class A extends B {
  method m()V {
    return
  }
}
`)
	if _, err := Prepare("1", old, new_); err == nil {
		t.Fatal("hierarchy permutation accepted")
	}
}

// Property: swapping old and new swaps added and deleted classes, and the
// diff of identical single classes is empty.
func TestDiffSymmetryProperty(t *testing.T) {
	mk := func(fields uint8) *classfile.Program {
		b := classfile.NewClass("C", "Object")
		for i := 0; i < int(fields%6); i++ {
			b.Field("f"+string(rune('a'+i)), "I")
		}
		b.Method("m", "()V").Ret().Done()
		p, _ := classfile.NewProgram(b.MustBuild())
		return p
	}
	f := func(a, b uint8) bool {
		pa, pb := mk(a), mk(b)
		da, addA, delA := Diff(pa, pb)
		db, addB, delB := Diff(pb, pa)
		if len(addA) != len(delB) || len(delA) != len(addB) {
			return false
		}
		if a%6 == b%6 {
			return len(da) == 0 && len(db) == 0
		}
		dab, ok := da["C"]
		dba, ok2 := db["C"]
		if !ok || !ok2 {
			return false
		}
		return len(dab.FieldsAdded) == len(dba.FieldsDeleted) &&
			len(dab.FieldsDeleted) == len(dba.FieldsAdded)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPrepareCarriesVerdict: Prepare verifies the new program strictly in
// the spec's own environment and records the verdict; a Spec it did not
// make has none.
func TestPrepareCarriesVerdict(t *testing.T) {
	s, err := Prepare("1", prog(t, v1), prog(t, v2))
	if err != nil {
		t.Fatal(err)
	}
	if verdict, prepared := s.Verdict(); verdict != nil || !prepared {
		t.Fatalf("Verdict() = %v, %v; want nil, true", verdict, prepared)
	}
	// Report.describe calls getName, which v2 makes private: the first
	// failure, in Sorted order, is the verdict.
	bad, err := Prepare("1", prog(t, v1), prog(t, strings.Replace(v2, "  method getName()", "  private method getName()", 1)))
	if err != nil {
		t.Fatal(err)
	}
	const want = "verifier: Report.describe(LUser;)LString; pc=1: invokevirtual: method User.getName is private to User"
	if verdict, _ := bad.Verdict(); verdict == nil || verdict.Error() != want {
		t.Fatalf("verdict = %v, want %q", verdict, want)
	}
	if _, prepared := (&Spec{New: s.New, Transformers: s.Transformers}).Verdict(); prepared {
		t.Fatal("a Spec literal reads as prepared")
	}

	// The environment: the new program, the flattened old versions, the
	// transformer class, the bootstrap definitions themselves, nothing else.
	for name, want := range map[string]*classfile.Class{
		"User":                s.New.Classes["User"],
		s.RenamedName("User"): s.OldFlatDefs[s.RenamedName("User")],
		TransformersClassName: s.Transformers,
		"String":              bootstrap.Lookup("String"),
		"Missing":             nil,
	} {
		if got := s.LookupClass(name); got != want {
			t.Errorf("LookupClass(%q) = %p, want %p", name, got, want)
		}
	}
	if bootstrap.Lookup("String") == nil {
		t.Fatal("no bootstrap String")
	}
}
