package upt

import (
	"fmt"
	"testing"

	"govolve/internal/bytecode"
	"govolve/internal/classfile"
)

// buildFuzzProgram deterministically expands a byte string into a small
// program: each byte contributes a class, field, or method. The decoder is
// total — any input produces a well-formed program — so the fuzzer can
// explore the diff algebra rather than parser edge cases.
func buildFuzzProgram(data []byte) *classfile.Program {
	prog := &classfile.Program{Classes: map[string]*classfile.Class{}}
	object := &classfile.Class{Name: "Object", Methods: []*classfile.Method{
		{Name: "<init>", Sig: "()V", Code: []bytecode.Ins{{Op: bytecode.RETURN}}, MaxLocals: 1},
	}}
	prog.Classes["Object"] = object

	var classes []*classfile.Class
	cur := object
	for i, b := range data {
		switch b % 4 {
		case 0: // new class, super picked from those already defined
			super := "Object"
			if len(classes) > 0 {
				super = classes[int(b/4)%len(classes)].Name
			}
			c := &classfile.Class{Name: fmt.Sprintf("K%d", len(classes)), Super: super}
			classes = append(classes, c)
			prog.Classes[c.Name] = c
			cur = c
		case 1: // field on the current class
			if cur == object {
				continue
			}
			desc := classfile.Desc("I")
			if b&8 != 0 {
				desc = "LObject;"
			}
			cur.Fields = append(cur.Fields, classfile.Field{
				Name:   fmt.Sprintf("g%d", i),
				Desc:   desc,
				Static: b&16 != 0,
				Final:  b&32 != 0,
			})
		case 2: // method on the current class
			if cur == object {
				continue
			}
			sig := classfile.Sig("(I)I")
			if b&8 != 0 {
				sig = "()V"
			}
			body := []bytecode.Ins{{Op: bytecode.CONST, A: int64(b)}, {Op: bytecode.RETURN}}
			if sig == "()V" {
				body = []bytecode.Ins{{Op: bytecode.RETURN}}
			}
			cur.Methods = append(cur.Methods, &classfile.Method{
				Name: fmt.Sprintf("m%d", i), Sig: sig,
				Static: b&16 != 0, Code: body, MaxLocals: 2,
			})
		default: // tweak a method body (diff fodder)
			if cur == object || len(cur.Methods) == 0 {
				continue
			}
			m := cur.Methods[int(b/4)%len(cur.Methods)]
			if m.Sig == "(I)I" {
				m.Code = []bytecode.Ins{{Op: bytecode.CONST, A: int64(i) + 1000}, {Op: bytecode.RETURN}}
			}
		}
	}
	return prog
}

// FuzzUPTDiff checks the diff algebra on generated program pairs:
//
//   - Diff(p, p) is empty: no added/deleted classes, every per-class diff
//     empty (reflexivity);
//   - Diff(old, new) and Diff(new, old) are mirror images: added classes
//     swap with deleted ones, and per-class added/deleted field and method
//     sets swap (symmetry);
//   - DiffClass never panics on any pair of generated classes.
func FuzzUPTDiff(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0}, []byte{0, 1})                  // one class vs class+field
	f.Add([]byte{0, 1, 2}, []byte{0, 1, 2, 3})      // body tweak
	f.Add([]byte{0, 2, 0, 2}, []byte{0, 2})         // class deletion
	f.Add([]byte{0, 4, 0}, []byte{0, 0})            // hierarchy variation
	f.Add([]byte{0, 1, 17, 2, 18}, []byte{0, 9, 2}) // static/desc variation

	f.Fuzz(func(t *testing.T, a, b []byte) {
		old := buildFuzzProgram(a)
		new_ := buildFuzzProgram(b)

		// Reflexivity on both programs.
		for _, p := range []*classfile.Program{old, new_} {
			diffs, added, deleted := Diff(p, p)
			if len(added) != 0 || len(deleted) != 0 {
				t.Fatalf("Diff(p,p) reports added=%v deleted=%v", added, deleted)
			}
			for name, d := range diffs {
				if !d.IsEmpty() {
					t.Fatalf("Diff(p,p): class %s not empty: %+v", name, d)
				}
			}
		}

		// Symmetry of the forward and reverse diffs.
		fwd, fwdAdded, fwdDeleted := Diff(old, new_)
		rev, revAdded, revDeleted := Diff(new_, old)
		if !sameStringSet(fwdAdded, revDeleted) || !sameStringSet(fwdDeleted, revAdded) {
			t.Fatalf("class add/delete not symmetric: fwd +%v -%v, rev +%v -%v",
				fwdAdded, fwdDeleted, revAdded, revDeleted)
		}
		for name, fd := range fwd {
			rd := rev[name]
			if rd == nil {
				if !fd.IsEmpty() {
					t.Fatalf("class %s: forward diff %+v but no reverse diff", name, fd)
				}
				continue
			}
			if !sameStringSet(fd.FieldsAdded, rd.FieldsDeleted) ||
				!sameStringSet(fd.FieldsDeleted, rd.FieldsAdded) {
				t.Fatalf("class %s: field add/delete not symmetric: fwd +%v -%v, rev +%v -%v",
					name, fd.FieldsAdded, fd.FieldsDeleted, rd.FieldsAdded, rd.FieldsDeleted)
			}
			if !sameStringSet(fd.FieldsChanged, rd.FieldsChanged) {
				t.Fatalf("class %s: changed-field sets differ: fwd %v, rev %v",
					name, fd.FieldsChanged, rd.FieldsChanged)
			}
			if !sameMethodSet(refIDs(fd.MethodsAdded), refIDs(rd.MethodsDeleted)) ||
				!sameMethodSet(refIDs(fd.MethodsDeleted), refIDs(rd.MethodsAdded)) {
				t.Fatalf("class %s: method add/delete not symmetric: fwd +%v -%v, rev +%v -%v",
					name, fd.MethodsAdded, fd.MethodsDeleted, rd.MethodsAdded, rd.MethodsDeleted)
			}
			if fd.SuperChanged != rd.SuperChanged {
				t.Fatalf("class %s: SuperChanged asymmetric", name)
			}
			if !sameMethodSet(refIDs(fd.MethodsBodyChanged), refIDs(rd.MethodsBodyChanged)) {
				t.Fatalf("class %s: body-changed sets differ: fwd %v, rev %v",
					name, fd.MethodsBodyChanged, rd.MethodsBodyChanged)
			}
		}
	})
}

func sameStringSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[string]int, len(a))
	for _, s := range a {
		set[s]++
	}
	for _, s := range b {
		set[s]--
		if set[s] < 0 {
			return false
		}
	}
	return true
}

func refIDs(refs []MethodRef) []string {
	out := make([]string, len(refs))
	for i, r := range refs {
		out[i] = r.ID()
	}
	return out
}

func sameMethodSet(a, b []string) bool { return sameStringSet(a, b) }
