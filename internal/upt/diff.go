// Package upt implements the Update Preparation Tool (JVOLVE paper §3.1):
// it diffs an old and a new program version, classifies every change into
// the paper's three categories (class updates, method body updates, and
// indirect methods), propagates transitive effects down the class
// hierarchy, and generates the update specification plus default class and
// object transformers.
package upt

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"govolve/internal/bytecode"
	"govolve/internal/classfile"
)

// MethodRef names one method.
type MethodRef struct {
	Class string
	Name  string
	Sig   classfile.Sig
}

func (m MethodRef) String() string { return m.Class + "." + m.Name + string(m.Sig) }

// ID returns the method's name+sig identity within its class.
func (m MethodRef) ID() string { return m.Name + string(m.Sig) }

// compareRefs orders two refs as their String forms order, building neither.
func compareRefs(a, b MethodRef) int {
	x := [...]string{a.Class, ".", a.Name, string(a.Sig)}
	y := [...]string{b.Class, ".", b.Name, string(b.Sig)}
	i, j := 0, 0
	for {
		for i < len(x) && x[i] == "" {
			i++
		}
		for j < len(y) && y[j] == "" {
			j++
		}
		if i == len(x) || j == len(y) {
			return cmp.Compare(len(x)-i, len(y)-j)
		}
		n := min(len(x[i]), len(y[j]))
		if c := strings.Compare(x[i][:n], y[j][:n]); c != 0 {
			return c
		}
		x[i], y[j] = x[i][n:], y[j][n:]
	}
}

// ClassDiff describes how one class changed between versions.
type ClassDiff struct {
	Name string

	// Signature-level changes (any of these makes the class a "class
	// update" requiring metadata replacement and object transformation).
	FieldsAdded    []string
	FieldsDeleted  []string
	FieldsChanged  []string // same name, different type/static-ness
	MethodsAdded   []MethodRef
	MethodsDeleted []MethodRef
	// MethodsSigChanged pairs old and new signatures for methods whose
	// name survives but whose signature changed.
	MethodsSigChanged [][2]MethodRef
	SuperChanged      bool

	// MethodsBodyChanged lists methods present in both versions whose
	// signatures match but whose bytecode differs.
	MethodsBodyChanged []MethodRef
}

// IsClassUpdate reports whether the diff requires a class update (layout or
// method-table change) as opposed to method-body-only replacement.
func (d *ClassDiff) IsClassUpdate() bool {
	return len(d.FieldsAdded) > 0 || len(d.FieldsDeleted) > 0 ||
		len(d.FieldsChanged) > 0 || len(d.MethodsAdded) > 0 ||
		len(d.MethodsDeleted) > 0 || len(d.MethodsSigChanged) > 0 ||
		d.SuperChanged
}

// IsEmpty reports an unchanged class.
func (d *ClassDiff) IsEmpty() bool {
	return !d.IsClassUpdate() && len(d.MethodsBodyChanged) == 0
}

// DiffClass compares two versions of one class. Members are matched by name
// (fields) and by name and signature (methods) and compared by value.
func DiffClass(old, new_ *classfile.Class) *ClassDiff {
	d := &ClassDiff{Name: new_.Name, SuperChanged: old.Super != new_.Super}

	for i := range new_.Fields {
		// Every attribute is part of a field's identity: the paper lists
		// changing "the types or access modifiers of existing members"
		// among class signature changes, and class metadata must be
		// replaced for them to take effect.
		f := &new_.Fields[i]
		switch of := old.Field(f.Name); {
		case of == nil:
			d.FieldsAdded = append(d.FieldsAdded, f.Name)
		case *of != *f:
			d.FieldsChanged = append(d.FieldsChanged, f.Name)
		}
	}
	for i := range old.Fields {
		if new_.Field(old.Fields[i].Name) == nil {
			d.FieldsDeleted = append(d.FieldsDeleted, old.Fields[i].Name)
		}
	}

	var added, deleted []MethodRef
	for _, m := range new_.Methods {
		om := old.Method(m.Name, m.Sig)
		if om == nil {
			added = append(added, MethodRef{new_.Name, m.Name, m.Sig})
			continue
		}
		if om.Static != m.Static || om.Native != m.Native || om.Access != m.Access {
			// Dispatch-kind change (static vs instance, native vs
			// bytecode, or an access change — private methods dispatch
			// directly, public ones through the TIB): treat as
			// delete+add, forcing a class update.
			deleted = append(deleted, MethodRef{new_.Name, om.Name, om.Sig})
			added = append(added, MethodRef{new_.Name, m.Name, m.Sig})
			continue
		}
		if !bytecode.CodeEqual(om.Code, m.Code) {
			d.MethodsBodyChanged = append(d.MethodsBodyChanged,
				MethodRef{new_.Name, m.Name, m.Sig})
		}
	}
	for _, m := range old.Methods {
		if new_.Method(m.Name, m.Sig) == nil {
			deleted = append(deleted, MethodRef{new_.Name, m.Name, m.Sig})
		}
	}

	// Pair deleted/added methods with the same name as signature changes —
	// the paper's "y methods changed their type signature as well". A
	// deleted method takes the first added one of its name still unpaired.
deletions:
	for _, del := range deleted {
		for i, add := range added {
			if add.Name == del.Name {
				d.MethodsSigChanged = append(d.MethodsSigChanged, [2]MethodRef{del, add})
				added = slices.Delete(added, i, i+1)
				continue deletions
			}
		}
		d.MethodsDeleted = append(d.MethodsDeleted, del)
	}
	if len(added) > 0 {
		d.MethodsAdded = added
	}
	return d
}

// Diff compares two program versions, returning per-class diffs plus the
// lists of added and deleted classes, each in name order.
func Diff(old, new_ *classfile.Program) (diffs map[string]*ClassDiff, addedClasses, deletedClasses []string) {
	diffs = make(map[string]*ClassDiff)
	pairClasses(old, new_, func(oc, nc *classfile.Class) {
		switch {
		case oc == nil:
			addedClasses = append(addedClasses, nc.Name)
		case nc == nil:
			deletedClasses = append(deletedClasses, oc.Name)
		default:
			if d := DiffClass(oc, nc); !d.IsEmpty() {
				diffs[nc.Name] = d
			}
		}
	})
	return diffs, addedClasses, deletedClasses
}

// pairClasses merges the classes of two programs by name, in name order: f
// sees each name once, with its class in each program, nil where one does
// not define it.
func pairClasses(old, new_ *classfile.Program, f func(oc, nc *classfile.Class)) {
	os, ns := old.Sorted(), new_.Sorted()
	for len(os) > 0 || len(ns) > 0 {
		switch {
		case len(ns) == 0 || len(os) > 0 && os[0].Name < ns[0].Name:
			f(os[0], nil)
			os = os[1:]
		case len(os) == 0 || ns[0].Name < os[0].Name:
			f(nil, ns[0])
			ns = ns[1:]
		default:
			f(os[0], ns[0])
			os, ns = os[1:], ns[1:]
		}
	}
}

// transitiveClassUpdates expands the set of directly-updated classes with
// every descendant in the new program: a subclass's instance layout embeds
// its superclass's, so a superclass layout change shifts subclass offsets,
// and the subclass needs new metadata and object transformation too (the
// paper's "changed and transitively-affected classes").
func transitiveClassUpdates(new_ *classfile.Program, direct map[string]bool) map[string]bool {
	all := make(map[string]bool, len(direct))
	for k := range direct {
		all[k] = true
	}
	for _, c := range new_.Sorted() {
		// Walk c's superclass chain up to a direct update; a chain longer
		// than the program is a cycle, which validation rejects elsewhere.
		for s, n := c, 0; s != nil && n < len(new_.Classes); n++ {
			if direct[s.Name] {
				all[c.Name] = true
				break
			}
			if s.Super == "" {
				break
			}
			s = new_.Classes[s.Super]
		}
	}
	return all
}

// indirectMethods finds methods whose bytecode is unchanged between
// versions but which reference a class-updated class — the paper's category
// (2): their compiled representation bakes in offsets that the update
// changes. The DSU engine re-derives the on-stack subset dynamically from
// compiled-code dependencies; this static list feeds the update spec and
// the experience tables. A class without a diff has every method unchanged,
// so only the methods of changed classes are compared again.
func indirectMethods(old, new_ *classfile.Program, classUpdates map[string]bool, diffs map[string]*ClassDiff) []MethodRef {
	var out []MethodRef
	pairClasses(old, new_, func(oc, nc *classfile.Class) {
		if oc == nil || nc == nil {
			return // brand new class: nothing on stack yet
		}
		_, changed := diffs[nc.Name]
		for _, m := range nc.Methods {
			if m.Native {
				continue
			}
			if changed {
				if om := oc.Method(m.Name, m.Sig); om == nil || !bytecode.CodeEqual(om.Code, m.Code) {
					continue // changed or added: category (1), not (2)
				}
			}
			if refersTo(m.Code, classUpdates) {
				out = append(out, MethodRef{nc.Name, m.Name, m.Sig})
			}
		}
	})
	slices.SortFunc(out, compareRefs)
	return out
}

// refersTo reports whether code depends on the layout or method table of a
// class in updated. Runs of instructions naming one class ask once.
func refersTo(code []bytecode.Ins, updated map[string]bool) bool {
	last := ""
	for i := range code {
		if r := code[i].ClassRef(); r != "" && r != last {
			if updated[r] {
				return true
			}
			last = r
		}
	}
	return false
}

// ValidateHierarchy rejects super-class permutations between versions, which
// JVOLVE does not support (paper §2.2): a class may not swap its position
// with a former subclass.
func ValidateHierarchy(old, new_ *classfile.Program) error {
	for _, name := range old.Names() {
		if _, ok := new_.Classes[name]; !ok {
			continue
		}
		// Walk name's new superclasses; a chain longer than the program is a
		// cycle, which validation rejects elsewhere.
		for anc, n := name, 0; n < len(new_.Classes); n++ {
			def, ok := new_.Classes[anc]
			if !ok || def.Super == "" {
				break
			}
			anc = def.Super
			// If anc was a descendant of name before and is an ancestor
			// now, the hierarchy was permuted.
			if _, existed := old.Classes[anc]; existed && !isAncestor(old, anc, name) && isAncestor(old, name, anc) {
				return fmt.Errorf("upt: unsupported class hierarchy permutation between %s and %s", name, anc)
			}
		}
	}
	return nil
}

// isAncestor reports whether anc is a superclass of name in p.
func isAncestor(p *classfile.Program, anc, name string) bool {
	for n := 0; n < len(p.Classes); n++ {
		def, ok := p.Classes[name]
		if !ok || def.Super == "" {
			return false
		}
		if def.Super == anc {
			return true
		}
		name = def.Super
	}
	return false
}
