package upt

import (
	"fmt"
	"sort"
	"strings"

	"govolve/internal/classfile"
)

// TransformersClassName is the class holding class and object transformer
// methods, mirroring the paper's JvolveTransformers.
const TransformersClassName = "JvolveTransformers"

// Spec is an update specification: everything the DSU engine needs to apply
// one version transition.
type Spec struct {
	// OldTag prefixes renamed old classes: tag "131" renames User to
	// v131_User.
	OldTag string

	Old *classfile.Program
	New *classfile.Program

	// Diffs holds the per-class diff for every changed class.
	Diffs map[string]*ClassDiff

	AddedClasses   []string
	DeletedClasses []string

	// DirectClassUpdates are classes whose own signature changed;
	// ClassUpdates additionally includes transitively-affected
	// descendants (their layouts shift).
	DirectClassUpdates []string
	ClassUpdates       []string

	// MethodBodyUpdates lists body-only changes in classes that are NOT
	// class updates (class updates reinstall all their methods anyway).
	MethodBodyUpdates []MethodRef

	// IndirectMethods is the static estimate of category-(2) methods:
	// bytecode unchanged but referencing an updated class.
	IndirectMethods []MethodRef

	// Blacklist is the user-specified restricted set (category 3).
	Blacklist []MethodRef

	// OldFlatDefs maps each renamed old class name (v131_User) to its
	// flattened fields-only definition, used to verify transformer code
	// and to type the renamed runtime class.
	OldFlatDefs map[string]*classfile.Class

	// Transformers is the JvolveTransformers class: generated defaults,
	// optionally overridden by user-supplied methods. Whether one of them is
	// a pure field copy the collector can perform itself is decided from its
	// body when the update is applied (ObjectMoves, ClassMoves).
	Transformers *classfile.Class

	// ActiveUpdates enables updating a *changed* method while it runs —
	// the UpStare-style extension the paper sketches in §3.5: "the user
	// would map the yield point at the end of the old loop to the yield
	// point at the end of the new loop". Without an entry, a changed
	// on-stack method blocks the update (category 1); with one, the DSU
	// engine rewrites the live frame onto the new method body at the
	// mapped pc. Correctness of the mapping is the user's assertion,
	// exactly as in UpStare.
	ActiveUpdates map[MethodRef]ActivePCMap
}

// ActivePCMap maps yield points of an old method body to equivalent points
// in the new body, with an optional local-variable remap (identity if nil).
type ActivePCMap struct {
	PC     map[int]int
	Locals map[int]int
}

// AddActiveUpdate registers a yield-point map for a changed method.
func (s *Spec) AddActiveUpdate(ref MethodRef, m ActivePCMap) {
	if s.ActiveUpdates == nil {
		s.ActiveUpdates = make(map[MethodRef]ActivePCMap)
	}
	s.ActiveUpdates[ref] = m
}

// RenamedName returns the renamed old-version name of a class.
func (s *Spec) RenamedName(class string) string {
	return "v" + s.OldTag + "_" + class
}

// IsClassUpdate reports whether class is updated (directly or transitively).
func (s *Spec) IsClassUpdate(class string) bool {
	for _, c := range s.ClassUpdates {
		if c == class {
			return true
		}
	}
	return false
}

// Prepare diffs two program versions and builds the full update
// specification with generated default transformers. oldTag becomes the
// rename prefix for old class versions.
func Prepare(oldTag string, old, new_ *classfile.Program) (*Spec, error) {
	if strings.ContainsAny(oldTag, " .\t") {
		oldTag = strings.Map(func(r rune) rune {
			switch r {
			case ' ', '.', '\t':
				return -1
			}
			return r
		}, oldTag)
	}
	if err := ValidateHierarchy(old, new_); err != nil {
		return nil, err
	}
	diffs, added, deleted := Diff(old, new_)

	direct := make(map[string]bool)
	for name, d := range diffs {
		if d.IsClassUpdate() {
			direct[name] = true
		}
	}
	all := transitiveClassUpdates(new_, direct)

	s := &Spec{
		OldTag:         oldTag,
		Old:            old,
		New:            new_,
		Diffs:          diffs,
		AddedClasses:   added,
		DeletedClasses: deleted,
		OldFlatDefs:    make(map[string]*classfile.Class),
	}
	for name := range direct {
		s.DirectClassUpdates = append(s.DirectClassUpdates, name)
	}
	sort.Strings(s.DirectClassUpdates)
	for name := range all {
		s.ClassUpdates = append(s.ClassUpdates, name)
	}
	sort.Strings(s.ClassUpdates)

	for name, d := range diffs {
		if all[name] {
			continue
		}
		s.MethodBodyUpdates = append(s.MethodBodyUpdates, d.MethodsBodyChanged...)
	}
	sort.Slice(s.MethodBodyUpdates, func(i, j int) bool {
		return s.MethodBodyUpdates[i].String() < s.MethodBodyUpdates[j].String()
	})

	s.IndirectMethods = indirectMethods(old, new_, all, diffs)

	deletedSet := make(map[string]bool, len(deleted))
	for _, name := range deleted {
		deletedSet[name] = true
	}
	for _, name := range s.ClassUpdates {
		odef := old.Classes[name]
		if odef == nil {
			return nil, fmt.Errorf("upt: class update %s has no old version", name)
		}
		flat, err := flattenOldClass(old, odef, s.RenamedName(name), deletedSet, all, s)
		if err != nil {
			return nil, err
		}
		s.OldFlatDefs[flat.Name] = flat
	}

	tr, err := generateTransformers(s)
	if err != nil {
		return nil, err
	}
	s.Transformers = tr
	return s, nil
}

// AddBlacklist appends user-restricted methods (category 3).
func (s *Spec) AddBlacklist(refs ...MethodRef) { s.Blacklist = append(s.Blacklist, refs...) }

// OverrideTransformer replaces (or adds) a transformer method with a
// user-written one — the paper's "programmers may customize the default
// transformers". The method must be a static member intended for the
// JvolveTransformers class.
func (s *Spec) OverrideTransformer(m *classfile.Method) {
	for i, existing := range s.Transformers.Methods {
		if existing.ID() == m.ID() {
			s.Transformers.Methods[i] = m
			return
		}
	}
	s.Transformers.Methods = append(s.Transformers.Methods, m)
}

// flattenOldClass produces the fields-only renamed definition of an old
// class: instance fields of the whole superclass chain flattened in layout
// order, plus the class's own statics. Field types naming deleted classes
// are rewritten to Object (the values can no longer be typed); types naming
// updated classes are kept — after GC those fields point at transformed
// objects of the new version, which is exactly the paper's transformer
// interface.
func flattenOldClass(old *classfile.Program, def *classfile.Class, newName string, deleted map[string]bool, updated map[string]bool, s *Spec) (*classfile.Class, error) {
	flat := &classfile.Class{Name: newName, Super: "Object"}
	var chain []*classfile.Class
	for c := def; c != nil; {
		chain = append([]*classfile.Class{c}, chain...)
		if c.Super == "" {
			break
		}
		c = old.Classes[c.Super]
	}
	for _, c := range chain {
		for _, f := range c.InstanceFields() {
			ff := f
			ff.Desc = rewriteDeletedDesc(f.Desc, deleted)
			flat.Fields = append(flat.Fields, ff)
		}
	}
	for _, f := range def.StaticFields() {
		ff := f
		ff.Desc = rewriteDeletedDesc(f.Desc, deleted)
		flat.Fields = append(flat.Fields, ff)
	}
	if err := flat.Validate(); err != nil {
		return nil, fmt.Errorf("upt: flattening %s: %w", def.Name, err)
	}
	return flat, nil
}

// rewriteDeletedDesc maps references to deleted classes to Object.
func rewriteDeletedDesc(d classfile.Desc, deleted map[string]bool) classfile.Desc {
	switch d.Kind() {
	case classfile.KRef:
		if deleted[d.ClassName()] {
			return classfile.RefOf("Object")
		}
	case classfile.KArray:
		return classfile.ArrayOf(rewriteDeletedDesc(d.Elem(), deleted))
	}
	return d
}
