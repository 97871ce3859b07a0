package upt

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"govolve/internal/bootstrap"
	"govolve/internal/bytecode"
	"govolve/internal/classfile"
	"govolve/internal/rt"
	"govolve/internal/verifier"
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

	// changed holds, for each class update, the methods of its old version
	// its new version does not keep as they are (ChangedMethods); loadOrder
	// is LoadOrder.
	changed   map[string][]MethodRef
	loadOrder []*classfile.Class

	// verdict is the strict verification of New that Prepare ran, nil when
	// every class passed; prepared marks a Spec that Prepare made, so that
	// a Spec built any other way is never read as verified.
	verdict  error
	prepared bool
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
	slices.SortFunc(s.MethodBodyUpdates, compareRefs)

	s.IndirectMethods = indirectMethods(old, new_, all, diffs)
	s.changed = changedMethods(old, new_, s.ClassUpdates)
	order, err := loadOrder(new_, s.ClassUpdates, added)
	if err != nil {
		return nil, err
	}
	s.loadOrder = order

	deletedSet := make(map[string]bool, len(deleted))
	for _, name := range deleted {
		deletedSet[name] = true
	}
	for _, name := range s.ClassUpdates {
		odef := old.Classes[name]
		if odef == nil {
			return nil, fmt.Errorf("upt: class update %s has no old version", name)
		}
		flat, err := flattenOldClass(old, odef, s.RenamedName(name), deletedSet)
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
	s.verdict, s.prepared = s.verifyNew(), true
	return s, nil
}

// verifyNew statically type-checks every class of the new version, strictly
// and in the spec's own environment. The verdict holds for any VM the spec
// is applied to: a name resolves here either to a definition of the spec or
// to the bootstrap definition every VM loads (bootstrap.Classes), and any
// other name is an unknown class, as vm.LoadProgram would also find it.
func (s *Spec) verifyNew() error {
	strict := verifier.New(s, verifier.Strict)
	for _, def := range s.New.Sorted() {
		if err := def.Validate(); err != nil {
			return err
		}
		if err := strict.VerifyClass(def); err != nil {
			return err
		}
	}
	return nil
}

// changedMethods lists, for each class update, the methods of the old
// version the new version does not declare with the same static-ness,
// native-ness and bytecode.
func changedMethods(old, new_ *classfile.Program, updates []string) map[string][]MethodRef {
	changed := make(map[string][]MethodRef, len(updates))
	for _, name := range updates {
		odef, ndef := old.Classes[name], new_.Classes[name]
		if odef == nil || ndef == nil {
			continue
		}
		for _, m := range odef.Methods {
			nm := ndef.Method(m.Name, m.Sig)
			if nm == nil || nm.Static != m.Static || nm.Native != m.Native || !bytecode.CodeEqual(nm.Code, m.Code) {
				changed[name] = append(changed[name], MethodRef{name, m.Name, m.Sig})
			}
		}
	}
	return changed
}

// loadOrder orders the new definitions an update loads, those of its class
// updates and of its added classes, as the registry's linker needs them:
// every superclass before its subclasses (rt.SuperFirst).
func loadOrder(new_ *classfile.Program, updates, added []string) ([]*classfile.Class, error) {
	p, err := classfile.NewProgram()
	if err != nil {
		return nil, err
	}
	for _, name := range append(slices.Clip(updates), added...) {
		if def, ok := new_.Classes[name]; ok {
			if err := p.Add(def); err != nil {
				return nil, err
			}
		}
	}
	return rt.SuperFirst(p)
}

// LoadOrder returns the new definitions the update loads — its class
// updates' and its added classes' — superclass first, the order the install
// links them in. Prepare computes it once.
func (s *Spec) LoadOrder() []*classfile.Class { return s.loadOrder }

// ChangedMethods returns the methods of class's old version that the update
// changes: those its new version does not declare with the same static-ness,
// native-ness and bytecode. Every other method of a class update keeps its
// bytecode. Prepare computes them once; a class that is not a class update
// has none.
func (s *Spec) ChangedMethods(class string) []MethodRef { return s.changed[class] }

// Verdict returns the strict verification of New that Prepare ran: nil when
// every new class is well-formed and verifies, else the first failure.
// prepared is false for a Spec that Prepare did not make, which has no
// verdict. New must not change after Prepare; the transformer class may (it
// is the one part a caller edits), and is verified when the update is
// requested.
func (s *Spec) Verdict() (verdict error, prepared bool) { return s.verdict, s.prepared }

// LookupClass resolves a class name in the update's environment (it makes
// the Spec a verifier.Env): the new program, then the flattened old
// versions, then the transformer class, then the bootstrap classes. Any
// other name is unknown: a new program is self-contained over the
// bootstrap.
func (s *Spec) LookupClass(name string) *classfile.Class {
	if def, ok := s.New.Classes[name]; ok {
		return def
	}
	if def, ok := s.OldFlatDefs[name]; ok {
		return def
	}
	if name == TransformersClassName {
		return s.Transformers
	}
	return bootstrap.Lookup(name)
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
func flattenOldClass(old *classfile.Program, def *classfile.Class, newName string, deleted map[string]bool) (*classfile.Class, error) {
	flat := &classfile.Class{Name: newName, Super: "Object"}
	flat.Fields = appendLayout(nil, old, def)
	for _, f := range def.Fields {
		if f.Static {
			flat.Fields = append(flat.Fields, f)
		}
	}
	for i := range flat.Fields {
		flat.Fields[i].Desc = rewriteDeletedDesc(flat.Fields[i].Desc, deleted)
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
		if elem, r := d.Elem(), rewriteDeletedDesc(d.Elem(), deleted); r != elem {
			return classfile.ArrayOf(r)
		}
	}
	return d
}
