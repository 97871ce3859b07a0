package verifier_test

import (
	"testing"

	"govolve/internal/apps"
	"govolve/internal/asm"
	"govolve/internal/classfile"
	"govolve/internal/upt"
	"govolve/internal/verifier"
	"govolve/internal/vm"
)

// layered resolves a class in the first layer that knows the name; a layer
// may know a name as nil (deleted).
type layered []map[string]*classfile.Class

func (l layered) LookupClass(name string) *classfile.Class {
	for _, m := range l {
		if c, ok := m[name]; ok {
			return c
		}
	}
	return nil
}

func bootstrapDefs(t *testing.T) map[string]*classfile.Class {
	t.Helper()
	classes, err := asm.Assemble("bootstrap.jva", vm.BootstrapSource)
	if err != nil {
		t.Fatal(err)
	}
	boot := make(map[string]*classfile.Class, len(classes))
	for _, c := range classes {
		boot[c.Name] = c
	}
	return boot
}

// TestVerifierMatchesReference holds the engine to the reference model
// (reference_test.go) on the code the system really verifies: every release
// of the three apps, strictly, as vm.LoadProgram sees it, and the transformer
// class of every one of the 22 updates, relaxed, against what
// core.verifyUpdate resolves names in (new classes over the flattened old
// versions over what is loaded, deleted classes gone). Same verdict and, on
// reject, the same error. The hand-written programs of verifier_test.go,
// its single-fault tables included, are compared where they live: every one
// of them goes through verifyBoth.
func TestVerifierMatchesReference(t *testing.T) {
	boot := bootstrapDefs(t)
	check := func(what string, env verifier.Env, mode verifier.Mode, c *classfile.Class) {
		t.Helper()
		verdict, diff := verifier.VerifyBoth(env, mode, c)
		if diff != "" {
			t.Errorf("%s: %s", what, diff)
		}
		if verdict != nil {
			t.Errorf("%s: rejected: %v", what, verdict)
		}
	}
	classes, transformers := 0, 0
	for _, app := range apps.All() {
		for i, ver := range app.Versions {
			p, err := app.Program(i)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range p.Sorted() {
				check(app.Name+" "+ver.Name, layered{boot, p.Classes}, verifier.Strict, c)
				classes++
			}
			if i == app.UpdateCount() {
				continue
			}
			spec, err := app.Spec(i)
			if err != nil {
				t.Fatal(err)
			}
			gone := make(map[string]*classfile.Class)
			for _, name := range spec.DeletedClasses {
				gone[name] = nil
			}
			env := layered{spec.New.Classes, spec.OldFlatDefs, gone,
				{upt.TransformersClassName: spec.Transformers}, boot, p.Classes}
			check(app.Name+" "+ver.Name+" transformers", env, verifier.Relaxed, spec.Transformers)
			transformers++
		}
	}
	if classes == 0 || transformers != 22 {
		t.Fatalf("compared %d classes and %d transformer classes, want every release and 22 updates", classes, transformers)
	}
}
