package storm

import (
	"strings"
	"testing"

	"govolve/internal/classfile"
	"govolve/internal/rt"
)

// TestCheckClassLayoutScanDescriptor: the collectors trace through
// rt.Class.RefOffsets, not the ref map it is derived from, so the whole-VM
// check must fail when the two disagree — a reference the descriptor misses
// is an object the next collection silently loses.
func TestCheckClassLayoutScanDescriptor(t *testing.T) {
	load := func() *rt.Class {
		cls, err := rt.NewRegistry().Load(classfile.NewClass("C", "").
			Field("a", "LC;").Field("n", "I").Field("b", "LC;").MustBuild())
		if err != nil {
			t.Fatal(err)
		}
		return cls
	}
	if err := checkClassLayout(load(), 0); err != nil {
		t.Fatalf("freshly linked class: %v", err)
	}
	for name, corrupt := range map[string]func(*rt.Class){
		"missing":  func(c *rt.Class) { c.RefOffsets = c.RefOffsets[:1] },
		"extra":    func(c *rt.Class) { c.RefOffsets = append(c.RefOffsets, rt.HeaderWords+1) },
		"unsorted": func(c *rt.Class) { c.RefOffsets[0], c.RefOffsets[1] = c.RefOffsets[1], c.RefOffsets[0] },
		"non-ref":  func(c *rt.Class) { c.RefOffsets[1] = rt.HeaderWords + 1 },
	} {
		cls := load()
		corrupt(cls)
		if err := checkClassLayout(cls, 0); err == nil || !strings.Contains(err.Error(), "scan descriptor") {
			t.Errorf("%s: err = %v, want a scan descriptor violation", name, err)
		}
	}
}
