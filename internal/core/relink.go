package core

import (
	"govolve/internal/jit"
	"govolve/internal/rt"
	"govolve/internal/upt"
)

// hiddenMembers finds what the update's new class versions hide (jit.Hidden):
// a method or static a new version declares where its old version declared
// none — the update's diff lists them — over a member of the same name (and
// signature) further up, as the installed registry resolves it. Compiled code
// that named such a member is not relinked. Updates mostly hide nothing, and
// then no map is built.
func hiddenMembers(spec *upt.Spec, reg *rt.Registry) jit.Hidden {
	var h jit.Hidden
	for _, name := range spec.ClassUpdates {
		d, nw := spec.Diffs[name], reg.LookupClass(name)
		if d == nil || nw == nil || nw.Super == nil {
			continue
		}
		hide := func(ref upt.MethodRef) {
			if hm := nw.Super.Method(ref.Name, ref.Sig); hm != nil {
				if h.Methods == nil {
					h.Methods = make(map[*rt.Method]bool)
				}
				h.Methods[hm] = true
			}
		}
		for _, ref := range d.MethodsAdded {
			hide(ref)
		}
		for _, p := range d.MethodsSigChanged {
			hide(p[1])
		}
		for _, fields := range [][]string{d.FieldsAdded, d.FieldsChanged} {
			for _, f := range fields {
				if hs := nw.Super.StaticField(f); hs != nil && nw.StaticField(f).DeclaredIn == nw {
					if h.Statics == nil {
						h.Statics = make(map[int]bool)
					}
					h.Statics[hs.Slot] = true
				}
			}
		}
	}
	return h
}
