package jit

import (
	"slices"

	"govolve/internal/bytecode"
	"govolve/internal/rt"
)

// Hidden names what an update's new class versions hide: the methods and
// the statics (by JTOC slot), as the update leaves them, that a new version
// declares a member of the same name (and signature) over, where the old
// version declared none. A name that resolved to one of them may now resolve
// to the new member. The zero value hides nothing.
type Hidden struct {
	Methods map[*rt.Method]bool
	Statics map[int]bool
}

// A Patch is one instruction Relink rewrote in place, and what it was.
type Patch struct {
	At  *rt.Ins
	Was rt.Ins
}

// Relink returns cm moved onto the classes an update is putting in place of
// the ones it names (the classes whose rt.Class.UpdatedTo is set), for m —
// cm's own method, or the new version's method of the same name and
// signature — or nil when a fact cm bakes in about a replaced class does not
// hold of the new version. The result keeps cm's level, bounds and pc-map;
// its class and method references, layout dependencies and inlined callees
// name the new versions, its static accesses the new versions' JTOC slots (a
// new version gets fresh slots for all its statics), and its inline caches
// are empty.
//
// The result shares cm's code and inline caches instead of copying them: a
// copy of the code is most of what a compile costs. Code that names a
// replaced class is rewritten in place, which is only legal for code the
// update has retired (Invalid), which nothing runs again unless the update
// fails; every instruction rewritten is appended to patches, with what it
// was, for the failure path to put back. Live code that would need rewriting
// is refused.
//
// The caller vouches that m's bytecode, and that of every callee cm inlined,
// is what cm was compiled from. The result is then what a compile of m at
// cm's level would emit if, instruction by instruction: every field access
// reads the same offset with the same reference-ness in every replaced class
// cm depends on that has a field there; every static a replaced class
// declared is still there by name with the same reference-ness; every method
// called or inlined from a replaced class has a counterpart with the same TIB
// slot, static-ness and native-ness; no replaced class cm depends on, nor one
// of its replaced superclasses, extends another class now; and nothing cm
// names is hidden. Nothing of a compile's work is done again.
func (c *Compiler) Relink(cm *rt.CompiledMethod, m *rt.Method, hidden Hidden, patches *[]Patch) *rt.CompiledMethod {
	deps := c.deps[:0]
	for _, d := range cm.LayoutDeps {
		for k := d; k != nil && k.UpdatedTo != nil; k = k.Super {
			if sup := k.UpdatedTo.Super; (k.Super == nil) != (sup == nil) || k.Super != nil && k.Super.Current() != sup {
				return nil
			}
		}
		deps = append(deps, d.Current())
	}
	c.deps = deps
	inlined := cm.Inlined
	for i, callee := range cm.Inlined {
		n := counterpart(callee)
		if n == nil || hidden.Methods[n] {
			return nil
		}
		if n != callee && &inlined[0] == &cm.Inlined[0] {
			inlined = slices.Clone(cm.Inlined)
		}
		inlined[i] = n
	}
	start := len(*patches)
	for i := range cm.Code {
		ins := &cm.Code[i]
		was := *ins
		ok := true
		switch ins.Op {
		case bytecode.GETFIELD_R, bytecode.PUTFIELD_R:
			ok = fieldKept(cm.LayoutDeps, ins.A)
		case bytecode.FGETGET:
			ok = fieldKept(cm.LayoutDeps, ins.A) && fieldKept(cm.LayoutDeps, int64(ins.C))
		case bytecode.GETSTATIC_R, bytecode.PUTSTATIC_R:
			slot, kept := staticSlot(cm.LayoutDeps, int(ins.A))
			ok = kept && !hidden.Statics[slot]
			ins.A = int64(slot)
		}
		if ins.Cls != nil {
			ins.Cls = ins.Cls.Current()
		}
		if ins.Ref != nil {
			ins.Ref = counterpart(ins.Ref)
			ok = ok && ins.Ref != nil && !hidden.Methods[ins.Ref]
		}
		rewritten := *ins != was
		if !ok || rewritten && !cm.Invalid { // a lost fact, or live code to rewrite: undo this method's rewrites
			*ins = was
			for _, p := range (*patches)[start:] {
				*p.At = p.Was
			}
			*patches = (*patches)[:start]
			return nil
		}
		if rewritten {
			*patches = append(*patches, Patch{At: ins, Was: was})
		}
	}
	cm.FlushICs()
	out := &rt.CompiledMethod{Method: m, Level: cm.Level, Code: cm.Code, MaxLocals: cm.MaxLocals,
		MaxStack: cm.MaxStack, PCMap: cm.PCMap, ICSites: cm.ICSites, Inlined: inlined}
	out.SetLayoutDeps(deps)
	c.Relinks++
	return out
}

// fieldKept reports whether an access at offset off into a class among deps
// reads the same field once the replaced ones are their new versions: every
// replaced class in deps with a field at off has it at off in its new
// version, with the same reference-ness. (Offsets are assigned in order, so
// the field at off is Fields[off-HeaderWords].)
func fieldKept(deps []*rt.Class, off int64) bool {
	i := int(off) - rt.HeaderWords
	for _, d := range deps {
		if d.UpdatedTo == nil || i < 0 || i >= len(d.Fields) {
			continue
		}
		f := &d.Fields[i]
		if nf := d.UpdatedTo.Field(f.Name); nf == nil || nf.Offset != f.Offset || nf.Desc.IsRef() != f.Desc.IsRef() {
			return false
		}
	}
	return true
}

// staticSlot is the JTOC slot a static baked in at slot is at once the
// replaced classes among deps are their new versions: the slot of the
// same-named static of the new version of the replaced class that declared
// it, or slot itself if none did (its class is not being replaced). ok is
// false if the new version has no such static or it changed reference-ness.
func staticSlot(deps []*rt.Class, slot int) (int, bool) {
	for _, d := range deps {
		for k := d; k != nil && k.UpdatedTo != nil; k = k.Super {
			if len(k.Statics) == 0 || slot < k.Statics[0].Slot || slot >= k.Statics[0].Slot+len(k.Statics) {
				continue
			}
			s := &k.Statics[slot-k.Statics[0].Slot] // a class's statics take consecutive slots
			ns := k.UpdatedTo.StaticField(s.Name)
			if ns == nil || ns.Desc.IsRef() != s.Desc.IsRef() {
				return 0, false
			}
			return ns.Slot, true
		}
	}
	return slot, true
}

// counterpart is the method that stands for r once the update is installed
// (rt.Method.Counterpart), or nil if the new version's differs in what a
// call site bakes in about it: its TIB slot, static-ness or native-ness.
func counterpart(r *rt.Method) *rt.Method {
	n := r.Counterpart()
	if n == nil || n.TIBSlot != r.TIBSlot || n.Def.Static != r.Def.Static || n.Def.Native != r.Def.Native {
		return nil
	}
	return n
}
