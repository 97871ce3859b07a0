// Package jit is the simulated just-in-time compiler. "Compilation" here
// means resolving symbolic bytecode against the live class registry into an
// executable instruction array with hard-coded field offsets, JTOC slots,
// and TIB slots — the property that makes JVOLVE's category-(2) "indirect"
// methods real: when a class's layout changes, code that baked in its
// offsets is stale and must be recompiled (or OSRed if on stack).
//
// Two tiers mirror Jikes RVM's adaptive system. The base compiler resolves
// bytecode index for index — so the OSR pc-map between two base compiles of
// a method is the identity — then fuses adjacent pairs into superinstructions
// and installs an inline cache at every virtual call site. Fusion rewrites in
// place ([A,B] becomes [FUSED,FPAD]): code length, branch targets and every pc
// a frame can rest at survive it, which is why it is part of base compilation
// and not a tier of its own. The opt compiler first inlines small
// static/special calls and folds constants, recording what it inlined so the
// DSU engine can restrict inlining callers of updated methods, and carries a
// PCMap back to the bytecode it was resolved from.
package jit

import (
	"fmt"
	"slices"

	"govolve/internal/bytecode"
	"govolve/internal/classfile"
	"govolve/internal/rt"
)

// Compiler resolves methods against a registry.
type Compiler struct {
	Reg *rt.Registry

	// OptThreshold is the invocation count at which the adaptive system
	// recompiles a base-compiled method at the opt level.
	OptThreshold int
	// InlineMaxCode is the largest callee body (in instructions) the opt
	// compiler inlines.
	InlineMaxCode int

	// Plain stops every compile after resolution (and, for opt, inlining and
	// folding): no superinstructions, no inline caches. It is the reference
	// spelling the tier-equivalence tests and the dispatch grid compare the
	// default against, set by them and by nothing else.
	Plain bool

	// Counters for the benchmark harness and the obs metrics plane: methods
	// compiled at each level, and compiled methods relinked instead.
	BaseCompiles int
	OptCompiles  int
	Relinks      int

	// Scratch reused across compiles. seen and work are the stack pass's
	// (depth.go); targets is the branch-target marking fuse and
	// foldConstants share; deps collects a compile's layout dependencies;
	// caller and callee hold the resolved bodies inline splices from, and
	// remap and fixups are its pc bookkeeping.
	seen    []int32
	work    []int
	targets []bool
	deps    []*rt.Class
	caller  []rt.Ins
	callee  []rt.Ins
	remap   []int
	fixups  []int
}

// New builds a compiler with Jikes-flavoured defaults.
func New(reg *rt.Registry) *Compiler {
	return &Compiler{Reg: reg, OptThreshold: 50, InlineMaxCode: 16}
}

// Compile produces executable code for the method at the given level. It
// never mutates the method; the caller installs the result.
func (c *Compiler) Compile(m *rt.Method, level rt.OptLevel) (*rt.CompiledMethod, error) {
	if m.Def.Native {
		return nil, fmt.Errorf("jit: cannot compile native method %s", m.FullName())
	}
	cm := &rt.CompiledMethod{Method: m, Level: level, MaxLocals: m.Def.MaxLocals}
	var deps []*rt.Class
	var err error
	if level == rt.Opt {
		// The caller is resolved into scratch: inlining emits the code kept.
		c.caller = scratch(c.caller, len(m.Def.Code))
		if deps, err = c.resolve(m, c.caller, c.deps[:0]); err != nil {
			return nil, err
		}
		deps = c.inline(cm, c.caller, deps)
		c.foldConstants(cm.Code)
		c.OptCompiles++
	} else {
		cm.Code = make([]rt.Ins, len(m.Def.Code))
		if deps, err = c.resolve(m, cm.Code, c.deps[:0]); err != nil {
			return nil, err
		}
		c.BaseCompiles++
	}
	cm.SetLayoutDeps(deps)
	c.deps = deps
	// Fusion runs last of the rewriting passes and in place, so base code
	// stays index-for-index with the bytecode and opt code keeps the pc-map
	// inlining built: a superinstruction sits at its first constituent's pc.
	if !c.Plain {
		c.fuse(cm.Code)
		installICs(cm)
	}
	// Final pass: each instruction's stack need, and the operand-stack bound
	// an activation is laid out with. It must run after inlining, folding and
	// fusion: it describes the code that runs.
	cm.MaxStack = c.stackPass(cm.Code)
	return cm, nil
}

// scratch returns buf resized to n and cleared, reallocated only when it is
// too small.
func scratch[T any](buf []T, n int) []T {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}

// resolve is the 1:1 resolution pass: it writes m's bytecode, resolved, into
// code (one zeroed element per bytecode instruction, filled in place) and
// appends the classes it bakes in to deps, each once. A site's signature
// shape comes from its target, parsed at link; a class the compile has named
// before, at the previous site or any other, is not looked up again.
func (c *Compiler) resolve(m *rt.Method, code []rt.Ins, deps []*rt.Class) ([]*rt.Class, error) {
	fail := func(pc int, format string, args ...any) error {
		return fmt.Errorf("jit: %s pc=%d: %s", m.FullName(), pc, fmt.Sprintf(format, args...))
	}
	// class resolves a symbolic class and records it as a dependency: every
	// class a site names is one whose layout or TIB the site bakes in. A class
	// already named (a registered class's Name is its registry key) is found
	// among the dependencies without hashing its name again.
	class := func(name string) *rt.Class {
		for i := len(deps) - 1; i >= 0; i-- {
			if deps[i].Name == name {
				return deps[i]
			}
		}
		cls := c.Reg.LookupClass(name)
		if cls != nil {
			deps = append(deps, cls)
		}
		return cls
	}
	for pc := range m.Def.Code {
		ins := &m.Def.Code[pc]
		out := &code[pc]
		out.Op, out.A, out.Str = ins.Op, ins.A, ins.Str
		switch ins.Op {
		case bytecode.LDC:
			out.Op = bytecode.LDC_R
			out.A = int64(c.Reg.InternIndex(ins.Str))
		case bytecode.GETFIELD, bytecode.PUTFIELD:
			cname, member := bytecode.SplitSym(ins.Sym)
			named := class(cname)
			if named == nil {
				return nil, fail(pc, "unknown class %s", cname)
			}
			f := named.Field(member)
			if f == nil {
				return nil, fail(pc, "unknown field %s", ins.Sym)
			}
			if ins.Op == bytecode.GETFIELD {
				out.Op = bytecode.GETFIELD_R
			} else {
				out.Op = bytecode.PUTFIELD_R
			}
			out.A = int64(f.Offset)
			if f.Desc.IsRef() {
				out.B = 1
			}
		case bytecode.GETSTATIC, bytecode.PUTSTATIC:
			cname, member := bytecode.SplitSym(ins.Sym)
			named := class(cname)
			if named == nil {
				return nil, fail(pc, "unknown class %s", cname)
			}
			s := named.StaticField(member)
			if s == nil {
				return nil, fail(pc, "unknown static field %s", ins.Sym)
			}
			if ins.Op == bytecode.GETSTATIC {
				out.Op = bytecode.GETSTATIC_R
			} else {
				out.Op = bytecode.PUTSTATIC_R
			}
			out.A = int64(s.Slot)
			if s.Desc.IsRef() {
				out.B = 1
			}
		case bytecode.NEW, bytecode.INSTANCEOF, bytecode.CHECKCAST:
			cls := class(ins.Sym)
			if cls == nil {
				return nil, fail(pc, "unknown class %s", ins.Sym)
			}
			out.Cls = cls
			switch ins.Op {
			case bytecode.NEW:
				out.Op = bytecode.NEW_R
			case bytecode.INSTANCEOF:
				out.Op = bytecode.INSTOF_R
			default:
				out.Op = bytecode.CHECKCAST_R
			}
		case bytecode.NEWARRAY:
			out.Op = bytecode.NEWARRAY_R
			if classfile.Desc(ins.Desc).IsRef() {
				out.B = 1
			}
		case bytecode.INVOKEVIRTUAL:
			cname, member := bytecode.SplitSym(ins.Sym)
			named := class(cname)
			if named == nil {
				return nil, fail(pc, "unknown class %s", cname)
			}
			sig := classfile.Sig(ins.Desc)
			target := named.Method(member, sig)
			if target == nil || !target.IsVirtual() {
				return nil, fail(pc, "no virtual method %s%s in %s", member, sig, named.Name)
			}
			out.Op = bytecode.INVOKEVIRT_R
			out.A = int64(target.TIBSlot)
			out.B = int32(target.NumArgs) + 1
			out.Ref = target
			out.RetVoid = target.RetVoid
		case bytecode.INVOKESTATIC, bytecode.INVOKESPECIAL:
			cname, member := bytecode.SplitSym(ins.Sym)
			named := class(cname)
			if named == nil {
				return nil, fail(pc, "unknown class %s", cname)
			}
			sig := classfile.Sig(ins.Desc)
			target := named.Method(member, sig)
			if target == nil {
				return nil, fail(pc, "no method %s%s in %s", member, sig, named.Name)
			}
			nargs := int32(target.NumArgs)
			if ins.Op == bytecode.INVOKESPECIAL {
				nargs++ // receiver
				out.Op = bytecode.INVOKESPEC_R
			} else {
				out.Op = bytecode.INVOKESTAT_R
			}
			if target.Def.Native {
				out.Op = bytecode.INVOKENAT_R
			}
			out.B = nargs
			out.Ref = target
			out.RetVoid = target.RetVoid
		case bytecode.RETURN:
			out.RetVoid = m.RetVoid
		}
	}
	return deps, nil
}

// installICs embeds a fresh inline cache at every virtual call site. The
// caches are one allocation, sized by a counting pass, kept as ICSites so the
// DSU install phase can flush them without scanning instruction streams.
func installICs(cm *rt.CompiledMethod) {
	virtual := func(op bytecode.Op) bool {
		return op == bytecode.INVOKEVIRT_R || op == bytecode.FLOADINVOKE
	}
	n := 0
	for i := range cm.Code {
		if virtual(cm.Code[i].Op) {
			n++
		}
	}
	if n == 0 {
		return
	}
	cm.ICSites = make([]rt.ICache, n)
	n = 0
	for i := range cm.Code {
		if virtual(cm.Code[i].Op) {
			cm.Code[i].IC = &cm.ICSites[n]
			n++
		}
	}
}

// branchTargets marks the pcs the branches of code jump to, in a buffer kept
// on the Compiler. Targets outside the code are ignored, as stackPass ignores
// them: nothing can be fused or folded there.
func (c *Compiler) branchTargets(code []rt.Ins) []bool {
	targets := slices.Grow(c.targets[:0], len(code))[:len(code)]
	clear(targets)
	for i := range code {
		if ins := &code[i]; ins.Op.IsBranch() && ins.A >= 0 && ins.A < int64(len(code)) {
			targets[ins.A] = true
		}
	}
	c.targets = targets
	return targets
}

// fusePair rewrites the adjacent pair (a, b) at index i in place, into its
// superinstruction and a pad, if it matches the fusion catalog, and reports
// whether it did; a pair that does not match costs no instruction built. The
// caller has already checked that i+1 is not a branch target. Branch-carrying
// fusions refuse the degenerate self-target (b jumping to its own pc, i+1):
// the fused backedge test compares against the pair's first pc, which would
// turn that one case from a backedge into a forward edge and shift yield
// boundaries.
func fusePair(i int, a, b *rt.Ins) bool {
	isConst := func(op bytecode.Op) bool {
		return op == bytecode.CONST || op == bytecode.CONST_R
	}
	switch {
	case isConst(a.Op):
		switch b.Op {
		case bytecode.ADD, bytecode.SUB, bytecode.MUL, bytecode.AND,
			bytecode.OR, bytecode.XOR, bytecode.SHL, bytecode.SHR:
			return put(a, b, rt.Ins{Op: bytecode.FCONSTARITH, A: a.A, C: int32(b.Op)})
		case bytecode.DIV, bytecode.REM:
			// A compile-time nonzero divisor needs no runtime zero trap.
			if a.A != 0 {
				return put(a, b, rt.Ins{Op: bytecode.FCONSTARITH, A: a.A, C: int32(b.Op)})
			}
		case bytecode.IF_ICMPEQ, bytecode.IF_ICMPNE, bytecode.IF_ICMPLT,
			bytecode.IF_ICMPLE, bytecode.IF_ICMPGT, bytecode.IF_ICMPGE:
			if int(b.A) != i+1 {
				return put(a, b, rt.Ins{Op: bytecode.FCONSTCMPBR, A: a.A, B: int32(b.Op), C: int32(b.A)})
			}
		}
	case a.Op == bytecode.LOAD:
		switch {
		case b.Op == bytecode.LOAD:
			return put(a, b, rt.Ins{Op: bytecode.FLOADLOAD, A: a.A, C: int32(b.A)})
		case b.Op.IsConditional() && int(b.A) != i+1:
			return put(a, b, rt.Ins{Op: bytecode.FLOADCMPBR, A: b.A, B: int32(b.Op), C: int32(a.A)})
		case b.Op == bytecode.INVOKEVIRT_R:
			return put(a, b, rt.Ins{Op: bytecode.FLOADINVOKE, A: b.A, B: b.B,
				C: int32(a.A), Ref: b.Ref, RetVoid: b.RetVoid})
		}
	case a.Op == bytecode.STORE:
		switch b.Op {
		case bytecode.LOAD:
			return put(a, b, rt.Ins{Op: bytecode.FSTORELOAD, A: a.A, C: int32(b.A)})
		case bytecode.GOTO:
			if int(b.A) != i+1 {
				return put(a, b, rt.Ins{Op: bytecode.FSTOREGOTO, A: a.A, C: int32(b.A)})
			}
		}
	case a.Op == bytecode.GETFIELD_R && a.B == 1 && b.Op == bytecode.GETFIELD_R:
		return put(a, b, rt.Ins{Op: bytecode.FGETGET, A: a.A, C: int32(b.A), B: b.B})
	}
	return false
}

// put writes the superinstruction f over a and a pad over b.
func put(a, b *rt.Ins, f rt.Ins) bool {
	*a = f
	*b = rt.Ins{Op: bytecode.FPAD}
	return true
}

// fuse rewrites adjacent instruction pairs from the fusion catalog into
// single superinstructions, greedily left to right and strictly in place:
// the pair [A, B] becomes [FUSED, FPAD], so code length, branch targets,
// and an opt pc-map all survive untouched. A pair whose second instruction is
// a branch target is never fused — control must be able to land on it.
func (c *Compiler) fuse(code []rt.Ins) {
	targets := c.branchTargets(code)
	heads := false // a pair the second sweep may chain from was fused
	for i := 0; i+1 < len(code); i++ {
		if targets[i+1] {
			continue
		}
		if fusePair(i, &code[i], &code[i+1]) {
			heads = heads || code[i].Op == bytecode.FLOADLOAD || code[i].Op == bytecode.FCONSTARITH
			i++ // the pad is consumed; never pair it as a first constituent
		}
	}
	if !heads {
		return
	}

	// Second sweep: chain a fused pair with the constituent (or pair) that
	// follows its pad into a 3- or 4-wide superinstruction. The same
	// in-place rules hold — the absorbed slot must not be a branch target
	// (the slot after it, when part of a pair, is already target-free from
	// the first sweep) — and only trap-free shapes chain, so one dispatch
	// accounts for every constituent step without a mid-chain kill ever
	// observing a partial count.
	for i := 0; i+2 < len(code); i++ {
		if targets[i+2] {
			continue
		}
		switch code[i].Op {
		case bytecode.FLOADLOAD:
			// load A; load C; arith B. DIV/REM are excluded: their divisor
			// is a runtime local, and a zero would need the kill path to
			// reconstruct which constituent trapped.
			switch code[i+2].Op {
			case bytecode.ADD, bytecode.SUB, bytecode.MUL, bytecode.AND,
				bytecode.OR, bytecode.XOR, bytecode.SHL, bytecode.SHR:
				code[i] = rt.Ins{Op: bytecode.FLOADLOADARITH, A: code[i].A,
					B: int32(code[i+2].Op), C: code[i].C}
				code[i+2] = rt.Ins{Op: bytecode.FPAD}
				i += 2
			}
		case bytecode.FCONSTARITH:
			// Two const+arith pairs back to back: const A, arith lo(B);
			// const C, arith hi(B). The second constant must fit the int32
			// C operand; both divisors were already proven nonzero by the
			// first sweep.
			if code[i+2].Op == bytecode.FCONSTARITH {
				c2 := code[i+2].A
				if int64(int32(c2)) == c2 {
					code[i] = rt.Ins{Op: bytecode.FCONSTARITH2, A: code[i].A,
						B: code[i].C | code[i+2].C<<8, C: int32(c2)}
					code[i+2] = rt.Ins{Op: bytecode.FPAD}
					i += 3
				}
			}
		}
	}
}

// inlinable reports whether a resolved call site can be inlined: direct
// dispatch, small, non-native, non-recursive. (A callee that does not resolve
// is left as a call too, which inline finds out as it resolves it.)
func (c *Compiler) inlinable(caller *rt.Method, ins *rt.Ins) bool {
	if ins.Op != bytecode.INVOKESTAT_R && ins.Op != bytecode.INVOKESPEC_R {
		return false
	}
	callee := ins.Ref
	if callee == caller || callee.Def.Native {
		return false
	}
	return len(callee.Def.Code) <= c.InlineMaxCode
}

// inline splices small direct callees into the caller's resolved code,
// setting cm's Code, PCMap, MaxLocals and Inlined, and returns deps with the
// callees' dependencies added. Inlined locals live above the caller's own
// locals; callee returns become jumps to the splice end (a value-returning
// callee leaves its result on the operand stack, which is exactly where the
// call would have put it). Every buffer kept is sized before anything is
// emitted: a splice replaces its call by an enter, the body and a leave.
func (c *Compiler) inline(cm *rt.CompiledMethod, code []rt.Ins, deps []*rt.Class) []*rt.Class {
	n, sites := len(code), 0
	for i := range code {
		if c.inlinable(cm.Method, &code[i]) {
			n += len(code[i].Ref.Def.Code) + 1
			sites++
		}
	}
	newCode := make([]rt.Ins, 0, n)
	pcMap := make([]int, 0, n) // new pc -> original pc (-1 inside inlined regions)
	if sites > 0 {
		cm.Inlined = make([]*rt.Method, 0, sites)
	}
	remap := scratch(c.remap, len(code)+1) // old pc -> new pc
	fixups := c.fixups[:0]                 // new pcs of branches still aimed at old pcs
	maxLocals := cm.MaxLocals

	for pc := range code {
		ins := &code[pc]
		remap[pc] = len(newCode)
		if !c.inlinable(cm.Method, ins) {
			if ins.Op.IsBranch() {
				fixups = append(fixups, len(newCode))
			}
			newCode = append(newCode, *ins)
			pcMap = append(pcMap, pc)
			continue
		}
		callee := ins.Ref
		c.callee = scratch(c.callee, len(callee.Def.Code))
		calleeDeps, err := c.resolve(callee, c.callee, deps)
		if err != nil {
			// Unresolvable callee (e.g. refers to classes not yet
			// loaded): leave the call site alone.
			newCode = append(newCode, *ins)
			pcMap = append(pcMap, pc)
			continue
		}
		deps = calleeDeps
		base := maxLocals
		maxLocals = max(maxLocals, base+callee.Def.MaxLocals)
		// Prologue: pop the B arguments into callee locals [base, base+B).
		// At the prologue the operand stack holds exactly the call's
		// arguments, matching base execution at the call site, so the
		// prologue maps to the original call pc.
		newCode = append(newCode, rt.Ins{Op: bytecode.ENTERINL_R, A: int64(base), B: ins.B, Ref: callee})
		pcMap = append(pcMap, pc)
		spliceStart := len(newCode)
		spliceEnd := spliceStart + len(c.callee)
		for _, ci := range c.callee {
			switch {
			case ci.Op == bytecode.LOAD || ci.Op == bytecode.STORE:
				ci.A += int64(base)
			case ci.Op.IsBranch():
				ci.A += int64(spliceStart) // callee-local target, shifted
			case ci.Op == bytecode.RETURN:
				ci = rt.Ins{Op: bytecode.GOTO, A: int64(spliceEnd)}
			}
			newCode = append(newCode, ci)
			pcMap = append(pcMap, -1)
		}
		// At the epilogue the stack holds the return value (if any),
		// matching base execution just past the call.
		newCode = append(newCode, rt.Ins{Op: bytecode.LEAVEINL_R, Ref: callee})
		pcMap = append(pcMap, pc+1)
		cm.Inlined = append(cm.Inlined, callee)
	}
	remap[len(code)] = len(newCode)
	for _, f := range fixups {
		newCode[f].A = int64(remap[newCode[f].A])
	}
	c.remap, c.fixups = remap, fixups
	cm.Code = newCode
	cm.PCMap = pcMap
	cm.MaxLocals = maxLocals
	return deps
}

// foldConstants rewrites CONST/CONST/arith triples into single constants.
// It only folds when neither constant is a branch target, to keep branch
// indexes valid without remapping.
func (c *Compiler) foldConstants(code []rt.Ins) {
	targets := c.branchTargets(code)
	isConst := func(i *rt.Ins) bool {
		return i.Op == bytecode.CONST || i.Op == bytecode.CONST_R
	}
	for i := 0; i+2 < len(code); i++ {
		a, b, op := &code[i], &code[i+1], &code[i+2]
		if !isConst(a) || !isConst(b) {
			continue
		}
		if targets[i+1] || targets[i+2] {
			continue
		}
		var v int64
		switch op.Op {
		case bytecode.ADD:
			v = a.A + b.A
		case bytecode.SUB:
			v = a.A - b.A
		case bytecode.MUL:
			v = a.A * b.A
		case bytecode.AND:
			v = a.A & b.A
		case bytecode.OR:
			v = a.A | b.A
		case bytecode.XOR:
			v = a.A ^ b.A
		default:
			continue
		}
		// Replace the triple with NOP/NOP/CONST so indexes stay stable.
		code[i] = rt.Ins{Op: bytecode.NOP}
		code[i+1] = rt.Ins{Op: bytecode.NOP}
		code[i+2] = rt.Ins{Op: bytecode.CONST_R, A: v}
	}
}
