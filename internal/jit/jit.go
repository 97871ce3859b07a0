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

	// Counters for the benchmark harness and the obs metrics plane.
	BaseCompiles int
	OptCompiles  int

	// seen and work are the depth pass's scratch (depth.go); targets is the
	// branch-target marking fuse and foldConstants share.
	seen    []int32
	work    []int
	targets []bool
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
	cm, err := c.resolve(m)
	if err != nil {
		return nil, err
	}
	c.BaseCompiles++
	if level == rt.Opt {
		c.inline(cm)
		c.foldConstants(cm.Code)
		cm.Level = rt.Opt
		c.OptCompiles++
	}
	// Fusion runs last of the rewriting passes and in place, so base code
	// stays index-for-index with the bytecode and opt code keeps the pc-map
	// inlining built: a superinstruction sits at its first constituent's pc.
	if !c.Plain {
		c.fuse(cm.Code)
		installICs(cm)
	}
	// Final passes: bake each instruction's minimum stack need into the
	// executable form, so the interpreter's underflow guard is a single
	// precomputed compare instead of an opcode switch on the hot path, and
	// bound the operand stack, so an activation is laid out once. Both must
	// run after inlining, folding and fusion: they describe the code that runs.
	rt.ResolveStackNeeds(cm.Code)
	cm.MaxStack = c.maxStack(cm.Code)
	return cm, nil
}

// resolve is the 1:1 resolution pass.
func (c *Compiler) resolve(m *rt.Method) (*rt.CompiledMethod, error) {
	def := m.Def
	cm := &rt.CompiledMethod{
		Method:     m,
		Level:      rt.Base,
		Code:       make([]rt.Ins, len(def.Code)),
		MaxLocals:  def.MaxLocals,
		LayoutDeps: make(map[*rt.Class]bool),
	}
	fail := func(pc int, format string, args ...any) error {
		return fmt.Errorf("jit: %s pc=%d: %s", m.FullName(), pc, fmt.Sprintf(format, args...))
	}
	for pc, ins := range def.Code {
		out := rt.Ins{Op: ins.Op, A: ins.A, Str: ins.Str}
		switch ins.Op {
		case bytecode.LDC:
			out.Op = bytecode.LDC_R
			out.A = int64(c.Reg.InternIndex(ins.Str))
		case bytecode.GETFIELD, bytecode.PUTFIELD:
			named := c.Reg.LookupClass(ins.SymClass())
			if named == nil {
				return nil, fail(pc, "unknown class %s", ins.SymClass())
			}
			f := named.Field(ins.SymMember())
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
			cm.LayoutDeps[named] = true
		case bytecode.GETSTATIC, bytecode.PUTSTATIC:
			named := c.Reg.LookupClass(ins.SymClass())
			if named == nil {
				return nil, fail(pc, "unknown class %s", ins.SymClass())
			}
			s := named.StaticField(ins.SymMember())
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
			cm.LayoutDeps[named] = true
		case bytecode.NEW:
			cls := c.Reg.LookupClass(ins.Sym)
			if cls == nil {
				return nil, fail(pc, "unknown class %s", ins.Sym)
			}
			out.Op, out.Cls = bytecode.NEW_R, cls
			cm.LayoutDeps[cls] = true
		case bytecode.INSTANCEOF:
			cls := c.Reg.LookupClass(ins.Sym)
			if cls == nil {
				return nil, fail(pc, "unknown class %s", ins.Sym)
			}
			out.Op, out.Cls = bytecode.INSTOF_R, cls
			cm.LayoutDeps[cls] = true
		case bytecode.CHECKCAST:
			cls := c.Reg.LookupClass(ins.Sym)
			if cls == nil {
				return nil, fail(pc, "unknown class %s", ins.Sym)
			}
			out.Op, out.Cls = bytecode.CHECKCAST_R, cls
			cm.LayoutDeps[cls] = true
		case bytecode.NEWARRAY:
			out.Op = bytecode.NEWARRAY_R
			if classfile.Desc(ins.Desc).IsRef() {
				out.B = 1
			}
		case bytecode.INVOKEVIRTUAL:
			named := c.Reg.LookupClass(ins.SymClass())
			if named == nil {
				return nil, fail(pc, "unknown class %s", ins.SymClass())
			}
			sig := classfile.Sig(ins.Desc)
			target := named.Method(ins.SymMember(), sig)
			if target == nil || !target.IsVirtual() {
				return nil, fail(pc, "no virtual method %s%s in %s", ins.SymMember(), sig, named.Name)
			}
			out.Op = bytecode.INVOKEVIRT_R
			out.A = int64(target.TIBSlot)
			out.B = int32(sig.NumArgs()) + 1
			out.Ref = target
			out.RetVoid = sig.Ret() == "V"
			cm.LayoutDeps[named] = true
		case bytecode.INVOKESTATIC, bytecode.INVOKESPECIAL:
			named := c.Reg.LookupClass(ins.SymClass())
			if named == nil {
				return nil, fail(pc, "unknown class %s", ins.SymClass())
			}
			sig := classfile.Sig(ins.Desc)
			target := named.Method(ins.SymMember(), sig)
			if target == nil {
				return nil, fail(pc, "no method %s%s in %s", ins.SymMember(), sig, named.Name)
			}
			nargs := int32(sig.NumArgs())
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
			out.RetVoid = sig.Ret() == "V"
			cm.LayoutDeps[named] = true
		case bytecode.RETURN:
			out.RetVoid = m.Def.Sig.Ret() == "V"
		}
		cm.Code[pc] = out
	}
	return cm, nil
}

// installICs embeds a fresh inline cache at every virtual call site and
// records it in ICSites so the DSU install phase can flush them without
// scanning instruction streams. A method's caches are one allocation, sized
// by a counting pass.
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
	slab := make([]rt.ICache, n)
	cm.ICSites = make([]*rt.ICache, 0, n)
	for i := range cm.Code {
		if virtual(cm.Code[i].Op) {
			ic := &slab[len(cm.ICSites)]
			cm.Code[i].IC = ic
			cm.ICSites = append(cm.ICSites, ic)
		}
	}
}

// branchTargets marks the pcs the branches of code jump to, in a buffer kept
// on the Compiler. Targets outside the code are ignored, as maxStack ignores
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

// fusable reports whether the adjacent pair (a, b) at index i matches the
// fusion catalog, and returns the fused replacement. The caller has already
// checked that i+1 is not a branch target. Branch-carrying fusions refuse
// the degenerate self-target (b jumping to its own pc, i+1): the fused
// backedge test compares against the pair's first pc, which would turn that
// one case from a backedge into a forward edge and shift yield boundaries.
func fusable(i int, a, b *rt.Ins) (rt.Ins, bool) {
	isConst := func(op bytecode.Op) bool {
		return op == bytecode.CONST || op == bytecode.CONST_R
	}
	switch {
	case isConst(a.Op):
		switch b.Op {
		case bytecode.ADD, bytecode.SUB, bytecode.MUL, bytecode.AND,
			bytecode.OR, bytecode.XOR, bytecode.SHL, bytecode.SHR:
			return rt.Ins{Op: bytecode.FCONSTARITH, A: a.A, C: int32(b.Op)}, true
		case bytecode.DIV, bytecode.REM:
			// A compile-time nonzero divisor needs no runtime zero trap.
			if a.A != 0 {
				return rt.Ins{Op: bytecode.FCONSTARITH, A: a.A, C: int32(b.Op)}, true
			}
		case bytecode.IF_ICMPEQ, bytecode.IF_ICMPNE, bytecode.IF_ICMPLT,
			bytecode.IF_ICMPLE, bytecode.IF_ICMPGT, bytecode.IF_ICMPGE:
			if int(b.A) != i+1 {
				return rt.Ins{Op: bytecode.FCONSTCMPBR, A: a.A, B: int32(b.Op), C: int32(b.A)}, true
			}
		}
	case a.Op == bytecode.LOAD:
		switch {
		case b.Op == bytecode.LOAD:
			return rt.Ins{Op: bytecode.FLOADLOAD, A: a.A, C: int32(b.A)}, true
		case b.Op.IsConditional() && int(b.A) != i+1:
			return rt.Ins{Op: bytecode.FLOADCMPBR, A: b.A, B: int32(b.Op), C: int32(a.A)}, true
		case b.Op == bytecode.INVOKEVIRT_R:
			return rt.Ins{Op: bytecode.FLOADINVOKE, A: b.A, B: b.B,
				C: int32(a.A), Ref: b.Ref, RetVoid: b.RetVoid}, true
		}
	case a.Op == bytecode.STORE:
		switch b.Op {
		case bytecode.LOAD:
			return rt.Ins{Op: bytecode.FSTORELOAD, A: a.A, C: int32(b.A)}, true
		case bytecode.GOTO:
			if int(b.A) != i+1 {
				return rt.Ins{Op: bytecode.FSTOREGOTO, A: a.A, C: int32(b.A)}, true
			}
		}
	case a.Op == bytecode.GETFIELD_R && a.B == 1 && b.Op == bytecode.GETFIELD_R:
		return rt.Ins{Op: bytecode.FGETGET, A: a.A, C: int32(b.A), B: b.B}, true
	}
	return rt.Ins{}, false
}

// fuse rewrites adjacent instruction pairs from the fusion catalog into
// single superinstructions, greedily left to right and strictly in place:
// the pair [A, B] becomes [FUSED, FPAD], so code length, branch targets,
// and an opt pc-map all survive untouched. A pair whose second instruction is
// a branch target is never fused — control must be able to land on it.
func (c *Compiler) fuse(code []rt.Ins) {
	targets := c.branchTargets(code)
	for i := 0; i+1 < len(code); i++ {
		if targets[i+1] {
			continue
		}
		f, ok := fusable(i, &code[i], &code[i+1])
		if !ok {
			continue
		}
		code[i] = f
		code[i+1] = rt.Ins{Op: bytecode.FPAD}
		i++ // the pad is consumed; never pair it as a first constituent
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
// dispatch, small, non-native, non-recursive, and compilable.
func (c *Compiler) inlinable(caller *rt.Method, ins rt.Ins) bool {
	if ins.Op != bytecode.INVOKESTAT_R && ins.Op != bytecode.INVOKESPEC_R {
		return false
	}
	callee := ins.Ref
	if callee == caller || callee.Def.Native {
		return false
	}
	return len(callee.Def.Code) <= c.InlineMaxCode
}

// inline splices small direct callees into the caller. Inlined locals live
// above the caller's own locals; callee returns become jumps to the splice
// end (a value-returning callee leaves its result on the operand stack,
// which is exactly where the call would have put it).
func (c *Compiler) inline(cm *rt.CompiledMethod) {
	var newCode []rt.Ins
	var pcMap []int                      // new pc -> original pc (-1 inside inlined regions)
	remap := make([]int, len(cm.Code)+1) // old pc -> new pc
	maxLocals := cm.MaxLocals

	type pendingBranch struct {
		newIdx  int
		oldTarg int
	}
	var fixups []pendingBranch

	emit := func(ins rt.Ins, origPC int) {
		newCode = append(newCode, ins)
		pcMap = append(pcMap, origPC)
	}

	for pc, ins := range cm.Code {
		remap[pc] = len(newCode)
		if !c.inlinable(cm.Method, ins) {
			if ins.Op.IsBranch() {
				fixups = append(fixups, pendingBranch{len(newCode), int(ins.A)})
			}
			emit(ins, pc)
			continue
		}
		callee := ins.Ref
		calleeCM, err := c.resolve(callee)
		if err != nil {
			// Unresolvable callee (e.g. refers to classes not yet
			// loaded): leave the call site alone.
			if ins.Op.IsBranch() {
				fixups = append(fixups, pendingBranch{len(newCode), int(ins.A)})
			}
			emit(ins, pc)
			continue
		}
		base := maxLocals
		if base+calleeCM.MaxLocals > maxLocals {
			maxLocals = base + calleeCM.MaxLocals
		}
		// Prologue: pop the B arguments into callee locals [base, base+B).
		// At the prologue the operand stack holds exactly the call's
		// arguments, matching base execution at the call site, so the
		// prologue maps to the original call pc.
		emit(rt.Ins{Op: bytecode.ENTERINL_R, A: int64(base), B: ins.B, Ref: callee}, pc)
		spliceStart := len(newCode)
		// Record where callee RETURNs must jump; patched after splicing.
		var retJumps []int
		for _, cins := range calleeCM.Code {
			ci := cins
			switch {
			case ci.Op == bytecode.LOAD || ci.Op == bytecode.STORE:
				ci.A += int64(base)
			case ci.Op.IsBranch():
				ci.A += int64(spliceStart) // callee-local target, shifted
			case ci.Op == bytecode.RETURN:
				retJumps = append(retJumps, len(newCode))
				ci = rt.Ins{Op: bytecode.GOTO}
			}
			emit(ci, -1)
		}
		spliceEnd := len(newCode)
		for _, rj := range retJumps {
			newCode[rj].A = int64(spliceEnd)
		}
		// At the epilogue the stack holds the return value (if any),
		// matching base execution just past the call.
		emit(rt.Ins{Op: bytecode.LEAVEINL_R, Ref: callee}, pc+1)
		for dep := range calleeCM.LayoutDeps {
			cm.LayoutDeps[dep] = true
		}
		cm.Inlined = append(cm.Inlined, callee)
	}
	remap[len(cm.Code)] = len(newCode)
	for _, f := range fixups {
		newCode[f.newIdx].A = int64(remap[f.oldTarg])
	}
	cm.Code = newCode
	cm.PCMap = pcMap
	cm.MaxLocals = maxLocals
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
