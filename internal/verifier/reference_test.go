package verifier

import (
	"fmt"

	"govolve/internal/bytecode"
	"govolve/internal/classfile"
)

// The reference model: the per-instruction worklist the verifier ran on
// before it became dataflow over basic blocks, moved here unchanged — an
// in-state per instruction, two clones and a set of closures per step. It is
// slow and obviously a transcription of the rules, which is what an oracle
// should be. It shares the type algebra (lub, checkAssignable, member
// resolution) with the engine: what it checks is the engine's control flow,
// state storage and in-place merge. TestVerifierMatchesReference, FuzzVerifier
// and every test that goes through verifyBoth compare the two.

// refVerifyClass is VerifyClass over refVerifyMethod.
func (v *Verifier) refVerifyClass(c *classfile.Class) error {
	if v.hold() {
		defer v.release()
	}
	if err := v.checkHierarchy(c); err != nil {
		return err
	}
	for _, m := range c.Methods {
		if m.Native {
			continue
		}
		if err := v.refVerifyMethod(c, m); err != nil {
			return err
		}
	}
	return nil
}

// VerifyBoth verifies the class with the engine and with the reference model
// and returns the engine's verdict, plus a description of any difference
// between the two ("" when they agree on the verdict and, on reject, on the
// whole error). Exported for the differential tests in package verifier_test,
// which need internal/apps and so cannot live in this package.
func VerifyBoth(env Env, mode Mode, c *classfile.Class) (verdict error, diff string) {
	verdict = New(env, mode).VerifyClass(c)
	ref := New(env, mode).refVerifyClass(c)
	switch {
	case (verdict == nil) != (ref == nil):
		diff = fmt.Sprintf("class %s: engine says %v, reference says %v", c.Name, verdict, ref)
	case verdict != nil && verdict.Error() != ref.Error():
		diff = fmt.Sprintf("class %s: engine rejects with %q, reference with %q", c.Name, verdict, ref)
	}
	return verdict, diff
}

// refState is the abstract machine state at one program point.
type refState struct {
	locals []vtype
	stack  []vtype
}

func (s *refState) clone() *refState {
	c := &refState{
		locals: append([]vtype(nil), s.locals...),
		stack:  append([]vtype(nil), s.stack...),
	}
	return c
}

// refVerifyMethod runs the dataflow analysis over one method body.
func (v *Verifier) refVerifyMethod(c *classfile.Class, m *classfile.Method) error {
	fail := func(pc int, format string, args ...any) error {
		return &Error{Class: c.Name, Method: m.ID(), PC: pc, Msg: fmt.Sprintf(format, args...)}
	}
	if len(m.Code) == 0 {
		return fail(0, "empty method body")
	}
	args, ret, err := classfile.ParseSig(m.Sig)
	if err != nil {
		return fail(0, "bad signature: %v", err)
	}

	entry := &refState{locals: make([]vtype, m.MaxLocals)}
	slot := 0
	if !m.Static {
		if slot >= m.MaxLocals {
			return fail(0, "MaxLocals %d too small for receiver", m.MaxLocals)
		}
		entry.locals[slot] = refT(classfile.RefOf(c.Name))
		slot++
	}
	for _, a := range args {
		if slot >= m.MaxLocals {
			return fail(0, "MaxLocals %d too small for %d args", m.MaxLocals, len(args))
		}
		entry.locals[slot] = typeForDesc(a)
		slot++
	}

	in := make([]*refState, len(m.Code))
	in[0] = entry
	work := []int{0}
	steps := 0
	maxSteps := 64 * (len(m.Code) + 4) * (m.MaxLocals + 4)
	for len(work) > 0 {
		if steps++; steps > maxSteps {
			return fail(0, "dataflow did not converge")
		}
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		st := in[pc].clone()
		ins := m.Code[pc]

		push := func(t vtype) { st.stack = append(st.stack, t) }
		pop := func() (vtype, error) {
			if len(st.stack) == 0 {
				return unsetT, fail(pc, "%s: operand stack underflow", ins.Op)
			}
			t := st.stack[len(st.stack)-1]
			st.stack = st.stack[:len(st.stack)-1]
			return t, nil
		}
		popInt := func() error {
			t, err := pop()
			if err != nil {
				return err
			}
			if t.kind != tInt {
				return fail(pc, "%s: want int, have %s", ins.Op, t)
			}
			return nil
		}
		popRef := func() (vtype, error) {
			t, err := pop()
			if err != nil {
				return unsetT, err
			}
			if !t.isRefLike() {
				return unsetT, fail(pc, "%s: want reference, have %s", ins.Op, t)
			}
			return t, nil
		}

		var nexts []int
		fallthrough_ := true

		switch ins.Op {
		case bytecode.NOP, bytecode.YIELD:
		case bytecode.CONST:
			push(intT)
		case bytecode.NULL:
			push(nullT)
		case bytecode.LDC:
			push(refT(classfile.RefOf("String")))
		case bytecode.LOAD:
			idx := int(ins.A)
			if idx < 0 || idx >= m.MaxLocals {
				return fail(pc, "load %d out of range (MaxLocals %d)", idx, m.MaxLocals)
			}
			t := st.locals[idx]
			if t.kind == tUnset {
				return fail(pc, "load %d: local not definitely assigned", idx)
			}
			push(t)
		case bytecode.STORE:
			idx := int(ins.A)
			if idx < 0 || idx >= m.MaxLocals {
				return fail(pc, "store %d out of range (MaxLocals %d)", idx, m.MaxLocals)
			}
			t, err := pop()
			if err != nil {
				return err
			}
			st.locals[idx] = t
		case bytecode.POP:
			if _, err := pop(); err != nil {
				return err
			}
		case bytecode.DUP:
			t, err := pop()
			if err != nil {
				return err
			}
			push(t)
			push(t)
		case bytecode.DUP_X1:
			a, err := pop()
			if err != nil {
				return err
			}
			b, err := pop()
			if err != nil {
				return err
			}
			push(a)
			push(b)
			push(a)
		case bytecode.SWAP:
			a, err := pop()
			if err != nil {
				return err
			}
			b, err := pop()
			if err != nil {
				return err
			}
			push(a)
			push(b)
		case bytecode.ADD, bytecode.SUB, bytecode.MUL, bytecode.DIV, bytecode.REM,
			bytecode.AND, bytecode.OR, bytecode.XOR, bytecode.SHL, bytecode.SHR:
			if err := popInt(); err != nil {
				return err
			}
			if err := popInt(); err != nil {
				return err
			}
			push(intT)
		case bytecode.NEG:
			if err := popInt(); err != nil {
				return err
			}
			push(intT)
		case bytecode.GOTO:
			nexts = []int{int(ins.A)}
			fallthrough_ = false
		case bytecode.IFEQ, bytecode.IFNE, bytecode.IFLT, bytecode.IFLE,
			bytecode.IFGT, bytecode.IFGE:
			if err := popInt(); err != nil {
				return err
			}
			nexts = []int{int(ins.A)}
		case bytecode.IF_ICMPEQ, bytecode.IF_ICMPNE, bytecode.IF_ICMPLT,
			bytecode.IF_ICMPLE, bytecode.IF_ICMPGT, bytecode.IF_ICMPGE:
			if err := popInt(); err != nil {
				return err
			}
			if err := popInt(); err != nil {
				return err
			}
			nexts = []int{int(ins.A)}
		case bytecode.IF_ACMPEQ, bytecode.IF_ACMPNE:
			if _, err := popRef(); err != nil {
				return err
			}
			if _, err := popRef(); err != nil {
				return err
			}
			nexts = []int{int(ins.A)}
		case bytecode.IFNULL, bytecode.IFNONNULL:
			if _, err := popRef(); err != nil {
				return err
			}
			nexts = []int{int(ins.A)}
		case bytecode.NEW:
			if v.env.LookupClass(ins.Sym) == nil {
				return fail(pc, "new: unknown class %s", ins.Sym)
			}
			push(refT(classfile.RefOf(ins.Sym)))
		case bytecode.INSTANCEOF:
			if v.env.LookupClass(ins.Sym) == nil {
				return fail(pc, "instanceof: unknown class %s", ins.Sym)
			}
			if _, err := popRef(); err != nil {
				return err
			}
			push(intT)
		case bytecode.CHECKCAST:
			if v.env.LookupClass(ins.Sym) == nil {
				return fail(pc, "checkcast: unknown class %s", ins.Sym)
			}
			if _, err := popRef(); err != nil {
				return err
			}
			push(refT(classfile.RefOf(ins.Sym)))
		case bytecode.NEWARRAY:
			elem := classfile.Desc(ins.Desc)
			if !elem.Valid() {
				return fail(pc, "newarray: bad element descriptor %q", ins.Desc)
			}
			if err := popInt(); err != nil {
				return err
			}
			push(refT(classfile.ArrayOf(elem)))
		case bytecode.ARRAYLEN:
			t, err := popRef()
			if err != nil {
				return err
			}
			if t.kind == tRef && t.desc.Kind() != classfile.KArray {
				return fail(pc, "arraylen: want array, have %s", t)
			}
			push(intT)
		case bytecode.AGET:
			if err := popInt(); err != nil {
				return err
			}
			t, err := popRef()
			if err != nil {
				return err
			}
			if t.kind == tNull {
				// Will trap at runtime; element type unknowable, treat as
				// the bottom-most usable assumption.
				push(nullT)
				break
			}
			if t.desc.Kind() != classfile.KArray {
				return fail(pc, "aget: want array, have %s", t)
			}
			push(typeForDesc(t.desc.Elem()))
		case bytecode.ASET:
			val, err := pop()
			if err != nil {
				return err
			}
			if err := popInt(); err != nil {
				return err
			}
			t, err := popRef()
			if err != nil {
				return err
			}
			if t.kind == tNull {
				break
			}
			if t.desc.Kind() != classfile.KArray {
				return fail(pc, "aset: want array, have %s", t)
			}
			if err := v.checkAssignable(val, typeForDesc(t.desc.Elem())); err != nil {
				return fail(pc, "aset: %v", err)
			}
		case bytecode.GETFIELD, bytecode.PUTFIELD, bytecode.GETSTATIC, bytecode.PUTSTATIC:
			if err := v.refCheckFieldAccess(c, m, st, pc, ins, fail); err != nil {
				return err
			}
		case bytecode.INVOKEVIRTUAL, bytecode.INVOKESTATIC, bytecode.INVOKESPECIAL:
			if err := v.refCheckInvoke(c, st, pc, ins, fail); err != nil {
				return err
			}
		case bytecode.RETURN:
			if ret != "V" {
				t, err := pop()
				if err != nil {
					return err
				}
				if err := v.checkAssignable(t, typeForDesc(ret)); err != nil {
					return fail(pc, "return: %v", err)
				}
			}
			if len(st.stack) != 0 {
				return fail(pc, "return with %d values left on stack", len(st.stack))
			}
			fallthrough_ = false
		case bytecode.TRAP:
			fallthrough_ = false
		default:
			if ins.Op.IsFused() {
				// Fused superinstructions exist only in JIT-compiled
				// streams; class-file code carrying one is forged.
				return fail(pc, "fused superinstruction %s is JIT-internal and illegal in class files", ins.Op)
			}
			return fail(pc, "unexpected opcode %s (resolved form in class file?)", ins.Op)
		}

		if fallthrough_ {
			if pc+1 >= len(m.Code) {
				return fail(pc, "control falls off end of method")
			}
			nexts = append(nexts, pc+1)
		}
		for _, n := range nexts {
			if n < 0 || n >= len(m.Code) {
				return fail(pc, "branch target %d out of range [0,%d)", n, len(m.Code))
			}
			merged, changed, err := v.refMerge(in[n], st)
			if err != nil {
				return fail(pc, "merge into %d: %v", n, err)
			}
			if changed {
				in[n] = merged
				work = append(work, n)
			}
		}
	}
	return nil
}

// refMerge joins two states pointwise; nil old means the point was unreached.
func (v *Verifier) refMerge(old *refState, new_ *refState) (*refState, bool, error) {
	if old == nil {
		return new_.clone(), true, nil
	}
	if len(old.stack) != len(new_.stack) {
		return nil, false, fmt.Errorf("operand stack depth mismatch (%d vs %d)",
			len(old.stack), len(new_.stack))
	}
	out := old.clone()
	changed := false
	for i := range out.locals {
		t := v.lub(out.locals[i], new_.locals[i])
		if t != out.locals[i] {
			out.locals[i] = t
			changed = true
		}
	}
	for i := range out.stack {
		t := v.lub(out.stack[i], new_.stack[i])
		if t.kind == tUnset {
			return nil, false, fmt.Errorf("incompatible stack slot %d (%s vs %s)",
				i, old.stack[i], new_.stack[i])
		}
		if t != out.stack[i] {
			out.stack[i] = t
			changed = true
		}
	}
	return out, changed, nil
}

type failf func(pc int, format string, args ...any) error

func (v *Verifier) refCheckFieldAccess(c *classfile.Class, m *classfile.Method, st *refState, pc int, ins bytecode.Ins, fail failf) error {
	owner, f := v.resolveField(ins.SymClass(), ins.SymMember())
	if f == nil {
		return fail(pc, "%s: unknown field %s", ins.Op, ins.Sym)
	}
	if classfile.Desc(ins.Desc) != f.Desc {
		return fail(pc, "%s: field %s has type %s, instruction says %s",
			ins.Op, ins.Sym, f.Desc, ins.Desc)
	}
	if v.mode == Strict && f.Access == classfile.Private && owner.Name != c.Name {
		return fail(pc, "%s: field %s is private to %s", ins.Op, ins.Sym, owner.Name)
	}
	isStatic := ins.Op == bytecode.GETSTATIC || ins.Op == bytecode.PUTSTATIC
	if isStatic != f.Static {
		return fail(pc, "%s: static mismatch on field %s", ins.Op, ins.Sym)
	}
	isPut := ins.Op == bytecode.PUTFIELD || ins.Op == bytecode.PUTSTATIC
	if v.mode == Strict && isPut && f.Final {
		okCtx := owner.Name == c.Name &&
			((f.Static && m.IsClinit()) || (!f.Static && m.IsInit()))
		if !okCtx {
			return fail(pc, "%s: write to final field %s outside its initializer", ins.Op, ins.Sym)
		}
	}

	pop := func() (vtype, error) {
		if len(st.stack) == 0 {
			return unsetT, fail(pc, "%s: operand stack underflow", ins.Op)
		}
		t := st.stack[len(st.stack)-1]
		st.stack = st.stack[:len(st.stack)-1]
		return t, nil
	}
	if isPut {
		val, err := pop()
		if err != nil {
			return err
		}
		if err := v.checkAssignable(val, typeForDesc(f.Desc)); err != nil {
			return fail(pc, "%s %s: %v", ins.Op, ins.Sym, err)
		}
	}
	if !isStatic {
		recv, err := pop()
		if err != nil {
			return err
		}
		if err := v.checkAssignable(recv, refT(classfile.RefOf(owner.Name))); err != nil {
			return fail(pc, "%s %s: receiver: %v", ins.Op, ins.Sym, err)
		}
	}
	if !isPut {
		st.stack = append(st.stack, typeForDesc(f.Desc))
	}
	return nil
}

func (v *Verifier) refCheckInvoke(c *classfile.Class, st *refState, pc int, ins bytecode.Ins, fail failf) error {
	sig := classfile.Sig(ins.Desc)
	owner, callee := v.resolveMethod(ins.SymClass(), ins.SymMember(), sig)
	if callee == nil {
		return fail(pc, "%s: unknown method %s%s", ins.Op, ins.Sym, ins.Desc)
	}
	if v.mode == Strict && callee.Access == classfile.Private && owner.Name != c.Name {
		return fail(pc, "%s: method %s is private to %s", ins.Op, ins.Sym, owner.Name)
	}
	isStatic := ins.Op == bytecode.INVOKESTATIC
	if isStatic != callee.Static {
		return fail(pc, "%s: static mismatch on %s%s", ins.Op, ins.Sym, ins.Desc)
	}
	args, ret, err := classfile.ParseSig(sig)
	if err != nil {
		return fail(pc, "%s: bad signature %q", ins.Op, ins.Desc)
	}
	pop := func() (vtype, error) {
		if len(st.stack) == 0 {
			return unsetT, fail(pc, "%s: operand stack underflow", ins.Op)
		}
		t := st.stack[len(st.stack)-1]
		st.stack = st.stack[:len(st.stack)-1]
		return t, nil
	}
	// Arguments are pushed left to right, so pop right to left.
	for i := len(args) - 1; i >= 0; i-- {
		val, err := pop()
		if err != nil {
			return err
		}
		if err := v.checkAssignable(val, typeForDesc(args[i])); err != nil {
			return fail(pc, "%s %s: arg %d: %v", ins.Op, ins.Sym, i, err)
		}
	}
	if !isStatic {
		recv, err := pop()
		if err != nil {
			return err
		}
		if err := v.checkAssignable(recv, refT(classfile.RefOf(owner.Name))); err != nil {
			return fail(pc, "%s %s: receiver: %v", ins.Op, ins.Sym, err)
		}
	}
	if ret != "V" {
		st.stack = append(st.stack, typeForDesc(ret))
	}
	return nil
}
