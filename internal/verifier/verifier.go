// Package verifier statically type-checks bytecode by abstract
// interpretation, the analog of Java bytecode verification that the JVOLVE
// paper relies on for update type safety ("JVOLVE relies on bytecode
// verification to statically type-check updated classes").
//
// A relaxed mode ignores access modifiers and permits writes to final
// fields. It exists for exactly one client: transformer classes. The paper
// compiles JvolveTransformers with a JastAdd extension that ignores private/
// protected and final, and modifies the VM to accept the result "in this
// special circumstance"; relaxed mode is that special circumstance.
package verifier

import (
	"fmt"
	"slices"

	"govolve/internal/bytecode"
	"govolve/internal/classfile"
)

// Env resolves class names during verification. The VM's registry and bare
// classfile.Programs both implement it.
type Env interface {
	// LookupClass returns the class definition, or nil if unknown.
	LookupClass(name string) *classfile.Class
}

// ProgramEnv adapts a classfile.Program to Env.
type ProgramEnv struct{ *classfile.Program }

// LookupClass implements Env.
func (p ProgramEnv) LookupClass(name string) *classfile.Class {
	return p.Classes[name]
}

// Mode selects strictness.
type Mode int

const (
	// Strict enforces access modifiers and final semantics.
	Strict Mode = iota
	// Relaxed ignores access modifiers and final writes; transformer
	// classes only.
	Relaxed
)

// Error is a verification failure at a specific instruction.
type Error struct {
	Class  string
	Method string
	PC     int
	Msg    string
}

func (e *Error) Error() string {
	return fmt.Sprintf("verifier: %s.%s pc=%d: %s", e.Class, e.Method, e.PC, e.Msg)
}

// vtype is a verification type: the single numeric word type, a reference
// type (its descriptor), the null type, or unset (unknown/invalid).
type vtype struct {
	kind vkind
	desc classfile.Desc // for refs
}

type vkind uint8

const (
	tUnset vkind = iota
	tInt
	tNull
	tRef
)

var (
	intT    = vtype{kind: tInt}
	nullT   = vtype{kind: tNull}
	unsetT  = vtype{}
	objectT = refT("LObject;")
	stringT = refT("LString;")
)

func refT(d classfile.Desc) vtype { return vtype{kind: tRef, desc: d} }

func (t vtype) isRefLike() bool { return t.kind == tRef || t.kind == tNull }

func (t vtype) String() string {
	switch t.kind {
	case tInt:
		return "int"
	case tNull:
		return "null"
	case tRef:
		return string(t.desc)
	default:
		return "unset"
	}
}

// typeForDesc maps a declared descriptor to a verification type.
func typeForDesc(d classfile.Desc) vtype {
	if d.IsRef() {
		return refT(d)
	}
	return intT
}

// Verifier checks methods of a class against an environment. It owns the
// scratch storage the dataflow runs in, reused from method to method, so it
// is not safe for concurrent use.
type Verifier struct {
	env  Env
	mode Mode
	*scratch
}

// New builds a Verifier. Its scratch starts out sized for the methods real
// programs mostly have (of the three apps' 537, nine in ten are under 30
// instructions; the largest is 101, with 6 locals), so that a Verifier used
// for one small program neither spends its life growing slices nor pays for
// room it will not use; anything larger grows them.
func New(env Env, mode Mode) *Verifier {
	return &Verifier{env: env, mode: mode, scratch: &scratch{
		points: make([]point, 0, 32),
		slab:   make([]vtype, 0, 64),
		work:   make([]int32, 0, 8),
		locals: make([]vtype, 0, 8),
		stack:  make([]vtype, 0, 8),
		args:   make([]classfile.Desc, 0, 4),
		refs:   make(map[string]classfile.Desc, 32),
		seen:   make(map[string]bool, 8),
	}}
}

// WithMode returns a Verifier for the same environment, on the same scratch
// storage, that checks in the given mode: an update verifies its classes
// strictly and its transformers relaxed out of one set of buffers.
func (v *Verifier) WithMode(mode Mode) *Verifier {
	return &Verifier{env: v.env, mode: mode, scratch: v.scratch}
}

// VerifyProgram verifies every method of every class in the program against
// itself as environment.
func VerifyProgram(p *classfile.Program) error {
	v := New(ProgramEnv{p}, Strict)
	for _, c := range p.Sorted() {
		if err := v.VerifyClass(c); err != nil {
			return err
		}
	}
	return nil
}

// VerifyClass verifies every non-native method of the class.
func (v *Verifier) VerifyClass(c *classfile.Class) error {
	if err := v.checkHierarchy(c); err != nil {
		return err
	}
	for _, m := range c.Methods {
		if m.Native {
			continue
		}
		if err := v.VerifyMethod(c, m); err != nil {
			return err
		}
	}
	return nil
}

// checkHierarchy rejects an unknown superclass and a superclass cycle.
func (v *Verifier) checkHierarchy(c *classfile.Class) error {
	if c.Super == "" {
		return nil
	}
	if v.env.LookupClass(c.Super) == nil {
		return fmt.Errorf("verifier: class %s extends unknown class %s", c.Name, c.Super)
	}
	clear(v.seen)
	v.seen[c.Name] = true
	for s := c.Super; s != ""; {
		if v.seen[s] {
			return fmt.Errorf("verifier: class %s: superclass cycle through %s", c.Name, s)
		}
		v.seen[s] = true
		sc := v.env.LookupClass(s)
		if sc == nil {
			return fmt.Errorf("verifier: class %s: unknown superclass %s", c.Name, s)
		}
		s = sc.Super
	}
	return nil
}

// point is what the dataflow keeps per instruction. Only leaders hold an
// in-state; every other instruction has one predecessor, the instruction
// before it, and sees the working state that one left.
type point struct {
	// leader marks pc 0 and every branch target.
	leader bool
	// nullAget marks an aget that has pushed null for a null receiver.
	nullAget bool
	// off is where a leader's in-state starts in scratch.slab (its locals,
	// then depth stack slots), or -1 while the leader is unreached.
	off, depth int32
}

// scratch is the storage one method's dataflow runs in. Nothing in it
// outlives VerifyMethod except capacity, and refs.
type scratch struct {
	// The method being verified and the instruction being checked: where
	// fail points.
	c   *classfile.Class
	m   *classfile.Method
	pc  int
	err error // the method's first failure

	points []point // one per instruction
	slab   []vtype // in-states of the reached leaders, back to back
	work   []int32 // leaders whose in-state changed, taken last in first out
	locals []vtype // the working state, carried through straight-line code
	stack  []vtype
	args   []classfile.Desc // arguments of the signature being walked

	// deepest is the high-water mark of stack over the method.
	deepest int

	// refs memoises "L"+name+";" per class name.
	refs map[string]classfile.Desc
	// seen is the superclass chain checkHierarchy has walked.
	seen map[string]bool
}

// zeroed returns s resized to n zero elements, reusing its storage.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// classT is the verification type of a reference to the named class.
func (v *Verifier) classT(name string) vtype {
	d, ok := v.refs[name]
	if !ok {
		d = classfile.RefOf(name)
		v.refs[name] = d
	}
	return refT(d)
}

// fail records the method's first failure and returns it. A transfer
// function carries on past a failed pop with an unset value; whatever it
// reports after that is a consequence, and is dropped here.
func (v *Verifier) fail(format string, args ...any) error {
	if v.err == nil {
		v.err = &Error{Class: v.c.Name, Method: v.m.ID(), PC: v.pc, Msg: fmt.Sprintf(format, args...)}
	}
	return v.err
}

// op is the opcode being checked, for messages.
func (v *Verifier) op() bytecode.Op { return v.m.Code[v.pc].Op }

func (v *Verifier) push(t vtype) { v.stack = append(v.stack, t) }

func (v *Verifier) pop() vtype {
	n := len(v.stack)
	if n == 0 {
		v.fail("%s: operand stack underflow", v.op())
		return unsetT
	}
	t := v.stack[n-1]
	v.stack = v.stack[:n-1]
	return t
}

func (v *Verifier) popInt() {
	if t := v.pop(); t.kind != tInt {
		v.fail("%s: want int, have %s", v.op(), t)
	}
}

func (v *Verifier) popRef() vtype {
	t := v.pop()
	if !t.isRefLike() {
		v.fail("%s: want reference, have %s", v.op(), t)
		return unsetT
	}
	return t
}

// VerifyMethod runs the dataflow analysis over one method body: abstract
// interpretation over basic blocks. An in-state is stored only at leaders;
// one working state is carried from a leader through the straight-line code
// after it and joined, in place, into every leader it reaches, and a leader
// whose in-state that raised goes back on the worklist. Between leaders the
// state is a function of the leader's in-state, so storing it — as the
// per-instruction reference model in reference_test.go does — buys nothing.
// DESIGN.md §16 has the argument.
func (v *Verifier) VerifyMethod(c *classfile.Class, m *classfile.Method) error {
	v.c, v.m, v.pc, v.err, v.deepest = c, m, 0, nil, 0
	code := m.Code
	if len(code) == 0 {
		return v.fail("empty method body")
	}
	args, ret, err := m.Sig.AppendArgs(v.args[:0])
	if err != nil {
		return v.fail("bad signature: %v", err)
	}
	v.args = args

	v.locals, v.stack = zeroed(v.locals, m.MaxLocals), v.stack[:0]
	slot := 0
	if !m.Static {
		if slot >= m.MaxLocals {
			return v.fail("MaxLocals %d too small for receiver", m.MaxLocals)
		}
		v.locals[slot] = v.classT(c.Name)
		slot++
	}
	for _, a := range args {
		if slot >= m.MaxLocals {
			return v.fail("MaxLocals %d too small for %d args", m.MaxLocals, len(args))
		}
		v.locals[slot] = typeForDesc(a)
		slot++
	}

	v.points = zeroed(v.points, len(code))
	v.points[0].leader = true
	for i := range code {
		v.points[i].off = -1
		if code[i].Op.IsBranch() && code[i].A >= 0 && code[i].A < int64(len(code)) {
			v.points[code[i].A].leader = true
		}
	}
	v.slab, v.work = v.slab[:0], v.work[:0]
	v.flow(0)

	steps := 0
	maxSteps := 64 * (len(code) + 4) * (m.MaxLocals + 4)
	for len(v.work) > 0 {
		pc := int(v.work[len(v.work)-1])
		v.work = v.work[:len(v.work)-1]
		in := v.slab[v.points[pc].off:]
		copy(v.locals, in)
		v.stack = append(v.stack[:0], in[len(v.locals):len(v.locals)+int(v.points[pc].depth)]...)

		for { // one instruction of straight-line code per turn
			if steps++; steps > maxSteps {
				v.pc = 0
				return v.fail("dataflow did not converge")
			}
			v.pc = pc
			ins := &code[pc]
			falls := true

			switch ins.Op {
			case bytecode.NOP, bytecode.YIELD:
			case bytecode.CONST:
				v.push(intT)
			case bytecode.NULL:
				v.push(nullT)
			case bytecode.LDC:
				v.push(stringT)
			case bytecode.LOAD, bytecode.STORE:
				idx := int(ins.A)
				if idx < 0 || idx >= m.MaxLocals {
					return v.fail("%s %d out of range (MaxLocals %d)", ins.Op, idx, m.MaxLocals)
				}
				if ins.Op == bytecode.STORE {
					v.locals[idx] = v.pop()
				} else if t := v.locals[idx]; t.kind == tUnset {
					v.fail("load %d: local not definitely assigned", idx)
				} else {
					v.push(t)
				}
			case bytecode.POP:
				v.pop()
			case bytecode.DUP:
				t := v.pop()
				v.push(t)
				v.push(t)
			case bytecode.DUP_X1, bytecode.SWAP:
				a, b := v.pop(), v.pop()
				v.push(a)
				v.push(b)
				if ins.Op == bytecode.DUP_X1 {
					v.push(a)
				}
			case bytecode.ADD, bytecode.SUB, bytecode.MUL, bytecode.DIV, bytecode.REM,
				bytecode.AND, bytecode.OR, bytecode.XOR, bytecode.SHL, bytecode.SHR:
				v.popInt()
				v.popInt()
				v.push(intT)
			case bytecode.NEG:
				v.popInt()
				v.push(intT)
			case bytecode.GOTO:
				falls = false
			case bytecode.IFEQ, bytecode.IFNE, bytecode.IFLT, bytecode.IFLE,
				bytecode.IFGT, bytecode.IFGE:
				v.popInt()
			case bytecode.IF_ICMPEQ, bytecode.IF_ICMPNE, bytecode.IF_ICMPLT,
				bytecode.IF_ICMPLE, bytecode.IF_ICMPGT, bytecode.IF_ICMPGE:
				v.popInt()
				v.popInt()
			case bytecode.IF_ACMPEQ, bytecode.IF_ACMPNE:
				v.popRef()
				v.popRef()
			case bytecode.IFNULL, bytecode.IFNONNULL:
				v.popRef()
			case bytecode.NEW, bytecode.INSTANCEOF, bytecode.CHECKCAST:
				if v.env.LookupClass(ins.Sym) == nil {
					return v.fail("%s: unknown class %s", ins.Op, ins.Sym)
				}
				if ins.Op != bytecode.NEW {
					v.popRef()
				}
				if ins.Op == bytecode.INSTANCEOF {
					v.push(intT)
				} else {
					v.push(v.classT(ins.Sym))
				}
			case bytecode.NEWARRAY:
				elem := classfile.Desc(ins.Desc)
				if !elem.Valid() {
					return v.fail("newarray: bad element descriptor %q", ins.Desc)
				}
				v.popInt()
				v.push(refT(classfile.ArrayOf(elem)))
			case bytecode.ARRAYLEN:
				if t := v.popRef(); t.kind == tRef && t.desc.Kind() != classfile.KArray {
					v.fail("arraylen: want array, have %s", t)
				}
				v.push(intT)
			case bytecode.AGET:
				v.popInt()
				t := v.popRef()
				elem := typeForDesc(t.desc.Elem())
				switch {
				case t.kind == tNull:
					// Will trap at runtime; element type unknowable, treat as
					// the bottom-most usable assumption.
					v.points[pc].nullAget = true
					v.push(nullT)
				case t.desc.Kind() != classfile.KArray:
					v.fail("aget: want array, have %s", t)
				case elem.kind == tInt && v.points[pc].nullAget && pc+1 < len(code):
					// The one transfer that is not monotone: null is below
					// every array type, but the null it made this site push is
					// not below a word. The site is rejected as the join of
					// its two results, which is where the per-instruction
					// engine met them (in the in-state of pc+1).
					v.fail("merge into %d: incompatible stack slot %d (%s vs %s)",
						pc+1, len(v.stack), nullT, elem)
				default:
					v.push(elem)
				}
			case bytecode.ASET:
				val := v.pop()
				v.popInt()
				if t := v.popRef(); t.kind == tNull {
					// Traps at runtime, like aget.
				} else if t.desc.Kind() != classfile.KArray {
					v.fail("aset: want array, have %s", t)
				} else if err := v.checkAssignable(val, typeForDesc(t.desc.Elem())); err != nil {
					v.fail("aset: %v", err)
				}
			case bytecode.GETFIELD, bytecode.PUTFIELD, bytecode.GETSTATIC, bytecode.PUTSTATIC:
				v.checkFieldAccess(ins)
			case bytecode.INVOKEVIRTUAL, bytecode.INVOKESTATIC, bytecode.INVOKESPECIAL:
				v.checkInvoke(ins)
			case bytecode.RETURN:
				if ret != "V" {
					if err := v.checkAssignable(v.pop(), typeForDesc(ret)); err != nil {
						v.fail("return: %v", err)
					}
				}
				if len(v.stack) != 0 {
					v.fail("return with %d values left on stack", len(v.stack))
				}
				falls = false
			case bytecode.TRAP:
				falls = false
			default:
				if ins.Op.IsFused() {
					// Fused superinstructions exist only in JIT-compiled
					// streams; class-file code carrying one is forged.
					return v.fail("fused superinstruction %s is JIT-internal and illegal in class files", ins.Op)
				}
				return v.fail("unexpected opcode %s (resolved form in class file?)", ins.Op)
			}

			if v.err != nil {
				return v.err
			}
			v.deepest = max(v.deepest, len(v.stack))
			if falls && pc+1 >= len(code) {
				return v.fail("control falls off end of method")
			}
			if ins.Op.IsBranch() {
				n := int(ins.A)
				if n < 0 || n >= len(code) {
					return v.fail("branch target %d out of range [0,%d)", n, len(code))
				}
				if v.flow(n) != nil {
					return v.err
				}
			}
			if !falls {
				break
			}
			if pc++; v.points[pc].leader {
				if v.flow(pc) != nil {
					return v.err
				}
				break
			}
		}
	}
	return nil
}

// MaxStack is the deepest operand stack the last VerifyMethod reached, over
// the instructions it accepted: the bound the JIT's depth pass must arrive at
// for the same method's base code.
func (v *Verifier) MaxStack() int { return v.deepest }

// flow joins the working state into leader n's in-state, in place, and puts
// n on the worklist if that raised it (a first arrival always does). A failed
// join may leave the in-state half raised: the method is rejected, nothing
// reads it again.
func (v *Verifier) flow(n int) error {
	p := &v.points[n]
	if p.off < 0 {
		p.off, p.depth = int32(len(v.slab)), int32(len(v.stack))
		v.slab = append(append(v.slab, v.locals...), v.stack...)
		v.work = append(v.work, int32(n))
		return nil
	}
	if int(p.depth) != len(v.stack) {
		return v.fail("merge into %d: operand stack depth mismatch (%d vs %d)", n, p.depth, len(v.stack))
	}
	in := v.slab[p.off:]
	changed := false
	for i, t := range v.locals {
		if u := v.lub(in[i], t); u != in[i] {
			in[i] = u
			changed = true
		}
	}
	in = in[len(v.locals):]
	for i, t := range v.stack {
		u := v.lub(in[i], t)
		if u.kind == tUnset {
			return v.fail("merge into %d: incompatible stack slot %d (%s vs %s)", n, i, in[i], t)
		}
		if u != in[i] {
			in[i] = u
			changed = true
		}
	}
	if changed {
		v.work = append(v.work, int32(n))
	}
	return nil
}

// lub computes the least upper bound of two verification types. Unmergeable
// locals degrade to unset (use is what fails); unmergeable stack slots are
// an error at the caller.
func (v *Verifier) lub(a, b vtype) vtype {
	switch {
	case a == b:
		return a
	case a.kind == tUnset || b.kind == tUnset:
		return unsetT
	case a.kind == tInt || b.kind == tInt:
		return unsetT // int vs ref never merges
	case a.kind == tNull:
		return b
	case b.kind == tNull:
		return a
	}
	// Both refs: walk a's superclass chain looking for a common ancestor.
	if a.desc.Kind() == classfile.KArray || b.desc.Kind() == classfile.KArray {
		if a.desc == b.desc {
			return a
		}
		return objectT
	}
	for an := a.desc.ClassName(); an != ""; {
		if v.isSubclass(b.desc.ClassName(), an) {
			return v.classT(an)
		}
		cls := v.env.LookupClass(an)
		if cls == nil {
			break
		}
		an = cls.Super
	}
	return objectT
}

// isSubclass reports whether class sub is name or a descendant of name.
func (v *Verifier) isSubclass(sub, name string) bool {
	for sub != "" {
		if sub == name {
			return true
		}
		cls := v.env.LookupClass(sub)
		if cls == nil {
			return false
		}
		sub = cls.Super
	}
	return false
}

// checkAssignable verifies that a value of type have may flow into a slot
// declared as want.
func (v *Verifier) checkAssignable(have, want vtype) error {
	if have == want && (have.kind == tInt || have.kind == tRef) {
		return nil // the common case: no descriptor to take apart, no class to look up
	}
	switch want.kind {
	case tInt:
		if have.kind != tInt {
			return fmt.Errorf("want int, have %s", have)
		}
		return nil
	case tRef:
		if have.kind == tNull {
			return nil
		}
		if have.kind != tRef {
			return fmt.Errorf("want %s, have %s", want, have)
		}
		if want.desc.Kind() == classfile.KArray {
			if have.desc == want.desc {
				return nil
			}
			return fmt.Errorf("want %s, have %s", want, have)
		}
		if have.desc.Kind() == classfile.KArray {
			if want.desc.ClassName() == "Object" {
				return nil
			}
			return fmt.Errorf("want %s, have %s", want, have)
		}
		if v.isSubclass(have.desc.ClassName(), want.desc.ClassName()) {
			return nil
		}
		return fmt.Errorf("%s is not a subclass of %s", have, want)
	default:
		return fmt.Errorf("bad target type %s", want)
	}
}

// checkReceiver is checkAssignable against a reference to the named class,
// which it builds (for the message) only to reject.
func (v *Verifier) checkReceiver(have vtype, class string) error {
	switch {
	case have.kind == tNull:
		return nil
	case have.kind == tRef && have.desc.Kind() == classfile.KArray:
		if class == "Object" {
			return nil
		}
	case have.kind == tRef && v.isSubclass(have.desc.ClassName(), class):
		return nil
	}
	return v.checkAssignable(have, v.classT(class))
}

// resolveField searches the class chain for the named field, matching how
// the JIT resolves field references.
func (v *Verifier) resolveField(className, fieldName string) (*classfile.Class, *classfile.Field) {
	for className != "" {
		cls := v.env.LookupClass(className)
		if cls == nil {
			return nil, nil
		}
		if f := cls.Field(fieldName); f != nil {
			return cls, f
		}
		className = cls.Super
	}
	return nil, nil
}

// resolveMethod searches the class chain for the named method.
func (v *Verifier) resolveMethod(className, name string, sig classfile.Sig) (*classfile.Class, *classfile.Method) {
	for className != "" {
		cls := v.env.LookupClass(className)
		if cls == nil {
			return nil, nil
		}
		if m := cls.Method(name, sig); m != nil {
			return cls, m
		}
		className = cls.Super
	}
	return nil, nil
}

func (v *Verifier) checkFieldAccess(ins *bytecode.Ins) {
	c, m := v.c, v.m
	class, member := bytecode.SplitSym(ins.Sym)
	owner, f := v.resolveField(class, member)
	if f == nil {
		v.fail("%s: unknown field %s", ins.Op, ins.Sym)
		return
	}
	if classfile.Desc(ins.Desc) != f.Desc {
		v.fail("%s: field %s has type %s, instruction says %s", ins.Op, ins.Sym, f.Desc, ins.Desc)
	}
	if v.mode == Strict && f.Access == classfile.Private && owner.Name != c.Name {
		v.fail("%s: field %s is private to %s", ins.Op, ins.Sym, owner.Name)
	}
	isStatic := ins.Op == bytecode.GETSTATIC || ins.Op == bytecode.PUTSTATIC
	if isStatic != f.Static {
		v.fail("%s: static mismatch on field %s", ins.Op, ins.Sym)
	}
	isPut := ins.Op == bytecode.PUTFIELD || ins.Op == bytecode.PUTSTATIC
	if v.mode == Strict && isPut && f.Final {
		okCtx := owner.Name == c.Name &&
			((f.Static && m.IsClinit()) || (!f.Static && m.IsInit()))
		if !okCtx {
			v.fail("%s: write to final field %s outside its initializer", ins.Op, ins.Sym)
		}
	}

	if isPut {
		if err := v.checkAssignable(v.pop(), typeForDesc(f.Desc)); err != nil {
			v.fail("%s %s: %v", ins.Op, ins.Sym, err)
		}
	}
	if !isStatic {
		if err := v.checkReceiver(v.pop(), owner.Name); err != nil {
			v.fail("%s %s: receiver: %v", ins.Op, ins.Sym, err)
		}
	}
	if !isPut {
		v.push(typeForDesc(f.Desc))
	}
}

func (v *Verifier) checkInvoke(ins *bytecode.Ins) {
	sig := classfile.Sig(ins.Desc)
	class, member := bytecode.SplitSym(ins.Sym)
	owner, callee := v.resolveMethod(class, member, sig)
	if callee == nil {
		v.fail("%s: unknown method %s%s", ins.Op, ins.Sym, ins.Desc)
		return
	}
	if v.mode == Strict && callee.Access == classfile.Private && owner.Name != v.c.Name {
		v.fail("%s: method %s is private to %s", ins.Op, ins.Sym, owner.Name)
	}
	isStatic := ins.Op == bytecode.INVOKESTATIC
	if isStatic != callee.Static {
		v.fail("%s: static mismatch on %s%s", ins.Op, ins.Sym, ins.Desc)
	}
	args, ret, err := sig.AppendArgs(v.args[:0])
	if err != nil {
		v.fail("%s: bad signature %q", ins.Op, ins.Desc)
		return
	}
	v.args = args
	// Arguments are pushed left to right, so pop right to left.
	for i := len(args) - 1; i >= 0; i-- {
		if err := v.checkAssignable(v.pop(), typeForDesc(args[i])); err != nil {
			v.fail("%s %s: arg %d: %v", ins.Op, ins.Sym, i, err)
		}
	}
	if !isStatic {
		if err := v.checkReceiver(v.pop(), owner.Name); err != nil {
			v.fail("%s %s: receiver: %v", ins.Op, ins.Sym, err)
		}
	}
	if ret != "V" {
		v.push(typeForDesc(ret))
	}
}
