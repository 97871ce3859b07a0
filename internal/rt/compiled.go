package rt

import (
	"fmt"
	"slices"

	"govolve/internal/bytecode"
)

// OptLevel is a compilation tier.
type OptLevel int

const (
	// Base is the baseline compiler: a 1:1 resolution of bytecode with
	// offsets and slots baked in, adjacent pairs fused in place into
	// superinstructions, and an inline cache at every virtual call site.
	// Fusion keeps every instruction at its bytecode index, so the OSR
	// pc-map from a base frame to a recompiled base frame is the identity —
	// which is why, like JVOLVE, the DSU engine only OSRs onto base code.
	Base OptLevel = iota
	// Opt inlines small static/special calls and folds constants before
	// fusing. Opt code records what it inlined so the DSU engine can
	// restrict inlining callers of updated methods.
	Opt
)

func (l OptLevel) String() string {
	if l == Opt {
		return "opt"
	}
	return "base"
}

// ICEntry is one inline-cache entry: a receiver class id and the virtual
// target it resolved to at that site.
type ICEntry struct {
	ClassID int
	Target  *Method
}

// ICache is a per-call-site inline cache for virtual dispatch, embedded in
// the instruction stream of compiled code at both levels.
// Entries[0] is the monomorphic fast slot; a miss that finds room promotes
// the site to a small polymorphic stub (linear scan of Entries[:N]); a full
// cache leaves the site megamorphic and every dispatch falls back to the
// TIB lookup. The DSU install phase flushes every cache (N=0) so no entry
// can survive a class update — and because registry class ids are
// monotonic, an updated class's instances carry fresh ids that would miss
// stale entries anyway; the flush is the belt to that braces.
type ICache struct {
	Entries [4]ICEntry
	N       int
}

// Flush empties the cache and returns how many entries it dropped.
func (ic *ICache) Flush() int {
	n := ic.N
	ic.N = 0
	for i := range ic.Entries {
		ic.Entries[i] = ICEntry{}
	}
	return n
}

// Ins is one resolved (executable) instruction. Operand use by opcode:
//
//	GETFIELD_R/PUTFIELD_R    A = word offset, B = 1 if reference
//	GETSTATIC_R/PUTSTATIC_R  A = JTOC slot, B = 1 if reference
//	NEW_R/INSTOF_R/CHECKCAST_R  Cls
//	NEWARRAY_R               B = 1 if reference elements
//	LDC_R                    A = intern-table index
//	INVOKEVIRT_R             A = TIB slot, B = arg count incl receiver,
//	                         Ref = statically resolved target (diagnostics)
//	INVOKESTAT_R/INVOKESPEC_R/INVOKENAT_R  Ref = target, B = arg count
//	CONST_R                  A = constant
//	LOAD/STORE               A = local slot (unchanged from bytecode)
//	branches                 A = resolved-code target index
//	ENTERINL_R/LEAVEINL_R    Ref = inlined callee, A = saved-locals base
//
// Fused superinstructions (C is their third operand):
//
//	FCONSTARITH  A = constant, C = arith opcode
//	FLOADLOAD    A = first local slot, C = second local slot
//	FSTORELOAD   A = store slot, C = load slot
//	FSTOREGOTO   A = store slot, C = branch target
//	FLOADCMPBR   A = branch target, B = compare opcode, C = local slot
//	FCONSTCMPBR  A = constant, B = compare opcode, C = branch target
//	FGETGET      A = first word offset, C = second word offset, B = 1 if final ref
//	FLOADINVOKE  A = TIB slot, B = nargs incl receiver, C = local slot, Ref, IC
//	FLOADLOADARITH  A = first slot, C = second slot, B = arith opcode (3 slots)
//	FCONSTARITH2    A = first constant, C = second constant, B = lo byte first
//	                arith opcode, hi byte second (4 slots)
type Ins struct {
	Op      bytecode.Op
	A       int64
	B       int32
	C       int32   // third operand of fused superinstructions
	IC      *ICache // inline cache of a virtual call site
	Cls     *Class
	Ref     *Method
	Str     string // TRAP message
	RetVoid bool

	// Need is the minimum operand stack depth this instruction requires,
	// read off Effect by the JIT's last pass so the interpreter's
	// underflow guard is a single compare instead of a per-instruction
	// opcode switch. The zero value (0) is correct for every opcode that
	// consumes nothing.
	Need int32
}

func (i Ins) String() string {
	switch {
	case i.Ref != nil:
		return fmt.Sprintf("%s %s (A=%d B=%d)", i.Op, i.Ref.FullName(), i.A, i.B)
	case i.Cls != nil:
		return fmt.Sprintf("%s %s", i.Op, i.Cls.Name)
	default:
		return fmt.Sprintf("%s A=%d B=%d", i.Op, i.A, i.B)
	}
}

// CompiledMethod is the executable form of a method — the analog of a
// Jikes RVM compiled-method body with hard-coded offsets.
type CompiledMethod struct {
	Method *Method
	Level  OptLevel
	Code   []Ins

	// MaxLocals covers the method's own locals plus, for opt code, the
	// locals of inlined callees appended after them.
	MaxLocals int

	// MaxStack is the deepest operand stack any path through Code reaches,
	// inlined bodies included: what the JIT's stack pass read off Effect. An
	// activation is laid out with this much room; a bound that is too small
	// (only unverified code whose depths never settle can have one) costs the
	// interpreter a regrow, never correctness.
	MaxStack int

	// LayoutDeps are the classes whose field offsets, JTOC slots, or TIB
	// slots are baked into Code, each once, in the order the compile first
	// named them. If any of them is updated, this code is stale — the method
	// becomes one of the paper's category-(2) "indirect" methods. Its readers
	// only ask membership (DependsOn, DependsOnAny).
	LayoutDeps []*Class
	// depsInline backs LayoutDeps when it names two classes or fewer, as it
	// does for three methods in four, so those cost no allocation of their own.
	depsInline [2]*Class

	// Inlined lists methods whose bodies were inlined (opt level only).
	// If any of them changes, this code must be restricted and
	// invalidated even though this method's own bytecode is unchanged.
	Inlined []*Method

	// PCMap maps opt-code indexes back to the original bytecode index, or
	// -1 inside inlined regions. It is nil on base code, which is index for
	// index with the bytecode — fusion included — and needs no map. It
	// exists for OSR of opt-compiled category-(2) frames: a frame parked at
	// a mappable pc can be rewritten to freshly compiled base code of the
	// new class version. Frames only rest at yield points and call
	// boundaries, where the operand stack contents agree with base
	// execution, so the mapping is sound there.
	PCMap []int

	// ICSites holds every inline cache embedded in Code — the instructions
	// point into it — so the DSU install phase can flush them all without
	// scanning instruction streams.
	ICSites []ICache

	// Invalid marks code invalidated by the DSU engine; the interpreter
	// never runs invalid code (invocation recompiles first).
	Invalid bool
}

// HoldsSuperinstruction reports whether fusion rewrote any pair of Code: the
// tests and the dispatch grid ask it to know which spelling of a method ran.
func (cm *CompiledMethod) HoldsSuperinstruction() bool {
	for i := range cm.Code {
		if cm.Code[i].Op.IsFused() {
			return true
		}
	}
	return false
}

// FlushICs empties every inline cache in the method and returns the total
// number of entries dropped.
func (cm *CompiledMethod) FlushICs() int {
	n := 0
	for i := range cm.ICSites {
		n += cm.ICSites[i].Flush()
	}
	return n
}

// StackEffect is what one resolved instruction does to the operand stack it
// finds at depth d: it needs d ≥ Need, is d+Peak deep at its deepest, and
// leaves d+Delta behind.
type StackEffect struct{ Need, Delta, Peak int32 }

// pops is the effect of popping pop operands and then pushing push results.
func pops(pop, push int32) StackEffect {
	return StackEffect{Need: pop, Delta: push - pop, Peak: max(0, push-pop)}
}

// then is the effect of a followed by b.
func (a StackEffect) then(b StackEffect) StackEffect {
	return StackEffect{
		Need:  max(a.Need, b.Need-a.Delta),
		Delta: a.Delta + b.Delta,
		Peak:  max(a.Peak, a.Delta+b.Peak),
	}
}

var (
	fxNone  = pops(0, 0)
	fxPush  = pops(0, 1) // const, load, new, getstatic
	fxPop   = pops(1, 0) // store, pop, one-operand branches, putstatic
	fxTop   = pops(1, 1) // rewrites the top: neg, getfield, arraylen, casts
	fxArith = pops(2, 1) // binary arithmetic, aget
	fxPop2  = pops(2, 0) // two-operand branches, putfield
)

// Effect is the per-opcode pop/push table of resolved code: the one place
// that knows what an instruction does to the operand-stack depth. The
// interpreter's underflow guard (Ins.Need) and the compiler's operand-stack
// bound (CompiledMethod.MaxStack) are both read off it. A superinstruction's
// effect is that of its constituents run one after the other — the fused
// handlers skip the intermediate pushes, so their Peak is an over-estimate,
// chosen so that fused code gets exactly the bound of the 1:1 code it was
// fused from: the bound of a base compile is the verifier's deepest stack.
func Effect(ins *Ins) StackEffect {
	switch ins.Op {
	case bytecode.CONST, bytecode.CONST_R, bytecode.NULL, bytecode.LDC_R,
		bytecode.LOAD, bytecode.NEW_R, bytecode.GETSTATIC_R:
		return fxPush
	case bytecode.STORE, bytecode.POP, bytecode.PUTSTATIC_R,
		bytecode.IFEQ, bytecode.IFNE, bytecode.IFLT, bytecode.IFLE,
		bytecode.IFGT, bytecode.IFGE, bytecode.IFNULL, bytecode.IFNONNULL,
		bytecode.FSTOREGOTO:
		return fxPop
	case bytecode.NEG, bytecode.ARRAYLEN, bytecode.GETFIELD_R, bytecode.NEWARRAY_R,
		bytecode.INSTOF_R, bytecode.CHECKCAST_R:
		return fxTop
	case bytecode.ADD, bytecode.SUB, bytecode.MUL, bytecode.DIV, bytecode.REM,
		bytecode.AND, bytecode.OR, bytecode.XOR, bytecode.SHL, bytecode.SHR,
		bytecode.AGET:
		return fxArith
	case bytecode.IF_ICMPEQ, bytecode.IF_ICMPNE, bytecode.IF_ICMPLT,
		bytecode.IF_ICMPLE, bytecode.IF_ICMPGT, bytecode.IF_ICMPGE,
		bytecode.IF_ACMPEQ, bytecode.IF_ACMPNE, bytecode.PUTFIELD_R:
		return fxPop2
	case bytecode.DUP:
		return pops(1, 2)
	case bytecode.DUP_X1:
		return pops(2, 3)
	case bytecode.SWAP:
		return pops(2, 2)
	case bytecode.ASET:
		return pops(3, 0)
	case bytecode.RETURN:
		if ins.RetVoid {
			return fxNone
		}
		return fxPop
	case bytecode.INVOKEVIRT_R, bytecode.INVOKESTAT_R, bytecode.INVOKESPEC_R,
		bytecode.INVOKENAT_R:
		return call(ins)
	case bytecode.ENTERINL_R:
		return pops(ins.B, 0)

	case bytecode.FCONSTARITH:
		return fxPush.then(fxArith)
	case bytecode.FCONSTARITH2:
		return fxPush.then(fxArith).then(fxPush).then(fxArith)
	case bytecode.FLOADLOAD:
		return fxPush.then(fxPush)
	case bytecode.FLOADLOADARITH:
		return fxPush.then(fxPush).then(fxArith)
	case bytecode.FSTORELOAD:
		return fxPop.then(fxPush)
	case bytecode.FLOADCMPBR:
		return fxPush.then(Effect(&Ins{Op: bytecode.Op(ins.B)}))
	case bytecode.FCONSTCMPBR:
		return fxPush.then(fxPop2)
	case bytecode.FGETGET:
		return fxTop.then(fxTop)
	case bytecode.FLOADINVOKE:
		return fxPush.then(call(ins))
	default:
		return fxNone
	}
}

// call is the effect of a call site: B arguments (receiver included) off, the
// result, if any, on.
func call(ins *Ins) StackEffect {
	if ins.RetVoid {
		return pops(ins.B, 0)
	}
	return pops(ins.B, 1)
}

// SetLayoutDeps sets LayoutDeps to a copy of deps, which the compiler built in
// scratch of its own.
func (cm *CompiledMethod) SetLayoutDeps(deps []*Class) {
	if len(deps) <= len(cm.depsInline) {
		cm.LayoutDeps = append(cm.depsInline[:0], deps...)
		return
	}
	cm.LayoutDeps = slices.Clone(deps)
}

// DependsOn reports whether the compiled code bakes in the given class's
// layout or dispatch table.
func (cm *CompiledMethod) DependsOn(c *Class) bool { return slices.Contains(cm.LayoutDeps, c) }

// DependsOnAny reports whether the compiled code bakes in the layout or
// dispatch table of any class in the set.
func (cm *CompiledMethod) DependsOnAny(set map[*Class]bool) bool {
	for _, c := range cm.LayoutDeps {
		if set[c] {
			return true
		}
	}
	return false
}

// InlinedAny reports whether any of the given methods is inlined here.
func (cm *CompiledMethod) InlinedAny(set map[*Method]bool) bool {
	for _, m := range cm.Inlined {
		if set[m] {
			return true
		}
	}
	return false
}
