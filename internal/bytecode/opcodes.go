// Package bytecode defines the instruction set of the govolve toy managed
// language: a JVM-flavoured stack machine with symbolic (unresolved)
// operands. The JIT (internal/jit) resolves symbolic instructions into
// executable code with hard-coded field offsets and vtable slots, exactly as
// Jikes RVM's compilers bake offsets into machine code — which is what makes
// class-layout changes invalidate compiled methods ("indirect" methods in
// the JVOLVE paper's category 2).
package bytecode

import "fmt"

// Op is a bytecode opcode. Symbolic opcodes appear in class files; the
// resolved R-suffixed forms appear only in compiled code produced by the JIT.
type Op uint8

// Symbolic opcodes (what the assembler emits and the verifier checks).
const (
	NOP Op = iota

	// Constants.
	CONST // push integer constant A
	NULL  // push null reference
	LDC   // push interned string; Str operand

	// Locals. Load/store are untyped at the instruction level; the
	// verifier tracks the type flowing through each local slot.
	LOAD  // push local A
	STORE // pop into local A

	// Operand stack.
	POP
	DUP
	DUP_X1
	SWAP

	// Integer arithmetic. All operate on 64-bit ints.
	ADD
	SUB
	MUL
	DIV
	REM
	NEG
	AND
	OR
	XOR
	SHL
	SHR

	// Branches. A is the target instruction index (the assembler resolves
	// labels). Conditional forms pop one or two operands.
	GOTO
	IFEQ // pop int; branch if == 0
	IFNE
	IFLT
	IFLE
	IFGT
	IFGE
	IF_ICMPEQ // pop two ints
	IF_ICMPNE
	IF_ICMPLT
	IF_ICMPLE
	IF_ICMPGT
	IF_ICMPGE
	IF_ACMPEQ // pop two refs
	IF_ACMPNE
	IFNULL
	IFNONNULL

	// Objects and arrays. Sym operands name classes, fields, methods.
	NEW        // Sym = class name
	GETFIELD   // Sym = Class.field, Desc = field descriptor
	PUTFIELD   //
	GETSTATIC  //
	PUTSTATIC  //
	INSTANCEOF // Sym = class name; push 0/1
	CHECKCAST  // Sym = class name; traps on failure
	NEWARRAY   // Desc = element descriptor; pop length
	ARRAYLEN   // pop array ref, push length
	AGET       // pop index, array; push element
	ASET       // pop value, index, array

	// Calls. Sym = Class.method, Desc = method signature.
	INVOKEVIRTUAL
	INVOKESTATIC
	INVOKESPECIAL // constructors, private methods, super calls

	// Control.
	RETURN // returns void or the top of stack per the method signature
	TRAP   // Str = message; kills the thread with a runtime error
	YIELD  // explicit yield point (entry/exit/backedge yields are implicit)
)

// Resolved opcodes, produced only by the JIT. They carry numeric operands:
// word offsets, JTOC slots, TIB slots, class IDs, intern-table indexes.
const (
	rbase Op = 0x80

	GETFIELD_R   Op = rbase + iota // A = field word offset, B = 1 if ref
	PUTFIELD_R                     // A = field word offset, B = 1 if ref
	GETSTATIC_R                    // A = JTOC slot
	PUTSTATIC_R                    // A = JTOC slot
	NEW_R                          // Cls = resolved class
	INSTOF_R                       // Cls = resolved class
	CHECKCAST_R                    // Cls = resolved class
	NEWARRAY_R                     // B = 1 if ref elements
	LDC_R                          // A = intern-table root index
	INVOKEVIRT_R                   // A = TIB slot; Sym retained for diagnostics
	INVOKESTAT_R                   // Ref = resolved method
	INVOKESPEC_R                   // Ref = resolved method
	INVOKENAT_R                    // Ref = resolved native method
	CONST_R                        // A = constant (result of JIT constant folding)
	ENTERINL_R                     // inlined-callee prologue marker (opt compiler)
	LEAVEINL_R                     // inlined-callee epilogue marker

	// Fused superinstructions, produced only by the JIT's peephole fusion
	// pass, the last rewriting pass of every compile. Each replaces an
	// adjacent pair [A, B] of resolved instructions in place: the fused
	// opcode occupies the first slot and FPAD pads the second, so code
	// length and branch targets are unchanged and base code stays index for
	// index with its bytecode — a superinstruction sits at its first
	// constituent's pc. The fusion pass never fuses a pair whose second
	// instruction is a branch target, so FPAD is never jumped to (the
	// interpreter still treats it as a nop defensively).
	FPAD        // padding slot of a fused pair
	FCONSTARITH // const A then arith C, in place on the stack top
	FLOADLOAD   // load A; load C
	FSTORELOAD  // store A; load C
	FSTOREGOTO  // store A; goto C (with backedge yield semantics)
	FLOADCMPBR  // load C; conditional branch B to target A
	FCONSTCMPBR // const A; two-operand compare-branch B to target C
	FGETGET     // getfield A (ref) then getfield C of the result; B = 1 if final ref
	FLOADINVOKE // load C; invokevirtual (A = TIB slot, B = nargs incl receiver)

	// Chained superinstructions, produced by the fusion pass's second
	// sweep: it merges a fused pair with an adjacent constituent (or a
	// second fused pair) into a 3- or 4-wide superinstruction, padding
	// every absorbed slot with FPAD. The same in-place rules apply —
	// nothing absorbed may be a branch target — and the chains are
	// restricted to trap-free constituents (no runtime divisors), so one
	// dispatch can account for all constituent steps up front.
	FLOADLOADARITH // load A; load C; arith B (B never DIV/REM) — 3 slots
	FCONSTARITH2   // const A, arith lo(B); const C, arith hi(B) — 4 slots
)

// FusedMin/FusedMax bound the fused-superinstruction opcode range, used by
// the printer, the verifier, and the fuzz corpora to recognise the
// superinstruction opcode space without enumerating it.
const (
	FusedMin = FPAD
	FusedMax = FCONSTARITH2
)

// IsFused reports whether the opcode is a fused superinstruction.
func (op Op) IsFused() bool { return op >= FusedMin && op <= FusedMax }

var names = [...]string{
	NOP: "nop", CONST: "const", NULL: "null", LDC: "ldc",
	LOAD: "load", STORE: "store",
	POP: "pop", DUP: "dup", DUP_X1: "dup_x1", SWAP: "swap",
	ADD: "add", SUB: "sub", MUL: "mul", DIV: "div", REM: "rem", NEG: "neg",
	AND: "and", OR: "or", XOR: "xor", SHL: "shl", SHR: "shr",
	GOTO: "goto", IFEQ: "ifeq", IFNE: "ifne", IFLT: "iflt", IFLE: "ifle",
	IFGT: "ifgt", IFGE: "ifge",
	IF_ICMPEQ: "if_icmpeq", IF_ICMPNE: "if_icmpne", IF_ICMPLT: "if_icmplt",
	IF_ICMPLE: "if_icmple", IF_ICMPGT: "if_icmpgt", IF_ICMPGE: "if_icmpge",
	IF_ACMPEQ: "if_acmpeq", IF_ACMPNE: "if_acmpne",
	IFNULL: "ifnull", IFNONNULL: "ifnonnull",
	NEW: "new", GETFIELD: "getfield", PUTFIELD: "putfield",
	GETSTATIC: "getstatic", PUTSTATIC: "putstatic",
	INSTANCEOF: "instanceof", CHECKCAST: "checkcast",
	NEWARRAY: "newarray", ARRAYLEN: "arraylen", AGET: "aget", ASET: "aset",
	INVOKEVIRTUAL: "invokevirtual", INVOKESTATIC: "invokestatic",
	INVOKESPECIAL: "invokespecial",
	RETURN:        "return", TRAP: "trap", YIELD: "yield",

	GETFIELD_R: "getfield_r", PUTFIELD_R: "putfield_r",
	GETSTATIC_R: "getstatic_r", PUTSTATIC_R: "putstatic_r",
	NEW_R: "new_r", INSTOF_R: "instanceof_r", CHECKCAST_R: "checkcast_r",
	NEWARRAY_R: "newarray_r", LDC_R: "ldc_r",
	INVOKEVIRT_R: "invokevirtual_r", INVOKESTAT_R: "invokestatic_r",
	INVOKESPEC_R: "invokespecial_r", INVOKENAT_R: "invokenative_r",
	CONST_R: "const_r", ENTERINL_R: "enterinline_r", LEAVEINL_R: "leaveinline_r",

	FPAD: "fpad", FCONSTARITH: "fconstarith", FLOADLOAD: "floadload",
	FSTORELOAD: "fstoreload", FSTOREGOTO: "fstoregoto",
	FLOADCMPBR: "floadcmpbr", FCONSTCMPBR: "fconstcmpbr",
	FGETGET: "fgetget", FLOADINVOKE: "floadinvoke",
	FLOADLOADARITH: "floadloadarith", FCONSTARITH2: "fconstarith2",
}

// String returns the assembler mnemonic for the opcode.
func (op Op) String() string {
	if int(op) < len(names) && names[op] != "" {
		return names[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// OpNamed resolves an assembler mnemonic to its symbolic opcode. Resolved
// opcodes are deliberately absent: they cannot appear in source. The lookup
// hashes two bytes and the length into mnemonics and compares at most a few
// names; no string is hashed whole.
func OpNamed(name string) (Op, bool) {
	if len(name) < 2 {
		return 0, false
	}
	for h := mnemonicHash(name); ; h = (h + 1) % uint(len(mnemonics)) {
		e := mnemonics[h]
		if e == 0 {
			return 0, false
		}
		if op := Op(e - 1); names[op] == name {
			return op, true
		}
	}
}

// mnemonics is an open-addressed table of the symbolic opcodes by
// mnemonicHash, linearly probed; an entry holds op+1, and 0 is empty.
var mnemonics = func() (t [128]uint8) {
	for op := Op(0); op < rbase; op++ {
		if names[op] == "" {
			continue
		}
		h := mnemonicHash(names[op])
		for t[h] != 0 {
			h = (h + 1) % uint(len(t))
		}
		t[h] = uint8(op) + 1
	}
	return t
}()

// mnemonicHash mixes the first byte, the last two and the length; the
// coefficients are chosen so that no mnemonic probes more than twice.
func mnemonicHash(s string) uint {
	return (uint(s[0])*14 + uint(s[len(s)-1])*21 + uint(s[len(s)-2]) + uint(len(s))*19) % 128
}

// IsBranch reports whether the symbolic opcode takes a label operand.
func (op Op) IsBranch() bool {
	return op >= GOTO && op <= IFNONNULL
}

// IsConditional reports whether the branch is conditional (GOTO excluded).
func (op Op) IsConditional() bool {
	return op > GOTO && op <= IFNONNULL
}

// IsResolved reports whether the opcode is a JIT-resolved form.
func (op Op) IsResolved() bool { return op >= rbase }
