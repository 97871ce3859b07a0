package verifier

import (
	"testing"

	"govolve/internal/bytecode"
	"govolve/internal/classfile"
)

// decodeFuzzMethod turns raw fuzz bytes into a symbolic method body for a
// static method T.f(I)I. Every byte pair picks an opcode and an operand;
// symbolic operands are drawn from a tiny fixed universe (class T, field
// T.x, static T.sx, callees T.s/T.v, Object.<init>) so that resolution
// failures don't mask stack and flow bugs.
func decodeFuzzMethod(data []byte) []bytecode.Ins {
	var code []bytecode.Ins
	for i := 0; i+1 < len(data); i += 2 {
		op := bytecode.Op(data[i])
		if !op.IsResolved() {
			op = bytecode.Op(data[i] % (uint8(bytecode.YIELD) + 1))
		}
		// Resolved and fused opcodes (0x80+) pass through raw: they are
		// JIT-internal and must never verify in class-file code — the
		// fuzz oracle below fails if the verifier accepts one.
		arg := int64(data[i+1])
		ins := bytecode.Ins{Op: op}
		switch op {
		case bytecode.CONST:
			ins.A = arg - 128
		case bytecode.LOAD, bytecode.STORE:
			ins.A = arg % 8
		case bytecode.LDC:
			ins.Str = "s"
		case bytecode.TRAP:
			ins.Str = "boom"
		case bytecode.NEW, bytecode.INSTANCEOF, bytecode.CHECKCAST:
			ins.Sym = "T"
		case bytecode.NEWARRAY:
			if arg%2 == 0 {
				ins.Desc = "I"
			} else {
				ins.Desc = "LT;"
			}
		case bytecode.GETFIELD, bytecode.PUTFIELD:
			ins.Sym, ins.Desc = "T.x", "I"
		case bytecode.GETSTATIC, bytecode.PUTSTATIC:
			ins.Sym, ins.Desc = "T.sx", "I"
		case bytecode.INVOKESTATIC:
			ins.Sym, ins.Desc = "T.s", "(I)I"
		case bytecode.INVOKEVIRTUAL:
			ins.Sym, ins.Desc = "T.v", "(I)I"
		case bytecode.INVOKESPECIAL:
			ins.Sym, ins.Desc = "Object.<init>", "()V"
		default:
			if op.IsBranch() {
				// Branch targets may be anywhere, including out of range —
				// the verifier must reject those, not panic.
				ins.A = arg % int64(len(data)+2)
			}
		}
		code = append(code, ins)
	}
	return code
}

// fuzzEnv builds the fixed program around the decoded method.
func fuzzEnv(code []bytecode.Ins) (*classfile.Program, error) {
	object := &classfile.Class{Name: "Object", Methods: []*classfile.Method{
		{Name: "<init>", Sig: "()V", Code: []bytecode.Ins{{Op: bytecode.RETURN}}, MaxLocals: 1},
	}}
	str := &classfile.Class{Name: "String", Super: "Object"}
	target := &classfile.Class{
		Name:  "T",
		Super: "Object",
		Fields: []classfile.Field{
			{Name: "x", Desc: "I"},
			{Name: "sx", Desc: "I", Static: true},
		},
		Methods: []*classfile.Method{
			{Name: "s", Sig: "(I)I", Static: true,
				Code: []bytecode.Ins{{Op: bytecode.CONST, A: 0}, {Op: bytecode.RETURN}}, MaxLocals: 1},
			{Name: "v", Sig: "(I)I",
				Code: []bytecode.Ins{{Op: bytecode.CONST, A: 0}, {Op: bytecode.RETURN}}, MaxLocals: 2},
			{Name: "f", Sig: "(I)I", Static: true, Code: code, MaxLocals: 8},
		},
	}
	return classfile.NewProgram(object, str, target)
}

// stackEffect gives (pops, pushes) for the ops decodeFuzzMethod can emit,
// under its fixed operand universe. RETURN is handled by the caller.
func stackEffect(ins bytecode.Ins) (pops, pushes int) {
	switch ins.Op {
	case bytecode.NOP, bytecode.YIELD, bytecode.TRAP:
		return 0, 0
	case bytecode.CONST, bytecode.NULL, bytecode.LDC, bytecode.LOAD:
		return 0, 1
	case bytecode.STORE, bytecode.POP:
		return 1, 0
	case bytecode.DUP:
		return 1, 2
	case bytecode.DUP_X1:
		return 2, 3
	case bytecode.SWAP:
		return 2, 2
	case bytecode.ADD, bytecode.SUB, bytecode.MUL, bytecode.DIV, bytecode.REM,
		bytecode.AND, bytecode.OR, bytecode.XOR, bytecode.SHL, bytecode.SHR:
		return 2, 1
	case bytecode.NEG:
		return 1, 1
	case bytecode.NEW:
		return 0, 1
	case bytecode.GETFIELD:
		return 1, 1
	case bytecode.PUTFIELD:
		return 2, 0
	case bytecode.GETSTATIC:
		return 0, 1
	case bytecode.PUTSTATIC:
		return 1, 0
	case bytecode.INSTANCEOF, bytecode.CHECKCAST, bytecode.NEWARRAY, bytecode.ARRAYLEN:
		return 1, 1
	case bytecode.AGET:
		return 2, 1
	case bytecode.ASET:
		return 3, 0
	case bytecode.INVOKESTATIC:
		return 1, 1 // T.s(I)I
	case bytecode.INVOKEVIRTUAL:
		return 2, 1 // receiver + arg, T.v(I)I
	case bytecode.INVOKESPECIAL:
		return 1, 0 // Object.<init>()V
	}
	return 0, 0
}

// FuzzVerifier feeds adversarial bytecode to the verifier. Properties: the
// verifier never panics; on any code, branching included, it gives the
// reference model's verdict and, on reject, the reference model's error; and
// — for straight-line code, where depth is a simple linear fold — it never
// accepts a method that underflows the operand stack or falls off the end
// of the code.
func FuzzVerifier(f *testing.F) {
	f.Add([]byte{})
	// load 0; return — minimal valid body.
	f.Add([]byte{byte(bytecode.LOAD), 0, byte(bytecode.RETURN), 0})
	// add on an empty stack: classic underflow.
	f.Add([]byte{byte(bytecode.ADD), 0, byte(bytecode.RETURN), 0})
	// pop with nothing pushed.
	f.Add([]byte{byte(bytecode.POP), 0})
	// const; const; add; return — valid arithmetic.
	f.Add([]byte{byte(bytecode.CONST), 1, byte(bytecode.CONST), 2,
		byte(bytecode.ADD), 0, byte(bytecode.RETURN), 0})
	// branch out of range.
	f.Add([]byte{byte(bytecode.GOTO), 200})
	// getfield on an int (type confusion).
	f.Add([]byte{byte(bytecode.CONST), 7, byte(bytecode.GETFIELD), 0})
	// new T; dup; invokespecial; return path exercising ref types.
	f.Add([]byte{byte(bytecode.NEW), 0, byte(bytecode.DUP), 0,
		byte(bytecode.INVOKESPECIAL), 0, byte(bytecode.GETFIELD), 0,
		byte(bytecode.RETURN), 0})
	// JIT-internal opcodes smuggled into class-file code: every fused
	// superinstruction and resolved form must be rejected, never verified
	// and never panicked on.
	f.Add([]byte{byte(bytecode.FPAD), 0})
	f.Add([]byte{byte(bytecode.FCONSTARITH), 3, byte(bytecode.RETURN), 0})
	f.Add([]byte{byte(bytecode.CONST), 1, byte(bytecode.FCONSTCMPBR), 0})
	f.Add([]byte{byte(bytecode.FLOADINVOKE), 1, byte(bytecode.FGETGET), 2})
	f.Add([]byte{byte(bytecode.FLOADLOADARITH), 0, byte(bytecode.FCONSTARITH2), 9})
	f.Add([]byte{byte(bytecode.GETFIELD_R), 0, byte(bytecode.RETURN), 0})
	// Joins, for the differential half of the oracle. A loop whose head
	// widens local 1 from int to unset (the back edge carries a T), read
	// after the loop: rejected only on the head's second visit.
	f.Add([]byte{byte(bytecode.CONST), 128, byte(bytecode.STORE), 1,
		byte(bytecode.LOAD), 0, byte(bytecode.IFEQ), 7,
		byte(bytecode.NEW), 0, byte(bytecode.STORE), 1, byte(bytecode.GOTO), 2,
		byte(bytecode.LOAD), 1, byte(bytecode.RETURN), 0})
	// Stack depth 0 on the branch, 1 on the fall-through, at the same join.
	f.Add([]byte{byte(bytecode.LOAD), 0, byte(bytecode.IFEQ), 3,
		byte(bytecode.CONST), 129, byte(bytecode.LOAD), 0, byte(bytecode.RETURN), 0})
	// A backward branch into the middle of what was straight-line code: pc 1
	// is a leader only because of the ifne at pc 3.
	f.Add([]byte{byte(bytecode.NOP), 0, byte(bytecode.NOP), 0,
		byte(bytecode.LOAD), 0, byte(bytecode.IFNE), 1,
		byte(bytecode.CONST), 128, byte(bytecode.RETURN), 0})
	// An aget site reached first with a null receiver (fall-through), then
	// with an int array: the one order-dependent verdict, pinned to the
	// reference's (DESIGN.md §16).
	f.Add([]byte{byte(bytecode.LOAD), 0, byte(bytecode.IFEQ), 4,
		byte(bytecode.NULL), 0, byte(bytecode.GOTO), 6,
		byte(bytecode.CONST), 129, byte(bytecode.NEWARRAY), 0,
		byte(bytecode.CONST), 128, byte(bytecode.AGET), 0, byte(bytecode.POP), 0,
		byte(bytecode.CONST), 128, byte(bytecode.RETURN), 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		code := decodeFuzzMethod(data)
		prog, err := fuzzEnv(code)
		if err != nil {
			t.Fatalf("building fixed env: %v", err)
		}
		// Must not panic; only T can fail, Object and String are fixed.
		verr, diff := VerifyBoth(ProgramEnv{prog}, Strict, prog.Classes["T"])
		if diff != "" {
			t.Fatalf("%s\n%s", diff, bytecode.Disassemble(code))
		}
		if verr != nil {
			return
		}
		// Accepted. For straight-line code reachability and the stack
		// depth at each pc are exact; replay it and reject any accepted
		// underflow or reachable JIT-internal opcode (resolved forms and
		// fused superinstructions; code after a return or trap is never
		// verified, so what sits there is not the verifier's to reject).
		depth := 0
		for pc, ins := range code {
			if ins.Op.IsResolved() {
				t.Fatalf("verifier accepted JIT-internal opcode %s at pc %d: %v", ins.Op, pc, code)
			}
			if ins.Op.IsBranch() {
				return // beyond here only the reference model judges
			}
			if ins.Op == bytecode.RETURN {
				if depth < 1 {
					t.Fatalf("verifier accepted return with empty stack at pc %d: %v", pc, code)
				}
				return
			}
			if ins.Op == bytecode.TRAP {
				return // terminal
			}
			pops, pushes := stackEffect(ins)
			if depth < pops {
				t.Fatalf("verifier accepted stack underflow at pc %d (%s, depth %d): %v",
					pc, ins.Op, depth, code)
			}
			depth += pushes - pops
		}
		t.Fatalf("verifier accepted code that falls off the end: %v", code)
	})
}
