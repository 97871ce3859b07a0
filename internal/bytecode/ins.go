package bytecode

import (
	"fmt"
	"strings"
)

// Ins is one symbolic bytecode instruction as it appears in a class file.
// Operand use depends on the opcode:
//
//	A    — integer constant, local index, or branch target (instruction index)
//	Sym  — "Class.member" for field/method ops, or a bare class name
//	Desc — field descriptor or method signature
//	Str  — string literal (LDC) or trap message (TRAP)
type Ins struct {
	Op   Op
	A    int64
	Sym  string
	Desc string
	Str  string
}

// SplitSym splits a "Class.member" symbol at its last dot; a symbol without
// one is a bare class name and has no member part.
func SplitSym(sym string) (class, member string) {
	if dot := strings.LastIndexByte(sym, '.'); dot >= 0 {
		return sym[:dot], sym[dot+1:]
	}
	return sym, ""
}

// SymClass returns the class-name part of a "Class.member" symbol, or the
// whole symbol if it has no member part.
func (i Ins) SymClass() string {
	class, _ := SplitSym(i.Sym)
	return class
}

// SymMember returns the member-name part of a "Class.member" symbol, or ""
// if the symbol is a bare class name.
func (i Ins) SymMember() string {
	_, member := SplitSym(i.Sym)
	return member
}

// String renders the instruction in assembler syntax.
func (i Ins) String() string {
	switch i.Op {
	case CONST, LOAD, STORE:
		return fmt.Sprintf("%s %d", i.Op, i.A)
	case LDC:
		return fmt.Sprintf("%s %q", i.Op, i.Str)
	case TRAP:
		return fmt.Sprintf("%s %q", i.Op, i.Str)
	case NEW, INSTANCEOF, CHECKCAST:
		return fmt.Sprintf("%s %s", i.Op, i.Sym)
	case NEWARRAY:
		return fmt.Sprintf("%s %s", i.Op, i.Desc)
	case GETFIELD, PUTFIELD, GETSTATIC, PUTSTATIC:
		return fmt.Sprintf("%s %s %s", i.Op, i.Sym, i.Desc)
	case INVOKEVIRTUAL, INVOKESTATIC, INVOKESPECIAL:
		return fmt.Sprintf("%s %s%s", i.Op, i.Sym, i.Desc)
	default:
		if i.Op.IsBranch() {
			return fmt.Sprintf("%s @%d", i.Op, i.A)
		}
		return i.Op.String()
	}
}

// Equal reports structural equality of two instructions. UPT uses this to
// decide whether a method body changed between versions.
func (i Ins) Equal(o Ins) bool { return i == o }

// CodeEqual reports whether two instruction sequences are identical.
func CodeEqual(a, b []Ins) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !a[k].Equal(b[k]) {
			return false
		}
	}
	return true
}

// Disassemble renders a code sequence, one instruction per line, with
// instruction indexes. Used by cmd/upt -dump and in test failure output.
func Disassemble(code []Ins) string {
	var b strings.Builder
	for idx, ins := range code {
		fmt.Fprintf(&b, "%4d: %s\n", idx, ins)
	}
	return b.String()
}

// ReferencedClasses returns the set of class names whose layout or method
// table the code depends on: field accesses, virtual/special/static calls,
// allocation, and type tests. UPT uses this to compute the paper's
// category-(2) "indirect" methods — methods whose bytecode is unchanged but
// whose compiled representation bakes in offsets of an updated class.
func ReferencedClasses(code []Ins) map[string]bool {
	refs := make(map[string]bool)
	for _, ins := range code {
		switch ins.Op {
		case NEW, INSTANCEOF, CHECKCAST,
			GETFIELD, PUTFIELD, GETSTATIC, PUTSTATIC,
			INVOKEVIRTUAL, INVOKESTATIC, INVOKESPECIAL:
			refs[ins.SymClass()] = true
		}
	}
	return refs
}
