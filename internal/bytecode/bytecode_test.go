package bytecode

import (
	"fmt"
	"testing"
)

func TestOpNamesRoundTrip(t *testing.T) {
	symbolic := 0
	for i := 0; i < 256; i++ {
		op := Op(i)
		name := op.String()
		got, ok := OpNamed(name)
		switch {
		case op.IsResolved() && ok:
			t.Errorf("resolved op %q exposed to the assembler", name)
		case op.IsResolved() || name == fmt.Sprintf("op(%d)", i):
		case !ok || got != op:
			t.Errorf("op %q resolves to %v, %t", name, got, ok)
		default:
			symbolic++
		}
	}
	if symbolic != int(YIELD)+1 {
		t.Errorf("%d mnemonics resolve, want %d", symbolic, int(YIELD)+1)
	}
	for op := NOP; op <= YIELD; op++ {
		probes := 1
		for h := mnemonicHash(op.String()); mnemonics[h] != uint8(op)+1; h = (h + 1) % uint(len(mnemonics)) {
			probes++
		}
		if probes > 2 {
			t.Errorf("%v takes %d probes, want ≤ 2", op, probes)
		}
	}
	for _, name := range []string{"getfield_r", "", "x", "fpad", "Add", "addd", "op(1)"} {
		if op, ok := OpNamed(name); ok {
			t.Errorf("%q resolves to %v", name, op)
		}
	}
}

func TestBranchPredicates(t *testing.T) {
	if !GOTO.IsBranch() || GOTO.IsConditional() {
		t.Error("GOTO classification wrong")
	}
	if !IFEQ.IsBranch() || !IFEQ.IsConditional() {
		t.Error("IFEQ classification wrong")
	}
	if RETURN.IsBranch() || ADD.IsBranch() {
		t.Error("non-branches classified as branches")
	}
	if !GETFIELD_R.IsResolved() || GETFIELD.IsResolved() {
		t.Error("IsResolved wrong")
	}
}

func TestSymSplitting(t *testing.T) {
	i := Ins{Sym: "User.name"}
	if i.SymClass() != "User" || i.SymMember() != "name" {
		t.Errorf("split = %q, %q", i.SymClass(), i.SymMember())
	}
	bare := Ins{Sym: "User"}
	if bare.SymClass() != "User" || bare.SymMember() != "" {
		t.Errorf("bare split = %q, %q", bare.SymClass(), bare.SymMember())
	}
}

func TestCodeEqual(t *testing.T) {
	a := []Ins{{Op: CONST, A: 1}, {Op: RETURN}}
	b := []Ins{{Op: CONST, A: 1}, {Op: RETURN}}
	c := []Ins{{Op: CONST, A: 2}, {Op: RETURN}}
	if !CodeEqual(a, b) || CodeEqual(a, c) || CodeEqual(a, a[:1]) {
		t.Error("CodeEqual wrong")
	}
}

func TestReferencedClasses(t *testing.T) {
	code := []Ins{
		{Op: NEW, Sym: "A"},
		{Op: GETFIELD, Sym: "B.x"},
		{Op: INVOKEVIRTUAL, Sym: "C.m"},
		{Op: CONST, A: 1},
		{Op: GETSTATIC, Sym: "D.s"},
		{Op: INSTANCEOF, Sym: "E"},
		{Op: LDC, Str: "F.g"},
	}
	var got []string
	for i := range code {
		got = append(got, code[i].ClassRef())
	}
	if want := "[A B C  D E ]"; fmt.Sprint(got) != want {
		t.Errorf("class refs = %v, want %s", got, want)
	}
}
