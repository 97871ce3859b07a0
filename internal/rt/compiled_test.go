package rt

import (
	"testing"

	"govolve/internal/bytecode"
)

// TestEffectTable pins what the interpreter's underflow guard reads off the
// table (the values StackNeed's own switch had before it was derived) and the
// rule for superinstructions: the effect of the constituents in sequence.
func TestEffectTable(t *testing.T) {
	for _, tc := range []struct {
		ins  Ins
		want StackEffect
	}{
		{Ins{Op: bytecode.NOP}, StackEffect{0, 0, 0}},
		{Ins{Op: bytecode.LOAD}, StackEffect{0, 1, 1}},
		{Ins{Op: bytecode.STORE}, StackEffect{1, -1, 0}},
		{Ins{Op: bytecode.DUP}, StackEffect{1, 1, 1}},
		{Ins{Op: bytecode.DUP_X1}, StackEffect{2, 1, 1}},
		{Ins{Op: bytecode.SWAP}, StackEffect{2, 0, 0}},
		{Ins{Op: bytecode.ADD}, StackEffect{2, -1, 0}},
		{Ins{Op: bytecode.NEG}, StackEffect{1, 0, 0}},
		{Ins{Op: bytecode.IFNULL}, StackEffect{1, -1, 0}},
		{Ins{Op: bytecode.IF_ACMPNE}, StackEffect{2, -2, 0}},
		{Ins{Op: bytecode.AGET}, StackEffect{2, -1, 0}},
		{Ins{Op: bytecode.ASET}, StackEffect{3, -3, 0}},
		{Ins{Op: bytecode.GETFIELD_R}, StackEffect{1, 0, 0}},
		{Ins{Op: bytecode.PUTFIELD_R}, StackEffect{2, -2, 0}},
		{Ins{Op: bytecode.PUTSTATIC_R}, StackEffect{1, -1, 0}},
		{Ins{Op: bytecode.NEW_R}, StackEffect{0, 1, 1}},
		{Ins{Op: bytecode.NEWARRAY_R}, StackEffect{1, 0, 0}},
		{Ins{Op: bytecode.CHECKCAST_R}, StackEffect{1, 0, 0}},
		{Ins{Op: bytecode.RETURN}, StackEffect{1, -1, 0}},
		{Ins{Op: bytecode.RETURN, RetVoid: true}, StackEffect{0, 0, 0}},
		{Ins{Op: bytecode.INVOKEVIRT_R, B: 3}, StackEffect{3, -2, 0}},
		{Ins{Op: bytecode.INVOKESTAT_R, B: 0}, StackEffect{0, 1, 1}},
		{Ins{Op: bytecode.INVOKENAT_R, B: 2, RetVoid: true}, StackEffect{2, -2, 0}},
		{Ins{Op: bytecode.ENTERINL_R, B: 2}, StackEffect{2, -2, 0}},
		{Ins{Op: bytecode.LEAVEINL_R}, StackEffect{0, 0, 0}},

		{Ins{Op: bytecode.FPAD}, StackEffect{0, 0, 0}},
		{Ins{Op: bytecode.FCONSTARITH}, StackEffect{1, 0, 1}},
		{Ins{Op: bytecode.FCONSTARITH2}, StackEffect{1, 0, 1}},
		{Ins{Op: bytecode.FLOADLOAD}, StackEffect{0, 2, 2}},
		{Ins{Op: bytecode.FLOADLOADARITH}, StackEffect{0, 1, 2}},
		{Ins{Op: bytecode.FSTORELOAD}, StackEffect{1, 0, 0}},
		{Ins{Op: bytecode.FSTOREGOTO}, StackEffect{1, -1, 0}},
		{Ins{Op: bytecode.FLOADCMPBR, B: int32(bytecode.IFNULL)}, StackEffect{0, 0, 1}},
		{Ins{Op: bytecode.FLOADCMPBR, B: int32(bytecode.IF_ICMPLT)}, StackEffect{1, -1, 1}},
		{Ins{Op: bytecode.FCONSTCMPBR}, StackEffect{1, -1, 1}},
		{Ins{Op: bytecode.FGETGET}, StackEffect{1, 0, 0}},
		{Ins{Op: bytecode.FLOADINVOKE, B: 1}, StackEffect{0, 1, 1}},
		{Ins{Op: bytecode.FLOADINVOKE, B: 3, RetVoid: true}, StackEffect{2, -2, 1}},
	} {
		if got := Effect(&tc.ins); got != tc.want {
			t.Errorf("Effect(%s) = %+v, want %+v", tc.ins.Op, got, tc.want)
		}
		if got := StackNeed(tc.ins); got != tc.want.Need {
			t.Errorf("StackNeed(%s) = %d, want %d", tc.ins.Op, got, tc.want.Need)
		}
	}
}
