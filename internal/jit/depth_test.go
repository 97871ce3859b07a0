package jit

import (
	"testing"

	"govolve/internal/bytecode"
	"govolve/internal/classfile"
	"govolve/internal/rt"
)

// TestMaxStackPerTier: the bound is taken from the code each tier runs.
// Fusion never changes it (a superinstruction is charged its constituents'
// depth), folding can lower it, and an inlined body counts on top of what the
// caller holds at the call.
func TestMaxStackPerTier(t *testing.T) {
	reg, c := setup(t)
	for _, tc := range []struct {
		cls, name         string
		sig               classfile.Sig
		base, fused, optd int
	}{
		{"Pair", "sum", "()I", 2, 2, 2},
		{"Caller", "fold", "()I", 2, 2, 1},           // const 3, const 4, add, const 10, mul → const 70
		{"Caller", "addTiny", "(LPair;)I", 1, 1, 2},  // tiny's getfield, const 1, add runs inside
		{"Caller", "dispatch", "(LPair;)I", 1, 1, 1}, // load + invokevirtual → FLOADINVOKE
		{"Caller", "useStatic", "()I", 1, 1, 1},
	} {
		m := method(t, reg, tc.cls, tc.name, tc.sig)
		for level, want := range map[rt.OptLevel]int{rt.Base: tc.base, rt.Fused: tc.fused, rt.Opt: tc.optd} {
			cm, err := c.Compile(m, level)
			if err != nil {
				t.Fatal(err)
			}
			if cm.MaxStack != want {
				t.Errorf("%s.%s at %v: MaxStack = %d, want %d; code:\n%v", tc.cls, tc.name, level, cm.MaxStack, want, cm.Code)
			}
		}
	}
}

// TestMaxStackForgedCode: the walk may be handed code no verifier saw. A pc
// reached at two depths is bounded by the deeper, branch targets outside the
// code are ignored, and a loop that pushes on every turn ends the walk at the
// clamp instead of never.
func TestMaxStackForgedCode(t *testing.T) {
	push, pop := rt.Ins{Op: bytecode.CONST}, rt.Ins{Op: bytecode.POP}
	ret := rt.Ins{Op: bytecode.RETURN, RetVoid: true}
	for _, tc := range []struct {
		name string
		code []rt.Ins
		want int
	}{
		{"empty", nil, 0},
		{"straight", []rt.Ins{push, push, pop, pop, ret}, 2},
		{"join at 0 and 2", []rt.Ins{push, {Op: bytecode.IFEQ, A: 4}, push, push, push, pop, ret}, 3},
		{"join at 1 and 0", []rt.Ins{push, push, {Op: bytecode.IFEQ, A: 5}, pop, {Op: bytecode.NOP}, push, ret}, 2},
		{"underflow", []rt.Ins{pop, pop, push, ret}, 1},
		{"wild targets", []rt.Ins{push, {Op: bytecode.IFEQ, A: 99}, {Op: bytecode.GOTO, A: -3}}, 1},
		{"pushing loop", []rt.Ins{push, {Op: bytecode.GOTO, A: 0}}, 3},
		{"falls off the end", []rt.Ins{push, push}, 2},
	} {
		if got := new(Compiler).maxStack(tc.code); got != tc.want {
			t.Errorf("%s: maxStack = %d, want %d", tc.name, got, tc.want)
		}
	}
}
