package jit

import (
	"testing"

	"govolve/internal/bytecode"
	"govolve/internal/classfile"
	"govolve/internal/rt"
)

// TestMaxStackPerTier: the bound is taken from the code each tier runs.
// Fusion never changes it (a superinstruction is charged its constituents'
// depth), so a base compile has the bound of its plain reference spelling;
// folding can lower it, and an inlined body counts on top of what the caller
// holds at the call.
func TestMaxStackPerTier(t *testing.T) {
	reg, c := setup(t)
	for _, tc := range []struct {
		cls, name  string
		sig        classfile.Sig
		base, optd int
	}{
		{"Pair", "sum", "()I", 2, 2},
		{"Caller", "fold", "()I", 2, 1},           // const 3, const 4, add, const 10, mul → const 70
		{"Caller", "addTiny", "(LPair;)I", 1, 2},  // tiny's getfield, const 1, add runs inside
		{"Caller", "dispatch", "(LPair;)I", 1, 1}, // load + invokevirtual → FLOADINVOKE
		{"Caller", "useStatic", "()I", 1, 1},
	} {
		m := method(t, reg, tc.cls, tc.name, tc.sig)
		for _, row := range []struct {
			plain bool
			level rt.OptLevel
			want  int
		}{{true, rt.Base, tc.base}, {false, rt.Base, tc.base}, {false, rt.Opt, tc.optd}} {
			c.Plain = row.plain
			cm, err := c.Compile(m, row.level)
			if err != nil {
				t.Fatal(err)
			}
			if cm.MaxStack != row.want {
				t.Errorf("%s.%s at %v (plain=%v): MaxStack = %d, want %d; code:\n%v",
					tc.cls, tc.name, row.level, row.plain, cm.MaxStack, row.want, cm.Code)
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
		if got := new(Compiler).stackPass(tc.code); got != tc.want {
			t.Errorf("%s: stackPass = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestFuseForgedTargets: like the depth pass, fusion and folding may be handed
// branches that point outside the code; they mark no target and fuse the rest.
func TestFuseForgedTargets(t *testing.T) {
	code := []rt.Ins{
		{Op: bytecode.LOAD}, {Op: bytecode.LOAD, A: 1},
		{Op: bytecode.IFEQ, A: 99}, {Op: bytecode.GOTO, A: -3},
	}
	c := new(Compiler)
	c.foldConstants(code)
	c.fuse(code)
	if code[0].Op != bytecode.FLOADLOAD || code[1].Op != bytecode.FPAD {
		t.Fatalf("pair before wild branches not fused: %v", code)
	}
}
