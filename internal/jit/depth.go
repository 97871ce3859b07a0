package jit

import (
	"govolve/internal/bytecode"
	"govolve/internal/rt"
)

// stackPass is the last pass of every compile, run on the code the
// interpreter will execute, so inlined bodies and superinstructions count. It
// reads each instruction's pops and pushes off rt.Effect as it walks, bakes
// the instruction's minimum stack need into Ins.Need — so the interpreter's
// underflow guard is a single precomputed compare instead of an opcode switch
// on the hot path; verified code never underflows, but code from a buggy
// pipeline must still fail safely — and returns the deepest operand stack any
// path reaches, by one abstract walk that carries a depth through
// straight-line code and across branches.
//
// In verified code every pc has one depth and is evaluated once. Code that
// reaches a pc at two depths (only hand-built, unverified code can) is
// re-walked from there at the deeper one, so the bound is the maximum over
// all paths; depths are clamped at len(code) — more than any loop-free path
// can push — so a loop that pushes on every turn still terminates the walk.
// Its bound is then too small, which the interpreter survives: pushes append.
// The pass's buffers live on the Compiler and are reused across compiles.
func (c *Compiler) stackPass(code []rt.Ins) int {
	if len(code) == 0 {
		return 0
	}
	limit := int32(len(code))
	seen := scratch(c.seen, len(code)) // 1 + deepest entry depth so far; 0 = unreached
	raise := func(pc int, d int32) bool {
		if pc >= len(code) || seen[pc] > d {
			return false
		}
		seen[pc] = d + 1
		return true
	}
	deepest := int32(0)
	work := append(c.work[:0], 0)
	seen[0] = 1
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		for d := seen[pc] - 1; ; pc++ {
			ins := &code[pc]
			fx := rt.Effect(ins)
			ins.Need = fx.Need
			deepest = max(deepest, d+fx.Peak)
			d = min(max(d+fx.Delta, 0), limit)
			target, falls := successors(ins)
			if target >= 0 && raise(target, d) {
				work = append(work, target)
			}
			if !falls || !raise(pc+1, d) {
				break
			}
		}
	}
	// Code no path reaches still carries its need.
	for pc := range code {
		if seen[pc] == 0 {
			code[pc].Need = rt.Effect(&code[pc]).Need
		}
	}
	c.seen, c.work = seen, work
	return int(deepest)
}

// successors returns where control can go after ins: its branch target (-1
// if it has none) and whether it can fall through. A superinstruction falls
// into its own FPAD slots, which pass the depth on unchanged.
func successors(ins *rt.Ins) (target int, falls bool) {
	switch op := ins.Op; {
	case op == bytecode.RETURN || op == bytecode.TRAP:
		return -1, false
	case op == bytecode.GOTO:
		return int(ins.A), false
	case op == bytecode.FSTOREGOTO:
		return int(ins.C), false
	case op == bytecode.FCONSTCMPBR:
		return int(ins.C), true
	case op == bytecode.FLOADCMPBR || op.IsConditional():
		return int(ins.A), true
	}
	return -1, true
}
