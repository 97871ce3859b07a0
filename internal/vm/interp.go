package vm

import (
	"fmt"

	"govolve/internal/bytecode"
	"govolve/internal/obs"
	"govolve/internal/rt"
)

// fconstArith applies one const+arith constituent of an FCONSTARITH2 chain:
// a OP b with b a compile-time constant the fusion pass proved nonzero for
// DIV/REM, so no trap path exists.
func fconstArith(a, b int64, op bytecode.Op) int64 {
	switch op {
	case bytecode.ADD:
		return a + b
	case bytecode.SUB:
		return a - b
	case bytecode.MUL:
		return a * b
	case bytecode.DIV:
		return a / b
	case bytecode.REM:
		return a % b
	case bytecode.AND:
		return a & b
	case bytecode.OR:
		return a | b
	case bytecode.XOR:
		return a ^ b
	case bytecode.SHL:
		return a << uint(b&63)
	case bytecode.SHR:
		return a >> uint(b&63)
	}
	return 0
}

// kill terminates a thread with a runtime error. It is a method (not a
// per-interpret closure) so the steady-state dispatch loop carries no
// closure setup at all.
func (v *VM) kill(t *Thread, err error) {
	t.State = Dead
	t.Err = err
	v.tracef("thread %d killed: %v", t.ID, err)
}

// touch is the lazy read barrier's slow path, the one body of its six sites:
// each tests the armed barrier inline (residue installed, OnTouch, the
// object's pair word pending) and calls touch on a hit. It transforms the
// object at a, or kills t naming the site ("getfield", "putfield",
// "invokevirt <method>"), and reports whether t may go on.
func (v *VM) touch(t *Thread, f *Frame, a rt.Addr, site string) bool {
	if err := v.Residue.Transform(a); err != nil {
		v.kill(t, fmt.Errorf("vm: lazy transform (%s) @%d in %s: %w", site, a, f.Method().FullName(), err))
		return false
	}
	return true
}

// interpret executes instructions of thread t until the yield budget is
// exhausted at a yield point, the thread blocks, dies, or parks on a return
// barrier. Yield points are method entry, method exit, taken loop backedges,
// and explicit YIELDs — Jikes RVM's yield point placement.
//
// Hot-path design (see DESIGN.md "Steady-state performance"): the current
// frame is cached across iterations and refreshed only when a call or
// return changes it; instructions are addressed by pointer (no per-dispatch
// struct copy); the underflow guard compares against the stack need the JIT
// precomputed at resolve time (rt.Ins.Need); and operand-stack traffic is
// direct slice arithmetic on the frame — no closures, no interface calls,
// zero heap allocations per executed instruction.
func (v *VM) interpret(t *Thread, budget int) {
	if len(t.Frames) == 0 {
		t.State = Dead
		return
	}
	f := t.Frames[len(t.Frames)-1]

	for {
		if f.PC < 0 || f.PC >= len(f.CM.Code) {
			v.kill(t, fmt.Errorf("vm: pc %d out of range in %s", f.PC, f.Method().FullName()))
			return
		}
		ins := &f.CM.Code[f.PC]
		t.Steps++
		v.TotalSteps++

		// Underflow guard. Verified code cannot underflow, but compiled
		// code could be produced by a buggy pipeline; fail safely. The
		// need was precomputed by the JIT (rt.ResolveStackNeeds).
		if len(f.Stack) < int(ins.Need) {
			v.kill(t, fmt.Errorf("vm: operand stack underflow at %s pc=%d", f.Method().FullName(), f.PC))
			return
		}

		switch ins.Op {
		case bytecode.NOP, bytecode.LEAVEINL_R:
			// nothing

		case bytecode.CONST, bytecode.CONST_R:
			f.Stack = append(f.Stack, rt.IntVal(ins.A))
		case bytecode.NULL:
			f.Stack = append(f.Stack, rt.NullVal)
		case bytecode.LDC_R:
			root := &v.Reg.InternRoots[ins.A]
			if root.Bits == 0 {
				a, err := v.NewString(v.Reg.InternLits[ins.A])
				if err != nil {
					v.kill(t, err)
					return
				}
				*root = rt.RefVal(a)
			}
			f.Stack = append(f.Stack, *root)

		case bytecode.LOAD:
			f.Stack = append(f.Stack, f.Locals[ins.A])
		case bytecode.STORE:
			n := len(f.Stack) - 1
			f.Locals[ins.A] = f.Stack[n]
			f.Stack = f.Stack[:n]

		case bytecode.POP:
			f.Stack = f.Stack[:len(f.Stack)-1]
		case bytecode.DUP:
			f.Stack = append(f.Stack, f.Stack[len(f.Stack)-1])
		case bytecode.DUP_X1:
			n := len(f.Stack)
			a, b := f.Stack[n-1], f.Stack[n-2]
			f.Stack[n-2] = a
			f.Stack[n-1] = b
			f.Stack = append(f.Stack, a)
		case bytecode.SWAP:
			n := len(f.Stack)
			f.Stack[n-1], f.Stack[n-2] = f.Stack[n-2], f.Stack[n-1]

		case bytecode.ADD, bytecode.SUB, bytecode.MUL, bytecode.DIV, bytecode.REM,
			bytecode.AND, bytecode.OR, bytecode.XOR, bytecode.SHL, bytecode.SHR:
			n := len(f.Stack)
			b := f.Stack[n-1].Int()
			a := f.Stack[n-2].Int()
			var r int64
			switch ins.Op {
			case bytecode.ADD:
				r = a + b
			case bytecode.SUB:
				r = a - b
			case bytecode.MUL:
				r = a * b
			case bytecode.DIV:
				if b == 0 {
					v.kill(t, fmt.Errorf("vm: division by zero in %s", f.Method().FullName()))
					return
				}
				r = a / b
			case bytecode.REM:
				if b == 0 {
					v.kill(t, fmt.Errorf("vm: division by zero in %s", f.Method().FullName()))
					return
				}
				r = a % b
			case bytecode.AND:
				r = a & b
			case bytecode.OR:
				r = a | b
			case bytecode.XOR:
				r = a ^ b
			case bytecode.SHL:
				r = a << uint(b&63)
			case bytecode.SHR:
				r = a >> uint(b&63)
			}
			f.Stack[n-2] = rt.IntVal(r)
			f.Stack = f.Stack[:n-1]
		case bytecode.NEG:
			n := len(f.Stack)
			f.Stack[n-1] = rt.IntVal(-f.Stack[n-1].Int())

		case bytecode.GOTO:
			if v.branch(f, int(ins.A), &budget) {
				return
			}
			continue
		case bytecode.IFEQ, bytecode.IFNE, bytecode.IFLT, bytecode.IFLE,
			bytecode.IFGT, bytecode.IFGE:
			n := len(f.Stack) - 1
			a := f.Stack[n].Int()
			f.Stack = f.Stack[:n]
			var taken bool
			switch ins.Op {
			case bytecode.IFEQ:
				taken = a == 0
			case bytecode.IFNE:
				taken = a != 0
			case bytecode.IFLT:
				taken = a < 0
			case bytecode.IFLE:
				taken = a <= 0
			case bytecode.IFGT:
				taken = a > 0
			case bytecode.IFGE:
				taken = a >= 0
			}
			if taken {
				if v.branch(f, int(ins.A), &budget) {
					return
				}
				continue
			}
		case bytecode.IF_ICMPEQ, bytecode.IF_ICMPNE, bytecode.IF_ICMPLT,
			bytecode.IF_ICMPLE, bytecode.IF_ICMPGT, bytecode.IF_ICMPGE:
			n := len(f.Stack)
			b := f.Stack[n-1].Int()
			a := f.Stack[n-2].Int()
			f.Stack = f.Stack[:n-2]
			var taken bool
			switch ins.Op {
			case bytecode.IF_ICMPEQ:
				taken = a == b
			case bytecode.IF_ICMPNE:
				taken = a != b
			case bytecode.IF_ICMPLT:
				taken = a < b
			case bytecode.IF_ICMPLE:
				taken = a <= b
			case bytecode.IF_ICMPGT:
				taken = a > b
			case bytecode.IF_ICMPGE:
				taken = a >= b
			}
			if taken {
				if v.branch(f, int(ins.A), &budget) {
					return
				}
				continue
			}
		case bytecode.IF_ACMPEQ, bytecode.IF_ACMPNE:
			n := len(f.Stack)
			b := f.Stack[n-1].Ref()
			a := f.Stack[n-2].Ref()
			f.Stack = f.Stack[:n-2]
			taken := a == b
			if ins.Op == bytecode.IF_ACMPNE {
				taken = !taken
			}
			if taken {
				if v.branch(f, int(ins.A), &budget) {
					return
				}
				continue
			}
		case bytecode.IFNULL, bytecode.IFNONNULL:
			n := len(f.Stack) - 1
			a := f.Stack[n].Ref()
			f.Stack = f.Stack[:n]
			taken := a == rt.Null
			if ins.Op == bytecode.IFNONNULL {
				taken = !taken
			}
			if taken {
				if v.branch(f, int(ins.A), &budget) {
					return
				}
				continue
			}

		case bytecode.NEW_R:
			a, err := v.allocObject(ins.Cls)
			if err != nil {
				v.kill(t, err)
				return
			}
			f.Stack = append(f.Stack, rt.RefVal(a))
		case bytecode.NEWARRAY_R:
			n := len(f.Stack) - 1
			cnt := f.Stack[n].Int()
			f.Stack = f.Stack[:n]
			a, err := v.allocArray(ins.B == 1, int(cnt))
			if err != nil {
				v.kill(t, err)
				return
			}
			f.Stack = append(f.Stack, rt.RefVal(a))
		case bytecode.ARRAYLEN:
			n := len(f.Stack) - 1
			a := f.Stack[n].Ref()
			if a == rt.Null {
				v.kill(t, fmt.Errorf("vm: null dereference (arraylen) in %s", f.Method().FullName()))
				return
			}
			f.Stack[n] = rt.IntVal(int64(v.Heap.ArrayLen(a)))
		case bytecode.AGET:
			n := len(f.Stack)
			i := f.Stack[n-1].Int()
			a := f.Stack[n-2].Ref()
			if a == rt.Null {
				v.kill(t, fmt.Errorf("vm: null dereference (aget) in %s", f.Method().FullName()))
				return
			}
			if i < 0 || int(i) >= v.Heap.ArrayLen(a) {
				v.kill(t, fmt.Errorf("vm: index %d out of bounds (len %d) in %s", i, v.Heap.ArrayLen(a), f.Method().FullName()))
				return
			}
			f.Stack[n-2] = v.Heap.Elem(a, int(i))
			f.Stack = f.Stack[:n-1]
		case bytecode.ASET:
			n := len(f.Stack)
			val := f.Stack[n-1]
			i := f.Stack[n-2].Int()
			a := f.Stack[n-3].Ref()
			f.Stack = f.Stack[:n-3]
			if a == rt.Null {
				v.kill(t, fmt.Errorf("vm: null dereference (aset) in %s", f.Method().FullName()))
				return
			}
			if i < 0 || int(i) >= v.Heap.ArrayLen(a) {
				v.kill(t, fmt.Errorf("vm: index %d out of bounds (len %d) in %s", i, v.Heap.ArrayLen(a), f.Method().FullName()))
				return
			}
			v.Heap.SetElem(a, int(i), val)

		case bytecode.GETFIELD_R:
			n := len(f.Stack) - 1
			a := f.Stack[n].Ref()
			if a == rt.Null {
				v.kill(t, fmt.Errorf("vm: null dereference (getfield) in %s pc=%d", f.Method().FullName(), f.PC))
				return
			}
			if r := v.Residue; r != nil && r.OnTouch && v.Heap.Pending(a) && !v.touch(t, f, a, "getfield") {
				return
			}
			f.Stack[n] = v.Heap.FieldValue(a, int(ins.A), ins.B == 1)
		case bytecode.PUTFIELD_R:
			n := len(f.Stack)
			val := f.Stack[n-1]
			a := f.Stack[n-2].Ref()
			f.Stack = f.Stack[:n-2]
			if a == rt.Null {
				v.kill(t, fmt.Errorf("vm: null dereference (putfield) in %s pc=%d", f.Method().FullName(), f.PC))
				return
			}
			if r := v.Residue; r != nil && r.OnTouch && v.Heap.Pending(a) && !v.touch(t, f, a, "putfield") {
				return
			}
			v.Heap.SetFieldValue(a, int(ins.A), val)
		case bytecode.GETSTATIC_R:
			f.Stack = append(f.Stack, v.Reg.JTOC[ins.A])
		case bytecode.PUTSTATIC_R:
			n := len(f.Stack) - 1
			val := f.Stack[n]
			f.Stack = f.Stack[:n]
			v.Reg.JTOC[ins.A] = rt.Value{Bits: val.Bits, IsRef: ins.B == 1}

		case bytecode.INSTOF_R:
			n := len(f.Stack) - 1
			a := f.Stack[n].Ref()
			res := false
			if a != rt.Null && !v.Heap.IsArray(a) {
				cls := v.Reg.ClassByID(v.Heap.ClassID(a))
				res = cls != nil && cls.IsSubclassOf(ins.Cls)
			} else if a != rt.Null && v.Heap.IsArray(a) {
				res = ins.Cls.Name == "Object"
			}
			f.Stack[n] = rt.BoolVal(res)
		case bytecode.CHECKCAST_R:
			a := f.Stack[len(f.Stack)-1].Ref()
			if a != rt.Null {
				ok := false
				if v.Heap.IsArray(a) {
					ok = ins.Cls.Name == "Object"
				} else {
					cls := v.Reg.ClassByID(v.Heap.ClassID(a))
					ok = cls != nil && cls.IsSubclassOf(ins.Cls)
				}
				if !ok {
					v.kill(t, fmt.Errorf("vm: checkcast to %s failed in %s", ins.Cls.Name, f.Method().FullName()))
					return
				}
			}

		case bytecode.INVOKEVIRT_R:
			nargs := int(ins.B)
			recv := f.Stack[len(f.Stack)-nargs]
			if recv.Ref() == rt.Null {
				v.kill(t, fmt.Errorf("vm: null receiver calling %s in %s", ins.Ref.FullName(), f.Method().FullName()))
				return
			}
			if v.Heap.IsArray(recv.Ref()) {
				v.kill(t, fmt.Errorf("vm: virtual call on array in %s", f.Method().FullName()))
				return
			}
			// Dispatch itself would be correct without the barrier (the shell
			// already carries the new class id), but the callee is about to
			// read stale fields — transform the receiver before entry.
			if r := v.Residue; r != nil && r.OnTouch && v.Heap.Pending(recv.Ref()) && !v.touch(t, f, recv.Ref(), "invokevirt "+ins.Ref.FullName()) {
				return
			}
			// Inline-cache fast path (only the compiler's plain reference
			// spelling carries no caches): a monomorphic hit is one class-id
			// compare, the polymorphic stub a short linear scan, and only a
			// miss pays the registry + TIB lookup. Entries key on the
			// receiver's class id — ids are monotonic, so an updated class's
			// instances (which carry fresh ids) can never hit a stale entry,
			// and the DSU install phase flushes every cache anyway.
			target, ok := v.vdispatch(ins, recv.Ref())
			if !ok {
				v.kill(t, fmt.Errorf("vm: bad dispatch (class id %d, slot %d) in %s",
					v.Heap.ClassID(recv.Ref()), ins.A, f.Method().FullName()))
				return
			}
			if stop := v.invoke(t, f, target, nargs, &budget); stop {
				return
			}
			f = t.Frames[len(t.Frames)-1]
			continue
		case bytecode.INVOKESTAT_R, bytecode.INVOKESPEC_R:
			nargs := int(ins.B)
			if ins.Op == bytecode.INVOKESPEC_R {
				recv := f.Stack[len(f.Stack)-nargs]
				if recv.Ref() == rt.Null {
					v.kill(t, fmt.Errorf("vm: null receiver calling %s in %s", ins.Ref.FullName(), f.Method().FullName()))
					return
				}
			}
			// A class update replaces rt.Method objects; stale compiled
			// code is invalidated, so ins.Ref is always current here.
			if stop := v.invoke(t, f, ins.Ref, nargs, &budget); stop {
				return
			}
			f = t.Frames[len(t.Frames)-1]
			continue
		case bytecode.INVOKENAT_R:
			// Blocking natives park the thread with the args still on
			// the stack and the pc unchanged: the call retries on wake,
			// stopped at an instruction boundary (a VM safe point).
			if stop := v.invoke(t, f, ins.Ref, int(ins.B), &budget); stop {
				return
			}
			f = t.Frames[len(t.Frames)-1]
			continue

		case bytecode.ENTERINL_R:
			nargs := int(ins.B)
			base := int(ins.A)
			n := len(f.Stack)
			copy(f.Locals[base:base+nargs], f.Stack[n-nargs:])
			f.Stack = f.Stack[:n-nargs]

		case bytecode.RETURN:
			var ret rt.Value
			if !ins.RetVoid {
				n := len(f.Stack) - 1
				ret = f.Stack[n]
				f.Stack = f.Stack[:n]
			}
			popped := t.pop()
			if len(t.Frames) > 0 {
				f = t.Frames[len(t.Frames)-1]
				if !ins.RetVoid {
					f.Stack = append(f.Stack, ret)
				}
			}
			if popped.Barrier && v.updatePending {
				// Return barrier fired: park the thread and let the
				// DSU engine retry at the next scheduling boundary.
				v.tracef("return barrier fired in %s (thread %d)", popped.Method().FullName(), t.ID)
				v.Rec.Emit(obs.KBarrierFired, obs.LaneThread(t.ID), 0, popped.Method().FullName())
				if len(t.Frames) == 0 {
					t.State = Dead
				} else {
					t.State = UpdateWait
				}
				return
			}
			if len(t.Frames) == 0 {
				t.State = Dead
				return
			}
			// Method-exit yield point.
			budget--
			if budget <= 0 || v.yieldFlag {
				return
			}
			continue

		case bytecode.TRAP:
			v.kill(t, fmt.Errorf("vm: trap in %s: %s", f.Method().FullName(), ins.Str))
			return
		case bytecode.YIELD:
			f.PC++
			budget--
			if budget <= 0 || v.yieldFlag {
				return
			}
			continue

		// --- fused superinstructions ---------------------------------------
		//
		// Each executes both constituents of a fused pair in one dispatch
		// and skips the FPAD slot (pc += 2). Logical instruction accounting
		// stays identical to unfused execution: the loop top counted the
		// first constituent; each handler counts the second exactly when it
		// begins, so a kill mid-pair leaves the same step totals as plain
		// code — what keeps storm reports byte-identical with it.
		// Yield semantics are unchanged too: only backedges and calls touch
		// the budget, and fused backedge tests compare against the second
		// constituent's pc (f.PC+1), exactly where the branch used to live.

		case bytecode.FPAD:
			// Padding slot of a fused pair. Never branched to (the fusion
			// pass refuses branch-target seconds) and never reached
			// linearly (handlers skip it); behaves as a nop defensively.

		case bytecode.FCONSTARITH:
			t.Steps++
			v.TotalSteps++
			n := len(f.Stack) - 1
			a := f.Stack[n].Int()
			b := ins.A
			var r int64
			switch bytecode.Op(ins.C) {
			case bytecode.ADD:
				r = a + b
			case bytecode.SUB:
				r = a - b
			case bytecode.MUL:
				r = a * b
			case bytecode.DIV:
				r = a / b // b != 0: the fusion pass refuses zero divisors
			case bytecode.REM:
				r = a % b
			case bytecode.AND:
				r = a & b
			case bytecode.OR:
				r = a | b
			case bytecode.XOR:
				r = a ^ b
			case bytecode.SHL:
				r = a << uint(b&63)
			case bytecode.SHR:
				r = a >> uint(b&63)
			}
			f.Stack[n] = rt.IntVal(r)
			f.PC += 2
			continue

		case bytecode.FLOADLOAD:
			t.Steps++
			v.TotalSteps++
			f.Stack = append(f.Stack, f.Locals[ins.A], f.Locals[ins.C])
			f.PC += 2
			continue

		case bytecode.FLOADLOADARITH:
			// load A; load C; arith B — three constituents, one dispatch.
			// No constituent can trap (DIV/REM never chain), so the extra
			// two steps are counted up front.
			t.Steps += 2
			v.TotalSteps += 2
			a := f.Locals[ins.A].Int()
			b := f.Locals[ins.C].Int()
			var r int64
			switch bytecode.Op(ins.B) {
			case bytecode.ADD:
				r = a + b
			case bytecode.SUB:
				r = a - b
			case bytecode.MUL:
				r = a * b
			case bytecode.AND:
				r = a & b
			case bytecode.OR:
				r = a | b
			case bytecode.XOR:
				r = a ^ b
			case bytecode.SHL:
				r = a << uint(b&63)
			case bytecode.SHR:
				r = a >> uint(b&63)
			}
			f.Stack = append(f.Stack, rt.IntVal(r))
			f.PC += 3
			continue

		case bytecode.FCONSTARITH2:
			// const A, arith lo(B); const C, arith hi(B) — two chained
			// const+arith pairs rewriting the stack top in place. Divisors
			// were proven nonzero at fusion time, so nothing can trap.
			t.Steps += 3
			v.TotalSteps += 3
			n := len(f.Stack) - 1
			a := f.Stack[n].Int()
			r := fconstArith(a, ins.A, bytecode.Op(ins.B&0xff))
			r = fconstArith(r, int64(ins.C), bytecode.Op(ins.B>>8))
			f.Stack[n] = rt.IntVal(r)
			f.PC += 4
			continue

		case bytecode.FSTORELOAD:
			t.Steps++
			v.TotalSteps++
			n := len(f.Stack) - 1
			f.Locals[ins.A] = f.Stack[n]
			f.Stack[n] = f.Locals[ins.C]
			f.PC += 2
			continue

		case bytecode.FSTOREGOTO:
			t.Steps++
			v.TotalSteps++
			n := len(f.Stack) - 1
			f.Locals[ins.A] = f.Stack[n]
			f.Stack = f.Stack[:n]
			target := int(ins.C)
			backedge := target <= f.PC+1
			f.PC = target
			if backedge {
				budget--
				if budget <= 0 || v.yieldFlag {
					return
				}
			}
			continue

		case bytecode.FLOADCMPBR:
			t.Steps++
			v.TotalSteps++
			cond := bytecode.Op(ins.B)
			loaded := f.Locals[ins.C]
			var taken bool
			switch cond {
			case bytecode.IFEQ:
				taken = loaded.Int() == 0
			case bytecode.IFNE:
				taken = loaded.Int() != 0
			case bytecode.IFLT:
				taken = loaded.Int() < 0
			case bytecode.IFLE:
				taken = loaded.Int() <= 0
			case bytecode.IFGT:
				taken = loaded.Int() > 0
			case bytecode.IFGE:
				taken = loaded.Int() >= 0
			case bytecode.IFNULL:
				taken = loaded.Ref() == rt.Null
			case bytecode.IFNONNULL:
				taken = loaded.Ref() != rt.Null
			case bytecode.IF_ACMPEQ, bytecode.IF_ACMPNE:
				n := len(f.Stack) - 1
				taken = f.Stack[n].Ref() == loaded.Ref()
				f.Stack = f.Stack[:n]
				if cond == bytecode.IF_ACMPNE {
					taken = !taken
				}
			default: // IF_ICMPEQ..IF_ICMPGE: stack value vs loaded local
				n := len(f.Stack) - 1
				a := f.Stack[n].Int()
				b := loaded.Int()
				f.Stack = f.Stack[:n]
				switch cond {
				case bytecode.IF_ICMPEQ:
					taken = a == b
				case bytecode.IF_ICMPNE:
					taken = a != b
				case bytecode.IF_ICMPLT:
					taken = a < b
				case bytecode.IF_ICMPLE:
					taken = a <= b
				case bytecode.IF_ICMPGT:
					taken = a > b
				case bytecode.IF_ICMPGE:
					taken = a >= b
				}
			}
			if taken {
				target := int(ins.A)
				backedge := target <= f.PC+1
				f.PC = target
				if backedge {
					budget--
					if budget <= 0 || v.yieldFlag {
						return
					}
				}
				continue
			}
			f.PC += 2
			continue

		case bytecode.FCONSTCMPBR:
			t.Steps++
			v.TotalSteps++
			n := len(f.Stack) - 1
			a := f.Stack[n].Int()
			b := ins.A
			f.Stack = f.Stack[:n]
			var taken bool
			switch bytecode.Op(ins.B) {
			case bytecode.IF_ICMPEQ:
				taken = a == b
			case bytecode.IF_ICMPNE:
				taken = a != b
			case bytecode.IF_ICMPLT:
				taken = a < b
			case bytecode.IF_ICMPLE:
				taken = a <= b
			case bytecode.IF_ICMPGT:
				taken = a > b
			case bytecode.IF_ICMPGE:
				taken = a >= b
			}
			if taken {
				target := int(ins.C)
				backedge := target <= f.PC+1
				f.PC = target
				if backedge {
					budget--
					if budget <= 0 || v.yieldFlag {
						return
					}
				}
				continue
			}
			f.PC += 2
			continue

		case bytecode.FGETGET:
			n := len(f.Stack) - 1
			a := f.Stack[n].Ref()
			if a == rt.Null {
				v.kill(t, fmt.Errorf("vm: null dereference (getfield) in %s pc=%d", f.Method().FullName(), f.PC))
				return
			}
			if r := v.Residue; r != nil && r.OnTouch && v.Heap.Pending(a) && !v.touch(t, f, a, "getfield") {
				return
			}
			mid := v.Heap.FieldValue(a, int(ins.A), true).Ref()
			// Second constituent begins here — counted only now so a kill
			// on the first getfield leaves base-identical step totals.
			t.Steps++
			v.TotalSteps++
			if mid == rt.Null {
				v.kill(t, fmt.Errorf("vm: null dereference (getfield) in %s pc=%d", f.Method().FullName(), f.PC))
				return
			}
			if r := v.Residue; r != nil && r.OnTouch && v.Heap.Pending(mid) && !v.touch(t, f, mid, "getfield") {
				return
			}
			f.Stack[n] = v.Heap.FieldValue(mid, int(ins.C), ins.B == 1)
			f.PC += 2
			continue

		case bytecode.FLOADINVOKE:
			f.Stack = append(f.Stack, f.Locals[ins.C])
			// Second constituent (the invoke) begins here.
			t.Steps++
			v.TotalSteps++
			nargs := int(ins.B)
			recv := f.Stack[len(f.Stack)-nargs]
			if recv.Ref() == rt.Null {
				v.kill(t, fmt.Errorf("vm: null receiver calling %s in %s", ins.Ref.FullName(), f.Method().FullName()))
				return
			}
			if v.Heap.IsArray(recv.Ref()) {
				v.kill(t, fmt.Errorf("vm: virtual call on array in %s", f.Method().FullName()))
				return
			}
			if r := v.Residue; r != nil && r.OnTouch && v.Heap.Pending(recv.Ref()) && !v.touch(t, f, recv.Ref(), "invokevirt "+ins.Ref.FullName()) {
				return
			}
			target, ok := v.vdispatch(ins, recv.Ref())
			if !ok {
				v.kill(t, fmt.Errorf("vm: bad dispatch (class id %d, slot %d) in %s",
					v.Heap.ClassID(recv.Ref()), ins.A, f.Method().FullName()))
				return
			}
			if target.Def.Native {
				// A virtual dispatch can land on a native override. invoke's
				// blocking-native protocol retries at an unchanged pc with
				// the args still stacked — for the fused form the retry
				// re-runs the load too, so the pushed local must come back
				// off first.
				n := len(f.Stack)
				if stop := v.invoke(t, f, target, nargs, &budget); stop {
					if t.State == Blocked {
						f.Stack = f.Stack[:n-1]
					}
					return
				}
				f.PC++ // skip the FPAD: invoke's native path stepped to it
				f = t.Frames[len(t.Frames)-1]
				continue
			}
			f.PC++ // the callee returns past the FPAD slot
			if stop := v.invoke(t, f, target, nargs, &budget); stop {
				return
			}
			f = t.Frames[len(t.Frames)-1]
			continue

		default:
			v.kill(t, fmt.Errorf("vm: cannot execute opcode %s in %s (unresolved code?)", ins.Op, f.Method().FullName()))
			return
		}
		f.PC++
	}
}

// branch moves the pc; taken backedges are yield points. It reports whether
// the interpreter should return to the scheduler.
func (v *VM) branch(f *Frame, target int, budget *int) bool {
	backedge := target <= f.PC
	f.PC = target
	if backedge {
		*budget--
		if *budget <= 0 || v.yieldFlag {
			return true
		}
	}
	return false
}

// invoke pushes an activation of target consuming nargs stacked arguments.
// A virtual dispatch may land on a native method; those execute inline. It
// reports whether the interpreter should return to the scheduler (entry
// yield point, block, or error).
func (v *VM) invoke(t *Thread, f *Frame, target *rt.Method, nargs int, budget *int) bool {
	// The binding is cached on the method (rt.Method.Native), so a native call
	// is told by one load; only a method's first native call, and every
	// bytecode call, go on to read the declaration.
	b, _ := target.Native.(*nativeBinding)
	if b == nil && target.Def.Native {
		if b = v.bindNative(target); b == nil {
			v.kill(t, fmt.Errorf("vm: unbound native %s", target.FullName()))
			return true
		}
	}
	if b != nil {
		ret, block, err := b.fn(v, t, f.Stack[len(f.Stack)-nargs:])
		if err != nil {
			v.kill(t, fmt.Errorf("vm: native %s: %w", target.FullName(), err))
			return true
		}
		if block != nil {
			t.State = Blocked
			t.WakeWhen = block
			return true // pc unchanged; the call retries on wake
		}
		if t.State == Dead {
			return true // the native terminated the thread (System.exit)
		}
		f.Stack = f.Stack[:len(f.Stack)-nargs]
		if !b.void {
			f.Stack = append(f.Stack, ret)
		}
		f.PC++
		return false
	}
	f.PC++ // the call completes; the callee returns past it
	cm, err := v.resolveCompiled(target)
	if err != nil {
		v.kill(t, err)
		return true
	}
	nf := v.newFrame(cm, cm.MaxLocals, cm.MaxStack)
	copy(nf.Locals, f.Stack[len(f.Stack)-nargs:])
	f.Stack = f.Stack[:len(f.Stack)-nargs]
	t.push(nf)
	// Method-entry yield point.
	*budget--
	return *budget <= 0 || v.yieldFlag
}

// vdispatch resolves a virtual call site against the receiver's dynamic
// class — through the site's inline cache when the code carries one (all
// but plain code does), falling back to the registry + TIB lookup. A miss at
// a cached site installs the resolution: the first fills the monomorphic
// slot, later ones grow the polymorphic stub until the cache is full
// (megamorphic sites pay the TIB lookup every time). Hit/miss counters are
// plain VM fields, published to the metrics registry off the hot path.
func (v *VM) vdispatch(ins *rt.Ins, recv rt.Addr) (*rt.Method, bool) {
	cid := v.Heap.ClassID(recv)
	ic := ins.IC
	if ic != nil && ic.N > 0 {
		if ic.Entries[0].ClassID == cid {
			v.icHits++
			return ic.Entries[0].Target, true
		}
		for i := 1; i < ic.N; i++ {
			if ic.Entries[i].ClassID == cid {
				v.icHits++
				return ic.Entries[i].Target, true
			}
		}
	}
	cls := v.Reg.ClassByID(cid)
	if cls == nil || int(ins.A) >= len(cls.TIB) {
		return nil, false
	}
	target := cls.TIB[ins.A]
	if ic != nil {
		v.icMisses++
		if ic.N < len(ic.Entries) {
			ic.Entries[ic.N] = rt.ICEntry{ClassID: cid, Target: target}
			ic.N++
		}
	}
	return target, true
}
