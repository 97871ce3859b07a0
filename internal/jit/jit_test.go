package jit

import (
	"testing"

	"govolve/internal/asm"
	"govolve/internal/bytecode"
	"govolve/internal/classfile"
	"govolve/internal/rt"
)

const src = `
class Object {
  method <init>()V {
    return
  }
}
class Pair {
  field a I
  field b LPair;
  static field shared I

  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    return
  }
  method sum()I {
    load 0
    getfield Pair.a I
    load 0
    getfield Pair.b LPair;
    ifnull justA
    load 0
    getfield Pair.b LPair;
    getfield Pair.a I
    add
    return
  justA:
    return
  }
  method tiny()I {
    load 0
    getfield Pair.a I
    const 1
    add
    return
  }
}
class Caller {
  static method addTiny(LPair;)I {
    load 0
    invokespecial Pair.tiny()I
    return
  }
  static method fold()I {
    const 3
    const 4
    add
    const 10
    mul
    return
  }
  static method useStatic()I {
    getstatic Pair.shared I
    return
  }
  static method dispatch(LPair;)I {
    load 0
    invokevirtual Pair.sum()I
    return
  }
}
`

func setup(t *testing.T) (*rt.Registry, *Compiler) {
	t.Helper()
	prog, err := asm.AssembleProgram("jit.jva", src)
	if err != nil {
		t.Fatal(err)
	}
	reg := rt.NewRegistry()
	if _, err := reg.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	return reg, New(reg)
}

func method(t *testing.T, reg *rt.Registry, cls, name string, sig classfile.Sig) *rt.Method {
	t.Helper()
	c := reg.LookupClass(cls)
	if c == nil {
		t.Fatalf("no class %s", cls)
	}
	m := c.Method(name, sig)
	if m == nil {
		t.Fatalf("no method %s.%s%s", cls, name, sig)
	}
	return m
}

func TestBaseCompileResolvesOffsets(t *testing.T) {
	reg, c := setup(t)
	pair := reg.LookupClass("Pair")
	m := method(t, reg, "Pair", "sum", "()I")
	cm, err := c.Compile(m, rt.Base)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Level != rt.Base || len(cm.Code) != len(m.Def.Code) {
		t.Fatalf("base compile not 1:1: %d vs %d", len(cm.Code), len(m.Def.Code))
	}
	// getfield Pair.a resolves to the field's word offset with B=0.
	ins := cm.Code[1]
	if ins.Op != bytecode.GETFIELD_R || int(ins.A) != pair.Field("a").Offset || ins.B != 0 {
		t.Fatalf("getfield a resolved wrong: %+v", ins)
	}
	// getfield Pair.b is a reference: B=1.
	ins = cm.Code[3]
	if ins.Op != bytecode.GETFIELD_R || ins.B != 1 {
		t.Fatalf("getfield b resolved wrong: %+v", ins)
	}
	if !cm.LayoutDeps[pair] {
		t.Fatal("layout dependency on Pair not recorded")
	}
}

func TestStaticResolution(t *testing.T) {
	reg, c := setup(t)
	m := method(t, reg, "Caller", "useStatic", "()I")
	cm, err := c.Compile(m, rt.Base)
	if err != nil {
		t.Fatal(err)
	}
	slot := reg.LookupClass("Pair").StaticField("shared").Slot
	if cm.Code[0].Op != bytecode.GETSTATIC_R || int(cm.Code[0].A) != slot {
		t.Fatalf("getstatic resolved wrong: %+v", cm.Code[0])
	}
}

// TestVirtualResolution: a virtual call resolves to its TIB slot, and the
// load of its receiver fuses with it, in place, carrying the site's inline
// cache. The plain spelling keeps the two instructions and installs no cache.
func TestVirtualResolution(t *testing.T) {
	reg, c := setup(t)
	m := method(t, reg, "Caller", "dispatch", "(LPair;)I")
	slot := reg.LookupClass("Pair").VSlot("sum", "()I")

	cm, err := c.Compile(m, rt.Base)
	if err != nil {
		t.Fatal(err)
	}
	ins := cm.Code[0]
	if ins.Op != bytecode.FLOADINVOKE || int(ins.A) != slot || ins.B != 1 || ins.C != 0 {
		t.Fatalf("load+invokevirtual fused wrong: %+v (want slot %d)", ins, slot)
	}
	if cm.Code[1].Op != bytecode.FPAD || len(cm.Code) != len(m.Def.Code) {
		t.Fatalf("fusion not in place: %v", cm.Code)
	}
	if ins.IC == nil || len(cm.ICSites) != 1 || cm.ICSites[0] != ins.IC {
		t.Fatalf("inline cache not installed at the site: %+v, sites %v", ins, cm.ICSites)
	}

	c.Plain = true
	cm, err = c.Compile(m, rt.Base)
	if err != nil {
		t.Fatal(err)
	}
	ins = cm.Code[1]
	if ins.Op != bytecode.INVOKEVIRT_R || int(ins.A) != slot || ins.B != 1 {
		t.Fatalf("invokevirtual resolved wrong: %+v (want slot %d)", ins, slot)
	}
	if ins.IC != nil || cm.ICSites != nil {
		t.Fatal("plain code carries an inline cache")
	}
}

func TestUnknownSymbolsFail(t *testing.T) {
	reg, c := setup(t)
	bad := classfile.NewClass("Bad", "Object").
		Method("m", "()V").New("Nowhere").Op(bytecode.POP).Ret().Done().
		MustBuild()
	cls, err := reg.Load(bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compile(cls.Method("m", "()V"), rt.Base); err == nil {
		t.Fatal("compile with unknown class succeeded")
	}
}

func TestOptConstantFolding(t *testing.T) {
	reg, c := setup(t)
	m := method(t, reg, "Caller", "fold", "()I")
	cm, err := c.Compile(m, rt.Opt)
	if err != nil {
		t.Fatal(err)
	}
	// const3/const4/add must fold to 7; then 7/const10/mul folds to 70.
	found70 := false
	for _, ins := range cm.Code {
		if ins.Op == bytecode.CONST_R && ins.A == 70 {
			found70 = true
		}
	}
	if !found70 {
		t.Fatalf("folding failed; code:\n%v", cm.Code)
	}
}

func TestOptInlinesSmallDirectCalls(t *testing.T) {
	reg, c := setup(t)
	m := method(t, reg, "Caller", "addTiny", "(LPair;)I")
	cm, err := c.Compile(m, rt.Opt)
	if err != nil {
		t.Fatal(err)
	}
	tiny := method(t, reg, "Pair", "tiny", "()I")
	foundInline := false
	for _, ins := range cm.Code {
		if ins.Op == bytecode.ENTERINL_R && ins.Ref == tiny {
			foundInline = true
		}
		if ins.Op == bytecode.INVOKESPEC_R && ins.Ref == tiny {
			t.Fatal("call site survived inlining")
		}
	}
	if !foundInline {
		t.Fatalf("tiny not inlined; code:\n%v", cm.Code)
	}
	wantInlined := false
	for _, im := range cm.Inlined {
		if im == tiny {
			wantInlined = true
		}
	}
	if !wantInlined {
		t.Fatal("Inlined list does not record tiny")
	}
	// The callee's layout deps are merged into the caller.
	if !cm.LayoutDeps[reg.LookupClass("Pair")] {
		t.Fatal("inlined callee deps not merged")
	}
	// Locals grew for the inlined body.
	if cm.MaxLocals < m.Def.MaxLocals+tiny.Def.MaxLocals {
		t.Fatalf("MaxLocals = %d, want >= %d", cm.MaxLocals, m.Def.MaxLocals+tiny.Def.MaxLocals)
	}
}

func TestInlineRespectsSizeLimit(t *testing.T) {
	reg, c := setup(t)
	c.InlineMaxCode = 2 // tiny has 4 instructions: too big now
	m := method(t, reg, "Caller", "addTiny", "(LPair;)I")
	cm, err := c.Compile(m, rt.Opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, ins := range cm.Code {
		if ins.Op == bytecode.ENTERINL_R {
			t.Fatal("inlined despite size limit")
		}
	}
	_ = cm
}

func TestNativeCallsResolveToNativeInvoke(t *testing.T) {
	reg, c := setup(t)
	nat := classfile.NewClass("Sys", "Object").
		NativeMethod("now", "()I", true).
		MustBuild()
	if _, err := reg.Load(nat); err != nil {
		t.Fatal(err)
	}
	caller := classfile.NewClass("NC", "Object").
		StaticMethod("m", "()I").Static("Sys", "now", "()I").Ret().Done().
		MustBuild()
	cls, err := reg.Load(caller)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := c.Compile(cls.Method("m", "()I"), rt.Base)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Code[0].Op != bytecode.INVOKENAT_R {
		t.Fatalf("native call resolved to %v", cm.Code[0].Op)
	}
	// Natives are never inlined even at opt level.
	cmo, err := c.Compile(cls.Method("m", "()I"), rt.Opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, ins := range cmo.Code {
		if ins.Op == bytecode.ENTERINL_R {
			t.Fatal("native inlined")
		}
	}
}

func TestBranchTargetsRemappedAfterInline(t *testing.T) {
	reg, c := setup(t)
	// A caller with a loop around an inlinable call: branch targets must
	// stay consistent after splicing.
	src := classfile.NewClass("LoopCaller", "Object").
		StaticMethod("run", "(LPair;I)I")
	mb := src.Label("top").
		Load(1).
		Branch(bytecode.IFLE, "done").
		Load(0).
		Special("Pair", "tiny", "()I")
	mb = mb.Op(bytecode.POP).
		Load(1).Const(1).Op(bytecode.SUB).Store(1).
		Branch(bytecode.GOTO, "top").
		Label("done").
		Const(0)
	cls, err := reg.Load(mb.Ret().Done().MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	cm, err := c.Compile(cls.Method("run", "(LPair;I)I"), rt.Opt)
	if err != nil {
		t.Fatal(err)
	}
	for pc, ins := range cm.Code {
		if ins.Op.IsBranch() {
			if ins.A < 0 || ins.A > int64(len(cm.Code)) {
				t.Fatalf("branch at %d targets %d outside code (len %d)", pc, ins.A, len(cm.Code))
			}
		}
	}
}
