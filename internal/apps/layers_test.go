package apps

import (
	"io"
	"strings"
	"testing"

	"govolve/internal/asm"
	"govolve/internal/bytecode"
	"govolve/internal/classfile"
	"govolve/internal/rt"
	"govolve/internal/verifier"
	"govolve/internal/vm"
	"govolve/internal/vm/vmtest"
)

// The control plane's two text-to-bytecode layers, measured on their real
// input: all 25 releases of the three apps. The gates are counts
// (testing.AllocsPerRun), not timings, so they cannot flake on a busy host;
// the benchmarks print the per-unit costs CHANGES.md quotes and run at
// -benchtime 1x under `make bench-smoke` so they cannot rot.

// releaseSources returns every release's source with the bootstrap classes
// in front (verifier.VerifyProgram resolves names in the program alone) and
// the total number of source lines.
func releaseSources() (srcs []string, lines int) {
	for _, app := range All() {
		for _, ver := range app.Versions {
			src := vm.BootstrapSource + ver.Source
			srcs = append(srcs, src)
			lines += strings.Count(src, "\n") + 1
		}
	}
	return srcs, lines
}

// releasePrograms assembles releaseSources and counts the bytecode methods
// and instructions the verifier will walk.
func releasePrograms(tb testing.TB) (progs []*classfile.Program, methods, ins int) {
	tb.Helper()
	srcs, _ := releaseSources()
	for _, src := range srcs {
		p, err := asm.AssembleProgram("release.jva", src)
		if err != nil {
			tb.Fatal(err)
		}
		progs = append(progs, p)
		for _, c := range p.Classes {
			for _, m := range c.Methods {
				if !m.Native {
					methods++
					ins += len(m.Code)
				}
			}
		}
	}
	return progs, methods, ins
}

func verifyAll(tb testing.TB, progs []*classfile.Program) {
	for _, p := range progs {
		if err := verifier.VerifyProgram(p); err != nil {
			tb.Fatal(err)
		}
	}
}

func assembleAll(tb testing.TB, srcs []string) {
	for _, src := range srcs {
		if _, err := asm.Assemble("release.jva", src); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestVerifyAllocsPerMethod is the tripwire for per-instruction state in the
// verifier: an accepted method may cost its share of one Verifier's scratch
// and nothing per instruction (the per-instruction worklist cost ≈84).
func TestVerifyAllocsPerMethod(t *testing.T) {
	progs, methods, _ := releasePrograms(t)
	perMethod := testing.AllocsPerRun(5, func() { verifyAll(t, progs) }) / float64(methods)
	t.Logf("%.2f allocations per accepted method (%d methods)", perMethod, methods)
	if perMethod > 4 {
		t.Fatalf("verifier makes %.2f allocations per accepted method, want ≤ 4", perMethod)
	}
}

// TestAssembleAllocsPerLine is the tripwire for a per-line field slice or an
// append-grown code array in the assembler (together ≈2.5 per line).
func TestAssembleAllocsPerLine(t *testing.T) {
	srcs, lines := releaseSources()
	perLine := testing.AllocsPerRun(5, func() { assembleAll(t, srcs) }) / float64(lines)
	t.Logf("%.2f allocations per source line (%d lines)", perLine, lines)
	if perLine > 1.0 {
		t.Fatalf("assembler makes %.2f allocations per source line, want ≤ 1.0", perLine)
	}
}

func BenchmarkVerifyAllReleases(b *testing.B) {
	progs, _, ins := releasePrograms(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		verifyAll(b, progs)
	}
	b.StopTimer()
	perIns := float64(b.N) * float64(ins)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perIns, "ns/ins")
	b.ReportMetric(testing.AllocsPerRun(1, func() { verifyAll(b, progs) })/float64(ins), "allocs/ins")
}

func BenchmarkAssembleAllReleases(b *testing.B) {
	srcs, lines := releaseSources()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assembleAll(b, srcs)
	}
	b.StopTimer()
	perLine := float64(b.N) * float64(lines)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perLine, "ns/line")
	b.ReportMetric(testing.AllocsPerRun(1, func() { assembleAll(b, srcs) })/float64(lines), "allocs/line")
}

// loadedEnv resolves names among the classes a registry has loaded.
type loadedEnv struct{ reg *rt.Registry }

func (e loadedEnv) LookupClass(name string) *classfile.Class { return e.reg.LookupDef(name) }

// TestMaxStackMatchesVerifier holds the JIT's operand-stack bound to an oracle
// that shares no code with it, on every method the system really compiles:
// each of the 25 releases with the bootstrap classes it is loaded over, and
// the transformer class of each of the 22 updates loaded the way an update
// installs it (new classes, flattened old versions, then the transformers).
// Base code's MaxStack is the deepest stack the verifier's abstract
// interpretation of the same bytecode reaches, and fusion has no part in it:
// the plain spelling of the same method is bounded alike. Opt code is other
// code (bodies inlined, constants folded) and has no static oracle: each
// release then serves requests with every method recompiled at the opt level
// on its third call, and no frame regrows its operand stack — the bound is at
// least the depth really reached.
func TestMaxStackMatchesVerifier(t *testing.T) {
	methods := 0
	hold := func(what string, v *vm.VM, mode verifier.Mode, only string) {
		t.Helper()
		ver := verifier.New(loadedEnv{v.Reg}, mode)
		for _, cls := range v.Reg.Classes() {
			def := v.Reg.LookupDef(cls.Name)
			if only != "" && cls.Name != only {
				continue
			}
			for _, m := range def.Methods {
				if m.Native {
					continue
				}
				if err := ver.VerifyMethod(def, m); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				want := ver.MaxStack()
				compile := func(level rt.OptLevel, plain bool) *rt.CompiledMethod {
					v.JIT.Plain = plain
					cm, err := v.JIT.Compile(cls.Method(m.Name, m.Sig), level)
					v.JIT.Plain = false
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					return cm
				}
				base, plain, opt := compile(rt.Base, false), compile(rt.Base, true), compile(rt.Opt, false)
				if base.MaxStack != want {
					t.Errorf("%s: %s.%s: base MaxStack %d, the verifier reaches %d", what, cls.Name, m.ID(), base.MaxStack, want)
				}
				if plain.MaxStack != base.MaxStack || plain.MaxLocals != base.MaxLocals {
					t.Errorf("%s: %s.%s: plain code bounded at %d locals, %d operands; base at %d, %d",
						what, cls.Name, m.ID(), plain.MaxLocals, plain.MaxStack, base.MaxLocals, base.MaxStack)
				}
				if opt.MaxLocals < base.MaxLocals {
					t.Errorf("%s: %s.%s: opt code has %d locals, base %d", what, cls.Name, m.ID(), opt.MaxLocals, base.MaxLocals)
				}
				methods++
			}
		}
	}
	newVM := func() *vm.VM {
		v, err := vm.New(vm.Options{HeapWords: 1 << 12, Out: io.Discard})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	releases, transformers := 0, 0
	for _, app := range All() {
		for i, ver := range app.Versions {
			p, err := app.Program(i)
			if err != nil {
				t.Fatal(err)
			}
			v := newVM()
			if _, err := v.Reg.LoadProgram(p); err != nil {
				t.Fatal(err)
			}
			hold(app.Name+" "+ver.Name, v, verifier.Strict, "")
			releases++

			s, err := Launch(app, LaunchOptions{HeapWords: 1 << 18, Version: i})
			if err != nil {
				t.Fatal(err)
			}
			s.VM.JIT.OptThreshold = 3
			check := vmtest.WatchStacks(s.VM)
			for b := 0; b < 4; b++ {
				if _, err := s.DoBatch(); err != nil {
					t.Fatalf("%s %s: %v", app.Name, ver.Name, err)
				}
			}
			if err := check(); err != nil {
				t.Errorf("%s %s: %v", app.Name, ver.Name, err)
			}
			if s.VM.JIT.OptCompiles == 0 {
				t.Errorf("%s %s: nothing reached the opt tier", app.Name, ver.Name)
			}

			if i == app.UpdateCount() {
				continue
			}
			spec, err := app.Spec(i)
			if err != nil {
				t.Fatal(err)
			}
			v = newVM()
			if _, err := v.Reg.LoadProgram(spec.New); err != nil {
				t.Fatal(err)
			}
			for _, flat := range spec.OldFlatDefs {
				if _, err := v.Reg.Load(flat); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := v.Reg.Load(spec.Transformers); err != nil {
				t.Fatal(err)
			}
			hold(app.Name+" "+ver.Name+" transformers", v, verifier.Relaxed, spec.Transformers.Name)
			transformers++
		}
	}
	if releases != 25 || transformers != 22 || methods == 0 {
		t.Fatalf("held %d methods of %d releases and %d transformer classes, want 25 and 22", methods, releases, transformers)
	}
	t.Logf("%d methods", methods)
}

// TestNoRestingPCIsAPad holds the property identity OSR rests on, for every
// method of all 25 releases at both levels: a frame only ever rests at pc 0, at
// a branch target, or at the pc a call or a yield resumes at, and none of those
// is the pad of a superinstruction. So the pc of a parked frame names an
// instruction boundary of the bytecode, the same one in any other base compile
// of it; and running code never reaches a pad, which the interpreter would
// execute as a nop in place of the constituent fusion folded away. The same
// must hold across the levels, since OSRReplace takes an opt frame to base code
// that was fused on its own.
func TestNoRestingPCIsAPad(t *testing.T) {
	compiles, fused, mapped := 0, 0, 0
	for _, app := range All() {
		for i, ver := range app.Versions {
			p, err := app.Program(i)
			if err != nil {
				t.Fatal(err)
			}
			v, err := vm.New(vm.Options{HeapWords: 1 << 12, Out: io.Discard})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := v.Reg.LoadProgram(p); err != nil {
				t.Fatal(err)
			}
			for _, m := range v.Reg.Methods() {
				if m.Def.Native {
					continue
				}
				var base *rt.CompiledMethod
				for _, level := range []rt.OptLevel{rt.Base, rt.Opt} {
					cm, err := v.JIT.Compile(m, level)
					if err != nil {
						t.Fatalf("%s %s: %v", app.Name, ver.Name, err)
					}
					compiles++
					if cm.HoldsSuperinstruction() {
						fused++
					}
					for _, pc := range restingPCs(cm.Code) {
						if pc < len(cm.Code) && cm.Code[pc].Op == bytecode.FPAD {
							t.Errorf("%s %s: %s at %v: resting pc %d is a pad", app.Name, ver.Name, m.FullName(), level, pc)
						}
					}
					if level == rt.Base {
						base = cm
						continue
					}
					// OSROpt takes an opt frame to base code through PCMap: outside
					// inlined regions the two compiles must have paired the same
					// instructions wherever a frame rests — a call site included,
					// where a blocking native parks with its arguments stacked.
					for _, pc := range restingPCs(cm.Code) {
						if pc < len(cm.Code) && cm.PCMap[pc] >= 0 && base.Code[cm.PCMap[pc]].Op == bytecode.FPAD {
							t.Errorf("%s %s: %s: opt resting pc %d maps to base pc %d, a pad", app.Name, ver.Name, m.FullName(), pc, cm.PCMap[pc])
						}
					}
					for pc := range cm.Code {
						if op := cm.Code[pc].Op; isCall(op) && cm.PCMap[pc] >= 0 {
							mapped++
							if at := base.Code[cm.PCMap[pc]].Op; at != op {
								t.Errorf("%s %s: %s: opt call site %d (%v) maps to base pc %d (%v)", app.Name, ver.Name, m.FullName(), pc, op, cm.PCMap[pc], at)
							}
						}
					}
				}
			}
		}
	}
	if fused*2 < compiles {
		t.Fatalf("only %d of %d compiles hold a superinstruction: the property was barely tried", fused, compiles)
	}
	t.Logf("%d compiles, %d with superinstructions, %d opt call sites mapped to base", compiles, fused, mapped)
}

// isCall reports whether op invokes a method: where a blocking native parks.
func isCall(op bytecode.Op) bool {
	switch op {
	case bytecode.INVOKEVIRT_R, bytecode.INVOKESTAT_R, bytecode.INVOKESPEC_R,
		bytecode.INVOKENAT_R, bytecode.FLOADINVOKE:
		return true
	}
	return false
}

// restingPCs lists where control can enter code other than by falling through:
// the entry, every branch target (the fused branch forms keep theirs in another
// operand), and where each call and yield resumes.
func restingPCs(code []rt.Ins) []int {
	pcs := []int{0}
	for pc := range code {
		switch ins := &code[pc]; ins.Op {
		case bytecode.FSTOREGOTO, bytecode.FCONSTCMPBR:
			pcs = append(pcs, int(ins.C))
		case bytecode.FLOADCMPBR:
			pcs = append(pcs, int(ins.A))
		case bytecode.FLOADINVOKE:
			pcs = append(pcs, pc+2)
		case bytecode.INVOKEVIRT_R, bytecode.INVOKESTAT_R, bytecode.INVOKESPEC_R,
			bytecode.INVOKENAT_R, bytecode.YIELD:
			pcs = append(pcs, pc+1)
		default:
			if ins.Op.IsBranch() {
				pcs = append(pcs, int(ins.A))
			}
		}
	}
	return pcs
}
