package apps

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"testing"

	"govolve/internal/asm"
	"govolve/internal/bytecode"
	"govolve/internal/classfile"
	"govolve/internal/rt"
	"govolve/internal/upt"
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

// TestAssembleAllocsPerLine is the tripwire for per-line and per-member
// allocations in the assembler: a field slice per line or an append-grown
// code array (together ≈2.5 per line), a code array and a Method per method,
// and per-class member maps in Validate (together ≈0.3). A line costs ≈0.16:
// each class its Class, its fields, its methods and its code, one array each.
func TestAssembleAllocsPerLine(t *testing.T) {
	srcs, lines := releaseSources()
	perLine := testing.AllocsPerRun(5, func() { assembleAll(t, srcs) }) / float64(lines)
	t.Logf("%.2f allocations per source line (%d lines)", perLine, lines)
	if perLine > 0.25 {
		t.Fatalf("assembler makes %.2f allocations per source line, want ≤ 0.25", perLine)
	}
}

// prepareAllocBound is TestPrepareAllocsPerSpec's bound: a spec costs ≈63
// allocations.
const prepareAllocBound = 80

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

// releaseSpecs assembles, once, the two programs of each of the 22 updates
// and the target's custom transformer class, so that prepareAll times upt.Prepare
// alone the way apps.App.Spec runs it.
type releaseSpec struct {
	tag      string
	old, new *classfile.Program
	custom   *classfile.Class
}

func releaseSpecs(tb testing.TB) (specs []releaseSpec) {
	tb.Helper()
	for _, app := range All() {
		for i := 0; i < app.UpdateCount(); i++ {
			old, err := app.Program(i)
			if err != nil {
				tb.Fatal(err)
			}
			next, err := app.Program(i + 1)
			if err != nil {
				tb.Fatal(err)
			}
			rs := releaseSpec{tag: app.Versions[i].Tag, old: old, new: next}
			if src := app.Versions[i+1].Transformers; src != "" {
				classes, err := asm.Assemble("transformers.jva", src)
				if err != nil {
					tb.Fatal(err)
				}
				rs.custom = classes[0]
			}
			specs = append(specs, rs)
		}
	}
	return specs
}

func prepareAll(tb testing.TB, specs []releaseSpec) {
	for _, rs := range specs {
		s, err := upt.Prepare(rs.tag, rs.old, rs.new)
		if err != nil {
			tb.Fatal(err)
		}
		if rs.custom != nil {
			for _, m := range rs.custom.Methods {
				s.OverrideTransformer(m)
			}
		}
	}
}

// TestPrepareAllocsPerSpec is the tripwire for per-member keys and per-class
// maps in the UPT: one fmt.Sprintf per compared field, name+signature maps
// per diffed class, a referenced-class set per scanned method and a sort on
// every Program.Names call cost ≈264 allocations per spec.
func TestPrepareAllocsPerSpec(t *testing.T) {
	specs := releaseSpecs(t)
	perSpec := testing.AllocsPerRun(5, func() { prepareAll(t, specs) }) / float64(len(specs))
	t.Logf("%.1f allocations per spec (%d specs)", perSpec, len(specs))
	if perSpec > prepareAllocBound {
		t.Fatalf("upt.Prepare makes %.1f allocations per spec, want ≤ %d", perSpec, prepareAllocBound)
	}
}

// BenchmarkPrepareAllReleases prepares all 22 updates of the three apps from
// programs assembled beforehand, custom transformers applied.
func BenchmarkPrepareAllReleases(b *testing.B) {
	specs := releaseSpecs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prepareAll(b, specs)
	}
	b.StopTimer()
	perSpec := float64(b.N) * float64(len(specs))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perSpec, "ns/spec")
	b.ReportMetric(testing.AllocsPerRun(1, func() { prepareAll(b, specs) })/float64(len(specs)), "allocs/spec")
}

// printClasses renders classes as asm.Print does and adds what Print leaves
// out: each method's MaxLocals.
func printClasses(w io.Writer, classes ...*classfile.Class) {
	io.WriteString(w, asm.Print(classes))
	for _, c := range classes {
		for _, m := range c.Methods {
			fmt.Fprintf(w, "maxlocals %s.%s %d\n", c.Name, m.ID(), m.MaxLocals)
		}
	}
}

// checkDigest compares the SHA-256 of what render wrote against the one
// recorded in file.
func checkDigest(t *testing.T, file, what string, render func(io.Writer)) {
	t.Helper()
	sum := sha256.New()
	render(sum)
	got := fmt.Sprintf("%x", sum.Sum(nil))
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if w := strings.TrimSpace(string(want)); got != w {
		t.Fatalf("%s renders to digest %s, recorded %s", what, got, w)
	}
	t.Logf("%s: digest %s", what, got)
}

// TestAssembledProgramIdentity holds the assembler's output to a digest
// recorded before it was restructured for speed: the bootstrap source, every
// release of the three apps and every custom transformer source, each
// assembled and printed back with its methods' local bounds.
func TestAssembledProgramIdentity(t *testing.T) {
	files := 0
	checkDigest(t, "testdata/asm_identity.sha256", "assembled programs", func(w io.Writer) {
		assemble := func(file, src string) {
			classes, err := asm.Assemble(file, src)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(w, "== %s\n", file)
			printClasses(w, classes...)
			files++
		}
		assemble("bootstrap.jva", vm.BootstrapSource)
		for _, app := range All() {
			for _, ver := range app.Versions {
				assemble(app.Name+"-"+ver.Name+".jva", ver.Source)
				if ver.Transformers != "" {
					assemble(app.Name+"-"+ver.Name+"-transformers.jva", ver.Transformers)
				}
			}
		}
	})
	if files < 26 {
		t.Fatalf("assembled %d files, want the bootstrap, 25 releases and their transformers", files)
	}
}

// TestSpecIdentity holds the UPT's output to a digest recorded before it was
// restructured for speed: each of the 22 specs as apps.App.Spec prepares it,
// rendered field by field — per-class diffs, the class, body and indirect
// sets, added and deleted classes, the flattened old definitions, the
// transformer class, each class update's moves, the verdict, and the
// yield-point maps InferActiveUpdates derives from it.
func TestSpecIdentity(t *testing.T) {
	specs := 0
	checkDigest(t, "testdata/spec_identity.sha256", "update specs", func(w io.Writer) {
		for _, app := range All() {
			for i := 0; i < app.UpdateCount(); i++ {
				s, err := app.Spec(i)
				if err != nil {
					t.Fatal(err)
				}
				renderSpec(w, s)
				specs++
			}
		}
	})
	if specs != 22 {
		t.Fatalf("rendered %d specs, want 22", specs)
	}
}

func renderSpec(w io.Writer, s *upt.Spec) {
	fmt.Fprintf(w, "== spec %s\n", s.OldTag)
	diffs := make([]string, 0, len(s.Diffs))
	for name := range s.Diffs {
		diffs = append(diffs, name)
	}
	slices.Sort(diffs)
	for _, name := range diffs {
		d := s.Diffs[name]
		fmt.Fprintf(w, "diff %s class=%t fields+%q -%q ~%q methods+%v -%v ~%v body=%v super=%t\n",
			d.Name, d.IsClassUpdate(), d.FieldsAdded, d.FieldsDeleted, d.FieldsChanged,
			d.MethodsAdded, d.MethodsDeleted, d.MethodsSigChanged, d.MethodsBodyChanged, d.SuperChanged)
	}
	fmt.Fprintf(w, "added %q\ndeleted %q\ndirect %q\nclass %q\nbody %v\nindirect %v\nblacklist %v\n",
		s.AddedClasses, s.DeletedClasses, s.DirectClassUpdates, s.ClassUpdates,
		s.MethodBodyUpdates, s.IndirectMethods, s.Blacklist)
	flat := make([]string, 0, len(s.OldFlatDefs))
	for name := range s.OldFlatDefs {
		flat = append(flat, name)
	}
	slices.Sort(flat)
	for _, name := range flat {
		printClasses(w, s.OldFlatDefs[name])
	}
	printClasses(w, s.Transformers)
	for _, name := range s.ClassUpdates {
		om, ook := s.ObjectMoves(name)
		cm, cok := s.ClassMoves(name)
		fmt.Fprintf(w, "moves %s object=%t%v class=%t%v\n", name, ook, om, cok, cm)
	}
	verdict, prepared := s.Verdict()
	fmt.Fprintf(w, "verdict %v prepared=%t\n", verdict, prepared)
	unmapped := s.InferActiveUpdates()
	active := make([]upt.MethodRef, 0, len(s.ActiveUpdates))
	for ref := range s.ActiveUpdates {
		active = append(active, ref)
	}
	slices.SortFunc(active, func(a, b upt.MethodRef) int { return strings.Compare(a.String(), b.String()) })
	for _, ref := range active {
		m := s.ActiveUpdates[ref]
		fmt.Fprintf(w, "active %v pc=%v locals=%v\n", ref, m.PC, m.Locals)
	}
	fmt.Fprintf(w, "unmapped %v\n", unmapped)
}

// TestCompileAllocsPerMethod is the tripwire for per-site and per-callee
// allocations in the JIT. A base compile costs the CompiledMethod, its code,
// its inline caches if it has any and its dependency list if it names more
// than two classes: 2.51 per method (4.46 when member keys, the dependency
// map and a pointer per cache were allocated). An opt compile adds its pc-map
// and inlined list and nothing per inlined callee: 3.93 (18.9 when each
// callee was resolved into a CompiledMethod of its own and the spliced code
// grew by append).
func TestCompileAllocsPerMethod(t *testing.T) {
	vms, methods := releaseCompilers(t)
	for _, lv := range []struct {
		level rt.OptLevel
		bound float64
	}{{rt.Base, 3}, {rt.Opt, 5}} {
		compileAll(t, vms, lv.level, nil) // warm the compilers' scratch
		perMethod := testing.AllocsPerRun(5, func() { compileAll(t, vms, lv.level, nil) }) / float64(methods)
		t.Logf("%v: %.2f allocations per method (%d methods)", lv.level, perMethod, methods)
		if perMethod > lv.bound {
			t.Errorf("%v compile makes %.2f allocations per method, want ≤ %v", lv.level, perMethod, lv.bound)
		}
	}
}

// BenchmarkCompileAllReleases compiles every method of all 25 releases, each
// against its own release's registry, at one level per sub-benchmark.
func BenchmarkCompileAllReleases(b *testing.B) {
	vms, methods := releaseCompilers(b)
	for _, level := range []rt.OptLevel{rt.Base, rt.Opt} {
		b.Run(level.String(), func(b *testing.B) {
			compileAll(b, vms, level, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				compileAll(b, vms, level, nil)
			}
			b.StopTimer()
			perMethod := float64(b.N) * float64(methods)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perMethod, "ns/method")
			b.ReportMetric(testing.AllocsPerRun(1, func() { compileAll(b, vms, level, nil) })/float64(methods), "allocs/method")
		})
	}
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

// releaseCompilers loads each of the 25 releases over the bootstrap classes
// into a VM of its own and returns the VMs with the number of methods the JIT
// can compile in them (every non-native method of the registry).
func releaseCompilers(tb testing.TB) (vms []*vm.VM, methods int) {
	tb.Helper()
	for _, app := range All() {
		for i := range app.Versions {
			p, err := app.Program(i)
			if err != nil {
				tb.Fatal(err)
			}
			v, err := vm.New(vm.Options{HeapWords: 1 << 12, Out: io.Discard})
			if err != nil {
				tb.Fatal(err)
			}
			if _, err := v.Reg.LoadProgram(p); err != nil {
				tb.Fatal(err)
			}
			for _, m := range v.Reg.Methods() {
				if !m.Def.Native {
					methods++
				}
			}
			vms = append(vms, v)
		}
	}
	return vms, methods
}

// compileAll compiles every non-native method of each VM's registry at level,
// each compile with the VM's own compiler, and hands each result to use.
func compileAll(tb testing.TB, vms []*vm.VM, level rt.OptLevel, use func(*rt.CompiledMethod)) {
	for _, v := range vms {
		for _, m := range v.Reg.Methods() {
			if m.Def.Native {
				continue
			}
			cm, err := v.JIT.Compile(m, level)
			if err != nil {
				tb.Fatal(err)
			}
			if use != nil {
				use(cm)
			}
		}
	}
}

// renderCompiled writes everything a compile produces that the interpreter,
// the DSU engine or a count can see: per instruction every rt.Ins field (the
// classes and methods it names by name, its inline cache as present or
// absent), per method its bounds, level, pc-map, inlined callees and layout
// dependencies (sorted by name).
func renderCompiled(w io.Writer, cm *rt.CompiledMethod) {
	deps := make([]string, 0, len(cm.LayoutDeps))
	for _, dep := range cm.LayoutDeps {
		deps = append(deps, dep.Name)
	}
	slices.Sort(deps)
	inlined := make([]string, len(cm.Inlined))
	for i, m := range cm.Inlined {
		inlined[i] = m.FullName()
	}
	fmt.Fprintf(w, "%s %v stack=%d locals=%d pcmap=%v inlined=%v deps=%v ics=%d\n",
		cm.Method.FullName(), cm.Level, cm.MaxStack, cm.MaxLocals, cm.PCMap, inlined, deps, len(cm.ICSites))
	for pc := range cm.Code {
		ins := &cm.Code[pc]
		cls, ref := "-", "-"
		if ins.Cls != nil {
			cls = ins.Cls.Name
		}
		if ins.Ref != nil {
			ref = ins.Ref.FullName()
		}
		fmt.Fprintf(w, "  %d %v A=%d B=%d C=%d ic=%t cls=%s ref=%s str=%q void=%t need=%d\n",
			pc, ins.Op, ins.A, ins.B, ins.C, ins.IC != nil, cls, ref, ins.Str, ins.RetVoid, ins.Need)
	}
}

// jitIdentityDigest is the SHA-256 of renderCompiled over every compile
// TestCompiledCodeIdentity makes, recorded before the JIT's resolution,
// inline-cache and inlining passes were restructured for speed.
const jitIdentityDigest = "testdata/jit_identity.sha256"

// TestCompiledCodeIdentity holds the JIT's output to a recorded digest: every
// method of all 25 releases compiled at base and then at opt, rendered field by
// field. A change to how the compiler works that changes what it emits — an
// instruction, a bound, a pc-map entry, a dependency — fails here. Set
// JIT_IDENTITY_DUMP to a file name to write the rendering there and compare.
func TestCompiledCodeIdentity(t *testing.T) {
	vms, methods := releaseCompilers(t)
	sum := sha256.New()
	var out io.Writer = sum
	if name := os.Getenv("JIT_IDENTITY_DUMP"); name != "" {
		f, err := os.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		out = io.MultiWriter(sum, f)
	}
	compiles := 0
	for _, v := range vms {
		for _, m := range v.Reg.Methods() {
			if m.Def.Native {
				continue
			}
			for _, level := range []rt.OptLevel{rt.Base, rt.Opt} {
				cm, err := v.JIT.Compile(m, level)
				if err != nil {
					t.Fatal(err)
				}
				renderCompiled(out, cm)
				compiles++
			}
		}
	}
	if compiles != 2*methods {
		t.Fatalf("%d compiles of %d methods", compiles, methods)
	}
	got := fmt.Sprintf("%x", sum.Sum(nil))
	want, err := os.ReadFile(jitIdentityDigest)
	if err != nil {
		t.Fatal(err)
	}
	if w := strings.TrimSpace(string(want)); got != w {
		t.Fatalf("compiled code of %d compiles renders to digest %s, recorded %s", compiles, got, w)
	}
	t.Logf("%d compiles of %d methods, digest %s", compiles, methods, got)
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
