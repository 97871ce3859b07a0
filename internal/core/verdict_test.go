package core_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"govolve/internal/apps"
	"govolve/internal/classfile"
	"govolve/internal/core"
	"govolve/internal/rt"
	"govolve/internal/storm"
	"govolve/internal/upt"
	"govolve/internal/verifier"
	"govolve/internal/vm"
)

// registryEnv is the environment RequestUpdate verified a new program in
// before the verdict moved into upt.Prepare: the spec's new classes, then
// the flattened old versions, deleted classes gone, the transformer class,
// and then whatever the live VM has loaded. It is kept as the reference the
// prepared verdict is held to.
type registryEnv struct {
	reg     *rt.Registry
	spec    *upt.Spec
	deleted map[string]bool
}

func (u registryEnv) LookupClass(name string) *classfile.Class {
	if def, ok := u.spec.New.Classes[name]; ok {
		return def
	}
	if def, ok := u.spec.OldFlatDefs[name]; ok {
		return def
	}
	if u.deleted[name] {
		return nil
	}
	if name == upt.TransformersClassName {
		return u.spec.Transformers
	}
	return u.reg.LookupDef(name)
}

// referenceVerdicts verifies spec's new program (strict) and transformer
// class (relaxed) against a live VM's registry, the way the request did.
func referenceVerdicts(reg *rt.Registry, spec *upt.Spec) (strict, relaxed error) {
	env := registryEnv{reg, spec, make(map[string]bool)}
	for _, name := range spec.DeletedClasses {
		env.deleted[name] = true
	}
	ver := verifier.New(env, verifier.Strict)
	for _, def := range spec.New.Sorted() {
		if strict = def.Validate(); strict != nil {
			break
		}
		if strict = ver.VerifyClass(def); strict != nil {
			break
		}
	}
	return strict, verifier.New(env, verifier.Relaxed).VerifyClass(spec.Transformers)
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkVerdict holds the verdict spec carries, and the transformer class's
// verdict in the spec's own environment, to the reference against a VM that
// holds the old version. It returns the prepared verdict.
func checkVerdict(t *testing.T, what string, reg *rt.Registry, spec *upt.Spec) error {
	t.Helper()
	wantStrict, wantRelaxed := referenceVerdicts(reg, spec)
	got, prepared := spec.Verdict()
	if !prepared {
		t.Fatalf("%s: upt.Prepare made a spec without a verdict", what)
	}
	if errText(got) != errText(wantStrict) {
		t.Errorf("%s: prepared verdict %q, registry verdict %q", what, errText(got), errText(wantStrict))
	}
	gotRelaxed := verifier.New(spec, verifier.Relaxed).VerifyClass(spec.Transformers)
	if errText(gotRelaxed) != errText(wantRelaxed) {
		t.Errorf("%s: transformers %q in the spec's environment, %q in the registry's", what, errText(gotRelaxed), errText(wantRelaxed))
	}
	return got
}

// TestPreparedVerdictMatchesRegistry: the verdict upt.Prepare records
// without a VM is the one the request used to reach against the live VM,
// error text included — on the 22 updates of the three apps' histories, on
// every spec of three 40-update storms, and on hand-written rejects.
func TestPreparedVerdictMatchesRegistry(t *testing.T) {
	updates := 0
	for _, app := range apps.All() {
		for i := 0; i < app.UpdateCount(); i++ {
			s, err := apps.Launch(app, apps.LaunchOptions{Version: i})
			if err != nil {
				t.Fatal(err)
			}
			spec, err := app.Spec(i)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%s %s→%s", app.Name, app.Versions[i].Name, app.Versions[i+1].Name)
			if err := checkVerdict(t, what, s.VM.Reg, spec); err != nil {
				t.Errorf("%s: rejected: %v", what, err)
			}
			updates++
		}
	}
	if updates != 22 {
		t.Fatalf("checked %d app updates, want 22", updates)
	}

	for _, seed := range []int64{1, 7, 42} {
		specs := 0
		_, err := storm.Run(storm.Config{Seed: seed, Updates: 40, BeforeRequest: func(v *vm.VM, spec *upt.Spec) {
			checkVerdict(t, fmt.Sprintf("storm seed %d update %s", seed, spec.OldTag), v.Reg, spec)
			specs++
		}})
		if err != nil {
			t.Fatal(err)
		}
		if specs < 40 {
			t.Fatalf("storm seed %d: checked %d specs, want every one of 40 updates", seed, specs)
		}
	}

	// Rejects: the same first failure, and the same text, either way.
	rejects := []struct{ name, from, to string }{
		{"removed method still called", "static method one()I", "static method two()I"},
		{"private field read from another class", "field count I", "private field count I"},
		{"final field written outside its initializer", "field count I", "final field count I"},
		{"stack underflow", "const 7\n    putstatic", "putstatic"},
		{"unknown class", "new Store\n    getfield", "new Missing\n    getfield"},
	}
	for _, tc := range rejects {
		f := newFixture(t, 1<<16)
		v1 := f.load(verdictV1)
		src := strings.Replace(verdictV1, tc.from, tc.to, 1)
		if src == verdictV1 {
			t.Fatalf("%s: the edit did not apply", tc.name)
		}
		spec, err := upt.Prepare("1", v1, f.prog(src))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if checkVerdict(t, tc.name, f.vm.Reg, spec) == nil {
			t.Errorf("%s: verified", tc.name)
		}
	}
}

const verdictV1 = `
class Store {
  field count I
  static field total I
  static method one()I {
    const 1
    return
  }
}
class App {
  static method main()V {
    new Store
    getfield Store.count I
    invokestatic Store.one()I
    add
    const 7
    putstatic Store.total I
    new Store
    const 3
    putfield Store.count I
    invokestatic System.printInt(I)V
    return
  }
}
`

// TestUnpreparedSpecRefused: a Spec that upt.Prepare did not make carries
// no verdict, and the request refuses it before stopping anything — even
// one built field for field from a prepared spec.
func TestUnpreparedSpecRefused(t *testing.T) {
	f := newFixture(t, 1<<16)
	v1 := f.load(bodyV1)
	v2 := f.prog(strings.Replace(bodyV1, "const 1\n    return", "const 2\n    return", 1))
	f.spawn("App")
	f.vm.Step(1)
	spec, err := upt.Prepare("1", v1, v2)
	if err != nil {
		t.Fatal(err)
	}
	literal := &upt.Spec{}
	from, to := reflect.ValueOf(spec).Elem(), reflect.ValueOf(literal).Elem()
	for i := 0; i < from.NumField(); i++ {
		if from.Type().Field(i).IsExported() {
			to.Field(i).Set(from.Field(i))
		}
	}
	if _, err := f.engine.RequestUpdate(literal, core.Options{}); err == nil ||
		!strings.Contains(err.Error(), "core: update refused: the spec was not made by upt.Prepare") {
		t.Fatalf("err = %v, want the request to refuse an unprepared spec", err)
	}
	if f.vm.UpdatePending() {
		t.Fatal("a refused request armed the VM")
	}
	if res, err := f.engine.ApplyNow(spec, core.Options{}); err != nil || res.Outcome != core.Applied {
		t.Fatalf("the prepared spec: %v, %v", res, err)
	}
	if got := strings.TrimSpace(f.finish()); got != "2" {
		t.Fatalf("answer = %q, want 2 (new body)", got)
	}
}

// TestNewProgramIsSelfContained: a new program resolves names in itself and
// the bootstrap classes only. A class the VM loaded from another program is
// unknown to it, as it would be to vm.LoadProgram in a fresh VM.
func TestNewProgramIsSelfContained(t *testing.T) {
	f := newFixture(t, 1<<16)
	f.load(`
class Helper {
  static method seven()I {
    const 7
    return
  }
}
`)
	v1 := f.load(bodyV1)
	v2 := f.prog(strings.Replace(bodyV1, "invokestatic Worker.answer()I", "new Helper\n    pop\n    invokestatic Worker.answer()I", 1))
	f.spawn("App")
	f.vm.Step(1)
	spec, err := upt.Prepare("1", v1, v2)
	if err != nil {
		t.Fatal(err)
	}
	const want = "verifier: App.main()V pc=10: new: unknown class Helper"
	if verdict, _ := spec.Verdict(); errText(verdict) != want {
		t.Fatalf("verdict = %v, want %q", verdict, want)
	}
	if _, err := f.engine.RequestUpdate(spec, core.Options{}); err == nil ||
		err.Error() != "core: update rejected: "+want {
		t.Fatalf("err = %v, want the rejection naming the unknown class", err)
	}
	if got := strings.TrimSpace(f.finish()); got != "1" {
		t.Fatalf("output = %q, want 1 (still v1)", got)
	}
}

// TestQuiesceRetryVerifiesNothing: the CrossFTP 1.07→1.08 path requests
// one spec twice, under held sessions (aborted) and after they drain
// (applied). The strict verification of the new program ran once, in
// upt.Prepare; neither request verifies any class strictly.
func TestQuiesceRetryVerifiesNothing(t *testing.T) {
	app := apps.FTPServer()
	i := 0
	for !app.Versions[i+1].NeedsQuiesce {
		i++
	}
	s, err := apps.Launch(app, apps.LaunchOptions{Version: i})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 3; b++ {
		if _, err := s.DoBatch(); err != nil {
			t.Fatal(err)
		}
	}
	held, err := s.HoldConnections(2)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := app.Spec(i)
	if err != nil {
		t.Fatal(err)
	}
	before := verifier.StrictClasses()
	res, err := s.ApplySpec(spec, core.Options{MaxAttempts: 60, OSROpt: true}, true)
	if err != nil || res.Outcome != core.Aborted {
		t.Fatalf("under held sessions: %v, %v; want aborted", res, err)
	}
	s.ReleaseConnections(held)
	if res, err = s.ApplySpec(spec, core.Options{MaxAttempts: 200}, false); err != nil || res.Outcome != core.Applied {
		t.Fatalf("after quiescing: %v, %v; want applied", res, err)
	}
	if n := verifier.StrictClasses() - before; n != 0 {
		t.Fatalf("the two requests verified %d classes strictly, want 0", n)
	}
}

// TestRestrictedSetsBuiltOncePerRequest: a request blocked for many
// attempts resolves its restricted method sets at the first one. The Go
// allocations of every later attempt are the same whether the update
// changes 2 methods or 65.
func TestRestrictedSetsBuiltOncePerRequest(t *testing.T) {
	laterAttempt := func(methods int) float64 {
		var v1src, v2src strings.Builder
		for i := 0; i < methods; i++ {
			fmt.Fprintf(&v1src, "  static method m%d()I {\n    const %d\n    return\n  }\n", i, i)
			fmt.Fprintf(&v2src, "  static method m%d()I {\n    const %d\n    return\n  }\n", i, i+1)
		}
		f := newFixture(t, 1<<16)
		v1 := f.load(strings.Replace(foreverV1, "class Loop {\n", "class Loop {\n"+v1src.String(), 1))
		v2 := f.prog(strings.Replace(strings.Replace(foreverV1, "class Loop {\n", "class Loop {\n"+v2src.String(), 1),
			"const 1\n    ifne top", "const 2\n    ifne top", 1))
		f.spawn("App")
		f.vm.Step(2)
		spec, err := upt.Prepare("1", v1, v2)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(spec.MethodBodyUpdates); got != methods+1 {
			t.Fatalf("%d body updates, want %d", got, methods+1)
		}
		p, err := f.engine.RequestUpdate(spec, core.Options{MaxAttempts: 100})
		if err != nil {
			t.Fatal(err)
		}
		f.vm.Step(1) // the first attempt: sets built, barrier installed
		allocs := testing.AllocsPerRun(20, func() {
			if f.vm.UpdateHandler() {
				t.Fatal("the update resolved while Loop.spin is on the stack")
			}
		})
		for !p.Done() {
			f.vm.Step(1)
		}
		if res := p.Result(); res.Outcome != core.Aborted || res.Stats.Attempts != 100 {
			t.Fatalf("%v after %d attempts, want aborted after 100", res.Outcome, res.Stats.Attempts)
		}
		return allocs
	}
	one, many := laterAttempt(1), laterAttempt(64)
	if one != many {
		t.Fatalf("a later attempt allocates %v times with 2 changed methods and %v with 65: the restricted sets are rebuilt per attempt", one, many)
	}
}

// TestBlockedAttemptAllocsNothing: with no flight recorder attached, a
// safe-point attempt that finds a restricted method on the stack (its return
// barrier already installed) makes no Go allocation — the names it would
// report are built only for an enabled recorder.
func TestBlockedAttemptAllocsNothing(t *testing.T) {
	f := newFixture(t, 1<<16)
	v1 := f.load(foreverV1)
	v2 := f.prog(strings.Replace(foreverV1, "const 1\n    ifne top", "const 2\n    ifne top", 1))
	f.spawn("App")
	f.vm.Step(2)
	spec, err := upt.Prepare("1", v1, v2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := f.engine.RequestUpdate(spec, core.Options{MaxAttempts: 100})
	if err != nil {
		t.Fatal(err)
	}
	if f.vm.Rec.Enabled() {
		t.Fatal("the fixture attaches an enabled recorder")
	}
	f.vm.Step(1) // the first attempt: sets built, barrier installed
	allocs := testing.AllocsPerRun(20, func() {
		if f.vm.UpdateHandler() {
			t.Fatal("the update resolved while Loop.spin is on the stack")
		}
	})
	if allocs != 0 {
		t.Fatalf("a blocked attempt with observability off makes %v Go allocations, want 0", allocs)
	}
	for !p.Done() {
		f.vm.Step(1)
	}
	if res := p.Result(); res.Outcome != core.Aborted || res.Stats.BarriersInstalled != 1 {
		t.Fatalf("%v with %d barriers installed, want aborted with 1", res.Outcome, res.Stats.BarriersInstalled)
	}
}
