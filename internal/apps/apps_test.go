package apps

import (
	"strings"
	"testing"

	"govolve/internal/asm"
	"govolve/internal/classfile"
	"govolve/internal/core"
	"govolve/internal/rt"
	"govolve/internal/storm"
	"govolve/internal/verifier"
	"govolve/internal/vm"
	"govolve/internal/vm/vmtest"
)

// bootEnv merges the VM bootstrap classes with a program for verification.
type bootEnv struct {
	boot map[string]*classfile.Class
	p    *classfile.Program
}

func newBootEnv(t *testing.T, p *classfile.Program) bootEnv {
	t.Helper()
	classes, err := asm.Assemble("bootstrap.jva", vm.BootstrapSource)
	if err != nil {
		t.Fatal(err)
	}
	boot := make(map[string]*classfile.Class, len(classes))
	for _, c := range classes {
		boot[c.Name] = c
	}
	return bootEnv{boot: boot, p: p}
}

func (e bootEnv) LookupClass(name string) *classfile.Class {
	if c, ok := e.p.Classes[name]; ok {
		return c
	}
	return e.boot[name]
}

func TestAllVersionsAssembleAndVerify(t *testing.T) {
	for _, app := range All() {
		for i, ver := range app.Versions {
			p, err := app.Program(i)
			if err != nil {
				t.Fatalf("%s %s: %v", app.Name, ver.Name, err)
			}
			env := newBootEnv(t, p)
			v := verifier.New(env, verifier.Strict)
			for _, c := range p.Sorted() {
				if err := v.VerifyClass(c); err != nil {
					t.Errorf("%s %s: %v", app.Name, ver.Name, err)
				}
			}
		}
	}
}

func TestAllSpecsPrepare(t *testing.T) {
	for _, app := range All() {
		for i := 0; i < app.UpdateCount(); i++ {
			if _, err := app.Spec(i); err != nil {
				t.Errorf("%s %s→%s: %v", app.Name, app.Versions[i].Name, app.Versions[i+1].Name, err)
			}
		}
	}
}

func TestServersServeEveryVersion(t *testing.T) {
	for _, app := range All() {
		for i := range app.Versions {
			s, err := Launch(app, LaunchOptions{Version: i, HeapWords: 1 << 18})
			if err != nil {
				t.Fatalf("%s %s: launch: %v", app.Name, app.Versions[i].Name, err)
			}
			if err := s.VerifyActive(); err != nil {
				t.Fatalf("%s %s: %v", app.Name, app.Versions[i].Name, err)
			}
			n, err := s.DoBatch()
			if err != nil {
				t.Fatalf("%s %s: batch: %v", app.Name, app.Versions[i].Name, err)
			}
			if n == 0 {
				t.Fatalf("%s %s: no responses", app.Name, app.Versions[i].Name)
			}
			for _, th := range s.VM.Threads {
				if th.Err != nil {
					t.Fatalf("%s %s: thread %s: %v\n%s", app.Name, app.Versions[i].Name, th.Name, th.Err, th.Backtrace())
				}
			}
		}
	}
}

// TestUpdateMatrix is the §4 experience experiment in miniature: every
// update of every app is applied to the live server. 20 of 22 must apply;
// the two engineered always-on-stack changes must abort. The storm
// harness's whole-VM invariant sweep runs after every one of the 22
// transitions, so registry, heap, stack, and gauge invariants are checked
// on the real servers as well as on generated storm programs.
func TestUpdateMatrix(t *testing.T) {
	applied, aborted, total := 0, 0, 0
	// Every VM of the walk has its frames' operand stacks held to the
	// compile-time bound from the first update on: no frame regrows one.
	watched := make(map[*vm.VM]func() error)
	stackBound := func(v *vm.VM) error {
		if check, ok := watched[v]; ok {
			return check()
		}
		watched[v] = vmtest.WatchStacks(v)
		return nil
	}
	for _, app := range All() {
		entries, err := RunMatrix(app, 1<<20, storm.CheckVM, stackBound)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if len(entries) != app.UpdateCount() {
			t.Fatalf("%s: %d entries, want %d", app.Name, len(entries), app.UpdateCount())
		}
		for _, e := range entries {
			total++
			target := versionByName(t, app, e.To)
			switch {
			case target.ExpectAbort:
				if e.Outcome != core.Aborted {
					t.Errorf("%s %s→%s: outcome %v, want abort (method always on stack)",
						e.App, e.From, e.To, e.Outcome)
				}
				aborted++
			default:
				if e.Outcome != core.Applied {
					t.Errorf("%s %s→%s: outcome %v (%s), want applied",
						e.App, e.From, e.To, e.Outcome, e.Note)
					continue
				}
				applied++
			}
			if !e.ProbeOK {
				t.Errorf("%s %s→%s: server not verified after update", e.App, e.From, e.To)
			}
			if target.NeedsQuiesce && !e.Quiesced {
				t.Errorf("%s %s→%s: expected quiesce-then-apply behaviour", e.App, e.From, e.To)
			}
		}
	}
	for _, check := range watched {
		if err := check(); err != nil {
			t.Error(err)
		}
	}
	if total != 22 {
		t.Errorf("total updates = %d, want 22 (10 web + 9 email + 3 ftp)", total)
	}
	if applied != 20 || aborted != 2 {
		t.Errorf("applied/aborted = %d/%d, want 20/2 (the paper's headline)", applied, aborted)
	}
	// Method-body-only DSU systems (HotSwap, edit-and-continue) support
	// well under half of real releases — 7 of our 22 (the paper: 9 of 22).
	bodyOnly := 0
	for _, app := range All() {
		for _, v := range app.Versions {
			if v.BodyOnly {
				bodyOnly++
			}
		}
	}
	if bodyOnly != 7 {
		t.Errorf("body-only updates = %d, want 7", bodyOnly)
	}
}

func versionByName(t *testing.T, app *App, name string) Version {
	t.Helper()
	for _, v := range app.Versions {
		if v.Name == name {
			return v
		}
	}
	t.Fatalf("no version %s", name)
	return Version{}
}

// TestHeldOptHandlerNeedsOSROpt pins what a handler loop reaching the opt tier
// costs, and why the matrix runs with OSROpt (DESIGN.md §15.4). Once the
// handler has served OptThreshold connections a held session parks in opt
// code; webserver 5.1.0→5.1.1, an immediate safe point while the handler is
// base code, then goes stale under it. The paper's engine waits for frames it
// cannot replace, and these never return; with OSROpt they are mapped back
// onto fresh base code, and the sessions they serve carry on.
func TestHeldOptHandlerNeedsOSROpt(t *testing.T) {
	s, err := Launch(Webserver(), LaunchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.VM.JIT.OptThreshold = 2
	for b := 0; b < 3; b++ {
		if _, err := s.DoBatch(); err != nil {
			t.Fatal(err)
		}
	}
	held, err := s.HoldConnections(2)
	if err != nil {
		t.Fatal(err)
	}
	parked := 0
	for _, th := range s.VM.Threads {
		for _, f := range th.Frames {
			if th.State == vm.Blocked && f.CM.Level == rt.Opt && f.CM.PCMap[f.PC] >= 0 {
				parked++
			}
		}
	}
	if parked < len(held) {
		t.Fatalf("%d blocked frames in opt code at a mappable pc, want one per held session (%d)", parked, len(held))
	}

	res, err := s.ApplyNext(core.Options{MaxAttempts: 60}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != core.Aborted {
		t.Fatalf("without OSROpt: outcome %v, want aborted (stale opt frames block)", res.Outcome)
	}
	res, err = s.ApplyNext(core.Options{MaxAttempts: 60, OSROpt: true}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != core.Applied || res.Stats.OSRFrames < len(held) {
		t.Fatalf("with OSROpt: outcome %v (%v), %d frames replaced, want applied and ≥ %d",
			res.Outcome, res.Err, res.Stats.OSRFrames, len(held))
	}
	if err := storm.CheckVM(s.VM); err != nil {
		t.Fatal(err)
	}
	// The replaced frames resume the read they were parked in.
	for _, c := range held {
		if err := s.VM.Net.ClientSend(c, s.App.ProbeRequest); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		s.VM.Step(5)
	}
	for _, c := range held {
		if line, ok := s.VM.Net.ClientRecv(c); !ok || !strings.Contains(line, s.Version().Name) {
			t.Errorf("held session %d answered %q after the update, want a %s response", c, line, s.Version().Name)
		}
	}
	s.ReleaseConnections(held)
	if err := s.VerifyActive(); err != nil {
		t.Fatal(err)
	}
}

// TestEmailFigure3Update checks the paper's running example end to end:
// after 1.3.1→1.3.2, alice's forwards — created as strings under the old
// version — read back as formatted EmailAddress objects.
func TestEmailFigure3Update(t *testing.T) {
	app := EmailServer()
	idx131 := -1
	for i, v := range app.Versions {
		if v.Name == "1.3.1" {
			idx131 = i
		}
	}
	if idx131 < 0 {
		t.Fatal("no 1.3.1")
	}
	s, err := Launch(app, LaunchOptions{Version: idx131, HeapWords: 1 << 19})
	if err != nil {
		t.Fatal(err)
	}
	fwd := func() string {
		conn, err := s.VM.Net.Connect(110)
		if err != nil {
			t.Fatal(err)
		}
		defer s.VM.Net.ClientClose(conn)
		if err := s.VM.Net.ClientSend(conn, "FWD alice"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			s.VM.Step(5)
			if line, ok := s.VM.Net.ClientRecv(conn); ok {
				return line
			}
		}
		t.Fatal("FWD timed out")
		return ""
	}
	before := fwd()
	if !strings.Contains(before, "alice@backup.example.com") {
		t.Fatalf("pre-update forwards = %q", before)
	}
	res, err := s.ApplyNext(core.Options{MaxAttempts: 200}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != core.Applied {
		t.Fatalf("1.3.2 outcome: %v (%v)", res.Outcome, res.Err)
	}
	after := fwd()
	// The custom transformer split the strings at '@' into EmailAddress
	// objects; format() reassembles them, so content survives the type
	// change — the Figure 3 behaviour.
	if !strings.Contains(after, "alice@backup.example.com") ||
		!strings.Contains(after, "alice@phone.example.com") {
		t.Fatalf("post-update forwards = %q; transformer lost data", after)
	}
}
