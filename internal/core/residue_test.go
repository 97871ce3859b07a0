package core_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"govolve/internal/core"
	"govolve/internal/gc"
	"govolve/internal/obs"
	"govolve/internal/rt"
	"govolve/internal/storm"
	"govolve/internal/upt"
)

// consV1: 40 Pad objects (ballast the update does not touch — what a
// relocation must move after the pause) and 20 Box objects with
// v = 0..19, both as static-rooted lists; a long spin (the update window);
// then a walk that sums every Box.v — the touch of every updated instance,
// so an on-touch drain runs dry by itself.
const consV1 = `
class Pad {
  field a I
  field next LPad;
  method <init>()V {
    load 0
    invokespecial Object.<init>()V
    return
  }
}
class Box {
  field v I
  field next LBox;
  method <init>(I)V {
    load 0
    invokespecial Object.<init>()V
    load 0
    load 1
    putfield Box.v I
    return
  }
}
class App {
  static field boxes LBox;
  static field pads LPad;
  static method main()V {
    const 0
    store 0
  padloop:
    load 0
    const 40
    if_icmpge boxes
    new Pad
    dup
    invokespecial Pad.<init>()V
    store 1
    load 1
    getstatic App.pads LPad;
    putfield Pad.next LPad;
    load 1
    putstatic App.pads LPad;
    load 0
    const 1
    add
    store 0
    goto padloop
  boxes:
    const 0
    store 0
  boxloop:
    load 0
    const 20
    if_icmpge spin
    new Box
    dup
    load 0
    invokespecial Box.<init>(I)V
    store 2
    load 2
    getstatic App.boxes LBox;
    putfield Box.next LBox;
    load 2
    putstatic App.boxes LBox;
    load 0
    const 1
    add
    store 0
    goto boxloop
  spin:
    const 0
    store 0
  loop:
    load 0
    const 60000
    if_icmpge sum
    load 0
    const 1
    add
    store 0
    goto loop
  sum:
    const 0
    store 0
    getstatic App.boxes LBox;
    store 2
  walk:
    load 2
    ifnull done
    load 0
    load 2
    getfield Box.v I
    add
    store 0
    load 2
    getfield Box.next LBox;
    store 2
    goto walk
  done:
    load 0
    invokestatic System.printInt(I)V
    return
  }
}
`

// consV2 widens Box; wide makes the new shells three times the old size (the
// failed-drain rows need the update itself to outgrow to-space).
func consV2(wide bool) string {
	extra := "field v I\n  field gen I"
	if wide {
		extra = "field v I"
		for i := 0; i < 8; i++ {
			extra += fmt.Sprintf("\n  field g%d I", i)
		}
	}
	return strings.Replace(consV1, "field v I", extra, 1)
}

// crowdHeap pins, behind two handle-held reference arrays, enough live data
// that a concurrent-relocation update tripling cls's instance size survives
// its pause but not its drain: instances worth a fifth of the semispace (the
// pause evacuates at most old copy + shell for each, four fifths) and
// int-array ballast worth three fifths, which only the drain moves. Only the
// two arrays themselves are root referents, so the pause's root remap moves
// nothing else.
func crowdHeap(f *fixture, cls *rt.Class) {
	f.t.Helper()
	h := f.vm.Heap
	pin := func(n int, elem func() (rt.Addr, bool)) {
		arr, ok := h.AllocArray(true, n)
		if !ok {
			f.t.Fatal("heap full while crowding")
		}
		f.vm.PushHandle(arr)
		for i := 0; i < n; i++ {
			a, ok := elem()
			if !ok {
				f.t.Fatal("heap full while crowding")
			}
			h.SetElem(arr, i, rt.RefVal(a))
		}
	}
	const chunk = 1000
	pin(h.SemiWords()/5/cls.Size, func() (rt.Addr, bool) { return h.AllocObject(cls) })
	pin(h.SemiWords()*3/5/chunk, func() (rt.Addr, bool) { return h.AllocArray(false, chunk) })
}

// assertRetired checks what every retirement of an update's residue must
// leave behind, whatever the placement and whichever path retired it: no
// residue hook, no backlog, the load barrier disarmed, no renamed old
// version, transformer class or UpdatedTo link
// registered, no live scalar pending, and a clean whole-VM
// sweep. After a failed drain the heap is dead by contract, so the two heap
// walks are replaced by the FatalHeap assertion.
func assertRetired(t *testing.T, f *fixture, wantFatal bool) {
	t.Helper()
	v := f.vm
	if v.DrainActive() {
		t.Fatal("residue hook still installed")
	}
	if l, r := f.engine.LazyBacklog(), f.engine.RelocBacklog(); l != 0 || r != 0 {
		t.Fatalf("backlog after retire: lazy %d reloc %d", l, r)
	}
	if v.Heap.RelocArmed() {
		t.Fatal("load barrier left armed")
	}
	for _, cls := range v.Reg.Classes() {
		if cls.Renamed || cls.Name == upt.TransformersClassName {
			t.Fatalf("update debris still registered: %s", cls.Name)
		}
		if cls.UpdatedTo != nil {
			t.Fatalf("%s still links UpdatedTo", cls.Name)
		}
	}
	if wantFatal {
		if !errors.Is(v.FatalHeap, gc.ErrToSpaceExhausted) {
			t.Fatalf("FatalHeap = %v, want gc.ErrToSpaceExhausted in the chain", v.FatalHeap)
		}
		return
	}
	if v.FatalHeap != nil {
		t.Fatalf("heap marked unusable: %v", v.FatalHeap)
	}
	err := gc.WalkReachable(v.Heap, v.Reg, v, func(a rt.Addr, _ *rt.Class) error {
		if !v.Heap.IsArray(a) && v.Heap.PairWord(a) != 0 { // an array's word 1 is its length
			return fmt.Errorf("live object @%d still carries pair word %#x", a, v.Heap.PairWord(a))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := storm.CheckVM(v); err != nil {
		t.Fatalf("invariant sweep: %v", err)
	}
}

// assertPublished checks that /metrics tells what the engine's update records
// finally say: every series a record feeds (core.Result's metric tags) reads
// the sum of the records' final values, however the publishes at the seal and
// at retire split it. Publishing each final record once into a fresh registry
// makes those sums.
func assertPublished(t *testing.T, f *fixture, reg *obs.Registry) {
	t.Helper()
	records := obs.NewRegistry()
	for _, res := range f.engine.Updates {
		records.Publish(res, nil)
	}
	got, want := reg.TakeSnapshot(), records.TakeSnapshot()
	for name, n := range want.Counters {
		if got.Counters[name] != n {
			t.Errorf("%s reads %d on /metrics, the records sum to %d", name, got.Counters[name], n)
		}
	}
	for name, h := range want.Hists {
		if g := got.Hists[name]; g.Count != h.Count || math.Abs(g.Sum-h.Sum) > 1e-9 {
			t.Errorf("%s holds %d samples summing %g on /metrics, the records %d summing %g",
				name, g.Count, g.Sum, h.Count, h.Sum)
		}
	}
}

// TestResidueTeardownConservation: one residue, one teardown. Every
// placement of the transformer phase, retired along every path that can
// retire it, must end in the same state (assertRetired), with /metrics
// holding what the records say (assertPublished).
func TestResidueTeardownConservation(t *testing.T) {
	// The placements are placements of pairs, so Box's generated transformer
	// is made hand-written (the reloc fixture does that itself). The moved
	// rows leave it a move: the collector, or the relocation drain, writes
	// every Box in its new layout, nothing is ever pending, and the same
	// teardown must still hold along every path. The reloc rows start the
	// path at the pause's end. The lazy row starts it once the relocation has
	// run dry with every pair still pending behind the read barrier: what is
	// left is on-touch transformation alone. The cmark+reloc+lazy rows (named
	// for modes that have since folded into the concurrent one) ship a class
	// transformer that reads the first Box and forces its transformer before
	// the barrier is armed: that pair is the pause's, and the on-touch split
	// must still add up without it.
	handWritten := func(f *fixture) *fixture { f.editSpec = handWrite; return f }
	moved := func(f *fixture) *fixture { f.editSpec = nil; return f }
	reloc := func(t *testing.T) *fixture { return newRelocFixture(t, 1<<16) }
	const forceFirstBox = `
class JvolveTransformers {
  static method jvolveClass(LBox;)V {
    getstatic App.boxes LBox;
    getfield Box.v I
    pop
    getstatic App.boxes LBox;
    invokestatic Jvolve.forceTransform(LObject;)V
    return
  }
}
`
	placements := []struct {
		name               string
		fixture            func(t *testing.T) *fixture
		lazy, reloc, moved bool
		relocDry           bool
		custom             string
	}{
		{"eager", func(t *testing.T) *fixture { return handWritten(newFixture(t, 1<<16)) }, false, false, false, false, ""},
		{"lazy", reloc, true, true, false, true, ""},
		{"reloc", reloc, true, true, false, false, ""},
		{"cmark+reloc+lazy", reloc, true, true, false, false, forceFirstBox},
		{"eager, moved", func(t *testing.T) *fixture { return newFixture(t, 1<<16) }, false, false, true, false, ""},
		{"reloc, moved", func(t *testing.T) *fixture { return moved(reloc(t)) }, false, true, true, false, ""},
		{"cmark+reloc+lazy, moved", func(t *testing.T) *fixture { return moved(reloc(t)) }, false, true, true, false, forceFirstBox},
	}

	// A class transformer that traps: the one in-pause transformer failure
	// every placement shares (object transformers leave the pause on touch).
	const trapClassTransformer = `
class JvolveTransformers {
  static method jvolveClass(LBox;)V {
    const 1
    const 0
    div
    pop
    return
  }
}
`
	const trapClinit = "\nclass Extra {\n  static field x I\n  static method <clinit>()V {\n    const 1\n    const 0\n    div\n    putstatic Extra.x I\n    return\n  }\n}\n"

	type run struct {
		f        *fixture
		v1, v2   string
		custom   string // the placement's transformers
		relocDry bool
		res      *core.Result // the update whose residue the path retires
	}
	// applied runs the program into its spin window and applies v1→v2; a
	// relocDry placement then steps the scheduler until the relocation has
	// run dry. The spin outlasts it: no Box is touched before the path's own
	// steps.
	applied := func(t *testing.T, r *run) {
		t.Helper()
		r.res = r.f.mustApply("1", r.f.prog(r.v1), r.f.prog(r.v2), r.custom)
		if !r.relocDry {
			return
		}
		for i := 0; r.f.vm.Heap.RelocArmed(); i++ {
			if i > 1<<16 {
				t.Fatal("relocation never ran dry")
			}
			r.f.vm.Step(1)
		}
		if n := r.f.engine.LazyBacklog(); n != 20 {
			t.Fatalf("%d pairs pending once the relocation ran dry, want 20", n)
		}
	}
	failed := func(t *testing.T, r *run, custom, want string) {
		t.Helper()
		if custom == "" {
			custom = r.custom
		}
		res, err := r.f.update("1", r.f.prog(r.v1), r.f.prog(r.v2), custom, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != core.Failed || res.Err == nil || !strings.Contains(res.Err.Error(), want) {
			t.Fatalf("outcome = %v err = %v, want Failed via %s", res.Outcome, res.Err, want)
		}
	}

	paths := []struct {
		name      string
		relocOnly bool // the path needs a relocation to fail
		longSpin  bool // the path needs main still spinning after two updates
		fatal     bool
		drive     func(t *testing.T, r *run, lazy bool)
	}{
		{name: "transformer error in pause", drive: func(t *testing.T, r *run, _ bool) {
			failed(t, r, trapClassTransformer, "class transformer")
		}},
		{name: "clinit failure", drive: func(t *testing.T, r *run, _ bool) {
			r.v2 += trapClinit
			failed(t, r, "", "<clinit>")
		}},
		{name: "drain ran dry", drive: func(t *testing.T, r *run, lazy bool) {
			applied(t, r)
			// The program's closing walk touches every Box; the scheduler's
			// poll runs the relocation's quanta and retires it once its
			// drain is done.
			r.f.finish()
			for i := 0; r.f.vm.DrainActive(); i++ {
				if i > 1<<16 {
					t.Fatal("residue never ran dry")
				}
				r.f.vm.Step(1)
			}
			if lazy && r.res.Stats.LazyForced != 0 {
				t.Fatalf("LazyForced = %d on the unforced path", r.res.Stats.LazyForced)
			}
		}},
		{name: "forced by CollectGarbage", drive: func(t *testing.T, r *run, lazy bool) {
			// A flip would invalidate the pair log's raw addresses, reclaim
			// the old copies, and cannot run with from-space held. Collecting
			// at once exercises the forced drain for real: no quantum has run
			// yet.
			applied(t, r)
			if _, err := r.f.vm.CollectGarbage(); err != nil {
				t.Fatalf("collection mid-drain: %v", err)
			}
			if lazy && r.res.Stats.LazyForced == 0 {
				t.Fatal("collection ran without forcing the pending pairs")
			}
		}},
		{name: "forced by follow-up update", longSpin: true, drive: func(t *testing.T, r *run, lazy bool) {
			applied(t, r)
			// The follow-up cannot reach a safe point (main never leaves the
			// stack, so the spin has to outlast both updates), so it aborts
			// without leaving a residue of its own — after forcing the
			// previous one.
			v3 := r.v2 + "\nclass Followup {\n  static method ok()I {\n    const 7\n    return\n  }\n}\n"
			res, err := r.f.update("2", r.f.prog(r.v2), r.f.prog(v3), "", core.Options{MaxAttempts: 2},
				upt.MethodRef{Class: "App", Name: "main", Sig: "()V"})
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcome != core.Aborted {
				t.Fatalf("follow-up outcome = %v (%v), want Aborted", res.Outcome, res.Err)
			}
			if lazy && r.res.Stats.LazyForced == 0 {
				t.Fatal("follow-up update did not force the previous residue")
			}
		}},
		{name: "Engine.ForceDrain", drive: func(t *testing.T, r *run, _ bool) {
			applied(t, r)
			if err := r.f.engine.ForceDrain(); err != nil {
				t.Fatalf("ForceDrain: %v", err)
			}
		}},
		{name: "failed drain", relocOnly: true, fatal: true, drive: func(t *testing.T, r *run, _ bool) {
			crowdHeap(r.f, r.f.vm.Reg.LookupClass("Box"))
			r.v2 = consV2(true)
			applied(t, r)
			if err := r.f.engine.ForceDrain(); !errors.Is(err, gc.ErrToSpaceExhausted) {
				t.Fatalf("ForceDrain = %v, want gc.ErrToSpaceExhausted", err)
			}
			if _, err := r.f.vm.CollectGarbage(); !errors.Is(err, gc.ErrToSpaceExhausted) {
				t.Fatalf("collection on a dead heap = %v, want the fatal cause", err)
			}
		}},
	}

	for _, pl := range placements {
		for _, path := range paths {
			// A moved Box costs one copy: the crowded drain fits. A relocation
			// stepped dry has already failed, or not, before the path runs.
			if path.relocOnly && (!pl.reloc || pl.moved || pl.relocDry) {
				continue
			}
			pl, path := pl, path
			t.Run(pl.name+"/"+path.name, func(t *testing.T) {
				r := &run{f: pl.fixture(t), v1: consV1, v2: consV2(false), custom: pl.custom, relocDry: pl.relocDry}
				reg := obs.NewRegistry()
				r.f.vm.AttachObs(nil, reg)
				if path.longSpin {
					long := strings.NewReplacer("const 60000", "const 600000")
					r.v1, r.v2 = long.Replace(r.v1), long.Replace(r.v2)
				}
				r.f.load(r.v1)
				r.f.spawn("App")
				r.f.vm.Step(10)
				path.drive(t, r, pl.lazy)
				assertRetired(t, r.f, path.fatal)
				assertPublished(t, r.f, reg)
				// Statistics settle with the residue: everything paired was
				// transformed, the on-touch split adds up, a relocation moved
				// the ballast outside the pause — and the program, finishing
				// on the settled heap, reads every field value carried over.
				if s := r.res; s != nil && !path.fatal {
					if got := strings.TrimSpace(r.f.finish()); got != "190" {
						t.Fatalf("output = %q, want 190", got)
					}
					if pl.lazy && s.Stats.LazyPending == 0 {
						t.Fatal("on-touch placement left nothing pending")
					}
					if pl.reloc && (!s.Stats.Relocated || s.Stats.Reloc.Objects == 0) {
						t.Fatalf("relocation stats not stamped: %+v", s.Stats)
					}
					if n, m := s.Stats.PairsLogged, s.Stats.MovedObjects; n+m < 20 || (pl.moved && n != 0) || (!pl.moved && m != 0) {
						t.Fatalf("%d pairs logged and %d objects moved for 20 live Boxes (moved placement: %v)", n, m, pl.moved)
					}
					if s.Stats.TransformedObjects != s.Stats.PairsLogged+s.Stats.MovedObjects {
						t.Fatalf("transformed %d != pairs logged %d + moved %d",
							s.Stats.TransformedObjects, s.Stats.PairsLogged, s.Stats.MovedObjects)
					}
					if pl.custom != "" && !pl.moved && s.Stats.LazyPending != s.Stats.PairsLogged-1 {
						t.Fatalf("%d of %d pairs booked pending; the one forced before arming is the pause's",
							s.Stats.LazyPending, s.Stats.PairsLogged)
					}
					if s.Stats.LazyDrained+s.Stats.LazyForced != s.Stats.LazyPending {
						t.Fatalf("drained %d + forced %d != pending %d",
							s.Stats.LazyDrained, s.Stats.LazyForced, s.Stats.LazyPending)
					}
				}
			})
		}
	}
}

// TestRelocDrainToSpaceExhaustionMetrics is the failed drain of
// TestResidueTeardownConservation with a metrics registry attached: the
// latency histogram holds completed drains only, so a drain that ran to-space
// dry records no sample — next to the one sample of the same update drained
// on an uncrowded heap — and the backlog gauge ends at 0 either way.
func TestRelocDrainToSpaceExhaustionMetrics(t *testing.T) {
	for _, crowd := range []bool{false, true} {
		f := newRelocFixture(t, 1<<16)
		m := obs.NewRegistry()
		f.vm.AttachObs(nil, m)
		f.load(consV1)
		f.spawn("App")
		f.vm.Step(10)
		if crowd {
			crowdHeap(f, f.vm.Reg.LookupClass("Box"))
		}
		f.mustApply("1", f.prog(consV1), f.prog(consV2(crowd)), "")
		err := f.engine.ForceDrain()
		if crowd != errors.Is(err, gc.ErrToSpaceExhausted) {
			t.Fatalf("crowded=%v: ForceDrain = %v", crowd, err)
		}
		want := int64(1)
		if crowd {
			want = 0
		}
		if n := m.Histogram("govolve_dsu_reloc_drain_latency_seconds", obs.DurationBuckets()).Count(); n != want {
			t.Fatalf("crowded=%v: %d drain latency samples, want %d", crowd, n, want)
		}
		if g := m.Gauge(obs.MRelocBacklog).Value(); g != 0 {
			t.Fatalf("crowded=%v: backlog gauge %v after the drain", crowd, g)
		}
	}
}
