package stream

import (
	"fmt"
	"strings"
	"testing"

	"govolve/internal/core"
	"govolve/internal/obs"
	"govolve/internal/rt"
	"govolve/internal/storm"
	"govolve/internal/vm"
)

// matrixRow is one mode of the replay matrix and the chain seed it replays.
type matrixRow struct {
	mode Mode
	seed int64
}

// matrixRows is every engine mode at seed, plus a second concurrent row,
// concurrent+lazy (the name the mode had while on-touch transformation was a
// mode of its own), replaying a second chain (seed+1) in the one mode whose
// drain interleaves with the mutator.
func matrixRows(seed int64) []matrixRow {
	var rows []matrixRow
	for _, m := range Modes() {
		rows = append(rows, matrixRow{m, seed})
	}
	return append(rows, matrixRow{Mode{Name: "concurrent+lazy", Concurrent: true}, seed + 1})
}

// TestStreamMatrix is the long-horizon acceptance test: a seeded 50-update
// chain replayed to completion in every engine mode under the hostile
// schedule, with the whole-VM oracle at every step (inside Replay) plus the
// stats-decomposition invariants asserted per step here, and the on-touch
// conservation laws asserted chain-wide after the terminal drain.
func TestStreamMatrix(t *testing.T) {
	for _, row := range matrixRows(7) {
		mode, seed := row.mode, row.seed
		t.Run(mode.Name, func(t *testing.T) {
			t.Parallel()
			var eng *core.Engine
			applied := 0
			// The generator ships about half of every release's transformers
			// hand-written (storm.shipHandWritten), so each mode places pairs —
			// tagged, drained, forced, relocated — next to objects the
			// collector moved, and the laws below cover the mix.
			rep, err := Replay(Config{
				Seed:    seed,
				Length:  50,
				Mode:    mode,
				Hostile: true,
				OnStep: func(step int, rec *StepRecord, res *core.Result, d *storm.Driver) error {
					eng = d.Engine()
					s := &res.Stats
					// Pause decomposition: phases nest inside the total.
					if s.PauseTotal < s.PauseInstall+s.PauseGC+s.PauseTransform {
						return fmt.Errorf("step %d: PauseTotal %v < install %v + gc %v + transform %v",
							step, s.PauseTotal, s.PauseInstall, s.PauseGC, s.PauseTransform)
					}
					// Every updated instance is a pair or was moved; the serial
					// mode has transformed them all when the pause ends.
					if n := s.PairsLogged + s.MovedObjects; s.TransformedObjects > n || (!mode.Concurrent && s.TransformedObjects != n) {
						return fmt.Errorf("step %d: transformed %d of %d pairs + %d moved",
							step, s.TransformedObjects, s.PairsLogged, s.MovedObjects)
					}
					if s.PauseGC < s.PauseCopy {
						return fmt.Errorf("step %d: PauseGC %v < copy %v", step, s.PauseGC, s.PauseCopy)
					}
					// On-touch accounting: drains never overshoot the tagged
					// set, and the serial mode never tags at all.
					if s.LazyDrained+s.LazyForced > s.LazyPending {
						return fmt.Errorf("step %d: drained %d + forced %d > pending %d",
							step, s.LazyDrained, s.LazyForced, s.LazyPending)
					}
					if !mode.Concurrent && (s.LazyPending != 0 || rec.Backlog != 0) {
						return fmt.Errorf("step %d: on-touch counters in the serial mode (pending %d backlog %d)",
							step, s.LazyPending, rec.Backlog)
					}
					if rec.Backlog > s.LazyPending {
						return fmt.Errorf("step %d: backlog %d > pending %d", step, rec.Backlog, s.LazyPending)
					}
					// Relocation accounting: the concurrent mode relocates
					// every applied update; the serial mode never holds a drain
					// or a backlog.
					if s.Relocated != mode.Concurrent {
						return fmt.Errorf("step %d: Relocated=%v in mode %s", step, s.Relocated, mode.Name)
					}
					if !mode.Concurrent && (rec.RelocBacklog != 0 || d.VM().Heap.RelocArmed()) {
						return fmt.Errorf("step %d: relocation residue in mode %s (backlog %d)",
							step, mode.Name, rec.RelocBacklog)
					}
					// The chain only ever advances: exactly one more applied
					// update per step record.
					applied++
					if rec.Step != applied {
						return fmt.Errorf("step %d: out-of-order record (want %d)", rec.Step, applied)
					}
					return nil
				},
			})
			if err != nil {
				t.Fatalf("mode %s: %v", mode.Name, err)
			}
			if rep.Applied != 50 || len(rep.Records) != 50 {
				t.Fatalf("mode %s: applied=%d records=%d, want 50", mode.Name, rep.Applied, len(rep.Records))
			}
			if mode.Concurrent && rep.MaxBacklog == 0 {
				t.Errorf("mode %s: hostile chain never built a drain backlog", mode.Name)
			}
			// Conservation after the terminal forced drain: every applied
			// update's drain retired exactly its tagged set, and transformed
			// exactly what its collection logged.
			for i, res := range eng.Updates {
				if res.Outcome != core.Applied {
					continue
				}
				s := &res.Stats
				if s.LazyDrained+s.LazyForced != s.LazyPending {
					t.Errorf("mode %s update %d: drained %d + forced %d != pending %d",
						mode.Name, i, s.LazyDrained, s.LazyForced, s.LazyPending)
				}
				if s.TransformedObjects != s.PairsLogged+s.MovedObjects {
					t.Errorf("mode %s update %d: transformed %d != pairs logged %d + moved %d",
						mode.Name, i, s.TransformedObjects, s.PairsLogged, s.MovedObjects)
				}
			}
		})
	}
}

// TestStreamGate is the make stream-gate entry point: a short hostile chain
// in every mode, fast enough to run under -race in make verify.
func TestStreamGate(t *testing.T) {
	for _, row := range matrixRows(1) {
		mode, seed := row.mode, row.seed
		t.Run(mode.Name, func(t *testing.T) {
			t.Parallel()
			rep, err := Replay(Config{
				Seed: seed, Length: 12, Mode: mode, Hostile: true,
			})
			if err != nil {
				t.Fatalf("mode %s: %v", mode.Name, err)
			}
			if rep.Applied != 12 {
				t.Fatalf("mode %s: applied=%d, want 12", mode.Name, rep.Applied)
			}
		})
	}
}

// goldenFingerprints persists across -count=N reruns in one test binary, so
// a second count compares against the first run's fingerprints — the
// cross-run half of the determinism contract.
var goldenFingerprints = map[string]string{}

// TestStreamDeterministicReplay replays the same chain twice per mode and
// requires byte-identical fingerprints, in-process and across
// go test -count=2 — the concurrent mode's included: its drain runs in quanta
// of counted words on the scheduler's goroutine.
func TestStreamDeterministicReplay(t *testing.T) {
	for _, mode := range Modes() {
		cfg := Config{Seed: 42, Length: 20, Mode: mode, Hostile: true}
		a, err := Replay(cfg)
		if err != nil {
			t.Fatalf("mode %s first replay: %v", mode.Name, err)
		}
		b, err := Replay(cfg)
		if err != nil {
			t.Fatalf("mode %s second replay: %v", mode.Name, err)
		}
		fa, fb := a.Fingerprint(), b.Fingerprint()
		if fa != fb {
			t.Fatalf("mode %s: in-process fingerprint mismatch:\n--- a ---\n%s\n--- b ---\n%s", mode.Name, fa, fb)
		}
		if prev, ok := goldenFingerprints[mode.Name]; ok && prev != fa {
			t.Fatalf("mode %s: cross-run fingerprint mismatch:\n--- prev ---\n%s\n--- now ---\n%s", mode.Name, prev, fa)
		}
		goldenFingerprints[mode.Name] = fa
	}
}

// TestStreamInjectedBug breaks one chain step's object transformer and
// requires (a) the chain-wide oracle to fail at exactly that step, and
// (b) the failure to reproduce from the printed seed + step index alone.
func TestStreamInjectedBug(t *testing.T) {
	mode, _ := ModeByName("serial")
	cfg := Config{Seed: 3, Length: 12, Mode: mode, Hostile: true, InjectBugAtStep: 5}
	rep, err := Replay(cfg)
	if err == nil {
		t.Fatalf("injected empty transformer went undetected (applied=%d injected at %d)",
			rep.Applied, rep.InjectedStep)
	}
	if rep.InjectedStep == 0 {
		t.Fatalf("no step carried a default object transformer to break: %v", err)
	}
	// The failure must carry the one-command repro context.
	var seed int64
	var step int
	var m string
	if _, serr := fmt.Sscanf(err.Error(), "stream: seed=%d step=%d mode=%s", &seed, &step, &m); serr != nil {
		t.Fatalf("failure lacks seed/step repro context: %v", err)
	}
	if step != rep.InjectedStep {
		t.Fatalf("oracle failed at step %d, bug injected at step %d: %v", step, rep.InjectedStep, err)
	}
	// Reproduce from the reported values alone: fresh config, same seed,
	// inject at the reported step — must fail at the same step again.
	rep2, err2 := Replay(Config{Seed: seed, Length: 12, Mode: mode, Hostile: true, InjectBugAtStep: step})
	if err2 == nil {
		t.Fatalf("repro replay did not fail (seed=%d step=%d)", seed, step)
	}
	var step2 int
	if _, serr := fmt.Sscanf(err2.Error(), "stream: seed=%d step=%d", &seed, &step2); serr != nil {
		t.Fatalf("repro failure lacks context: %v", err2)
	}
	if step2 != step {
		t.Fatalf("repro failed at step %d, original at step %d", step2, step)
	}
	if rep2.InjectedStep != rep.InjectedStep {
		t.Fatalf("repro injected at step %d, original at %d", rep2.InjectedStep, rep.InjectedStep)
	}
}

// TestStreamDeltaConservation replays a concurrent chain with a metrics registry
// attached and checks that the sums of per-step deltas equal the cumulative
// counters: the registry totals, the stream plane's own counters, and the
// engine's sealed per-update stats must all tell the same story.
func TestStreamDeltaConservation(t *testing.T) {
	reg := obs.NewRegistry()
	mode, _ := ModeByName("concurrent")
	var eng *core.Engine
	rep, err := Replay(Config{
		Seed: 11, Length: 25, Mode: mode, Hostile: true, Metrics: reg,
		OnStep: func(step int, rec *StepRecord, res *core.Result, d *storm.Driver) error {
			eng = d.Engine()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	var sumPairs, sumPending int
	for i := range rep.Records {
		sumPairs += rep.Records[i].PairsLogged
		sumPending += rep.Records[i].LazyPending
	}
	var engPairs, engPending, engDrained, engForced, engTransformed, engMoved int
	for _, res := range eng.Updates {
		if res.Outcome != core.Applied {
			continue
		}
		engPairs += res.Stats.PairsLogged
		engPending += res.Stats.LazyPending
		engDrained += res.Stats.LazyDrained
		engForced += res.Stats.LazyForced
		engTransformed += res.Stats.TransformedObjects
		engMoved += res.Stats.MovedObjects
	}
	// A generated chain ships about half its transformers hand-written.
	if engMoved == 0 || engPairs == 0 {
		t.Errorf("chain moved %d objects and paired %d: want both kinds of transformer exercised", engMoved, engPairs)
	}

	checks := []struct {
		name string
		got  int64
		want int64
	}{
		{"updates applied", reg.Counter("govolve_dsu_updates_applied_total").Value(), int64(rep.Applied)},
		{"updates aborted", reg.Counter(obs.MUpdatesAborted).Value(), int64(rep.Aborted)},
		{"stream updates sustained", reg.Counter(obs.MStreamUpdates).Value(), int64(rep.Applied)},
		{"pairs logged (records)", int64(sumPairs), int64(engPairs)},
		{"pairs logged (registry)", reg.Counter("govolve_gc_dsu_pairs_logged_total").Value(), int64(engPairs)},
		{"lazy pending (records)", int64(sumPending), int64(engPending)},
		{"lazy pending (registry)", reg.Counter("govolve_dsu_lazy_pending_total").Value(), int64(engPending)},
		{"lazy drained (registry)", reg.Counter("govolve_dsu_lazy_drained_total").Value(), int64(engDrained)},
		{"lazy forced (registry)", reg.Counter("govolve_dsu_lazy_forced_total").Value(), int64(engForced)},
		{"drain conservation", int64(engDrained + engForced), int64(engPending)},
		{"moved objects (registry)", reg.Counter("govolve_gc_dsu_moved_objects_total").Value(), int64(engMoved)},
		{"transform conservation", int64(engTransformed), int64(engPairs + engMoved)},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s: got %d, want %d", c.name, c.got, c.want)
		}
	}
	if g := reg.Gauge(obs.MStreamBacklog).Value(); g != 0 {
		t.Errorf("drain backlog gauge %v after terminal drain, want 0", g)
	}
}

// TestStreamChainGeneration pins the chain generator's contract: pure
// function of the seed, VM-independent, every step a real non-empty spec.
func TestStreamChainGeneration(t *testing.T) {
	a, err := Generate(5, 30, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(5, 30, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Steps) != 30 || len(b.Steps) != 30 {
		t.Fatalf("got %d/%d steps, want 30", len(a.Steps), len(b.Steps))
	}
	for i := range a.Steps {
		sa, sb := a.Steps[i], b.Steps[i]
		if strings.Join(sa.Mutations, ";") != strings.Join(sb.Mutations, ";") {
			t.Fatalf("step %d: mutation divergence: %v vs %v", i+1, sa.Mutations, sb.Mutations)
		}
		if len(sa.Spec.Diffs) == 0 && len(sa.Spec.AddedClasses) == 0 && len(sa.Spec.DeletedClasses) == 0 {
			t.Fatalf("step %d: empty spec", i+1)
		}
	}
}

// TestStreamReportTimestampFree guards the fingerprint contract: wall-clock
// fields must not leak into it (they differ between replays even in
// deterministic modes).
func TestStreamReportTimestampFree(t *testing.T) {
	r := &Report{Seed: 1, Mode: "serial", Length: 1, Records: []StepRecord{{
		Step: 1, Tag: "1", Outcome: "applied", Attempts: 17,
		PauseTotalMs: 3.5, PauseGCMs: 1.2, PauseTransformMs: 0.9,
	}}}
	fp := r.Fingerprint()
	r.Records[0].Attempts = 99
	r.Records[0].PauseTotalMs = 77
	r.Records[0].PauseGCMs = 66
	r.Records[0].PauseTransformMs = 55
	if r.Fingerprint() != fp {
		t.Fatal("fingerprint depends on wall-clock fields")
	}
}

// goldenVerdictFPs is the verdict analogue of goldenFingerprints: persists
// across -count=N reruns so a second count compares against the first.
var goldenVerdictFPs = map[string]string{}

// TestStreamVerdictDeterminism: every step of a seeded chain carries a
// verdict, an all-green chain passes every one, and the full verdict sequence
// (per-gate pass bits, counts, non-wall-clock observations) is byte-identical
// in-process and across go test -count=2, in every mode.
func TestStreamVerdictDeterminism(t *testing.T) {
	for _, mode := range Modes() {
		cfg := Config{Seed: 42, Length: 20, Mode: mode, Hostile: true}
		a, err := Replay(cfg)
		if err != nil {
			t.Fatalf("mode %s first replay: %v", mode.Name, err)
		}
		for i := range a.Records {
			rec := &a.Records[i]
			if rec.Verdict != "PASS" || rec.VerdictGate != "" {
				t.Fatalf("mode %s step %d: verdict %q gate %q, want all-green PASS",
					mode.Name, rec.Step, rec.Verdict, rec.VerdictGate)
			}
			if rec.VerdictFP == "" {
				t.Fatalf("mode %s step %d: no verdict fingerprint", mode.Name, rec.Step)
			}
		}
		b, err := Replay(cfg)
		if err != nil {
			t.Fatalf("mode %s second replay: %v", mode.Name, err)
		}
		fa, fb := a.VerdictFingerprint(), b.VerdictFingerprint()
		if fa != fb {
			t.Fatalf("mode %s: in-process verdict mismatch:\n--- a ---\n%s\n--- b ---\n%s", mode.Name, fa, fb)
		}
		if prev, ok := goldenVerdictFPs[mode.Name]; ok && prev != fa {
			t.Fatalf("mode %s: cross-run verdict mismatch:\n--- prev ---\n%s\n--- now ---\n%s", mode.Name, prev, fa)
		}
		goldenVerdictFPs[mode.Name] = fa
	}
}

// TestStreamGateHaltStopsChain injects a deterministic regression (a zero
// pause budget: a real pause is always > 0) under the halt policy. The chain
// must stop after the first update with an error naming the violated gate,
// and the step's record must carry the FAIL verdict.
func TestStreamGateHaltStopsChain(t *testing.T) {
	mode, _ := ModeByName("serial")
	rep, err := Replay(Config{
		Seed: 9, Length: 10, Mode: mode,
		GateSpecs: []obs.GateSpec{
			{Name: "pause-budget", Metric: obs.MPauseTotal, Agg: obs.AggSum, Cmp: obs.CmpLE, Threshold: 0, WallClock: true},
		},
		GatePolicy: core.GateHalt,
	})
	if err == nil {
		t.Fatalf("zero pause budget halted nothing (applied=%d)", rep.Applied)
	}
	for _, want := range []string{"chain halted by gate policy", "pause-budget", "seed=9 step=1"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("halt error %q missing %q", err, want)
		}
	}
	if len(rep.Records) != 1 {
		t.Fatalf("records = %d, want the halting step alone", len(rep.Records))
	}
	if rec := rep.Records[0]; rec.Verdict != "FAIL" || rec.VerdictGate != "pause-budget" {
		t.Fatalf("halting record verdict %q gate %q", rec.Verdict, rec.VerdictGate)
	}
}

// TestStreamFusedFrameOSR is the hostile-stream half of base compilation's
// DSU coverage: under the hostile schedule, updates land while worker threads
// are pinned inside hot loops whose code holds superinstructions — every such
// frame must OSR, at the pc it rests at, onto fresh base code at the update
// pause. The chain-wide oracle inside Replay already proves the rewritten
// frames compute the right answers; here we additionally require that the
// path actually fired on frames resting in fused code, so the coverage can't
// silently decay into OSR of code fusion never touched. (Fusion is a function
// of the bytecode, which an OSR keeps: the fresh code a rewritten frame rests
// in holds a superinstruction exactly when the stale code did.)
func TestStreamFusedFrameOSR(t *testing.T) {
	mode, _ := ModeByName("serial")
	osr, fused := 0, 0
	rep, err := Replay(Config{
		Seed: 9, Length: 25, Mode: mode, Hostile: true,
		OnStep: func(step int, rec *StepRecord, res *core.Result, d *storm.Driver) error {
			// The step's rewrites are the newest osr-recompile events; each
			// names the method whose frame, still on its stack, it moved.
			events := d.VM().Rec.Events()
			for i, n := len(events)-1, res.Stats.OSRFrames; i >= 0 && n > 0; i-- {
				if events[i].Kind != obs.KOSRRecompile {
					continue
				}
				n--
				osr++
				if restsInFusedCode(d.VM(), events[i].Str) {
					fused++
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied != 25 {
		t.Fatalf("applied = %d, want 25", rep.Applied)
	}
	if osr == 0 {
		t.Fatal("no update caught a thread on-stack in an invalidated method")
	}
	if fused == 0 {
		t.Fatalf("%d OSR frames but none resting in code with a superinstruction", osr)
	}
	t.Logf("osr frames=%d in fused code=%d", osr, fused)
}

// restsInFusedCode reports whether a frame of the named method rests in base
// code that holds a superinstruction.
func restsInFusedCode(v *vm.VM, method string) bool {
	for _, th := range v.Threads {
		for _, f := range th.Frames {
			if f.CM.Level == rt.Base && f.Method().FullName() == method && f.CM.HoldsSuperinstruction() {
				return true
			}
		}
	}
	return false
}
