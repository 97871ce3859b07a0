package apps

import (
	"testing"

	"govolve/internal/core"
)

// checkPauseIdentity asserts the core.Stats accounting identities that hold
// for every applied update regardless of VM configuration: the measured
// phases are disjoint slices of the total pause, so
//
//	PauseTotal >= PauseInstall + PauseGC + PauseTransform
//	PauseGC >= PauseRescan + PauseCopy
//
// and every updated instance was transformed exactly once, by a transformer
// run over its pair or by the collector's move (the RunMatrix pipelines are
// eager, so the law holds as the pause ends):
//
//	TransformedObjects == PairsLogged + MovedObjects
//
// A violation means a timer was started in the wrong place or a phase is
// being double-counted — exactly the kind of bug that would silently skew
// Table 1, BENCH_pause.json, and the obs pause histograms.
func checkPauseIdentity(t *testing.T, mode string, e MatrixEntry) {
	t.Helper()
	s := e.Stats
	if s.PauseTotal < s.PauseInstall+s.PauseGC+s.PauseTransform {
		t.Errorf("%s %s %s→%s: PauseTotal %v < install %v + gc %v + transform %v",
			mode, e.App, e.From, e.To, s.PauseTotal, s.PauseInstall, s.PauseGC, s.PauseTransform)
	}
	if s.TransformedObjects != s.PairsLogged+s.MovedObjects {
		t.Errorf("%s %s %s→%s: transformed %d != pairs logged %d + moved %d",
			mode, e.App, e.From, e.To, s.TransformedObjects, s.PairsLogged, s.MovedObjects)
	}
	if s.PauseGC < s.PauseRescan+s.PauseCopy {
		t.Errorf("%s %s %s→%s: PauseGC %v < rescan %v + copy %v",
			mode, e.App, e.From, e.To, s.PauseGC, s.PauseRescan, s.PauseCopy)
	}
	if s.PauseTotal <= 0 {
		t.Errorf("%s %s %s→%s: applied update with non-positive PauseTotal %v",
			mode, e.App, e.From, e.To, s.PauseTotal)
	}
	if s.SafePointDelay < 0 {
		t.Errorf("%s %s %s→%s: negative SafePointDelay %v", mode, e.App, e.From, e.To, s.SafePointDelay)
	}
}

// TestPauseDecompositionInvariant drives every application's whole update
// matrix under the default stop-the-world pipeline and checks the pause
// identities plus the STW decomposition. The decomposition is uniform
// across modes: the fused trace+copy of the STW collector is all PauseCopy
// and the concurrent-only fields must be zero.
func TestPauseDecompositionInvariant(t *testing.T) {
	applied := 0
	for _, app := range All() {
		entries, err := RunMatrix(app, 1<<20)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		for _, e := range entries {
			if e.Outcome != core.Applied {
				continue
			}
			applied++
			checkPauseIdentity(t, "stw", e)
			s := e.Stats
			if s.MarkConcurrent {
				t.Errorf("stw %s %s→%s: MarkConcurrent set without Concurrent", e.App, e.From, e.To)
			}
			if s.PauseCopy <= 0 {
				t.Errorf("stw %s %s→%s: fused collection reports no in-pause copy time", e.App, e.From, e.To)
			}
			if s.Relocated || s.MarkOutside != 0 || s.PauseRescan != 0 || s.RescanMarked != 0 {
				t.Errorf("stw %s %s→%s: concurrent-only fields nonzero: reloc %v outside %v rescan %v rescanMarked %d",
					e.App, e.From, e.To, s.Relocated, s.MarkOutside, s.PauseRescan, s.RescanMarked)
			}
		}
	}
	if applied == 0 {
		t.Fatal("matrix produced no applied updates; the invariant was never exercised")
	}
}

// TestPauseDecompositionInvariantConcurrentMark re-runs the full matrix with
// Concurrent set. Updates that complete a concurrent trace must report its
// time outside the pause and leave a relocation draining; the bounded-restart
// fallback (MarkConcurrent=false despite the option) must satisfy the fused
// decomposition instead.
func TestPauseDecompositionInvariantConcurrentMark(t *testing.T) {
	applied, concurrent := 0, 0
	for _, app := range All() {
		entries, err := RunMatrixOpts(app, LaunchOptions{
			HeapWords:  1 << 20,
			Concurrent: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		for _, e := range entries {
			if e.Outcome != core.Applied {
				continue
			}
			applied++
			checkPauseIdentity(t, "concurrent", e)
			s := e.Stats
			if s.MarkConcurrent {
				concurrent++
				if !s.Relocated {
					t.Errorf("concurrent %s %s→%s: consumed mark left no relocation", e.App, e.From, e.To)
				}
				if s.MarkOutside <= 0 {
					t.Errorf("concurrent %s %s→%s: concurrent run reports no outside-pause mark time",
						e.App, e.From, e.To)
				}
				if s.MarkedObjects <= 0 {
					t.Errorf("concurrent %s %s→%s: concurrent trace marked nothing", e.App, e.From, e.To)
				}
			} else {
				// STW fallback after mark restarts exhausted: fused rules.
				if s.PauseCopy <= 0 || s.Relocated || s.MarkOutside != 0 {
					t.Errorf("concurrent %s %s→%s: fallback run has wrong decomposition: %+v",
						e.App, e.From, e.To, s)
				}
			}
		}
	}
	if applied == 0 {
		t.Fatal("matrix produced no applied updates")
	}
	if concurrent == 0 {
		t.Fatal("no update completed a concurrent mark; the pipeline never engaged")
	}
}
