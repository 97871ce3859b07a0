package bench

import (
	"io"
	"math"
	"testing"
	"time"

	"govolve/internal/apps"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{5, 1, 3, 2, 4})
	if s.Median != 3 || s.Min != 1 || s.Max != 5 || s.N != 5 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Q1 != 2 || s.Q3 != 4 {
		t.Fatalf("quartiles = %v, %v", s.Q1, s.Q3)
	}
	if got := Summarize(nil); got.N != 0 {
		t.Fatal("empty sample")
	}
	one := Summarize([]float64{7})
	if one.Median != 7 || one.Q1 != 7 || one.Q3 != 7 {
		t.Fatalf("singleton = %+v", one)
	}
}

func TestRunMicroCountsAndShape(t *testing.T) {
	// Small grid; checks the invariants the paper's Table 1 exhibits (its
	// configuration: a transformer run per updated object): transformer
	// time ≈ 0 at fraction 0 and grows with the fraction, and total ≥ GC +
	// transform parts.
	r0, err := RunMicro(MicroConfig{Objects: 20000, FracUpdated: 0, HandWritten: true})
	if err != nil {
		t.Fatal(err)
	}
	if r0.TransformedObjects != 0 {
		t.Fatalf("fraction 0 transformed %d objects", r0.TransformedObjects)
	}
	r100, err := RunMicro(MicroConfig{Objects: 20000, FracUpdated: 1, HandWritten: true})
	if err != nil {
		t.Fatal(err)
	}
	if r100.TransformedObjects != 20000 || r100.PairsLogged != 20000 {
		t.Fatalf("fraction 1 transformed %d objects over %d pairs", r100.TransformedObjects, r100.PairsLogged)
	}
	// The generated default instead: the same objects, transformed by the
	// collector — no pair, nothing left for the transformer phase.
	m100, err := RunMicro(MicroConfig{Objects: 20000, FracUpdated: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m100.TransformedObjects != 20000 || m100.MovedObjects != 20000 || m100.PairsLogged != 0 {
		t.Fatalf("default transformer: %d transformed, %d moved, %d pairs", m100.TransformedObjects, m100.MovedObjects, m100.PairsLogged)
	}
	if m100.PauseTransform > r100.PauseTransform/4 {
		t.Fatalf("moved update still spent %v in the transformer phase (hand-written: %v)", m100.PauseTransform, r100.PauseTransform)
	}
	if r100.PauseTransform <= r0.PauseTransform {
		t.Fatalf("transform time did not grow: %v vs %v", r0.PauseTransform, r100.PauseTransform)
	}
	if r100.PauseTotal < r100.PauseGC || r100.PauseTotal < r100.PauseTransform {
		t.Fatalf("total %v below components (%v gc, %v tr)", r100.PauseTotal, r100.PauseGC, r100.PauseTransform)
	}
}

// TestRunMicroLazy pins the lazy-transform decomposition: the measured
// pause excludes transformer execution entirely (the pause only tags), the
// whole population drains post-pause, and the final count matches eager. Only
// pairs are tagged, so the rows run the hand-written transformer.
func TestRunMicroLazy(t *testing.T) {
	lazy, err := RunMicro(MicroConfig{Objects: 20000, FracUpdated: 1, Lazy: true, HandWritten: true})
	if err != nil {
		t.Fatal(err)
	}
	if lazy.LazyPending != 20000 {
		t.Fatalf("lazy pause tagged %d objects, want 20000", lazy.LazyPending)
	}
	if lazy.TransformedObjects != 20000 {
		t.Fatalf("drain transformed %d objects, want 20000", lazy.TransformedObjects)
	}
	if lazy.Drain <= 0 {
		t.Fatalf("forced drain took %v, want > 0", lazy.Drain)
	}
	eager, err := RunMicro(MicroConfig{Objects: 20000, FracUpdated: 1, HandWritten: true})
	if err != nil {
		t.Fatal(err)
	}
	// The lazy pause omits the transformer pass; with the whole heap
	// updated that pass dominates, so the in-pause transform time must be
	// a small fraction of the eager one (≈0; allow scheduler noise).
	if eager.PauseTransform <= 0 {
		t.Fatalf("eager transform time %v, want > 0", eager.PauseTransform)
	}
	if lazy.PauseTransform > eager.PauseTransform/4 {
		t.Fatalf("lazy in-pause transform %v not ≈0 (eager %v)", lazy.PauseTransform, eager.PauseTransform)
	}
}

func TestRunMicroValidation(t *testing.T) {
	if _, err := RunMicro(MicroConfig{Objects: 0}); err == nil {
		t.Fatal("zero objects accepted")
	}
	if _, err := RunMicro(MicroConfig{Objects: 10, FracUpdated: 2}); err == nil {
		t.Fatal("fraction 2 accepted")
	}
}

func TestRunSweepSmall(t *testing.T) {
	cells, err := RunSweep(MicroSweep{
		Sizes:     []MicroConfig{{Objects: 5000, HeapLabel: "tiny", HandWritten: true}},
		Fractions: []float64{0, 0.5, 1},
		Runs:      3, // the median: the process's first, cold run cannot decide alone
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("%d cells", len(cells))
	}
	// Monotone-ish: the 100% cell must cost more than the 0% cell (by the
	// paper's margin — a transformer run per object — so one cold run cannot
	// invert it; under moved defaults the gap is a fraction of the collection).
	if !(cells[2].Total.Median > cells[0].Total.Median) {
		t.Fatalf("pause not increasing with fraction: %v vs %v",
			cells[0].Total.Median, cells[2].Total.Median)
	}
	PrintTable1(io.Discard, []MicroConfig{{Objects: 5000, HeapLabel: "tiny"}},
		[]float64{0, 0.5, 1}, cells)
	PrintFig6(io.Discard, []MicroConfig{{Objects: 5000, HeapLabel: "tiny"}},
		[]float64{0, 0.5, 1}, cells)
}

func TestSummarizeTables(t *testing.T) {
	for _, app := range apps.All() {
		rows, err := SummarizeApp(app)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if len(rows) != app.UpdateCount() {
			t.Fatalf("%s: %d rows", app.Name, len(rows))
		}
		PrintTable(io.Discard, app, rows)
	}
	// Spot-check the Figure 2 release: 1.3.2 adds EmailAddress and
	// changes User signatures.
	email := apps.EmailServer()
	rows, err := SummarizeApp(email)
	if err != nil {
		t.Fatal(err)
	}
	var r132 *TableRow
	for i := range rows {
		if rows[i].Version == "1.3.2" {
			r132 = &rows[i]
		}
	}
	if r132 == nil {
		t.Fatal("no 1.3.2 row")
	}
	if r132.ClassesAdded != 1 {
		t.Fatalf("1.3.2 classes added = %d, want 1 (EmailAddress)", r132.ClassesAdded)
	}
	if r132.MethodsSig < 2 {
		t.Fatalf("1.3.2 signature changes = %d, want ≥2 (get/setForwardedAddresses)", r132.MethodsSig)
	}
	if r132.FieldsChg < 1 {
		t.Fatalf("1.3.2 field type changes = %d, want ≥1 (forwardAddresses)", r132.FieldsChg)
	}
}

func TestFig5Tiny(t *testing.T) {
	app := apps.Webserver()
	results, err := RunFig5(app, DefaultFig5Configs(app),
		Fig5Options{Runs: 2, Duration: 40 * time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d configs", len(results))
	}
	for _, r := range results {
		if r.Throughput.Median <= 0 {
			t.Fatalf("%s: zero throughput", r.Config.Label)
		}
		if math.IsNaN(r.Latency.Median) || r.Latency.Median <= 0 {
			t.Fatalf("%s: bad latency", r.Config.Label)
		}
	}
	PrintFig5(io.Discard, results)
}

func TestAblationTiny(t *testing.T) {
	res, err := RunAblation(apps.Webserver(), 2, 40*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Eager.Median <= 0 || res.Lazy.Median <= 0 {
		t.Fatalf("ablation arm did not run: eager %v lazy %v", res.Eager.Median, res.Lazy.Median)
	}
	PrintAblation(io.Discard, res)
}
