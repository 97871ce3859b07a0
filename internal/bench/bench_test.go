package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"govolve/internal/apps"
	"govolve/internal/vm"
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

// TestRunMicroLazy pins the on-touch half of the concurrent decomposition:
// the measured pause excludes transformer execution entirely (the pause
// leaves every pair to the relocation and the read barrier), the whole
// population drains post-pause, and the final count matches the serial
// mode's. Only pairs are pending, so the rows run the hand-written
// transformer.
func TestRunMicroLazy(t *testing.T) {
	lazy, err := RunMicro(MicroConfig{Objects: 20000, FracUpdated: 1, Concurrent: true, HandWritten: true})
	if err != nil {
		t.Fatal(err)
	}
	if lazy.LazyPending != 20000 || lazy.LazyForced != 20000 {
		t.Fatalf("forced %d of %d pending objects, want 20000", lazy.LazyForced, lazy.LazyPending)
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
	// The concurrent pause omits the transformer pass; with the whole heap
	// updated that pass dominates, so the in-pause transform time must be
	// a small fraction of the serial one (≈0; allow scheduler noise).
	if eager.PauseTransform <= 0 {
		t.Fatalf("serial transform time %v, want > 0", eager.PauseTransform)
	}
	if lazy.PauseTransform > eager.PauseTransform/4 {
		t.Fatalf("concurrent in-pause transform %v not ≈0 (serial %v)", lazy.PauseTransform, eager.PauseTransform)
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

// TestTable1ViewIsSerialMedians pins what -exp table1 prints: every cell of
// Table 1's row groups, of E9's tail-share group and of Figure 6's series is
// a serial row's median (or word counts) as the grid measured it, and E7's
// speedup is computed from those medians alone.
func TestTable1ViewIsSerialMedians(t *testing.T) {
	fracs := []float64{0, 0.5, 1}
	rep, err := RunPauseCmp(PauseCmpSweep{
		Sizes: []int{2000, 5000}, Fractions: fracs,
		Runs:  3, // the median: the process's first, cold run cannot decide alone
		Modes: vm.Modes()[:1],
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	row := func(objects int, frac float64, transformer string) *PauseCmpRow {
		for i := range rep.Rows {
			if r := &rep.Rows[i]; r.Objects == objects && r.FracUpdated == frac && r.Transformer == transformer {
				return r
			}
		}
		t.Fatalf("no row %d/%v/%s", objects, frac, transformer)
		return nil
	}
	// A transformer run per object makes the 100 % pause cost more than the
	// 0 % one by the paper's margin.
	if hw0, hw1 := row(5000, 0, "handwritten"), row(5000, 1, "handwritten"); !(hw1.PauseTotalMillis.Median > hw0.PauseTotalMillis.Median) {
		t.Fatalf("pause not increasing with fraction: %v vs %v", hw0.PauseTotalMillis.Median, hw1.PauseTotalMillis.Median)
	}

	gc := func(r *PauseCmpRow) float64 { return r.GCMillis.Median }
	tr := func(r *PauseCmpRow) float64 { return r.TransformMillis.Median }
	total := func(r *PauseCmpRow) float64 { return r.PauseTotalMillis.Median }
	groups := map[string]func(*PauseCmpRow) float64{
		"Garbage collection time (ms)":          gc,
		"Running transformation functions (ms)": tr,
		"Total DSU pause time (ms)":             total,
		"E9: old copies in from-space's tail (% of copied words)": func(r *PauseCmpRow) float64 {
			return 100 * float64(r.TailWords) / float64(r.CopiedWords)
		},
	}
	same := func(got string, want float64) {
		t.Helper()
		if w := fmt.Sprintf("%.2f", want); got != w {
			t.Errorf("printed %s, row median %s", got, w)
		}
	}
	var b strings.Builder
	PrintTable1(&b, rep.Rows)
	var pick func(*PauseCmpRow) float64
	var section, transformer string
	cells := 0
	for _, line := range strings.Split(b.String(), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0:
			section, pick = "", nil
		case strings.HasPrefix(line, "Figure 6"):
			section = "fig6"
		case strings.HasPrefix(line, "E7:"):
			section = "e7"
		case section == "" && strings.Contains(line, ", "):
			title, tf, _ := strings.Cut(line, ", ")
			section, pick, transformer = "group", groups[title], tf
			if pick == nil {
				t.Fatalf("unknown row group %q", title)
			}
		case section == "group" && f[0] != "#":
			objects, _ := strconv.Atoi(f[0])
			for i, tok := range f[2:] {
				same(tok, pick(row(objects, fracs[i], transformer)))
				cells++
			}
		case section == "fig6" && strings.HasSuffix(f[0], "%"):
			pct, _ := strconv.ParseFloat(strings.TrimSuffix(f[0], "%"), 64)
			for j, tf := range []string{"handwritten", "moved"} {
				r := row(5000, pct/100, tf)
				for k, p := range []func(*PauseCmpRow) float64{gc, tr, total} {
					same(f[1+3*j+k], p(r))
					cells++
				}
			}
		case section == "e7":
			objects, _ := strconv.Atoi(f[0])
			hw, mv := row(objects, 1, "handwritten"), row(objects, 1, "moved")
			if want := fmt.Sprintf("%.2fx", (gc(hw)+tr(hw))/(gc(mv)+tr(mv))); f[1] != want {
				t.Errorf("E7 %d objects: printed %s, medians give %s", objects, f[1], want)
			}
			cells++
		}
	}
	// 3 Table 1 groups × 2 transformers and E9's group over 2 sizes × 3
	// fractions, Figure 6's 3 fractions × 6 series, and E7's 2 sizes.
	if want := 7*2*3 + 3*6 + 2; cells != want {
		t.Fatalf("checked %d printed cells, want %d:\n%s", cells, want, b.String())
	}
}

// TestWriteReportHostStamp pins the one BENCH writer's overwrite rule: an
// unstamped file or one this host stamped is replaced, a file another host
// stamped is kept and both stamps are named.
func TestWriteReportHostStamp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := os.WriteFile(path, []byte(`{"experiment": "old", "gomaxprocs": 2, "num_cpu": 2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rep := &Report[int]{Experiment: "test", Host: ThisHost(), Rows: []int{1}}
	if err := WriteReport(path, rep); err != nil {
		t.Fatalf("unstamped file not overwritten: %v", err)
	}
	if err := WriteReport(path, rep); err != nil {
		t.Fatalf("own stamp not overwritten: %v", err)
	}
	other := *rep
	other.Host.NumCPU++
	err := WriteReport(path, &other)
	if err == nil || !strings.Contains(err.Error(), rep.Host.String()) || !strings.Contains(err.Error(), other.Host.String()) {
		t.Fatalf("another host's file: %v", err)
	}
	data, _ := os.ReadFile(path)
	var kept Report[int]
	if err := json.Unmarshal(data, &kept); err != nil || kept.Host != rep.Host {
		t.Fatalf("file after refusal: %s (%v)", data, err)
	}
	// The build stamp: go test stamps no commit, a binary from go build
	// does. Another commit on this machine re-records the file, and the file
	// then names that commit and whether its tree was modified.
	if rep.Host.Commit != "" || rep.Host.Modified {
		t.Fatalf("a test binary stamped commit %q modified %v", rep.Host.Commit, rep.Host.Modified)
	}
	built := *rep
	built.Host.Commit, built.Host.Modified = "b3b61de3dd0e890b37fec30379a2ce33722bc381", true
	if err := WriteReport(path, &built); err != nil {
		t.Fatalf("another commit's file not overwritten: %v", err)
	}
	data, _ = os.ReadFile(path)
	if err := json.Unmarshal(data, &kept); err != nil || kept.Host != built.Host ||
		!strings.Contains(string(data), `"commit": "b3b61de3dd0e890b37fec30379a2ce33722bc381"`) ||
		!strings.Contains(string(data), `"modified": true`) {
		t.Fatalf("file after a stamped build: %s (%v)", data, err)
	}
	if s := built.Host.String(); !strings.HasSuffix(s, ", commit b3b61de3dd0e890b37fec30379a2ce33722bc381 (modified)") {
		t.Fatalf("stamp prints as %q", s)
	}
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
