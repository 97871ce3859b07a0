package bench

import (
	"io"
	"strings"
	"testing"
	"time"

	"govolve/internal/apps"
	"govolve/internal/obs"
)

// TestFig5TraceCapturesUpdateLifecycle pins the headline observability
// acceptance criterion end-to-end: running the updated fig5 configuration
// with a flight recorder attached yields a timeline containing the
// install/gc/transform phase spans and at least one safe-point-attempt
// instant, and the exported Chrome trace is valid for Perfetto.
func TestFig5TraceCapturesUpdateLifecycle(t *testing.T) {
	app := apps.Webserver()
	rec := obs.NewRecorder(obs.DefaultCapacity)
	reg := obs.NewRegistry()
	cfg := Fig5Config{Label: "updated", Engine: true, UpdateFrom: 5, MeasureVersion: 6}
	opts := Fig5Options{
		Runs:     1,
		Duration: 30 * time.Millisecond,
		Heap:     1 << 20,
		Recorder: rec,
		Metrics:  reg,
	}
	if _, err := RunFig5(app, []Fig5Config{cfg}, opts, io.Discard); err != nil {
		t.Fatal(err)
	}

	doc := obs.BuildTrace(rec.Events())
	spans := map[string]int{}
	instants := map[string]int{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			spans[e.Name]++
		case "i":
			instants[e.Name]++
		}
	}
	for _, want := range []string{"update pause", "install", "gc", "transform"} {
		if spans[want] == 0 {
			t.Errorf("trace has no %q span (spans: %v)", want, spans)
		}
	}
	if instants["safe-point attempt"] == 0 {
		t.Errorf("trace has no safe-point-attempt instant (instants: %v)", instants)
	}
	if instants["update applied"] == 0 {
		t.Errorf("trace has no update-applied instant (instants: %v)", instants)
	}

	// The engine observed the applied update into the pause histograms.
	if n := reg.Histogram(obs.MPauseTotal, obs.DurationBuckets()).Count(); n == 0 {
		t.Error("MPauseTotal histogram is empty after an applied update")
	}
	if n := reg.Counter(obs.MUpdatesApplied).Value(); n != 1 {
		t.Errorf("MUpdatesApplied = %d, want 1", n)
	}

	// The exported trace document round-trips as JSON (WriteChromeTrace is
	// unit-tested in obs; here we only check it accepts the real event set).
	var b strings.Builder
	if err := obs.WriteChromeTrace(&b, rec.Events()); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(strings.TrimSpace(b.String()), "{") {
		t.Fatal("trace export is not a JSON object")
	}
}

// TestRunObsPauseSmall exercises the obs experiment end to end at a tiny
// size: both the E1 (webserver under the engine) and micro rows must
// populate their histograms.
func TestRunObsPauseSmall(t *testing.T) {
	rep, err := RunObsPause(ObsPauseOptions{
		Runs:         1,
		MicroObjects: 5000,
		Heap:         1 << 20,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (E1 + micro)", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row.Updates == 0 {
			t.Errorf("row %q observed no updates", row.Config)
		}
		if row.TotalMs.Count == 0 || row.TotalMs.P99Ms < row.TotalMs.P50Ms {
			t.Errorf("row %q total histogram %+v", row.Config, row.TotalMs)
		}
		// Every sampled update was judged, and an all-green run passes.
		if row.GatePass != int64(row.Updates) || row.GateFail != 0 {
			t.Errorf("row %q gates %d pass / %d fail, want %d / 0",
				row.Config, row.GatePass, row.GateFail, row.Updates)
		}
		if !strings.Contains(row.LastVerdict, "PASS") {
			t.Errorf("row %q last verdict %q", row.Config, row.LastVerdict)
		}
	}
	// The E1 row carries the profiler's version-attributed view.
	e1 := rep.Rows[0]
	if e1.ProfileSamples == 0 || len(e1.ProfileTop) == 0 {
		t.Fatalf("E1 row has no profile columns: %d samples, top %v",
			e1.ProfileSamples, e1.ProfileTop)
	}
	if !strings.Contains(e1.ProfileTop[0], "@c") {
		t.Errorf("top folded stack %q lacks a class-version discriminator", e1.ProfileTop[0])
	}
}
