package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"govolve/internal/core"
)

var (
	specOnce sync.Once
	testSpec *benchSpec
)

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	specOnce.Do(func() {
		spec, _, err := loadSpec()
		if err != nil {
			t.Fatal(err)
		}
		declareMetrics(spec)
		testSpec = spec
	})
	if testSpec == nil {
		t.Fatal("BENCHMARK.json did not load")
	}
	return testSpec
}

// smoke runs one workload at smoke size.
func smoke(t *testing.T, name string, trace bool, orc *oracles) *outcome {
	t.Helper()
	loadTestSpec(t)
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	out, err := w.run(config{workload: name, seed: 1, seconds: 1, trace: trace, smoke: true, outDir: t.TempDir()}, orc)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Every workload reports every end-to-end metric, non-zero and with a
// unit, and fails no operation.
func TestEndToEndMetrics(t *testing.T) {
	spec := loadTestSpec(t)
	for _, w := range workloads {
		out := smoke(t, w.name, false, defaultOracles())
		if out.failed != 0 || out.attempted == 0 {
			t.Errorf("%s: %d failed of %d", w.name, out.failed, out.attempted)
		}
		line := out.resultLine(spec, false)
		if len(line.Metrics) != len(spec.EndToEnd) {
			t.Errorf("%s: %d metrics in the result line, %d declared", w.name, len(line.Metrics), len(spec.EndToEnd))
		}
		for _, d := range spec.EndToEnd {
			if _, set := out.values[d.Name]; !set {
				t.Errorf("%s does not measure %s", w.name, d.Name)
			}
			if m := line.Metrics[d.Name]; m.Value <= 0 || m.Unit == "" {
				t.Errorf("%s: %s = %v %q, want a positive value with a unit", w.name, d.Name, m.Value, m.Unit)
			}
		}
	}
}

// The per-layer names the workloads emit are exactly the names declared in
// BENCHMARK.json: no declared metric that nothing measures, and (through
// outcome.set) no measured metric that is not declared.
func TestPerLayerNamesMatchSpec(t *testing.T) {
	spec := loadTestSpec(t)
	emitted := map[string]bool{}
	for _, w := range workloads {
		out := smoke(t, w.name, true, defaultOracles())
		if out.failed != 0 {
			t.Errorf("%s: %d failed of %d", w.name, out.failed, out.attempted)
		}
		for name := range out.values {
			emitted[name] = true
		}
		if n := len(out.resultLine(spec, true).Metrics); n != len(spec.PerLayer) {
			t.Errorf("%s: %d metrics in the result line, %d declared", w.name, n, len(spec.PerLayer))
		}
		if _, err := os.Stat(out.traceFile); err != nil {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}
	}
	seen := map[string]bool{}
	for _, list := range [][]metricDecl{spec.EndToEnd, spec.PerLayer} {
		for _, d := range list {
			if !metricName.MatchString(d.Name) {
				t.Errorf("metric name %q is outside [A-Za-z0-9_.-]{1,64}", d.Name)
			}
			if d.Unit == "" {
				t.Errorf("metric %s has no unit", d.Name)
			}
			if seen[d.Name] {
				t.Errorf("metric %s is declared twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	for _, d := range spec.PerLayer {
		if !emitted[d.Name] {
			t.Errorf("no workload measures the declared per-layer metric %s", d.Name)
		}
	}
	declared := map[string]bool{}
	for _, d := range spec.Workloads {
		declared[d.Name] = true
	}
	for _, w := range workloads {
		if !declared[w.name] {
			t.Errorf("workload %s is not declared in BENCHMARK.json", w.name)
		}
	}
	if len(declared) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program has %d", len(declared), len(workloads))
	}
}

// Counts of guest and engine work repeat exactly between two runs.
func TestExactCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		a := smoke(t, w.name, true, defaultOracles())
		b := smoke(t, w.name, true, defaultOracles())
		for _, name := range exactCounts {
			if a.values[name] != b.values[name] {
				t.Errorf("%s: %s = %v then %v", w.name, name, a.values[name], b.values[name])
			}
		}
		if a.attempted != b.attempted {
			t.Errorf("%s: attempted %d then %d", w.name, a.attempted, b.attempted)
		}
	}
	a := smoke(t, "release-replay", true, defaultOracles())
	if a.values["core.applied"] != 20 || a.values["core.aborted_expected"] != 2 || a.values["upt.specs"] != 22 {
		t.Errorf("release-replay: applied %v, aborted as expected %v, specs %v; want 20, 2, 22",
			a.values["core.applied"], a.values["core.aborted_expected"], a.values["upt.specs"])
	}
}

// The spans account for all of the traced time: their self times sum to
// the wall time measured around the traced units, within 2%.
func TestTraceSelfTimesCoverWall(t *testing.T) {
	for _, w := range workloads {
		out := smoke(t, w.name, true, defaultOracles())
		if out.tracedWall <= 0 {
			t.Fatalf("%s: no traced wall time", w.name)
		}
		if off := math.Abs(float64(out.tracedSelf-out.tracedWall)) / float64(out.tracedWall); off > 0.02 {
			t.Errorf("%s: span self times sum to %v, traced wall time is %v (%.1f%% apart)",
				w.name, out.tracedSelf, out.tracedWall, off*100)
		}
	}
	out := smoke(t, "web-steady", true, defaultOracles())
	sum := out.values["driver.self_share"] + out.values["netsim.client_share"] + out.values["vm.step_share"]
	if math.Abs(sum-1) > 0.02 {
		t.Errorf("web-steady layer shares sum to %v, want 1.00 ± 0.02", sum)
	}
}

// Each oracle, handed one deliberately wrong expectation, counts failures.
func TestOraclesCountFailures(t *testing.T) {
	cases := []struct {
		oracle, workload string
		corrupt          func(*oracles)
	}{
		{"web response line", "web-steady", func(o *oracles) { o.web["GET /news"] = "200 mini-jetty/5.1.5 text/html release notes" }},
		{"kernel checksum", "guest-compute", func(o *oracles) {
			o.kernels["fib"] = func(p kernelParams) int64 { return fibRef(p.fibN, p.fibA, p.fibB) + 1 }
		}},
		{"pause update outcome", "update-pause", func(o *oracles) { o.pauseOutcome = core.Aborted }},
		{"pause heap sweep", "update-pause", func(o *oracles) {
			o.pauseField = func(seed int64, i, k int) int64 { return pauseFieldValue(seed, i, k) + 1 }
		}},
		{"replay update outcome", "release-replay", func(o *oracles) {
			o.updates["webserver 5.1.2→5.1.3"] = o.updates["webserver 5.1.0→5.1.1"]
		}},
		{"replay probe line", "release-replay", func(o *oracles) { o.probe["ftpserver 1.06"] = "331 password required by CrossFTP/1.05" }},
		{"replay batch responses", "release-replay", func(o *oracles) { o.batchResponses["emailserver"] = 7 }},
	}
	for _, c := range cases {
		orc := defaultOracles()
		c.corrupt(orc)
		out := smoke(t, c.workload, false, orc)
		if out.failed == 0 {
			t.Errorf("%s: a wrong expectation left failed at 0 of %d", c.oracle, out.attempted)
		}
		if out.resultLine(loadTestSpec(t), false).Correct {
			t.Errorf("%s: a wrong expectation left the run correct", c.oracle)
		}
	}
}

func TestEstimators(t *testing.T) {
	var s series
	for i := 1; i <= 101; i++ {
		s.add(float64(i))
	}
	if got := s.floor(); got != 3 {
		t.Errorf("floor of 1..101 = %v, want 3", got)
	}
	if got := s.median(); got != 51 {
		t.Errorf("median of 1..101 = %v, want 51", got)
	}
	// A plateau at the floor: most repetitions are within 10% of it.
	plateau := series{100, 101, 102, 103, 104, 105, 106, 180, 181, 182}
	if got := plateau.fastPhaseShare(); got != 0.7 {
		t.Errorf("fast-phase share of a plateau = %v, want 0.7", got)
	}
	// A thin fast tail: the floor sits on a slope.
	var tail series
	for i := 0; i < 100; i++ {
		tail.add(100 + 10*float64(i))
	}
	if got := tail.fastPhaseShare(); got >= minFastPhaseShare {
		t.Errorf("fast-phase share of a slope = %v, want below %v", got, minFastPhaseShare)
	}
}

func writeResults(t *testing.T, dir, name string, host hostStamp, work float64, specs float64, failed int64) string {
	t.Helper()
	e2e := map[string]metricValue{
		"work_ms": {work, "ms"}, "wait_ms": {1, "ms"}, "rss_mb": {50, "MB"}, "setup_s": {0.1, "s"},
	}
	layer := map[string]metricValue{"upt.specs": {specs, "count"}}
	file := resultFile{Host: host, Runs: []runRecord{
		{Workload: "release-replay", Trace: 0, resultLine: resultLine{Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: e2e}},
		{Workload: "release-replay", Trace: 1, resultLine: resultLine{Correct: true, Attempted: 100, Metrics: layer}},
	}}
	data, err := json.Marshal(file)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func boundOf(t *testing.T, spec *benchSpec, name string) float64 {
	t.Helper()
	for _, d := range spec.EndToEnd {
		if d.Name == name {
			return d.Bound
		}
	}
	t.Fatalf("no end-to-end metric %s", name)
	return 0
}

func TestCompare(t *testing.T) {
	spec := loadTestSpec(t)
	dir := t.TempDir()
	host := hostStamp{NProc: 2, GOMAXPROCS: 2, Go: "go", Seed: 1, Seconds: 25}
	base := writeResults(t, dir, "base.json", host, 20, 22, 0)
	compare := func(other string) error {
		var sb strings.Builder
		return compareFiles(&sb, spec, base, other)
	}
	if err := compare(writeResults(t, dir, "same.json", host, 21, 22, 0)); err != nil {
		t.Errorf("5%% worse is inside the bound, got: %v", err)
	}
	if err := compare(writeResults(t, dir, "worse.json", host, 20*(1+boundOf(t, spec, "work_ms")+0.05), 22, 0)); err == nil {
		t.Error("5 points beyond the bound passed")
	}
	if err := compare(writeResults(t, dir, "failed.json", host, 20, 22, 1)); err == nil {
		t.Error("a failed operation passed")
	}
	if err := compare(writeResults(t, dir, "count.json", host, 20, 21, 0)); err == nil {
		t.Error("a differing exact count passed")
	}
	otherSeed := host
	otherSeed.Seed = 2
	if err := compare(writeResults(t, dir, "seed.json", otherSeed, 20, 22, 0)); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Errorf("differing seeds were compared: %v", err)
	}
	otherHost := host
	otherHost.NProc = 4
	if err := compare(writeResults(t, dir, "host.json", otherHost, 20, 22, 0)); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Errorf("differing nproc were compared: %v", err)
	}
}
