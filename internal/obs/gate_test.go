package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestCompareAllComparators walks every comparator over below/equal/above
// readings, plus the fail-closed path for an unknown comparator.
func TestCompareAllComparators(t *testing.T) {
	cases := []struct {
		cmp                 Comparator
		below, equal, above bool // compare(obs, cmp, 5) for obs = 4, 5, 6
	}{
		{CmpLE, true, true, false},
		{CmpLT, true, false, false},
		{CmpGE, false, true, true},
		{CmpGT, false, false, true},
		{CmpEQ, false, true, false},
		{CmpNE, true, false, true},
		{Comparator("~="), false, false, false}, // unknown fails closed
	}
	for _, c := range cases {
		if got := compare(4, c.cmp, 5); got != c.below {
			t.Errorf("compare(4, %q, 5) = %v, want %v", c.cmp, got, c.below)
		}
		if got := compare(5, c.cmp, 5); got != c.equal {
			t.Errorf("compare(5, %q, 5) = %v, want %v", c.cmp, got, c.equal)
		}
		if got := compare(6, c.cmp, 5); got != c.above {
			t.Errorf("compare(6, %q, 5) = %v, want %v", c.cmp, got, c.above)
		}
	}
}

func TestGateEvalDelta(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("evil_total")
	c.Add(3)
	before := reg.TakeSnapshot()
	c.Add(2)
	after := reg.TakeSnapshot()

	spec := GateSpec{Name: "g", Metric: "evil_total", Agg: AggDelta, Cmp: CmpLE, Threshold: 0}
	res := spec.eval(before, nil, after)
	if res.Pass || res.Observed != 2 || res.Samples != 1 || res.Vacuous {
		t.Fatalf("delta result %+v", res)
	}

	// Counter reset: before=5, after=3 → the window can only vouch for the
	// after-value (3), Prometheus-rate style.
	res = spec.eval(after, nil, before) // swapped: "before" holds the larger count
	if res.Observed != 3 {
		t.Fatalf("reset delta observed %v, want after-value 3", res.Observed)
	}

	// Absent metric → vacuous pass.
	res = GateSpec{Name: "g", Metric: "missing", Agg: AggDelta, Cmp: CmpLE}.eval(before, nil, after)
	if !res.Pass || !res.Vacuous || res.Samples != 0 {
		t.Fatalf("absent-metric delta %+v", res)
	}

	// Nil after snapshot → vacuous too.
	res = spec.eval(before, nil, nil)
	if !res.Pass || !res.Vacuous {
		t.Fatalf("nil-after delta %+v", res)
	}
}

func TestGateEvalValueAndMax(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("backlog")
	g.Set(10)
	before := reg.TakeSnapshot()
	g.Set(70)
	during := reg.TakeSnapshot()
	g.Set(40)
	after := reg.TakeSnapshot()

	res := GateSpec{Name: "v", Metric: "backlog", Agg: AggValue, Cmp: CmpLE, Threshold: 50}.eval(before, during, after)
	if !res.Pass || res.Observed != 40 || res.Samples != 1 {
		t.Fatalf("value result %+v", res)
	}
	res = GateSpec{Name: "m", Metric: "backlog", Agg: AggMax, Cmp: CmpLE, Threshold: 50}.eval(before, during, after)
	if res.Pass || res.Observed != 70 || res.Samples != 3 {
		t.Fatalf("max result %+v (should see the during-spike)", res)
	}
	// Counters read through AggValue too (gaugeOrCounter).
	reg.Counter("hits_total").Add(7)
	s := reg.TakeSnapshot()
	res = GateSpec{Name: "c", Metric: "hits_total", Agg: AggValue, Cmp: CmpEQ, Threshold: 7}.eval(nil, nil, s)
	if !res.Pass || res.Observed != 7 {
		t.Fatalf("counter-as-value %+v", res)
	}
	// Metric absent everywhere → vacuous.
	res = GateSpec{Name: "m", Metric: "nope", Agg: AggMax, Cmp: CmpLE}.eval(before, during, after)
	if !res.Pass || !res.Vacuous {
		t.Fatalf("absent max %+v", res)
	}
}

func TestGateEvalHistogramWindow(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", []float64{1, 2, 4, 8})
	h.Observe(7) // pre-window outlier: must not leak into the window
	before := reg.TakeSnapshot()

	// Empty window: no observations between the snapshots.
	empty := reg.TakeSnapshot()
	for _, agg := range []Aggregation{AggP50, AggP99} {
		res := GateSpec{Name: "q", Metric: "lat", Agg: agg, Cmp: CmpLE, Threshold: 0.1}.eval(before, nil, empty)
		if !res.Pass || !res.Vacuous || res.Samples != 0 {
			t.Fatalf("empty-window %s %+v", agg, res)
		}
	}
	// Sum/count gates read an empty window as a measured 0, not vacuous.
	res := GateSpec{Name: "s", Metric: "lat", Agg: AggCount, Cmp: CmpLE, Threshold: 0}.eval(before, nil, empty)
	if !res.Pass || res.Vacuous || res.Observed != 0 {
		t.Fatalf("empty-window count %+v", res)
	}

	// Single in-window sample: quantiles must reflect it alone, ignoring the
	// pre-window 7.
	h.Observe(3)
	one := reg.TakeSnapshot()
	res = GateSpec{Name: "q", Metric: "lat", Agg: AggP99, Cmp: CmpLE, Threshold: 4}.eval(before, nil, one)
	if !res.Pass || res.Samples != 1 || res.Observed <= 2 || res.Observed > 4 {
		t.Fatalf("single-sample p99 %+v, want in (2,4]", res)
	}

	// Multi-sample window: sum and count are the window's own deltas.
	h.Observe(1.5)
	h.Observe(0.5)
	many := reg.TakeSnapshot()
	res = GateSpec{Name: "s", Metric: "lat", Agg: AggSum, Cmp: CmpLE, Threshold: 5}.eval(before, nil, many)
	if !res.Pass || res.Observed != 5 || res.Samples != 3 {
		t.Fatalf("window sum %+v, want 3+1.5+0.5=5 over 3 samples", res)
	}
	res = GateSpec{Name: "n", Metric: "lat", Agg: AggCount, Cmp: CmpGT, Threshold: 2}.eval(before, nil, many)
	if !res.Pass || res.Observed != 3 {
		t.Fatalf("window count %+v", res)
	}

	// Histogram counter reset: window falls back to the later snapshot.
	res = GateSpec{Name: "s", Metric: "lat", Agg: AggCount, Cmp: CmpEQ, Threshold: 1}.eval(many, nil, before)
	if !res.Pass || res.Observed != 1 {
		t.Fatalf("reset window %+v, want fallback to later snapshot's count 1", res)
	}
}

func TestGateEvalUnknownAggregationFailsClosed(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("x").Set(1)
	s := reg.TakeSnapshot()
	res := GateSpec{Name: "u", Metric: "x", Agg: Aggregation("median"), Cmp: CmpLE, Threshold: 99}.eval(s, s, s)
	if res.Pass {
		t.Fatalf("unknown aggregation passed: %+v", res)
	}
}

func TestHistSnapshotDeltaEdges(t *testing.T) {
	a := HistSnapshot{Count: 5, Sum: 10, Bounds: []float64{1, 2}, Buckets: []int64{2, 2, 1}}
	b := HistSnapshot{Count: 8, Sum: 16, Bounds: []float64{1, 2}, Buckets: []int64{3, 3, 2}}
	d := b.Delta(a)
	if d.Count != 3 || d.Sum != 6 {
		t.Fatalf("delta %+v", d)
	}
	for i, want := range []int64{1, 1, 1} {
		if d.Buckets[i] != want {
			t.Fatalf("delta bucket[%d] = %d, want %d", i, d.Buckets[i], want)
		}
	}
	// Count regression → the earlier snapshot is unusable; later one wins.
	if d := a.Delta(b); d.Count != a.Count {
		t.Fatalf("reset delta count %d, want later snapshot's %d", d.Count, a.Count)
	}
	// Bucket-shape mismatch → same fallback.
	c := HistSnapshot{Count: 1, Bounds: []float64{1}, Buckets: []int64{1, 0}}
	if d := b.Delta(c); d.Count != b.Count {
		t.Fatalf("shape-mismatch delta count %d, want %d", d.Count, b.Count)
	}
}

func TestGateEngineVerdictRing(t *testing.T) {
	reg := NewRegistry()
	specs := []GateSpec{{Name: "g", Metric: "x", Agg: AggValue, Cmp: CmpLE, Threshold: 2}}
	ge := NewGateEngine(specs, 3, reg)

	for i := 1; i <= 5; i++ {
		reg.Gauge("x").Set(float64(i)) // 1,2 pass; 3,4,5 fail
		v := ge.Evaluate("v"+string(rune('0'+i)), "applied", nil, nil, reg.TakeSnapshot())
		if v == nil || v.Seq != int64(i) {
			t.Fatalf("verdict %d: %+v", i, v)
		}
	}
	if ge.Total() != 5 {
		t.Fatalf("total %d", ge.Total())
	}
	vs := ge.Verdicts()
	if len(vs) != 3 {
		t.Fatalf("ring kept %d, want 3", len(vs))
	}
	for i, want := range []int64{3, 4, 5} { // oldest first, 1 and 2 overwritten
		if vs[i].Seq != want {
			t.Fatalf("ring[%d].Seq = %d, want %d", i, vs[i].Seq, want)
		}
	}
	if last := ge.Last(); last.Seq != 5 || last.Pass || last.Violated != "g" {
		t.Fatalf("last %+v", last)
	}
	pass, fail := ge.Counts()
	if pass != 0 || fail != 3 {
		t.Fatalf("counts pass=%d fail=%d over the buffered tail", pass, fail)
	}

	// Gate series published into the registry.
	if got := reg.Counter(MGateEvaluations).Value(); got != 5 {
		t.Fatalf("%s = %d", MGateEvaluations, got)
	}
	if got := reg.Counter(MGatePass).Value(); got != 2 {
		t.Fatalf("%s = %d", MGatePass, got)
	}
	if got := reg.Counter(MGateFail).Value(); got != 3 {
		t.Fatalf("%s = %d", MGateFail, got)
	}
	if got := reg.Gauge(MGateLastPass).Value(); got != 0 {
		t.Fatalf("%s = %v", MGateLastPass, got)
	}
}

func TestGateEngineNilSafety(t *testing.T) {
	var ge *GateEngine
	if v := ge.Evaluate("t", "applied", nil, nil, nil); v != nil {
		t.Fatalf("nil engine evaluated: %+v", v)
	}
	if ge.Verdicts() != nil || ge.Last() != nil || ge.Total() != 0 {
		t.Fatal("nil engine leaked state")
	}
	var nilReg *Registry
	s := nilReg.TakeSnapshot()
	if s == nil || len(s.Counters) != 0 {
		t.Fatalf("nil-registry snapshot %+v", s)
	}
}

func TestDefaultGateSpecsAllGreen(t *testing.T) {
	// A quiet registry (no failures, no backlog, no latency samples) passes
	// every stock gate — vacuously where there is no evidence.
	reg := NewRegistry()
	reg.Counter("govolve_dsu_updates_applied_total").Add(1)
	s := reg.TakeSnapshot()
	ge := NewGateEngine(nil, 0, reg)
	v := ge.Evaluate("v1", "applied", s, s, s)
	if !v.Pass || v.Violated != "" {
		t.Fatalf("all-green verdict %+v", v)
	}
	if len(v.Results) != len(DefaultGateSpecs()) {
		t.Fatalf("results %d, want one per default spec", len(v.Results))
	}
	if !strings.Contains(v.String(), "PASS") {
		t.Fatalf("String() = %q", v.String())
	}
}

func TestVerdictFingerprintExcludesWallClock(t *testing.T) {
	specs := []GateSpec{
		{Name: "pause", Metric: MPauseTotal, Agg: AggSum, Cmp: CmpLE, Threshold: 10, WallClock: true},
		{Name: "fails", Metric: MUpdatesFailed, Agg: AggDelta, Cmp: CmpLE, Threshold: 0},
	}
	mk := func(pause float64) *Verdict {
		reg := NewRegistry()
		before := reg.TakeSnapshot()
		reg.Histogram(MPauseTotal, DurationBuckets()).Observe(pause)
		ge := NewGateEngine(specs, 0, nil)
		return ge.Evaluate("v1", "applied", before, nil, reg.TakeSnapshot())
	}
	a, b := mk(0.003), mk(0.007) // same pass bits, different wall-clock readings
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("wall-clock observation leaked into fingerprint:\n%s\n%s", a.Fingerprint(), b.Fingerprint())
	}
	if !strings.Contains(a.Fingerprint(), "fails:pass=true,obs=0") {
		t.Fatalf("non-wall-clock observation missing: %s", a.Fingerprint())
	}
	if strings.Contains(a.Fingerprint(), "pause:pass=true,obs") {
		t.Fatalf("wall-clock gate carries an observation: %s", a.Fingerprint())
	}
}

func TestGateEngineWriteJSON(t *testing.T) {
	reg := NewRegistry()
	ge := NewGateEngine(nil, 0, reg)
	ge.Evaluate("v1", "applied", nil, nil, reg.TakeSnapshot())

	var b strings.Builder
	if err := ge.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Specs    []GateSpec `json:"specs"`
		Total    int64      `json:"total"`
		Verdicts []*Verdict `json:"verdicts"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if doc.Total != 1 || len(doc.Verdicts) != 1 || len(doc.Specs) != len(DefaultGateSpecs()) {
		t.Fatalf("doc total=%d verdicts=%d specs=%d", doc.Total, len(doc.Verdicts), len(doc.Specs))
	}
	if !doc.Verdicts[0].Pass {
		t.Fatalf("verdict %+v", doc.Verdicts[0])
	}
}
