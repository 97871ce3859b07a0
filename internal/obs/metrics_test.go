package obs

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("x_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if reg.Counter("x_total") != c {
		t.Fatal("get-or-create returned a different counter")
	}
	g := reg.Gauge("depth")
	g.Set(3.5)
	if g.Value() != 3.5 {
		t.Fatalf("gauge = %v", g.Value())
	}

	// Nil registry: instruments no-op without panicking.
	var nilReg *Registry
	nilReg.Counter("x").Add(1)
	nilReg.Gauge("y").Set(1)
	nilReg.Histogram("z", nil).Observe(1)
	if nilReg.Counter("x").Value() != 0 {
		t.Fatal("nil counter held a value")
	}
	if err := nilReg.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 3, 3, 7, 20} {
		h.Observe(v)
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-39.5) > 1e-9 {
		t.Fatalf("sum = %v, want 39.5", h.Sum())
	}
	// Median lands in the (2,4] bucket; p99 in the overflow bucket, which
	// reports the last bound.
	if q := h.Quantile(0.5); q <= 2 || q > 4 {
		t.Fatalf("p50 = %v, want in (2,4]", q)
	}
	if q := h.Quantile(0.99); q != 8 {
		t.Fatalf("p99 = %v, want clamped to last bound 8", q)
	}
	if q := (&Histogram{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %v", q)
	}

	s := h.Snapshot()
	if s.Count != 8 || len(s.Buckets) != 5 {
		t.Fatalf("snapshot %+v", s)
	}
	// Non-cumulative: 0.5→≤1; 1.5,1.5→≤2; 3,3,3→≤4; 7→≤8; 20→+Inf.
	wantBuckets := []int64{1, 2, 3, 1, 1}
	for i, want := range wantBuckets {
		if s.Buckets[i] != want {
			t.Fatalf("bucket[%d] = %d, want %d (%+v)", i, s.Buckets[i], want, s.Buckets)
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram(DurationBuckets())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Observe(1e-4)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 4000 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-0.4) > 1e-9 {
		t.Fatalf("sum = %v, want 0.4", h.Sum())
	}
}

func TestRegistryWriteJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("govolve_dsu_updates_applied_total").Add(3)
	reg.Gauge("govolve_vm_threads_live").Set(2)
	reg.Histogram(MPauseTotal, DurationBuckets()).Observe(0.004)

	var b strings.Builder
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters   map[string]int64        `json:"counters"`
		Gauges     map[string]float64      `json:"gauges"`
		Histograms map[string]HistSnapshot `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("WriteJSON emitted invalid JSON: %v\n%s", err, b.String())
	}
	if doc.Counters["govolve_dsu_updates_applied_total"] != 3 {
		t.Fatalf("counters %+v", doc.Counters)
	}
	if doc.Gauges["govolve_vm_threads_live"] != 2 {
		t.Fatalf("gauges %+v", doc.Gauges)
	}
	h := doc.Histograms[MPauseTotal]
	if h.Count != 1 || h.Sum != 0.004 {
		t.Fatalf("histogram %+v", h)
	}
}

// promSample is one parsed Prometheus sample line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parsePrometheus is a minimal text-exposition (0.0.4) parser: enough to
// validate what WritePrometheus emits — HELP and TYPE comments, bare
// samples, and histogram series with le labels.
func parsePrometheus(t *testing.T, text string) (types, helps map[string]string, samples []promSample) {
	t.Helper()
	types = map[string]string{}
	helps = map[string]string{}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE comment %q", ln+1, line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			sp := strings.IndexByte(rest, ' ')
			if sp <= 0 || sp == len(rest)-1 {
				t.Fatalf("line %d: malformed HELP comment %q", ln+1, line)
			}
			helps[rest[:sp]] = rest[sp+1:]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// name[{labels}] value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator in %q", ln+1, line)
		}
		head, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(strings.TrimPrefix(valStr, "+"), 64)
		if err != nil && valStr != "+Inf" {
			t.Fatalf("line %d: bad value %q: %v", ln+1, valStr, err)
		}
		s := promSample{labels: map[string]string{}, value: val}
		if i := strings.IndexByte(head, '{'); i >= 0 {
			if !strings.HasSuffix(head, "}") {
				t.Fatalf("line %d: unterminated labels in %q", ln+1, line)
			}
			s.name = head[:i]
			for _, kv := range strings.Split(head[i+1:len(head)-1], ",") {
				eq := strings.IndexByte(kv, '=')
				if eq < 0 {
					t.Fatalf("line %d: bad label %q", ln+1, kv)
				}
				v, err := strconv.Unquote(kv[eq+1:])
				if err != nil {
					t.Fatalf("line %d: bad label value %q: %v", ln+1, kv, err)
				}
				s.labels[kv[:eq]] = v
			}
		} else {
			s.name = head
		}
		samples = append(samples, s)
	}
	return types, helps, samples
}

func TestWritePrometheusParses(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("govolve_dsu_updates_applied_total").Add(2)
	reg.Counter("govolve_dsu_barriers_installed_total").Add(7)
	reg.Gauge("govolve_vm_runnable_queue").Set(4)
	h := reg.Histogram(MPauseGC, []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(0.5)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	types, _, samples := parsePrometheus(t, b.String())

	if types["govolve_dsu_updates_applied_total"] != "counter" || types["govolve_vm_runnable_queue"] != "gauge" || types[MPauseGC] != "histogram" {
		t.Fatalf("types = %v", types)
	}
	find := func(name string, labels map[string]string) *promSample {
		for i := range samples {
			if samples[i].name != name {
				continue
			}
			match := true
			for k, v := range labels {
				if samples[i].labels[k] != v {
					match = false
					break
				}
			}
			if match {
				return &samples[i]
			}
		}
		return nil
	}
	if s := find("govolve_dsu_updates_applied_total", nil); s == nil || s.value != 2 {
		t.Fatalf("missing/ wrong %s: %+v", "govolve_dsu_updates_applied_total", s)
	}
	if s := find("govolve_vm_runnable_queue", nil); s == nil || s.value != 4 {
		t.Fatalf("gauge sample %+v", s)
	}
	// Histogram: cumulative buckets, +Inf == _count, _sum present.
	wantCum := map[string]float64{"0.001": 1, "0.01": 2, "0.1": 2, "+Inf": 3}
	for le, want := range wantCum {
		s := find(MPauseGC+"_bucket", map[string]string{"le": le})
		if s == nil {
			t.Fatalf("missing bucket le=%q", le)
		}
		if s.value != want {
			t.Fatalf("bucket le=%q = %v, want %v", le, s.value, want)
		}
	}
	if s := find(MPauseGC+"_count", nil); s == nil || s.value != 3 {
		t.Fatalf("_count sample %+v", s)
	}
	if s := find(MPauseGC+"_sum", nil); s == nil || math.Abs(s.value-0.5055) > 1e-9 {
		t.Fatalf("_sum sample %+v", s)
	}
	// Output is deterministic (sorted) across writes.
	var b2 strings.Builder
	if err := reg.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b.String() != b2.String() {
		t.Fatal("WritePrometheus output is not deterministic")
	}
}

// outcome is an enum for TestPublish's record.
type outcome int

func (o outcome) String() string { return [...]string{"applied", "failed"}[o] }

// TestPublish pins the walk's rule per kind on a record with one field of
// each, a nested struct and an untracked field: counters add growth and
// ignore a reset, gauges wait for the record's second publish, histograms
// observe a field once it changed, an enum counts once under its value's name;
// Subtract leaves a window's counter growth.
func TestPublish(t *testing.T) {
	type inner struct {
		Words uint64 `metric:"t_words_total,counter"`
	}
	type record struct {
		Outcome   outcome       `metric:"t_%s_total,enum"`
		Pairs     int           `metric:"t_pairs_total,counter"`
		Relocated bool          `metric:"t_relocated_total,counter"`
		Backlog   int           `metric:"t_backlog,gauge"`
		Pause     time.Duration `metric:"t_pause_seconds,histogram"`
		Attempts  int           `metric:"t_attempts,histogram"`
		Skipped   int           `metric:"-,a test of the reason"`
		In        inner
	}
	reg := NewRegistry()
	cur := record{Outcome: 1, Pairs: 3, Relocated: true, Backlog: 7, Pause: 2 * time.Millisecond, Attempts: 2, Skipped: 9, In: inner{Words: 5}}
	reg.Publish(&cur, nil)
	sealed := cur
	cur.Pairs, cur.Backlog, cur.In.Words = 20, 0, 40
	reg.Publish(&cur, &sealed)
	reg.Publish(&record{}, &cur) // a reset source adds nothing

	s := reg.TakeSnapshot()
	for name, want := range map[string]int64{"t_failed_total": 1, "t_pairs_total": 20, "t_relocated_total": 1, "t_words_total": 40} {
		if got := s.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if _, ok := s.Counters["t_applied_total"]; ok || len(s.Counters) != 4 {
		t.Errorf("counters %v: the enum names one series, the untracked field none", s.Counters)
	}
	if g, ok := s.Gauges["t_backlog"]; !ok || g != 0 {
		t.Errorf("gauge t_backlog = %v (present %v), want the last publish's 0", g, ok)
	}
	if h := s.Hists["t_pause_seconds"]; h.Count != 2 || math.Abs(h.Sum-0.002) > 1e-12 {
		t.Errorf("pause histogram %d samples summing %g: want the seal's 2ms and the reset's 0", h.Count, h.Sum)
	}
	if h := s.Hists["t_attempts"]; h.Count != 2 || h.Bounds[0] != CountBuckets()[0] {
		t.Errorf("attempts histogram %+v: want count buckets and two samples", h)
	}

	type window struct {
		Steps int64 `metric:"t_steps_total,counter"`
		Live  int   `metric:"t_live,gauge"`
	}
	d := window{Steps: 10, Live: 3}
	Subtract(&d, &window{Steps: 4, Live: 9})
	if d != (window{Steps: 6, Live: 3}) {
		t.Errorf("Subtract = %+v: counters less prev, the rest as in cur", d)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0.001:        "0.001",
		1:            "1",
		math.Inf(1):  "+Inf",
		0.0000025:    "0.0000025",
		1234.5678901: "1234.5678901",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
