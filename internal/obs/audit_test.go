package obs_test

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"govolve/internal/core"
	"govolve/internal/obs"
	"govolve/internal/stream"
	"govolve/internal/vm"
)

// records are the types whose fields feed /metrics.
var records = []any{&core.Result{}, &vm.Stats{}}

// TestMetricsCompleteness holds the records to their contract: every exported
// field of core.Result (core.Stats and its gc blocks included) and vm.Stats
// names a series, or says in `metric:"-,reason"` why it feeds none; every
// series it names has curated HELP; no two fields feed one series; and a
// name's suffix matches its field — a counter ends in _total, a duration
// feeds a _seconds series.
func TestMetricsCompleteness(t *testing.T) {
	curated := map[string]bool{}
	for _, n := range obs.Curated() {
		curated[n] = true
	}
	fed := map[string]string{}
	for _, rec := range records {
		for _, f := range obs.RecordFields(rec) {
			path, typ, name, kind := fmt.Sprintf("%T.%s", rec, f[0]), f[1], f[2], f[3]
			names := []string{name}
			switch {
			case name == "":
				t.Errorf("%s has no metric tag", path)
				continue
			case name == "-":
				if kind == "" {
					t.Errorf("%s: metric:\"-\" gives no reason", path)
				}
				continue
			case kind == "enum":
				names = nil
				for _, o := range []core.Outcome{core.Applied, core.Aborted, core.Failed} {
					names = append(names, fmt.Sprintf(name, o))
				}
			case kind != "counter" && kind != "gauge" && kind != "histogram":
				t.Errorf("%s: unknown kind %q", path, kind)
			}
			if (kind == "counter" || kind == "enum") != strings.HasSuffix(name, "_total") {
				t.Errorf("%s (%s) feeds %s: counters, and only they, end in _total", path, kind, name)
			}
			if typ == "time.Duration" && !strings.HasSuffix(name, "_seconds") {
				t.Errorf("%s is a duration, but %s is not in seconds", path, name)
			}
			for _, n := range names {
				if !curated[n] {
					t.Errorf("%s feeds %s, which has no curated HELP", path, n)
				}
				if other, dup := fed[n]; dup {
					t.Errorf("%s and %s both feed %s", other, path, n)
				}
				fed[n] = path
			}
		}
	}
}

// fill sets every leaf of the record v points at non-zero.
func fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i))
			}
		}
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(time.Millisecond))
	case reflect.Uint64:
		v.SetUint(1)
	case reflect.Float64:
		v.SetFloat(0.5)
	}
}

// TestExpositionAudit drives every emitter of /metrics — both records with
// every field set, each outcome, a passing and a failing verdict, and a
// short stream replay — and audits the exposition: every series carries its
// curated HELP and a TYPE of the kind it was written as, and every curated
// name is exposed, so no HELP line outlives its series.
func TestExpositionAudit(t *testing.T) {
	reg := obs.NewRegistry()
	for _, o := range []core.Outcome{core.Applied, core.Aborted, core.Failed} {
		res := &core.Result{}
		fill(reflect.ValueOf(res).Elem())
		res.Outcome = o
		reg.Publish(res, nil)
		reg.Publish(res, &core.Result{}) // a second publish sets the gauges
	}
	st := &vm.Stats{}
	fill(reflect.ValueOf(st).Elem())
	reg.Publish(st, &vm.Stats{})
	gates := obs.NewGateEngine(nil, 0, reg)
	gates.Evaluate("pass", "applied", nil, nil, reg.TakeSnapshot())
	obs.NewGateEngine([]obs.GateSpec{{Name: "never", Metric: obs.MPauseTotal, Agg: obs.AggCount, Cmp: obs.CmpLT, Threshold: 0}}, 0, reg).
		Evaluate("fail", "applied", nil, nil, reg.TakeSnapshot())
	mode, _ := stream.ModeByName("concurrent")
	if _, err := stream.Replay(stream.Config{Seed: 1, Length: 2, Mode: mode, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	reg.Counter("adhoc_series_total").Inc() // uncurated: the generic HELP fallback

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	snap := reg.TakeSnapshot()
	kinds := map[string]string{obs.MBuildInfo: "gauge"}
	for n := range snap.Counters {
		kinds[n] = "counter"
	}
	for n := range snap.Gauges {
		kinds[n] = "gauge"
	}
	for n := range snap.Hists {
		kinds[n] = "histogram"
	}
	for n, kind := range kinds {
		if n == "adhoc_series_total" {
			continue
		}
		if want := fmt.Sprintf("# HELP %s %s\n# TYPE %s %s\n", n, obs.MetricHelp(n), n, kind); !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q", want)
		}
		if strings.HasPrefix(obs.MetricHelp(n), "govolve metric ") {
			t.Errorf("series %s has no curated HELP", n)
		}
	}
	for _, n := range obs.Curated() {
		if kinds[n] == "" {
			t.Errorf("%s has curated HELP, but nothing exposes it", n)
		}
	}
	if !strings.Contains(text, "# HELP adhoc_series_total govolve metric adhoc_series_total.\n") {
		t.Error("an uncurated series lacks the fallback HELP")
	}
	if want := fmt.Sprintf("govolve_build_info{go=%q,module=\"govolve\"} 1\n", runtime.Version()); !strings.Contains(text, want) {
		t.Errorf("build identity: exposition lacks %q", want)
	}
}
