package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The metrics registry: named counters (monotonic), gauges (point-in-time),
// and fixed-bucket histograms, snapshotted as JSON or Prometheus text
// exposition. Construction is lock-guarded and idempotent (get-or-create);
// updates are lock-free atomics so the VM and the collector's concurrent
// phases can record without contending.
//
// Every accessor is nil-receiver safe: a nil *Registry hands back nil
// instruments whose update methods no-op, so instrumentation sites read
//
//	reg.Counter("x").Add(1)
//
// with no enabled check.

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d (no-op on nil).
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Inc increments by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time float64 value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores the gauge value (no-op on nil).
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value reads the gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram. Bounds are upper bounds of the
// cumulative-style buckets (a +Inf bucket is implicit); Observe is a binary
// search plus three atomic adds.
type Histogram struct {
	bounds []float64      // sorted upper bounds, exclusive of +Inf
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// DurationBuckets are the default histogram bounds for durations measured
// in seconds: roughly exponential from 1µs to 10s, fine enough that a
// median or p99 read from the buckets is meaningful for DSU pauses.
func DurationBuckets() []float64 {
	return []float64{
		1e-6, 2.5e-6, 5e-6,
		1e-5, 2.5e-5, 5e-5,
		1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3,
		1e-2, 2.5e-2, 5e-2,
		1e-1, 2.5e-1, 5e-1,
		1, 2.5, 5, 10,
	}
}

// CountBuckets are default bounds for small-integer distributions
// (safe-point attempts, barrier counts).
func CountBuckets() []float64 {
	return []float64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377}
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample (no-op on nil).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count reports total observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the running sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the p-quantile (0..1) from the buckets, as
// HistSnapshot.Quantile does.
func (h *Histogram) Quantile(p float64) float64 { return h.Snapshot().Quantile(p) }

// HistSnapshot is one histogram's JSON form.
type HistSnapshot struct {
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"` // per-bucket (non-cumulative); last is +Inf
	P50     float64   `json:"p50"`
	P99     float64   `json:"p99"`
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Count:   h.Count(),
		Sum:     h.Sum(),
		Bounds:  append([]float64(nil), h.bounds...),
		Buckets: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		s.Buckets[i] = h.counts[i].Load()
	}
	s.P50, s.P99 = s.Quantile(0.5), s.Quantile(0.99)
	return s
}

// Registry is the named-instrument table.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (creating if needed) the named counter; nil on a nil
// registry. Names should be Prometheus-compatible (snake_case).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge; nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram with the given
// bucket bounds (DurationBuckets when nil); nil on a nil registry. The
// bounds of the first creation win.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		if bounds == nil {
			bounds = DurationBuckets()
		}
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// sortedKeys returns map keys in deterministic order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// WriteJSON writes the whole registry as one indented JSON document:
// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.TakeSnapshot())
}

// formatFloat renders a float the Prometheus exposition way.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.9f", v), "0"), ".")
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): # HELP and # TYPE comments for every series,
// counters/gauges as bare samples, histograms as cumulative
// _bucket{le=...} series plus _sum and _count. A govolve_build_info series
// is synthesized on every exposition so scrapes always carry the build
// identity.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	snap := r.TakeSnapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s{go=%q,module=\"govolve\"} 1\n",
		MBuildInfo, MetricHelp(MBuildInfo), MBuildInfo, MBuildInfo, runtime.Version())
	for _, n := range sortedKeys(snap.Counters) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", n, MetricHelp(n), n, n, snap.Counters[n])
	}
	for _, n := range sortedKeys(snap.Gauges) {
		if n == MBuildInfo {
			continue // synthesized above with labels
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", n, MetricHelp(n), n, n, formatFloat(snap.Gauges[n]))
	}
	for _, n := range sortedKeys(snap.Hists) {
		s := snap.Hists[n]
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s histogram\n", n, MetricHelp(n), n)
		cum := int64(0)
		for i, bound := range s.Bounds {
			cum += s.Buckets[i]
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", n, formatFloat(bound), cum)
		}
		cum += s.Buckets[len(s.Buckets)-1]
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", n, cum)
		fmt.Fprintf(&b, "%s_sum %s\n", n, formatFloat(s.Sum))
		fmt.Fprintf(&b, "%s_count %d\n", n, s.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Names of the series code writes or reads by name: the gate specs, the
// stream plane and the pause views. A record's series are named by its
// fields' metric tags (Publish).
const (
	MSafePointDelay = "govolve_dsu_safe_point_delay_seconds"
	MPauseInstall   = "govolve_dsu_pause_install_seconds"
	MPauseGC        = "govolve_dsu_pause_gc_seconds"
	MPauseTransform = "govolve_dsu_pause_transform_seconds"
	MPauseTotal     = "govolve_dsu_pause_total_seconds"
	MUpdatesAborted = "govolve_dsu_updates_aborted_total"
	MUpdatesFailed  = "govolve_dsu_updates_failed_total"
	MRelocBacklog   = "govolve_dsu_reloc_backlog"

	// The stream plane (long-horizon version chains).
	MStreamUpdates  = "govolve_stream_updates_sustained_total"
	MStreamRejected = "govolve_stream_batches_rejected_total"
	MStreamBacklog  = "govolve_stream_drain_backlog"

	// The gate/verdict plane (gate.go, verdict.go).
	MGateEvaluations = "govolve_gate_evaluations_total"
	MGatePass        = "govolve_gate_pass_total"
	MGateFail        = "govolve_gate_fail_total"
	MGateViolations  = "govolve_gate_violations_total"
	MGateLastPass    = "govolve_gate_last_pass"

	MBuildInfo = "govolve_build_info"
)

// metricHelp curates the HELP line of every series govolve exposes. The
// exposition audit fails on a series missing here, so neither a new metric
// tag nor a new constant can ship without documentation. The registry is
// flat-name-keyed, so what Prometheus would label {tier=...}/{reason=...} is
// realized as suffixed names.
var metricHelp = map[string]string{
	// An update's record (core.Result, core.Stats).
	MSafePointDelay:                           "Delay from update request to the DSU safe point.",
	MPauseInstall:                             "Install phase share of the DSU pause.",
	MPauseGC:                                  "GC phase share of the DSU pause.",
	MPauseTransform:                           "Transform phase share of the DSU pause.",
	MPauseTotal:                               "Total stop-the-world DSU pause duration.",
	"govolve_dsu_pause_gc_copy_seconds":       "Copy sub-phase of the DSU pause's GC share.",
	"govolve_dsu_collection_seconds":          "Wall time of the DSU collection inside the pause's GC share.",
	"govolve_dsu_attempts_to_safe_point":      "Safe-point attempts needed per update.",
	"govolve_dsu_updates_applied_total":       "Updates applied successfully.",
	MUpdatesAborted:                           "Updates aborted before the safe point.",
	MUpdatesFailed:                            "Updates that failed during installation.",
	"govolve_dsu_updates_immediate_total":     "Updates whose first safe-point attempt succeeded with no barrier.",
	"govolve_dsu_barriers_installed_total":    "Return barriers installed on restricted frames.",
	"govolve_dsu_osr_frames_total":            "Frames migrated by on-stack replacement.",
	"govolve_dsu_active_rewrites_total":       "Changed on-stack methods rewritten through a yield-point map.",
	"govolve_dsu_lazy_pending_total":          "Objects tagged for lazy transformation.",
	"govolve_dsu_lazy_drained_total":          "Objects lazily transformed on first touch.",
	"govolve_dsu_lazy_forced_total":           "Objects lazily transformed by a forced drain.",
	"govolve_dsu_transformed_objects_total":   "Updated objects whose transformer ran, moves included.",
	"govolve_dsu_copied_objects_total":        "Objects the DSU collections copied inside the pause.",
	"govolve_dsu_copied_words_total":          "Words the DSU collections copied inside the pause.",
	"govolve_dsu_tail_words_total":            "Old-copy words the DSU collections placed in from-space's tail.",
	"govolve_dsu_relocations_total":           "DSU collections that left a relocation draining after the pause.",
	"govolve_gc_dsu_pairs_logged_total":       "Old/new object pairs logged for DSU transforms.",
	"govolve_gc_dsu_moved_objects_total":      "Updated objects the collector wrote directly in their new layout.",
	"govolve_dsu_reloc_objects_total":         "Objects evacuated by the relocation drain after the pause.",
	"govolve_dsu_reloc_words_total":           "Words evacuated by the relocation drain after the pause.",
	"govolve_dsu_reloc_tail_words_total":      "Old-copy words the relocation drain placed in from-space's tail.",
	"govolve_dsu_reloc_healed_slots_total":    "Reference slots healed to canonical addresses.",
	"govolve_dsu_reloc_deferred_pairs_total":  "Pairs the relocation drain created after the pause.",
	MRelocBacklog:                             "Words the relocation drain has still to scan.",
	"govolve_dsu_reloc_drain_latency_seconds": "Wall-clock latency of completed relocation drains.",
	"govolve_jit_invalidations_body_total":    "Compiled bodies invalidated by method-body updates.",
	"govolve_jit_invalidations_layout_total":  "Compiled bodies invalidated by baked-in layout/TIB deps.",
	"govolve_jit_invalidations_inline_total":  "Compiled bodies invalidated for inlining updated callees.",
	"govolve_jit_ic_flushes_total":            "Inline-cache entries flushed by DSU install phases.",

	// The VM's steady-state counters (vm.Stats).
	"govolve_vm_instructions_total":         "Bytecode instructions interpreted.",
	"govolve_vm_slices_total":               "Scheduler slices executed.",
	"govolve_vm_scheduler_scans_total":      "Scheduler scans for a runnable thread.",
	"govolve_vm_wake_checks_total":          "Wake-predicate evaluations of blocked threads.",
	"govolve_vm_threads_spawned_total":      "VM threads spawned.",
	"govolve_vm_threads_reaped_total":       "Dead VM threads reaped from the thread table.",
	"govolve_vm_alloc_objects_total":        "Objects allocated on the VM heap.",
	"govolve_vm_alloc_arrays_total":         "Arrays allocated on the VM heap.",
	"govolve_gc_collections_total":          "Heap collections performed.",
	"govolve_gc_copied_objects_total":       "Objects copied by collections.",
	"govolve_jit_ic_hits_total":             "Inline-cache hits at cached virtual call sites.",
	"govolve_jit_ic_misses_total":           "Inline-cache misses falling back to the TIB lookup.",
	"govolve_jit_ic_hit_rate":               "Cumulative inline-cache hit rate (hits / lookups).",
	"govolve_jit_compiles_base_total":       "Methods compiled at the base tier (resolve+fuse+IC).",
	"govolve_jit_compiles_opt_total":        "Methods compiled at the opt tier (inline+fold+fuse+IC).",
	"govolve_jit_relinks_total":             "Compiled bodies an update relinked onto new class versions instead of recompiling.",
	"govolve_obs_events_dropped_total":      "Flight-recorder events lost to ring overwrite.",
	"govolve_profile_samples_total":         "Stack samples accepted by the sampling profiler.",
	"govolve_profile_samples_dropped_total": "Profiler samples shed on contention or overwritten.",
	"govolve_vm_runnable_queue":             "VM threads waiting in the runnable queue.",
	"govolve_vm_threads_blocked":            "VM threads blocked on I/O or sync.",
	"govolve_vm_threads_live":               "Live VM threads.",
	"govolve_vm_threads_table":              "Entries in the VM's thread table, dead threads not yet reaped included.",
	"govolve_vm_dead_thread_errors":         "Threads that died of an uncaught error.",
	"govolve_vm_uptime_seconds":             "Seconds since the VM was constructed.",

	MStreamUpdates:  "Updates sustained across long-horizon version chains.",
	MStreamRejected: "Generator batches the UPT verifier legally refused.",
	MStreamBacklog:  "Lazy drain backlog sampled after each chain step.",

	MGateEvaluations: "Health-gate verdicts evaluated.",
	MGatePass:        "Verdicts where every gate passed.",
	MGateFail:        "Verdicts with at least one violated gate.",
	MGateViolations:  "Individual gate violations across all verdicts.",
	MGateLastPass:    "1 when the most recent verdict passed, else 0.",

	MBuildInfo: "Constant 1; labels carry the build identity.",
}

// MetricHelp returns the curated HELP text for a metric, falling back to a
// generic line so the exposition never emits a series without HELP.
func MetricHelp(name string) string {
	if h, ok := metricHelp[name]; ok {
		return h
	}
	return "govolve metric " + name + "."
}

// Publish writes a record into the registry (no-op on nil): cur points at
// the record, prev at its value as last published, or is nil before its
// first publish. A record is a struct whose fields name their series in a
// `metric:"name,kind"` tag; a struct-typed field without a tag is walked
// into, and `metric:"-,reason"` keeps a field off /metrics and says why.
// By kind:
//
//   - counter: adds what the field grew by, nothing when it went backwards
//     (its source was reset);
//   - gauge: set to the field by every publish but the record's first (an
//     update's first publish is its seal, which must not overwrite a gauge
//     sampled between updates; see core.Stats.RelocBacklog);
//   - histogram: observes the field when it changed, a time.Duration in
//     seconds into DurationBuckets, a count into CountBuckets;
//   - enum: counts the record once, at its first publish, under the series
//     its value (a fmt.Stringer) names through the tag's %s.
//
// A bool reads as 0 or 1, a time.Duration in seconds.
func (r *Registry) Publish(cur, prev any) {
	if r == nil {
		return
	}
	c := reflect.ValueOf(cur).Elem()
	first := prev == nil || reflect.ValueOf(prev).IsNil()
	p := reflect.Zero(c.Type())
	if !first {
		p = reflect.ValueOf(prev).Elem()
	}
	for _, f := range planOf(c.Type()) {
		v, was := c.FieldByIndex(f.index), p.FieldByIndex(f.index)
		switch f.kind {
		case "counter":
			r.Counter(f.name).Add(max(int64(number(v)-number(was)), 0))
		case "gauge":
			if !first {
				r.Gauge(f.name).Set(number(v))
			}
		case "histogram":
			if !v.Equal(was) {
				bounds := CountBuckets()
				if v.Type() == durationType {
					bounds = DurationBuckets()
				}
				r.Histogram(f.name, bounds).Observe(number(v))
			}
		case "enum":
			if first {
				r.Counter(fmt.Sprintf(f.name, v.Interface())).Inc()
			}
		}
	}
}

// Subtract turns the record cur points at into its growth since prev: every
// counter field (an integer) less its value in prev, every other field as
// it is in cur.
func Subtract(cur, prev any) {
	c, p := reflect.ValueOf(cur).Elem(), reflect.ValueOf(prev).Elem()
	for _, f := range planOf(c.Type()) {
		if f.kind == "counter" {
			v := c.FieldByIndex(f.index)
			v.SetInt(v.Int() - p.FieldByIndex(f.index).Int())
		}
	}
}

// recordField is one leaf of a record's plan.
type recordField struct {
	index []int
	name  string // series; "-" for none, "" when untagged
	kind  string // for "-", the reason
}

var plans sync.Map // reflect.Type → []recordField, built on the type's first use

func planOf(t reflect.Type) []recordField {
	if p, ok := plans.Load(t); ok {
		return p.([]recordField)
	}
	var fields []recordField
	var walk func(t reflect.Type, index []int)
	walk = func(t reflect.Type, index []int) {
		for i := 0; i < t.NumField(); i++ {
			sf, idx := t.Field(i), append(index[:len(index):len(index)], i)
			tag, tagged := sf.Tag.Lookup("metric")
			switch {
			case !sf.IsExported():
			case !tagged && sf.Type.Kind() == reflect.Struct:
				walk(sf.Type, idx)
			default:
				name, kind, _ := strings.Cut(tag, ",")
				fields = append(fields, recordField{index: idx, name: name, kind: kind})
			}
		}
	}
	walk(t, nil)
	p, _ := plans.LoadOrStore(t, fields)
	return p.([]recordField)
}

var durationType = reflect.TypeOf(time.Duration(0))

// number reads a leaf as the value its series records.
func number(v reflect.Value) float64 {
	switch {
	case v.Type() == durationType:
		return time.Duration(v.Int()).Seconds()
	case v.Kind() == reflect.Bool:
		if v.Bool() {
			return 1
		}
		return 0
	case v.CanInt():
		return float64(v.Int())
	case v.CanUint():
		return float64(v.Uint())
	}
	return v.Float()
}
