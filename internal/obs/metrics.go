package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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

// Quantile estimates the p-quantile (0..1) from the buckets by linear
// interpolation inside the containing bucket. It returns 0 with no
// observations; samples beyond the last bound report the last bound.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := p * float64(total)
	cum := int64(0)
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := lo
			if i < len(h.bounds) {
				hi = h.bounds[i]
			}
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

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
		Count:  h.Count(),
		Sum:    h.Sum(),
		Bounds: append([]float64(nil), h.bounds...),
		P50:    h.Quantile(0.5),
		P99:    h.Quantile(0.99),
	}
	s.Buckets = make([]int64, len(h.counts))
	for i := range h.counts {
		s.Buckets[i] = h.counts[i].Load()
	}
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
	doc := struct {
		Counters   map[string]int64        `json:"counters"`
		Gauges     map[string]float64      `json:"gauges"`
		Histograms map[string]HistSnapshot `json:"histograms"`
	}{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r != nil {
		r.mu.Lock()
		for n, c := range r.counters {
			doc.Counters[n] = c.Value()
		}
		for n, g := range r.gauges {
			doc.Gauges[n] = g.Value()
		}
		for n, h := range r.hists {
			doc.Histograms[n] = h.Snapshot()
		}
		r.mu.Unlock()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
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
	r.mu.Lock()
	counters := make(map[string]int64, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c.Value()
	}
	gauges := make(map[string]float64, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g.Value()
	}
	hists := make(map[string]HistSnapshot, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h.Snapshot()
	}
	r.mu.Unlock()

	var b strings.Builder
	fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s{go=%q,module=\"govolve\"} 1\n",
		MBuildInfo, MetricHelp(MBuildInfo), MBuildInfo, MBuildInfo, runtime.Version())
	for _, n := range sortedKeys(counters) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", n, MetricHelp(n), n, n, counters[n])
	}
	for _, n := range sortedKeys(gauges) {
		if n == MBuildInfo {
			continue // synthesized above with labels
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", n, MetricHelp(n), n, n, formatFloat(gauges[n]))
	}
	for _, n := range sortedKeys(hists) {
		s := hists[n]
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

// Canonical metric names used across the VM and the DSU engine. They live
// here so emitters and dashboards agree on spelling.
const (
	MSafePointDelay   = "govolve_dsu_safe_point_delay_seconds"
	MPauseInstall     = "govolve_dsu_pause_install_seconds"
	MPauseGC          = "govolve_dsu_pause_gc_seconds"
	MPauseTransform   = "govolve_dsu_pause_transform_seconds"
	MPauseTotal       = "govolve_dsu_pause_total_seconds"
	MPauseGCRescan    = "govolve_dsu_pause_gc_rescan_seconds"
	MPauseGCCopy      = "govolve_dsu_pause_gc_copy_seconds"
	MMarkOutside      = "govolve_dsu_mark_outside_pause_seconds"
	MAttempts         = "govolve_dsu_attempts_to_safe_point"
	MUpdatesApplied   = "govolve_dsu_updates_applied_total"
	MUpdatesAborted   = "govolve_dsu_updates_aborted_total"
	MUpdatesFailed    = "govolve_dsu_updates_failed_total"
	MBarriers         = "govolve_dsu_barriers_installed_total"
	MOSRFrames        = "govolve_dsu_osr_frames_total"
	MLazyPending      = "govolve_dsu_lazy_pending_total"
	MLazyDrained      = "govolve_dsu_lazy_drained_total"
	MLazyForced       = "govolve_dsu_lazy_forced_total"
	MLazyDrainLatency = "govolve_dsu_lazy_drain_latency_seconds"
	MObjectsCopied    = "govolve_gc_copied_objects_total"
	MPairsLogged      = "govolve_gc_dsu_pairs_logged_total"
	MMovedObjects     = "govolve_gc_dsu_moved_objects_total"
	MRequestLatency   = "govolve_request_latency_seconds"
	MInstructions     = "govolve_vm_instructions_total"
	MSlices           = "govolve_vm_slices_total"
	MThreadsLive      = "govolve_vm_threads_live"
	MThreadsBlocked   = "govolve_vm_threads_blocked"
	MRunnableQueue    = "govolve_vm_runnable_queue"
	MHeapAllocObjects = "govolve_vm_alloc_objects_total"
	MHeapAllocArrays  = "govolve_vm_alloc_arrays_total"
	MGCCollections    = "govolve_gc_collections_total"

	// Concurrent-relocation plane (vm.Options.Concurrent): objects the
	// drain evacuated outside the pause, slots healed back to canonical
	// addresses (mutator barrier + drain fixup), the live drain backlog
	// gauge, and the drain's wall-clock latency distribution.
	MRelocObjects      = "govolve_dsu_reloc_objects_total"
	MRelocHealedSlots  = "govolve_dsu_reloc_healed_slots_total"
	MRelocBacklog      = "govolve_dsu_reloc_backlog"
	MRelocDrainLatency = "govolve_dsu_reloc_drain_latency_seconds"

	// Stream (long-horizon version-chain) plane: updates sustained over the
	// chain, generator batches UPT legally refused, and the lazy drain
	// backlog sampled after every chain step. Per-step pause distributions
	// ride the existing MPause* histograms, which the engine feeds whenever
	// a registry is attached.
	MStreamUpdates  = "govolve_stream_updates_sustained_total"
	MStreamRejected = "govolve_stream_batches_rejected_total"
	MStreamBacklog  = "govolve_stream_drain_backlog"

	// Gate/verdict plane (gate.go, verdict.go): per-update health-gate
	// evaluations and their outcomes, plus a last-verdict gauge a scrape
	// alert can key on directly.
	MGateEvaluations = "govolve_gate_evaluations_total"
	MGatePass        = "govolve_gate_pass_total"
	MGateFail        = "govolve_gate_fail_total"
	MGateViolations  = "govolve_gate_violations_total"
	MGateLastPass    = "govolve_gate_last_pass"

	// JIT/tier plane: per-tier compile activity, DSU code invalidations by
	// reason (method-body swap, layout/TIB dependency, inlined-callee
	// change), inline-cache dispatch outcomes and install-phase flushes, and
	// the cumulative IC hit-rate gauge. The registry is flat-name-keyed, so
	// what Prometheus would label {tier=...}/{reason=...} is realized as
	// suffixed names.
	MJITCompilesBase        = "govolve_jit_compiles_base_total"
	MJITCompilesOpt         = "govolve_jit_compiles_opt_total"
	MJITInvalidationsBody   = "govolve_jit_invalidations_body_total"
	MJITInvalidationsLayout = "govolve_jit_invalidations_layout_total"
	MJITInvalidationsInline = "govolve_jit_invalidations_inline_total"
	MJITICHits              = "govolve_jit_ic_hits_total"
	MJITICMisses            = "govolve_jit_ic_misses_total"
	MJITICFlushes           = "govolve_jit_ic_flushes_total"
	MJITICHitRate           = "govolve_jit_ic_hit_rate"

	// Sampling-profiler plane (profile.go).
	MProfSamples        = "govolve_profile_samples_total"
	MProfSamplesDropped = "govolve_profile_samples_dropped_total"

	// VM identity and liveness, plus flight-recorder ring overwrite loss.
	MObsEventsDropped = "govolve_obs_events_dropped_total"
	MBuildInfo        = "govolve_build_info"
	MVMUptime         = "govolve_vm_uptime_seconds"
)

// metricHelp curates the HELP line of every canonical metric. The
// exposition audit test walks CanonicalMetricNames and fails on a name
// missing here, so a new M* constant cannot ship without documentation.
var metricHelp = map[string]string{
	MSafePointDelay:   "Delay from update request to the DSU safe point.",
	MPauseInstall:     "Install phase share of the DSU pause.",
	MPauseGC:          "GC phase share of the DSU pause.",
	MPauseTransform:   "Transform phase share of the DSU pause.",
	MPauseTotal:       "Total stop-the-world DSU pause duration.",
	MPauseGCRescan:    "Rescan sub-phase of the DSU pause's GC share.",
	MPauseGCCopy:      "Copy sub-phase of the DSU pause's GC share.",
	MMarkOutside:      "Concurrent-mark work done outside the pause.",
	MAttempts:         "Safe-point attempts needed per update.",
	MUpdatesApplied:   "Updates applied successfully.",
	MUpdatesAborted:   "Updates aborted before the safe point.",
	MUpdatesFailed:    "Updates that failed during installation.",
	MBarriers:         "Return barriers installed on restricted frames.",
	MOSRFrames:        "Frames migrated by on-stack replacement.",
	MLazyPending:      "Objects tagged for lazy transformation.",
	MLazyDrained:      "Objects lazily transformed (barrier or drain).",
	MLazyForced:       "Forced lazy-transform drains.",
	MLazyDrainLatency: "Wall-clock latency of lazy-transform drains.",
	MObjectsCopied:    "Objects copied by collections.",
	MPairsLogged:      "Old/new object pairs logged for DSU transforms.",
	MMovedObjects:     "Updated objects the collector wrote directly in their new layout.",
	MRequestLatency:   "End-to-end request latency of the served app.",
	MInstructions:     "Bytecode instructions interpreted.",
	MSlices:           "Scheduler slices executed.",
	MThreadsLive:      "Live VM threads.",
	MThreadsBlocked:   "VM threads blocked on I/O or sync.",
	MRunnableQueue:    "VM threads waiting in the runnable queue.",
	MHeapAllocObjects: "Objects allocated on the VM heap.",
	MHeapAllocArrays:  "Arrays allocated on the VM heap.",
	MGCCollections:    "Heap collections performed.",

	MRelocObjects:      "Objects evacuated by the concurrent relocation drain.",
	MRelocHealedSlots:  "Reference slots healed to canonical addresses.",
	MRelocBacklog:      "Objects still awaiting concurrent relocation.",
	MRelocDrainLatency: "Wall-clock latency of relocation drains.",

	MStreamUpdates:  "Updates sustained across long-horizon version chains.",
	MStreamRejected: "Generator batches the UPT verifier legally refused.",
	MStreamBacklog:  "Lazy drain backlog sampled after each chain step.",

	MGateEvaluations: "Health-gate verdicts evaluated.",
	MGatePass:        "Verdicts where every gate passed.",
	MGateFail:        "Verdicts with at least one violated gate.",
	MGateViolations:  "Individual gate violations across all verdicts.",
	MGateLastPass:    "1 when the most recent verdict passed, else 0.",

	MJITCompilesBase:        "Methods compiled at the base tier (resolve+fuse+IC).",
	MJITCompilesOpt:         "Methods compiled at the opt tier (inline+fold+fuse+IC).",
	MJITInvalidationsBody:   "Compiled bodies invalidated by method-body updates.",
	MJITInvalidationsLayout: "Compiled bodies invalidated by baked-in layout/TIB deps.",
	MJITInvalidationsInline: "Compiled bodies invalidated for inlining updated callees.",
	MJITICHits:              "Inline-cache hits at cached virtual call sites.",
	MJITICMisses:            "Inline-cache misses falling back to the TIB lookup.",
	MJITICFlushes:           "Inline-cache entries flushed by DSU install phases.",
	MJITICHitRate:           "Cumulative inline-cache hit rate (hits / lookups).",

	MProfSamples:        "Stack samples accepted by the sampling profiler.",
	MProfSamplesDropped: "Profiler samples shed on contention or overwritten.",

	MObsEventsDropped: "Flight-recorder events lost to ring overwrite.",
	MBuildInfo:        "Constant 1; labels carry the build identity.",
	MVMUptime:         "Seconds since the VM was constructed.",
}

// CanonicalMetricNames lists every canonical metric name, sorted — the
// domain of the exposition audit.
func CanonicalMetricNames() []string {
	return sortedKeys(metricHelp)
}

// MetricHelp returns the curated HELP text for a metric, falling back to a
// generic line so the exposition never emits a series without HELP.
func MetricHelp(name string) string {
	if h, ok := metricHelp[name]; ok {
		return h
	}
	return "govolve metric " + name + "."
}
