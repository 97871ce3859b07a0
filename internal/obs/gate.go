package obs

// Health gates: declarative per-update acceptance checks evaluated over
// metric snapshots bracketing a DSU update. A gate names a metric in the
// registry, an aggregation over the before/during/after snapshot window,
// a comparator and a threshold; the gate PASSES when
//
//	observed  <cmp>  threshold
//
// holds. The DSU engine (internal/core) takes the three snapshots — before
// at the update request, during at the DSU safe point, after when the
// request seals — and asks the GateEngine (verdict.go) to evaluate every
// gate, producing one Verdict per update. This is the judgment layer the
// paper leaves out: pause time alone says nothing about whether an update
// is operationally acceptable; error-rate, latency and drain-backlog gates
// do (the per-update acceptance discipline Shen & Bazzi's
// backward-compatibility conditions call for, made enforceable at runtime).

import (
	"fmt"
	"math"
)

// Aggregation selects how a gate reads its metric out of the snapshot
// window.
type Aggregation string

const (
	// AggDelta is a counter's increase across the window (after - before),
	// reset-aware: a counter that went backwards (process restart, registry
	// swap) contributes its after-value, Prometheus-rate style.
	AggDelta Aggregation = "delta"
	// AggValue is the gauge (or counter) value at the closing snapshot.
	AggValue Aggregation = "value"
	// AggMax is the maximum gauge value across the snapshots present —
	// the right read for a backlog sampled before, during and after.
	AggMax Aggregation = "max"
	// AggP50 / AggP99 are bucket-interpolated quantiles of the histogram's
	// window delta (only observations recorded inside the window count).
	// An empty window passes the gate vacuously.
	AggP50 Aggregation = "p50"
	AggP99 Aggregation = "p99"
	// AggSum is the histogram's sum increase across the window.
	AggSum Aggregation = "sum"
	// AggCount is the histogram's observation-count increase.
	AggCount Aggregation = "count"
)

// Comparator relates the observed value to the threshold.
type Comparator string

const (
	CmpLE Comparator = "<="
	CmpLT Comparator = "<"
	CmpGE Comparator = ">="
	CmpGT Comparator = ">"
	CmpEQ Comparator = "=="
	CmpNE Comparator = "!="
)

// compare applies a comparator. Unknown comparators fail closed (the gate
// reads as violated), so a typo in a spec is loud rather than vacuous.
func compare(observed float64, cmp Comparator, threshold float64) bool {
	switch cmp {
	case CmpLE:
		return observed <= threshold
	case CmpLT:
		return observed < threshold
	case CmpGE:
		return observed >= threshold
	case CmpGT:
		return observed > threshold
	case CmpEQ:
		return observed == threshold
	case CmpNE:
		return observed != threshold
	default:
		return false
	}
}

// GateSpec is one declarative health gate.
type GateSpec struct {
	// Name identifies the gate in verdicts ("pause-budget").
	Name string `json:"name"`
	// Metric is the registry instrument the gate reads (an M* constant).
	Metric string `json:"metric"`
	// Agg is the window aggregation.
	Agg Aggregation `json:"agg"`
	// Cmp relates observed to Threshold; the gate passes when it holds.
	Cmp Comparator `json:"cmp"`
	// Threshold is the acceptance bound.
	Threshold float64 `json:"threshold"`
	// WallClock marks gates whose observed value depends on real time
	// (pause durations, latencies). Determinism fingerprints include such
	// gates' pass/fail but exclude their observed values.
	WallClock bool `json:"wall_clock,omitempty"`
}

func (s GateSpec) String() string {
	return fmt.Sprintf("%s: %s %s %s %g", s.Name, s.Metric, s.Agg, s.Cmp, s.Threshold)
}

// Snapshot is a point-in-time copy of a registry's instruments, the unit
// the gate window is made of. TakeSnapshot on a nil registry returns an
// empty (non-nil) snapshot, so gate evaluation is always defined.
type Snapshot struct {
	Counters map[string]int64        `json:"counters"`
	Gauges   map[string]float64      `json:"gauges"`
	Hists    map[string]HistSnapshot `json:"histograms"`
}

// TakeSnapshot copies the registry's current state.
func (r *Registry) TakeSnapshot() *Snapshot {
	s := &Snapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]float64{},
		Hists:    map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.hists {
		s.Hists[n] = h.Snapshot()
	}
	return s
}

// gaugeOrCounter reads a metric as a float from a snapshot, gauges first.
func (s *Snapshot) gaugeOrCounter(name string) (float64, bool) {
	if s == nil {
		return 0, false
	}
	if v, ok := s.Gauges[name]; ok {
		return v, true
	}
	if v, ok := s.Counters[name]; ok {
		return float64(v), true
	}
	return 0, false
}

// Delta subtracts a previous histogram snapshot bucket-wise, yielding the
// window's own observations. A counter reset (count went backwards) or a
// bucket-shape mismatch makes the earlier snapshot unusable; the window
// then falls back to the later snapshot outright — the same clamp AggDelta
// applies to plain counters.
func (s HistSnapshot) Delta(prev HistSnapshot) HistSnapshot {
	if s.Count < prev.Count || len(prev.Buckets) != len(s.Buckets) {
		return s
	}
	d := HistSnapshot{
		Count:   s.Count - prev.Count,
		Sum:     s.Sum - prev.Sum,
		Bounds:  s.Bounds,
		Buckets: make([]int64, len(s.Buckets)),
	}
	for i := range s.Buckets {
		d.Buckets[i] = s.Buckets[i] - prev.Buckets[i]
		if d.Buckets[i] < 0 {
			// Per-bucket reset without a count reset cannot happen with our
			// monotonic histograms; clamp defensively.
			d.Buckets[i] = 0
		}
	}
	d.P50 = d.Quantile(0.5)
	d.P99 = d.Quantile(0.99)
	return d
}

// Quantile estimates the p-quantile from the snapshot's buckets by the same
// linear interpolation the live histogram uses. Zero observations yield 0;
// samples beyond the last bound report the last bound.
func (s HistSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	rank := p * float64(s.Count)
	cum := int64(0)
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := lo
			if i < len(s.Bounds) {
				hi = s.Bounds[i]
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
	return s.Bounds[len(s.Bounds)-1]
}

// GateResult is one gate's reading over one update's window.
type GateResult struct {
	Gate      string      `json:"gate"`
	Metric    string      `json:"metric"`
	Agg       Aggregation `json:"agg"`
	Cmp       Comparator  `json:"cmp"`
	Threshold float64     `json:"threshold"`
	// Observed is the aggregated reading the comparator judged.
	Observed float64 `json:"observed"`
	// Samples is how much evidence the window held: histogram observations
	// for quantile/sum/count gates, 1 for a present gauge/counter, 0 when
	// the window was empty or the metric absent.
	Samples int64 `json:"samples"`
	// Vacuous marks a pass granted for lack of evidence (empty quantile
	// window, absent metric) rather than a measured one.
	Vacuous bool `json:"vacuous,omitempty"`
	// WallClock is copied from the spec (see GateSpec.WallClock).
	WallClock bool `json:"wall_clock,omitempty"`
	Pass      bool `json:"pass"`
}

// eval reads one gate over a snapshot window. Any of the snapshots may be
// nil (treated as empty).
func (spec GateSpec) eval(before, during, after *Snapshot) GateResult {
	res := GateResult{
		Gate: spec.Name, Metric: spec.Metric, Agg: spec.Agg,
		Cmp: spec.Cmp, Threshold: spec.Threshold, WallClock: spec.WallClock,
	}
	switch spec.Agg {
	case AggValue:
		v, ok := after.gaugeOrCounter(spec.Metric)
		if !ok {
			res.Vacuous, res.Pass = true, true
			return res
		}
		res.Observed, res.Samples = v, 1
	case AggMax:
		found := false
		max := math.Inf(-1)
		for _, s := range []*Snapshot{before, during, after} {
			if v, ok := s.gaugeOrCounter(spec.Metric); ok {
				found = true
				if v > max {
					max = v
				}
				res.Samples++
			}
		}
		if !found {
			res.Vacuous, res.Pass = true, true
			return res
		}
		res.Observed = max
	case AggDelta:
		var b, a int64
		okA := false
		if before != nil {
			b = before.Counters[spec.Metric]
		}
		if after != nil {
			a, okA = after.Counters[spec.Metric]
		}
		if !okA {
			res.Vacuous, res.Pass = true, true
			return res
		}
		d := a - b
		if d < 0 {
			d = a // counter reset: the window can only vouch for the after-value
		}
		res.Observed, res.Samples = float64(d), 1
	case AggP50, AggP99, AggSum, AggCount:
		var hb, ha HistSnapshot
		okA := false
		if before != nil {
			hb = before.Hists[spec.Metric]
		}
		if after != nil {
			ha, okA = after.Hists[spec.Metric]
		}
		if !okA {
			res.Vacuous, res.Pass = true, true
			return res
		}
		w := ha.Delta(hb)
		res.Samples = w.Count
		switch spec.Agg {
		case AggP50:
			if w.Count == 0 {
				res.Vacuous, res.Pass = true, true
				return res
			}
			res.Observed = w.P50
		case AggP99:
			if w.Count == 0 {
				res.Vacuous, res.Pass = true, true
				return res
			}
			res.Observed = w.P99
		case AggSum:
			res.Observed = w.Sum
		case AggCount:
			res.Observed = float64(w.Count)
		}
	default:
		// Unknown aggregation: fail closed, like an unknown comparator.
		res.Pass = false
		return res
	}
	res.Pass = compare(res.Observed, spec.Cmp, spec.Threshold)
	return res
}

// DefaultGateSpecs is the stock per-update acceptance policy: no update may
// fail or abort, the pause must stay inside a generous wall-clock budget,
// and no drain backlog may grow past its bound. The wall-clock thresholds
// are deliberately loose — budgets, not benchmarks — so an all-green run
// PASSES deterministically on any host while a real regression still trips.
func DefaultGateSpecs() []GateSpec {
	return []GateSpec{
		{Name: "update-failed", Metric: MUpdatesFailed, Agg: AggDelta, Cmp: CmpLE, Threshold: 0},
		{Name: "update-aborted", Metric: MUpdatesAborted, Agg: AggDelta, Cmp: CmpLE, Threshold: 0},
		{Name: "pause-budget", Metric: MPauseTotal, Agg: AggSum, Cmp: CmpLE, Threshold: 2.0, WallClock: true},
		{Name: "lazy-backlog", Metric: MStreamBacklog, Agg: AggValue, Cmp: CmpLE, Threshold: 1 << 20},
		{Name: "reloc-backlog", Metric: MRelocBacklog, Agg: AggValue, Cmp: CmpLE, Threshold: 1 << 26},
	}
}
