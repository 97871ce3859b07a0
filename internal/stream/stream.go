// Package stream replays long-horizon update streams: seeded,
// deterministic chains of 50+ sequential program versions (v0→v1→…→vN)
// generated by composing the storm mutator, each step diffed into a
// minimal spec by the UPT pipeline, and the whole chain driven through
// upt→core→gc against a live workload VM in every engine mode (vm.Modes):
// serial, and concurrent (a relocation drain and on-touch transformation
// after the pause).
//
// The paper validates single old→new pairs; a production VM survives
// *years* of releases. The replayer therefore schedules the interleavings
// where long-horizon DSU bugs hide, deliberately:
//
//   - update-while-drain-active: after a concurrent update applies, only a
//     few objects are touched (partial drain through the real read
//     barrier) and the next update is requested mid-drain, forcing the
//     engine's force-drain-then-update path;
//   - back-to-back updates: zero workload era between one update
//     resolving and the next request.
//
// The PR 2 shadow-model oracle extends chain-wide: the Go-side model
// evolves through the same N transformations and is compared at every
// step — storm.CheckVM at the resolving safe point of every update (wired
// through Engine.AfterUpdate), the full specimen/static/array/probe sweep
// at every step that does not deliberately leave a drain in flight, and a
// terminal full sweep after the chain's final forced drain. Every failure
// embeds the chain seed, step index and mode, so one Replay call with the
// printed config reproduces it.
package stream

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"govolve/internal/core"
	"govolve/internal/obs"
	"govolve/internal/storm"
	"govolve/internal/vm"
)

// Mode names one engine configuration of the replay matrix.
type Mode = vm.Mode

// Modes returns the full replay matrix: every engine mode. In the concurrent
// mode the hostile schedule's back-to-back steps become updates arriving
// mid-relocation-drain: the previous step's from-space is still live behind
// the load barrier when the next request lands, forcing the engine's
// drain-then-update path.
func Modes() []Mode { return vm.Modes() }

// ModeByName resolves a matrix mode by name.
func ModeByName(name string) (Mode, bool) {
	for _, m := range Modes() {
		if m.Name == name {
			return m, true
		}
	}
	return Mode{}, false
}

// Config tunes one chain replay. Everything observable but wall-clock time is
// a function of Seed, in every mode.
type Config struct {
	Seed      int64
	Length    int // chain length in versions past v0 (default 50)
	Classes   int // initial generated classes (default 6)
	Mutations int // max mutations composed per release (default 3)

	Specimens   int // tracked live instances per class (default 3)
	HeapWords   int // semi-space words (default 1<<16)
	MaxAttempts int // safe-point attempts before abort (default 400)
	Mode        Mode

	// Hostile schedules the adversarial interleavings (back-to-back steps,
	// partial-drain overlap in the concurrent mode) instead of a plain
	// era-update-check cadence. The schedule is a pure function of the
	// step index, so hostile replays stay deterministic.
	Hostile bool

	// InjectBugAtStep (test-only), when >0, breaks the first chain step at
	// or after this 1-based index that carries a default object
	// transformer: its transformer is overridden with an empty body. The
	// chain-wide oracle must fail at exactly that step, and the failure
	// must reproduce from the reported seed + step alone.
	InjectBugAtStep int

	// AbortRetries bounds how many times one step may resolve Aborted (no
	// DSU safe point within MaxAttempts) before the replay gives up on the
	// chain (default 5). Each retry runs another workload era first.
	AbortRetries int

	// EventTail is the flight-recorder tail embedded in failures (default
	// 40; negative disables the recorder).
	EventTail int
	// Metrics, if set, receives the stream plane: the updates-sustained
	// counter, the rejected-batches counter, the drain-backlog gauge, and
	// (via the engine) the per-step pause histograms.
	Metrics *obs.Registry

	// GateSpecs overrides the per-update health gates (nil means
	// obs.DefaultGateSpecs); every step's final attempt records its verdict
	// in the StepRecord. GatePolicy picks the FAIL reaction:
	// core.GateObserve records only; core.GateHalt stops the chain with an
	// error naming the violated gate.
	GateSpecs  []obs.GateSpec
	GatePolicy core.GatePolicy

	Log io.Writer

	// OnStep, if set, runs after every step's bookkeeping with the step's
	// record, the sealed engine result, and the driver — the hook the
	// invariant-matrix and delta-conservation tests hang assertions on.
	// A returned error fails the replay with seed+step context.
	OnStep func(step int, rec *StepRecord, res *core.Result, d *storm.Driver) error
}

func (c Config) withDefaults() Config {
	if c.Length <= 0 {
		c.Length = 50
	}
	if c.Classes <= 0 {
		c.Classes = 6
	}
	if c.Mutations <= 0 {
		c.Mutations = 3
	}
	if c.HeapWords <= 0 {
		c.HeapWords = 1 << 16
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 400
	}
	if c.AbortRetries <= 0 {
		c.AbortRetries = 5
	}
	if c.EventTail == 0 {
		c.EventTail = 40
	}
	if c.Mode.Name == "" {
		c.Mode.Name = "serial"
	}
	return c
}

// Chain is a fully generated version chain: v0 plus one StepSpec per
// release. Generation is independent of any VM, so a chain can be built
// once and replayed under every engine mode.
type Chain struct {
	Seed  int64
	V0    storm.Version
	Steps []*storm.StepSpec
}

// Generate builds the deterministic version chain for a seed: v0 from the
// storm model generator, then length successive releases, each a mutation
// batch diffed through upt.Prepare into a minimal spec. The same seed
// always yields the same chain, byte for byte.
func Generate(seed int64, length, classes, mutations int) (*Chain, error) {
	if length <= 0 {
		length = 50
	}
	rng := rand.New(rand.NewSource(seed))
	v0, err := storm.SeedVersion(rng, classes)
	if err != nil {
		return nil, fmt.Errorf("stream: seed=%d step=0: %w", seed, err)
	}
	ch := &Chain{Seed: seed, V0: v0}
	cur := v0
	for i := 1; i <= length; i++ {
		st, err := storm.NextVersion(cur, rng, mutations, fmt.Sprintf("%d", i))
		if err != nil {
			return nil, fmt.Errorf("stream: seed=%d step=%d: %w", seed, i, err)
		}
		ch.Steps = append(ch.Steps, st)
		cur = st.Next
	}
	return ch, nil
}

// Interleaving labels for StepRecord.Interleave.
const (
	IEra          = "era"           // workload era before the update (the benign cadence)
	IBackToBack   = "back-to-back"  // zero era between resolve and next request
	IDrainOverlap = "drain-overlap" // previous step left a partial drain in flight
)

// StepRecord is one chain step's outcome. Fields marked wall-clock are
// excluded from the determinism fingerprint.
type StepRecord struct {
	Step       int      `json:"step"`
	Tag        string   `json:"tag"`
	Mutations  []string `json:"mutations"`
	Rejected   int      `json:"rejected"`   // generator batches UPT refused for this step
	Interleave string   `json:"interleave"` // IEra / IBackToBack / IDrainOverlap
	Outcome    string   `json:"outcome"`    // terminal outcome (always "applied" on success)
	Retries    int      `json:"retries"`    // aborted attempts before it applied
	Check      string   `json:"check"`      // "full" or "light"

	PairsLogged int `json:"pairs_logged"`
	LazyPending int `json:"lazy_pending"` // pairs left tagged when the pause ended
	Backlog     int `json:"backlog"`      // drain backlog after this step's schedule ran

	// OSRFrames counts stack frames the update rewrote in place.
	OSRFrames int `json:"osr_frames,omitempty"`

	// Verdict is the final attempt's health-gate judgment ("PASS"/"FAIL"),
	// VerdictGate the first violated gate on FAIL. Deterministic under the
	// default gates (wall-clock gates carry generous budgets and their
	// observations are excluded from fingerprints).
	Verdict     string `json:"verdict"`
	VerdictGate string `json:"verdict_gate,omitempty"`
	// VerdictFP is the verdict's full deterministic fingerprint
	// (obs.Verdict.Fingerprint); it feeds Report.VerdictFingerprint and is
	// omitted from the JSON report to keep BENCH_stream.json readable.
	VerdictFP string `json:"-"`

	// RelocBacklog is the words the relocation drain still has to scan
	// after this step's checks ran.
	RelocBacklog int `json:"reloc_backlog,omitempty"`

	// Wall-clock (excluded from the fingerprint).
	Attempts         int     `json:"attempts"`
	PauseTotalMs     float64 `json:"pause_total_ms"`
	PauseGCMs        float64 `json:"pause_gc_ms"`
	PauseTransformMs float64 `json:"pause_transform_ms"`
}

// Report summarizes one chain replay.
type Report struct {
	Seed    int64  `json:"seed"`
	Mode    string `json:"mode"`
	Length  int    `json:"length"`
	Hostile bool   `json:"hostile"`

	Applied  int   `json:"applied"`
	Aborted  int   `json:"aborted"`
	Rejected int   `json:"rejected"`
	Checks   int   `json:"checks"`
	Probes   int   `json:"probes"`
	Steps    int64 `json:"steps"` // scheduler slices driven (wall-clock-free)

	MaxBacklog   int `json:"max_backlog"`
	InjectedStep int `json:"injected_step,omitempty"` // test-only: where the broken transformer landed

	Records []StepRecord `json:"records"`
}

// Fingerprint renders the deterministic skeleton of the report: everything
// except wall-clock durations. Two replays of the same Config must produce
// byte-identical fingerprints in every mode — the chain-wide analogue of the
// trace-determinism test.
func (r *Report) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stream seed=%d mode=%s length=%d hostile=%v\n", r.Seed, r.Mode, r.Length, r.Hostile)
	for i := range r.Records {
		rec := &r.Records[i]
		fmt.Fprintf(&b, "step=%d tag=%s outcome=%s interleave=%s retries=%d rejected=%d pairs=%d pending=%d backlog=%d reloc=%d osr=%d check=%s verdict=%s gate=%s mutations=%v\n",
			rec.Step, rec.Tag, rec.Outcome, rec.Interleave, rec.Retries, rec.Rejected,
			rec.PairsLogged, rec.LazyPending, rec.Backlog, rec.RelocBacklog, rec.OSRFrames, rec.Check, rec.Verdict, rec.VerdictGate, rec.Mutations)
	}
	fmt.Fprintf(&b, "applied=%d aborted=%d rejected=%d checks=%d probes=%d steps=%d maxbacklog=%d injected=%d\n",
		r.Applied, r.Aborted, r.Rejected, r.Checks, r.Probes, r.Steps, r.MaxBacklog, r.InjectedStep)
	return b.String()
}

// VerdictFingerprint renders the chain's per-step verdict sequence at full
// gate resolution (every gate's pass bit, counts and non-wall-clock
// observations, via obs.Verdict.Fingerprint). Two replays of the same Config
// must produce byte-identical verdict fingerprints in every mode — the
// health-gate analogue of Fingerprint.
func (r *Report) VerdictFingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "verdicts seed=%d mode=%s length=%d hostile=%v\n", r.Seed, r.Mode, r.Length, r.Hostile)
	for i := range r.Records {
		fmt.Fprintf(&b, "step=%d %s\n", r.Records[i].Step, r.Records[i].VerdictFP)
	}
	return b.String()
}

// replayer holds one in-flight chain replay.
type replayer struct {
	cfg   Config
	chain *Chain
	drv   *storm.Driver
	rep   *Report
}

// failf wraps an error with the one-command reproduction context: chain
// seed, step index and mode. Driver errors already embed the seed and a
// flight-recorder tail; the stream prefix adds the step and mode so the
// failure replays from this line alone.
func (rp *replayer) failf(step int, err error) error {
	return fmt.Errorf("stream: seed=%d step=%d mode=%s: %w", rp.cfg.Seed, step, rp.cfg.Mode.Name, err)
}

// scheduleFor returns the interleaving for a step — a pure function of the
// step index so hostile replays stay deterministic. The cycle covers every
// hostile pattern each 4 steps: a benign era step, a back-to-back step, a
// partial-drain step (concurrent mode; the NEXT step then arrives mid-drain),
// and the overlap step itself.
func (rp *replayer) scheduleFor(step int) string {
	if !rp.cfg.Hostile {
		return IEra
	}
	switch step % 4 {
	case 2:
		return IBackToBack
	case 0:
		if rp.cfg.Mode.Concurrent {
			return IDrainOverlap // step 4k follows a partial-drain step 4k-1
		}
		return IBackToBack
	default:
		return IEra
	}
}

// partialDrainStep reports whether this step should end with a partial
// touch instead of a full check, leaving the drain active for the next
// step's IDrainOverlap arrival.
func (rp *replayer) partialDrainStep(step int) bool {
	return rp.cfg.Hostile && rp.cfg.Mode.Concurrent && step%4 == 3 && step < len(rp.chain.Steps)
}

// Replay generates the chain for cfg.Seed and drives it end to end. The
// returned Report is filled as far as the replay got, even on error.
func Replay(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{Seed: cfg.Seed, Mode: cfg.Mode.Name, Length: cfg.Length, Hostile: cfg.Hostile}

	chain, err := Generate(cfg.Seed, cfg.Length, cfg.Classes, cfg.Mutations)
	if err != nil {
		return rep, err
	}
	drv, err := storm.NewDriver(storm.DriverConfig{
		Seed:        cfg.Seed,
		Specimens:   cfg.Specimens,
		HeapWords:   cfg.HeapWords,
		MaxAttempts: cfg.MaxAttempts,
		OSROpt:      false,
		Concurrent:  cfg.Mode.Concurrent,
		EventTail:   cfg.EventTail,
		Metrics:     cfg.Metrics,
		GateSpecs:   cfg.GateSpecs,
		GatePolicy:  cfg.GatePolicy,
		Log:         cfg.Log,
	}, chain.V0)
	if err != nil {
		return rep, fmt.Errorf("stream: seed=%d step=0 mode=%s: %w", cfg.Seed, cfg.Mode.Name, err)
	}
	rp := &replayer{cfg: cfg, chain: chain, drv: drv, rep: rep}
	if err := rp.run(); err != nil {
		rp.finalize()
		return rep, err
	}
	rp.finalize()
	return rep, nil
}

func (rp *replayer) logf(format string, args ...any) {
	if rp.cfg.Log != nil {
		fmt.Fprintf(rp.cfg.Log, format+"\n", args...)
	}
}

func (rp *replayer) run() error {
	cfg, drv, rep := rp.cfg, rp.drv, rp.rep
	eng := drv.Engine()
	m := cfg.Metrics

	injectArmed := cfg.InjectBugAtStep > 0

	for i, st := range rp.chain.Steps {
		step := i + 1
		interleave := rp.scheduleFor(step)
		if interleave == IEra {
			if err := drv.Era(); err != nil {
				return rp.failf(step, err)
			}
		}
		// IBackToBack: request immediately, zero mutator slices since the
		// previous resolve. IDrainOverlap: likewise, with the previous
		// step's partial drain still active — Engine.handle force-drains
		// the residue before this update's pipeline starts.

		if injectArmed && step >= cfg.InjectBugAtStep && storm.InjectEmptyTransformer(st.Spec) {
			injectArmed = false
			rep.InjectedStep = step
			rp.logf("step %d: injected empty transformer", step)
		}

		rec := StepRecord{
			Step: step, Tag: st.Tag, Mutations: st.Mutations,
			Rejected: st.Rejected, Interleave: interleave,
		}
		m.Counter(obs.MStreamRejected).Add(int64(st.Rejected))

		var res *core.Result
		for {
			// A chain cannot abandon a hard step for a fresh mutation batch
			// the way storm.Run does, so chronic near-livelock steps (two
			// workload threads ping-ponging through a changed hub method)
			// escalate instead: a longer safe-point search on each retry,
			// and from the second retry on a quiesced request — client
			// traffic drained so the acceptor parks in accept and only the
			// spinner still visits the changed method, which the return
			// barrier then catches.
			var err error
			res, err = drv.ApplyStep(st, storm.ApplyOpts{
				MaxAttempts: cfg.MaxAttempts << rec.Retries,
				Quiesce:     rec.Retries >= 2,
			})
			if err != nil {
				return rp.failf(step, err)
			}
			if hv := eng.Halted(); hv != nil {
				rp.recordVerdict(&rec, res)
				rep.Records = append(rep.Records, rec)
				return rp.failf(step, drv.Failf("chain halted by gate policy: %s", hv))
			}
			if res.Outcome == core.Applied {
				break
			}
			// Aborted: the chain did not advance; era and retry this step.
			if rec.Retries >= cfg.AbortRetries {
				return rp.failf(step, drv.Failf("step aborted %d times (MaxAttempts up to %d)",
					rec.Retries+1, cfg.MaxAttempts<<(rec.Retries-1)))
			}
			rec.Retries++
			if err := drv.Era(); err != nil {
				return rp.failf(step, err)
			}
		}
		rp.recordVerdict(&rec, res)
		rec.Outcome = res.Outcome.String()
		rec.Attempts = res.Stats.Attempts
		rec.PairsLogged = res.Stats.PairsLogged
		rec.LazyPending = res.Stats.LazyPending
		rec.OSRFrames = res.Stats.OSRFrames
		rec.PauseTotalMs = float64(res.Stats.PauseTotal) / float64(time.Millisecond)
		rec.PauseGCMs = float64(res.Stats.PauseGC) / float64(time.Millisecond)
		rec.PauseTransformMs = float64(res.Stats.PauseTransform) / float64(time.Millisecond)

		// Chain-wide oracle. A partial-drain step touches a few objects
		// through the real read barrier and leaves the rest tagged for the
		// next step's mid-drain arrival; raw-heap oracle reads are invalid
		// on untransformed shells, so those steps run the drain-aware
		// whole-VM sweep only. Every other step runs the full sweep, which
		// in the concurrent mode ends with an empty backlog.
		if rp.partialDrainStep(step) {
			if _, err := drv.TouchSpecimens(2); err != nil {
				return rp.failf(step, err)
			}
			if err := drv.CheckLight(); err != nil {
				return rp.failf(step, err)
			}
			rec.Check = "light"
		} else {
			if err := drv.CheckFull(); err != nil {
				return rp.failf(step, err)
			}
			rec.Check = "full"
		}

		rec.Backlog = eng.LazyBacklog()
		if rec.Backlog > rep.MaxBacklog {
			rep.MaxBacklog = rec.Backlog
		}
		rec.RelocBacklog = eng.RelocBacklog()
		m.Counter(obs.MStreamUpdates).Add(1)
		m.Gauge(obs.MStreamBacklog).Set(float64(rec.Backlog))
		m.Gauge(obs.MRelocBacklog).Set(float64(rec.RelocBacklog))
		drv.VM().PublishMetrics()

		rep.Records = append(rep.Records, rec)
		if cfg.OnStep != nil {
			if err := cfg.OnStep(step, &rep.Records[len(rep.Records)-1], res, drv); err != nil {
				return rp.failf(step, err)
			}
		}
		rp.logf("step %d/%d %s: %s (%v)", step, len(rp.chain.Steps), interleave, rec.Outcome, st.Mutations)
	}

	// Terminal sweep: drain whatever the last partial-drain step left and
	// verify the whole heap against the fully evolved shadow model.
	if err := drv.ForceDrain(); err != nil {
		return rp.failf(cfg.Length, err)
	}
	if err := drv.CheckFull(); err != nil {
		return rp.failf(cfg.Length, err)
	}
	m.Gauge(obs.MStreamBacklog).Set(0)
	return nil
}

// recordVerdict copies the final attempt's health-gate verdict into the
// step record. The driver always arms gating (private registry when none is
// attached), so every resolved step carries one.
func (rp *replayer) recordVerdict(rec *StepRecord, res *core.Result) {
	v := res.Verdict
	if v == nil {
		return
	}
	if v.Pass {
		rec.Verdict = "PASS"
	} else {
		rec.Verdict = "FAIL"
		rec.VerdictGate = v.Violated
	}
	rec.VerdictFP = v.Fingerprint()
}

// finalize copies the driver tallies into the report.
func (rp *replayer) finalize() {
	dr := rp.drv.Report()
	rp.rep.Applied = dr.Applied
	rp.rep.Aborted = dr.Aborted
	rp.rep.Checks = dr.Checks
	rp.rep.Probes = dr.Probes
	rp.rep.Steps = dr.Steps
	for i := range rp.rep.Records {
		rp.rep.Rejected += rp.rep.Records[i].Rejected
	}
}
