package bench

import (
	"fmt"
	"io"

	"govolve/internal/apps"
	"govolve/internal/core"
	"govolve/internal/obs"
)

// The obs experiment records the DSU pause decomposition through the
// observability plane itself: updates run with a metrics registry attached,
// the engine publishes its pause histograms (install/GC/transform/total plus
// the safe-point delay), and the report carries the medians and p99s read
// back out of those histograms. Two configurations, mirroring the repo's
// experiment naming:
//
//	E1    — the webserver launched at 5.1.5, warmed, and updated to 5.1.6
//	        under synthetic load. The full decomposition comes from the
//	        engine's own instrumentation; a caller's flight recorder,
//	        registry, gate engine and profiler ride along (jvolve-bench
//	        -trace, -metrics and -serve read them).
//	micro — the Table 1 microbenchmark update, pauses observed into the
//	        same histogram shapes.

// ObsPauseOptions sizes the experiment and carries the observability plane
// the E1 updates attach.
type ObsPauseOptions struct {
	Runs         int // updates sampled per configuration (default 5)
	MicroObjects int // micro heap population (default 30_000)
	Heap         int // E1 webserver heap words (default 1<<20)

	// Recorder, when set, captures the E1 updates' DSU lifecycle
	// (safe-point attempts, phase spans, transformer events) for a Chrome
	// trace.
	Recorder *obs.Recorder
	// Metrics receives the E1 pause histograms (a fresh registry if nil);
	// Gates, which must read Metrics, judges every E1 update under the
	// observe policy (a default engine if nil); Profiler samples interpreter
	// frames at slice boundaries (a fresh one if nil).
	Metrics  *obs.Registry
	Gates    *obs.GateEngine
	Profiler *obs.Profiler
}

// ObsHist is one histogram's report form: sample count plus the bucket-
// interpolated median and p99, in milliseconds.
type ObsHist struct {
	Count int64   `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
}

func obsHistMs(h *obs.Histogram) ObsHist {
	return ObsHist{
		Count: h.Count(),
		P50Ms: h.Quantile(0.5) * 1000,
		P99Ms: h.Quantile(0.99) * 1000,
	}
}

// ObsPauseRow is one configuration's pause decomposition, plus the gate
// judgment for the sampled updates and (E1 only) the profiler's view of
// where interpreter time went while the updates landed.
type ObsPauseRow struct {
	Config  string `json:"config"`
	Updates int    `json:"updates"`

	InstallMs        *ObsHist `json:"install_ms,omitempty"`
	GCMs             ObsHist  `json:"gc_ms"`
	TransformMs      ObsHist  `json:"transform_ms"`
	TotalMs          ObsHist  `json:"total_ms"`
	SafePointDelayMs *ObsHist `json:"safe_point_delay_ms,omitempty"`

	// Verdict columns: every sampled update is judged against the default
	// gate specs under the observe policy.
	GatePass    int64  `json:"gate_pass"`
	GateFail    int64  `json:"gate_fail"`
	LastVerdict string `json:"last_verdict,omitempty"`

	// Profile columns (E1 only): version-attributed samples collected at
	// scheduler-slice boundaries while the updates applied, and the
	// heaviest folded stacks.
	ProfileSamples int64    `json:"profile_samples,omitempty"`
	ProfileTop     []string `json:"profile_top,omitempty"`
}

// RunObsPause measures both configurations; the report is the
// BENCH_obs.json document.
func RunObsPause(opts ObsPauseOptions, progress io.Writer) (*Report[ObsPauseRow], error) {
	if opts.Runs <= 0 {
		opts.Runs = 5
	}
	if opts.MicroObjects <= 0 {
		opts.MicroObjects = 30_000
	}
	if opts.Heap <= 0 {
		opts.Heap = 1 << 20
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	if opts.Gates == nil {
		opts.Gates = obs.NewGateEngine(nil, 0, opts.Metrics)
	}
	if opts.Profiler == nil {
		opts.Profiler = obs.NewProfiler(0)
	}
	rep := &Report[ObsPauseRow]{
		Experiment: "obs",
		Host:       ThisHost(),
		Note: "p50/p99 are bucket-interpolated from fixed-bucket histograms " +
			"(obs.DurationBuckets), so they quantize to the bucket grid",
	}

	// E1, the webserver update under load, then the Table 1 microbenchmark.
	for _, run := range []func(ObsPauseOptions, io.Writer) (*ObsPauseRow, error){runObsE1, runObsMicro} {
		row, err := run(opts, progress)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, *row)
	}
	if progress != nil {
		fmt.Fprintln(progress)
	}
	return rep, nil
}

func runObsE1(opts ObsPauseOptions, progress io.Writer) (*ObsPauseRow, error) {
	reg, ge, prof := opts.Metrics, opts.Gates, opts.Profiler
	app := apps.Webserver()
	applied := 0
	for r := 0; r < opts.Runs; r++ {
		s, err := apps.Launch(app, apps.LaunchOptions{Version: 5, HeapWords: opts.Heap})
		if err != nil {
			return nil, fmt.Errorf("bench: obs E1 run %d: %w", r, err)
		}
		s.VM.AttachObs(opts.Recorder, reg)
		s.VM.AttachProfiler(prof)
		s.Engine.AttachGates(ge, core.GateObserve)
		// Warm the server so the update lands on a live, steady VM.
		for i := 0; i < 5; i++ {
			if _, err := s.DoBatch(); err != nil {
				return nil, fmt.Errorf("bench: obs E1 warmup: %w", err)
			}
		}
		res, err := s.ApplyNext(core.Options{MaxAttempts: 500}, true)
		if err != nil {
			return nil, fmt.Errorf("bench: obs E1 update: %w", err)
		}
		if res.Outcome != core.Applied {
			return nil, fmt.Errorf("bench: obs E1 update %v: %v", res.Outcome, res.Err)
		}
		applied++
		if progress != nil {
			fmt.Fprintf(progress, ".")
		}
	}
	install := obsHistMs(reg.Histogram(obs.MPauseInstall, obs.DurationBuckets()))
	delay := obsHistMs(reg.Histogram(obs.MSafePointDelay, obs.DurationBuckets()))
	row := &ObsPauseRow{
		Config:           "E1 webserver 5.1.5→5.1.6 under load",
		Updates:          applied,
		InstallMs:        &install,
		GCMs:             obsHistMs(reg.Histogram(obs.MPauseGC, obs.DurationBuckets())),
		TransformMs:      obsHistMs(reg.Histogram(obs.MPauseTransform, obs.DurationBuckets())),
		TotalMs:          obsHistMs(reg.Histogram(obs.MPauseTotal, obs.DurationBuckets())),
		SafePointDelayMs: &delay,
		ProfileSamples:   prof.TotalSamples(),
	}
	row.GatePass, row.GateFail = ge.Counts()
	if v := ge.Last(); v != nil {
		row.LastVerdict = v.String()
	}
	for i, l := range prof.Folded() {
		if i == 3 {
			break
		}
		row.ProfileTop = append(row.ProfileTop, fmt.Sprintf("%s %d", l.Stack, l.Weight))
	}
	return row, nil
}

func runObsMicro(opts ObsPauseOptions, progress io.Writer) (*ObsPauseRow, error) {
	reg := obs.NewRegistry()
	row := &ObsPauseRow{
		Config:  fmt.Sprintf("micro %d objects, 20%% updated", opts.MicroObjects),
		Updates: opts.Runs,
	}
	for r := 0; r < opts.Runs; r++ {
		// The registry rides into the micro VM, so the engine's own
		// instrumentation fills the pause histograms (same plane as E1)
		// and the gate engine judges every update.
		res, err := RunMicro(MicroConfig{
			Objects:     opts.MicroObjects,
			FracUpdated: 0.2,
			Metrics:     reg,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: obs micro: %w", err)
		}
		if v := res.Verdict; v != nil {
			if v.Pass {
				row.GatePass++
			} else {
				row.GateFail++
			}
			row.LastVerdict = v.String()
		}
		if progress != nil {
			fmt.Fprintf(progress, ".")
		}
	}
	row.GCMs = obsHistMs(reg.Histogram(obs.MPauseGC, obs.DurationBuckets()))
	row.TransformMs = obsHistMs(reg.Histogram(obs.MPauseTransform, obs.DurationBuckets()))
	row.TotalMs = obsHistMs(reg.Histogram(obs.MPauseTotal, obs.DurationBuckets()))
	return row, nil
}

// PrintObsPause renders the report as text.
func PrintObsPause(w io.Writer, rep *Report[ObsPauseRow]) {
	fmt.Fprintf(w, "DSU pause decomposition via obs histograms (%s)\n", rep.Host)
	fmt.Fprintf(w, "%-58s %8s %18s %18s %18s\n", "configuration", "updates",
		"GC p50/p99 (ms)", "transform (ms)", "total (ms)")
	for _, r := range rep.Rows {
		fmt.Fprintf(w, "%-58s %8d %8.2f/%8.2f %8.2f/%8.2f %8.2f/%8.2f\n",
			r.Config, r.Updates,
			r.GCMs.P50Ms, r.GCMs.P99Ms,
			r.TransformMs.P50Ms, r.TransformMs.P99Ms,
			r.TotalMs.P50Ms, r.TotalMs.P99Ms)
		if r.InstallMs != nil && r.SafePointDelayMs != nil {
			fmt.Fprintf(w, "%-58s %8s install p50/p99 %.2f/%.2f ms, safe-point delay p50/p99 %.2f/%.2f ms\n",
				"", "", r.InstallMs.P50Ms, r.InstallMs.P99Ms,
				r.SafePointDelayMs.P50Ms, r.SafePointDelayMs.P99Ms)
		}
		fmt.Fprintf(w, "%-58s %8s gates %d pass / %d fail", "", "", r.GatePass, r.GateFail)
		if r.LastVerdict != "" {
			fmt.Fprintf(w, "; last %s", r.LastVerdict)
		}
		fmt.Fprintln(w)
		if r.ProfileSamples > 0 {
			fmt.Fprintf(w, "%-58s %8s profile: %d samples", "", "", r.ProfileSamples)
			for _, top := range r.ProfileTop {
				fmt.Fprintf(w, "\n%-58s %8s   %s", "", "", top)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "note: %s\n", rep.Note)
}
