package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"

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
//	E1    — the webserver updated 5.1.5→5.1.6 under synthetic load (the
//	        fig5 "updated" row). The full decomposition comes from the
//	        engine's own instrumentation.
//	micro — the Table 1 microbenchmark update, pauses observed into the
//	        same histogram shapes.

// ObsPauseOptions sizes the experiment.
type ObsPauseOptions struct {
	Runs         int // updates sampled per configuration (default 5)
	MicroObjects int // micro heap population (default 30_000)
	Heap         int // E1 webserver heap words (default 1<<20)
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

// ObsPauseReport is the BENCH_obs.json document.
type ObsPauseReport struct {
	Experiment string        `json:"experiment"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	Note       string        `json:"note"`
	Rows       []ObsPauseRow `json:"rows"`
}

// RunObsPause measures both configurations.
func RunObsPause(opts ObsPauseOptions, progress io.Writer) (*ObsPauseReport, error) {
	if opts.Runs <= 0 {
		opts.Runs = 5
	}
	if opts.MicroObjects <= 0 {
		opts.MicroObjects = 30_000
	}
	if opts.Heap <= 0 {
		opts.Heap = 1 << 20
	}
	rep := &ObsPauseReport{
		Experiment: "obs",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Note: "p50/p99 are bucket-interpolated from fixed-bucket histograms " +
			"(obs.DurationBuckets), so they quantize to the bucket grid",
	}

	// --- E1: webserver update under load, engine-instrumented --------------
	e1, err := runObsE1(opts, progress)
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, *e1)

	// --- micro: the Table 1 microbenchmark update ----------------------------
	micro, err := runObsMicro(opts, progress)
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, *micro)
	if progress != nil {
		fmt.Fprintln(progress)
	}
	return rep, nil
}

func runObsE1(opts ObsPauseOptions, progress io.Writer) (*ObsPauseRow, error) {
	reg := obs.NewRegistry()
	ge := obs.NewGateEngine(nil, 0, reg)
	prof := obs.NewProfiler(0)
	app := apps.Webserver()
	applied := 0
	for r := 0; r < opts.Runs; r++ {
		s, err := apps.Launch(app, apps.LaunchOptions{Version: 5, HeapWords: opts.Heap})
		if err != nil {
			return nil, fmt.Errorf("bench: obs E1 run %d: %w", r, err)
		}
		s.VM.AttachObs(nil, reg)
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
	gcH := reg.Histogram(obs.MPauseGC, obs.DurationBuckets())
	trH := reg.Histogram(obs.MPauseTransform, obs.DurationBuckets())
	totH := reg.Histogram(obs.MPauseTotal, obs.DurationBuckets())
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
			HeapLabel:   fmt.Sprintf("%d objects", opts.MicroObjects),
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
	row.GCMs = obsHistMs(gcH)
	row.TransformMs = obsHistMs(trH)
	row.TotalMs = obsHistMs(totH)
	return row, nil
}

// WriteObsPauseJSON writes the report as indented JSON (BENCH_obs.json).
func WriteObsPauseJSON(path string, rep *ObsPauseReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// PrintObsPause renders the report as text.
func PrintObsPause(w io.Writer, rep *ObsPauseReport) {
	fmt.Fprintf(w, "DSU pause decomposition via obs histograms (gomaxprocs=%d, cpus=%d)\n",
		rep.GOMAXPROCS, rep.NumCPU)
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
