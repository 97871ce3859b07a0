// Command jvolve-bench regenerates every table and figure of the paper's
// evaluation:
//
//	jvolve-bench -exp table1    # update-pause microbenchmark grid (Table 1)
//	jvolve-bench -exp fig6      # pause decomposition series (Figure 6)
//	jvolve-bench -exp fig5      # steady-state throughput/latency (Figure 5)
//	jvolve-bench -exp tables234 # UPT summaries for all three apps (Tables 2–4)
//	jvolve-bench -exp matrix    # the §4 "20 of 22 updates" experience
//	jvolve-bench -exp ablation  # eager vs lazy-indirection steady-state cost
//	jvolve-bench -exp transformers # §4.1: hand-written (interpreted) vs generated (moved by the collector) transformers
//	jvolve-bench -exp scratch   # §3.5: to-space saved by old copies in from-space's tail
//	jvolve-bench -exp active    # §3.5: UpStare-style active-method updates
//	jvolve-bench -exp storm     # randomized update-storm soak with invariant checking
//	jvolve-bench -exp stream    # long-horizon version-chain replay (writes BENCH_stream.json)
//	jvolve-bench -exp pausecmp  # the DSU pause in every engine mode (writes BENCH_pause.json)
//	jvolve-bench -exp obs       # pause decomposition via obs histograms (writes BENCH_obs.json)
//	jvolve-bench -exp dispatch  # interpreter tier throughput grid (writes BENCH_dispatch.json)
//	jvolve-bench -exp all
//
// -scale divides the microbenchmark object counts (1 = the paper's full
// 280k–3.67M objects; the default 8 finishes quickly on a laptop).
//
// -handwritten runs table1 and fig6 with the hand-written equivalent of the
// microbenchmark's default transformer: pairs, old copies and one interpreted
// jvolveObject call per updated object — the paper's configuration. Without
// it the generated default is a pure field copy the collector performs while
// it copies the object. (pausecmp and transformers measure both.)
//
// The storm soak is reproducible: a failure prints its seed, and
// `jvolve-bench -exp storm -seed N -updates K` replays the exact run.
//
// Observability:
//
//	-trace out.json    write a Chrome trace-event timeline (Perfetto-loadable)
//	                   of the flight-recorder events captured during fig5
//	-metrics PATH      write a Prometheus text snapshot of the run's metrics
//	                   registry (PATH "-" means stdout)
//	-serve ADDR        serve live /metrics (Prometheus text), /timeline
//	                   (Chrome trace JSON), /verdicts (gate judgments, JSON),
//	                   and /profile (folded stacks, FlameGraph-ready) over
//	                   HTTP until interrupted
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"govolve/internal/apps"
	"govolve/internal/bench"
	"govolve/internal/core"
	"govolve/internal/obs"
	"govolve/internal/storm"
	"govolve/internal/vm"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1|fig6|fig5|tables234|matrix|ablation|transformers|scratch|active|pausecmp|storm|stream|obs|dispatch|all")
	scale := flag.Int("scale", 8, "divide microbenchmark object counts by this factor (1 = paper scale)")
	handWritten := flag.Bool("handwritten", false, "table1/fig6: use the hand-written equivalent of the default transformer (pairs + interpreted calls, the paper's configuration)")
	runs := flag.Int("runs", 3, "runs per measurement cell (paper: 21 for fig5)")
	duration := flag.Duration("duration", 500*time.Millisecond, "measurement window per fig5/ablation run (paper: 60s)")
	seed := flag.Int64("seed", 1, "storm: PRNG seed (failures print the seed to replay)")
	updates := flag.Int("updates", 500, "storm: applied updates to drive per run")
	pauseBudget := flag.Float64("pause-budget", -1, "storm: arm a pause-budget health gate at this many seconds under the halt policy (-1 disables; 0 is a deterministic injected regression — a real pause is always > 0)")
	pauseOut := flag.String("pause-out", "BENCH_pause.json", "pausecmp: output JSON path (empty disables the file)")
	obsOut := flag.String("obs-out", "BENCH_obs.json", "obs: output JSON path (empty disables the file)")
	streamOut := flag.String("stream-out", "BENCH_stream.json", "stream: output JSON path (empty disables the file)")
	dispatchOut := flag.String("dispatch-out", "BENCH_dispatch.json", "dispatch: output JSON path (empty disables the file)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON timeline of the fig5 flight-recorder events (load in Perfetto)")
	metricsOut := flag.String("metrics", "", "write a Prometheus text-format metrics snapshot to this path ('-' for stdout)")
	serveAddr := flag.String("serve", "", "serve live /metrics and /timeline over HTTP on this address until interrupted")
	flag.Parse()

	// The shared observability plane: fig5 VMs attach this recorder,
	// registry, gate engine, and profiler; -trace/-metrics snapshot them at
	// exit, and -serve exposes them live.
	rec := obs.NewRecorder(obs.DefaultCapacity)
	reg := obs.NewRegistry()
	gates := obs.NewGateEngine(nil, 0, reg)
	prof := obs.NewProfiler(0)
	if *serveAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			_ = reg.WritePrometheus(w)
		})
		mux.HandleFunc("/timeline", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = obs.WriteChromeTrace(w, rec.Events())
		})
		mux.HandleFunc("/verdicts", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = gates.WriteJSON(w)
		})
		mux.HandleFunc("/profile", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = prof.WriteFolded(w)
		})
		go func() {
			if err := http.ListenAndServe(*serveAddr, mux); err != nil {
				fmt.Fprintf(os.Stderr, "jvolve-bench: -serve %s: %v\n", *serveAddr, err)
				os.Exit(1)
			}
		}()
		fmt.Fprintf(os.Stderr, "jvolve-bench: serving /metrics, /timeline, /verdicts, /profile on %s\n", *serveAddr)
	}

	run := func(name string, f func() error) {
		switch *exp {
		case name, "all":
			if err := f(); err != nil {
				fmt.Fprintf(os.Stderr, "jvolve-bench: %s: %v\n", name, err)
				os.Exit(1)
			}
		}
	}

	var microCells []bench.Cell
	var microSizes []bench.MicroConfig
	fractions := bench.DefaultFractions()
	runMicro := func() error {
		if microCells != nil {
			return nil
		}
		if *scale <= 1 {
			microSizes = bench.PaperSizes()
		} else {
			microSizes = bench.ScaledSizes(*scale)
		}
		for i := range microSizes {
			microSizes[i].HandWritten = *handWritten
		}
		fmt.Printf("Microbenchmark sweep: %d sizes × %d fractions × %d run(s), handwritten=%v\n",
			len(microSizes), len(fractions), *runs, *handWritten)
		cells, err := bench.RunSweep(bench.MicroSweep{
			Sizes: microSizes, Fractions: fractions, Runs: *runs,
		}, os.Stderr)
		if err != nil {
			return err
		}
		microCells = cells
		return nil
	}

	run("table1", func() error {
		if err := runMicro(); err != nil {
			return err
		}
		fmt.Println("=== Table 1: JVOLVE update pause time ===")
		bench.PrintTable1(os.Stdout, microSizes, fractions, microCells)
		return nil
	})
	run("fig6", func() error {
		if err := runMicro(); err != nil {
			return err
		}
		fmt.Println("=== Figure 6 ===")
		bench.PrintFig6(os.Stdout, microSizes, fractions, microCells)
		fmt.Println()
		return nil
	})
	run("fig5", func() error {
		fmt.Println("=== Figure 5 ===")
		app := apps.Webserver()
		results, err := bench.RunFig5(app, bench.DefaultFig5Configs(app),
			bench.Fig5Options{Runs: *runs, Duration: *duration,
				Recorder: rec, Metrics: reg, Gates: gates, Profiler: prof}, os.Stderr)
		if err != nil {
			return err
		}
		bench.PrintFig5(os.Stdout, results)
		if v := gates.Last(); v != nil {
			fmt.Printf("last gate %s\n", v)
		}
		fmt.Println()
		return nil
	})
	run("tables234", func() error {
		fmt.Println("=== Tables 2-4: UPT release summaries ===")
		for _, app := range apps.All() {
			rows, err := bench.SummarizeApp(app)
			if err != nil {
				return err
			}
			bench.PrintTable(os.Stdout, app, rows)
		}
		return nil
	})
	run("matrix", func() error {
		fmt.Println("=== Update applicability (paper §4: 20 of 22) ===")
		var all []apps.MatrixEntry
		for _, app := range apps.All() {
			entries, err := apps.RunMatrix(app, 1<<20)
			if err != nil {
				return err
			}
			all = append(all, entries...)
		}
		bench.PrintMatrix(os.Stdout, all)
		fmt.Println()
		return nil
	})
	run("ablation", func() error {
		fmt.Println("=== Ablation: steady-state cost of lazy-update indirection ===")
		res, err := bench.RunAblation(apps.Webserver(), *runs, *duration, os.Stderr)
		if err != nil {
			return err
		}
		bench.PrintAblation(os.Stdout, res)
		fmt.Println()
		return nil
	})
	run("transformers", func() error {
		fmt.Println("=== Extension: transformer execution strategy (§4.1: interpreted pairs vs moves in the collector) ===")
		objects := 280_000 / *scale
		if *scale <= 1 {
			objects = 280_000
		}
		res, err := bench.RunTransformerStrategy(objects, *runs, os.Stderr)
		if err != nil {
			return err
		}
		bench.PrintTransformerStrategy(os.Stdout, res)
		fmt.Println()
		return nil
	})
	run("scratch", func() error {
		fmt.Println("=== Extension: old copies in from-space's tail (§3.5 memory pressure) ===")
		objects := 280_000 / *scale
		if *scale <= 1 {
			objects = 280_000
		}
		rows, err := bench.RunScratchPressure(objects, nil, os.Stderr)
		if err != nil {
			return err
		}
		bench.PrintScratch(os.Stdout, objects, rows)
		fmt.Println()
		return nil
	})
	run("active", func() error {
		fmt.Println("=== Extension: active-method updates (UpStare-style, §3.5 future work) ===")
		var all []apps.MatrixEntry
		for _, app := range []*apps.App{apps.Webserver(), apps.EmailServer()} {
			entries, err := apps.RunActiveExperiment(app, 1<<20)
			if err != nil {
				return err
			}
			all = append(all, entries...)
		}
		bench.PrintMatrix(os.Stdout, all)
		fmt.Println()
		return nil
	})

	run("pausecmp", func() error {
		fmt.Println("=== Extension: lazy transform / concurrent mark + relocation (the DSU pause per engine mode) ===")
		sizes := []int{240_000 / *scale, 960_000 / *scale}
		if *scale <= 1 {
			sizes = []int{240_000, 960_000}
		}
		rep, err := bench.RunPauseCmp(bench.PauseCmpSweep{
			Sizes: sizes, Runs: *runs,
		}, os.Stderr)
		if err != nil {
			return err
		}
		bench.PrintPauseCmp(os.Stdout, rep)
		if *pauseOut != "" {
			if err := bench.WritePauseCmpJSON(*pauseOut, rep); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *pauseOut)
		}
		fmt.Println()
		return nil
	})

	run("obs", func() error {
		fmt.Println("=== Extension: DSU pause decomposition via the observability plane ===")
		rep, err := bench.RunObsPause(bench.ObsPauseOptions{Runs: *runs}, os.Stderr)
		if err != nil {
			return err
		}
		bench.PrintObsPause(os.Stdout, rep)
		if *obsOut != "" {
			if err := bench.WriteObsPauseJSON(*obsOut, rep); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *obsOut)
		}
		fmt.Println()
		return nil
	})

	run("storm", func() error {
		fmt.Println("=== Extension: randomized update-storm soak (whole-VM invariant checking) ===")
		// Every engine mode, and stop-the-world once more with opt-tier OSR.
		var cfgs []storm.Config
		for _, m := range vm.Modes() {
			cfgs = append(cfgs, storm.Config{Seed: *seed, Updates: *updates, Lazy: m.Lazy, Concurrent: m.Concurrent})
		}
		cfgs = append(cfgs, storm.Config{Seed: *seed, Updates: *updates, OSROpt: true})
		if *pauseBudget >= 0 {
			for i := range cfgs {
				cfgs[i].GateSpecs = []obs.GateSpec{{
					Name: "pause-budget", Metric: obs.MPauseTotal,
					Agg: obs.AggSum, Cmp: obs.CmpLE,
					Threshold: *pauseBudget, WallClock: true,
				}}
				cfgs[i].GatePolicy = core.GateHalt
			}
		}
		for _, cfg := range cfgs {
			rep, err := storm.Run(cfg)
			if err != nil {
				return err
			}
			fmt.Printf("seed=%d updates=%d osropt=%v lazy=%v concurrent=%v: "+
				"applied=%d aborted=%d rejected=%d checks=%d probes=%d steps=%d\n",
				rep.Seed, *updates, cfg.OSROpt, cfg.Lazy, cfg.Concurrent,
				rep.Applied, rep.Aborted, rep.Rejected, rep.Checks, rep.Probes, rep.Steps)
		}
		fmt.Println()
		return nil
	})

	run("stream", func() error {
		fmt.Println("=== Extension: long-horizon update streams (multi-release chain replay) ===")
		rep, err := bench.RunStream(bench.StreamSweep{
			Seed: *seed, Hostile: true,
		}, os.Stderr)
		if err != nil {
			return err
		}
		bench.PrintStream(os.Stdout, rep)
		if *streamOut != "" {
			if err := bench.WriteStreamJSON(*streamOut, rep); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *streamOut)
		}
		fmt.Println()
		return nil
	})

	run("dispatch", func() error {
		fmt.Println("=== Extension: interpreter dispatch tiers (superinstructions + inline caches) ===")
		rep, err := bench.RunDispatch(bench.DispatchSweep{Rounds: *runs}, os.Stderr)
		if err != nil {
			return err
		}
		bench.PrintDispatch(os.Stdout, rep)
		if *dispatchOut != "" {
			if err := bench.WriteDispatchJSON(*dispatchOut, rep); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *dispatchOut)
		}
		fmt.Println()
		return nil
	})

	switch *exp {
	case "table1", "fig6", "fig5", "tables234", "matrix", "ablation", "transformers", "scratch", "active", "pausecmp", "storm", "stream", "obs", "dispatch", "all":
	default:
		fmt.Fprintf(os.Stderr, "jvolve-bench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jvolve-bench: -trace: %v\n", err)
			os.Exit(1)
		}
		doc := rec.BuildTrace()
		prof.AppendCounterTrack(doc)
		if err := doc.Encode(f); err != nil {
			fmt.Fprintf(os.Stderr, "jvolve-bench: -trace: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "jvolve-bench: -trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d flight-recorder events, %d profile samples; load in ui.perfetto.dev)\n",
			*traceOut, len(rec.Events()), prof.TotalSamples())
	}
	if *metricsOut != "" {
		out := os.Stdout
		if *metricsOut != "-" {
			f, err := os.Create(*metricsOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "jvolve-bench: -metrics: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := reg.WritePrometheus(out); err != nil {
			fmt.Fprintf(os.Stderr, "jvolve-bench: -metrics: %v\n", err)
			os.Exit(1)
		}
		if *metricsOut != "-" {
			fmt.Printf("wrote %s (Prometheus text exposition)\n", *metricsOut)
		}
	}
	if *serveAddr != "" {
		fmt.Fprintf(os.Stderr, "jvolve-bench: still serving on %s; Ctrl-C to exit\n", *serveAddr)
		select {}
	}
}
