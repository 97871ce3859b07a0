// Command jvolve-bench runs the experiments of the paper's evaluation that
// the bench of record (benchmark/) does not measure. `jvolve-bench -h` lists
// them; `-exp all` runs every one in turn. Four of them write a BENCH_*.json
// file stamped with the host that measured it, and refuse to overwrite a file
// another host stamped.
//
// -scale divides the microbenchmark object counts (1 = the paper's full
// 280k–3.67M objects; the default 8 finishes quickly on a laptop).
//
// The storm soak is reproducible: a failure prints its seed, and
// `jvolve-bench -exp storm -seed N -updates K` replays the exact run.
//
// Observability, of the webserver updates -exp obs applies under load:
//
//	-trace out.json    write a Chrome trace-event timeline (Perfetto-loadable)
//	                   of the flight-recorder events
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
	"io"
	"net/http"
	"os"
	"strings"

	"govolve/internal/apps"
	"govolve/internal/bench"
	"govolve/internal/core"
	"govolve/internal/obs"
	"govolve/internal/storm"
	"govolve/internal/vm"
)

var (
	scale       = flag.Int("scale", 8, "divide microbenchmark object counts by this factor (1 = paper scale)")
	runs        = flag.Int("runs", 3, "runs per measurement cell")
	seed        = flag.Int64("seed", 1, "storm: PRNG seed (failures print the seed to replay)")
	updates     = flag.Int("updates", 500, "storm: applied updates to drive per run")
	pauseBudget = flag.Float64("pause-budget", -1, "storm: arm a pause-budget health gate at this many seconds under the halt policy (-1 disables; 0 is a deterministic injected regression — a real pause is always > 0)")
	pauseOut    = flag.String("pause-out", "BENCH_pause.json", "pausecmp: output JSON path (empty disables the file)")
	obsOut      = flag.String("obs-out", "BENCH_obs.json", "obs: output JSON path (empty disables the file)")
	streamOut   = flag.String("stream-out", "BENCH_stream.json", "stream: output JSON path (empty disables the file)")
	dispatchOut = flag.String("dispatch-out", "BENCH_dispatch.json", "dispatch: output JSON path (empty disables the file)")
	traceOut    = flag.String("trace", "", "write a Chrome trace-event JSON timeline of the obs webserver updates (load in Perfetto)")
	metricsOut  = flag.String("metrics", "", "write a Prometheus text-format metrics snapshot to this path ('-' for stdout)")
	serveAddr   = flag.String("serve", "", "serve live /metrics and /timeline over HTTP on this address until interrupted")
)

// The shared observability plane: the obs experiment's webserver VMs attach
// this recorder, registry, gate engine and profiler; -trace/-metrics
// snapshot them at exit, and -serve exposes them live.
var (
	rec   = obs.NewRecorder(obs.DefaultCapacity)
	reg   = obs.NewRegistry()
	gates = obs.NewGateEngine(nil, 0, reg)
	prof  = obs.NewProfiler(0)
)

// experiments is the one list of what -exp accepts, in the order -exp all
// runs them; each prints its title as a header before it runs.
var experiments = []struct {
	name, title string
	run         func() error
}{
	{"table1", "Table 1 and Figure 6: JVOLVE update pause time (serial mode; with E7's transformer speedup and E9's tail share)", table1},
	{"tables234", "Tables 2-4: UPT release summaries", tables234},
	{"matrix", "Update applicability (paper §4: 20 of 22)", matrix},
	{"active", "Extension: active-method updates (UpStare-style, §3.5 future work)", active},
	{"pausecmp", "Extension: concurrent relocation and on-touch transformation (the DSU pause per engine mode)", pausecmp},
	{"obs", "Extension: DSU pause decomposition via the observability plane", obsPause},
	{"storm", "Extension: randomized update-storm soak (whole-VM invariant checking)", stormSoak},
	{"stream", "Extension: long-horizon update streams (multi-release chain replay)", streams},
	{"dispatch", "Extension: interpreter dispatch tiers (superinstructions + inline caches)", dispatch},
}

// scaled divides the paper-scale object counts by -scale.
func scaled(objects []int) []int {
	for i := range objects {
		objects[i] /= max(1, *scale)
	}
	return objects
}

func table1() error {
	rep, err := bench.RunPauseCmp(bench.PauseCmpSweep{
		Sizes: scaled(bench.PaperSizes()), Fractions: bench.DefaultFractions(),
		Runs: *runs, Modes: vm.Modes()[:1],
	}, os.Stderr)
	if err != nil {
		return err
	}
	bench.PrintTable1(os.Stdout, rep.Rows)
	return nil
}

func tables234() error {
	for _, app := range apps.All() {
		rows, err := bench.SummarizeApp(app)
		if err != nil {
			return err
		}
		bench.PrintTable(os.Stdout, app, rows)
	}
	return nil
}

func matrix() error {
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
}

func active() error {
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
}

// write records a report at path unless path is empty.
func write[Row any](path string, rep *bench.Report[Row]) error {
	if path == "" {
		return nil
	}
	if err := bench.WriteReport(path, rep); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func pausecmp() error {
	rep, err := bench.RunPauseCmp(bench.PauseCmpSweep{
		Sizes: scaled([]int{240_000, 960_000}), Runs: *runs,
	}, os.Stderr)
	if err != nil {
		return err
	}
	bench.PrintPauseCmp(os.Stdout, rep)
	err = write(*pauseOut, rep)
	fmt.Println()
	return err
}

func obsPause() error {
	rep, err := bench.RunObsPause(bench.ObsPauseOptions{
		Runs: *runs, Recorder: rec, Metrics: reg, Gates: gates, Profiler: prof,
	}, os.Stderr)
	if err != nil {
		return err
	}
	bench.PrintObsPause(os.Stdout, rep)
	err = write(*obsOut, rep)
	fmt.Println()
	return err
}

func stormSoak() error {
	// Every engine mode, and stop-the-world once more with opt-tier OSR.
	var cfgs []storm.Config
	for _, m := range vm.Modes() {
		cfgs = append(cfgs, storm.Config{Seed: *seed, Updates: *updates, Concurrent: m.Concurrent})
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
		fmt.Printf("seed=%d updates=%d osropt=%v concurrent=%v: applied=%d aborted=%d rejected=%d checks=%d probes=%d steps=%d\n",
			rep.Seed, *updates, cfg.OSROpt, cfg.Concurrent, rep.Applied, rep.Aborted, rep.Rejected, rep.Checks, rep.Probes, rep.Steps)
	}
	fmt.Println()
	return nil
}

func streams() error {
	rep, err := bench.RunStream(bench.StreamSweep{Seed: *seed, Hostile: true}, os.Stderr)
	if err != nil {
		return err
	}
	bench.PrintStream(os.Stdout, rep)
	err = write(*streamOut, rep)
	fmt.Println()
	return err
}

func dispatch() error {
	rep, err := bench.RunDispatch(bench.DispatchSweep{Rounds: *runs}, os.Stderr)
	if err != nil {
		return err
	}
	bench.PrintDispatch(os.Stdout, rep)
	err = write(*dispatchOut, rep)
	fmt.Println()
	return err
}

func main() {
	var names []string
	for _, e := range experiments {
		names = append(names, e.name)
	}
	exp := flag.String("exp", "all", "experiment: "+strings.Join(names, "|")+"|all")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: jvolve-bench -exp NAME [flags]\n\nexperiments:\n")
		for _, e := range experiments {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-10s %s\n", e.name, e.title)
		}
		fmt.Fprintf(flag.CommandLine.Output(), "  %-10s every experiment above, in order\n\nflags:\n", "all")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *serveAddr != "" {
		serve(*serveAddr)
	}

	ran := false
	for _, e := range experiments {
		if *exp != e.name && *exp != "all" {
			continue
		}
		ran = true
		fmt.Printf("=== %s ===\n", e.title)
		if err := e.run(); err != nil {
			fail(e.name, err)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "jvolve-bench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}

	if *traceOut != "" {
		if err := writeFile(*traceOut, func(w io.Writer) error {
			doc := rec.BuildTrace()
			prof.AppendCounterTrack(doc)
			return doc.Encode(w)
		}); err != nil {
			fail("-trace", err)
		}
		fmt.Printf("wrote %s (%d flight-recorder events, %d profile samples; load in ui.perfetto.dev)\n",
			*traceOut, len(rec.Events()), prof.TotalSamples())
	}
	if *metricsOut != "" {
		if err := writeFile(*metricsOut, reg.WritePrometheus); err != nil {
			fail("-metrics", err)
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

func fail(what string, err error) {
	fmt.Fprintf(os.Stderr, "jvolve-bench: %s: %v\n", what, err)
	os.Exit(1)
}

func serve(addr string) {
	mux := http.NewServeMux()
	for _, ep := range []struct {
		path, contentType string
		write             func(io.Writer) error
	}{
		{"/metrics", "text/plain; version=0.0.4", reg.WritePrometheus},
		{"/timeline", "application/json", func(w io.Writer) error { return obs.WriteChromeTrace(w, rec.Events()) }},
		{"/verdicts", "application/json", gates.WriteJSON},
		{"/profile", "text/plain; charset=utf-8", prof.WriteFolded},
	} {
		mux.HandleFunc(ep.path, func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", ep.contentType)
			_ = ep.write(w)
		})
	}
	go func() {
		if err := http.ListenAndServe(addr, mux); err != nil {
			fail("-serve "+addr, err)
		}
	}()
	fmt.Fprintf(os.Stderr, "jvolve-bench: serving /metrics, /timeline, /verdicts, /profile on %s\n", addr)
}

// writeFile writes what write produces to path ("-" is stdout).
func writeFile(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
