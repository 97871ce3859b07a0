// Command benchmark is govolve's bench of record: four workloads, measured
// end to end and layer by layer through the packages' exported functions
// only. See README.md in this directory for the metrics and the method.
//
//	bash benchmark/run.sh --workload web-steady --seed 1 --seconds 25 --trace 0
//	bash benchmark/run.sh -workload all -seed 1 -out /tmp/a.json
//	bash benchmark/run.sh -compare /tmp/a.json /tmp/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output of a single-workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is one run in a result file.
type runRecord struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	// Unresolved: the host never gave the run a quiet stretch; its timings
	// are not to be compared.
	Unresolved bool `json:"unresolved"`
	resultLine
}

// hostStamp says where and on what a result file was measured; results
// from differing hosts or seeds are not comparable.
type hostStamp struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

type resultFile struct {
	Host hostStamp   `json:"host"`
	Runs []runRecord `json:"runs"`
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	spec, root, err := loadSpec()
	if err != nil {
		return err
	}
	var cfg config
	var trace int
	var outFile string
	var compareMode bool
	flag.StringVar(&cfg.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are made from")
	flag.Float64Var(&cfg.seconds, "seconds", float64(spec.RunSeconds), "seconds of measurement per run")
	flag.IntVar(&trace, "trace", 0, "1: record spans and report the per-layer metrics; 0: the end-to-end metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny sizes and fixed repetition counts (the test suite's mode)")
	flag.StringVar(&outFile, "out", "", "write a result file for -compare")
	flag.BoolVar(&compareMode, "compare", false, "compare two result files: -compare A.json B.json")
	flag.Parse()
	if compareMode {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare wants two result files")
		}
		return compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace wants 0 or 1")
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	cfg.trace = trace == 1
	cfg.outDir = filepath.Join(root, spec.Paths[0], "out")

	var runs []runRecord
	if cfg.workload == "all" {
		runs, err = runAll(cfg)
	} else {
		runs, err = runOne(spec, cfg)
	}
	if err != nil {
		return err
	}
	if outFile != "" {
		file := resultFile{Host: stampHost(root, cfg), Runs: runs}
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outFile, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if cfg.workload != "all" {
		// The result line is the last line of standard output.
		line, err := json.Marshal(runs[0].resultLine)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// runOne measures one workload in this process and prints its metrics.
func runOne(spec *benchSpec, cfg config) ([]runRecord, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	declareMetrics(spec)
	out, err := w.run(cfg, defaultOracles())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	rec := runRecord{Workload: cfg.workload, Unresolved: out.unresolved}
	rec.resultLine = out.resultLine(spec, cfg.trace)
	if cfg.trace {
		rec.Trace = 1
	}
	printRun(os.Stdout, spec, cfg, rec, out)
	return []runRecord{rec}, nil
}

// resultLine lists every declared metric of the run's kind; a layer the
// workload never enters reports 0.
func (o *outcome) resultLine(spec *benchSpec, trace bool) resultLine {
	decls := spec.EndToEnd
	if trace {
		decls = spec.PerLayer
	}
	line := resultLine{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(decls)),
	}
	for _, d := range decls {
		line.Metrics[d.Name] = metricValue{Value: o.values[d.Name], Unit: d.Unit}
	}
	return line
}

func printRun(w *os.File, spec *benchSpec, cfg config, rec runRecord, out *outcome) {
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %d\n", rec.Workload, cfg.seed, cfg.seconds, rec.Trace)
	if rec.Unresolved {
		fmt.Fprintf(os.Stderr, "benchmark: warning: %s: fewer than %.0f%% of the repetitions ran within 10%% of the floor; the host gave this run no quiet stretch and its timings are unresolved\n",
			rec.Workload, minFastPhaseShare*100)
	}
	decls := spec.EndToEnd
	if cfg.trace {
		decls = spec.PerLayer
	}
	for _, d := range decls {
		v := strconv.FormatFloat(rec.Metrics[d.Name].Value, 'g', 8, 64)
		if rec.Unresolved && guarded(d) {
			v = "unresolved"
		}
		fmt.Fprintf(w, "  %-42s %14s %s\n", d.Name, v, d.Unit)
	}
	fmt.Fprintf(w, "  %-42s %14s ratio (%d failed of %d)\n", "failed_ratio",
		strconv.FormatFloat(ratio(float64(rec.Failed), float64(rec.Attempted)), 'g', 8, 64), rec.Failed, rec.Attempted)
	if out.traceFile != "" {
		fmt.Fprintf(w, "  trace file %s\n", out.traceFile)
	}
}

// guarded reports whether the run-validity guard speaks for a metric: every
// time, and every rate against time, that comes from the repetitions.
func guarded(d metricDecl) bool {
	switch d.Unit {
	case "ms", "us", "ns", "1/s", "words/s", "Mins/s":
		return true
	}
	return false
}

// runAll runs every workload, untraced and traced, each in a process of
// its own, and collects their records through one-run result files.
func runAll(cfg config) ([]runRecord, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	part := filepath.Join(cfg.outDir, "part.json")
	defer os.Remove(part)
	var runs []runRecord
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			args := []string{
				"-workload", w.name,
				"-seed", strconv.FormatInt(cfg.seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(trace),
				"-out", part,
			}
			if cfg.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return nil, fmt.Errorf("%s trace %d: %w", w.name, trace, err)
			}
			file, err := readResultFile(part)
			if err != nil {
				return nil, err
			}
			runs = append(runs, file.Runs...)
		}
	}
	return runs, nil
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file resultFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &file, nil
}

func stampHost(root string, cfg config) hostStamp {
	h := hostStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown",
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
	}
	// Best effort: a checkout without git history has no commit to name.
	cmd := exec.Command("git", "-C", root, "rev-parse", "HEAD")
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}
