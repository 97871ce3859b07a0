package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart anchors setup_s: package initialisation is the first thing
// the process does after the Go runtime comes up.
var processStart = time.Now()

// config is one invocation: one workload, one seed, traced or not.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// smoke replaces the timed loops with a few repetitions at tiny sizes:
	// the test suite's mode. Its timings mean nothing; its counts are exact.
	smoke  bool
	outDir string
}

// scale picks the full size of a workload parameter or its smoke size.
func (c config) scale(full, smoke int) int {
	if c.smoke {
		return smoke
	}
	return full
}

// Shares of --seconds each phase of a traced run gets. An untraced run
// spends all of it in the untraced phase.
const (
	tracedUntracedShare = 0.50
	tracedTracedShare   = 0.35
	tracedObsShare      = 0.15
)

func (c config) phase(share float64) time.Duration {
	if !c.trace {
		share = 1
	}
	return time.Duration(c.seconds * share * float64(time.Second))
}

// budget bounds one measurement loop: until the deadline in a timed run, a
// fixed number of repetitions in a smoke run.
type budget struct {
	deadline time.Time
	reps     int
	done     int
}

func (c config) budget(d time.Duration, smokeReps int) *budget {
	if c.smoke {
		return &budget{reps: smokeReps}
	}
	return &budget{deadline: time.Now().Add(d)}
}

func (b *budget) more() bool {
	if b.reps > 0 {
		b.done++
		return b.done <= b.reps
	}
	return time.Now().Before(b.deadline)
}

// outcome is what one invocation measured.
type outcome struct {
	attempted, failed int64
	values            map[string]float64
	// unresolved marks a run whose fast-phase share was below the validity
	// limit: its timings are measured but should not be compared.
	unresolved bool
	traceFile  string
	// tracedWall is the wall time of the traced units measured around them;
	// tracedSelf is the sum of the span self times. The two agree when the
	// spans account for all of the traced time.
	tracedWall, tracedSelf time.Duration
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// set records one metric; a name outside the declared tables is a bug in
// the benchmark.
func (o *outcome) set(name string, v float64) {
	if _, ok := unitOf[name]; !ok {
		panic("benchmark: undeclared metric " + name)
	}
	o.values[name] = v
}

// check counts one operation against an oracle.
func (o *outcome) check(ok bool) {
	o.attempted++
	if !ok {
		o.failed++
	}
}

// minFastPhaseShare is the run-validity limit on driver.fast_phase_share.
const minFastPhaseShare = 0.05

// validate marks the run unresolved when the host never left the workload's
// unit of work a quiet stretch.
func (o *outcome) validate(cfg config, primary series) {
	if !cfg.smoke && primary.fastPhaseShare() < minFastPhaseShare {
		o.unresolved = true
	}
}

// finishUntraced records the end-to-end metrics. workMs and waitMs are the
// floors the workload measured, primary is the series of its unit of work,
// rss the resident set size sampled after every unit.
func (o *outcome) finishUntraced(cfg config, setupS float64, primary, rss series, workMs, waitMs float64) {
	o.set("work_ms", workMs)
	o.set("wait_ms", waitMs)
	o.set("rss_mb", rss.median())
	o.set("setup_s", setupS)
	o.validate(cfg, primary)
}

// finishTraced records the driver and tracing metrics every workload shares
// and writes the trace file.
func (o *outcome) finishTraced(cfg config, primary, traced series, rec *recorder) error {
	o.set("driver.windows", float64(len(primary)))
	o.set("driver.fast_phase_share", primary.fastPhaseShare())
	o.set("driver.peak_rss_mb", peakRSSMB())
	o.set("driver.self_share", rec.layerShare("driver"))
	o.set("trace.spans", float64(rec.spans()))
	o.set("trace.overhead_ratio", ratio(primary.floor(), traced.floor()))
	o.tracedSelf = rec.selfTotal()
	o.validate(cfg, primary)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	o.traceFile = filepath.Join(cfg.outDir, cfg.workload+".trace.json")
	return rec.writeChromeTrace(o.traceFile)
}

// setupRuns is how often the set-up sequence runs; setup_s counts the
// fastest.
const setupRuns = 7

// timeSetups runs the set-up sequence setupRuns times, first thing in a
// run. It returns the last state and setup_s: the time from process start
// to here plus the fastest set-up.
func timeSetups[T any](setup func() (T, error)) (T, float64, error) {
	lead := time.Since(processStart)
	var state T
	var times series
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return state, 0, err
		}
		times.addDur(time.Since(t0))
		state = s
	}
	return state, lead.Seconds() + times.min()/1000, nil
}

// residentMB is the process's resident set size now; 0 where /proc does not
// say.
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20)
}

// peakRSSMB is the largest resident set size the process has had.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// goHeap is a snapshot of the Go allocator's counters, taken outside timed
// regions (ReadMemStats stops the world).
type goHeap struct {
	mallocs, bytes uint64
	gcCycles       uint32
}

func readGoHeap() goHeap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goHeap{mallocs: m.Mallocs, bytes: m.TotalAlloc, gcCycles: m.NumGC}
}

func (a goHeap) add(b goHeap) goHeap {
	return goHeap{mallocs: a.mallocs + b.mallocs, bytes: a.bytes + b.bytes, gcCycles: a.gcCycles + b.gcCycles}
}

func (a goHeap) sub(b goHeap) goHeap {
	return goHeap{mallocs: a.mallocs - b.mallocs, bytes: a.bytes - b.bytes, gcCycles: a.gcCycles - b.gcCycles}
}

// workload binds a name to its implementation.
type workload struct {
	name string
	run  func(cfg config, orc *oracles) (*outcome, error)
}

var workloads = []workload{
	{"web-steady", runWebSteady},
	{"guest-compute", runGuestCompute},
	{"update-pause", runUpdatePause},
	{"release-replay", runReleaseReplay},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
