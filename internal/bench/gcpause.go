package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
)

// The gcpause experiment measures the stop-the-world DSU window as a
// function of collection workers: for each heap size it runs the Table 1
// microbenchmark update under the serial collector and under the parallel
// copy/scan collector at increasing worker counts, and reports the GC-phase
// pause plus the speedup relative to the serial baseline. The per-worker
// copied-word split and steal counts are recorded so load imbalance is
// visible, not just the aggregate.
//
// Interpretation caveat: wall-clock speedup requires hardware parallelism.
// On a single-CPU host (GOMAXPROCS=1) the Go scheduler time-slices the
// workers, so the parallel collector pays its coordination overhead without
// any win — speedups near or below 1.0 are the *expected* honest result
// there. The emitted JSON records gomaxprocs/cpus so the numbers can be
// judged in context.

// GCPauseSweep configures the experiment grid.
type GCPauseSweep struct {
	// Sizes is the object-count axis (heap is sized 5× live, as in
	// RunMicro). Zero means DefaultGCPauseSizes.
	Sizes []int
	// FracUpdated is the fraction of updated-class instances (default 0.2).
	FracUpdated float64
	// WorkerCounts is the worker axis; 1 is the serial baseline and must
	// come first for the speedup column (default 1,2,4,8).
	WorkerCounts []int
	// Runs per cell; the median is reported (default 3).
	Runs int
}

// DefaultGCPauseSizes returns the object-count axis. The larger size puts
// the live set past 1M heap words (each object is 8 words plus its array
// slot), the regime the paper's Table 1 covers.
func DefaultGCPauseSizes() []int { return []int{30_000, 120_000} }

// GCPauseRow is one measured cell.
type GCPauseRow struct {
	Objects     int     `json:"objects"`
	HeapWords   int     `json:"heap_words"`
	FracUpdated float64 `json:"frac_updated"`
	Workers     int     `json:"workers"`

	GCMillis        Summary `json:"gc_ms"`
	TransformMillis Summary `json:"transform_ms"`
	TotalMillis     Summary `json:"total_ms"`

	// SpeedupGC is serial median GC pause / this row's median GC pause
	// (1.0 for the serial row itself).
	SpeedupGC float64 `json:"speedup_gc"`

	PairsLogged int   `json:"pairs_logged"`
	Steals      int64 `json:"steals"`
	WorkerWords []int `json:"worker_words,omitempty"`
}

// GCPauseReport is the BENCH_gc.json document.
type GCPauseReport struct {
	Experiment string       `json:"experiment"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	NumCPU     int          `json:"num_cpu"`
	Note       string       `json:"note"`
	Rows       []GCPauseRow `json:"rows"`
}

// RunGCPause measures the grid. Worker count 1 rows are the serial
// baseline for their size; speedups are computed against them.
func RunGCPause(sw GCPauseSweep, progress io.Writer) (*GCPauseReport, error) {
	if len(sw.Sizes) == 0 {
		sw.Sizes = DefaultGCPauseSizes()
	}
	if sw.FracUpdated == 0 {
		sw.FracUpdated = 0.2
	}
	if len(sw.WorkerCounts) == 0 {
		sw.WorkerCounts = []int{1, 2, 4, 8}
	}
	if sw.Runs <= 0 {
		sw.Runs = 3
	}
	rep := &GCPauseReport{
		Experiment: "gcpause",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Note: "speedup_gc is serial-median / row-median for the same size; " +
			"wall-clock speedup > 1 requires gomaxprocs > 1 (single-CPU hosts " +
			"time-slice the workers and only measure coordination overhead)",
	}
	for _, objects := range sw.Sizes {
		serialMedian := 0.0
		for _, workers := range sw.WorkerCounts {
			var gcs, trs, tots []float64
			var last *MicroResult
			for r := 0; r < sw.Runs; r++ {
				res, err := RunMicro(MicroConfig{
					Objects:     objects,
					FracUpdated: sw.FracUpdated,
					HeapLabel:   fmt.Sprintf("%d objects", objects),
					Workers:     workers,
				})
				if err != nil {
					return nil, fmt.Errorf("bench: gcpause objects=%d workers=%d: %w", objects, workers, err)
				}
				gcs = append(gcs, Millis(res.GC))
				trs = append(trs, Millis(res.Transform))
				tots = append(tots, Millis(res.Total))
				last = res
			}
			row := GCPauseRow{
				Objects:         objects,
				HeapWords:       5 * (objects*8 + objects + 2*2 + 64),
				FracUpdated:     sw.FracUpdated,
				Workers:         workers,
				GCMillis:        Summarize(gcs),
				TransformMillis: Summarize(trs),
				TotalMillis:     Summarize(tots),
				PairsLogged:     last.PairsLogged,
				Steals:          last.GCSteals,
				WorkerWords:     last.GCWorkerWords,
			}
			if workers <= 1 {
				serialMedian = row.GCMillis.Median
			}
			if serialMedian > 0 && row.GCMillis.Median > 0 {
				row.SpeedupGC = serialMedian / row.GCMillis.Median
			}
			rep.Rows = append(rep.Rows, row)
			if progress != nil {
				fmt.Fprintf(progress, ".")
			}
		}
		if progress != nil {
			fmt.Fprintln(progress)
		}
	}
	return rep, nil
}

// WriteGCPauseJSON writes the report as indented JSON (BENCH_gc.json).
func WriteGCPauseJSON(path string, rep *GCPauseReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// PrintGCPause renders the grid as text.
func PrintGCPause(w io.Writer, rep *GCPauseReport) {
	fmt.Fprintf(w, "GC-phase pause vs collection workers (gomaxprocs=%d, cpus=%d)\n",
		rep.GOMAXPROCS, rep.NumCPU)
	fmt.Fprintf(w, "%10s %9s %8s %10s %14s %12s %9s %7s\n",
		"objects", "heapwords", "workers", "GC (ms)", "transform (ms)", "total (ms)", "speedup", "steals")
	for _, r := range rep.Rows {
		fmt.Fprintf(w, "%10d %9d %8d %10.2f %14.2f %12.2f %8.2fx %7d\n",
			r.Objects, r.HeapWords, r.Workers,
			r.GCMillis.Median, r.TransformMillis.Median, r.TotalMillis.Median,
			r.SpeedupGC, r.Steals)
		if len(r.WorkerWords) > 1 {
			fmt.Fprintf(w, "%29s per-worker words copied: %v\n", "", r.WorkerWords)
		}
	}
	fmt.Fprintf(w, "note: %s\n", rep.Note)
}
