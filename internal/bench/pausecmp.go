package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"

	"govolve/internal/vm"
)

// The pausecmp experiment is the headline measurement of the pause-
// shrinking work: the Table 1 microbenchmark update run in every engine mode
// (vm.Modes) — the fused stop-the-world pipeline, lazy transformation,
// concurrent (SATB mark before the pause, relocation drain after it) and the
// two composed — over a sizes × updated-fraction grid. For each cell it
// reports the same uniform pause decomposition — rescan / copy / transform —
// so every claim is checkable from the JSON itself: lazy rows show
// transform_ms ≈ 0 with the forced drain in drain_ms; concurrent rows show the
// trace's wall time in mark_outside_ms, only the rescan of it inside the
// pause, and copy_ms collapsing to the eager evacuation of updated instances
// only (near zero at small fractions) with the bulk copy's wall time in
// reloc_drain_ms; concurrent+lazy rows have no mark at all and the pause down
// to flip preparation.
//
// Interpretation caveat: concurrent phases only overlap mutator work if the
// host has a spare CPU. On GOMAXPROCS=1 they are
// time-sliced with everything else — the *pause* still excludes them (the
// decomposition claim holds), but total wall-clock improves only with
// hardware parallelism. The JSON records gomaxprocs/cpus.

// PauseCmpSweep configures the grid.
type PauseCmpSweep struct {
	// Sizes is the object-count axis (heap sized 5× live, as in RunMicro).
	// The default, 30 000 and 120 000, ends past 1M live heap words (each
	// object is 8 words plus its array slot), the regime the paper's Table 1
	// covers.
	Sizes []int
	// Fractions is the updated-instance fraction axis (default .05/.2/.5).
	Fractions []float64
	// Runs per cell; the median is reported (default 3).
	Runs int
}

// PauseCmpRow is one measured cell in one mode.
type PauseCmpRow struct {
	Objects     int     `json:"objects"`
	HeapWords   int     `json:"heap_words"`
	FracUpdated float64 `json:"frac_updated"`
	Mode        string  `json:"mode"` // a vm.Modes name
	// Transformer is "moved" — the generated default, a pure field copy the
	// collector performs while it copies the object — or "handwritten": the
	// same copies plus an explicit store (MicroConfig.HandWritten), one pair
	// and one interpreted call per updated object, which is what the lazy
	// pipelines have to place.
	Transformer string `json:"transformer"`

	PauseTotalMillis Summary `json:"pause_total_ms"`
	GCMillis         Summary `json:"gc_ms"`
	RescanMillis     Summary `json:"rescan_ms"`
	CopyMillis       Summary `json:"copy_ms"`
	TransformMillis  Summary `json:"transform_ms"`
	// TransformNsPerObject is the median transformer time per transformed
	// object (logged pairs + moved_objects, for which it is 0 by construction),
	// wherever the transformers ran: inside the pause (transform_ms) or in
	// the forced post-pause drain (drain_ms, lazy rows — an upper bound on
	// concurrent+lazy rows, whose drain also force-completes the relocation).
	TransformNsPerObject float64 `json:"transform_ns_per_object"`
	MarkOutsideMillis    Summary `json:"mark_outside_ms"`

	// Lazy rows: the transform work leaves the pause entirely —
	// transform_ms ≈ 0, lazy_pending pairs stay pending behind the read
	// barrier, and the forced drain's wall time appears in drain_ms.
	DrainMillis Summary `json:"drain_ms"`
	LazyPending int     `json:"lazy_pending,omitempty"`

	// Concurrent rows: the bulk copy leaves the pause — copy_ms keeps only the
	// eager evacuation of updated-class instances (none at all composed
	// with lazy), reloc_objects are evacuated after the world resumes, and
	// the flip-to-finalize drain wall time appears in reloc_drain_ms.
	RelocDrainMillis Summary `json:"reloc_drain_ms"`
	RelocObjects     int     `json:"reloc_objects,omitempty"`

	MarkedObjects int `json:"marked_objects,omitempty"`
	RescanMarked  int `json:"rescan_marked,omitempty"`
	PairsLogged   int `json:"pairs_logged"`
	// MovedObjects is how many updated instances the collector (or the
	// relocation drain) wrote directly in their new layout.
	MovedObjects int `json:"moved_objects"`

	// SpeedupPause is the serial row's median total pause divided by this
	// row's, for the same size × fraction (1.0 on serial rows).
	SpeedupPause float64 `json:"speedup_pause"`
}

// PauseCmpReport is the BENCH_pause.json document.
type PauseCmpReport struct {
	Experiment string        `json:"experiment"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	Note       string        `json:"note"`
	Rows       []PauseCmpRow `json:"rows"`
}

// RunPauseCmp measures the grid: for each size × fraction × transformer, one
// row per mode, the serial row first (the baseline for speedup_pause).
func RunPauseCmp(sw PauseCmpSweep, progress io.Writer) (*PauseCmpReport, error) {
	if len(sw.Sizes) == 0 {
		sw.Sizes = []int{30_000, 120_000}
	}
	if len(sw.Fractions) == 0 {
		sw.Fractions = []float64{0.05, 0.2, 0.5}
	}
	if sw.Runs <= 0 {
		sw.Runs = 3
	}
	rep := &PauseCmpReport{
		Experiment: "pausecmp",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Note: "speedup_pause is serial-median / row-median total pause for the same " +
			"size, fraction and transformer. The decomposition is uniform across modes: " +
			"serial's fused trace+copy is all copy_ms; lazy rows show transform_ms = 0 with " +
			"lazy_pending pairs drained post-pause in drain_ms (transformer = handwritten; " +
			"moved objects are never pairs, so there lazy has nothing to defer); concurrent rows " +
			"show the trace wall time in mark_outside_ms with only rescan_ms of it in the pause, and keep only " +
			"the eager evacuation of updated instances in copy_ms with the bulk copy " +
			"in reloc_drain_ms (composed with lazy: no mark, copy_ms = 0). Pause shrinkage is " +
			"a decomposition property and holds on any host; wall-clock overlap of " +
			"concurrent phases with mutator work additionally requires gomaxprocs > 1.",
	}
	for _, objects := range sw.Sizes {
		for _, frac := range sw.Fractions {
			for _, transformer := range []string{"moved", "handwritten"} {
				serialMedian := 0.0
				for _, mode := range vm.Modes() {
					var tots, gcs, rescans, copies, trs, outs, drains, rdrains []float64
					var last *MicroResult
					for r := 0; r < sw.Runs; r++ {
						res, err := RunMicro(MicroConfig{
							Objects:     objects,
							FracUpdated: frac,
							HeapLabel:   fmt.Sprintf("%d objects", objects),
							Lazy:        mode.Lazy,
							Concurrent:  mode.Concurrent,
							HandWritten: transformer == "handwritten",
						})
						if err != nil {
							return nil, fmt.Errorf("bench: pausecmp objects=%d frac=%.2f mode=%s transformer=%s: %w",
								objects, frac, mode.Name, transformer, err)
						}
						// No relocation: the engine gave up on the mark and this run
						// was the stop-the-world collection.
						if mode.Concurrent && !res.Relocated {
							return nil, fmt.Errorf("bench: pausecmp objects=%d frac=%.2f mode=%s: fell back to STW",
								objects, frac, mode.Name)
						}
						tots = append(tots, Millis(res.PauseTotal))
						gcs = append(gcs, Millis(res.PauseGC))
						rescans = append(rescans, Millis(res.PauseRescan))
						copies = append(copies, Millis(res.PauseCopy))
						trs = append(trs, Millis(res.PauseTransform))
						outs = append(outs, Millis(res.MarkOutside))
						drains = append(drains, Millis(res.Drain))
						rdrains = append(rdrains, Millis(res.Reloc.Drain))
						last = res
					}
					row := PauseCmpRow{
						Objects:     objects,
						HeapWords:   5 * (objects*8 + objects + 2*2 + 64),
						FracUpdated: frac,
						Mode:        mode.Name,
						Transformer: transformer,

						PauseTotalMillis:  Summarize(tots),
						GCMillis:          Summarize(gcs),
						RescanMillis:      Summarize(rescans),
						CopyMillis:        Summarize(copies),
						TransformMillis:   Summarize(trs),
						MarkOutsideMillis: Summarize(outs),
						DrainMillis:       Summarize(drains),
						LazyPending:       last.LazyPending,
						RelocDrainMillis:  Summarize(rdrains),
						RelocObjects:      last.Reloc.Objects,

						MarkedObjects: last.MarkedObjects,
						RescanMarked:  last.RescanMarked,
						PairsLogged:   last.PairsLogged,
						MovedObjects:  last.MovedObjects,
					}
					if last.TransformedObjects > 0 {
						row.TransformNsPerObject = (row.TransformMillis.Median + row.DrainMillis.Median) * 1e6 / float64(last.TransformedObjects)
					}
					if !mode.Lazy && !mode.Concurrent {
						serialMedian = row.PauseTotalMillis.Median
					}
					if serialMedian > 0 && row.PauseTotalMillis.Median > 0 {
						row.SpeedupPause = serialMedian / row.PauseTotalMillis.Median
					}
					rep.Rows = append(rep.Rows, row)
					if progress != nil {
						fmt.Fprintf(progress, ".")
					}
				}
			}
		}
		if progress != nil {
			fmt.Fprintln(progress)
		}
	}
	return rep, nil
}

// WritePauseCmpJSON writes the report as indented JSON (BENCH_pause.json).
func WritePauseCmpJSON(path string, rep *PauseCmpReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// PrintPauseCmp renders the grid as text.
func PrintPauseCmp(w io.Writer, rep *PauseCmpReport) {
	fmt.Fprintf(w, "DSU pause: serial vs lazy / concurrent / concurrent+lazy (gomaxprocs=%d, cpus=%d)\n",
		rep.GOMAXPROCS, rep.NumCPU)
	fmt.Fprintf(w, "%9s %6s %11s %16s %10s %9s %9s %11s %7s %10s %9s %10s %9s\n",
		"objects", "frac", "transformer", "mode", "pause(ms)", "rescan", "copy(ms)", "transf(ms)", "ns/obj", "mark-out", "drain(ms)", "reloc(ms)", "speedup")
	for _, r := range rep.Rows {
		fmt.Fprintf(w, "%9d %5.0f%% %11s %16s %10.2f %9.2f %9.2f %11.2f %7.0f %10.2f %9.2f %10.2f %8.2fx\n",
			r.Objects, r.FracUpdated*100, r.Transformer, r.Mode,
			r.PauseTotalMillis.Median, r.RescanMillis.Median,
			r.CopyMillis.Median, r.TransformMillis.Median, r.TransformNsPerObject, r.MarkOutsideMillis.Median,
			r.DrainMillis.Median, r.RelocDrainMillis.Median, r.SpeedupPause)
	}
	fmt.Fprintf(w, "note: %s\n", rep.Note)
}
