package bench

import (
	"fmt"
	"io"
	"slices"
	"time"

	"govolve/internal/vm"
)

// The pause grid is the one driver over the Table 1 microbenchmark. As
// pausecmp it is the headline measurement of the pause-shrinking work: the
// update run in every engine mode (vm.Modes) — the fused stop-the-world
// pipeline, and concurrent (a relocation drain and on-touch transformation
// after the pause) — over a sizes × updated-fraction grid. For each cell it
// reports the same uniform pause decomposition — copy / transform — so every
// claim is checkable from the JSON itself: concurrent rows show transform_ms
// ≈ 0 with the forced drain in drain_ms, the pause down to flip preparation,
// copy_ms down to the objects the roots point at, and the bulk copy's wall
// time in reloc_drain_ms.
//
// As table1 it is the same grid in the serial mode over the paper's sizes and
// fractions, printed as the paper's Table 1 and Figure 6 (PrintTable1).

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
	// Modes to run each cell in (default vm.Modes()). speedup_pause needs
	// the serial mode first.
	Modes []vm.Mode
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
	// and one interpreted call per updated object, which is what the
	// concurrent mode has to place.
	Transformer string `json:"transformer"`

	PauseTotalMillis Summary `json:"pause_total_ms"`
	GCMillis         Summary `json:"gc_ms"`
	CopyMillis       Summary `json:"copy_ms"`
	TransformMillis  Summary `json:"transform_ms"`
	// TransformNsPerObject is the median transformer time per transformed
	// object (logged pairs + moved_objects, for which it is 0 by construction),
	// wherever the transformers ran: inside the pause (transform_ms) or in
	// the forced post-pause drain (concurrent rows: drain_ms less
	// reloc_drain_ms, the relocation's copy that drain also completes).
	TransformNsPerObject float64 `json:"transform_ns_per_object"`

	// Concurrent rows: the transform work and the bulk copy leave the pause —
	// transform_ms ≈ 0, lazy_pending pairs wait behind the read barrier, the
	// forced drain's wall time appears in drain_ms, copy_ms keeps only the
	// objects the roots point at, reloc_objects are evacuated after the world
	// resumes, and the flip-to-finalize drain wall time is reloc_drain_ms.
	DrainMillis      Summary `json:"drain_ms"`
	LazyPending      int     `json:"lazy_pending,omitempty"`
	RelocDrainMillis Summary `json:"reloc_drain_ms"`
	RelocObjects     int     `json:"reloc_objects,omitempty"`

	// CopiedWords is every word the update's collection wrote, in the pause
	// and in the relocation drain, and TailWords the old copies' share of it
	// that went to from-space's tail (§3.5): copied − tail is what landed in
	// to-space. Only pairs have old copies, so moved rows read tail_words = 0.
	CopiedWords int `json:"copied_words"`
	TailWords   int `json:"tail_words"`

	PairsLogged int `json:"pairs_logged"`
	// MovedObjects is how many updated instances the collector (or the
	// relocation drain) wrote directly in their new layout.
	MovedObjects int `json:"moved_objects"`

	// SpeedupPause is the serial row's median total pause divided by this
	// row's, for the same size × fraction (1.0 on serial rows).
	SpeedupPause float64 `json:"speedup_pause"`
}

// RunPauseCmp measures the grid: for each size × fraction × transformer, one
// row per mode, the serial row first (the baseline for speedup_pause). The
// report is the BENCH_pause.json document.
func RunPauseCmp(sw PauseCmpSweep, progress io.Writer) (*Report[PauseCmpRow], error) {
	if len(sw.Sizes) == 0 {
		sw.Sizes = []int{30_000, 120_000}
	}
	if len(sw.Fractions) == 0 {
		sw.Fractions = []float64{0.05, 0.2, 0.5}
	}
	if sw.Runs <= 0 {
		sw.Runs = 3
	}
	if len(sw.Modes) == 0 {
		sw.Modes = vm.Modes()
	}
	rep := &Report[PauseCmpRow]{
		Experiment: "pausecmp",
		Host:       ThisHost(),
		Note: "speedup_pause is serial-median / row-median total pause for the same size, fraction " +
			"and transformer. The decomposition is uniform across modes: serial's fused trace+copy " +
			"is all copy_ms; concurrent rows show transform_ms = 0 with lazy_pending pairs drained " +
			"post-pause in drain_ms (transformer = handwritten; moved objects are never pairs) and " +
			"keep only the objects the roots point at in copy_ms, with the bulk copy in " +
			"reloc_drain_ms. Pause shrinkage is a decomposition property and holds on any host.",
	}
	for _, objects := range sw.Sizes {
		for _, frac := range sw.Fractions {
			for _, transformer := range []string{"moved", "handwritten"} {
				serialMedian := 0.0
				for _, mode := range sw.Modes {
					// total, gc, copy, transform, drain, reloc drain
					var ms [6][]float64
					var last *MicroResult
					for r := 0; r < sw.Runs; r++ {
						res, err := RunMicro(MicroConfig{Objects: objects, FracUpdated: frac,
							Concurrent: mode.Concurrent, HandWritten: transformer == "handwritten"})
						if err != nil {
							return nil, fmt.Errorf("bench: pausecmp objects=%d frac=%.2f mode=%s transformer=%s: %w",
								objects, frac, mode.Name, transformer, err)
						}
						for i, d := range [...]time.Duration{res.PauseTotal, res.PauseGC, res.PauseCopy,
							res.PauseTransform, res.Drain, res.Reloc.Drain} {
							ms[i] = append(ms[i], Millis(d))
						}
						last = res
					}
					row := PauseCmpRow{
						Objects:     objects,
						HeapWords:   last.HeapWords,
						FracUpdated: frac,
						Mode:        mode.Name,
						Transformer: transformer,

						PauseTotalMillis: Summarize(ms[0]),
						GCMillis:         Summarize(ms[1]),
						CopyMillis:       Summarize(ms[2]),
						TransformMillis:  Summarize(ms[3]),
						DrainMillis:      Summarize(ms[4]),
						LazyPending:      last.LazyPending,
						RelocDrainMillis: Summarize(ms[5]),
						RelocObjects:     last.Reloc.Objects,
						CopiedWords:      last.CopiedWords + last.Reloc.Words,
						TailWords:        last.TailWords + last.Reloc.TailWords,
						PairsLogged:      last.PairsLogged,
						MovedObjects:     last.MovedObjects,
					}
					if last.TransformedObjects > 0 {
						drained := max(row.DrainMillis.Median-row.RelocDrainMillis.Median, 0)
						row.TransformNsPerObject = (row.TransformMillis.Median + drained) * 1e6 / float64(last.TransformedObjects)
					}
					if !mode.Concurrent {
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

// PrintPauseCmp renders the grid as text.
func PrintPauseCmp(w io.Writer, rep *Report[PauseCmpRow]) {
	fmt.Fprintf(w, "DSU pause: serial vs concurrent (%s)\n", rep.Host)
	fmt.Fprintf(w, "%9s %6s %11s %10s %10s %9s %11s %7s %9s %10s %9s\n",
		"objects", "frac", "transformer", "mode", "pause(ms)", "copy(ms)", "transf(ms)", "ns/obj", "drain(ms)", "reloc(ms)", "speedup")
	for _, r := range rep.Rows {
		fmt.Fprintf(w, "%9d %5.0f%% %11s %10s %10.2f %9.2f %11.2f %7.0f %9.2f %10.2f %8.2fx\n",
			r.Objects, r.FracUpdated*100, r.Transformer, r.Mode,
			r.PauseTotalMillis.Median, r.CopyMillis.Median, r.TransformMillis.Median, r.TransformNsPerObject,
			r.DrainMillis.Median, r.RelocDrainMillis.Median, r.SpeedupPause)
	}
	fmt.Fprintf(w, "note: %s\n", rep.Note)
}

// PrintTable1 renders a grid's serial rows as the paper's evaluation of the
// update pause (§4.1): Table 1's three row groups under each transformer —
// the hand-written one is the paper's configuration, a transformer run per
// updated object — Figure 6's series for the largest size, E7's speedup of
// moving the default over interpreting its hand-written equivalent at 100 %,
// and E9's share of the copied words that went to from-space's tail. Every
// printed time is a serial row's median.
func PrintTable1(w io.Writer, rows []PauseCmpRow) {
	type cell struct {
		objects     int
		frac        float64
		transformer string
	}
	cells := map[cell]*PauseCmpRow{}
	heapWords := map[int]int{}
	var sizes []int
	var fracs []float64
	for i := range rows {
		r := &rows[i]
		if r.Mode != "serial" {
			continue
		}
		cells[cell{r.Objects, r.FracUpdated, r.Transformer}] = r
		heapWords[r.Objects] = r.HeapWords
		if !slices.Contains(sizes, r.Objects) {
			sizes = append(sizes, r.Objects)
		}
		if !slices.Contains(fracs, r.FracUpdated) {
			fracs = append(fracs, r.FracUpdated)
		}
	}
	if len(sizes) == 0 {
		return
	}
	transformers := []string{"handwritten", "moved"}
	gc := func(r *PauseCmpRow) float64 { return r.GCMillis.Median }
	tr := func(r *PauseCmpRow) float64 { return r.TransformMillis.Median }
	total := func(r *PauseCmpRow) float64 { return r.PauseTotalMillis.Median }
	group := func(title, transformer string, pick func(*PauseCmpRow) float64) {
		fmt.Fprintf(w, "%s, %s\n%10s %12s", title, transformer, "# objects", "heap words")
		for _, f := range fracs {
			fmt.Fprintf(w, " %7.0f%%", f*100)
		}
		fmt.Fprintln(w)
		for _, n := range sizes {
			fmt.Fprintf(w, "%10d %12d", n, heapWords[n])
			for _, f := range fracs {
				if r := cells[cell{n, f, transformer}]; r != nil {
					fmt.Fprintf(w, " %8.2f", pick(r))
				} else {
					fmt.Fprintf(w, " %8s", "-")
				}
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	for _, t := range transformers {
		group("Garbage collection time (ms)", t, gc)
		group("Running transformation functions (ms)", t, tr)
		group("Total DSU pause time (ms)", t, total)
	}

	big := slices.Max(sizes)
	fmt.Fprintf(w, "Figure 6: pause decomposition, %d objects (ms; gc, transform, total per transformer)\n%8s", big, "fraction")
	for _, t := range transformers {
		fmt.Fprintf(w, " %26s", t)
	}
	fmt.Fprintln(w)
	for _, f := range fracs {
		fmt.Fprintf(w, "%7.0f%%", f*100)
		for _, t := range transformers {
			if r := cells[cell{big, f, t}]; r != nil {
				fmt.Fprintf(w, " %8.2f %8.2f %8.2f", gc(r), tr(r), total(r))
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "E7: collection + transformer at 100 %, handwritten ÷ moved")
	for _, n := range sizes {
		hw, mv := cells[cell{n, 1, "handwritten"}], cells[cell{n, 1, "moved"}]
		if hw != nil && mv != nil && gc(mv)+tr(mv) > 0 {
			fmt.Fprintf(w, "%10d %7.2fx\n", n, (gc(hw)+tr(hw))/(gc(mv)+tr(mv)))
		}
	}
	fmt.Fprintln(w)
	group("E9: old copies in from-space's tail (% of copied words)", "handwritten", func(r *PauseCmpRow) float64 {
		if r.CopiedWords == 0 {
			return 0
		}
		return 100 * float64(r.TailWords) / float64(r.CopiedWords)
	})
}
