package bench

import (
	"fmt"
	"io"
)

// Transformer-strategy experiment: the paper observes (§4.1) that "the cost
// of running transformers is higher than the extra copying cost incurred
// during GC … a naively compiled field-by-field copy is much slower than
// the collector's highly-optimized copying loop", and sketches optimizing
// it. This experiment quantifies that remark by running the Table 1
// microbenchmark at 100% updated objects twice: with the hand-written
// equivalent of the default transformer, which runs as interpreted bytecode
// over shell + old-copy pairs (the paper's configuration), and with the
// generated default, a pure field copy the collector performs while it
// copies the object (a move transformer: no pair, no transformer phase).
type TransformerStrategyResult struct {
	Objects          int
	HandWrittenGC    Summary // DSU collection, one pair per object
	HandWrittenMs    Summary // transformer phase, one interpreted call per pair
	HandWrittenTotal Summary // total pause
	MovedGC          Summary // DSU collection that writes the new layout itself
	MovedMs          Summary // transformer phase: nothing left in it
	MovedTotal       Summary
	Speedup          float64 // hand-written / moved, collection + transformer medians
}

// RunTransformerStrategy measures both strategies.
func RunTransformerStrategy(objects, runs int, progress io.Writer) (*TransformerStrategyResult, error) {
	if runs <= 0 {
		runs = 3
	}
	// The two strategies alternate, after one discarded run of each, so
	// neither is measured on a colder process than the other.
	var gc, tr, tot [2][]float64 // [0] hand-written, [1] moved
	for r := -1; r < runs; r++ {
		for i, handWritten := range []bool{true, false} {
			res, err := RunMicro(MicroConfig{
				Objects: objects, FracUpdated: 1, HandWritten: handWritten,
			})
			if err != nil {
				return nil, err
			}
			if r < 0 {
				continue
			}
			gc[i] = append(gc[i], Millis(res.PauseGC))
			tr[i] = append(tr[i], Millis(res.PauseTransform))
			tot[i] = append(tot[i], Millis(res.PauseTotal))
			if progress != nil {
				fmt.Fprintf(progress, ".")
			}
		}
	}
	if progress != nil {
		fmt.Fprintln(progress)
	}
	res := &TransformerStrategyResult{
		Objects:          objects,
		HandWrittenGC:    Summarize(gc[0]),
		HandWrittenMs:    Summarize(tr[0]),
		HandWrittenTotal: Summarize(tot[0]),
		MovedGC:          Summarize(gc[1]),
		MovedMs:          Summarize(tr[1]),
		MovedTotal:       Summarize(tot[1]),
	}
	if moved := res.MovedGC.Median + res.MovedMs.Median; moved > 0 {
		res.Speedup = (res.HandWrittenGC.Median + res.HandWrittenMs.Median) / moved
	}
	return res, nil
}

// PrintTransformerStrategy renders the comparison.
func PrintTransformerStrategy(w io.Writer, r *TransformerStrategyResult) {
	fmt.Fprintf(w, "Transformer execution strategy (%d objects, 100%% updated)\n", r.Objects)
	fmt.Fprintf(w, "%-40s %12s %14s %16s\n", "transformer", "gc (ms)", "transform (ms)", "total pause (ms)")
	fmt.Fprintf(w, "%-40s %12.1f %14.1f %16.1f\n", "hand-written, interpreted (paper's setup)",
		r.HandWrittenGC.Median, r.HandWrittenMs.Median, r.HandWrittenTotal.Median)
	fmt.Fprintf(w, "%-40s %12.1f %14.1f %16.1f\n", "generated default, moved by the collector",
		r.MovedGC.Median, r.MovedMs.Median, r.MovedTotal.Median)
	fmt.Fprintf(w, "collection + transformer speedup: %.1fx\n", r.Speedup)
}
