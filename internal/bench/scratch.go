package bench

import (
	"fmt"
	"io"
)

// Scratch-region experiment (paper §3.5): "Our implementation of object
// transformers uses an extra copy of all updated objects and adds temporary
// memory pressure. We could instead copy the old versions to a special
// block of memory and reclaim it when the collection completes." This
// measures that pressure: to-space words consumed by the DSU collection
// with old copies kept in to-space (the paper's implementation) vs.
// diverted to a scratch block, across update fractions. Only pairs have old
// copies, so the rows run the hand-written transformer (MicroConfig.HandWritten);
// under the generated default neither column holds an old copy at all.
type ScratchRow struct {
	Fraction       float64
	LiveWords      int // approximate live set (objects + array)
	ToSpacePlain   int // to-space words, old copies in to-space
	ToSpaceScratch int // to-space words with the scratch region
	ScratchWords   int // size of the diverted old copies
}

// RunScratchPressure measures the rows for one object count.
func RunScratchPressure(objects int, fractions []float64, progress io.Writer) ([]ScratchRow, error) {
	if len(fractions) == 0 {
		fractions = []float64{0, 0.25, 0.5, 0.75, 1}
	}
	live := objects*8 + objects + 4
	var rows []ScratchRow
	for _, frac := range fractions {
		plain, err := RunMicro(MicroConfig{Objects: objects, FracUpdated: frac, HandWritten: true})
		if err != nil {
			return nil, err
		}
		scratch, err := RunMicro(MicroConfig{
			Objects: objects, FracUpdated: frac, HandWritten: true,
			ScratchWords: objects*8 + 64,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, ScratchRow{
			Fraction:       frac,
			LiveWords:      live,
			ToSpacePlain:   plain.CopiedWords,
			ToSpaceScratch: scratch.CopiedWords - scratch.ScratchWords,
			ScratchWords:   scratch.ScratchWords,
		})
		if progress != nil {
			fmt.Fprintf(progress, ".")
		}
	}
	if progress != nil {
		fmt.Fprintln(progress)
	}
	return rows, nil
}

// PrintScratch renders the memory-pressure comparison.
func PrintScratch(w io.Writer, objects int, rows []ScratchRow) {
	fmt.Fprintf(w, "DSU memory pressure, %d objects (words; live set ≈ %d)\n", objects, rows[0].LiveWords)
	fmt.Fprintf(w, "%9s %14s %16s %14s %9s\n",
		"fraction", "to-space", "to-space+scratch", "scratch", "saved")
	for _, r := range rows {
		saved := 0.0
		if r.ToSpacePlain > 0 {
			saved = 100 * (1 - float64(r.ToSpaceScratch)/float64(r.ToSpacePlain))
		}
		fmt.Fprintf(w, "%8.0f%% %14d %16d %14d %8.1f%%\n",
			r.Fraction*100, r.ToSpacePlain, r.ToSpaceScratch, r.ScratchWords, saved)
	}
	fmt.Fprintln(w, "(to-space pressure at full update drops by the old copies' share; the scratch")
	fmt.Fprintln(w, " block is reclaimed the moment the transformer phase ends)")
}
