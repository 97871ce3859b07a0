package bench

import (
	"fmt"
	"io"
)

// Old-copy memory experiment (paper §3.5): "Our implementation of object
// transformers uses an extra copy of all updated objects and adds temporary
// memory pressure. We could instead copy the old versions to a special
// block of memory and reclaim it when the collection completes." Every DSU
// collection does that: the old copies go to the unallocated end of
// from-space, which the next flip reclaims. One run per update fraction
// reports what the collection wrote, what of it landed in to-space, and the
// share the tail took off it. Only pairs have old copies, so the rows run the
// hand-written transformer (MicroConfig.HandWritten); under the generated
// default there is no old copy at all.
type ScratchRow struct {
	Fraction  float64
	LiveWords int // approximate live set (objects + array)
	Copied    int // words the collection wrote, old copies included
	ToSpace   int // of those, words in to-space
	Tail      int // of those, old-copy words in from-space's tail
}

// RunScratchPressure measures the rows for one object count.
func RunScratchPressure(objects int, fractions []float64, progress io.Writer) ([]ScratchRow, error) {
	if len(fractions) == 0 {
		fractions = []float64{0, 0.25, 0.5, 0.75, 1}
	}
	live := objects*8 + objects + 4
	var rows []ScratchRow
	for _, frac := range fractions {
		r, err := RunMicro(MicroConfig{Objects: objects, FracUpdated: frac, HandWritten: true})
		if err != nil {
			return nil, err
		}
		rows = append(rows, ScratchRow{
			Fraction:  frac,
			LiveWords: live,
			Copied:    r.CopiedWords,
			ToSpace:   r.CopiedWords - r.TailWords,
			Tail:      r.TailWords,
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

// PrintScratch renders the memory-pressure rows.
func PrintScratch(w io.Writer, objects int, rows []ScratchRow) {
	fmt.Fprintf(w, "DSU memory pressure, %d objects (words; live set ≈ %d)\n", objects, rows[0].LiveWords)
	fmt.Fprintf(w, "%9s %14s %14s %14s %9s\n", "fraction", "copied", "to-space", "tail", "saved")
	for _, r := range rows {
		saved := 0.0
		if r.Copied > 0 {
			saved = 100 * float64(r.Tail) / float64(r.Copied)
		}
		fmt.Fprintf(w, "%8.0f%% %14d %14d %14d %8.1f%%\n",
			r.Fraction*100, r.Copied, r.ToSpace, r.Tail, saved)
	}
	fmt.Fprintln(w, "(to-space pressure drops by the old copies' share: they sit in from-space's")
	fmt.Fprintln(w, " unallocated tail, which the next flip reclaims)")
}
