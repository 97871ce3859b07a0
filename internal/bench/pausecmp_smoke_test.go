package bench

import (
	"io"
	"testing"
)

// TestPauseCmpAllModes runs one tiny cell through every pausecmp mode and
// pins the uniform decomposition contract the JSON report advertises:
// concurrent rows carry no in-pause transform and almost no in-pause copy
// either (the bulk copy appears in reloc_drain_ms): the pause shrinks to flip
// preparation. Each mode is
// measured under both transformers: moved rows log no pair, tag nothing and
// leave the transformer phase empty; handwritten rows pair every updated object.
// The word columns carry E9's claims: every old copy (8 words) goes to
// from-space's tail, moved rows have none, and what the collection wrote into
// to-space — copied − tail — is the same under both transformers.
func TestPauseCmpAllModes(t *testing.T) {
	rep, err := RunPauseCmp(PauseCmpSweep{
		// Three runs: the copy comparison below is between two medians of
		// ≈0.17 ms, and a single run inverts it in ≈3 % of processes.
		Sizes: []int{4000}, Fractions: []float64{0.2}, Runs: 3,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"serial", "concurrent"}
	if len(rep.Rows) != 2*len(want) {
		t.Fatalf("got %d rows, want %d", len(rep.Rows), 2*len(want))
	}
	for i := range rep.Rows[:len(want)] {
		r := &rep.Rows[i]
		if r.Mode != want[i] || r.Transformer != "moved" {
			t.Fatalf("row %d is %s/%s, want %s/moved", i, r.Mode, r.Transformer, want[i])
		}
		if r.MovedObjects != 800 || r.PairsLogged != 0 || r.LazyPending != 0 {
			t.Fatalf("%s/moved: %d moved, %d pairs, %d tagged", r.Mode, r.MovedObjects, r.PairsLogged, r.LazyPending)
		}
		if r.TailWords != 0 || r.CopiedWords == 0 {
			t.Fatalf("%s/moved: %d words copied, %d in the tail", r.Mode, r.CopiedWords, r.TailWords)
		}
	}
	rows := map[string]*PauseCmpRow{}
	for i := range rep.Rows[len(want):] {
		r := &rep.Rows[len(want)+i]
		if r.Mode != want[i] || r.Transformer != "handwritten" {
			t.Fatalf("row %d is %s/%s, want %s/handwritten", len(want)+i, r.Mode, r.Transformer, want[i])
		}
		if r.MovedObjects != 0 || r.PairsLogged != 800 {
			t.Fatalf("%s/handwritten: %d moved, %d pairs", r.Mode, r.MovedObjects, r.PairsLogged)
		}
		moved := &rep.Rows[i]
		if r.TailWords != 8*r.PairsLogged || r.CopiedWords-r.TailWords != moved.CopiedWords {
			t.Fatalf("%s/handwritten: %d words copied, %d in the tail; moved wrote %d into to-space",
				r.Mode, r.CopiedWords, r.TailWords, moved.CopiedWords)
		}
		rows[r.Mode] = r
	}
	// Serial: fused trace+copy is all copy_ms under the uniform decomposition.
	if stw := rows["serial"]; stw.CopyMillis.Median == 0 {
		t.Fatalf("serial decomposition: copy=%v", stw.CopyMillis)
	}
	r := rows["concurrent"]
	if r.LazyPending != 800 || r.TransformMillis.Median >= rows["serial"].TransformMillis.Median {
		t.Fatalf("concurrent/handwritten: %d tagged, in-pause transform %v (serial %v)",
			r.LazyPending, r.TransformMillis, rows["serial"].TransformMillis)
	}
	if r.RelocObjects == 0 || r.RelocDrainMillis.Median == 0 || r.DrainMillis.Median == 0 {
		t.Fatalf("concurrent: no relocation or drain recorded: objs=%d reloc drain=%v drain=%v",
			r.RelocObjects, r.RelocDrainMillis, r.DrainMillis)
	}
	// The in-pause copy keeps only what the roots point at — the bulk copy
	// has left the pause.
	if r.CopyMillis.Median >= rows["serial"].CopyMillis.Median {
		t.Fatalf("concurrent: in-pause copy %.3fms did not shrink vs serial %.3fms",
			r.CopyMillis.Median, rows["serial"].CopyMillis.Median)
	}
	PrintPauseCmp(io.Discard, rep)
}
