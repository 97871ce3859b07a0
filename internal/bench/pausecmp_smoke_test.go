package bench

import (
	"io"
	"testing"
)

// TestPauseCmpAllModes runs one tiny cell through every pausecmp mode and
// pins the uniform decomposition contract the JSON report advertises: lazy
// rows carry no in-pause transform, concurrent rows their mark outside the
// pause and almost no in-pause copy (the bulk copy appears in reloc_drain_ms),
// and the full composition shrinks the pause to flip preparation. Each mode is
// measured under both transformers: moved rows log no pair, tag nothing and
// leave the transformer phase empty; handwritten rows pair every updated object.
func TestPauseCmpAllModes(t *testing.T) {
	rep, err := RunPauseCmp(PauseCmpSweep{
		// Three runs: the copy comparison below is between two medians of
		// ≈0.17 ms, and a single run inverts it in ≈3 % of processes.
		Sizes: []int{4000}, Fractions: []float64{0.2}, Runs: 3,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"serial", "lazy", "concurrent", "concurrent+lazy"}
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
		rows[r.Mode] = r
	}
	if lazy := rows["lazy"]; lazy.LazyPending != 800 || lazy.DrainMillis.Median == 0 {
		t.Fatalf("lazy/handwritten: %d tagged, drain %v", lazy.LazyPending, lazy.DrainMillis)
	}
	// Serial: fused trace+copy is all copy_ms under the uniform decomposition.
	if stw := rows["serial"]; stw.RescanMillis.Median != 0 || stw.MarkOutsideMillis.Median != 0 || stw.CopyMillis.Median == 0 {
		t.Fatalf("serial decomposition: rescan=%v mark-outside=%v copy=%v", stw.RescanMillis, stw.MarkOutsideMillis, stw.CopyMillis)
	}
	if c, cl := rows["concurrent"], rows["concurrent+lazy"]; c.MarkOutsideMillis.Median == 0 || cl.MarkOutsideMillis.Median != 0 {
		t.Fatalf("mark outside the pause: concurrent %v, concurrent+lazy (no mark at all) %v",
			c.MarkOutsideMillis, cl.MarkOutsideMillis)
	}
	for _, mode := range []string{"concurrent", "concurrent+lazy"} {
		r := rows[mode]
		if r.RelocObjects == 0 || r.RelocDrainMillis.Median == 0 {
			t.Fatalf("%s: no concurrent relocation recorded: objs=%d drain=%v",
				mode, r.RelocObjects, r.RelocDrainMillis)
		}
		// The in-pause copy keeps only the eager evacuation of updated
		// instances (or nothing composed with lazy) — the bulk copy has
		// left the pause.
		if r.CopyMillis.Median >= rows["serial"].CopyMillis.Median {
			t.Fatalf("%s: in-pause copy %.3fms did not shrink vs serial %.3fms",
				mode, r.CopyMillis.Median, rows["serial"].CopyMillis.Median)
		}
	}
	PrintPauseCmp(io.Discard, rep)
}
