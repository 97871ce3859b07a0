package govolve_test

// testing.B benchmarks for the paper's Tables 2–4 and its §4 applicability
// matrix. The pause and steady-state figures are the bench of record's
// (benchmark/: update-pause, web-steady); cmd/jvolve-bench -exp table1
// reprints Table 1 and Figure 6 from the pause grid (-scale 1 for the paper's
// 280k–3.67M-object sizes).

import (
	"testing"

	"govolve/internal/apps"
	"govolve/internal/bench"
)

// BenchmarkTables234UPT measures the Update Preparation Tool itself: a full
// diff + spec + default-transformer generation over every release of all
// three applications (the computation behind Tables 2–4).
func BenchmarkTables234UPT(b *testing.B) {
	for _, app := range apps.All() {
		app := app
		b.Run(app.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := bench.SummarizeApp(app)
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != app.UpdateCount() {
					b.Fatal("row count")
				}
			}
		})
	}
}

// BenchmarkUpdateMatrix runs the §4 experience experiment: every update of
// every application applied to the live server under load (20 of 22 apply;
// the two engineered always-on-stack changes abort). ns/op is the whole walk,
// including the fresh reference server RunMatrix launches per release to
// check the walked server's responses against.
func BenchmarkUpdateMatrix(b *testing.B) {
	for _, app := range apps.All() {
		app := app
		b.Run(app.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				entries, err := apps.RunMatrix(app, 1<<20)
				if err != nil {
					b.Fatal(err)
				}
				applied := 0
				for _, e := range entries {
					if e.Outcome.String() == "applied" {
						applied++
					}
				}
				b.ReportMetric(float64(applied), "applied")
				b.ReportMetric(float64(len(entries)-applied), "aborted")
			}
		})
	}
}
