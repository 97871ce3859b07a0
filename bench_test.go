package govolve_test

// One testing.B benchmark per table and figure of the paper's evaluation.
// These run scaled-down versions suitable for `go test -bench`; the
// cmd/jvolve-bench harness reproduces the full grids (use -scale 1 for the
// paper's 280k–3.67M-object microbenchmark sizes).

import (
	"fmt"
	"io"
	"testing"
	"time"

	"govolve/internal/apps"
	"govolve/internal/bench"
)

// BenchmarkTable1UpdatePause measures the DSU pause decomposition (GC time,
// transformer time, total) for the paper's microbenchmark at a scaled-down
// size, across three representative update fractions.
func BenchmarkTable1UpdatePause(b *testing.B) {
	for _, frac := range []float64{0, 0.5, 1} {
		b.Run(fmt.Sprintf("objects=35k/frac=%.0f%%", frac*100), func(b *testing.B) {
			var gcT, trT, totT time.Duration
			for i := 0; i < b.N; i++ {
				res, err := bench.RunMicro(bench.MicroConfig{Objects: 35_000, FracUpdated: frac})
				if err != nil {
					b.Fatal(err)
				}
				gcT += res.PauseGC
				trT += res.PauseTransform
				totT += res.PauseTotal
			}
			b.ReportMetric(bench.Millis(gcT)/float64(b.N), "gc-ms")
			b.ReportMetric(bench.Millis(trT)/float64(b.N), "transform-ms")
			b.ReportMetric(bench.Millis(totT)/float64(b.N), "pause-ms")
		})
	}
}

// BenchmarkFig6PauseDecomposition sweeps the update fraction at one size —
// the data behind the paper's Figure 6 plot.
func BenchmarkFig6PauseDecomposition(b *testing.B) {
	for _, frac := range bench.DefaultFractions() {
		b.Run(fmt.Sprintf("frac=%.0f%%", frac*100), func(b *testing.B) {
			var tot time.Duration
			for i := 0; i < b.N; i++ {
				res, err := bench.RunMicro(bench.MicroConfig{Objects: 20_000, FracUpdated: frac})
				if err != nil {
					b.Fatal(err)
				}
				tot += res.PauseTotal
			}
			b.ReportMetric(bench.Millis(tot)/float64(b.N), "pause-ms")
		})
	}
}

// BenchmarkFig5SteadyState measures webserver throughput in the paper's
// three configurations: stock VM, DSU-capable VM, and dynamically updated
// VM. The paper's claim — and this reproduction's — is that the three are
// essentially identical.
func BenchmarkFig5SteadyState(b *testing.B) {
	app := apps.Webserver()
	for _, cfg := range bench.DefaultFig5Configs(app) {
		cfg := cfg
		b.Run(cfg.Label, func(b *testing.B) {
			var thr float64
			for i := 0; i < b.N; i++ {
				results, err := bench.RunFig5(app, []bench.Fig5Config{cfg},
					bench.Fig5Options{Runs: 1, Duration: 100 * time.Millisecond}, nil)
				if err != nil {
					b.Fatal(err)
				}
				thr += results[0].Throughput.Median
			}
			b.ReportMetric(thr/float64(b.N), "req/s")
		})
	}
}

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

// BenchmarkAblationIndirection compares JVOLVE's zero-cost steady state
// with a lazy-update VM's: the on-touch read barrier armed with nothing
// pending, so every dereference pays the hook check plus the header-bit
// test (the paper §5's JDrums/DVM comparison).
func BenchmarkAblationIndirection(b *testing.B) {
	app := apps.Webserver()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunAblation(app, 2, 100*time.Millisecond, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SlowdownPct, "lazy-slowdown-%")
		bench.PrintAblation(io.Discard, res)
	}
}
