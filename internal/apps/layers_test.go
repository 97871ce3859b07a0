package apps

import (
	"strings"
	"testing"

	"govolve/internal/asm"
	"govolve/internal/classfile"
	"govolve/internal/verifier"
	"govolve/internal/vm"
)

// The control plane's two text-to-bytecode layers, measured on their real
// input: all 25 releases of the three apps. The gates are counts
// (testing.AllocsPerRun), not timings, so they cannot flake on a busy host;
// the benchmarks print the per-unit costs CHANGES.md quotes and run at
// -benchtime 1x under `make bench-smoke` so they cannot rot.

// releaseSources returns every release's source with the bootstrap classes
// in front (verifier.VerifyProgram resolves names in the program alone) and
// the total number of source lines.
func releaseSources() (srcs []string, lines int) {
	for _, app := range All() {
		for _, ver := range app.Versions {
			src := vm.BootstrapSource + ver.Source
			srcs = append(srcs, src)
			lines += strings.Count(src, "\n") + 1
		}
	}
	return srcs, lines
}

// releasePrograms assembles releaseSources and counts the bytecode methods
// and instructions the verifier will walk.
func releasePrograms(tb testing.TB) (progs []*classfile.Program, methods, ins int) {
	tb.Helper()
	srcs, _ := releaseSources()
	for _, src := range srcs {
		p, err := asm.AssembleProgram("release.jva", src)
		if err != nil {
			tb.Fatal(err)
		}
		progs = append(progs, p)
		for _, c := range p.Classes {
			for _, m := range c.Methods {
				if !m.Native {
					methods++
					ins += len(m.Code)
				}
			}
		}
	}
	return progs, methods, ins
}

func verifyAll(tb testing.TB, progs []*classfile.Program) {
	for _, p := range progs {
		if err := verifier.VerifyProgram(p); err != nil {
			tb.Fatal(err)
		}
	}
}

func assembleAll(tb testing.TB, srcs []string) {
	for _, src := range srcs {
		if _, err := asm.Assemble("release.jva", src); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestVerifyAllocsPerMethod is the tripwire for per-instruction state in the
// verifier: an accepted method may cost its share of one Verifier's scratch
// and nothing per instruction (the per-instruction worklist cost ≈84).
func TestVerifyAllocsPerMethod(t *testing.T) {
	progs, methods, _ := releasePrograms(t)
	perMethod := testing.AllocsPerRun(5, func() { verifyAll(t, progs) }) / float64(methods)
	t.Logf("%.2f allocations per accepted method (%d methods)", perMethod, methods)
	if perMethod > 4 {
		t.Fatalf("verifier makes %.2f allocations per accepted method, want ≤ 4", perMethod)
	}
}

// TestAssembleAllocsPerLine is the tripwire for a per-line field slice or an
// append-grown code array in the assembler (together ≈2.5 per line).
func TestAssembleAllocsPerLine(t *testing.T) {
	srcs, lines := releaseSources()
	perLine := testing.AllocsPerRun(5, func() { assembleAll(t, srcs) }) / float64(lines)
	t.Logf("%.2f allocations per source line (%d lines)", perLine, lines)
	if perLine > 1.0 {
		t.Fatalf("assembler makes %.2f allocations per source line, want ≤ 1.0", perLine)
	}
}

func BenchmarkVerifyAllReleases(b *testing.B) {
	progs, _, ins := releasePrograms(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		verifyAll(b, progs)
	}
	b.StopTimer()
	perIns := float64(b.N) * float64(ins)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perIns, "ns/ins")
	b.ReportMetric(testing.AllocsPerRun(1, func() { verifyAll(b, progs) })/float64(ins), "allocs/ins")
}

func BenchmarkAssembleAllReleases(b *testing.B) {
	srcs, lines := releaseSources()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assembleAll(b, srcs)
	}
	b.StopTimer()
	perLine := float64(b.N) * float64(lines)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perLine, "ns/line")
	b.ReportMetric(testing.AllocsPerRun(1, func() { assembleAll(b, srcs) })/float64(lines), "allocs/line")
}
