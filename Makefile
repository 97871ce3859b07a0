# Tier-1 verification for govolve. `make verify` is what CI runs: build,
# vet, the full test suite, the same suite under the race detector, and a
# focused race pass over the collector packages (gc, heap). Collections are
# single-threaded; what is concurrent there — the marker's tracer against the
# SATB store barrier, the relocator against the mutator's load barrier — is
# the riskiest code in the tree.
# The storm soak and the fuzzers run longer and are split out.

GO ?= go

.PHONY: verify build vet test bench-smoke race race-gc obs-gate obs-verdict-gate satb-gate drain-gate stream-gate dispatch-gate loc pairs storm bench-obs bench-pause bench-stream bench-dispatch trace fuzz

verify: build vet test bench-smoke race race-gc obs-gate obs-verdict-gate satb-gate drain-gate stream-gate dispatch-gate

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The bench of record is a module of its own (benchmark/go.mod), so the
# three targets above do not see it: vet it and run its smoke sizes here, so
# a refactor that breaks its pinned API surface (benchmark/README.md) fails
# tier-1 instead of the bench run. The control plane's own benchmarks (the
# verifier and the assembler over all 25 app releases: ns/ins, ns/line,
# allocations per unit) run once each here so they cannot rot; their gates
# are the allocation counts in internal/apps/layers_test.go, under `test`.
bench-smoke:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...
	$(GO) test -run '^$$' -bench 'AllReleases' -benchtime 1x ./internal/apps/

race:
	$(GO) test -race ./...

# Focused race pass with more iterations over what still runs beside the
# mutator: the concurrent mark's tracer and the SATB barrier, the relocation
# drain's relocator with its TLAB, claim/publish forwarding and slot healing
# against the load barrier (also covered by `race`, but these packages
# deserve the extra -count).
race-gc:
	$(GO) test -race -count=4 ./internal/gc/ ./internal/heap/

# Observability cost gate: a disabled flight recorder must add zero
# allocations and hold its dispatch tripwire (median of interleaved
# bare/attached pairs; floor and recorded runs in the test), including under
# the race detector (also covered by `test`/`race`; this target pins it by
# name and prints the benchmark so regressions are visible, not just pass/fail).
obs-gate:
	$(GO) test -race -run 'TestObsDisabled' -count=1 ./internal/vm/ ./internal/obs/
	$(GO) test -run '^$$' -bench 'BenchmarkObsDisabledOverhead|BenchmarkInterpDispatch' -benchtime 200ms ./internal/vm/

# Verdict/profiler gate: the sampling profiler must add zero allocations
# (disabled AND enabled steady state) and, off-race, hold the same dispatch
# tripwire as the recorder (the throughput gate self-skips under -race, where
# tsan would dominate);
# the gate engine's comparator/window tables, the engine's verdict path
# (all-green PASS, injected-regression FAIL, halt/force-drain policies),
# and the stream/storm verdict determinism tests are pinned by name so the
# judgment path can't rot out of the suite. Prints the disabled-profiler
# benchmark so the cost stays visible.
obs-verdict-gate:
	$(GO) test -race -run 'TestProf' -count=1 ./internal/vm/ ./internal/obs/
	$(GO) test -race -run 'TestGate|TestCompareAllComparators|TestHistSnapshotDelta|TestVerdictFingerprint|TestDefaultGateSpecs' -count=1 ./internal/obs/ ./internal/core/
	$(GO) test -race -run 'TestStormEveryUpdateJudged|TestStormGateHalt|TestStreamVerdictDeterminism|TestStreamGate' -count=1 ./internal/storm/ ./internal/stream/
	$(GO) test -run 'TestProfDisabled' -count=1 ./internal/vm/
	$(GO) test -run '^$$' -bench 'BenchmarkProfDisabledOverhead|BenchmarkInterpDispatch' -benchtime 200ms ./internal/vm/

# Write-barrier cost gate: the disarmed SATB barrier must add zero
# allocations to a dispatch-shaped store loop and hold its tripwire ratio
# against the bare store (median of 101 interleaved pairs, floor recorded in
# the test), and the armed barrier must stay within its tripwire bound.
# race-gc above already runs the mark/barrier packages (gc, heap) with -race
# -count=4; this target pins the gates by name and prints the three store
# benchmarks so the bare/disarmed/armed costs stay visible.
satb-gate:
	$(GO) test -run 'TestSATB' -count=1 ./internal/vm/ ./internal/heap/
	$(GO) test -run '^$$' -bench 'BenchmarkSATBStore|BenchmarkSATBDisarmedDispatch|BenchmarkSATBArmedDispatch' -benchtime 200ms ./internal/heap/ ./internal/vm/

# Post-pause residue cost gate. With no residue installed (the state every
# instruction between updates runs in) the interpreter's access fast paths,
# the scheduler and the heap's load paths pay one nil check each: zero
# allocations, ≤2% on a dispatch-shaped load loop. Installed, two armed-but-
# idle states must hold their tripwires: the on-touch read barrier with
# nothing tagged (header-bit test per load), and the relocation load barrier
# with from-space already drained (range test per load) — the tripwire for a
# from-space hold that outlives its drain. The engine-side lifecycle (every
# placement × every retire path ends in the same torn-down state) is pinned
# next to them, and so is the transformer phase itself: its per-object path
# makes no Go allocation (recorder off; ≤ 1 with it on), a force chain runs on
# resident threads, a trap mid-walk leaves no pair word behind, and the
# header's word-1 protocol is pinned beside word 0's. Prints the disabled/armed
# load benchmarks so the costs stay visible. race-gc above already runs the relocation drain packages (gc,
# heap) with -race -count=4.
drain-gate:
	$(GO) test -run 'TestLazy|TestReloc|TestResidue' -count=1 ./internal/vm/ ./internal/heap/ ./internal/gc/ ./internal/core/
	$(GO) test -run 'TestHeaderBitLayout' -count=1 ./internal/heap/
	$(GO) test -run '^$$' -bench 'BenchmarkLazyDisabledDispatch|BenchmarkLazyArmedDispatch|BenchmarkRelocDisabledDispatch|BenchmarkRelocArmedDrainedDispatch' -benchtime 200ms ./internal/vm/

# Long-horizon stream gate: a short hostile version chain replayed in every
# engine mode under the race detector, with the chain-wide oracle at each
# step (also covered by `race`; pinned by name so the multi-release path
# can't silently rot out of the suite).
stream-gate:
	$(GO) test -race -run 'TestStreamGate' -count=1 ./internal/stream/

# Interpreter-tier gate: the fused fast path must stay allocation-free, a
# guest call must cost exactly one Go allocation from base, fused and opt code
# (the activation record; no frame's operand stack regrown), the
# fused/base speedup ratio must hold (off-race; the ratio test self-skips
# under -race), and the tier's DSU honesty is pinned by name — base-vs-fused
# storm reports byte-identical, stale ICs flushed when the class behind a
# hot monomorphic site is replaced, and updates that land on threads pinned
# in fused loops deopting through the fused pc-map (core + hostile stream).
# The native boundary rides here too: a native call, the read-only String
# natives and concat/substring stay free of Go allocations, every String
# native agrees with the Go reference (in place, under collection, with the
# relocation barrier armed), and native bindings follow class updates.
# Prints the dispatch and native-boundary benchmarks so regressions are visible.
dispatch-gate:
	$(GO) test -race -run 'TestFusedDispatchZeroAlloc|TestInterpFastPathZeroAlloc|TestCallAllocsPerCall|TestFusedSpeedupRatio|TestNativeCallZeroAlloc|TestStringNatives|TestStringWordsAreOpaqueInPlace|TestNativeBindingAcrossClassUpdate|TestUnboundNativeFailsAtCall' -count=1 ./internal/vm/
	$(GO) test -race -run 'TestStormTierEquivalence|TestStormStaleICCoverage' -count=1 ./internal/storm/
	$(GO) test -race -run 'TestFusedFrameOSRUpdate|TestStaleICFlushOnClassReplacement' -count=1 ./internal/core/
	$(GO) test -race -run 'TestStreamFusedFrameOSR' -count=1 ./internal/stream/
	$(GO) test -run 'TestFusedSpeedupRatio' -count=1 ./internal/vm/
	$(GO) test -run '^$$' -bench 'BenchmarkInterpDispatch|BenchmarkNativeCall|BenchmarkStringNatives' -benchtime 200ms ./internal/vm/

# Non-test line counts of the four packages the size budget is kept on
# (ROADMAP aim 2; every CHANGES.md entry reports them before and after), and
# the gc+heap subtotal ROADMAP's collector item states its bar in.
loc:
	@total=0; sub=0; for d in gc core heap vm; do \
		n=$$(cat $$(ls internal/$$d/*.go | grep -v _test.go) | wc -l); \
		echo "$$d $$n"; total=$$((total + n)); \
		case $$d in gc|heap) sub=$$((sub + n));; esac; \
	done; echo "gc+heap $$sub"; echo "total $$total"

# N alternating pairs of one bench-of-record workload, BASE against the
# working tree, on consecutive seeds from SEED0: per-pair values, per-side
# median [q1-q3], wins/N and the ratio of the medians for the four end-to-end
# metrics (scripts/pairs.sh; SECS overrides BENCHMARK.json's run length).
#   make pairs W=guest-compute N=10 BASE=HEAD~1
pairs:
	W=$(W) N=$(N) BASE=$(BASE) SEED0=$(SEED0) SECS=$(SECS) bash scripts/pairs.sh

# Long-running randomized soak (reproduce failures with -seed).
storm:
	$(GO) run ./cmd/jvolve-bench -exp storm -updates 500

# STW vs concurrent-mark DSU pause over sizes × updated fractions; writes
# BENCH_pause.json. Every cell is measured with the generated default
# transformer (moved by the collector) and with its hand-written equivalent
# (pairs + interpreted calls: what the lazy pipelines place).
bench-pause:
	$(GO) run ./cmd/jvolve-bench -exp pausecmp -runs 7 -pause-out BENCH_pause.json

# DSU pause-decomposition histograms (E1 webserver, Table 1 micro); writes
# BENCH_obs.json.
bench-obs:
	$(GO) run ./cmd/jvolve-bench -exp obs -obs-out BENCH_obs.json

# Long-horizon update-stream sweep (chain lengths × engine modes); writes
# BENCH_stream.json.
bench-stream:
	$(GO) run ./cmd/jvolve-bench -exp stream -stream-out BENCH_stream.json

# Interpreter dispatch tiers (base / fused / fused+ic over the arith,
# virtual-call and native/string mixes); writes BENCH_dispatch.json.
bench-dispatch:
	$(GO) run ./cmd/jvolve-bench -exp dispatch -runs 9 -dispatch-out BENCH_dispatch.json

# Demo: record one fig5 updated run and export the DSU timeline as a
# Chrome trace — open trace.json in https://ui.perfetto.dev.
trace:
	$(GO) run ./cmd/jvolve-bench -exp fig5 -runs 1 -duration 200ms -trace trace.json

# Explore beyond the checked-in seed corpora (30s per target).
fuzz:
	$(GO) test -fuzz=FuzzVerifier -fuzztime 30s ./internal/verifier
	$(GO) test -fuzz=FuzzAsmRoundTrip -fuzztime 30s ./internal/asm
	$(GO) test -fuzz=FuzzUPTDiff -fuzztime 30s ./internal/upt
	$(GO) test -fuzz=FuzzStreamChain -fuzztime 30s ./internal/stream
	$(GO) test -fuzz=FuzzRelocDrain -fuzztime 30s ./internal/gc
