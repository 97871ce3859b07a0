# Tier-1 verification for govolve. `make verify` is what CI runs: formatting,
# build, vet, the full test suite, the same suite under the race detector, and a
# focused race pass over the collector packages (gc, heap). Collections are
# single-threaded; what is concurrent there — the marker's tracer against the
# SATB store barrier, the relocator against the mutator's load barrier — is
# the riskiest code in the tree.
# The storm soak and the fuzzers run longer and are split out.

GO ?= go

.PHONY: verify fmt build vet test bench-smoke race race-gc gates loc pairs storm bench-obs bench-pause bench-stream bench-dispatch trace fuzz

verify: fmt build vet test bench-smoke race race-gc gates

# Every Go file in the tree, the bench of record's module included, is as
# gofmt writes it: the target lists the ones that are not and fails.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

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

# Focused race pass with more iterations over what runs beside the mutator in
# a Concurrent update: before the pause the mark's tracer and the SATB barrier,
# after it the relocation drain's relocator with its TLAB, claim/publish
# forwarding and slot healing against the load barrier (also covered by
# `race`, but these packages deserve the extra -count).
race-gc:
	$(GO) test -race -count=4 ./internal/gc/ ./internal/heap/

# The per-feature gates: tests pinned by name so that none can rot out of the
# suite, each run once (under the race detector where the row says so), and
# the benchmarks whose costs should stay visible. The rows and the reason for
# each live in scripts/gates.txt; scripts/gates.sh fails first if a pinned
# name no longer matches anything — `go test -run TestNoSuchThing` prints
# "no tests to run" and exits 0.
gates:
	GO=$(GO) bash scripts/gates.sh

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

# The DSU pause in every engine mode (vm.Modes: serial, lazy, concurrent,
# concurrent+lazy) over sizes × updated fractions; writes
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

# Interpreter dispatch over the tier ladder (plain reference / base / opt over
# the arith, virtual-call, static-call and native/string mixes); writes
# BENCH_dispatch.json.
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
