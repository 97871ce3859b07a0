# Tier-1 verification for govolve. `make verify` is what CI runs: formatting,
# build, vet, the full test suite, the same suite on poisoned guest heaps and
# under the race detector, the bench of record's smoke sizes and the
# per-feature gates. The storm soak and the fuzzers run longer and are split
# out.

GO ?= go

.PHONY: verify fmt build vet test poison bench-smoke race gates loc pairs storm bench-obs bench-pause bench-stream bench-dispatch trace fuzz

verify: fmt build vet test poison bench-smoke race gates

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

# The suite again with every fresh guest heap filled with a nonzero pattern
# instead of what Go's allocator left there (internal/heap/poison.go): the
# heap never reads a word it has not written (DESIGN.md §8), and a bug that
# does fails here on every run instead of on some.
poison:
	$(GO) test -tags heappoison ./...

# The bench of record is a module of its own (benchmark/go.mod), so the
# three targets above do not see it: vet it and run its smoke sizes here, so
# a refactor that breaks its pinned API surface (benchmark/README.md) fails
# tier-1 instead of the bench run. The control plane's own benchmarks (the
# verifier, the assembler and the compiler over all 25 app releases and the
# UPT over their 22 updates: ns/ins, ns/line, ns/method, ns/spec,
# allocations per unit) run once each here so they cannot rot; their gates
# are the allocation counts in internal/apps/layers_test.go, under `test`.
bench-smoke:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...
	$(GO) test -run '^$$' -bench 'AllReleases' -benchtime 1x ./internal/apps/

race:
	$(GO) test -race ./...

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
# the gc+heap subtotal ROADMAP's collector item states its bar in. The
# control plane (the layers that turn source into a prepared, compiled
# update) is counted on a line of its own, outside that total.
loc:
	@total=0; sub=0; for d in gc core heap vm; do \
		n=$$(cat $$(ls internal/$$d/*.go | grep -v _test.go) | wc -l); \
		echo "$$d $$n"; total=$$((total + n)); \
		case $$d in gc|heap) sub=$$((sub + n));; esac; \
	done; echo "gc+heap $$sub"; echo "total $$total"; \
	line="control-plane"; cp=0; for d in asm classfile upt verifier jit rt; do \
		n=$$(cat $$(ls internal/$$d/*.go | grep -v _test.go) | wc -l); \
		line="$$line $$d $$n"; cp=$$((cp + n)); \
	done; echo "$$line total $$cp"

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

# Demo: record the obs experiment's webserver update (5.1.5 warmed, then
# updated to 5.1.6 under load) and export the DSU timeline as a Chrome
# trace — open trace.json in https://ui.perfetto.dev.
trace:
	$(GO) run ./cmd/jvolve-bench -exp obs -runs 1 -obs-out '' -trace trace.json

# Explore beyond the checked-in seed corpora (30s per target).
fuzz:
	$(GO) test -fuzz=FuzzVerifier -fuzztime 30s ./internal/verifier
	$(GO) test -fuzz=FuzzAsmRoundTrip -fuzztime 30s ./internal/asm
	$(GO) test -fuzz=FuzzUPTDiff -fuzztime 30s ./internal/upt
	$(GO) test -fuzz=FuzzStreamChain -fuzztime 30s ./internal/stream
	$(GO) test -fuzz=FuzzRelocDrain -fuzztime 30s ./internal/gc
