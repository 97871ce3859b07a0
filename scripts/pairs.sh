#!/usr/bin/env bash
# Alternating parent/change pairs of one bench-of-record workload: the table
# a performance entry in CHANGES.md reports (choosing-metrics §8).
#
#   make pairs W=guest-compute N=10 BASE=HEAD~1
#   W=web-steady N=4 BASE=944aaee SEED0=300 SECS=25 bash scripts/pairs.sh
#
# BASE is exported (git archive) into .bench_build/pairs-base/ and the working
# tree is the change; each side is built and run through its own
# benchmark/run.sh, so each measures its own benchmark sources and builds into
# its own .bench_build/. Pair i runs seed SEED0+i-1 on both sides, base first
# on odd pairs and change first on even ones. For every end-to-end metric of
# BENCHMARK.json it prints the per-pair values, each side's median [q1–q3],
# how many pairs the change won (ties count for neither) and the ratio of the
# medians with its base. The export is removed on exit. Not part of `verify`.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

W="${W:?set W=<workload> (web-steady, guest-compute, update-pause, release-replay)}"
N="${N:-10}"
BASE="${BASE:-HEAD~1}"
SEED0="${SEED0:-101}"
SECS="${SECS:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}"

rev="$(git rev-parse --short "$BASE^{commit}")"
base="$root/.bench_build/pairs-base"
mkdir -p "$root/.bench_build"
tmp="$(mktemp -d "$root/.bench_build/pairs.XXXXXX")"
trap 'rm -rf "$base" "$tmp"' EXIT
rm -rf "$base" && mkdir -p "$base"
git archive "$rev" | tar -x -C "$base"

# name:better of every end-to-end metric, in BENCHMARK.json's order.
metrics="$(awk '
	/"end_to_end"/ { on = 1 }
	on && /"name"/   { gsub(/[",]/, ""); name = $2 }
	on && /"better"/ { gsub(/[",]/, ""); print name ":" $2 }
	on && /^  \]/    { exit }' BENCHMARK.json)"

echo "building $rev and the working tree" >&2
bash "$base/benchmark/run.sh" -h >/dev/null 2>&1 || true
bash "$root/benchmark/run.sh" -h >/dev/null 2>&1 || true

# run <tree> <seed> → the result line (the last line of standard output).
run() {
	bash "$1/benchmark/run.sh" --workload "$W" --seed "$2" --seconds "$SECS" --trace 0 2>/dev/null | tail -n 1
}
# value <result line> <metric>
value() {
	printf '%s\n' "$1" | sed -n "s/.*\"$2\":{\"value\":\([-0-9.e+]*\).*/\1/p"
}
failed() {
	printf '%s\n' "$1" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p'
}

echo "$W: $N pairs, base $rev vs working tree, seeds $SEED0..$((SEED0 + N - 1)), $SECS s per run"
printf '%-5s %-6s %-7s' pair seed first
for m in $metrics; do printf ' %26s' "${m%%:*} base → change"; done
printf ' %s\n' failed
for i in $(seq 1 "$N"); do
	seed=$((SEED0 + i - 1))
	if ((i % 2)); then
		first=base b="$(run "$base" "$seed")" c="$(run "$root" "$seed")"
	else
		first=change c="$(run "$root" "$seed")" b="$(run "$base" "$seed")"
	fi
	printf '%-5s %-6s %-7s' "$i" "$seed" "$first"
	for m in $metrics; do
		vb="$(value "$b" "${m%%:*}")" vc="$(value "$c" "${m%%:*}")"
		echo "${vb:-nan} ${vc:-nan}" >>"$tmp/${m%%:*}"
		printf ' %26s' "$(printf '%.4g → %.4g' "${vb:-nan}" "${vc:-nan}")"
	done
	printf ' %s+%s\n' "$(failed "$b")" "$(failed "$c")"
done

# quartiles <column> <file> → "median [q1–q3]" and the bare median, by linear
# interpolation between order statistics.
quartiles() {
	cut -d' ' -f"$1" "$2" | sort -g | awk '
		{ v[NR] = $1 }
		function q(p,   h, lo) { h = (NR - 1) * p + 1; lo = int(h); return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
		END { printf "%.4g [%.4g–%.4g] %.9g\n", q(0.5), q(0.25), q(0.75), q(0.5) }'
}
echo
printf '%-9s %-30s %-30s %-8s %s\n' metric "base median [q1–q3]" "change median [q1–q3]" wins/N "ratio (change ÷ base)"
for m in $metrics; do
	name="${m%%:*}" better="${m##*:}"
	read -r bmed bspread bm <<<"$(quartiles 1 "$tmp/$name")"
	read -r cmed cspread cm <<<"$(quartiles 2 "$tmp/$name")"
	wins="$(awk -v better="$better" '
		better == "lower" && $2 < $1 { w++ }
		better != "lower" && $2 > $1 { w++ }
		END { print w + 0 }' "$tmp/$name")"
	printf '%-9s %-30s %-30s %-8s %s\n' "$name" "$bmed $bspread" "$cmed $cspread" "$wins/$N" \
		"$(awk -v b="$bm" -v c="$cm" 'BEGIN { printf "%.3f× of %.4g", c / b, b }') ($better is better)"
done
