#!/usr/bin/env bash
# The per-feature gates of `make verify`, driven by scripts/gates.txt (which
# documents its own columns). Two passes: every name a row pins must match a
# test or benchmark `go test -list` reports in one of the row's packages, and
# every package of a row must hold one — `go test -run` on a name that matches
# nothing passes — then each row runs once.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
GO="${GO:-go}"
rows="$(grep -vE '^[[:space:]]*(#|$)' scripts/gates.txt)"

paths() { local p; for p in ${1//,/ }; do printf './internal/%s/ ' "$p"; done; }

declare -A listed
missing=0
while read -r pkgs mode tests benches _; do
	case "$mode" in race | norace) ;; *) echo "gates: $pkgs: mode '$mode' is neither race nor norace" >&2; exit 2 ;; esac
	names="" any="$tests|$benches"
	any="${any#-|}" any="${any%|-}"
	for p in ${pkgs//,/ }; do
		[[ -v "listed[$p]" ]] || listed[$p]="$($GO test -list '.*' "./internal/$p/")"
		names+="${listed[$p]}"$'\n'
		if ! grep -qE -- "$any" <<<"${listed[$p]}"; then
			echo "gates: nothing in $p matches $any" >&2
			missing=1
		fi
	done
	for pin in ${tests//|/ } ${benches//|/ }; do
		if [[ "$pin" != - ]] && ! grep -qE -- "$pin" <<<"$names"; then
			echo "gates: $pin matches no test or benchmark of $pkgs" >&2
			missing=1
		fi
	done
done <<<"$rows"
if ((missing)); then
	exit 1
fi

while read -r pkgs mode tests benches _; do
	race=""
	[[ "$mode" == race ]] && race=-race
	# shellcheck disable=SC2046,SC2086
	if [[ "$tests" != - ]]; then
		$GO test $race -run "$tests" -count=1 $(paths "$pkgs")
	fi
	# shellcheck disable=SC2046
	if [[ "$benches" != - ]]; then
		$GO test -run '^$' -bench "$benches" -benchtime 200ms $(paths "$pkgs")
	fi
done <<<"$rows"
