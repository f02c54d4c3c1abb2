#!/usr/bin/env bash
# The perf gate: perfbench at this checkout (head) against perfbench at
# BASE_REF (the parent), run in turn on the same machine and judged by
# cmd/benchjson.
#
#   bash .github/perfgate.sh BASE_REF
#
# BASE_REF is checked out into a temporary git worktree. Each workload
# below gets $pairs untraced pairs of runs, both sides of a pair on one
# seed, with the side that runs first alternating from pair to pair so
# slow drift of the machine lands on both sides alike, and then one
# traced pair whose deterministic counters are compared exactly. The
# tagged result lines are kept in .bench_build/perfgate.jsonl and
# perfbench's logs beside them. benchjson prints the delta table and
# exits non-zero, naming each reason, when head is slower, allocates
# more, fails more or changed what it simulated beyond what
# BENCHMARK.json's bounds allow.
set -euo pipefail

base_ref=${1:?usage: perfgate.sh BASE_REF}
workloads=(day grid256 ingest analyze)
pairs=5

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
work="$(mktemp -d)"
base="$work/base"
git worktree add --detach --quiet "$base" "$base_ref"
trap 'git -C "$root" worktree remove --force "$base"; rm -rf "$work"' EXIT
mkdir -p .bench_build
rm -f .bench_build/perfgate*
results="$root/.bench_build/perfgate.jsonl"

# run SIDE WORKLOAD PAIR TRACE SECONDS appends one tagged result line.
run() {
	local side=$1 w=$2 p=$3 trace=$4 seconds=$5 tree=$root line
	[ "$side" = base ] && tree=$base
	line=$(cd "$tree" && bash perfbench/run.sh --workload "$w" --seed $((p + 1)) \
		--seconds "$seconds" --trace "$trace" 2>>"$root/.bench_build/perfgate-$side-$w.log" | tail -n 1)
	printf '{"workload":"%s","side":"%s","pair":%d,"trace":%d,"result":%s}\n' \
		"$w" "$side" "$p" "$trace" "$line" >>"$results"
	echo "pair $p $w $side trace $trace: $line"
}

for ((p = 0; p < pairs; p++)); do
	for w in "${workloads[@]}"; do
		if ((p % 2 == 0)); then
			run base "$w" "$p" 0 5
			run head "$w" "$p" 0 5
		else
			run head "$w" "$p" 0 5
			run base "$w" "$p" 0 5
		fi
	done
done
for w in "${workloads[@]}"; do
	run base "$w" 0 1 1
	run head "$w" 0 1 1
done

flags=()
if ! git diff --quiet "$base_ref" -- internal/workload/testdata/goldens.json; then
	flags+=(-goldens-changed)
fi
go run ./cmd/benchjson "${flags[@]}" "$results"
