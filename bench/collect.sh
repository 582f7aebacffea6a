#!/usr/bin/env bash
# Collects one result set — every workload at each given seed, untraced —
# into a JSON-lines file for `fluxbench cmp`. From the root of a checkout:
#
#   bash bench/collect.sh <out.jsonl> <seed>...
set -euo pipefail

out=$1
shift
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
for seed in "$@"; do
	for w in ingest-steady query-mixed stream-fanout control-lassen; do
		bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 -o "$out" >/dev/null
	done
done
