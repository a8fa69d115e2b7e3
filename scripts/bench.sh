#!/bin/sh
# Run the batched-vs-scalar filter benchmarks (-> BENCH_batch.json, see
# batch_bench_test.go), the persistence codec benchmarks
# (-> BENCH_persist.json, see persist_bench_test.go), the
# concurrent LSM store benchmarks (-> BENCH_lsm_concurrent.json, see
# lsm_concurrent_bench_test.go), the WAL durability ablation
# (-> BENCH_wal.json, see exp_wal.go), the filter-service sweep
# (-> BENCH_service.json, see exp_service.go), the maplet-first
# LSM read path (-> BENCH_lsm_maplet.json, see exp_lsm_maplet.go),
# and the growable-filter drift/pause measurement
# (-> BENCH_growth.json, see exp_growth.go).
# Setup builds multi-MB filters, so a full run takes a few minutes.
#
# Usage:
#   scripts/bench.sh              rerun everything, overwrite the JSONs
#   scripts/bench.sh --compare    rerun the batch section only and diff
#                                 it against the committed
#                                 BENCH_batch.json, flagging >10%
#                                 regressions (exit 1 if any)
set -eu
cd "$(dirname "$0")/.."

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

if [ "${1:-}" = "--compare" ]; then
	[ -f BENCH_batch.json ] || { echo "no committed BENCH_batch.json to compare against" >&2; exit 2; }
	echo "== go test -bench Filter*Contains{Scalar,Batch} (compare mode) =="
	go test -run '^$' -bench 'Filter.*Contains(Scalar|Batch)|FilterBatchSweep' \
		-benchmem -benchtime 1s -timeout 1800s . | tee "$RAW"
	python3 scripts/bench_to_json.py <"$RAW" >BENCH_batch.new.json
	status=0
	python3 scripts/bench_compare.py BENCH_batch.json BENCH_batch.new.json || status=$?
	rm -f BENCH_batch.new.json
	exit $status
fi

echo "== go test -bench Filter*Contains{Scalar,Batch} =="
go test -run '^$' -bench 'Filter.*Contains(Scalar|Batch)|FilterBatchSweep' \
	-benchmem -benchtime 1s -timeout 1800s . | tee "$RAW"
python3 scripts/bench_to_json.py <"$RAW" >BENCH_batch.json
echo "wrote BENCH_batch.json"

echo "== go test -bench Persist{Encode,Decode} =="
go test -run '^$' -bench 'Persist(Encode|Decode)' \
	-benchmem -benchtime 1s -timeout 1800s . | tee "$RAW"
python3 scripts/bench_to_json.py <"$RAW" >BENCH_persist.json
echo "wrote BENCH_persist.json"

echo "== go test -bench LSMConcurrent =="
go test -run '^$' -bench 'LSMConcurrent' \
	-benchmem -benchtime 1s -timeout 1800s . | tee "$RAW"
python3 scripts/bench_to_json.py <"$RAW" >BENCH_lsm_concurrent.json
echo "wrote BENCH_lsm_concurrent.json"

echo "== exp E19 (WAL crash sweep + durability latency ablation) =="
go run ./cmd/beyondbloom exp E19 | tee "$RAW"
python3 scripts/wal_bench_to_json.py <"$RAW" >BENCH_wal.json
echo "wrote BENCH_wal.json"

echo "== exp E21 (filter service: open-loop natural-batching sweep) =="
go run ./cmd/beyondbloom exp E21 | tee "$RAW"
python3 scripts/service_bench_to_json.py <"$RAW" >BENCH_service.json
echo "wrote BENCH_service.json"

echo "== exp E22 (maplet-first LSM reads + batched maplet probes) =="
go run ./cmd/beyondbloom exp E22 | tee "$RAW"
python3 scripts/lsm_maplet_bench_to_json.py <"$RAW" >BENCH_lsm_maplet.json
echo "wrote BENCH_lsm_maplet.json"

echo "== exp E23 (growable filters: FPR drift + pause-free expansion) =="
go run ./cmd/beyondbloom exp E23 | tee "$RAW"
python3 scripts/growth_bench_to_json.py <"$RAW" >BENCH_growth.json
echo "wrote BENCH_growth.json"
