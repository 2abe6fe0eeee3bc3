#!/usr/bin/env bash
# Runs each benchmark workload for 5 seconds and checks it against its
# checked-in record, BENCH_<workload>.json:
#
#   bash .github/bench-gate.sh [seed]    # seed defaults to 1
#
# Run it from the repository root; it needs jq. It fails when a run's
# result line says correct=false, or when sim-suite's or rt-large's
# allocs_per_op is more than BENCHMARK.json's allocs_per_op bound (0.1)
# above the record's change-side median. These counts repeat across
# hosts: on a 2-vCPU VM, 5-second runs read within 1% of the 30-second
# records.
#
# It prints, without failing on them:
#   - swarmd-jobs' allocs_per_op. That workload's allocations scale with
#     status polls per job, and polls per job depend on host speed
#     (1,308-1,318 allocs per job at GOMAXPROCS=2 and 1,472 at
#     GOMAXPROCS=4 on that VM), so a runner unlike the recording host
#     would trip a 10% bound with no code change.
#   - every workload's work_per_s and latency_ms as ratios to its record.
#     Host times from 5-second runs on a shared runner are too noisy for
#     the 25% time bounds.
set -euo pipefail

seed=${1:-1}
bound=$(jq '.end_to_end[] | select(.name == "allocs_per_op") | .bound' BENCHMARK.json)
fail=0
for w in sim-suite rt-large swarmd-jobs; do
  line=$(bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds 5 --trace 0 | tail -n 1)
  read -r correct allocs allocs_x work_x latency_x < <(jq -r --argjson r "$line" '
    .summary.change as $rec
    | [$r.correct, $r.metrics.allocs_per_op.value]
      + ([ "allocs_per_op", "work_per_s", "latency_ms" ]
         | map($r.metrics[.].value / $rec[.].median))
    | @tsv' "BENCH_$w.json")
  printf '%-11s seed %s: correct=%s allocs_per_op=%.6g (x%.3f of record), work_per_s x%.3f, latency_ms x%.3f\n' \
    "$w" "$seed" "$correct" "$allocs" "$allocs_x" "$work_x" "$latency_x"
  if [ "$correct" != true ]; then
    echo "FAIL $w: the run reported an incorrect result"
    fail=1
  fi
  if [ "$w" != swarmd-jobs ] && awk -v x="$allocs_x" -v b="$bound" 'BEGIN { exit !(x > 1 + b) }'; then
    printf 'FAIL %s: allocs_per_op is x%.3f of BENCH_%s.json, over the x%s bound\n' "$w" "$allocs_x" "$w" "$(jq -n "1 + $bound")"
    fail=1
  fi
done
exit $fail
