#!/bin/bash
# Runs every bench binary and captures the output.
#
# Usage: ./run_benches.sh [--quick] [--json]
#   --quick  pass --quick to every bench (smaller workloads, CI-sized)
#   --json   write per-bench JSON to bench_json/<name>.json and aggregate
#            everything into BENCH_results.json, with each bench's wall
#            seconds and the suite total under "suite_wall"
#
# Prints each bench's wall-clock seconds and the suite total at the end.
# Exits nonzero if any bench fails.
set -u

QUICK=""
JSON=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK="--quick" ;;
    --json) JSON=1 ;;
    *)
      echo "unknown argument: $arg" >&2
      echo "usage: $0 [--quick] [--json]" >&2
      exit 2
      ;;
  esac
done

JSON_DIR="bench_json"
if [ "$JSON" = 1 ]; then
  mkdir -p "$JSON_DIR"
fi

FAILED=""
WALL_TABLE=""
WALL_JSON=""

now_s() { date +%s.%N; }
elapsed_s() { awk -v a="$1" -v b="$(now_s)" 'BEGIN { printf "%.1f", b - a }'; }

SUITE_START="$(now_s)"

run_bench() {
  local b="$1"
  shift
  if [ ! -x "build/bench/$b" ]; then
    echo "===== $b ===== (missing: build/bench/$b — skipped)"
    FAILED="$FAILED $b(missing)"
    return
  fi
  echo "===== $b ====="
  local extra=()
  if [ "$JSON" = 1 ]; then
    # Remove stale output first: a bench that dies before writing must not
    # leave a previous run's document to be aggregated as if it were fresh.
    rm -f "$JSON_DIR/$b.json"
    extra+=(--json "$JSON_DIR/$b.json")
  fi
  local start
  start="$(now_s)"
  if ! "./build/bench/$b" $QUICK "$@" "${extra[@]+"${extra[@]}"}"; then
    echo "FAILED: $b" >&2
    FAILED="$FAILED $b"
  fi
  local secs
  secs="$(elapsed_s "$start")"
  WALL_TABLE+="$(printf '  %-28s %8s s' "$b" "$secs")"$'\n'
  WALL_JSON+="${WALL_JSON:+,}\"$b\":$secs"
  echo
}

for b in table1_fsync_iops table2_page_size fig5_linkbench fig6_buffer_sweep \
         table3_latency table4_tpcc table5_couchbase ablation_cache_size \
         ablation_parallelism ablation_gc ablation_dump_area \
         ablation_endurance ablation_flush_semantics ablation_queue_depth \
         ablation_durability_mode ablation_destage_mode \
         ablation_array_failover ablation_host_parallelism \
         ablation_tiered_cache; do
  run_bench "$b"
done
run_bench micro_ops --benchmark_min_time=0.1
SUITE_TOTAL="$(elapsed_s "$SUITE_START")"

if [ "$JSON" = 1 ]; then
  # Aggregate the per-bench documents into one BENCH_results.json:
  # {"schema_version":1,"suite_wall":{...},"benches":{"<name>":<document>}}.
  # "suite_wall" holds wall-clock seconds (scripts/bench_compare.py gates the
  # quick-suite total); micro_ops emits google-benchmark's native format and
  # is included as-is.
  {
    printf '{"schema_version":1,"suite_wall":{"quick":%s,"total_s":%s,' \
      "$([ -n "$QUICK" ] && echo true || echo false)" "$SUITE_TOTAL"
    printf '"bench_s":{%s}},"benches":{' "$WALL_JSON"
    first=1
    for f in "$JSON_DIR"/*.json; do
      [ -e "$f" ] || continue
      name="$(basename "$f" .json)"
      # Partial output (bench crashed or was killed mid-write) lacks the
      # terminal "complete":true key and must not reach the aggregate.
      # micro_ops is google-benchmark's native format and is exempt.
      if [ "$name" != micro_ops ] && \
         ! grep -q '"complete": *true' "$f"; then
        echo "INCOMPLETE: $name ($f has no terminal \"complete\" key)" >&2
        FAILED="$FAILED $name(incomplete)"
        continue
      fi
      if [ "$first" = 1 ]; then first=0; else printf ','; fi
      printf '"%s":' "$name"
      cat "$f"
    done
    printf '}}\n'
  } > BENCH_results.json
  echo "Wrote BENCH_results.json ($(ls "$JSON_DIR" | wc -l) benches)"
fi

echo "===== wall-clock seconds ====="
printf '%s' "$WALL_TABLE"
printf '  %-28s %8s s\n' "suite total" "$SUITE_TOTAL"

if [ -n "$FAILED" ]; then
  echo "Failed benches:$FAILED" >&2
  exit 1
fi
