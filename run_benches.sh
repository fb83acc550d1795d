#!/bin/bash
# Runs every bench binary and captures the output.
#
# Usage: ./run_benches.sh [--quick] [--json]
#   --quick  pass --quick to every bench (smaller workloads, CI-sized)
#   --json   write per-bench JSON to bench_json/<name>.json and aggregate
#            everything into BENCH_results.json, with each bench's wall
#            seconds and the suite total under "suite_wall"
#
# The benches other than micro_ops build their own simulation stacks and
# share nothing, so they run $(nproc) at a time; each one's output is
# captured and printed whole, in the order listed below. micro_ops times
# wall clock, so it runs alone afterwards.
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

BENCHES="table1_fsync_iops table2_page_size fig5_linkbench fig6_buffer_sweep
         table3_latency table4_tpcc table5_couchbase ablation_cache_size
         ablation_parallelism ablation_gc ablation_dump_area
         ablation_endurance ablation_flush_semantics ablation_queue_depth
         ablation_durability_mode ablation_destage_mode
         ablation_tiered_cache"

FAILED=""
WALL_TABLE=""
WALL_JSON=""
LOG_DIR="$(mktemp -d)"
trap 'rm -rf "$LOG_DIR"' EXIT

now_s() { date +%s.%N; }
elapsed_s() { awk -v a="$1" -v b="$(now_s)" 'BEGIN { printf "%.1f", b - a }'; }

SUITE_START="$(now_s)"

# Runs one bench, leaving its output, exit status and wall seconds in
# $LOG_DIR for report_bench.
run_bench() {
  local b="$1"
  shift
  [ -x "build/bench/$b" ] || return
  local extra=()
  if [ "$JSON" = 1 ]; then
    # Remove stale output first: a bench that dies before writing must not
    # leave a previous run's document to be aggregated as if it were fresh.
    rm -f "$JSON_DIR/$b.json"
    extra+=(--json "$JSON_DIR/$b.json")
  fi
  local start status
  start="$(now_s)"
  "./build/bench/$b" $QUICK "$@" "${extra[@]+"${extra[@]}"}" \
    > "$LOG_DIR/$b.log" 2>&1
  status=$?
  elapsed_s "$start" > "$LOG_DIR/$b.secs"
  echo "$status" > "$LOG_DIR/$b.status"
}

# Prints a finished bench's output and records its result.
report_bench() {
  local b="$1"
  if [ ! -x "build/bench/$b" ]; then
    echo "===== $b ===== (missing: build/bench/$b — skipped)"
    FAILED="$FAILED $b(missing)"
    return
  fi
  echo "===== $b ====="
  cat "$LOG_DIR/$b.log"
  if [ "$(cat "$LOG_DIR/$b.status")" != 0 ]; then
    echo "FAILED: $b" >&2
    FAILED="$FAILED $b"
  fi
  local secs
  secs="$(cat "$LOG_DIR/$b.secs")"
  WALL_TABLE+="$(printf '  %-28s %8s s' "$b" "$secs")"$'\n'
  WALL_JSON+="${WALL_JSON:+,}\"$b\":$secs"
  echo
}

SLOTS="$(nproc)"
for b in $BENCHES; do
  while [ "$(jobs -rp | wc -l)" -ge "$SLOTS" ]; do wait -n; done
  run_bench "$b" &
done
wait
for b in $BENCHES; do
  report_bench "$b"
done
run_bench micro_ops --benchmark_min_time=0.1
report_bench micro_ops
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
    AGGREGATED=0
    for name in $BENCHES micro_ops; do
      f="$JSON_DIR/$name.json"
      [ -e "$f" ] || continue
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
      AGGREGATED=$((AGGREGATED + 1))
    done
    printf '}}\n'
  } > BENCH_results.json
  echo "Wrote BENCH_results.json ($AGGREGATED benches)"
fi

echo "===== wall-clock seconds ====="
printf '%s' "$WALL_TABLE"
printf '  %-28s %8s s\n' "suite total" "$SUITE_TOTAL"

if [ -n "$FAILED" ]; then
  echo "Failed benches:$FAILED" >&2
  exit 1
fi
