#!/usr/bin/env bash
# Parametrized determinism/crash-safety smoke driver — one script for
# every CI smoke job:
#
#   ./scripts/smoke.sh queue        fig_latency      1-vs-4-thread byte diff
#   ./scripts/smoke.sh preempt      ablation_preempt 1-vs-4-thread byte diff
#   ./scripts/smoke.sh resilience   fig_resilience   1-vs-4-thread byte diff
#   ./scripts/smoke.sh trace        fig3             traced-run byte diff + trace structure
#   ./scripts/smoke.sh resume       fig3             kill -9 / resume / retry / quarantine
#
# The --smoke runs of the first three bins check their own results and
# exit non-zero when a check fails: fig_latency's p99 tail grows with
# load, ablation_preempt's notices fire and migrate warm entries, and
# fig_resilience's gates miss, shed and trip under deep overload.
#
# Every mode zeroes wall-clock timings (LEXCACHE_ZERO_TIMINGS=1) so the
# exported artifacts are pure functions of the sweep structure and
# seeds: worker counts must not show, and any byte of divergence fails.
# CARGO_BIN overrides the cargo invocation (CI pre-builds the bin).
#
# Run from the repo root.
set -euo pipefail

MODE=${1:-}
usage() {
  echo "usage: $0 <queue|preempt|resilience|trace|resume>" >&2
  exit 2
}
case "$MODE" in
  queue) BIN_NAME=fig_latency ;;
  preempt) BIN_NAME=ablation_preempt ;;
  resilience) BIN_NAME=fig_resilience ;;
  trace | resume) BIN_NAME=fig3 ;;
  *) usage ;;
esac

BIN=${CARGO_BIN:-"cargo run --release -q -p bench --bin $BIN_NAME --"}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/lexcache_${MODE}_smoke.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

export LEXCACHE_ZERO_TIMINGS=1

fail() { echo "smoke($MODE): FAIL: $*" >&2; exit 1; }

# The shared skeleton of the --smoke modes: a serial smoke run is the
# byte reference for results/<bin>.json, a 4-thread run must reproduce
# it exactly.
smoke_diff_json() {
  echo "== reference: serial smoke run =="
  $BIN --smoke --json --threads 1 --no-journal
  [ -s "results/$BIN_NAME.json" ] || fail "no JSON exported"
  cp "results/$BIN_NAME.json" "$WORK/reference.json"

  echo "== parallel smoke run must match byte for byte =="
  $BIN --smoke --json --threads 4 --no-journal
  cmp "results/$BIN_NAME.json" "$WORK/reference.json" \
    || fail "results diverged between --threads 1 and --threads 4"
}

mode_queue() { smoke_diff_json; }
mode_preempt() { smoke_diff_json; }
mode_resilience() { smoke_diff_json; }

mode_trace() {
  # Small, fast, deterministic: zeroed timings make the trace a pure
  # function of the sweep structure, so thread counts cannot show.
  export LEXCACHE_REPEATS=3
  export LEXCACHE_SLOTS=5
  export LEXCACHE_TRACE=1

  echo "== reference: traced serial run =="
  $BIN --threads 1 --no-journal
  [ -s results/trace_fig3.json ] || fail "no trace exported"
  [ -s results/trace_fig3.folded ] || fail "no flame fold exported"
  cp results/trace_fig3.json "$WORK/reference.json"
  cp results/trace_fig3.folded "$WORK/reference.folded"

  echo "== traced parallel run must match byte for byte =="
  $BIN --threads 4 --no-journal
  cmp results/trace_fig3.json "$WORK/reference.json" \
    || fail "trace diverged between --threads 1 and --threads 4"
  cmp results/trace_fig3.folded "$WORK/reference.folded" \
    || fail "flame fold diverged between --threads 1 and --threads 4"

  echo "== exported trace parses and is non-trivial =="
  python3 - <<'EOF' || fail "trace failed validation"
import json
with open("results/trace_fig3.json") as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert events, "traceEvents is empty"
phases = {e["ph"] for e in events}
assert "M" in phases, "no thread_name metadata"
assert "B" in phases and "E" in phases, "no begin/end span events"
names = {e.get("name") for e in events}
assert "runner/cell" in names, "runner cell spans missing"
assert "runner/queue_wait" in names, "queue-wait instants missing"
begins = sum(1 for e in events if e["ph"] == "B")
ends = sum(1 for e in events if e["ph"] == "E")
assert begins == ends, f"unbalanced spans: {begins} begins, {ends} ends"
print(f"   trace ok: {len(events)} events, {len(names)} distinct names")
EOF
}

mode_resume() {
  # Small, fast, deterministic: every variant below must produce the
  # same results/fig3.json bytes (decide_us is wall clock, so timings
  # are zeroed in the JSON).
  export LEXCACHE_REPEATS=3
  export LEXCACHE_SLOTS=5

  run_fig3() { $BIN --json "$@"; }

  echo "== reference: clean serial run =="
  run_fig3 --threads 1 --journal "$WORK/ref.journal.jsonl"
  cp results/fig3.json "$WORK/reference.json"
  [ -s "$WORK/ref.journal.jsonl" ] || fail "no journal written"

  echo "== kill -9 mid-sweep, then resume =="
  # Slow the victim down enough to be killed while cells are in flight.
  run_fig3 --threads 1 --journal "$WORK/killed.journal.jsonl" &
  VICTIM=$!
  sleep 0.4
  kill -9 "$VICTIM" 2>/dev/null || true
  wait "$VICTIM" 2>/dev/null || true
  if [ ! -f "$WORK/killed.journal.jsonl" ]; then
    # The victim finished or died before its first checkpoint — fall
    # back to the truncation path below, which pins the same contract.
    echo "   (victim left no journal; skipping to truncated-journal resume)"
  else
    for threads in 1 4; do
      run_fig3 --threads "$threads" \
        --resume "$WORK/killed.journal.jsonl" \
        --journal "$WORK/resumed_kill.journal.jsonl"
      cmp results/fig3.json "$WORK/reference.json" \
        || fail "resume after kill -9 diverged (threads $threads)"
    done
  fi

  echo "== truncated-journal resume (simulated torn checkpoint) =="
  # Keep the header plus the first two cell records of the reference
  # journal — a deterministic "crashed after 2 cells" stub.
  head -n 3 "$WORK/ref.journal.jsonl" > "$WORK/trunc.journal.jsonl"
  for threads in 1 4; do
    run_fig3 --threads "$threads" \
      --resume "$WORK/trunc.journal.jsonl" \
      --journal "$WORK/resumed_trunc.journal.jsonl" \
      | tee "$WORK/resume_out.txt"
    grep -q "resume: spliced 2 of" "$WORK/resume_out.txt" \
      || fail "resume did not splice the journaled cells (threads $threads)"
    cmp results/fig3.json "$WORK/reference.json" \
      || fail "truncated-journal resume diverged (threads $threads)"
  done

  echo "== always-panicking cell is quarantined (exit 3) =="
  # (env prefix on the command itself, not the shell function: bash
  # leaks `VAR=x fn` assignments past the call.)
  set +e
  LEXCACHE_PANIC_CELL=2 $BIN --json --threads 2 \
    --journal "$WORK/quarantine.journal.jsonl" 2> "$WORK/quarantine_err.txt"
  status=$?
  set -e
  [ "$status" -eq 3 ] || fail "quarantined sweep exited $status, expected 3"
  grep -q "quarantined" "$WORK/quarantine_err.txt" || fail "no quarantine summary"
  grep -q "cell 2 " "$WORK/quarantine_err.txt" || fail "summary does not name cell 2"

  echo "== panic-once cell recovers via retry, output unchanged =="
  LEXCACHE_PANIC_CELL=2:1 $BIN --json --threads 2 \
    --journal "$WORK/retry.journal.jsonl" 2> "$WORK/retry_err.txt"
  grep -q "retrying with the same seed" "$WORK/retry_err.txt" \
    || fail "retry was not reported"
  cmp results/fig3.json "$WORK/reference.json" \
    || fail "output changed after a retried panic"
}

"mode_$MODE"

echo "smoke($MODE): PASS"
