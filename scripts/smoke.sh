#!/usr/bin/env bash
# Smoke check: everything a reviewer needs green before merging.
#
#   scripts/smoke.sh
#
# Runs, in order:
#   1. tier-1: release build + full test suite (offline, as CI does)
#   2. clippy across the whole workspace, warnings promoted to errors,
#      and rustdoc with warnings denied (broken and private doc links)
#   3. the aggregated experiment harness in --quick mode, twice, whose
#      outputs must be byte-identical
#   4. the exhaustive-explorer smoke sweep (n = 2, incl. the
#      bakery-nofence negative control — nonzero exit if it slips by):
#      twice at the default thread count, whose outputs must be
#      byte-identical, then timed on 4 worker threads
#   5. symmetry + swarm resilience: the whole portfolio verified
#      bounded-exhaustively at n = 3 with symmetry reduction engaged;
#      the symmetry property tests (permuted fingerprints, canonical
#      keys, and the renaming tables search nodes carry, which must
#      equal tables built from scratch); the checker's canonical-key
#      pins (verdicts, reduced state counts, thread-count stability,
#      rejected declarations); then the swarm determinism pin across
#      1/2/4/8 worker threads
#   6. the bytecode VM, timed: the VM-vs-native differential oracle
#      (portfolio verdicts, witnesses and state counts pinned equal
#      through `Execution::Compiled`) plus the per-step lockstep
#      property tests and the injectivity of the bytecode encoding that
#      checkpoint fingerprints hash
#   7. the scenario DSL corpus, timed: every `.tpa` under scenarios/
#      judged by check_file (every pinned clause must hold), then the
#      corpus golden tests — ten lock ports bit-identical and
#      state-count-equal to their native twins, diagnostics snapshots,
#      and the parser fuzz battery
#   8. the crash-fault model: exhaustive n = 2 with a crash budget of 1;
#      the crash-gated negative control (unfenced recoverable bakery)
#      must be caught and shrunk with its crash, two runs at the default
#      thread count must print byte-identical output, a run with
#      TPA_OBS_METRICS set must write a snapshot that obs_validate
#      --metrics accepts, and the telemetry a 4-thread run emits — crash
#      events included — must pass schema validation
#   9. telemetry: rerun the explorer with TPA_OBS_* set and validate the
#      JSONL run log and the Perfetto trace with obs_validate
#  10. metrics + run ledger: the whole corpus through `tpa_runs corpus`
#      against the committed baseline; a corpus slice ledgered twice and
#      `tpa_runs diff` gated on zero regressions; a deliberate
#      `--threads` change surfacing as an env-fingerprint difference
#      (and only that); record/report/snapshot schema validation
#  11. ledger concurrency: 4 appender threads over two `Ledger` handles
#      racing 4 reader threads on a shared handle — every read of the
#      record files ordered, duplicate-free, free of unreadable records,
#      and listing only loadable records
#  12. concurrent ledger: the litmus corpus written into a ledger while
#      a background `tpa_runs list` loop reads it the whole time — zero
#      read errors, zero unreadable-record warnings (an append in flight
#      is an empty claimed file, which reads skip), and a
#      zero-regression `tpa_runs diff` across the two racing-writer
#      passes
#  13. checkpoint/resume durability: a lock search deadline-interrupted
#      at 0 ms writes a checkpoint (schema-checked by `obs_validate
#      --checkpoint`), `check_file --resume` finishes it, and
#      `tpa_runs diff` pairs the resumed run against the uninterrupted
#      control — bit-equal verdict and state counts, with the
#      interrupted run skipped as superseded; then a copy of the same
#      scenario stopped by a 400-transition budget on 2 threads
#      checkpoints a real frontier (nodes below the root, rebuilt on
#      resume by replaying their ranks) in the verdict phase, which the
#      committed file resumes on 1 thread to the baseline's 778 states;
#      then a copy of the scenario with one instruction edited after
#      the entry point (same initial state) must refuse the first
#      checkpoint, naming the fingerprint's bytecode hash, and a copy
#      with the step bound cut from 60 to 50 must refuse it, naming
#      max_steps; last, of the two checkpoints a 0 ms deadline writes
#      for the MP litmus, the pso clause's resumes the pso clause and
#      no other
#  14. the benchmark package (examples/perf), which lies outside the
#      workspace and so escapes stages 1, 2 and 15: clippy with warnings
#      promoted to errors, its unit tests and a formatting check, all
#      against the current crates; then `perf check`, which replays the
#      n = 2 portfolio through the layers' public functions and fails
#      unless it reproduces the engine's counters exactly; then one
#      1-second pass of the `symmetric` workload, whose exit status
#      checks the seven `*/n4/s30/full` canonical-key pins in
#      examples/perf/expected.json
#  15. formatting check
#
# Every stage runs under `timeout` (default 900 s per stage, override
# with SMOKE_STAGE_TIMEOUT) so a wedged stage fails the smoke run
# instead of hanging it — the same discipline the checker itself applies
# to its searches.
#
# BENCH_check.json is the benchmark's committed record (`perf run
# --repeat 5 --out BENCH_check.json`); the run fails if any stage
# changed it.
set -euo pipefail
cd "$(dirname "$0")/.."

SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT
BENCH_SUM="$(sha256sum BENCH_check.json)"

STAGE_TIMEOUT="${SMOKE_STAGE_TIMEOUT:-900}"
t() { timeout --foreground "$STAGE_TIMEOUT" "$@"; }

echo "== [1/15] tier-1: build + tests =="
t cargo build --offline --release --workspace
t cargo test --offline -q --workspace

echo "== [2/15] clippy (-D warnings) + rustdoc (-D warnings) =="
t cargo clippy --offline --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" t cargo doc --offline --no-deps --workspace

echo "== [3/15] experiment harness (quick) =="
t cargo run --offline --release -p tpa-bench --bin report_all -- --quick > "$SCRATCH/report-a.txt"
t cargo run --offline --release -p tpa-bench --bin report_all -- --quick > "$SCRATCH/report-b.txt"
cat "$SCRATCH/report-a.txt"
cmp "$SCRATCH/report-a.txt" "$SCRATCH/report-b.txt" || { echo "two report_all runs differ"; exit 1; }

echo "== [4/15] explorer smoke (quick): reproducible at the default thread count, then 4 threads, timed =="
t cargo run --offline --release -p tpa-bench --bin exp_c1_explorer -- --quick > "$SCRATCH/c1-a.txt"
t cargo run --offline --release -p tpa-bench --bin exp_c1_explorer -- --quick > "$SCRATCH/c1-b.txt"
cat "$SCRATCH/c1-a.txt"
cmp "$SCRATCH/c1-a.txt" "$SCRATCH/c1-b.txt" || { echo "two exp_c1_explorer runs differ"; exit 1; }
time t cargo run --offline --release -p tpa-bench --bin exp_c1_explorer -- --quick --threads 4

echo "== [5/15] symmetry reduction (n = 3 exhaustive, property tests, canonical pins) + multi-threaded swarm =="
time t cargo test --offline --release -q \
    --test lock_correctness exhaustive_exclusion_every_lock_n3_with_symmetry
time t cargo test --offline --release -q --test symmetry_props
time t cargo test --offline --release -q -p tpa-check --test symmetry
time t cargo test --offline --release -q -p tpa-check \
    --test swarm_resilience swarm_witness_is_deterministic_across_thread_counts

echo "== [6/15] bytecode VM: differential oracle + lockstep properties (timed) =="
time t cargo test --offline --release -q -p tpa-check --test vm_differential
time t cargo test --offline --release -q --test vm_props

echo "== [7/15] scenario DSL corpus (check_file over scenarios/, timed) =="
time t cargo run --offline --release -p tpa-check --bin check_file -- \
    scenarios/litmus/*.tpa scenarios/locks/*.tpa scenarios/crash/*.tpa
time t cargo test --offline --release -q --test corpus
t cargo test --offline --release -q --test dsl_diagnostics --test dsl_props

echo "== [8/15] crash-fault model (quick, negative control, reproducibility + telemetry) =="
t cargo run --offline --release -p tpa-bench --bin exp_r1_crash -- --quick > "$SCRATCH/r1-a.txt"
t cargo run --offline --release -p tpa-bench --bin exp_r1_crash -- --quick > "$SCRATCH/r1-b.txt"
cat "$SCRATCH/r1-a.txt"
cmp "$SCRATCH/r1-a.txt" "$SCRATCH/r1-b.txt" || { echo "two exp_r1_crash runs differ"; exit 1; }
TPA_OBS_METRICS="$SCRATCH/r1-metrics.json" \
    t cargo run --offline --release -p tpa-bench --bin exp_r1_crash -- --quick > /dev/null
t cargo run --offline --release -p tpa-bench --bin obs_validate -- --metrics "$SCRATCH/r1-metrics.json"
TPA_OBS_JSONL="$SCRATCH/crash.jsonl" \
    t cargo run --offline --release -p tpa-bench --bin exp_r1_crash -- --quick --threads 4
test -s "$SCRATCH/crash.jsonl" || { echo "crash-model run log missing"; exit 1; }
t cargo run --offline --release -p tpa-bench --bin obs_validate -- "$SCRATCH/crash.jsonl"

echo "== [9/15] telemetry: JSONL + Perfetto export, schema-validated =="
TPA_OBS_JSONL="$SCRATCH/run.jsonl" \
TPA_OBS_TRACE="$SCRATCH/trace.json" \
    t cargo run --offline --release -p tpa-bench --bin exp_c1_explorer -- --quick --threads 4
test -s "$SCRATCH/run.jsonl" || { echo "telemetry run log missing"; exit 1; }
test -s "$SCRATCH/trace.json" || { echo "telemetry trace missing"; exit 1; }
t cargo run --offline --release -p tpa-bench --bin obs_validate -- \
    "$SCRATCH/run.jsonl" "$SCRATCH/trace.json"

echo "== [10/15] metrics registry + run ledger (corpus gate, diff, env fingerprint) =="
LEDGER="$SCRATCH/ledger"
# The whole corpus against the committed baseline: verdict flips,
# clause-count changes and unique-state drift on complete passes fail
# the stage (state counts are thread-count-invariant, so threads=2 must
# reproduce the threads=1 baseline).
t cargo run --offline --release -p tpa-check --bin tpa_runs -- corpus scenarios \
    --ledger "$LEDGER" --threads 2 --out "$SCRATCH/corpus.json" \
    --baseline scenarios/BASELINE.json
t cargo run --offline --release -p tpa-bench --bin obs_validate -- --corpus "$SCRATCH/corpus.json"
# A corpus slice ledgered twice under identical conditions: the
# latest-two diff must be regression-free.
TPA_OBS_METRICS="$SCRATCH/metrics.json" \
    t cargo run --offline --release -p tpa-check --bin check_file -- --ledger "$LEDGER" \
    scenarios/locks/tas.tpa scenarios/locks/mcs.tpa scenarios/litmus/*.tpa
TPA_OBS_METRICS="$SCRATCH/metrics.json" \
    t cargo run --offline --release -p tpa-check --bin check_file -- --ledger "$LEDGER" \
    scenarios/locks/tas.tpa scenarios/locks/mcs.tpa scenarios/litmus/*.tpa
t cargo run --offline --release -p tpa-check --bin tpa_runs -- diff "$LEDGER" \
    > "$SCRATCH/diff.txt"
cat "$SCRATCH/diff.txt"
grep -q '^0 regressions' "$SCRATCH/diff.txt" || { echo "ledger diff found regressions"; exit 1; }
# A deliberate thread-count change must surface as an env-fingerprint
# difference — and nothing else.
t cargo run --offline --release -p tpa-check --bin check_file -- --ledger "$LEDGER" \
    --threads 2 scenarios/locks/tas.tpa
t cargo run --offline --release -p tpa-check --bin tpa_runs -- diff "$LEDGER" \
    > "$SCRATCH/diff2.txt"
cat "$SCRATCH/diff2.txt"
grep -q 'env: threads: 1 -> 2' "$SCRATCH/diff2.txt" || { echo "thread change missing from env diff"; exit 1; }
grep -q '^0 regressions' "$SCRATCH/diff2.txt" || { echo "thread change misread as regression"; exit 1; }
# Every persisted artifact kind is schema-checked. (Glob, not
# `ls | head` — under pipefail, ls dying of SIGPIPE kills the script.)
RUN_RECORDS=("$LEDGER"/runs/*.json)
FIRST_RECORD="${RUN_RECORDS[0]}"
t cargo run --offline --release -p tpa-bench --bin obs_validate -- --record "$FIRST_RECORD"
t cargo run --offline --release -p tpa-bench --bin obs_validate -- --metrics "$SCRATCH/metrics.json"

echo "== [11/15] ledger concurrency: appenders racing readers in one process =="
time t cargo test --offline --release -q --test ledger_concurrency

echo "== [12/15] concurrent ledger: corpus writes racing a tpa_runs list loop =="
CLEDGER="$SCRATCH/ledger-concurrent"
TPA_RUNS=target/release/tpa_runs
# First pass seeds the ledger so the post-race diff has pairs to judge.
t "$TPA_RUNS" corpus scenarios/litmus --ledger "$CLEDGER" > /dev/null
# Background reader loop on the built binary — `cargo run` would
# serialize on cargo's build lock and never actually race the writer.
READER_OUT="$SCRATCH/reader.out"
READER_ERR="$SCRATCH/reader.err"
rm -f "$SCRATCH/reader.stop"
(
    while [ ! -f "$SCRATCH/reader.stop" ]; do
        "$TPA_RUNS" list "$CLEDGER" >> "$READER_OUT" 2>> "$READER_ERR" \
            || { echo failed > "$SCRATCH/reader.failed"; break; }
    done
) &
READER_PID=$!
# Second pass writes the same scenarios while the reader loops.
t "$TPA_RUNS" corpus scenarios/litmus --ledger "$CLEDGER" > /dev/null
touch "$SCRATCH/reader.stop"
wait "$READER_PID"
test ! -f "$SCRATCH/reader.failed" \
    || { echo "concurrent tpa_runs list failed:"; cat "$READER_ERR"; exit 1; }
test ! -s "$READER_ERR" \
    || { echo "concurrent tpa_runs list wrote to stderr:"; cat "$READER_ERR"; exit 1; }
test -s "$READER_OUT" || { echo "reader loop never completed a read"; exit 1; }
# Reads never count a mid-flight append as an unreadable record.
if grep -q '^warning' "$READER_OUT"; then
    echo "concurrent reader saw unreadable records:"
    grep '^warning' "$READER_OUT" | sort -u
    exit 1
fi
echo "reader loop: $(grep -c ' runs$' "$READER_OUT") clean reads during the corpus run"
# And the two racing-writer passes agree: zero regressions.
t "$TPA_RUNS" diff "$CLEDGER" > "$SCRATCH/diff-concurrent.txt"
tail -1 "$SCRATCH/diff-concurrent.txt"
grep -q '^0 regressions' "$SCRATCH/diff-concurrent.txt" \
    || { echo "concurrent ledger diff found regressions"; cat "$SCRATCH/diff-concurrent.txt"; exit 1; }

echo "== [13/15] checkpoint/resume durability (interrupt, resume, diff against control, resume a budget frontier) =="
CKPT="$SCRATCH/ckpt"
CKPT_LEDGER="$SCRATCH/ledger-ckpt"
# Uninterrupted control, ledgered.
t cargo run --offline --release -p tpa-check --bin check_file -- \
    --ledger "$CKPT_LEDGER" scenarios/locks/filter.tpa
# The same search with an already-expired deadline: every clause stops
# early (a truthful failure — the scenario expects a completed pass) and
# checkpoints into $CKPT.
if t cargo run --offline --release -p tpa-check --bin check_file -- \
    --ledger "$CKPT_LEDGER" --deadline-ms 0 --checkpoint-dir "$CKPT" \
    scenarios/locks/filter.tpa > "$SCRATCH/interrupted.txt"; then
    echo "deadline-interrupted run must exit non-zero"; exit 1
fi
cat "$SCRATCH/interrupted.txt"
RESUME_FILE="$(sed -n 's/.*checkpoint written: \(.*\) (resume with --resume)/\1/p' "$SCRATCH/interrupted.txt" | head -1)"
test -s "$RESUME_FILE" || { echo "no checkpoint written by the interrupted run"; exit 1; }
# The checkpoint is a valid, fully decodable artifact.
t cargo run --offline --release -p tpa-bench --bin obs_validate -- --checkpoint "$RESUME_FILE"
# Resume it: the matching clause picks up the frontier and completes.
t cargo run --offline --release -p tpa-check --bin check_file -- \
    --ledger "$CKPT_LEDGER" --resume "$RESUME_FILE" \
    scenarios/locks/filter.tpa > "$SCRATCH/resumed.txt"
cat "$SCRATCH/resumed.txt"
grep -q '\[resumed\]' "$SCRATCH/resumed.txt" || { echo "resumed clause not marked [resumed]"; exit 1; }
# The ledger pairs resumed-vs-control (the interrupted run is skipped as
# superseded): same verdict, same unique-state count, zero regressions.
t cargo run --offline --release -p tpa-check --bin tpa_runs -- diff "$CKPT_LEDGER" \
    > "$SCRATCH/diff-ckpt.txt"
cat "$SCRATCH/diff-ckpt.txt"
grep -q 'skipped 1 interrupted run(s) superseded by a resume' "$SCRATCH/diff-ckpt.txt" \
    || { echo "interrupted run not skipped in diff pairing"; exit 1; }
grep -q '^0 regressions' "$SCRATCH/diff-ckpt.txt" || { echo "resume diverged from control"; exit 1; }
# A 0 ms deadline checkpoints only the root. A 400-transition budget
# (a scratch copy: the committed file allows 4000000) stops mid-search
# with a frontier of nodes below the root. On 2 threads the search is in
# its verdict phase, and a verdict-phase image resumes at any thread
# count: here, on 1 thread.
sed 's/transitions 4000000/transitions 400/' scenarios/locks/filter.tpa > "$SCRATCH/filter-budget.tpa"
grep -q 'transitions 400 ' "$SCRATCH/filter-budget.tpa" || { echo "budget edit did not apply"; exit 1; }
if t cargo run --offline --release -p tpa-check --bin check_file -- --threads 2 \
    --checkpoint-dir "$SCRATCH/ckpt-budget" "$SCRATCH/filter-budget.tpa" > "$SCRATCH/budget.txt"; then
    echo "budget-interrupted run must exit non-zero"; exit 1
fi
cat "$SCRATCH/budget.txt"
BUDGET_FILE="$(sed -n 's/.*checkpoint written: \(.*\) (resume with --resume)/\1/p' "$SCRATCH/budget.txt" | head -1)"
test -s "$BUDGET_FILE" || { echo "no checkpoint written by the budget-interrupted run"; exit 1; }
t cargo run --offline --release -p tpa-bench --bin obs_validate -- --checkpoint "$BUDGET_FILE" \
    | tee "$SCRATCH/budget-ckpt.txt"
grep -Eq 'cached states, ([2-9]|[1-9][0-9]+) frontier nodes' "$SCRATCH/budget-ckpt.txt" \
    || { echo "budget checkpoint holds no frontier below the root"; exit 1; }
grep -q 'phase: verdict' "$SCRATCH/budget-ckpt.txt" \
    || { echo "a 2-thread budget checkpoint is not a verdict-phase image"; exit 1; }
# The committed file resumes it: same fingerprint, so the frontier is
# replayed and the search completes at scenarios/BASELINE.json's count.
t cargo run --offline --release -p tpa-check --bin check_file -- --threads 1 \
    --resume "$BUDGET_FILE" scenarios/locks/filter.tpa > "$SCRATCH/budget-resumed.txt"
cat "$SCRATCH/budget-resumed.txt"
grep -q '\[resumed\] (778 states' "$SCRATCH/budget-resumed.txt" \
    || { echo "budget checkpoint did not resume to 778 states"; exit 1; }
# A stale program: one comparison after the entry point edited, so the
# initial state is the same and only the fingerprint's bytecode hash
# tells the two programs apart. The resume must be refused on it.
sed 's/if v >= l goto conflict/if v > l goto conflict/' scenarios/locks/filter.tpa > "$SCRATCH/filter-stale.tpa"
grep -q 'if v > l goto conflict' "$SCRATCH/filter-stale.tpa" || { echo "stale edit did not apply"; exit 1; }
if t cargo run --offline --release -p tpa-check --bin check_file -- \
    --resume "$RESUME_FILE" "$SCRATCH/filter-stale.tpa" > "$SCRATCH/stale.txt" 2>&1; then
    cat "$SCRATCH/stale.txt"; echo "resuming against an edited program must exit non-zero"; exit 1
fi
cat "$SCRATCH/stale.txt"
grep -q 'the compiled bytecode hash differs' "$SCRATCH/stale.txt" \
    || { echo "stale resume not refused on the bytecode hash"; exit 1; }
# A differently configured clause: the same scenario with its step bound
# cut from 60 to 50 must refuse the 60-step checkpoint, naming the bound,
# not resume it under the new one.
sed 's/check tso steps 60/check tso steps 50/' scenarios/locks/filter.tpa > "$SCRATCH/filter-50.tpa"
grep -q 'check tso steps 50' "$SCRATCH/filter-50.tpa" || { echo "bound edit did not apply"; exit 1; }
if t cargo run --offline --release -p tpa-check --bin check_file -- \
    --resume "$RESUME_FILE" "$SCRATCH/filter-50.tpa" > "$SCRATCH/bound.txt" 2>&1; then
    cat "$SCRATCH/bound.txt"; echo "resuming under another step bound must exit non-zero"; exit 1
fi
cat "$SCRATCH/bound.txt"
grep -q 'matches no clause' "$SCRATCH/bound.txt" && grep -q 'max_steps' "$SCRATCH/bound.txt" \
    || { echo "a checkpoint of another step bound was not refused on max_steps"; exit 1; }
# Each clause resumes only its own checkpoint. A 0 ms deadline
# checkpoints both clauses of the MP litmus; its pso clause's checkpoint
# must be resumed by the pso clause alone, while the tso clause refuses
# it (another memory model) and runs fresh to its expected pass.
if t cargo run --offline --release -p tpa-check --bin check_file -- --deadline-ms 0 \
    --checkpoint-dir "$SCRATCH/ckpt-mp" scenarios/litmus/mp.tpa > "$SCRATCH/mp.txt"; then
    cat "$SCRATCH/mp.txt"; echo "deadline-interrupted MP run must exit non-zero"; exit 1
fi
cat "$SCRATCH/mp.txt"
PSO_FILE=""
for f in "$SCRATCH"/ckpt-mp/*.tpack; do
    t cargo run --offline --release -p tpa-bench --bin obs_validate -- --checkpoint "$f" \
        > "$SCRATCH/mp-ckpt.txt"
    if grep -q 'system: mp (n = 2, Pso)' "$SCRATCH/mp-ckpt.txt"; then
        PSO_FILE="$f"
    fi
done
test -s "$PSO_FILE" || { echo "no pso checkpoint written by the MP run"; exit 1; }
t cargo run --offline --release -p tpa-check --bin check_file -- \
    --resume "$PSO_FILE" scenarios/litmus/mp.tpa > "$SCRATCH/mp-resumed.txt"
cat "$SCRATCH/mp-resumed.txt"
grep -q '^  pso expect violation .. ok \[resumed\]' "$SCRATCH/mp-resumed.txt" \
    || { echo "the pso clause did not resume its checkpoint"; exit 1; }
[ "$(grep -c '\[resumed\]' "$SCRATCH/mp-resumed.txt")" = 1 ] \
    || { echo "a clause other than pso resumed the pso checkpoint"; exit 1; }

echo "== [14/15] benchmark package: clippy, tests, fmt, replay self-check (perf check), symmetric pins =="
PERF_MANIFEST=examples/perf/Cargo.toml
t cargo clippy --offline --manifest-path "$PERF_MANIFEST" --all-targets -- -D warnings
t cargo test --offline -q --manifest-path "$PERF_MANIFEST"
t cargo fmt --manifest-path "$PERF_MANIFEST" -- --check
t cargo run --offline --release --manifest-path "$PERF_MANIFEST" -- check
t cargo run --offline --release --manifest-path "$PERF_MANIFEST" -- \
    --workload symmetric --seconds 1 --trace 0

echo "== [15/15] cargo fmt --check =="
t cargo fmt --all -- --check

[ "$(sha256sum BENCH_check.json)" = "$BENCH_SUM" ] \
    || { echo "a stage changed BENCH_check.json"; exit 1; }
echo "smoke: all green"
