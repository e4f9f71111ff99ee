//! C1: explorer-effort rows and table, shared by `exp_c1_explorer` and
//! `report_all`.
//!
//! For each simulated lock at small `n` this runs the exhaustive
//! explorer of a [`crate::checker`] — natively and through the compiled
//! bytecode VM (`Features::default().compiled()`), as adjacent row pairs
//! — and records transitions executed, directives put to sleep,
//! state-cache skips and distinct states. Every column is a count, so a run on one thread
//! reproduces the table exactly; the checker's speed is measured by the
//! benchmark in `examples/perf`, over repeated runs.

use std::sync::Arc;

use tpa_check::{Execution, Features, Report, WorkerStats};
use tpa_obs::json::Json;
use tpa_obs::Probe;

use crate::report::{self, num, object};

/// One row of the C1 table: one exhaustive check of one lock.
#[derive(Debug, PartialEq)]
pub struct CheckRow {
    /// Lock name, per [`tpa_tso::System::name`].
    pub algo: String,
    /// Process count the lock was instantiated for.
    pub n: usize,
    /// Schedule-length bound the explorer ran under.
    pub max_steps: usize,
    /// Worker threads the search fanned across.
    pub threads: usize,
    /// Whether the row ran the compiled bytecode (`Execution::Compiled`)
    /// instead of the native programs. Native and VM rows of the same
    /// lock walk the same state graph, so every effort counter of the
    /// pair is equal (pinned by `vm_differential.rs` and this module's
    /// tests).
    pub vm: bool,
    /// Transitions actually executed.
    pub transitions: u64,
    /// Directives skipped because they slept.
    pub pruned_sleep: u64,
    /// Visits suppressed by the state cache.
    pub cache_skips: u64,
    /// Distinct states visited.
    pub unique_states: usize,
    /// Whether the search exhausted the bounded space.
    pub complete: bool,
    /// `"pass"` or `"VIOLATION"`.
    pub verdict: &'static str,
    /// Whether the `Features::default().canonical()` rerun engaged
    /// canonical caching (false when the lock is pid-asymmetric or no
    /// rerun was made).
    pub symmetry: bool,
    /// Distinct canonical states of the symmetry rerun; equals
    /// `unique_states` when canonical caching did not engage.
    pub canonical_states: usize,
    /// Measured concrete-to-canonical state ratio
    /// (`unique_states / canonical_states`; 1.0 without engagement).
    pub sym_ratio: f64,
    /// Per-worker search counters (one entry per worker thread).
    pub workers: Vec<WorkerStats>,
}

impl CheckRow {
    /// Flattens a checker [`Report`] into a table/JSON row.
    pub fn from_report(report: &Report, n: usize, max_steps: usize) -> Self {
        CheckRow {
            algo: report.algo.clone(),
            n,
            max_steps,
            threads: report.threads,
            vm: report.vm,
            transitions: report.stats.transitions,
            pruned_sleep: report.stats.pruned_sleep,
            cache_skips: report.stats.cache_skips,
            unique_states: report.stats.unique_states,
            complete: report.stats.complete,
            verdict: if report.verdict.passed() {
                "pass"
            } else {
                "VIOLATION"
            },
            symmetry: false,
            canonical_states: report.stats.unique_states,
            sym_ratio: 1.0,
            workers: report.workers.clone(),
        }
    }

    /// Attaches the `Features::default().canonical()` rerun's
    /// measurement to this row.
    pub fn with_symmetry(mut self, sym: &Report) -> Self {
        self.symmetry = sym.symmetry;
        self.canonical_states = sym.stats.unique_states;
        self.sym_ratio = self.unique_states as f64 / sym.stats.unique_states.max(1) as f64;
        self
    }

    /// This row as a JSON object, with one object per worker under
    /// `workers`.
    pub fn json(&self) -> Json {
        object([
            ("algo", Json::Str(self.algo.clone())),
            ("n", num(self.n as f64)),
            ("max_steps", num(self.max_steps as f64)),
            ("threads", num(self.threads as f64)),
            ("vm", Json::Bool(self.vm)),
            ("transitions", num(self.transitions as f64)),
            ("pruned_sleep", num(self.pruned_sleep as f64)),
            ("cache_skips", num(self.cache_skips as f64)),
            ("unique_states", num(self.unique_states as f64)),
            ("complete", Json::Bool(self.complete)),
            ("verdict", Json::Str(self.verdict.to_owned())),
            ("symmetry", Json::Bool(self.symmetry)),
            ("canonical_states", num(self.canonical_states as f64)),
            ("sym_ratio", num(self.sym_ratio)),
            (
                "workers",
                Json::Arr(self.workers.iter().map(worker_json).collect()),
            ),
        ])
    }
}

fn worker_json(w: &WorkerStats) -> Json {
    object([
        ("worker", num(f64::from(w.worker))),
        ("nodes_expanded", num(w.nodes_expanded as f64)),
        ("transitions", num(w.transitions as f64)),
        ("cache_hits", num(w.cache_hits as f64)),
        ("cache_misses", num(w.cache_misses as f64)),
        ("sleep_prunes", num(w.sleep_prunes as f64)),
        ("donated", num(w.donated as f64)),
        ("steals", num(w.steals as f64)),
        ("max_frontier", num(f64::from(w.max_frontier))),
        ("truncated_paths", num(w.truncated_paths as f64)),
        ("max_depth", num(f64::from(w.max_depth))),
        ("cache_subsumed", num(w.cache_subsumed as f64)),
        ("sym_renamed", num(w.sym_renamed as f64)),
    ])
}

/// Runs the whole lock portfolio at each `(n, max_steps)` size, through
/// the native programs and through the compiled bytecode. Each lock
/// contributes two adjacent rows — native then VM — and each row is
/// measured twice (concretely, then with `StateKeys::Canonical`) so it also
/// carries the canonical-vs-concrete state ratio.
pub fn portfolio_rows(
    sizes: &[(usize, usize)],
    threads: usize,
    probe: Option<&Arc<dyn Probe>>,
) -> Vec<CheckRow> {
    let mut rows = Vec::new();
    for &(n, max_steps) in sizes {
        for lock in tpa_algos::all_locks(n, 1) {
            for execution in [Execution::Native, Execution::Compiled] {
                let features = Features {
                    execution,
                    ..Features::default()
                };
                let check = |features| {
                    crate::checker(lock.as_ref(), max_steps, threads, probe)
                        .features(features)
                        .exhaustive()
                };
                let report = check(features);
                let sym = check(features.canonical());
                rows.push(CheckRow::from_report(&report, n, max_steps).with_symmetry(&sym));
            }
        }
    }
    rows
}

/// C1: runs [`portfolio_rows`] and prints the C1 table.
pub fn run(
    sizes: &[(usize, usize)],
    threads: usize,
    probe: Option<&Arc<dyn Probe>>,
) -> Vec<CheckRow> {
    let rows = portfolio_rows(sizes, threads, probe);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.algo.clone(),
                r.n.to_string(),
                r.max_steps.to_string(),
                r.threads.to_string(),
                if r.vm { "vm" } else { "native" }.to_string(),
                r.transitions.to_string(),
                r.pruned_sleep.to_string(),
                r.cache_skips.to_string(),
                r.unique_states.to_string(),
                r.canonical_states.to_string(),
                if r.symmetry {
                    format!("{:.2}x", r.sym_ratio)
                } else {
                    "-".to_string()
                },
                if r.complete { "yes" } else { "budget" }.to_string(),
                r.verdict.to_string(),
            ]
        })
        .collect();
    report::print_table(
        "C1: bounded-exhaustive explorer effort (TSO, 1 passage)",
        &[
            "algo",
            "n",
            "steps",
            "thr",
            "path",
            "transitions",
            "slept",
            "cache",
            "states",
            "canonical",
            "sym",
            "complete",
            "verdict",
        ],
        &table,
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpa_obs::json::parse;

    /// A C1 row, per-worker counters included, survives a real JSON
    /// parser.
    #[test]
    fn check_rows_round_trip_through_the_parser() {
        let lock = tpa_algos::lock_by_name("tas", 2, 1).unwrap();
        let report = crate::checker(lock.as_ref(), 30, 1, None).exhaustive();
        let payload = Json::Arr(vec![CheckRow::from_report(&report, 2, 30).json()]).render();

        let v = parse(&payload).expect("row JSON must parse");
        let rows = v.as_arr().expect("rows array");
        let r = &rows[0];
        assert_eq!(r.get("algo").and_then(Json::as_str), Some("tas"));
        assert_eq!(r.get("vm").and_then(Json::as_bool), Some(false));
        // Symmetry measurement fields are always present; without a
        // `StateKeys::Canonical` rerun attached they report no reduction.
        assert_eq!(r.get("symmetry").and_then(Json::as_bool), Some(false));
        assert_eq!(r.get("sym_ratio").and_then(Json::as_num), Some(1.0));
        let workers = r.get("workers").and_then(Json::as_arr).expect("workers");
        assert_eq!(workers.len(), 1);
        assert_eq!(
            workers[0].get("transitions").and_then(Json::as_u64),
            Some(report.stats.transitions)
        );
    }

    /// `portfolio_rows` emits native/VM row pairs whose effort counters
    /// are equal, and on one thread a second call reproduces every row.
    #[test]
    fn portfolio_rows_pair_native_with_vm() {
        let rows = portfolio_rows(&[(2, 12)], 1, None);
        assert_eq!(rows.len() % 2, 0, "rows must come in native/VM pairs");
        for pair in rows.chunks(2) {
            let [native, vm] = pair else { unreachable!() };
            assert_eq!(native.algo, vm.algo);
            assert!(!native.vm, "{}: first row of a pair is native", native.algo);
            assert!(vm.vm, "{}: second row of a pair is the VM", vm.algo);
            let effort = |r: &CheckRow| {
                (
                    r.transitions,
                    r.pruned_sleep,
                    r.cache_skips,
                    r.unique_states,
                    r.canonical_states,
                )
            };
            assert_eq!(
                effort(native),
                effort(vm),
                "{}: the VM search did different work",
                native.algo
            );
        }
        assert_eq!(
            rows,
            portfolio_rows(&[(2, 12)], 1, None),
            "a 1-thread rerun changed a row"
        );
    }
}
