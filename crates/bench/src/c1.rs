//! C1: explorer-effort benchmark rows, shared by `exp_c1_explorer` and
//! `report_all`.
//!
//! For each simulated lock at small `n` this runs the [`Checker`]
//! exhaustive explorer — natively and through the compiled bytecode VM
//! (`Features::default().compiled()`), as adjacent row pairs — and records
//! transitions executed, directives put to sleep, state-cache skips,
//! distinct states, wall time, and search throughput. [`measure_speedup`]
//! reruns one instance at 1 thread and at 4 for the parallel-engine
//! record; [`vm_speedups`] derives the VM-vs-native throughput ratios;
//! [`write_bench_json`] lands everything in `BENCH_check.json` (path
//! overridable via `TPA_BENCH_JSON`).

use std::sync::Arc;

use tpa_check::{default_threads, Checker, Execution, Features, Report, StateKeys, WorkerStats};
use tpa_obs::Probe;
use tpa_tso::{MemoryModel, System};

use crate::report::{self, fmt_f64, ToJson};

/// One row of the C1 table: one exhaustive check of one lock.
pub struct CheckRow {
    /// Lock name, per [`System::name`].
    pub algo: String,
    /// Process count the lock was instantiated for.
    pub n: usize,
    /// Schedule-length bound the explorer ran under.
    pub max_steps: usize,
    /// Worker threads the search fanned across.
    pub threads: usize,
    /// Whether the row ran the compiled bytecode (`Execution::Compiled`)
    /// instead of the native programs. Native and VM rows of the same
    /// lock visit the same states (pinned by `vm_differential.rs`); only
    /// the throughput may differ.
    pub vm: bool,
    /// Transitions actually executed.
    pub transitions: u64,
    /// Directives skipped because they slept.
    pub pruned_sleep: u64,
    /// Visits suppressed by the state cache.
    pub cache_skips: u64,
    /// Distinct states visited.
    pub unique_states: usize,
    /// Wall-clock time for the whole search, in milliseconds.
    pub wall_ms: f64,
    /// Distinct states per second of wall time.
    pub states_per_sec: f64,
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
            wall_ms: report.wall.as_secs_f64() * 1e3,
            states_per_sec: report.states_per_sec(),
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
}

impl ToJson for CheckRow {
    fn to_json(&self) -> String {
        report::json_object(&[
            ("algo", self.algo.to_json()),
            ("n", self.n.to_json()),
            ("max_steps", self.max_steps.to_json()),
            ("threads", self.threads.to_json()),
            ("vm", self.vm.to_json()),
            ("transitions", self.transitions.to_json()),
            ("pruned_sleep", self.pruned_sleep.to_json()),
            ("cache_skips", self.cache_skips.to_json()),
            ("unique_states", self.unique_states.to_json()),
            ("wall_ms", self.wall_ms.to_json()),
            ("states_per_sec", self.states_per_sec.to_json()),
            ("complete", self.complete.to_json()),
            ("verdict", self.verdict.to_json()),
            ("symmetry", self.symmetry.to_json()),
            ("canonical_states", self.canonical_states.to_json()),
            ("sym_ratio", self.sym_ratio.to_json()),
            ("workers", self.workers.to_json()),
        ])
    }
}

/// The 1-thread-vs-4-thread rerun of one exhaustive instance.
pub struct SpeedupRecord {
    /// Lock name.
    pub algo: String,
    /// Process count.
    pub n: usize,
    /// Schedule-length bound.
    pub max_steps: usize,
    /// The 1-thread run.
    pub base: CheckRow,
    /// The 4-thread run.
    pub parallel: CheckRow,
    /// `base.wall / parallel.wall`.
    pub speedup: f64,
    /// What the machine could have offered ([`default_threads`]).
    pub hardware_threads: usize,
}

impl ToJson for SpeedupRecord {
    fn to_json(&self) -> String {
        report::json_object(&[
            ("algo", self.algo.to_json()),
            ("n", self.n.to_json()),
            ("max_steps", self.max_steps.to_json()),
            ("sequential", self.base.to_json()),
            ("parallel", self.parallel.to_json()),
            ("speedup", self.speedup.to_json()),
            ("hardware_threads", self.hardware_threads.to_json()),
        ])
    }
}

/// One exhaustive TSO check with the C1 budget (4M transitions). A
/// probe, if supplied, receives the run lifecycle and per-worker
/// snapshots (see `tpa_obs`).
pub fn check(
    system: &dyn System,
    max_steps: usize,
    threads: usize,
    probe: Option<&Arc<dyn Probe>>,
) -> Report {
    check_with_symmetry(system, max_steps, threads, false, probe)
}

/// [`check`], optionally requesting symmetry-reduced canonical caching.
pub fn check_with_symmetry(
    system: &dyn System,
    max_steps: usize,
    threads: usize,
    symmetry: bool,
    probe: Option<&Arc<dyn Probe>>,
) -> Report {
    check_configured(system, max_steps, threads, symmetry, false, probe)
}

/// The fully-parameterised C1 check: symmetry reduction and the bytecode
/// VM are both opt-in, everything else is the fixed C1 configuration
/// (TSO, 4M transitions).
pub fn check_configured(
    system: &dyn System,
    max_steps: usize,
    threads: usize,
    symmetry: bool,
    vm: bool,
    probe: Option<&Arc<dyn Probe>>,
) -> Report {
    let mut checker = Checker::new(system)
        .model(MemoryModel::Tso)
        .max_steps(max_steps)
        .max_transitions(4_000_000)
        .threads(threads)
        .features(Features {
            execution: if vm {
                Execution::Compiled
            } else {
                Execution::Native
            },
            keys: if symmetry {
                StateKeys::Canonical
            } else {
                StateKeys::Concrete
            },
        });
    if let Some(probe) = probe {
        checker = checker.probe(probe.clone());
    }
    if let Some(metrics) = crate::obs::env_metrics() {
        checker = checker.metrics(metrics);
    }
    checker.exhaustive()
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
            for vm in [false, true] {
                let report = check_configured(lock.as_ref(), max_steps, threads, false, vm, probe);
                let sym = check_configured(lock.as_ref(), max_steps, threads, true, vm, probe);
                rows.push(CheckRow::from_report(&report, n, max_steps).with_symmetry(&sym));
            }
        }
    }
    rows
}

/// The measured VM-vs-native throughput ratios, one per (lock, size)
/// pair of adjacent [`portfolio_rows`] rows. States-per-second is the
/// honest basis: the differential suite pins both paths to the same
/// state set, so this is purely a wall-clock ratio.
pub fn vm_speedups(rows: &[CheckRow]) -> Vec<(String, usize, f64)> {
    let mut out = Vec::new();
    for pair in rows.chunks(2) {
        let [native, vm] = pair else { continue };
        if native.vm || !vm.vm || native.algo != vm.algo {
            continue;
        }
        let ratio = if native.states_per_sec > 0.0 {
            vm.states_per_sec / native.states_per_sec
        } else {
            0.0
        };
        out.push((native.algo.clone(), native.n, ratio));
    }
    out
}

/// Reruns one lock at 1 thread and at 4 and records the ratio. On a
/// multi-core box the 4-thread run should be markedly faster; a 1-core
/// container honestly reports ~1x (the differential tests, not this
/// number, carry the determinism claim).
pub fn measure_speedup(
    algo: &str,
    n: usize,
    max_steps: usize,
    probe: Option<&Arc<dyn Probe>>,
) -> SpeedupRecord {
    let subject = tpa_algos::lock_by_name(algo, n, 1)
        .unwrap_or_else(|| panic!("unknown lock {algo:?} for the speedup rerun"));
    let seq = check(subject.as_ref(), max_steps, 1, probe);
    let par = check(subject.as_ref(), max_steps, 4, probe);
    SpeedupRecord {
        algo: seq.algo.clone(),
        n,
        max_steps,
        speedup: seq.wall.as_secs_f64() / par.wall.as_secs_f64().max(1e-9),
        base: CheckRow::from_report(&seq, n, max_steps),
        parallel: CheckRow::from_report(&par, n, max_steps),
        hardware_threads: default_threads(),
    }
}

/// Prints the aligned C1 table.
pub fn print_table(title: &str, rows: &[CheckRow]) {
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
                format!("{:.1}", r.wall_ms),
                fmt_f64(r.states_per_sec),
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
        title,
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
            "wall ms",
            "states/s",
            "canonical",
            "sym",
            "complete",
            "verdict",
        ],
        &table,
    );
}

/// Writes the machine-readable benchmark record to `BENCH_check.json`
/// (or the `TPA_BENCH_JSON` override) and announces the speedup line.
pub fn write_bench_json(threads: usize, rows: &[CheckRow], speedup: &SpeedupRecord) {
    println!(
        "\nspeedup: {} n={} — {:.1} ms at 1 thread, {:.1} ms at 4 threads \
         ({:.2}x, {} hardware threads)",
        speedup.algo,
        speedup.n,
        speedup.base.wall_ms,
        speedup.parallel.wall_ms,
        speedup.speedup,
        speedup.hardware_threads,
    );
    let path = std::env::var("TPA_BENCH_JSON").unwrap_or_else(|_| "BENCH_check.json".to_owned());
    let payload = bench_json_payload(threads, rows, speedup);
    report::write_json_file("c1_explorer", &path, &payload);
}

/// Renders the `BENCH_check.json` document (split out so tests can
/// round-trip it without touching the filesystem).
pub fn bench_json_payload(threads: usize, rows: &[CheckRow], speedup: &SpeedupRecord) -> String {
    report::json_object(&[
        ("experiment", "c1_explorer".to_json()),
        ("threads", threads.to_json()),
        ("rows", rows.to_json()),
        ("speedup", speedup.to_json()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpa_obs::json::{parse, Json};

    /// The bench record must survive a real JSON parser — including the
    /// degenerate zero-wall case, where `states_per_sec` must serialise
    /// as a finite number (not `inf`/`NaN`, which JSON cannot express).
    #[test]
    fn bench_json_round_trips_through_the_parser() {
        let lock = tpa_algos::lock_by_name("tas", 2, 1).unwrap();
        let mut report = check(lock.as_ref(), 30, 1, None);
        report.wall = std::time::Duration::ZERO;
        let row = CheckRow::from_report(&report, 2, 30);
        let speedup = SpeedupRecord {
            algo: row.algo.clone(),
            n: 2,
            max_steps: 30,
            speedup: 1.0,
            base: CheckRow::from_report(&report, 2, 30),
            parallel: CheckRow::from_report(&report, 2, 30),
            hardware_threads: default_threads(),
        };
        let payload = bench_json_payload(1, &[row], &speedup);

        let v = parse(&payload).expect("bench JSON must parse");
        assert_eq!(
            v.get("experiment").and_then(Json::as_str),
            Some("c1_explorer")
        );
        let rows = v.get("rows").and_then(Json::as_arr).expect("rows array");
        let r = &rows[0];
        assert_eq!(r.get("algo").and_then(Json::as_str), Some("tas"));
        assert_eq!(r.get("vm").and_then(Json::as_bool), Some(false));
        // Symmetry measurement fields are always present; without a
        // `StateKeys::Canonical` rerun attached they report no reduction.
        assert_eq!(r.get("symmetry").and_then(Json::as_bool), Some(false));
        assert_eq!(r.get("sym_ratio").and_then(Json::as_num), Some(1.0));
        assert_eq!(r.get("states_per_sec").and_then(Json::as_num), Some(0.0));
        assert_eq!(r.get("wall_ms").and_then(Json::as_num), Some(0.0));
        // The per-worker breakdown survives with its counters intact.
        let workers = r.get("workers").and_then(Json::as_arr).expect("workers");
        assert_eq!(workers.len(), 1);
        assert_eq!(
            workers[0].get("transitions").and_then(Json::as_u64),
            Some(report.stats.transitions)
        );
        assert!(v.get("speedup").and_then(|s| s.get("parallel")).is_some());
    }

    /// `portfolio_rows` emits native/VM row pairs and `vm_speedups`
    /// pairs them back up; the two paths agree on the state count.
    #[test]
    fn portfolio_rows_pair_native_with_vm() {
        let rows = portfolio_rows(&[(2, 12)], 1, None);
        assert_eq!(rows.len() % 2, 0, "rows must come in native/VM pairs");
        for pair in rows.chunks(2) {
            let [native, vm] = pair else { unreachable!() };
            assert_eq!(native.algo, vm.algo);
            assert!(!native.vm, "{}: first row of a pair is native", native.algo);
            assert!(vm.vm, "{}: second row of a pair is the VM", vm.algo);
            assert_eq!(
                native.unique_states, vm.unique_states,
                "{}: the VM search visited a different state set",
                native.algo
            );
            assert_eq!(
                native.canonical_states, vm.canonical_states,
                "{}",
                native.algo
            );
        }
        let speedups = vm_speedups(&rows);
        assert_eq!(speedups.len(), rows.len() / 2);
        for (algo, n, ratio) in &speedups {
            assert_eq!(*n, 2);
            assert!(*ratio > 0.0, "{algo}: degenerate VM speedup ratio");
        }
    }
}
