//! # tpa-bench — experiment harnesses
//!
//! Each experiment of EXPERIMENTS.md has one home here: its row structs,
//! its sweep and the function that runs it and prints its tables. The
//! `exp_*` binaries parse their arguments and call that function;
//! `report_all` calls every one of them at its own, smaller sizes. The
//! experiments regenerate every figure/table-equivalent of the paper:
//!
//! | id | paper artifact | function | binary |
//! |---|---|---|---|
//! | F1 | Figure 1 — structure of the inductive construction | [`f1`] | `exp_f1_construction` |
//! | T1 | Theorems 1 & 3 — measured vs analytic `Act(H_i)` decay | [`t1`] | `exp_t1_theorem1` |
//! | T2 | Corollary 2 — `Ω(log log N)` fences for linear adaptivity | [`t2`] | `exp_t2_corollary2` |
//! | T3 | Corollary 3 — `Ω(log log log N)` for exponential adaptivity | [`t3`] | `exp_t3_corollary3` |
//! | T4 | Corollary 1 / Section 6 — the adaptive-vs-fence separation | [`t4`] | `exp_t4_separation` |
//! | T5 | Lemma 9 — object-to-mutex reduction cost transfer | [`t5`] | `exp_t5_lemma9` |
//! | T6 | Theorem 1 — the feasibility frontier across f-families | [`t6`] | `exp_t6_frontier` |
//! | T7 | Section 2 — DSM vs CC-WT vs CC-WB RMR accounting | [`t7`] | `exp_t7_rmr_models` |
//! | C1 | checker cross-validation — explorer effort, native vs VM, symmetry | [`c1::run`] | `exp_c1_explorer` |
//! | R1 | crash-fault model — crash budgets across the bakery variants | [`r1::run`] | `exp_r1_crash` |
//!
//! Each binary prints aligned tables and, when the `TPA_JSON`
//! environment variable names a path, writes the raw rows as a
//! [`tpa_obs::json`] array ([`report::maybe_write_json`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod c1;
pub mod experiments;
pub mod obs;
pub mod r1;
pub mod report;

use std::sync::Arc;

use tpa_check::Checker;
use tpa_obs::Probe;
use tpa_tso::{MemoryModel, System};

pub use experiments::*;

/// The checker every C1 and R1 search starts from: TSO, `max_steps`, a
/// budget of 4M transitions, `threads` workers, the probe if one is
/// given, and the `TPA_OBS_METRICS` registry ([`obs::env_metrics`]) when
/// that variable is set. Callers add features, an invariant battery or a
/// crash budget on top.
pub fn checker<'a>(
    system: &'a dyn System,
    max_steps: usize,
    threads: usize,
    probe: Option<&Arc<dyn Probe>>,
) -> Checker<'a> {
    let mut checker = Checker::new(system)
        .model(MemoryModel::Tso)
        .max_steps(max_steps)
        .max_transitions(4_000_000)
        .threads(threads);
    if let Some(probe) = probe {
        checker = checker.probe(probe.clone());
    }
    if let Some(metrics) = obs::env_metrics() {
        checker = checker.metrics(metrics);
    }
    checker
}

/// The `--quick` flag and the `--threads N` worker count (default 1) of
/// the checker experiments' command lines.
///
/// # Panics
///
/// Panics if the value after `--threads` is not an integer.
pub fn quick_and_threads() -> (bool, usize) {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--threads takes a positive integer"))
        .unwrap_or(1)
        .max(1);
    (quick, threads)
}
