//! C1: explorer effort across the lock portfolio — how far the sleep-set
//! and state-cache reductions carry bounded-exhaustive verification.
//!
//! For each simulated lock at small `n` this runs the `Checker`
//! exhaustive explorer twice — through the native programs and through
//! the compiled bytecode VM (`Execution::Compiled`) — and reports
//! transitions executed, directives put to sleep, state-cache skips and
//! distinct states for both paths, as adjacent rows: the numbers behind
//! the C1 table in EXPERIMENTS.md. A final line demonstrates the verdict
//! pipeline on the deliberately broken `bakery-nofence` variant: found,
//! shrunk, sized.
//!
//! The output holds no timings, so two runs with the same flags print
//! the same bytes; the checker's speed comes from the benchmark in
//! `examples/perf`. `TPA_JSON` exports the raw rows.
//!
//! Usage: `exp_c1_explorer [--quick] [--threads N]`
//! `--quick` restricts to n = 2 and a smaller step bound; `--threads`
//! defaults to 1.

use std::sync::Arc;

use tpa_bench::{c1, obs, out, report};
use tpa_check::Verdict;
use tpa_obs::Probe;

fn main() {
    let recorder = obs::probe_from_env();
    let probe: Option<Arc<dyn Probe>> = recorder.clone().map(|r| r as Arc<dyn Probe>);
    let (quick, threads) = tpa_bench::quick_and_threads();
    let sizes: &[(usize, usize)] = if quick {
        &[(2, 40)]
    } else {
        &[(2, 60), (3, 40)]
    };

    let rows = c1::run(sizes, threads, probe.as_ref());
    report::maybe_write_json("c1_explorer", &rows, c1::CheckRow::json);

    // The negative control: a lock with a dropped fence must be caught
    // and the counterexample must shrink to a short schedule.
    let broken = tpa_algos::sim::bakery::BakeryLock::without_doorway_fence(2, 1);
    let report = tpa_bench::checker(&broken, 60, threads, probe.as_ref()).exhaustive();
    match &report.verdict {
        Verdict::Violation {
            invariant,
            found_len,
            shrunk,
            ..
        } => {
            out!(
                "\nnegative control: bakery-nofence violates {invariant}; \
                 schedule {found_len} directives, shrunk to {}",
                shrunk.len()
            );
        }
        Verdict::Pass | Verdict::Incomplete { .. } => {
            out!("\nnegative control FAILED: bakery-nofence was not caught");
            obs::finish(&recorder);
            std::process::exit(1);
        }
    }
    obs::finish(&recorder);
}
