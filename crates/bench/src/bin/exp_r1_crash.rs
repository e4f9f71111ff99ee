//! R1: the crash-fault model across the bakery variants — what a crash
//! budget of 1 does to each lock's bounded-exhaustive verification, and
//! the crash-gated negative control behind the R1 table in
//! EXPERIMENTS.md.
//!
//! For each variant (plain, recoverable, recoverable-unfenced, and `tas`
//! for a CAS-based contrast) this runs the `Checker` under the
//! crash-extended invariant battery at crash budgets 0 and 1. Budget 0
//! must reproduce the crash-free state space bit-for-bit; budget 1
//! enumerates crash directives, and the table records who survives. The
//! final lines demonstrate the crash-gated negative control: the
//! unfenced recoverable bakery passes `CrashSafeExclusion` with no
//! budget, and with budget 1 the explorer finds — and ddmin shrinks,
//! keeping the data-losing crash — a crash-induced exclusion violation.
//!
//! Usage: `exp_r1_crash [--quick] [--threads N]`
//! `--quick` lowers the step bound; `--threads` defaults to 1, where
//! every column is reproducible.

use std::sync::Arc;

use tpa_bench::{obs, out, r1, report};
use tpa_check::Verdict;
use tpa_obs::Probe;
use tpa_tso::Directive;

fn main() {
    let recorder = obs::probe_from_env();
    let probe: Option<Arc<dyn Probe>> = recorder.clone().map(|r| r as Arc<dyn Probe>);
    let (quick, threads) = tpa_bench::quick_and_threads();
    let max_steps = if quick { 28 } else { 40 };

    let rows = r1::run(2, max_steps, threads, probe.as_ref());
    report::maybe_write_json("r1_crash", &rows, r1::CrashRow::json);

    // Zero-budget rows must be complete and must not have needed the
    // fault model (sanity for the state-space-preservation claim).
    for row in rows.iter().filter(|r| r.max_crashes == 0) {
        if !row.complete {
            out!("\nR1 FAILED: zero-budget row {} hit the budget", row.algo);
            obs::finish(&recorder);
            std::process::exit(1);
        }
    }

    // The crash-gated negative control, both sides.
    let control_steps = if quick { 32 } else { 40 };
    let clean = r1::negative_control(control_steps, 0, threads, probe.as_ref());
    if !clean.verdict.passed() {
        out!("\nnegative control FAILED: crash invariant fired without a budget");
        obs::finish(&recorder);
        std::process::exit(1);
    }
    out!("\nnegative control, budget 0: crash-safe-exclusion vacuously holds (pass)");

    let caught = r1::negative_control(control_steps, 1, threads, probe.as_ref());
    match &caught.verdict {
        Verdict::Violation {
            invariant,
            found_len,
            shrunk,
            ..
        } if shrunk.iter().any(|d| matches!(d, Directive::Crash(_))) => {
            out!(
                "negative control, budget 1: bakery-rec-nofence violates {invariant}; \
                 schedule {found_len} directives, shrunk to {} (crash kept)",
                shrunk.len()
            );
        }
        other => {
            out!(
                "\nnegative control FAILED: crash-induced violation not caught and \
                 shrunk with its crash (got {other:?})"
            );
            obs::finish(&recorder);
            std::process::exit(1);
        }
    }
    obs::finish(&recorder);
}
