//! C1: explorer effort across the lock portfolio — how far the sleep-set
//! and state-cache reductions carry bounded-exhaustive verification, and
//! what the work-distributing parallel engine buys on top.
//!
//! For each simulated lock at small `n` this runs the `Checker`
//! exhaustive explorer twice — through the native programs and through
//! the compiled bytecode VM (`Execution::Compiled`) — and reports
//! transitions executed, directives put to sleep, state-cache skips,
//! distinct states, wall time, and search throughput for both paths, as
//! adjacent rows: the numbers behind the C1 table in EXPERIMENTS.md. A
//! 1-thread-vs-4-thread rerun of one instance records the parallel
//! speedup, a per-lock line records the VM-vs-native throughput ratio,
//! and a final line demonstrates the verdict pipeline on the
//! deliberately broken `bakery-nofence` variant: found, shrunk, sized.
//!
//! The machine-readable record lands in `BENCH_check.json` (override the
//! path with `TPA_BENCH_JSON`); `TPA_JSON` still exports the raw rows.
//!
//! Usage: `exp_c1_explorer [--quick] [--threads N]`
//! `--quick` restricts to n = 2 and a smaller step bound; `--threads`
//! defaults to everything the machine has.

use std::sync::Arc;

use tpa_bench::{c1, obs, report};
use tpa_check::{default_threads, Verdict};
use tpa_obs::Probe;

fn main() {
    let recorder = obs::probe_from_env();
    let probe: Option<Arc<dyn Probe>> = recorder.clone().map(|r| r as Arc<dyn Probe>);
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--threads takes a positive integer"))
        .unwrap_or_else(default_threads)
        .max(1);
    let sizes: &[(usize, usize)] = if quick {
        &[(2, 40)]
    } else {
        &[(2, 60), (3, 40)]
    };

    let rows = c1::portfolio_rows(sizes, threads, probe.as_ref());
    c1::print_table(
        "C1: bounded-exhaustive explorer effort (TSO, 1 passage)",
        &rows,
    );
    report::maybe_write_json("c1_explorer", rows.as_slice());

    println!("\nVM-vs-native search throughput (states/s ratio, same state set):");
    for (algo, n, ratio) in c1::vm_speedups(&rows) {
        println!("  {algo:<16} n={n}  {ratio:.2}x");
    }

    let (speedup_n, speedup_steps) = if quick { (2, 40) } else { (3, 40) };
    let speedup = c1::measure_speedup("tas", speedup_n, speedup_steps, probe.as_ref());
    c1::write_bench_json(threads, &rows, &speedup);

    // The negative control: a lock with a dropped fence must be caught
    // and the counterexample must shrink to a short schedule.
    let broken = tpa_algos::sim::bakery::BakeryLock::without_doorway_fence(2, 1);
    let report = c1::check(&broken, 60, threads, probe.as_ref());
    match &report.verdict {
        Verdict::Violation {
            invariant,
            found_len,
            shrunk,
            ..
        } => {
            println!(
                "\nnegative control: bakery-nofence violates {invariant}; \
                 schedule {found_len} directives, shrunk to {}",
                shrunk.len()
            );
        }
        Verdict::Pass | Verdict::Incomplete { .. } => {
            println!("\nnegative control FAILED: bakery-nofence was not caught");
            obs::finish(&recorder);
            std::process::exit(1);
        }
    }
    obs::finish(&recorder);
}
