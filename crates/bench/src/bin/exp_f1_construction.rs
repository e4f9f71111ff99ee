//! Experiment F1 — Figure 1: the structure of one inductive step.
//!
//! Prints the phase-by-phase trace of the adversarial construction (read
//! iterations, write iterations, regularization) with the active-set size
//! after every step — the executable rendering of the paper's Figure 1.
//!
//! Usage: `exp_f1_construction [algo] [n] [rounds]`
//! (defaults: tournament 256 8).

use std::sync::Arc;

use tpa_bench::{obs, report};
use tpa_obs::Probe;

fn main() {
    let mut args = std::env::args().skip(1);
    let algo = args.next().unwrap_or_else(|| "tournament".into());
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(256);
    let rounds: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(8);

    let recorder = obs::probe_from_env();
    let probe: Option<Arc<dyn Probe>> = recorder.clone().map(|r| r as Arc<dyn Probe>);
    let out = match tpa_bench::f1(&algo, n, rounds, probe) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            obs::finish(&recorder);
            std::process::exit(1);
        }
    };
    report::maybe_write_json("F1", &out.rounds, tpa_bench::round_json);
    obs::finish(&recorder);
}
