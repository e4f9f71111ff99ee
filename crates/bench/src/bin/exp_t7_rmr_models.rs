//! Experiment T7 (ablation) — DSM vs CC-write-through vs CC-write-back
//! RMR accounting on identical executions.
//!
//! The paper's results hold in all three models (Section 2); the
//! simulator computes all three simultaneously, so one run prices the
//! same execution three ways. Spinning locks separate the models sharply:
//! under write-back a spin is one miss per invalidation, under
//! write-through every committed write costs an RMR, and under DSM every
//! access to a remote variable does.
//!
//! Usage: `exp_t7_rmr_models [n]` (default 32).

use tpa_bench::{obs, report};
use tpa_obs::Probe;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(32);
    let recorder = obs::probe_from_env();
    if let Some(r) = &recorder {
        r.mark(&format!("exp_t7: RMR accounting sweep, n={n}"));
    }
    let rows = tpa_bench::t7(n, &tpa_bench::T7_KS);
    report::maybe_write_json("T7", &rows, tpa_bench::T7Row::json);
    if let Some(r) = &recorder {
        r.mark(&format!("exp_t7: {} rows", rows.len()));
    }
    obs::finish(&recorder);
}
