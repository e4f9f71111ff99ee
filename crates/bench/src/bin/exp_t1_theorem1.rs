//! Experiment T1 — Theorems 1 & 3: measured vs analytic `|Act(H_i)|`.
//!
//! Runs the construction across the algorithm portfolio and an N sweep,
//! reporting the measured active-set decay per round next to Theorem 3's
//! worst-case analytic lower bound (in `ln`; negative = vacuous), plus
//! the Theorem 1 witness: fences forced at total contention `i + 1`.
//!
//! Usage: `exp_t1_theorem1 [rounds]` (default 14).

use tpa_bench::{obs, report};
use tpa_obs::Probe;

fn main() {
    let rounds: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(14);
    let recorder = obs::probe_from_env();
    if let Some(r) = &recorder {
        r.mark(&format!("exp_t1: portfolio sweep, max_rounds={rounds}"));
    }

    let rows = tpa_bench::t1(&tpa_bench::T1_FAST_NS, &tpa_bench::T1_SLOW_NS, rounds);
    report::maybe_write_json("T1", &rows, tpa_bench::T1Row::json);
    if let Some(r) = &recorder {
        r.mark(&format!("exp_t1: {} rows", rows.len()));
    }
    obs::finish(&recorder);
}
