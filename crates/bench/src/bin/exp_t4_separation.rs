//! Experiment T4 — the adaptive-vs-fence separation (Corollary 1 and the
//! Section 1/6 discussion).
//!
//! Per-passage fence and RMR costs of every simulated lock as the actual
//! contention `k` sweeps at fixed `n`, under a fair lazy-commit schedule:
//!
//! * non-adaptive constant-fence locks (bakery) keep fences flat while
//!   paying Θ(n) RMRs even solo — the price of escaping the lower bound;
//! * adaptive locks (ticketq, splitter) are cheap solo but their fences
//!   grow with `k` — the price of being adaptive;
//! * the tournament lock pays Θ(log n) of both.
//!
//! Usage: `exp_t4_separation [n]` (default 64).

use tpa_bench::{obs, report};
use tpa_obs::Probe;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    let recorder = obs::probe_from_env();
    if let Some(r) = &recorder {
        r.mark(&format!("exp_t4: contention sweep, n={n}"));
    }

    let rows = tpa_bench::t4(n, &tpa_bench::T4_KS);
    report::maybe_write_json("T4", &rows, tpa_bench::T4Row::json);
    if let Some(r) = &recorder {
        r.mark(&format!("exp_t4: {} rows", rows.len()));
    }
    obs::finish(&recorder);
}
