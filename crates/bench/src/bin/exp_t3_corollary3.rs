//! Experiment T3 — Corollary 3: exponential adaptivity pays
//! `Ω(log log log N)` fences.
//!
//! Same sweep as T2 for `f(i) = 2^(c·i)`, against the guaranteed point
//! `(1/c)·(log₂log₂log₂N − 1)`.
//!
//! Usage: `exp_t3_corollary3 [c]` (default 1).

use tpa_bench::{obs, report};
use tpa_obs::Probe;

fn main() {
    let c: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let recorder = obs::probe_from_env();
    if let Some(r) = &recorder {
        r.mark(&format!("exp_t3: analytic sweep, c={c}"));
    }

    let rows = tpa_bench::t3(c, &tpa_bench::pow2s(tpa_bench::T3_JS));
    report::maybe_write_json("T3", &rows, tpa_bench::CorollaryRow::json);
    if let Some(r) = &recorder {
        r.mark(&format!("exp_t3: {} rows", rows.len()));
    }
    obs::finish(&recorder);
}
