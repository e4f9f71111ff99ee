//! Experiment T2 — Corollary 2: linear adaptivity pays `Ω(log log N)`
//! fences.
//!
//! Sweeps `N = 2^8 … 2^(2^20)` (in log-space) and reports, for
//! `f(i) = c·i`, the largest `i` satisfying the Theorem 1 inequality next
//! to the paper's guaranteed feasible point `(1/3c)·log₂log₂N`. The
//! small-N prefix is cross-checked against the executable construction on
//! the adaptive splitter lock.
//!
//! Usage: `exp_t2_corollary2 [c]` (default 1).

use std::sync::Arc;

use tpa_bench::{obs, report};
use tpa_obs::Probe;

fn main() {
    let c: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let recorder = obs::probe_from_env();
    let probe: Option<Arc<dyn Probe>> = recorder.clone().map(|r| r as Arc<dyn Probe>);

    let rows = tpa_bench::t2(
        c,
        &tpa_bench::pow2s(tpa_bench::T2_JS),
        &tpa_bench::T2_CHECK_NS,
        probe.as_ref(),
    );
    report::maybe_write_json("T2", &rows, tpa_bench::CorollaryRow::json);
    obs::finish(&recorder);
}
