//! Experiment T6 — the feasibility frontier of Theorem 1.
//!
//! For each adaptivity family and a grid of `N`, the largest `i`
//! satisfying `f(i) ≤ N^(2^-f(i)) / (f(i)!·4^(f(i)+2i))` — i.e. how many
//! fences the lower bound forces on any f-adaptive algorithm. Slower
//! growth of `f` (= stronger adaptivity guarantees) ⇒ more forced fences:
//! the price of being adaptive, as one table.
//!
//! Usage: `exp_t6_frontier`.

use tpa_bench::{obs, report};
use tpa_obs::Probe;

fn main() {
    let recorder = obs::probe_from_env();
    if let Some(r) = &recorder {
        r.mark("exp_t6: feasibility frontier");
    }
    let rows = tpa_bench::t6(&tpa_bench::T6_LOG2_NS);
    report::maybe_write_json("T6", &rows, tpa_bench::T6Row::json);
    if let Some(r) = &recorder {
        r.mark(&format!("exp_t6: {} rows", rows.len()));
    }
    obs::finish(&recorder);
}
