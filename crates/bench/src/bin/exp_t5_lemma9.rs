//! Experiment T5 — Lemma 9: the object-to-mutex reduction transfers
//! complexity up to an additive constant.
//!
//! For each of counter / queue / stack, measures the worst per-span fence
//! and RMR cost of (a) a bare ticket operation (`fetch&increment` /
//! `dequeue` / `pop`) and (b) a full passage of the Algorithm 1 one-time
//! mutex built on the object. Lemma 9 predicts a constant additive gap.
//!
//! Usage: `exp_t5_lemma9`.

use tpa_bench::{obs, report};
use tpa_obs::Probe;

fn main() {
    let recorder = obs::probe_from_env();
    if let Some(r) = &recorder {
        r.mark("exp_t5: lemma 9 reduction sweep");
    }
    let rows = tpa_bench::t5(&tpa_bench::T5_NS);
    report::maybe_write_json("T5", &rows, tpa_bench::T5Row::json);
    if let Some(r) = &recorder {
        r.mark(&format!("exp_t5: {} rows", rows.len()));
    }
    obs::finish(&recorder);
}
