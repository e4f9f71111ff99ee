//! Runs every simulator-side experiment at report scale and emits all
//! tables in one pass (the data behind EXPERIMENTS.md). Each experiment
//! prints the tables its own binary prints, through the same function;
//! only the sizes are report_all's. Hardware numbers (H1) come from
//! `cargo bench -p tpa-bench` separately.
//!
//! Usage: `report_all [--quick]`
//! `--quick` shrinks the sweeps for CI-style smoke runs. C1 and R1 run
//! on one thread, where every column they print is reproducible.

use std::sync::Arc;

use tpa_bench::{c1, out, pow2s, r1};
use tpa_obs::Probe;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let recorder = tpa_bench::obs::probe_from_env();
    let probe: Option<Arc<dyn Probe>> = recorder.clone().map(|r| r as Arc<dyn Probe>);

    let f1_n = if quick { 64 } else { 256 };
    if let Some(p) = &probe {
        p.mark(&format!("report_all: F1 tournament n={f1_n}"));
    }
    tpa_bench::f1("tournament", f1_n, 10, probe.clone()).expect("tournament is registered");

    if quick {
        tpa_bench::t1(&[64, 256], &[16, 64], 14);
    } else {
        tpa_bench::t1(&[64, 256, 1024], &[16, 64, 128], 14);
    }

    let log2_ns = pow2s(3..=if quick { 12 } else { 20 });
    let check_ns: &[usize] = if quick {
        &[16, 64]
    } else {
        &tpa_bench::T2_CHECK_NS
    };
    tpa_bench::t2(1.0, &log2_ns, check_ns, probe.as_ref());
    tpa_bench::t3(1.0, &log2_ns);

    let n = if quick { 16 } else { 64 };
    tpa_bench::t4(n, &[1, 4, 16, 64]);
    tpa_bench::t5(if quick { &[1, 4] } else { &[1, 4, 16] });
    tpa_bench::t6(if quick {
        &[16.0, 1024.0]
    } else {
        &[16.0, 1024.0, 65_536.0, 1_048_576.0]
    });
    tpa_bench::t7(n, &[1, n.min(16)]);

    let c1_sizes: &[(usize, usize)] = if quick {
        &[(2, 40)]
    } else {
        &[(2, 60), (3, 40)]
    };
    c1::run(c1_sizes, 1, probe.as_ref());
    r1::run(2, if quick { 28 } else { 40 }, 1, probe.as_ref());

    tpa_bench::obs::finish(&recorder);
    out!("\nall simulator experiments complete; run `cargo bench -p tpa-bench` for H1.");
}
