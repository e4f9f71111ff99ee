//! Runs every simulator-side experiment at report scale and emits all
//! tables in one pass (the data behind EXPERIMENTS.md). Hardware numbers
//! (H1) come from `cargo bench -p tpa-bench` separately.
//!
//! Usage: `report_all [--quick]`
//! `--quick` shrinks the sweeps for CI-style smoke runs.

use std::sync::Arc;

use tpa_bench::report::{self, fmt_f64};
use tpa_obs::Probe;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let recorder = tpa_bench::obs::probe_from_env();
    let probe: Option<Arc<dyn Probe>> = recorder.clone().map(|r| r as Arc<dyn Probe>);

    // F1.
    let (f1_algo, f1_n) = if quick {
        ("tournament", 64)
    } else {
        ("tournament", 256)
    };
    if let Some(p) = &probe {
        p.mark(&format!("report_all: F1 {f1_algo} n={f1_n}"));
    }
    let out =
        tpa_bench::construction_outcome_probed(f1_algo, f1_n, 10, true, probe.clone()).unwrap();
    let rows: Vec<Vec<String>> = out
        .rounds
        .iter()
        .map(|r| {
            vec![
                r.round.to_string(),
                r.read_iters.to_string(),
                r.write_iters.to_string(),
                r.reg_criticals.to_string(),
                r.criticals_per_active.to_string(),
                r.act_start.to_string(),
                r.act_end.to_string(),
            ]
        })
        .collect();
    report::print_table(
        &format!("F1: {f1_algo} n={f1_n} — per-round H_i summary"),
        &["i", "s", "t", "m", "l_i", "|Act| start", "|Act| end"],
        &rows,
    );

    // T1 witnesses.
    let (fast_ns, slow_ns): (&[usize], &[usize]) = if quick {
        (&[64, 256], &[16, 64])
    } else {
        (&[64, 256, 1024], &[16, 64, 128])
    };
    let mut t1 = tpa_bench::t1_rows(&["tournament", "splitter", "ticketq", "mcs"], fast_ns, 14);
    t1.extend(tpa_bench::t1_rows(
        &["bakery", "filter", "onebit", "dijkstra"],
        slow_ns,
        14,
    ));
    let mut seen: Vec<(String, usize)> = Vec::new();
    let mut rows = Vec::new();
    for r in &t1 {
        let key = (r.algo.clone(), r.n);
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let forced = t1
            .iter()
            .filter(|x| x.algo == r.algo && x.n == r.n)
            .take_while(|x| x.act_measured >= 1)
            .count();
        rows.push(vec![r.algo.clone(), r.n.to_string(), forced.to_string()]);
    }
    report::print_table(
        "T1: Theorem 1 witnesses (fences forced)",
        &["algo", "N", "forced"],
        &rows,
    );

    // T2 / T3.
    let log2_ns: Vec<f64> = (3..=if quick { 12 } else { 20 })
        .map(|j| (1u64 << j) as f64)
        .collect();
    let t2 = tpa_bench::t2_rows(1.0, &log2_ns);
    let rows: Vec<Vec<String>> = t2
        .iter()
        .map(|r| {
            vec![
                format!("2^{}", r.log2_n),
                fmt_f64(r.loglog),
                r.max_feasible_i.to_string(),
                fmt_f64(r.guaranteed_point),
            ]
        })
        .collect();
    report::print_table(
        "T2: Corollary 2 (f = i)",
        &["N", "loglog", "max i", "(1/3)loglog"],
        &rows,
    );

    let t3 = tpa_bench::t3_rows(1.0, &log2_ns);
    let rows: Vec<Vec<String>> = t3
        .iter()
        .map(|r| {
            vec![
                format!("2^{}", r.log2_n),
                fmt_f64(r.loglog),
                r.max_feasible_i.to_string(),
                fmt_f64(r.guaranteed_point),
            ]
        })
        .collect();
    report::print_table(
        "T3: Corollary 3 (f = 2^i)",
        &["N", "llln", "max i", "(llln-1)"],
        &rows,
    );

    // T4.
    let n = if quick { 16 } else { 64 };
    let ks: Vec<usize> = [1usize, 4, 16, 64]
        .iter()
        .copied()
        .filter(|k| *k <= n)
        .collect();
    let t4 = tpa_bench::t4_rows(
        &[
            "tas",
            "ttas",
            "ticketq",
            "mcs",
            "bakery",
            "filter",
            "onebit",
            "tournament",
            "dijkstra",
            "splitter",
        ],
        n,
        &ks,
    );
    let rows: Vec<Vec<String>> = t4
        .iter()
        .map(|r| {
            vec![
                r.algo.clone(),
                r.k.to_string(),
                r.fences_max.to_string(),
                r.rmr_dsm_max.to_string(),
                r.rmr_wb_max.to_string(),
                r.point_contention.to_string(),
            ]
        })
        .collect();
    report::print_table(
        &format!("T4: separation at n = {n}"),
        &["algo", "k", "fences", "RMR dsm", "RMR wb", "point"],
        &rows,
    );

    // T5.
    let t5 = tpa_bench::t5_rows(if quick { &[1, 4] } else { &[1, 4, 16] });
    let rows: Vec<Vec<String>> = t5
        .iter()
        .map(|r| {
            vec![
                r.object.clone(),
                r.n.to_string(),
                r.bare_fences.to_string(),
                r.mutex_fences.to_string(),
                r.fence_gap.to_string(),
                r.rmr_gap.to_string(),
            ]
        })
        .collect();
    report::print_table(
        "T5: Lemma 9 gaps",
        &[
            "object",
            "N",
            "op fences",
            "mutex fences",
            "fence gap",
            "RMR gap",
        ],
        &rows,
    );

    // T6.
    let grid: Vec<f64> = if quick {
        vec![16.0, 1024.0]
    } else {
        vec![16.0, 1024.0, 65_536.0, 1_048_576.0]
    };
    let t6 = tpa_bench::t6_rows(&grid);
    let rows: Vec<Vec<String>> = t6
        .iter()
        .map(|r| {
            vec![
                r.family.clone(),
                format!("2^{}", r.log2_n),
                r.max_feasible_i.to_string(),
            ]
        })
        .collect();
    report::print_table("T6: adaptivity frontier", &["family", "N", "max i"], &rows);

    // T7.
    let t7 = tpa_bench::t7_rows(
        &[
            "tas",
            "ttas",
            "ticketq",
            "mcs",
            "bakery",
            "filter",
            "onebit",
            "tournament",
            "dijkstra",
            "splitter",
        ],
        n,
        &[1, n.min(16)],
    );
    let rows: Vec<Vec<String>> = t7
        .iter()
        .map(|r| {
            vec![
                r.algo.clone(),
                r.k.to_string(),
                r.rmr_dsm.to_string(),
                r.rmr_wt.to_string(),
                r.rmr_wb.to_string(),
            ]
        })
        .collect();
    report::print_table(
        "T7: RMR models",
        &["algo", "k", "DSM", "CC-WT", "CC-WB"],
        &rows,
    );

    // C1: the checker cross-validation, parallel across what the machine
    // has. Also emits the BENCH_check.json benchmark record.
    let threads = tpa_check::default_threads();
    let sizes: &[(usize, usize)] = if quick {
        &[(2, 40)]
    } else {
        &[(2, 60), (3, 40)]
    };
    let c1 = tpa_bench::c1::portfolio_rows(sizes, threads, probe.as_ref());
    tpa_bench::c1::print_table(&format!("C1: explorer effort ({threads} threads)"), &c1);
    let (sp_n, sp_steps) = if quick { (2, 40) } else { (3, 40) };
    let speedup = tpa_bench::c1::measure_speedup("tas", sp_n, sp_steps, probe.as_ref());
    tpa_bench::c1::write_bench_json(threads, &c1, &speedup);

    // R1: the crash-fault model across the bakery variants.
    let r1_steps = if quick { 28 } else { 40 };
    let r1 = tpa_bench::r1::portfolio_rows(2, r1_steps, threads, probe.as_ref());
    tpa_bench::r1::print_table(
        &format!("R1: crash-fault model (n = 2, {threads} threads)"),
        &r1,
    );

    tpa_bench::obs::finish(&recorder);
    println!("\nall simulator experiments complete; run `cargo bench -p tpa-bench` for H1.");
}
