//! The construction and theory experiments F1 and T1–T7. Each one keeps
//! its rows, its lock or family list and its tables here: the `*_rows`
//! function computes the rows, and the function named after the
//! experiment runs them and prints its tables, for its `exp_*` binary
//! and for `report_all` alike.

use std::ops::RangeInclusive;
use std::sync::Arc;

use tpa_adversary::{bounds, Adaptivity, Config, Construction, Outcome, RoundTrace};
use tpa_algos::lock_by_name;
use tpa_objects::lemma9::{self, TicketObject};
use tpa_obs::json::Json;
use tpa_obs::Probe;
use tpa_tso::machine::NextEvent;
use tpa_tso::{Counters, Directive, Machine, ProcId, System};

use crate::out;
use crate::report::{fmt_f64, num, object, print_table};

/// Every simulated lock, in the row order of the T4 and T7 tables.
pub const PORTFOLIO: [&str; 10] = [
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
];

/// Runs the adversarial construction for a named lock, with an optional
/// telemetry probe attached: round/phase/erasure events, the end-of-run
/// passage histograms, and the stop-reason mark (per-step simulator
/// events stay off — a construction executes millions of them).
///
/// # Errors
///
/// Returns a description for unknown locks or initialisation failures.
pub fn construction_outcome(
    algo: &str,
    n: usize,
    max_rounds: usize,
    check_invariants: bool,
    probe: Option<Arc<dyn Probe>>,
) -> Result<Outcome, String> {
    let lock = lock_by_name(algo, n, 1).ok_or_else(|| format!("unknown lock `{algo}`"))?;
    // With invariant checking we also use the slow replay-validated
    // erasure (maximum fidelity); sweeps use the differentially-tested
    // fast backend.
    let cfg = Config {
        max_rounds,
        check_invariants,
        fast_erasure: !check_invariants,
        ..Config::default()
    };
    let mut construction = Construction::new(&lock, cfg).map_err(|e| e.to_string())?;
    if let Some(probe) = probe {
        construction.attach_probe(probe, false);
    }
    Ok(construction.run())
}

/// F1: runs the construction with invariant checking and prints its
/// outcome, the phase-by-phase trace (Figure 1) and the per-round
/// summary.
///
/// # Errors
///
/// As [`construction_outcome`].
pub fn f1(
    algo: &str,
    n: usize,
    rounds: usize,
    probe: Option<Arc<dyn Probe>>,
) -> Result<Outcome, String> {
    let out = construction_outcome(algo, n, rounds, true, probe)?;
    out!(
        "algorithm: {} | n = {} | stop: {}",
        out.algorithm,
        out.n,
        out.stop
    );
    out!(
        "rounds completed: {} | fences forced: {} | final contention: {} | blocked erased: {}",
        out.rounds_completed(),
        out.fences_forced(),
        out.total_contention,
        out.blocked_erased
    );
    let phases: Vec<Vec<String>> = out
        .phases
        .iter()
        .map(|p| {
            vec![
                p.round.to_string(),
                p.label.clone(),
                p.case_taken.clone(),
                p.act_before.to_string(),
                p.act_after.to_string(),
            ]
        })
        .collect();
    print_table(
        "F1: inductive construction trace (Figure 1)",
        &["round", "phase", "case", "|Act| before", "|Act| after"],
        &phases,
    );
    let rounds: Vec<Vec<String>> = out
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
                r.finisher.to_string(),
            ]
        })
        .collect();
    print_table(
        "F1: per-round summary (H_i conditions)",
        &[
            "i",
            "s (read)",
            "t (write)",
            "m (reg)",
            "l_i",
            "|Act| start",
            "|Act| end",
            "finisher",
        ],
        &rounds,
    );
    Ok(out)
}

/// One F1 round as a JSON row.
pub fn round_json(r: &RoundTrace) -> Json {
    object([
        ("round", num(r.round as f64)),
        ("read_iters", num(r.read_iters as f64)),
        ("write_iters", num(r.write_iters as f64)),
        ("reg_criticals", num(r.reg_criticals as f64)),
        ("act_start", num(r.act_start as f64)),
        ("act_end", num(r.act_end as f64)),
        ("criticals_per_active", num(r.criticals_per_active as f64)),
        ("finisher", num(f64::from(r.finisher.0))),
    ])
}

/// One row of the T1 table: a construction round against Theorem 3.
#[derive(Clone, Debug)]
pub struct T1Row {
    /// Algorithm name.
    pub algo: String,
    /// Processes.
    pub n: usize,
    /// Induction round (`H_round`).
    pub round: usize,
    /// Measured `|Act|` at the end of the round.
    pub act_measured: usize,
    /// `ln` of Theorem 3's worst-case lower bound on `|Act(H_i)|` given
    /// the measured `ℓ_i` (negative ⇒ the bound is vacuous at this size).
    pub theorem3_ln_bound: f64,
    /// Measured `ℓ_i` (critical events per active process).
    pub criticals_per_active: u64,
    /// Read-phase iterations (`s`).
    pub read_iters: usize,
    /// Write-phase iterations (`t`).
    pub write_iters: usize,
    /// Regularization criticals (`m`).
    pub reg_criticals: usize,
}

impl T1Row {
    /// This row as a JSON object.
    pub fn json(&self) -> Json {
        object([
            ("algo", Json::Str(self.algo.clone())),
            ("n", num(self.n as f64)),
            ("round", num(self.round as f64)),
            ("act_measured", num(self.act_measured as f64)),
            ("theorem3_ln_bound", num(self.theorem3_ln_bound)),
            (
                "criticals_per_active",
                num(self.criticals_per_active as f64),
            ),
            ("read_iters", num(self.read_iters as f64)),
            ("write_iters", num(self.write_iters as f64)),
            ("reg_criticals", num(self.reg_criticals as f64)),
        ])
    }
}

/// T1: run the construction per algorithm × N and compare the measured
/// active-set decay with the Theorem 3 analytic bound.
pub fn t1_rows(algos: &[&str], ns: &[usize], max_rounds: usize) -> Vec<T1Row> {
    let mut rows = Vec::new();
    for algo in algos {
        for &n in ns {
            let Ok(out) = construction_outcome(algo, n, max_rounds, false, None) else {
                continue;
            };
            let ln_n = (n as f64).ln();
            for r in &out.rounds {
                rows.push(T1Row {
                    algo: (*algo).to_owned(),
                    n,
                    round: r.round,
                    act_measured: r.act_end,
                    theorem3_ln_bound: bounds::theorem3_act_ln(
                        ln_n,
                        r.criticals_per_active as f64,
                        r.round as f64,
                    ),
                    criticals_per_active: r.criticals_per_active,
                    read_iters: r.read_iters,
                    write_iters: r.write_iters,
                    reg_criticals: r.reg_criticals,
                });
            }
        }
    }
    rows
}

/// T1's locks: the construction is O(n²) on the scan-based ones, so they
/// run on their own, smaller N grid.
const T1_FAST: [&str; 5] = ["tournament", "splitter", "ticketq", "mcs", "ttas"];
const T1_SLOW: [&str; 5] = ["bakery", "filter", "onebit", "dijkstra", "tas"];

/// T1's full N grids, for the fast locks and for the scan-based ones.
pub const T1_FAST_NS: [usize; 4] = [64, 256, 1024, 4096];
/// See [`T1_FAST_NS`].
pub const T1_SLOW_NS: [usize; 3] = [16, 64, 256];

/// T1: the construction on the fast locks at `fast_ns` and on the
/// scan-based ones at `slow_ns`, printed per round against Theorem 3 and
/// summarised as the Theorem 1 witness (fences forced) per lock and N.
pub fn t1(fast_ns: &[usize], slow_ns: &[usize], rounds: usize) -> Vec<T1Row> {
    let sweep = [(&T1_FAST, fast_ns), (&T1_SLOW, slow_ns)];
    let rows: Vec<T1Row> = sweep
        .iter()
        .flat_map(|(algos, ns)| t1_rows(&algos[..], ns, rounds))
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.algo.clone(),
                r.n.to_string(),
                r.round.to_string(),
                r.act_measured.to_string(),
                fmt_f64(r.theorem3_ln_bound),
                r.criticals_per_active.to_string(),
                r.read_iters.to_string(),
                r.write_iters.to_string(),
                r.reg_criticals.to_string(),
            ]
        })
        .collect();
    print_table(
        "T1: construction vs Theorem 3 (ln bound < 0 means vacuous at this N)",
        &[
            "algo",
            "N",
            "i",
            "|Act(H_i)|",
            "ln bound",
            "l_i",
            "s",
            "t",
            "m",
        ],
        &table,
    );
    // Every (lock, N) of the sweep gets a row: a construction that
    // completes no round has no rows above and forced no fence.
    let summary: Vec<Vec<String>> = sweep
        .iter()
        .flat_map(|(algos, ns)| {
            algos
                .iter()
                .flat_map(move |a| ns.iter().map(move |&n| (*a, n)))
        })
        .map(|(algo, n)| {
            let forced = rows
                .iter()
                .filter(|r| r.algo == algo && r.n == n)
                .take_while(|r| r.act_measured >= 1)
                .count();
            vec![algo.to_owned(), n.to_string(), forced.to_string()]
        })
        .collect();
    print_table(
        "T1: Theorem 1 witnesses — fences forced in a single passage",
        &["algo", "N", "fences forced (contention = fences + 1)"],
        &summary,
    );
    rows
}

/// One row of the T2/T3 corollary sweeps.
#[derive(Clone, Debug)]
pub struct CorollaryRow {
    /// `log₂ N`.
    pub log2_n: f64,
    /// `log₂ log₂ N` (T2's x-axis) — for T3 read `log₂ log₂ log₂ N`.
    pub loglog: f64,
    /// Largest feasible `i` per the Theorem 1 inequality.
    pub max_feasible_i: u64,
    /// The paper's guaranteed feasible point
    /// (`(1/3c)·loglog N` resp. `(1/c)(logloglog N − 1)`).
    pub guaranteed_point: f64,
}

impl CorollaryRow {
    /// This row as a JSON object.
    pub fn json(&self) -> Json {
        object([
            ("log2_n", num(self.log2_n)),
            ("loglog", num(self.loglog)),
            ("max_feasible_i", num(self.max_feasible_i as f64)),
            ("guaranteed_point", num(self.guaranteed_point)),
        ])
    }
}

/// `log₂ N = 2^j` for each `j`: the N grids of the corollary sweeps.
pub fn pow2s(js: impl IntoIterator<Item = u32>) -> Vec<f64> {
    js.into_iter().map(|j| (1u64 << j) as f64).collect()
}

/// T2's full sweep, as the `j` of `log₂ N = 2^j`, and the N of its
/// construction cross-check.
pub const T2_JS: RangeInclusive<u32> = 3..=20;
/// See [`T2_JS`].
pub const T2_CHECK_NS: [usize; 4] = [16, 64, 256, 1024];

/// T2: the Corollary 2 sweep for linear adaptivity `f(i) = c·i`.
pub fn t2_rows(c: f64, log2_ns: &[f64]) -> Vec<CorollaryRow> {
    log2_ns
        .iter()
        .map(|&log2_n| {
            let ln_n = bounds::ln_of_pow2(log2_n);
            CorollaryRow {
                log2_n,
                loglog: log2_n.log2(),
                max_feasible_i: bounds::max_feasible_i(ln_n, Adaptivity::Linear { c }, 1 << 22),
                guaranteed_point: bounds::corollary2_point(ln_n, c),
            }
        })
        .collect()
}

/// T2: prints the Corollary 2 sweep over `log2_ns`, then cross-checks
/// the small-N end against the construction on the adaptive splitter
/// lock at each of `check_ns`.
pub fn t2(
    c: f64,
    log2_ns: &[f64],
    check_ns: &[usize],
    probe: Option<&Arc<dyn Probe>>,
) -> Vec<CorollaryRow> {
    let rows = t2_rows(c, log2_ns);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("2^{}", r.log2_n),
                fmt_f64(r.loglog),
                r.max_feasible_i.to_string(),
                fmt_f64(r.guaranteed_point),
                fmt_f64(r.max_feasible_i as f64 / r.loglog),
            ]
        })
        .collect();
    print_table(
        &format!("T2: Corollary 2 — f(i) = {c}·i forces Ω(log log N) fences"),
        &[
            "N",
            "log2 log2 N",
            "max feasible i",
            "(1/3c)·loglog",
            "i / loglog",
        ],
        &table,
    );

    // The construction on a real adaptive read/write lock lives in the
    // same regime as the analytic frontier.
    let mut check = Vec::new();
    for &n in check_ns {
        if let Some(p) = probe {
            p.mark(&format!("exp_t2: cross-check splitter n={n}"));
        }
        if let Ok(out) = construction_outcome("splitter", n, 12, false, probe.cloned()) {
            let analytic = bounds::max_feasible_i((n as f64).ln(), Adaptivity::Linear { c }, 64);
            check.push(vec![
                n.to_string(),
                out.fences_forced().to_string(),
                analytic.to_string(),
            ]);
        }
    }
    print_table(
        "T2: small-N cross-check (construction on the splitter lock)",
        &["N", "fences forced (measured)", "analytic frontier"],
        &check,
    );
    rows
}

/// T3: the Corollary 3 sweep for exponential adaptivity `f(i) = 2^(c·i)`.
pub fn t3_rows(c: f64, log2_ns: &[f64]) -> Vec<CorollaryRow> {
    log2_ns
        .iter()
        .map(|&log2_n| {
            let ln_n = bounds::ln_of_pow2(log2_n);
            CorollaryRow {
                log2_n,
                loglog: log2_n.log2().log2(),
                max_feasible_i: bounds::max_feasible_i(
                    ln_n,
                    Adaptivity::Exponential { c },
                    1 << 22,
                ),
                guaranteed_point: bounds::corollary3_point(ln_n, c),
            }
        })
        .collect()
}

/// T3's full sweep, as the `j` of `log₂ N = 2^j`: each step of `j` adds
/// one to `log log N`, so the triple log crawls — the separation from T2.
pub const T3_JS: [u32; 19] = [
    3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31, 33, 35, 37, 39,
];

/// T3: prints the Corollary 3 sweep over `log2_ns`.
pub fn t3(c: f64, log2_ns: &[f64]) -> Vec<CorollaryRow> {
    let rows = t3_rows(c, log2_ns);
    let table: Vec<Vec<String>> = rows
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
    print_table(
        &format!("T3: Corollary 3 — f(i) = 2^({c}·i) forces Ω(log log log N) fences"),
        &["N", "log2 log2 log2 N", "max feasible i", "(1/c)(llln - 1)"],
        &table,
    );
    rows
}

/// One row of the T4 separation table.
#[derive(Clone, Debug)]
pub struct T4Row {
    /// Algorithm name.
    pub algo: String,
    /// Total processes the instance is built for.
    pub n: usize,
    /// Contention: how many processes actually run.
    pub k: usize,
    /// Worst per-passage fence count across the k participants.
    pub fences_max: u64,
    /// Mean per-passage fence count.
    pub fences_avg: f64,
    /// Worst per-passage DSM RMRs.
    pub rmr_dsm_max: u64,
    /// Worst per-passage CC write-back RMRs.
    pub rmr_wb_max: u64,
    /// Measured maximum point contention across the passages (the
    /// paper's strongest contention gauge; see `tpa_tso::analysis`).
    pub point_contention: usize,
    /// Measured maximum interval contention across the passages.
    pub interval_contention: usize,
}

impl T4Row {
    /// This row as a JSON object.
    pub fn json(&self) -> Json {
        object([
            ("algo", Json::Str(self.algo.clone())),
            ("n", num(self.n as f64)),
            ("k", num(self.k as f64)),
            ("fences_max", num(self.fences_max as f64)),
            ("fences_avg", num(self.fences_avg)),
            ("rmr_dsm_max", num(self.rmr_dsm_max as f64)),
            ("rmr_wb_max", num(self.rmr_wb_max as f64)),
            ("point_contention", num(self.point_contention as f64)),
            ("interval_contention", num(self.interval_contention as f64)),
        ])
    }
}

/// Drives processes `0..k` of a system round-robin (lazy commits) until
/// each completes `passages` passages; processes `k..n` never run, so the
/// total contention is exactly `k`.
///
/// # Errors
///
/// Returns a description if the budget is exhausted or a step fails.
pub fn run_contention_subset(
    system: &dyn System,
    k: usize,
    passages: usize,
    max_steps: usize,
) -> Result<Machine, String> {
    let mut machine = Machine::new(&system);
    let mut steps = 0;
    loop {
        let mut done = true;
        for i in 0..k {
            let p = ProcId(i as u32);
            if machine.passages_completed(p) >= passages
                || machine.peek_next(p) == NextEvent::Halted
            {
                continue;
            }
            done = false;
            if steps >= max_steps {
                return Err(format!("budget exhausted after {steps} steps"));
            }
            machine
                .step(Directive::Issue(p))
                .map_err(|e| e.to_string())?;
            steps += 1;
        }
        if done {
            return Ok(machine);
        }
    }
}

/// Runs each of `algos` (built for `n` processes) once at each contention
/// `k ≤ n` in `ks`, one passage per participant, and makes a row of each
/// finished machine; a lock that is unknown or exhausts the step budget
/// contributes no row. T4 and T7 price these same executions.
fn contention_sweep<R>(
    algos: &[&str],
    n: usize,
    ks: &[usize],
    row: impl Fn(&str, usize, &Machine) -> R,
) -> Vec<R> {
    let mut rows = Vec::new();
    for algo in algos {
        for &k in ks.iter().filter(|&&k| k <= n) {
            let Some(lock) = lock_by_name(algo, n, 1) else {
                continue;
            };
            let Ok(machine) = run_contention_subset(lock.as_ref(), k, 1, 30_000_000) else {
                continue;
            };
            rows.push(row(algo, k, &machine));
        }
    }
    rows
}

/// The cost counters of every passage processes `0..k` completed.
fn passages(machine: &Machine, k: usize) -> impl Iterator<Item = &Counters> {
    (0..k).flat_map(move |i| {
        let completed = &machine.metrics().proc(ProcId(i as u32)).completed;
        completed.iter().map(|span| &span.counters)
    })
}

/// T4: per-algorithm per-passage costs as contention `k` sweeps at fixed
/// `n` — the adaptive-vs-fence separation table.
pub fn t4_rows(algos: &[&str], n: usize, ks: &[usize]) -> Vec<T4Row> {
    contention_sweep(algos, n, ks, |algo, k, machine| {
        let mut fences_max = 0u64;
        let mut fences_sum = 0u64;
        let mut rmr_dsm_max = 0u64;
        let mut rmr_wb_max = 0u64;
        let mut count = 0u64;
        for c in passages(machine, k) {
            fences_max = fences_max.max(c.fences);
            fences_sum += c.fences;
            rmr_dsm_max = rmr_dsm_max.max(c.rmr_dsm);
            rmr_wb_max = rmr_wb_max.max(c.rmr_wb);
            count += 1;
        }
        let mut point_contention = 0;
        let mut interval_contention = 0;
        for (_, c) in tpa_tso::analysis::contention(machine.log()) {
            point_contention = point_contention.max(c.point);
            interval_contention = interval_contention.max(c.interval);
        }
        T4Row {
            algo: algo.to_owned(),
            n,
            k,
            fences_max,
            fences_avg: fences_sum as f64 / count.max(1) as f64,
            rmr_dsm_max,
            rmr_wb_max,
            point_contention,
            interval_contention,
        }
    })
}

/// T4's full sweep of contentions (those above `n` are skipped).
pub const T4_KS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// T4: prints the separation table of the [`PORTFOLIO`] at `n` processes
/// over the contentions `ks`.
pub fn t4(n: usize, ks: &[usize]) -> Vec<T4Row> {
    let rows = t4_rows(&PORTFOLIO, n, ks);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.algo.clone(),
                r.k.to_string(),
                r.fences_max.to_string(),
                fmt_f64(r.fences_avg),
                r.rmr_dsm_max.to_string(),
                r.rmr_wb_max.to_string(),
                r.point_contention.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("T4: per-passage complexity vs contention k (n = {n}, lazy commits)"),
        &[
            "algo",
            "k",
            "fences max",
            "fences avg",
            "RMR dsm max",
            "RMR wb max",
            "point cont.",
        ],
        &table,
    );
    rows
}

/// One row of the T5 (Lemma 9) table.
#[derive(Clone, Debug)]
pub struct T5Row {
    /// Backing object.
    pub object: String,
    /// Processes (= tickets).
    pub n: usize,
    /// Worst fences of a bare ticket operation.
    pub bare_fences: u64,
    /// Worst fences of a full reduction passage.
    pub mutex_fences: u64,
    /// Additive fence gap (Lemma 9 bounds this by a constant).
    pub fence_gap: i64,
    /// Worst DSM RMRs of a bare operation.
    pub bare_rmr: u64,
    /// Worst DSM RMRs of a reduction passage.
    pub mutex_rmr: u64,
    /// Additive RMR gap.
    pub rmr_gap: i64,
}

impl T5Row {
    /// This row as a JSON object.
    pub fn json(&self) -> Json {
        object([
            ("object", Json::Str(self.object.clone())),
            ("n", num(self.n as f64)),
            ("bare_fences", num(self.bare_fences as f64)),
            ("mutex_fences", num(self.mutex_fences as f64)),
            ("fence_gap", num(self.fence_gap as f64)),
            ("bare_rmr", num(self.bare_rmr as f64)),
            ("mutex_rmr", num(self.mutex_rmr as f64)),
            ("rmr_gap", num(self.rmr_gap as f64)),
        ])
    }
}

/// T5: the Lemma 9 cost-transfer table over all three objects.
pub fn t5_rows(ns: &[usize]) -> Vec<T5Row> {
    let mut rows = Vec::new();
    for object in TicketObject::ALL {
        for &n in ns {
            let Ok(row) = lemma9::measure(object, n) else {
                continue;
            };
            rows.push(T5Row {
                object: object.name().to_owned(),
                n,
                bare_fences: row.bare.fences,
                mutex_fences: row.mutex.fences,
                fence_gap: row.fence_gap(),
                bare_rmr: row.bare.rmr_dsm,
                mutex_rmr: row.mutex.rmr_dsm,
                rmr_gap: row.rmr_gap(),
            });
        }
    }
    rows
}

/// T5's full sweep of ticket counts.
pub const T5_NS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// T5: prints the Lemma 9 table at each of `ns` tickets.
pub fn t5(ns: &[usize]) -> Vec<T5Row> {
    let rows = t5_rows(ns);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.object.clone(),
                r.n.to_string(),
                r.bare_fences.to_string(),
                r.mutex_fences.to_string(),
                r.fence_gap.to_string(),
                r.bare_rmr.to_string(),
                r.mutex_rmr.to_string(),
                r.rmr_gap.to_string(),
            ]
        })
        .collect();
    print_table(
        "T5: Lemma 9 — bare object op vs Algorithm 1 passage (worst case per span)",
        &[
            "object",
            "N",
            "op fences",
            "mutex fences",
            "gap",
            "op RMR",
            "mutex RMR",
            "RMR gap",
        ],
        &table,
    );
    rows
}

/// One row of the T6 feasibility frontier.
#[derive(Clone, Debug)]
pub struct T6Row {
    /// Adaptivity family description.
    pub family: String,
    /// `log₂ N`.
    pub log2_n: f64,
    /// Largest feasible `i` (fences the lower bound forces).
    pub max_feasible_i: u64,
}

impl T6Row {
    /// This row as a JSON object.
    pub fn json(&self) -> Json {
        object([
            ("family", Json::Str(self.family.clone())),
            ("log2_n", num(self.log2_n)),
            ("max_feasible_i", num(self.max_feasible_i as f64)),
        ])
    }
}

/// T6: the feasibility frontier across adaptivity families × N grid.
pub fn t6_rows(log2_ns: &[f64]) -> Vec<T6Row> {
    let families: Vec<(String, Adaptivity)> = vec![
        ("f(k)=1·k".into(), Adaptivity::Linear { c: 1.0 }),
        ("f(k)=4·k".into(), Adaptivity::Linear { c: 4.0 }),
        ("f(k)=1·k^2".into(), Adaptivity::Poly { c: 1.0, a: 2.0 }),
        ("f(k)=2^(1·k)".into(), Adaptivity::Exponential { c: 1.0 }),
        ("f(k)=2·log2(k+1)".into(), Adaptivity::Log { c: 2.0 }),
        ("f(k)=8".into(), Adaptivity::Constant(8.0)),
    ];
    let mut rows = Vec::new();
    for (name, f) in &families {
        for &log2_n in log2_ns {
            let ln_n = bounds::ln_of_pow2(log2_n);
            rows.push(T6Row {
                family: name.clone(),
                log2_n,
                max_feasible_i: bounds::max_feasible_i(ln_n, *f, 1 << 22),
            });
        }
    }
    rows
}

/// T6's full N grid, as `log₂ N`.
pub const T6_LOG2_NS: [f64; 8] = [
    8.0,
    16.0,
    64.0,
    256.0,
    1024.0,
    4096.0,
    65_536.0,
    1_048_576.0,
];

/// T6: prints the frontier over `log2_ns` as one line per family and one
/// column per N.
pub fn t6(log2_ns: &[f64]) -> Vec<T6Row> {
    let rows = t6_rows(log2_ns);
    let table: Vec<Vec<String>> = rows
        .chunk_by(|a, b| a.family == b.family)
        .map(|family| {
            let mut line = vec![family[0].family.clone()];
            line.extend(family.iter().map(|r| r.max_feasible_i.to_string()));
            line
        })
        .collect();
    let mut headers = vec!["adaptivity".to_owned()];
    headers.extend(log2_ns.iter().map(|l| format!("N=2^{l}")));
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(
        "T6: forced fences across the adaptivity landscape",
        &headers,
        &table,
    );
    rows
}

/// One row of the T7 RMR-accounting comparison.
#[derive(Clone, Debug)]
pub struct T7Row {
    /// Algorithm name.
    pub algo: String,
    /// Contention.
    pub k: usize,
    /// Worst per-passage RMRs under the DSM model.
    pub rmr_dsm: u64,
    /// Worst per-passage RMRs under CC write-through.
    pub rmr_wt: u64,
    /// Worst per-passage RMRs under CC write-back.
    pub rmr_wb: u64,
    /// Worst per-passage events, for scale.
    pub events: u64,
}

impl T7Row {
    /// This row as a JSON object.
    pub fn json(&self) -> Json {
        object([
            ("algo", Json::Str(self.algo.clone())),
            ("k", num(self.k as f64)),
            ("rmr_dsm", num(self.rmr_dsm as f64)),
            ("rmr_wt", num(self.rmr_wt as f64)),
            ("rmr_wb", num(self.rmr_wb as f64)),
            ("events", num(self.events as f64)),
        ])
    }
}

/// T7 (ablation): how the three RMR accounting models the paper covers
/// (DSM, CC write-through, CC write-back) price the same executions.
pub fn t7_rows(algos: &[&str], n: usize, ks: &[usize]) -> Vec<T7Row> {
    contention_sweep(algos, n, ks, |algo, k, machine| {
        let mut row = T7Row {
            algo: algo.to_owned(),
            k,
            rmr_dsm: 0,
            rmr_wt: 0,
            rmr_wb: 0,
            events: 0,
        };
        for c in passages(machine, k) {
            row.rmr_dsm = row.rmr_dsm.max(c.rmr_dsm);
            row.rmr_wt = row.rmr_wt.max(c.rmr_wt);
            row.rmr_wb = row.rmr_wb.max(c.rmr_wb);
            row.events = row.events.max(c.events);
        }
        row
    })
}

/// T7's full sweep of contentions (those above `n` are skipped).
pub const T7_KS: [usize; 4] = [1, 4, 16, 32];

/// T7: prints the three models' worst per-passage RMRs for the
/// [`PORTFOLIO`] at `n` processes over the contentions `ks`.
pub fn t7(n: usize, ks: &[usize]) -> Vec<T7Row> {
    let rows = t7_rows(&PORTFOLIO, n, ks);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.algo.clone(),
                r.k.to_string(),
                r.rmr_dsm.to_string(),
                r.rmr_wt.to_string(),
                r.rmr_wb.to_string(),
                r.events.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("T7: worst per-passage RMRs under the three accounting models (n = {n})"),
        &["algo", "k", "DSM", "CC-WT", "CC-WB", "events"],
        &table,
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t1_produces_rows_for_the_tournament() {
        let rows = t1_rows(&["tournament"], &[32], 8);
        assert!(!rows.is_empty());
        assert!(rows.iter().all(|r| r.algo == "tournament"));
        // ℓ_i grows round over round.
        for w in rows.windows(2) {
            assert!(w[1].criticals_per_active >= w[0].criticals_per_active);
        }
    }

    #[test]
    fn t2_grows_with_n() {
        let rows = t2_rows(1.0, &[64.0, 4096.0]);
        assert!(rows[1].max_feasible_i > rows[0].max_feasible_i);
        for r in &rows {
            assert!(r.max_feasible_i as f64 >= r.guaranteed_point.floor());
        }
    }

    #[test]
    fn t4_contention_subset_runs_exactly_k() {
        let lock = lock_by_name("bakery", 8, 1).unwrap();
        let m = run_contention_subset(lock.as_ref(), 3, 1, 1_000_000).unwrap();
        for i in 0..3u32 {
            assert_eq!(m.passages_completed(ProcId(i)), 1);
        }
        for i in 3..8u32 {
            assert_eq!(m.passages_completed(ProcId(i)), 0);
        }
    }

    #[test]
    fn t4_separation_shape() {
        // The adaptive ticket lock's fences grow with k; bakery's stay
        // constant.
        let rows = t4_rows(&["ticketq", "bakery"], 16, &[1, 8]);
        let get = |algo: &str, k: usize| {
            rows.iter()
                .find(|r| r.algo == algo && r.k == k)
                .unwrap()
                .fences_max
        };
        assert!(get("ticketq", 8) > get("ticketq", 1));
        assert_eq!(get("bakery", 8), get("bakery", 1));
    }

    #[test]
    fn t5_gaps_are_constant() {
        for row in t5_rows(&[1, 4]) {
            assert!(row.fence_gap >= 0 && row.fence_gap <= 6, "{row:?}");
        }
    }

    #[test]
    fn t6_orders_families_sanely() {
        let rows = t6_rows(&[65_536.0]);
        let get = |fam: &str| {
            rows.iter()
                .find(|r| r.family == fam)
                .unwrap()
                .max_feasible_i
        };
        // Slower-growing adaptivity functions admit more forced fences.
        assert!(get("f(k)=2·log2(k+1)") >= get("f(k)=1·k"));
        assert!(get("f(k)=1·k") >= get("f(k)=1·k^2"));
        assert!(get("f(k)=1·k^2") >= get("f(k)=2^(1·k)"));
    }
}
