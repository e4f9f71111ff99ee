//! The five workloads, how one pass of each runs, and the outputs every
//! check must reproduce.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use tpa_algos::LockSystem;
use tpa_check::{run_checks, Checker, Features, Report, StateKeys, Verdict};
use tpa_dsl::{Check, CompiledScenario, Expect};
use tpa_obs::json::{self, Json};
use tpa_tso::sched::XorShift;
use tpa_tso::{MemoryModel, System};

use crate::stats::{median, Metric, Outcome};

/// The scenario corpus, and the verdicts and state counts it must keep.
const SCENARIOS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
const BASELINE: &str = include_str!("../../../scenarios/BASELINE.json");
/// Pinned verdicts and counts for the lock checks.
const EXPECTED: &str = include_str!("../expected.json");

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Portfolio,
    Symmetric,
    Swarm,
    Corpus,
    Parallel,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Portfolio,
        Workload::Symmetric,
        Workload::Swarm,
        Workload::Corpus,
        Workload::Parallel,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Portfolio => "portfolio",
            Workload::Symmetric => "symmetric",
            Workload::Swarm => "swarm",
            Workload::Corpus => "corpus",
            Workload::Parallel => "parallel",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The checks one pass runs. Sizes are chosen so a pass takes
    /// seconds (see README.md); each workload stresses different layers.
    pub fn jobs(self) -> Result<Vec<Job>, String> {
        let locks = |n| tpa_algos::all_locks(n, 1).into_iter();
        Ok(match self {
            Workload::Portfolio => locks(3)
                .map(|lock| Job::exhaustive(lock, 60, Features::default(), 1))
                .collect(),
            Workload::Symmetric => locks(4)
                .filter(|lock| lock.symmetric())
                .map(|lock| Job::exhaustive(lock, 30, Features::full(), 1))
                .collect(),
            Workload::Swarm => locks(5).map(Job::swarm).collect(),
            Workload::Corpus => corpus_jobs()?,
            Workload::Parallel => locks(3)
                .filter(|lock| ["splitter", "filter", "dijkstra"].contains(&lock.name()))
                .map(|lock| Job::exhaustive(lock, 60, Features::default(), 2))
                .collect(),
        })
    }
}

/// Schedules per swarm check.
pub const SWARM_SCHEDULES: usize = 2000;

/// One unit of a pass.
pub struct Job {
    /// The key of its pinned outputs: `lock/nN/sSTEPS/features`, a
    /// swarm id, or a corpus path relative to the repository root.
    pub id: String,
    pub kind: Kind,
}

pub enum Kind {
    Exhaustive {
        lock: LockSystem,
        max_steps: usize,
        features: Features,
        threads: usize,
    },
    Swarm {
        lock: LockSystem,
    },
    Scenario {
        src: String,
    },
}

/// One checker verdict of a pass.
pub struct Checked {
    /// The job id, with `#clause` appended for corpus clauses.
    pub id: String,
    pub report: Report,
    /// Whether a corpus clause met its `expect` (always true otherwise).
    pub clause_ok: bool,
}

impl Job {
    pub fn swarm(lock: LockSystem) -> Job {
        Job {
            id: format!("{}/n{}/swarm{SWARM_SCHEDULES}", lock.name(), lock.n()),
            kind: Kind::Swarm { lock },
        }
    }

    pub fn exhaustive(
        lock: LockSystem,
        max_steps: usize,
        features: Features,
        threads: usize,
    ) -> Job {
        let tag = if features == Features::full() {
            "full"
        } else {
            "native"
        };
        Job {
            id: format!("{}/n{}/s{max_steps}/{tag}", lock.name(), lock.n()),
            kind: Kind::Exhaustive {
                lock,
                max_steps,
                features,
                threads,
            },
        }
    }

    /// Runs the job once, as a user would.
    pub fn run(&self, seed: u64) -> Result<Vec<Checked>, String> {
        Ok(match &self.kind {
            Kind::Exhaustive {
                lock,
                max_steps,
                features,
                threads,
            } => vec![self
                .checked(exhaustive(lock.as_ref(), *max_steps, *features, *threads).exhaustive())],
            Kind::Swarm { lock } => {
                vec![self.checked(swarm(lock.as_ref(), seed).swarm(SWARM_SCHEDULES))]
            }
            Kind::Scenario { src } => {
                let scenario = tpa_dsl::compile_named(src, &self.id)?;
                run_checks(&scenario, 1)
                    .into_iter()
                    .enumerate()
                    .map(|(i, o)| Checked {
                        id: format!("{}#{i}", self.id),
                        report: o.report,
                        clause_ok: o.ok,
                    })
                    .collect()
            }
        })
    }

    /// A lock check's verdict, under this job's id.
    pub fn checked(&self, report: Report) -> Checked {
        Checked {
            id: self.id.clone(),
            report,
            clause_ok: true,
        }
    }

    /// The checker's set-up for this job: the same `Checker` chain with
    /// a zero transition budget, which compiles, validates symmetry and
    /// fingerprints, then stops at the first transition. A corpus job
    /// also compiles its DSL source.
    pub fn setup(&self, seed: u64) -> Result<(), String> {
        match &self.kind {
            Kind::Exhaustive {
                lock,
                max_steps,
                features,
                threads,
            } => {
                exhaustive(lock.as_ref(), *max_steps, *features, *threads)
                    .max_transitions(0)
                    .exhaustive();
            }
            Kind::Swarm { lock } => {
                swarm(lock.as_ref(), seed).swarm(0);
            }
            Kind::Scenario { src } => {
                let scenario = tpa_dsl::compile_named(src, &self.id)?;
                for clause in clauses(&scenario) {
                    clause_checker(&scenario, &clause)
                        .max_transitions(0)
                        .exhaustive();
                }
            }
        }
        Ok(())
    }

    /// Median wall time of one [`Job::setup`]; see [`median_secs`].
    pub fn setup_secs(&self, seed: u64) -> Result<f64, String> {
        median_secs(|| self.setup(seed))
    }
}

/// Median wall time of one call of `f`, so sub-millisecond set-ups still
/// give a steady number. Each sample times a batch of calls lasting at
/// least 10 µs, which keeps the clock's own cost out of it; there are at
/// least 11 samples and, up to 1000, enough for 20 ms. The cap keeps the
/// sample buffer, and so the process's peak memory, independent of how
/// fast the machine is.
pub fn median_secs(mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut fastest = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        f()?;
        fastest = fastest.min(t0.elapsed().as_secs_f64());
    }
    let batch = (10e-6 / fastest).ceil().clamp(1.0, 1000.0) as usize;
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < 11 || (start.elapsed().as_secs_f64() < 0.02 && times.len() < 1000) {
        let t0 = Instant::now();
        for _ in 0..batch {
            f()?;
        }
        times.push(t0.elapsed().as_secs_f64() / batch as f64);
    }
    Ok(median(&mut times))
}

pub fn exhaustive(
    lock: &dyn System,
    max_steps: usize,
    features: Features,
    threads: usize,
) -> Checker<'_> {
    Checker::new(lock)
        .model(MemoryModel::Tso)
        .max_steps(max_steps)
        .features(features)
        .threads(threads)
}

pub fn swarm(lock: &dyn System, seed: u64) -> Checker<'_> {
    Checker::new(lock).model(MemoryModel::Tso).seed(seed)
}

/// A scenario's clauses, with the implicit `check tso expect pass` that
/// `run_checks` adds to a scenario without any.
pub fn clauses(scenario: &CompiledScenario) -> Vec<Check> {
    if scenario.checks.is_empty() {
        vec![Check {
            model: MemoryModel::Tso,
            steps: None,
            crashes: 0,
            transitions: None,
            expect: Expect::Pass,
        }]
    } else {
        scenario.checks.clone()
    }
}

/// The checker `run_checks` builds for one clause at one thread.
pub fn clause_checker<'a>(scenario: &'a CompiledScenario, clause: &Check) -> Checker<'a> {
    let keys = if scenario.symmetric {
        StateKeys::Canonical
    } else {
        StateKeys::Concrete
    };
    let mut checker = Checker::new(&scenario.system)
        .model(clause.model)
        .threads(1)
        .max_crashes(clause.crashes)
        .features(Features {
            keys,
            ..Features::default()
        })
        .invariants(tpa_check::battery(scenario, clause.crashes));
    if let Some(steps) = clause.steps {
        checker = checker.max_steps(steps);
    }
    if let Some(budget) = clause.transitions {
        checker = checker.max_transitions(budget);
    }
    checker
}

/// Every `.tpa` file under `scenarios/`, in path order.
fn corpus_jobs() -> Result<Vec<Job>, String> {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> Result<(), String> {
        let entries =
            std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        for entry in entries {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.is_dir() {
                walk(&path, out)?;
            } else if path.extension().is_some_and(|x| x == "tpa") {
                out.push(path);
            }
        }
        Ok(())
    }
    let root = Path::new(SCENARIOS);
    let mut paths = Vec::new();
    walk(root, &mut paths)?;
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let src = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let rel = path
                .strip_prefix(root)
                .expect("walked from the corpus root");
            Ok(Job {
                id: format!("scenarios/{}", rel.display()),
                kind: Kind::Scenario { src },
            })
        })
        .collect()
}

fn verdict_name(v: &Verdict) -> &'static str {
    match v {
        Verdict::Pass => "pass",
        Verdict::Violation { .. } => "violation",
        Verdict::Incomplete { .. } => "incomplete",
    }
}

/// The outputs each check must reproduce.
pub struct Expected {
    pins: Json,
    baseline: Json,
}

impl Expected {
    pub fn load() -> Result<Expected, String> {
        Ok(Expected {
            pins: json::parse(EXPECTED).map_err(|e| format!("expected.json: {e}"))?,
            baseline: json::parse(BASELINE).map_err(|e| format!("BASELINE.json: {e}"))?,
        })
    }

    /// Compares one verdict with its pin: verdict, `complete` and the
    /// state count for exhaustive checks and corpus clauses (which must
    /// also meet their `expect`), verdict and — at seed 1 — transitions
    /// for swarm checks.
    pub fn verify(&self, c: &Checked, seed: u64) -> Result<(), String> {
        let stats = &c.report.stats;
        if !c.clause_ok {
            return Err(format!(
                "{}: verdict does not meet the clause's expect",
                c.id
            ));
        }
        let (pin, fields) = if c.report.mode == "swarm" {
            let transitions = Json::Num(stats.transitions as f64);
            let fields = if seed == 1 {
                vec![("transitions_at_seed_1", transitions)]
            } else {
                Vec::new()
            };
            (self.pin("swarm", &c.id)?, fields)
        } else {
            let pin = match c.id.split_once('#') {
                Some((path, clause)) => self
                    .baseline
                    .get("scenarios")
                    .and_then(|s| s.get(path))
                    .and_then(|s| s.get("clauses"))
                    .and_then(Json::as_arr)
                    .and_then(|cl| cl.get(clause.parse::<usize>().ok()?))
                    .ok_or_else(|| format!("{}: not in BASELINE.json", c.id))?,
                None => self.pin("exhaustive", &c.id)?,
            };
            let fields = vec![
                ("complete", Json::Bool(stats.complete)),
                ("unique_states", Json::Num(stats.unique_states as f64)),
            ];
            (pin, fields)
        };
        let mut wrong = Vec::new();
        let verdict = Json::Str(verdict_name(&c.report.verdict).to_owned());
        for (key, got) in std::iter::once(("verdict", verdict)).chain(fields) {
            let want = pin.get(key).cloned().unwrap_or(Json::Null);
            if want != got {
                wrong.push(format!("{key} {} (want {})", got.render(), want.render()));
            }
        }
        if wrong.is_empty() {
            Ok(())
        } else {
            Err(format!("{}: {}", c.id, wrong.join(", ")))
        }
    }

    fn pin(&self, kind: &str, id: &str) -> Result<&Json, String> {
        self.pins
            .get(kind)
            .and_then(|m| m.get(id))
            .ok_or_else(|| format!("{id}: no pin in expected.json"))
    }
}

/// The generator of a run's check orders.
pub fn order_rng(seed: u64) -> XorShift {
    XorShift::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
}

/// Returns `0..n` in an order drawn from `rng`.
pub fn shuffled(n: usize, rng: &mut XorShift) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// The peak resident set of this process, from `VmHWM`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Starts a new peak: the kernel resets `VmHWM` to the current
/// resident set. Where that is not allowed the peak stays cumulative,
/// which is still a peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// One check's measurements, one entry per pass.
#[derive(Default)]
struct Samples {
    wall: Vec<f64>,
    search: Vec<f64>,
    states: Vec<f64>,
    transitions: Vec<f64>,
}

/// Runs `w` as a closed loop, one check after another, until `seconds`
/// have passed (at least one pass), and reports the end-to-end metrics.
/// Each pass runs the checks in an order drawn from `seed`.
///
/// Each metric combines per-check medians over the passes, so a burst
/// of contention from outside that slows one check in one pass does not
/// move it; peak memory is the median of the passes' peaks.
pub fn measure(w: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let jobs = w.jobs()?;
    let expected = Expected::load()?;
    let mut setup = 0.0;
    for job in &jobs {
        setup += job.setup_secs(seed)?;
    }
    let mut rng = order_rng(seed);
    let mut out = Outcome::default();
    let mut samples: Vec<Samples> = jobs.iter().map(|_| Samples::default()).collect();
    let mut peaks = Vec::new();
    let start = Instant::now();
    while peaks.is_empty() || start.elapsed().as_secs_f64() < seconds {
        reset_peak_rss();
        for j in shuffled(jobs.len(), &mut rng) {
            let t0 = Instant::now();
            let checked = jobs[j].run(seed).unwrap_or_else(|e| {
                out.fail(&format!("{}: {e}", jobs[j].id));
                Vec::new()
            });
            let wall = t0.elapsed().as_secs_f64();
            let (mut search, mut states, mut transitions) = (0.0, 0.0, 0.0);
            for c in checked {
                out.attempted += 1;
                if let Err(e) = expected.verify(&c, seed) {
                    out.fail(&e);
                }
                let s = &c.report.stats;
                // A swarm keeps no state set: each of its transitions,
                // and each schedule's initial state, is a visited state.
                states += if c.report.mode == "swarm" {
                    (s.transitions + s.schedules_run as u64) as f64
                } else {
                    s.unique_states as f64
                };
                transitions += s.transitions as f64;
                search += c.report.wall.as_secs_f64();
            }
            let s = &mut samples[j];
            s.wall.push(wall);
            s.search.push(search);
            s.states.push(states);
            s.transitions.push(transitions);
        }
        peaks.push(peak_rss_mb()?);
    }
    let total = |f: fn(&Samples) -> &Vec<f64>| -> f64 {
        samples.iter().map(|s| median(&mut f(s).clone())).sum()
    };
    let search = total(|s| &s.search);
    out.samples = peaks.len();
    out.metrics = vec![
        Metric::new("wall_s", total(|s| &s.wall), "s"),
        Metric::new("states_per_s", total(|s| &s.states) / search, "1/s"),
        Metric::new(
            "transitions_per_s",
            total(|s| &s.transitions) / search,
            "1/s",
        ),
        Metric::new("setup_s", setup, "s"),
        Metric::new("peak_rss_mb", median(&mut peaks), "MB"),
    ];
    Ok(out)
}

/// The contents of `expected.json`, from one pass of the lock workloads
/// at seed 1. The parallel workload's checks share the portfolio's pins:
/// state counts do not depend on the thread count.
pub fn pins() -> Result<String, String> {
    let mut exhaustive = BTreeMap::new();
    let mut swarms = BTreeMap::new();
    for w in [Workload::Portfolio, Workload::Symmetric, Workload::Swarm] {
        for job in w.jobs()? {
            for c in job.run(1)? {
                let s = &c.report.stats;
                let mut pin = BTreeMap::new();
                pin.insert(
                    "verdict".to_owned(),
                    Json::Str(verdict_name(&c.report.verdict).to_owned()),
                );
                if c.report.mode == "swarm" {
                    pin.insert(
                        "transitions_at_seed_1".to_owned(),
                        Json::Num(s.transitions as f64),
                    );
                    swarms.insert(c.id, Json::Obj(pin));
                } else {
                    pin.insert("complete".to_owned(), Json::Bool(s.complete));
                    pin.insert(
                        "unique_states".to_owned(),
                        Json::Num(s.unique_states as f64),
                    );
                    exhaustive.insert(c.id, Json::Obj(pin));
                }
            }
        }
    }
    let mut doc = BTreeMap::new();
    doc.insert("exhaustive".to_owned(), Json::Obj(exhaustive));
    doc.insert("swarm".to_owned(), Json::Obj(swarms));
    Ok(Json::Obj(doc).render())
}
