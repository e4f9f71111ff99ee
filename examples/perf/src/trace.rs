//! The traced run: where a workload's time goes, layer by layer.
//!
//! Each check runs once through the engine at one thread (the
//! reference), then twice through its replay ([`crate::replay`]):
//! untraced, for the replay's own wall time, and traced, for the
//! per-layer spans. Layer numbers are emitted only when both replays
//! reproduce the engine's counters exactly.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use tpa_check::{
    run_checks, standard_invariants, Execution, ExploreConfig, Features, Report, StateKeys,
    SwarmConfig, Verdict,
};
use tpa_tso::{MemoryModel, SymmetryGroup, System};

use crate::replay::{self, Counts, Layer, Search, Tracer, Untraced, Walk};
use crate::stats::{ratio, Metric, Outcome};
use crate::workload::{self, median_secs, Checked, Expected, Job, Kind, Workload, SWARM_SCHEDULES};

/// Layers every workload calls, so their cost per call is always measured.
const PER_CALL: [Layer; 3] = [Layer::Step, Layer::Enabled, Layer::Battery];

/// A job's set-up probe and the parts of it timed on their own.
#[derive(Default)]
struct Setup {
    probe: f64,
    vm_compile: f64,
    for_spec: f64,
    dsl_compile: f64,
}

/// Sums over every traced check of a run.
#[derive(Default)]
struct Totals {
    /// Wall time of the reference calls, measured outside the checker.
    external: f64,
    /// The part of `external` after search and set-up.
    post: f64,
    /// Engine search time (`Report.wall`) of the reference runs.
    engine: Duration,
    untraced: Duration,
    traced: Duration,
    transitions: u64,
    pruned_sleep: u64,
    cache_skips: u64,
    renamed_keys: u64,
    /// Transitions of the parallel workload at its own thread count and
    /// at one thread.
    parallel_transitions: u64,
    reference_transitions: u64,
    steals: u64,
    donated: u64,
    setup: Setup,
}

/// Traces `w` until `seconds` have passed (at least one pass) and
/// reports the per-layer metrics.
pub fn layers(w: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let jobs = w.jobs()?;
    let expected = Expected::load()?;
    let span_ns = replay::calibrate();
    let mut t = Totals::default();
    let setups = jobs
        .iter()
        .map(|job| split_setup(job, seed))
        .collect::<Result<Vec<_>, _>>()?;
    for s in &setups {
        t.setup.probe += s.probe;
        t.setup.vm_compile += s.vm_compile;
        t.setup.for_spec += s.for_spec;
        t.setup.dsl_compile += s.dsl_compile;
    }
    let mut tracer = Tracer::new();
    let mut out = Outcome::default();
    let mut rng = workload::order_rng(seed);
    let start = Instant::now();
    while out.samples == 0 || start.elapsed().as_secs_f64() < seconds {
        for j in workload::shuffled(jobs.len(), &mut rng) {
            let (job, setup) = (&jobs[j], &setups[j]);
            let (external, engine) =
                trace_job(job, seed, &mut tracer, &mut t, Some(&expected), &mut out)?;
            t.external += external;
            // Shrinking and rendering a violation, and the verdict's
            // bookkeeping: the call minus search and checker set-up.
            t.post += (external - engine - (setup.probe - setup.dsl_compile)).max(0.0);
        }
        out.samples += 1;
    }
    if !out.correct() {
        eprintln!("a check differed from its pin or the engine: no layer numbers");
        return Ok(out);
    }
    let path = trace_path(w);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, tracer.trace_events(w.name()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("sampled expansions written to {}", path.display());
    out.metrics = metrics(&t, &tracer, span_ns, out.samples as f64);
    Ok(out)
}

/// `$CARGO_TARGET_DIR/perf/trace-<workload>.json`, `target/` by default.
fn trace_path(w: Workload) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target)
        .join("perf")
        .join(format!("trace-{}.json", w.name()))
}

/// Times the parts of a job's set-up that have a public entry point.
fn split_setup(job: &Job, seed: u64) -> Result<Setup, String> {
    let probe = job.setup_secs(seed)?;
    let for_spec = |system: &dyn System| {
        median_secs(|| {
            black_box(SymmetryGroup::for_spec(&system.vars(), system.n()));
            Ok(())
        })
    };
    Ok(match &job.kind {
        // The checker compiles once per exhaustive run: to execute the
        // bytecode, or to fingerprint the native programs.
        Kind::Exhaustive { lock, features, .. } => {
            let compiled = lock.compile_vm();
            let system: &dyn System = match &compiled {
                Some(vm) if features.execution == Execution::Compiled => vm,
                _ => lock.as_ref(),
            };
            Setup {
                probe,
                vm_compile: median_secs(|| {
                    black_box(lock.compile_vm());
                    Ok(())
                })?,
                for_spec: if features.keys == StateKeys::Canonical && system.symmetric() {
                    for_spec(system)?
                } else {
                    0.0
                },
                dsl_compile: 0.0,
            }
        }
        // A native swarm neither compiles nor fingerprints.
        Kind::Swarm { .. } => Setup {
            probe,
            ..Setup::default()
        },
        Kind::Scenario { src } => {
            let scenario = tpa_dsl::compile_named(src, &job.id)?;
            let clauses = workload::clauses(&scenario).len() as f64;
            Setup {
                probe,
                vm_compile: clauses
                    * median_secs(|| {
                        black_box(scenario.system.compile_vm());
                        Ok(())
                    })?,
                for_spec: if scenario.symmetric {
                    clauses * for_spec(&scenario.system)?
                } else {
                    0.0
                },
                dsl_compile: median_secs(|| tpa_dsl::compile_named(src, &job.id).map(drop))?,
            }
        }
    })
}

/// Replays every lock at n = 2 (native and `Features::full()`, plus a
/// swarm) and compares each replay with the engine.
pub fn self_check() -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut tracer, mut t) = (Tracer::new(), Totals::default());
    let locks = || tpa_algos::all_locks(2, 1).into_iter();
    let jobs = locks()
        .map(|lock| Job::exhaustive(lock, 60, Features::default(), 1))
        .chain(locks().map(|lock| Job::exhaustive(lock, 60, Features::full(), 1)))
        .chain(locks().map(Job::swarm));
    for job in jobs {
        trace_job(&job, 1, &mut tracer, &mut t, None, &mut out)?;
    }
    Ok(out)
}

/// Runs one job's reference and both replays, checking the reference
/// against `expected` when given. Returns the reference call's wall
/// time and its engine search time, in seconds.
fn trace_job(
    job: &Job,
    seed: u64,
    tracer: &mut Tracer,
    t: &mut Totals,
    expected: Option<&Expected>,
    out: &mut Outcome,
) -> Result<(f64, f64), String> {
    let verify = |out: &mut Outcome, c: Checked| {
        if let Some(expected) = expected {
            out.attempted += 1;
            if let Err(e) = expected.verify(&c, seed) {
                out.fail(&e);
            }
        }
        c.report
    };
    let defaults = ExploreConfig::default();
    match &job.kind {
        Kind::Exhaustive {
            lock,
            max_steps,
            features,
            threads,
        } => {
            let checker = || workload::exhaustive(lock.as_ref(), *max_steps, *features, 1);
            let t0 = Instant::now();
            let reference = checker().exhaustive();
            let external = t0.elapsed().as_secs_f64();
            let reference = verify(out, job.checked(reference));
            if *threads > 1 {
                let par = checker().threads(*threads).exhaustive();
                let par = verify(out, job.checked(par));
                t.parallel_transitions += par.stats.transitions;
                t.reference_transitions += reference.stats.transitions;
                t.steals += par.workers.iter().map(|w| w.steals).sum::<u64>();
                t.donated += par.workers.iter().map(|w| w.donated).sum::<u64>();
            }
            let compiled = lock.compile_vm();
            let system: &dyn System = match &compiled {
                Some(vm) if features.execution == Execution::Compiled => vm,
                _ => lock.as_ref(),
            };
            let group = reference
                .symmetry
                .then(|| SymmetryGroup::for_spec(&system.vars(), system.n()));
            let invariants = standard_invariants();
            let search = Search {
                system,
                model: MemoryModel::Tso,
                invariants: &invariants,
                max_steps: *max_steps,
                max_transitions: defaults.max_transitions,
                max_crashes: 0,
                symmetry: group.as_ref(),
            };
            replay_search(&job.id, &search, &reference, tracer, t, out);
            t.engine += reference.wall;
            Ok((external, reference.wall.as_secs_f64()))
        }
        Kind::Swarm { lock } => {
            let t0 = Instant::now();
            let reference = workload::swarm(lock.as_ref(), seed).swarm(SWARM_SCHEDULES);
            let external = t0.elapsed().as_secs_f64();
            let reference = verify(out, job.checked(reference));
            let invariants = standard_invariants();
            let walk = Walk {
                system: lock.as_ref(),
                model: MemoryModel::Tso,
                invariants: &invariants,
                schedules: SWARM_SCHEDULES,
                max_steps: SwarmConfig::default().max_steps,
                seed,
            };
            let want = Counts {
                transitions: reference.stats.transitions,
                schedules_run: reference.stats.schedules_run,
                violation: matches!(reference.verdict, Verdict::Violation { .. }),
                ..Counts::default()
            };
            let t0 = Instant::now();
            let plain = replay::walk(&walk, &mut Untraced);
            t.untraced += t0.elapsed();
            let t0 = Instant::now();
            let traced = replay::walk(&walk, tracer);
            t.traced += t0.elapsed();
            t.transitions += traced.transitions;
            faithful(&job.id, want, [plain, traced], out);
            t.engine += reference.wall;
            Ok((external, reference.wall.as_secs_f64()))
        }
        Kind::Scenario { src } => {
            let scenario = tpa_dsl::compile_named(src, &job.id)?;
            let t0 = Instant::now();
            let outcomes = run_checks(&scenario, 1);
            let external = t0.elapsed().as_secs_f64();
            let mut engine = Duration::ZERO;
            for (i, (clause, o)) in workload::clauses(&scenario)
                .into_iter()
                .zip(outcomes)
                .enumerate()
            {
                let id = format!("{}#{i}", job.id);
                let report = verify(
                    out,
                    Checked {
                        id: id.clone(),
                        report: o.report,
                        clause_ok: o.ok,
                    },
                );
                let invariants = tpa_check::battery(&scenario, clause.crashes);
                let group = report
                    .symmetry
                    .then(|| SymmetryGroup::for_spec(&scenario.system.vars(), scenario.system.n()));
                let search = Search {
                    system: &scenario.system,
                    model: clause.model,
                    invariants: &invariants,
                    max_steps: clause.steps.unwrap_or(defaults.max_steps),
                    max_transitions: clause.transitions.unwrap_or(defaults.max_transitions),
                    max_crashes: clause.crashes,
                    symmetry: group.as_ref(),
                };
                replay_search(&id, &search, &report, tracer, t, out);
                engine += report.wall;
            }
            t.engine += engine;
            Ok((external, engine.as_secs_f64()))
        }
    }
}

/// Replays one exhaustive check untraced and traced, and compares both
/// with the engine's counters.
fn replay_search(
    id: &str,
    search: &Search,
    reference: &Report,
    tracer: &mut Tracer,
    t: &mut Totals,
    out: &mut Outcome,
) {
    let s = &reference.stats;
    let want = Counts {
        transitions: s.transitions,
        pruned_sleep: s.pruned_sleep,
        cache_skips: s.cache_skips,
        unique_states: s.unique_states,
        schedules_run: 0,
        complete: s.complete,
        violation: matches!(reference.verdict, Verdict::Violation { .. }),
    };
    let t0 = Instant::now();
    let (plain, _) = replay::dfs(search, &mut Untraced);
    t.untraced += t0.elapsed();
    let t0 = Instant::now();
    let (traced, renamed) = replay::dfs(search, tracer);
    t.traced += t0.elapsed();
    t.transitions += traced.transitions;
    t.pruned_sleep += traced.pruned_sleep;
    t.cache_skips += traced.cache_skips;
    t.renamed_keys += renamed;
    faithful(id, want, [plain, traced], out);
}

/// Counts one replay comparison; a replay that differs from the engine
/// fails it.
pub fn faithful(id: &str, want: Counts, got: [Counts; 2], out: &mut Outcome) {
    out.attempted += 1;
    for (how, got) in ["untraced", "traced"].into_iter().zip(got) {
        if got != want {
            out.fail(&format!(
                "{id}: {how} replay {got:?} differs from the engine {want:?}"
            ));
            return;
        }
    }
}

fn metrics(t: &Totals, tr: &Tracer, span_ns: f64, passes: f64) -> Vec<Metric> {
    let calls = |l: Layer| tr.calls[l as usize] as f64;
    // A span reports its layer's time plus the cost of one empty span.
    let self_ns = |l: Layer| (tr.ns[l as usize] as f64 - calls(l) * span_ns).max(0.0);
    let untraced_ns = t.untraced.as_nanos() as f64;
    let mut m = Vec::new();
    for l in Layer::ALL {
        m.push(Metric::new(
            format!("{}.self_frac", l.name()),
            ratio(self_ns(l), untraced_ns),
            "frac",
        ));
        m.push(Metric::new(
            format!("{}.calls", l.name()),
            calls(l) / passes,
            "count",
        ));
    }
    for l in PER_CALL {
        m.push(Metric::new(
            format!("{}.ns_per_call", l.name()),
            ratio(self_ns(l), calls(l)),
            "ns",
        ));
    }
    let (cache_skips, pruned, transitions) = (
        t.cache_skips as f64,
        t.pruned_sleep as f64,
        t.transitions as f64,
    );
    m.push(Metric::new(
        "check.cache.hit_frac",
        ratio(cache_skips, calls(Layer::CacheAdmit)),
        "frac",
    ));
    m.push(Metric::new(
        "check.sleep.prune_frac",
        ratio(pruned, pruned + transitions),
        "frac",
    ));
    m.push(Metric::new(
        "tso.perm.renamed_frac",
        ratio(t.renamed_keys as f64, calls(Layer::CanonicalKey)),
        "frac",
    ));
    m.push(Metric::new(
        "check.parallel.redundant_frac",
        if t.reference_transitions == 0 {
            0.0
        } else {
            t.parallel_transitions as f64 / t.reference_transitions as f64 - 1.0
        },
        "frac",
    ));
    m.push(Metric::new(
        "check.parallel.steals",
        t.steals as f64 / passes,
        "count",
    ));
    m.push(Metric::new(
        "check.parallel.donated",
        t.donated as f64 / passes,
        "count",
    ));
    let s = &t.setup;
    let validate = (s.probe - s.vm_compile - s.for_spec - s.dsl_compile).max(0.0);
    for (name, part) in [
        ("tso.vm.compile.setup_frac", s.vm_compile),
        ("tso.perm.for_spec.setup_frac", s.for_spec),
        ("dsl.compile.setup_frac", s.dsl_compile),
        ("check.checker.validate.setup_frac", validate),
    ] {
        m.push(Metric::new(name, ratio(part, s.probe), "frac"));
    }
    m.push(Metric::new(
        "check.verdict.post_frac",
        ratio(t.post, t.external),
        "frac",
    ));
    m.push(Metric::new("trace.span_ns", span_ns, "ns"));
    m.push(Metric::new(
        "trace.replay_s",
        t.untraced.as_secs_f64() / passes,
        "s",
    ));
    m.push(Metric::new(
        "trace.overhead_frac",
        ratio(t.traced.as_secs_f64(), t.untraced.as_secs_f64()) - 1.0,
        "frac",
    ));
    m.push(Metric::new(
        "trace.layer_sum_frac",
        ratio(Layer::ALL.into_iter().map(self_ns).sum(), untraced_ns),
        "frac",
    ));
    m.push(Metric::new(
        "trace.replay_ratio",
        ratio(t.untraced.as_secs_f64(), t.engine.as_secs_f64()),
        "frac",
    ));
    m
}
