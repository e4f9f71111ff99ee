//! Simulator micro-benchmarks: event throughput of the TSO machine and
//! end-to-end passage cost per simulated lock.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tpa_algos::all_locks;
use tpa_tso::sched::{run_round_robin, CommitPolicy};
use tpa_tso::scripted::{Instr, ScriptSystem};
use tpa_tso::{Directive, Machine, ProcId};

fn bench_machine_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("machine_steps");
    group.throughput(Throughput::Elements(1));
    // A tight read/write loop on one variable.
    let sys = ScriptSystem::new(1, 1, |_| {
        vec![
            Instr::Write { var: 0, value: 1 },
            Instr::Read { var: 0, reg: 0 },
            Instr::Jump { target: 0 },
        ]
    });
    group.bench_function("issue_write_then_buffer_read", |b| {
        let mut m = Machine::new(&sys);
        b.iter(|| m.step(Directive::Issue(ProcId(0))).unwrap());
    });
    group.finish();
}

/// The telemetry fast path: `Machine::step` with no probe attached (one
/// never-taken branch) vs a `NullProbe` (the branch plus a dynamic call
/// into empty inlined methods). Both should be indistinguishable from
/// the bare `machine_steps` number — the zero-cost claim in DESIGN.md.
fn bench_probe_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("probe_overhead");
    group.throughput(Throughput::Elements(1));
    let sys = ScriptSystem::new(1, 1, |_| {
        vec![
            Instr::Write { var: 0, value: 1 },
            Instr::Read { var: 0, reg: 0 },
            Instr::Jump { target: 0 },
        ]
    });
    group.bench_function("no_probe", |b| {
        let mut m = Machine::new(&sys);
        b.iter(|| m.step(Directive::Issue(ProcId(0))).unwrap());
    });
    group.bench_function("null_probe", |b| {
        let mut m = Machine::new(&sys);
        m.attach_probe(std::sync::Arc::new(tpa_obs::NullProbe));
        b.iter(|| m.step(Directive::Issue(ProcId(0))).unwrap());
    });
    group.finish();
}

/// The metrics path: a whole exhaustive search with no registry attached
/// vs a live [`tpa_obs::Metrics`] registry, which each worker writes
/// from its own counters when it reports (every 512 expansions and on
/// retirement). The gap is the per-run price of `TPA_OBS_METRICS` / the
/// run ledger.
fn bench_metrics_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics_overhead");
    group.sample_size(20);
    let lock = tpa_algos::sim::tas::TasLock::new(2, 1);
    let check = |metrics: Option<std::sync::Arc<tpa_obs::Metrics>>| {
        let mut checker = tpa_check::Checker::new(&lock).max_steps(40);
        if let Some(m) = metrics {
            checker = checker.metrics(m);
        }
        checker.exhaustive()
    };
    group.bench_function("no_registry", |b| {
        b.iter(|| {
            let report = check(None);
            assert!(report.verdict.passed());
            report.stats.unique_states
        })
    });
    group.bench_function("live_registry", |b| {
        b.iter(|| {
            let report = check(Some(std::sync::Arc::new(tpa_obs::Metrics::new())));
            assert!(report.verdict.passed());
            report.stats.unique_states
        })
    });
    group.finish();
}

fn bench_lock_passages(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_lock_passages");
    group.sample_size(10);
    for n in [8usize, 32] {
        for lock in all_locks(n, 1) {
            group.bench_with_input(BenchmarkId::new(lock.name().to_owned(), n), &n, |b, _| {
                b.iter(|| {
                    let (m, stats) =
                        run_round_robin(lock.as_ref(), CommitPolicy::Lazy, 50_000_000).unwrap();
                    assert!(stats.all_halted);
                    m.log().len()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_machine_steps,
    bench_probe_overhead,
    bench_metrics_overhead,
    bench_lock_passages
);
criterion_main!(benches);
