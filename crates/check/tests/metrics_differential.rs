//! Metrics-vs-no-metrics differential tests: attaching a
//! [`tpa_obs::Metrics`] registry to a [`Checker`] must be *observationally
//! invisible* to the search. The registry is written from each worker's
//! own counters when the worker reports; nothing about exploration
//! order, pruning, caching, or witness selection may depend on whether
//! it exists. These tests pin the verdict, the witness
//! schedule, the shrunk schedule, and the unique-state count of a
//! complete passing search against an unmetered baseline, sequentially
//! and at 4 threads — and then check the registry told the truth about
//! the run it watched.

use std::sync::Arc;

use tpa_algos::sim::bakery::BakeryLock;
use tpa_check::{Checker, Report, Verdict, WorkerStats};
use tpa_obs::Metrics;
use tpa_tso::{MemoryModel, System};

fn run(
    system: &dyn System,
    model: MemoryModel,
    threads: usize,
    metrics: Option<Arc<Metrics>>,
) -> Report {
    let mut checker = Checker::new(system)
        .model(model)
        .max_steps(40)
        .max_transitions(4_000_000)
        .threads(threads);
    if let Some(m) = metrics {
        checker = checker.metrics(m);
    }
    checker.exhaustive()
}

fn assert_identical(bare: &Report, metered: &Report, label: &str) {
    match (&bare.verdict, &metered.verdict) {
        (Verdict::Pass, Verdict::Pass) => {
            assert!(
                bare.stats.complete && metered.stats.complete,
                "{label}: budget hit"
            );
            assert_eq!(
                bare.stats.unique_states, metered.stats.unique_states,
                "{label}: metered search visited a different state set"
            );
        }
        (
            Verdict::Violation {
                found: a,
                shrunk: sa,
                ..
            },
            Verdict::Violation {
                found: b,
                shrunk: sb,
                ..
            },
        ) => {
            assert_eq!(a, b, "{label}: metered witness differs");
            assert_eq!(sa, sb, "{label}: metered shrunk witness differs");
        }
        (a, b) => panic!(
            "{label}: verdicts disagree (bare {}, metered {})",
            if a.passed() { "pass" } else { "violation" },
            if b.passed() { "pass" } else { "violation" },
        ),
    }
}

/// The whole lock portfolio at n = 2, both memory models, 1 and 4
/// threads: the registry changes nothing the report can see.
#[test]
fn portfolio_is_unchanged_by_the_registry() {
    for model in [MemoryModel::Tso, MemoryModel::Pso] {
        for lock in tpa_algos::all_locks(2, 1) {
            let bare = run(lock.as_ref(), model, 1, None);
            for threads in [1, 4] {
                let metrics = Arc::new(Metrics::new());
                let metered = run(lock.as_ref(), model, threads, Some(metrics.clone()));
                assert_identical(
                    &bare,
                    &metered,
                    &format!("{} under {model:?} @{threads}", bare.algo),
                );
                // And the registry must agree with the engine's own
                // aggregates about how much work happened.
                assert_eq!(
                    metrics.counter_value("search.transitions"),
                    Some(metered.stats.transitions),
                    "{}: registry transition count drifted",
                    bare.algo
                );
                // A miss fires on first sight of a state *and* on a
                // rank-tag upgrade that forces re-expansion, so misses
                // bound unique states from above.
                let snap = metrics.snapshot();
                assert!(
                    snap.counter("search.cache_misses") >= metered.stats.unique_states as u64,
                    "{}: fewer cache misses than unique states",
                    bare.algo
                );
                // The registry is published from the workers' own
                // counters: each metric is their sum.
                let workers = &metered.workers;
                let sum = |f: fn(&WorkerStats) -> u64| workers.iter().map(f).sum::<u64>();
                let label = format!("{} @{threads}", bare.algo);
                for (name, total) in [
                    ("search.transitions", sum(|w| w.transitions)),
                    ("search.nodes_expanded", sum(|w| w.nodes_expanded)),
                    ("search.cache_hits", sum(|w| w.cache_hits)),
                    ("search.cache_misses", sum(|w| w.cache_misses)),
                    ("search.sleep_prunes", sum(|w| w.sleep_prunes)),
                    ("search.steals", sum(|w| w.steals)),
                    ("search.donated", sum(|w| w.donated)),
                ] {
                    assert_eq!(snap.counter(name), total, "{label}: {name}");
                }
                let max_frontier = workers.iter().map(|w| w.max_frontier as u64).max();
                let hwm = snap.gauges.get("search.frontier_hwm").copied();
                assert_eq!(hwm, max_frontier, "{label}: search.frontier_hwm");
            }
        }
    }
}

/// Negative control: the fenceless bakery is caught with the identical
/// lexicographically-least witness and the identical ddmin-shrunk
/// schedule whether or not a registry is attached, at 1 and 4 threads —
/// and the shrink instrumentation reports its effort.
#[test]
fn violation_witnesses_are_unchanged_by_the_registry() {
    let broken = BakeryLock::without_doorway_fence(2, 1);
    let check = |threads: usize, metrics: Option<Arc<Metrics>>| {
        let mut checker = Checker::new(&broken)
            .max_steps(60)
            .max_transitions(4_000_000)
            .threads(threads);
        if let Some(m) = metrics {
            checker = checker.metrics(m);
        }
        checker.exhaustive()
    };
    let bare = check(1, None);
    assert!(matches!(bare.verdict, Verdict::Violation { .. }));
    for threads in [1, 4] {
        let metrics = Arc::new(Metrics::new());
        let metered = check(threads, Some(metrics.clone()));
        assert_identical(&bare, &metered, &format!("bakery-nofence @{threads}"));
        assert!(
            metrics.counter_value("shrink.iterations").unwrap_or(0) > 0,
            "shrink ran but recorded no iterations"
        );
        let Verdict::Violation { shrunk, .. } = &metered.verdict else {
            unreachable!()
        };
        let snap = metrics.snapshot();
        let hist = snap
            .histograms
            .get("shrink.shrunk_len")
            .expect("shrunk length histogram recorded");
        assert_eq!(hist.count, 1);
        assert_eq!(hist.sum, shrunk.len() as u64);
    }
}
