//! Differential tests: the parallel engine must be *observationally
//! identical* to the sequential one.
//!
//! The engine promises that thread count changes wall-clock time and
//! nothing else: the verdict, the witness schedule (lexicographically
//! least violating schedule), and the number of distinct states visited
//! (on complete passes, and on violations, where the sequential witness
//! search counts them) are all deterministic. Effort counters
//! (`transitions`, pruning counts) are *not* compared exactly: workers
//! legitimately race to states that then need no re-expansion, so the
//! amount of redundant work depends on scheduling. It is bounded,
//! though: a passing search on several threads does about the
//! transitions of one.

use std::sync::Arc;

use tpa_algos::sim::bakery::BakeryLock;
use tpa_check::invariant::CrashSafeExclusion;
use tpa_check::{Checker, IncompleteReason, Report, Verdict};
use tpa_obs::{CollectProbe, NullProbe, Probe, Recorder};
use tpa_tso::{Directive, Machine, MemoryModel, ProcId, System};

const PAR_THREADS: usize = 4;

fn run(system: &dyn System, model: MemoryModel, threads: usize) -> Report {
    Checker::new(system)
        .model(model)
        .max_steps(40)
        .max_transitions(4_000_000)
        .threads(threads)
        .exhaustive()
}

fn assert_identical(seq: &Report, par: &Report, label: &str) {
    match (&seq.verdict, &par.verdict) {
        (Verdict::Pass, Verdict::Pass) => {
            assert!(seq.stats.complete, "{label}: sequential run hit the budget");
            assert!(par.stats.complete, "{label}: parallel run hit the budget");
            assert_eq!(
                seq.stats.unique_states, par.stats.unique_states,
                "{label}: parallel search visited a different state set"
            );
        }
        (Verdict::Violation { found: a, .. }, Verdict::Violation { found: b, .. }) => {
            assert_eq!(a, b, "{label}: parallel witness differs from sequential");
            assert_eq!(
                seq.stats.unique_states, par.stats.unique_states,
                "{label}: parallel witness search visited a different state set"
            );
        }
        (s, p) => panic!(
            "{label}: verdicts disagree (sequential {}, parallel {})",
            if s.passed() { "pass" } else { "violation" },
            if p.passed() { "pass" } else { "violation" },
        ),
    }
}

/// The full lock portfolio at n = 2 under both memory models: identical
/// verdict and unique-state count at 1 and 4 threads.
#[test]
fn portfolio_n2_parallel_agrees_with_sequential() {
    for model in [MemoryModel::Tso, MemoryModel::Pso] {
        for lock in tpa_algos::all_locks(2, 1) {
            let seq = run(lock.as_ref(), model, 1);
            let par = run(lock.as_ref(), model, PAR_THREADS);
            assert_identical(&seq, &par, &format!("{} under {model:?}", seq.algo));
        }
    }
}

/// Negative control: the doorway-fence-stripped bakery is still caught
/// under parallel exploration, with the same (deterministic) witness and
/// state count the sequential explorer reports. The parallel run counts
/// the effort of both its searches, and only through its workers.
#[test]
fn parallel_exploration_still_catches_the_fenceless_bakery() {
    for n in [2, 3] {
        let broken = BakeryLock::without_doorway_fence(n, 1);
        let seq = Checker::new(&broken)
            .max_steps(60)
            .max_transitions(4_000_000)
            .threads(1)
            .exhaustive();
        let par = Checker::new(&broken)
            .max_steps(60)
            .max_transitions(4_000_000)
            .threads(PAR_THREADS)
            .exhaustive();
        let Verdict::Violation {
            invariant, found, ..
        } = &par.verdict
        else {
            panic!("parallel explorer missed the fenceless bakery at n = {n}");
        };
        assert_eq!(*invariant, "mutual-exclusion");
        assert!(!found.is_empty());
        assert_identical(&seq, &par, &format!("bakery-nofence n = {n}"));
        let executed: u64 = par.workers.iter().map(|w| w.transitions).sum();
        assert_eq!(executed, par.stats.transitions, "n = {n}");
        // The sequential witness search alone executes the 1-thread
        // run's transitions; the verdict search comes on top.
        assert!(par.stats.transitions > seq.stats.transitions, "n = {n}");
        assert_eq!(par.workers.len(), PAR_THREADS, "n = {n}");
    }
}

/// Redundancy regression guard: a passing search on several threads
/// must not redo the work one thread does. Workers that reach a state
/// out of lexicographic order no longer re-expand it, so 2 and 4
/// threads stay within 1.25× the 1-thread transitions (the rank-ordered
/// cache needed about 2×).
#[test]
fn parallel_passing_search_does_about_the_work_of_one_thread() {
    let lock = tpa_algos::lock_by_name("filter", 3, 1).unwrap();
    let run = |threads| {
        Checker::new(lock.as_ref())
            .max_steps(30)
            .threads(threads)
            .exhaustive()
    };
    let seq = run(1);
    seq.assert_pass();
    for threads in [2, 4] {
        let par = run(threads);
        assert_identical(&seq, &par, &format!("filter n = 3 @{threads}"));
        let ratio = par.stats.transitions as f64 / seq.stats.transitions as f64;
        assert!(
            ratio <= 1.25,
            "{threads} threads executed {ratio:.2}× the 1-thread transitions \
             ({} vs {})",
            par.stats.transitions,
            seq.stats.transitions
        );
    }
}

/// Telemetry must be write-only: a recording probe attached to a machine
/// must not perturb its behavioural state, and a probe attached to a
/// checker must not change the verdict, the witness, or the state count.
#[test]
fn probes_do_not_perturb_machine_state() {
    let lock = tpa_algos::lock_by_name("tournament", 4, 1).unwrap();
    let schedule: Vec<Directive> = (0..4)
        .flat_map(|i| vec![Directive::Issue(ProcId(i)); 3])
        .collect();

    let run = |probe: Option<Arc<dyn Probe>>| {
        let mut m = Machine::new(lock.as_ref());
        if let Some(p) = probe {
            m.attach_probe(p);
        }
        for d in &schedule {
            let _ = m.step(*d);
        }
        m
    };

    let bare = run(None);
    let nulled = run(Some(Arc::new(NullProbe)));
    let collector = Arc::new(CollectProbe::new());
    let collected = run(Some(collector.clone()));
    let recorder = Arc::new(Recorder::in_memory());
    let recorded = run(Some(recorder.clone()));

    for (label, m) in [
        ("NullProbe", &nulled),
        ("CollectProbe", &collected),
        ("Recorder", &recorded),
    ] {
        assert_eq!(
            bare.state_key(),
            m.state_key(),
            "{label}: probe perturbed the state hash"
        );
        assert_eq!(
            bare.log(),
            m.log(),
            "{label}: probe perturbed the event log"
        );
    }
    // And the probes actually observed the execution (one SimStep per
    // executed event).
    assert_eq!(collector.snapshot().sim.len(), bare.log().len());
    assert!(recorder
        .lines()
        .iter()
        .any(|l| l.contains("\"kind\":\"sim\"")));
}

/// Checker-level determinism guard: probe-off, NullProbe, and a recording
/// Recorder all report the identical witness and unique-state count, at
/// 1 and 4 threads.
#[test]
fn recording_probe_does_not_perturb_the_search() {
    let broken = BakeryLock::without_doorway_fence(2, 1);
    let check = |threads: usize, probe: Option<Arc<dyn Probe>>| {
        let mut c = Checker::new(&broken)
            .max_steps(60)
            .max_transitions(4_000_000)
            .threads(threads);
        if let Some(p) = probe {
            c = c.probe(p);
        }
        c.exhaustive()
    };
    for threads in [1, PAR_THREADS] {
        let bare = check(threads, None);
        let nulled = check(threads, Some(Arc::new(NullProbe)));
        let recorder = Arc::new(Recorder::in_memory());
        let recorded = check(threads, Some(recorder.clone()));
        assert_identical(&bare, &nulled, &format!("NullProbe @{threads}"));
        assert_identical(&bare, &recorded, &format!("Recorder @{threads}"));
        // The recording run did emit telemetry, and a valid log: each
        // worker's counters only grow, through both searches of a
        // multi-thread violation too...
        let lines = recorder.lines();
        if let Err(e) = tpa_obs::schema::validate_lines(&lines) {
            panic!("run log @{threads} is invalid: {e}");
        }
        assert!(lines.iter().any(|l| l.contains("\"kind\":\"run_start\"")));
        assert!(lines.iter().any(|l| l.contains("\"kind\":\"worker\"")));
        assert!(lines.iter().any(|l| l.contains("\"kind\":\"run_finish\"")));
        // ...and the per-worker breakdown covers every worker.
        assert_eq!(recorded.workers.len(), threads);
    }

    // Passing searches must agree on unique_states too, probe or not.
    let lock = tpa_algos::lock_by_name("tas", 2, 1).unwrap();
    let clean = |probe: Option<Arc<dyn Probe>>| {
        let mut c = Checker::new(lock.as_ref())
            .max_steps(40)
            .max_transitions(4_000_000)
            .threads(PAR_THREADS);
        if let Some(p) = probe {
            c = c.probe(p);
        }
        c.exhaustive()
    };
    let bare = clean(None);
    let recorded = clean(Some(Arc::new(Recorder::in_memory())));
    assert_identical(&bare, &recorded, "clean tas with recorder");
}

/// A `max_transitions`-truncated run must say so — `Verdict::Incomplete`
/// plus the `EffortStats` flag — and must never be mistakable for a pass,
/// at every thread count. (Regression guard: before the incomplete
/// verdict existed, a truncated search on a clean system reported `Pass`.)
#[test]
fn truncated_run_is_incomplete_never_a_pass_at_every_thread_count() {
    let clean = BakeryLock::new(2, 1);
    for threads in [1, 2, 4, 8] {
        let report = Checker::new(&clean)
            .max_steps(40)
            .max_transitions(50) // far below the ~10^3 reachable states
            .threads(threads)
            .exhaustive();
        assert!(
            !report.verdict.passed(),
            "a truncated search passed at {threads} threads"
        );
        let Verdict::Incomplete { reason, .. } = &report.verdict else {
            panic!(
                "expected Incomplete at {threads} threads, got {:?}",
                report.verdict
            );
        };
        assert!(
            reason.contains("budget"),
            "reason must name the budget: {reason}"
        );
        assert_eq!(
            report.stats.incomplete,
            Some(IncompleteReason::BudgetExhausted),
            "effort stats must carry the distinct flag at {threads} threads"
        );
        assert!(!report.stats.complete);
        // The budget admits exactly 50 transitions; claims it refused
        // were never executed and must not be reported.
        assert_eq!(report.stats.transitions, 50, "at {threads} threads");
        let executed: u64 = report.workers.iter().map(|w| w.transitions).sum();
        assert_eq!(executed, 50, "at {threads} threads");
        assert!(
            reason.contains("after 50 transitions"),
            "reason must give the executed count: {reason}"
        );
    }
}

/// `max_crashes(0)` reproduces today's exact unique-state counts and
/// witnesses at 1/2/4/8 threads: the fault model is invisible until a
/// budget is granted (the ISSUE's state-space-preservation acceptance
/// criterion, pinned differentially).
#[test]
fn zero_crash_budget_matches_the_seed_state_space_at_every_thread_count() {
    // Clean system: unique-state count must be untouched.
    let clean = BakeryLock::new(2, 1);
    let baseline = run(&clean, MemoryModel::Tso, 1);
    assert!(baseline.stats.complete);
    // Broken system: the witness must be untouched.
    let broken = BakeryLock::without_doorway_fence(2, 1);
    let Verdict::Violation {
        found: witness_baseline,
        ..
    } = run(&broken, MemoryModel::Tso, 1).verdict
    else {
        panic!("baseline must catch the fenceless bakery");
    };
    for threads in [1, 2, 4, 8] {
        let zero = Checker::new(&clean)
            .max_steps(40)
            .max_transitions(4_000_000)
            .max_crashes(0)
            .threads(threads)
            .exhaustive();
        assert_identical(&baseline, &zero, &format!("max_crashes(0) @{threads}"));
        let with_zero = Checker::new(&broken)
            .max_steps(40)
            .max_transitions(4_000_000)
            .max_crashes(0)
            .threads(threads)
            .exhaustive();
        let Verdict::Violation { found, .. } = with_zero.verdict else {
            panic!("max_crashes(0) missed the fenceless bakery at {threads} threads");
        };
        assert_eq!(
            found, witness_baseline,
            "max_crashes(0) changed the witness at {threads} threads"
        );
    }
}

/// The crash-enabled search is as deterministic as the crash-free one:
/// the crash-induced witness in the unfenced recoverable bakery is
/// identical at 1/2/4/8 threads, and so is the unique-state count of a
/// passing crash-enabled search.
#[test]
fn crash_enabled_searches_agree_across_thread_counts() {
    let broken = BakeryLock::recoverable_without_doorway_fence(2, 1);
    let mut witnesses = Vec::new();
    for threads in [1, 2, 4, 8] {
        let report = Checker::new(&broken)
            .invariants(vec![Box::new(CrashSafeExclusion)])
            .max_steps(32)
            .max_crashes(1)
            .threads(threads)
            .exhaustive();
        let Verdict::Violation { found, .. } = report.verdict else {
            panic!("crash-enabled search missed at {threads} threads");
        };
        assert!(found.iter().any(|d| matches!(d, Directive::Crash(_))));
        witnesses.push(found);
    }
    assert!(
        witnesses.windows(2).all(|w| w[0] == w[1]),
        "crash witness varies with thread count: {witnesses:?}"
    );

    let hardened = BakeryLock::recoverable(2, 1);
    let base = Checker::new(&hardened)
        .max_steps(32)
        .max_crashes(1)
        .threads(1)
        .exhaustive();
    assert!(base.stats.complete);
    base.assert_pass();
    for threads in [2, 4, 8] {
        let par = Checker::new(&hardened)
            .max_steps(32)
            .max_crashes(1)
            .threads(threads)
            .exhaustive();
        assert_identical(&base, &par, &format!("bakery-rec crash budget @{threads}"));
    }
}

/// The witness stays put across *many* thread counts, not just 1-vs-4:
/// the schedule as found, its shrunk form and the state count.
#[test]
fn witness_is_stable_across_thread_counts() {
    let broken = BakeryLock::without_doorway_fence(2, 1);
    let mut witnesses = Vec::new();
    for threads in [1, 2, 3, 4, 8] {
        let report = Checker::new(&broken)
            .max_steps(60)
            .max_transitions(4_000_000)
            .threads(threads)
            .exhaustive();
        let Verdict::Violation { found, shrunk, .. } = report.verdict else {
            panic!("missed at {threads} threads");
        };
        witnesses.push((found, shrunk, report.stats.unique_states));
    }
    assert!(
        witnesses.windows(2).all(|w| w[0] == w[1]),
        "witness varies with thread count: {witnesses:?}"
    );
}
