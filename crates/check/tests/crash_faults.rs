//! End-to-end tests of the crash-fault model and the failure-resilient
//! checker runtime.
//!
//! The negative control is the recoverable bakery with the
//! doorway-closing fence removed: a crash budget of 1 lets the explorer
//! find executions in which a crash discards the victim's *buffered
//! doorway stores* and mutual exclusion breaks. The positive control is
//! the properly fenced recoverable bakery, which survives any single
//! crash. The runtime tests pin the checker's failure behaviour: a
//! panicking invariant and an expired deadline each produce a truthful
//! [`Verdict::Incomplete`] partial report — never a process abort, never
//! a false pass.

use std::time::Duration;

use tpa_algos::sim::bakery::BakeryLock;
use tpa_check::invariant::CrashSafeExclusion;
use tpa_check::{crash_invariants, Checker, IncompleteReason, Invariant, Verdict, Violation};
use tpa_tso::scripted::{Instr, ScriptSystem};
use tpa_tso::{Directive, EventKind, Machine, MemoryModel};

/// The crash-enabled exhaustive search finds, shrinks and renders a
/// crash-induced mutual-exclusion violation in the unfenced recoverable
/// bakery at n = 2 — the ISSUE's headline demo.
#[test]
fn crash_breaks_the_unfenced_recoverable_bakery() {
    let broken = BakeryLock::recoverable_without_doorway_fence(2, 1);
    let report = Checker::new(&broken)
        .invariants(vec![Box::new(CrashSafeExclusion)])
        .max_steps(32)
        .max_crashes(1)
        .threads(4)
        .exhaustive();
    let Verdict::Violation {
        invariant,
        shrunk,
        rendered,
        ..
    } = &report.verdict
    else {
        panic!(
            "crash-enabled search must break the unfenced doorway, got {:?}",
            report.verdict
        );
    };
    assert_eq!(*invariant, "crash-safe-exclusion");
    // 1-minimality cannot drop the crash: the predicate only fires on
    // crash-bearing executions.
    assert!(
        shrunk.iter().any(|d| matches!(d, Directive::Crash(_))),
        "shrunk witness lost its crash: {shrunk:?}"
    );
    assert!(rendered.contains("CRASH"), "rendered trace: {rendered}");
    // Replaying the minimal witness confirms the crash dropped at least
    // one buffered store (the lost doorway writes).
    let mut m = Machine::new(&broken);
    for d in shrunk {
        m.step(*d).expect("shrunk witness must replay");
    }
    assert!(
        m.log()
            .iter()
            .any(|e| matches!(e.kind, EventKind::Crash { lost } if lost > 0)),
        "the witness crash lost no buffered stores: {:?}",
        m.log()
    );
}

/// The hardened variant: restart-at-the-doorway recovery plus the
/// doorway fence survives a crash budget of 1 under the full
/// crash-extended invariant battery.
#[test]
fn recoverable_bakery_survives_one_crash() {
    let report = Checker::new(&BakeryLock::recoverable(2, 1))
        .invariants(crash_invariants())
        .max_steps(48)
        .max_crashes(1)
        .threads(4)
        .exhaustive();
    assert!(report.stats.complete, "search must cover the space");
    report.assert_pass();
}

/// Without recovery the victim crash-stops; exclusion still holds (a
/// stopped process never re-enters), pinned under the same battery.
#[test]
fn crash_stop_preserves_exclusion_in_plain_bakery() {
    let report = Checker::new(&BakeryLock::new(2, 1))
        .invariants(crash_invariants())
        .max_steps(48)
        .max_crashes(1)
        .threads(2)
        .exhaustive();
    assert!(report.stats.complete);
    report.assert_pass();
}

/// A crash budget of 0 keeps the fault model entirely out of the state
/// space: counts, verdicts and witnesses match a run that never heard of
/// crashes.
#[test]
fn zero_crash_budget_is_the_status_quo() {
    let sys = BakeryLock::recoverable(2, 1);
    let base = Checker::new(&sys).max_steps(40).exhaustive();
    let zero = Checker::new(&sys).max_steps(40).max_crashes(0).exhaustive();
    assert!(base.verdict.passed() && zero.verdict.passed());
    assert_eq!(base.stats.unique_states, zero.stats.unique_states);
    assert_eq!(base.stats.transitions, zero.stats.transitions);
}

/// An invariant that panics once the schedule has any depth — drives the
/// worker panic firewall.
struct Grenade;
impl Invariant for Grenade {
    fn name(&self) -> &'static str {
        "grenade"
    }
    fn check(&self, m: &Machine) -> Option<Violation> {
        // Search forks keep only the last log entry, so key off "any step
        // at all": the root state passes, the first expansion panics.
        assert!(m.log().last().is_none(), "grenade went off");
        None
    }
}

fn two_writers() -> ScriptSystem {
    ScriptSystem::new(2, 2, |pid| {
        vec![
            Instr::Write {
                var: pid.0,
                value: 1,
            },
            Instr::Fence,
            Instr::Halt,
        ]
    })
}

/// A panicking invariant must not abort the process or fake a pass: the
/// report comes back `Incomplete` with the panic recorded, at any thread
/// count.
#[test]
fn worker_panic_yields_an_incomplete_verdict() {
    for threads in [1, 4] {
        let report = Checker::new(&two_writers())
            .invariants(vec![Box::new(Grenade)])
            .threads(threads)
            .exhaustive();
        assert!(
            !report.verdict.passed(),
            "a panicked search must never pass (threads = {threads})"
        );
        let Verdict::Incomplete { reason, .. } = &report.verdict else {
            panic!("expected Incomplete, got {:?}", report.verdict);
        };
        assert!(reason.contains("panicked"), "reason: {reason}");
        // The panic payload's message must survive into the reason the
        // user reads — "a worker panicked" with the why scrubbed would
        // send them to a debugger for information the process had.
        assert!(reason.contains("grenade went off"), "reason: {reason}");
        assert!(matches!(
            report.stats.incomplete,
            Some(IncompleteReason::WorkerPanic { ref message }) if message.contains("grenade went off")
        ));
        assert!(!report.stats.complete);
        // The panicked worker still retires its counters.
        assert_eq!(report.workers.len(), threads, "threads = {threads}");
        let executed: u64 = report.workers.iter().map(|w| w.transitions).sum();
        assert_eq!(executed, report.stats.transitions, "threads = {threads}");
    }
}

/// An already-expired deadline on a clean system: the exhaustive search
/// aborts, the fallback swarm runs its 32 schedules and finds nothing,
/// and the verdict is a truthful `Incomplete` mentioning both. The
/// schedules that ran are reported in the verdict text and in
/// [`tpa_check::Report::fallback_schedules`].
#[test]
fn expired_deadline_reports_incomplete_not_pass() {
    let report = Checker::new(&two_writers())
        .max_steps(16)
        .deadline(Duration::ZERO)
        .exhaustive();
    let Verdict::Incomplete { reason, .. } = &report.verdict else {
        panic!("expected Incomplete, got {:?}", report.verdict);
    };
    assert!(reason.contains("deadline"), "reason: {reason}");
    assert!(
        reason.contains("fallback swarm ran 32 schedules"),
        "reason: {reason}"
    );
    assert_eq!(report.fallback_schedules, 32);
    assert_eq!(
        report.stats.incomplete,
        Some(IncompleteReason::DeadlineExpired)
    );
    assert!(!report.verdict.passed());
}

/// A deadline degradation with checkpointing armed writes its snapshot
/// unconditionally — and the snapshot resumes to the verdict the
/// undisturbed search reports.
#[test]
fn deadline_degradation_checkpoints_and_resumes() {
    let dir = std::env::temp_dir().join(format!(
        "tpa-deadline-ckpt-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos())
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let control = Checker::new(&two_writers()).max_steps(16).exhaustive();
    assert!(control.verdict.passed());
    let interrupted = Checker::new(&two_writers())
        .max_steps(16)
        .deadline(Duration::ZERO)
        .checkpoint_dir(&dir)
        .exhaustive();
    let Verdict::Incomplete {
        checkpoint: Some(path),
        ..
    } = &interrupted.verdict
    else {
        panic!(
            "deadline degradation must checkpoint, got {:?}",
            interrupted.verdict
        );
    };
    let resumed = Checker::new(&two_writers())
        .max_steps(16)
        .resume(path)
        .expect("own checkpoint is compatible");
    assert!(resumed.verdict.passed(), "resume must finish the search");
    assert_eq!(
        control.stats.unique_states, resumed.stats.unique_states,
        "resumed search visited a different state set"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fires when both store-buffer litmus processes read 0 — the TSO-only
/// outcome, easy prey for the biased swarm.
struct BothReadZero;
impl Invariant for BothReadZero {
    fn name(&self) -> &'static str {
        "both-read-zero"
    }
    fn check(&self, m: &Machine) -> Option<Violation> {
        let halted =
            |p: u32| m.peek_next(tpa_tso::ProcId(p)) == tpa_tso::machine::NextEvent::Halted;
        let r = |p: u32| m.program(tpa_tso::ProcId(p)).and_then(|pr| pr.register(0));
        (halted(0) && halted(1) && r(0) == Some(0) && r(1) == Some(0)).then(|| Violation {
            invariant: "both-read-zero",
            detail: "store-buffer reordering observed".into(),
        })
    }
}

fn store_buffer() -> ScriptSystem {
    ScriptSystem::new(2, 2, |pid| {
        let me = pid.0;
        vec![
            Instr::Write { var: me, value: 1 },
            Instr::Read {
                var: 1 - me,
                reg: 0,
            },
            Instr::Halt,
        ]
    })
}

/// Deadline degradation still *hunts*: on a violating system the
/// fallback swarm pass finds the violation, so the report is a real
/// `Violation`, not a shrugging `Incomplete`.
#[test]
fn deadline_degradation_still_finds_violations_via_swarm() {
    let report = Checker::new(&store_buffer())
        .invariants(vec![Box::new(BothReadZero)])
        .max_steps(64)
        .deadline(Duration::ZERO)
        .seed(7)
        .exhaustive();
    let Verdict::Violation { invariant, .. } = &report.verdict else {
        panic!(
            "fallback swarm should catch the reordering, got {:?}",
            report.verdict
        );
    };
    assert_eq!(*invariant, "both-read-zero");
    // Completeness was still lost — the effort stats say so even though
    // the verdict is a violation.
    assert!(!report.stats.complete);
}

/// Fires as soon as any crash has discarded a buffered store — the
/// smallest possible crash-model target for swarm mode.
struct LostStore;
impl Invariant for LostStore {
    fn name(&self) -> &'static str {
        "lost-store"
    }
    fn check(&self, m: &Machine) -> Option<Violation> {
        (m.writes_lost() > 0).then(|| Violation {
            invariant: "lost-store",
            detail: format!("{} buffered store(s) lost to a crash", m.writes_lost()),
        })
    }
}

/// Swarm mode drives the same crash machinery as the exhaustive engine:
/// with a budget it picks crash directives, and the shrunk witness keeps
/// the store-losing crash.
#[test]
fn swarm_with_crash_budget_exercises_the_fault_model() {
    let report = Checker::new(&two_writers())
        .invariants(vec![Box::new(LostStore)])
        .max_steps(64)
        .max_crashes(1)
        .seed(11)
        .swarm(64);
    let Verdict::Violation {
        invariant,
        shrunk,
        rendered,
        ..
    } = &report.verdict
    else {
        panic!(
            "swarm must pick a crash directive, got {:?}",
            report.verdict
        );
    };
    assert_eq!(*invariant, "lost-store");
    assert!(shrunk.iter().any(|d| matches!(d, Directive::Crash(_))));
    // Minimal: one buffered write plus the crash that loses it.
    assert_eq!(shrunk.len(), 2, "{shrunk:?}");
    assert!(rendered.contains("CRASH"), "{rendered}");
}

/// Crash directives work under PSO too: the per-variable buffers are all
/// discarded at once (exhaustive, clean system, budget 1).
#[test]
fn pso_crashes_discard_all_per_var_buffers() {
    let report = Checker::new(&two_writers())
        .model(MemoryModel::Pso)
        .max_crashes(1)
        .max_steps(24)
        .exhaustive();
    assert!(report.stats.complete);
    report.assert_pass();
}
