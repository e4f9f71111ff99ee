//! Differential tests for the symmetry-reduced exhaustive search.
//!
//! Symmetry reduction must be a pure cache optimisation: turning it on
//! may only shrink the visited-state count — the verdict, and on a
//! violation the (lexicographically least) witness schedule, are
//! identical to the concrete search. These tests pin that contract over
//! the lock portfolio, check that the canonical-state count is itself
//! deterministic across thread counts, and cover both fallback paths: a
//! system that never declared symmetry (the fenceless bakery) and a
//! system whose declaration the start-of-run validation must reject.

use tpa_algos::sim::bakery::BakeryLock;
use tpa_check::{Checker, Features, Invariant, Report, StateKeys, Verdict, Violation};
use tpa_tso::scripted::{Instr, ScriptSystem};
use tpa_tso::Machine;

fn keys_of(symmetry: bool) -> Features {
    Features {
        keys: if symmetry {
            StateKeys::Canonical
        } else {
            StateKeys::Concrete
        },
        ..Features::default()
    }
}

/// Locks whose `System::symmetric()` declaration should survive
/// validation and engage canonical caching.
const SYMMETRIC: &[&str] = &[
    "tas", "ttas", "ticketq", "filter", "mcs", "dijkstra", "splitter",
];

/// Locks that are genuinely pid-asymmetric (ticket tie-breaks by pid
/// order, a fixed tournament tree, the one-bit scan) and must fall back
/// to concrete keys.
const ASYMMETRIC: &[&str] = &["bakery", "onebit", "tournament"];

fn run(system: &dyn tpa_tso::System, symmetry: bool, threads: usize) -> Report {
    Checker::new(system)
        .max_steps(60)
        .max_transitions(4_000_000)
        .threads(threads)
        .features(keys_of(symmetry))
        .exhaustive()
}

/// The whole portfolio at n = 2: same verdict with symmetry on and off,
/// canonical caching engaged exactly for the locks that declared (valid)
/// symmetry, and a strict state-count reduction wherever it engaged.
#[test]
fn portfolio_n2_symmetry_is_verdict_preserving_and_reduces_states() {
    for lock in tpa_algos::all_locks(2, 1) {
        let off = run(lock.as_ref(), false, 2);
        let on = run(lock.as_ref(), true, 2);
        let name = on.algo.clone();
        assert!(off.stats.complete && on.stats.complete, "{name}: budget");
        assert!(!off.symmetry, "{name}: symmetry off must stay off");
        off.assert_pass();
        on.assert_pass();
        if SYMMETRIC.contains(&name.as_str()) {
            assert!(on.symmetry, "{name}: declared symmetry failed to engage");
            assert!(
                on.stats.unique_states < off.stats.unique_states,
                "{name}: canonical caching merged nothing ({} states)",
                on.stats.unique_states
            );
        } else {
            assert!(ASYMMETRIC.contains(&name.as_str()), "unknown lock {name}");
            assert!(!on.symmetry, "{name}: asymmetric lock engaged");
            assert_eq!(
                on.stats.unique_states, off.stats.unique_states,
                "{name}: fallback search changed the state count"
            );
        }
    }
}

/// On `ticketq` and `mcs` at n = 3 the canonical-state count is
/// identical at 1, 2 and 4 threads. Those two locks are covered because
/// every renaming is valid in every state they reach, so each state's
/// canonical key is the same across its symmetry orbit. Where validity
/// depends on the state (`splitter`, `filter`), two states of one orbit
/// can have different keys, and a multi-thread pass's count depends on
/// which state of the orbit a worker expands first: stable on one
/// thread, not across thread counts.
#[test]
fn canonical_state_count_is_stable_across_thread_counts() {
    for name in ["ticketq", "mcs"] {
        let lock = tpa_algos::lock_by_name(name, 3, 1).unwrap();
        let base = run(lock.as_ref(), true, 1);
        assert!(base.symmetry, "{name}: symmetry failed to engage");
        assert!(base.stats.complete);
        base.assert_pass();
        for threads in [2, 4] {
            let par = run(lock.as_ref(), true, threads);
            assert_eq!(
                base.stats.unique_states, par.stats.unique_states,
                "{name}: canonical state count varies with thread count ({threads})"
            );
            par.assert_pass();
        }
    }
}

/// Negative control, fallback path: the fenceless bakery never declared
/// symmetry, so `Features::default().canonical()` is a no-op — and the deterministic
/// witness is bit-for-bit the concrete one.
#[test]
fn fenceless_bakery_witness_survives_the_symmetry_flag() {
    let broken = BakeryLock::without_doorway_fence(2, 1);
    let off = run(&broken, false, 2);
    let on = run(&broken, true, 2);
    assert!(!on.symmetry, "bakery must not engage symmetry");
    let (Verdict::Violation { found: a, .. }, Verdict::Violation { found: b, .. }) =
        (&off.verdict, &on.verdict)
    else {
        panic!("both searches must catch the fenceless bakery");
    };
    assert_eq!(a, b, "symmetry flag changed the bakery witness");
}

/// Fires when both store-buffer litmus processes read 0 — the TSO-only
/// outcome.
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

/// The classic store-buffer litmus as a pid-equivariant script: process
/// `p` writes `v[p]` then reads `v[1-p]` — the mirror image of its peer.
fn symmetric_store_buffer() -> ScriptSystem {
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
    .pid_equivariant()
}

/// Negative control, engaged path: a *violating* system where symmetry
/// genuinely engages. The canonical cache merges the mirror-image
/// states, yet the reported witness is still the concrete
/// lexicographically-least violating schedule.
#[test]
fn engaged_symmetry_preserves_the_witness_on_a_violating_system() {
    let sys = symmetric_store_buffer();
    let check = |symmetry: bool, threads: usize| {
        Checker::new(&sys)
            .invariants(vec![Box::new(BothReadZero)])
            .max_steps(16)
            .threads(threads)
            .features(keys_of(symmetry))
            .exhaustive()
    };
    let off = check(false, 1);
    let on = check(true, 1);
    assert!(on.symmetry, "equivariant script failed to engage symmetry");
    let (Verdict::Violation { found: a, .. }, Verdict::Violation { found: b, .. }) =
        (&off.verdict, &on.verdict)
    else {
        panic!("both searches must observe the store-buffer reordering");
    };
    assert_eq!(a, b, "engaged symmetry changed the witness");
    // The witness also survives parallelism under symmetry.
    for threads in [2, 4] {
        let par = check(true, threads);
        let Verdict::Violation { found, .. } = &par.verdict else {
            panic!("missed at {threads} threads");
        };
        assert_eq!(found, a, "witness varies at {threads} threads");
    }
}

/// A script that *claims* equivariance but is not (the processes write
/// different values): start-of-run validation must reject the group and
/// fall back to concrete keys, with the verdict unharmed.
#[test]
fn invalid_symmetry_declarations_are_rejected_at_validation() {
    let liar = ScriptSystem::new(2, 2, |pid| {
        vec![
            Instr::Write {
                var: pid.0,
                // p0 writes 1, p1 writes 7: renaming p0 ↔ p1 does not map
                // executions onto each other.
                value: if pid.0 == 0 { 1 } else { 7 },
            },
            Instr::Fence,
            Instr::Halt,
        ]
    })
    .pid_equivariant();
    let off = run(&liar, false, 1);
    let on = run(&liar, true, 1);
    assert!(!on.symmetry, "validation accepted a non-equivariant script");
    assert_eq!(on.stats.unique_states, off.stats.unique_states);
    on.assert_pass();
}
