//! Property tests for erasure (`E^{-Y}`) and the execution calculus:
//! Fact 1, Lemma 1, and IN-set behaviour on generated workloads.

use std::collections::BTreeSet;

use proptest::prelude::*;
use tpa::prelude::*;
use tpa::tso::erase::{erase, project};
use tpa::tso::scripted::{Instr, ScriptSystem};

/// A family of workloads where each process touches only its own column
/// of variables — everyone is invisible to everyone, so every subset is
/// erasable.
fn independent_system(n: usize, writes: usize) -> ScriptSystem {
    ScriptSystem::new(n, n, move |pid| {
        let mut code = Vec::new();
        for w in 0..writes {
            code.push(Instr::Write {
                var: pid.0,
                value: w as Value + 1,
            });
            code.push(Instr::Fence);
            code.push(Instr::Read { var: pid.0, reg: 0 });
        }
        code.push(Instr::Halt);
        code
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Lemma 1: erasing unaware processes yields a valid execution with
    /// identical projections for the survivors.
    #[test]
    fn prop_lemma1_projection_identical(
        n in 2usize..6,
        writes in 1usize..4,
        seed in 0u64..1000,
        erase_mask in 0u32..32,
    ) {
        let sys = independent_system(n, writes);
        let (machine, stats) =
            run_random(&sys, seed, CommitPolicy::Random { num: 64 }, 100_000).unwrap();
        prop_assert!(stats.all_halted);

        let erased: BTreeSet<ProcId> =
            (0..n as u32).filter(|i| erase_mask & (1 << i) != 0).map(ProcId).collect();
        let out = erase(&sys, &machine, &erased).unwrap();
        prop_assert!(out.projection_identical, "{:?}", out.first_mismatch);
        prop_assert!(out.criticality_preserved);

        // Survivor projections match the original exactly.
        for i in 0..n as u32 {
            let p = ProcId(i);
            if erased.contains(&p) {
                prop_assert!(project(out.machine.log(), p).is_empty());
            } else {
                let a: Vec<_> = project(machine.log(), p).iter().map(|e| e.kind).collect();
                let b: Vec<_> =
                    project(out.machine.log(), p).iter().map(|e| e.kind).collect();
                prop_assert_eq!(a, b);
            }
        }
    }

    /// Fact 1(2): (E^{-Y})^{-Z} = E^{-(Y ∪ Z)}.
    #[test]
    fn prop_fact1_erasure_composes(
        n in 3usize..6,
        seed in 0u64..1000,
        y_mask in 0u32..8,
        z_mask in 0u32..8,
    ) {
        let sys = independent_system(n, 2);
        let (machine, _) =
            run_random(&sys, seed, CommitPolicy::Random { num: 64 }, 100_000).unwrap();
        let y: BTreeSet<ProcId> =
            (0..n as u32).filter(|i| y_mask & (1 << i) != 0).map(ProcId).collect();
        let z: BTreeSet<ProcId> =
            (0..n as u32).filter(|i| z_mask & (1 << i) != 0).map(ProcId).collect();
        let yz: BTreeSet<ProcId> = y.union(&z).copied().collect();

        let via_steps = {
            let step1 = erase(&sys, &machine, &y).unwrap();
            let step2 = erase(&sys, &step1.machine, &z).unwrap();
            step2.machine.log().iter().map(|e| (e.pid, e.kind)).collect::<Vec<_>>()
        };
        let direct = erase(&sys, &machine, &yz).unwrap();
        let direct_log: Vec<_> = direct.machine.log().iter().map(|e| (e.pid, e.kind)).collect();
        prop_assert_eq!(via_steps, direct_log);
    }

    /// Erasing the empty set is the identity on the event log.
    #[test]
    fn prop_empty_erasure_identity(n in 2usize..5, seed in 0u64..1000) {
        let sys = independent_system(n, 2);
        let (machine, _) =
            run_random(&sys, seed, CommitPolicy::Random { num: 64 }, 100_000).unwrap();
        let out = erase(&sys, &machine, &BTreeSet::new()).unwrap();
        let a: Vec<_> = machine.log().iter().map(|e| (e.pid, e.kind)).collect();
        let b: Vec<_> = out.machine.log().iter().map(|e| (e.pid, e.kind)).collect();
        prop_assert_eq!(a, b);
    }

    /// Criticality counting is stable across schedules for independent
    /// workloads: each process' criticals depend only on its own program.
    #[test]
    fn prop_criticals_schedule_independent(
        n in 2usize..5,
        seed_a in 0u64..500,
        seed_b in 500u64..1000,
    ) {
        let sys = independent_system(n, 3);
        let (ma, _) = run_random(&sys, seed_a, CommitPolicy::Random { num: 64 }, 100_000).unwrap();
        let (mb, _) = run_random(&sys, seed_b, CommitPolicy::Random { num: 64 }, 100_000).unwrap();
        for i in 0..n as u32 {
            prop_assert_eq!(ma.criticals(ProcId(i)), mb.criticals(ProcId(i)));
        }
    }
}

/// Runs `sys` under a random schedule with a crash budget of 1, forcing
/// `victim` to crash the first time it has a buffered store (so the crash
/// actually discards data). Scripts have no recovery section, so the
/// victim crash-stops.
fn run_with_forced_crash(sys: &ScriptSystem, n: usize, victim: ProcId, seed: u64) -> Machine {
    let mut m = Machine::new(sys);
    m.set_crash_budget(1);
    let mut rng = tpa::tso::sched::XorShift::new(seed);
    for _ in 0..10_000 {
        let enabled: Vec<Directive> = (0..n)
            .flat_map(|i| m.enabled_directives(ProcId(i as u32)))
            .filter(|d| match d {
                Directive::Crash(p) => *p == victim,
                _ => true,
            })
            .collect();
        if enabled.is_empty() {
            break;
        }
        let forced = enabled
            .iter()
            .copied()
            .find(|d| matches!(d, Directive::Crash(p) if *p == victim));
        let d = forced.unwrap_or_else(|| enabled[rng.below(enabled.len())]);
        m.step(d).unwrap();
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Lemma 1 survives the fault model: erasing unaware processes from a
    /// history containing a `Crash` event still yields a valid execution
    /// with identical survivor projections — whether the crashed process
    /// is erased (its crash vanishes with it) or retained (the filtered
    /// replay re-executes the crash, budget-free).
    #[test]
    fn prop_lemma1_with_crash_events(
        n in 2usize..6,
        seed in 1u64..500,
        victim_pick in 0u32..6,
        erase_mask in 0u32..32,
    ) {
        use tpa::tso::EventKind;
        let victim = ProcId(victim_pick % n as u32);
        let sys = independent_system(n, 2);
        let machine = run_with_forced_crash(&sys, n, victim, seed);
        let crashed = machine
            .log()
            .iter()
            .any(|e| matches!(e.kind, EventKind::Crash { .. }));
        prop_assume!(crashed); // tiny interleavings may halt before buffering

        let erased: BTreeSet<ProcId> =
            (0..n as u32).filter(|i| erase_mask & (1 << i) != 0).map(ProcId).collect();
        let out = erase(&sys, &machine, &erased).unwrap();
        prop_assert!(out.projection_identical, "{:?}", out.first_mismatch);
        prop_assert!(out.criticality_preserved);
        if erased.contains(&victim) {
            let crash_remains = out
                .machine
                .log()
                .iter()
                .any(|e| matches!(e.kind, EventKind::Crash { .. }));
            prop_assert!(!crash_remains, "erasing the victim must take its crash along");
            prop_assert_eq!(out.machine.writes_lost(), 0);
        } else {
            prop_assert_eq!(out.machine.writes_lost(), machine.writes_lost());
            prop_assert_eq!(out.machine.crashes_executed(), machine.crashes_executed());
        }
    }
}

/// A two-instruction recoverable program (write your slot, fence, halt;
/// crash restarts from the top) so the root-crate erasure tests can cover
/// `Recover` events, which scripts cannot produce.
#[derive(Clone)]
struct RestartProgram {
    me: u32,
    step: u8,
}

impl Program for RestartProgram {
    fn peek(&self) -> Op {
        match self.step {
            0 => Op::Write(VarId(self.me), 1),
            1 => Op::Fence,
            _ => Op::Halt,
        }
    }
    fn apply(&mut self, _outcome: Outcome) {
        self.step += 1;
    }
    fn state_hash(&self, mut h: &mut dyn std::hash::Hasher) {
        use std::hash::Hash;
        self.step.hash(&mut h);
    }
    fn recover(&mut self) -> bool {
        self.step = 0;
        true
    }
}

struct RestartSystem(usize);

impl System for RestartSystem {
    fn n(&self) -> usize {
        self.0
    }
    fn vars(&self) -> VarSpec {
        VarSpec::remote(self.0)
    }
    fn program(&self, pid: ProcId) -> Box<dyn Program> {
        Box::new(RestartProgram { me: pid.0, step: 0 })
    }
    fn name(&self) -> &str {
        "restart"
    }
}

#[test]
fn lemma1_holds_across_crash_and_recovery() {
    use tpa::tso::EventKind;
    let sys = RestartSystem(2);
    let p0 = ProcId(0);
    let p1 = ProcId(1);
    let mut m = Machine::new(&sys);
    m.set_crash_budget(1);
    // p0: buffer the write, crash (losing it), recover, redo the passage.
    for d in [
        Directive::Issue(p0), // buffered write
        Directive::Crash(p0), // discards it
        Directive::Issue(p0), // Recover event
        Directive::Issue(p0), // re-issue
        Directive::Issue(p0), // BeginFence
        Directive::Issue(p0), // commit
        Directive::Issue(p0), // EndFence
    ] {
        m.step(d).unwrap();
    }
    // p1 runs its whole program (write, fence brackets, commit), never
    // touching p0's column.
    for _ in 0..4 {
        m.step(Directive::Issue(p1)).unwrap();
    }
    let has = |log: &[tpa::tso::Event], pred: &dyn Fn(&EventKind) -> bool| {
        log.iter().any(|e| pred(&e.kind))
    };
    assert!(has(m.log(), &|k| matches!(k, EventKind::Crash { lost: 1 })));
    assert!(has(m.log(), &|k| matches!(k, EventKind::Recover)));

    // Erase the bystander: the crashed-and-recovered projection survives
    // intact, crash and recovery events included.
    let out = erase(&sys, &m, &[p1].into_iter().collect()).unwrap();
    assert!(out.projection_identical, "{:?}", out.first_mismatch);
    assert!(has(out.machine.log(), &|k| matches!(
        k,
        EventKind::Crash { lost: 1 }
    )));
    assert!(has(out.machine.log(), &|k| matches!(k, EventKind::Recover)));
    assert_eq!(out.machine.writes_lost(), 1);

    // Erase the victim: survivors replay identically and the fault
    // disappears from the history entirely.
    let out = erase(&sys, &m, &[p0].into_iter().collect()).unwrap();
    assert!(out.projection_identical, "{:?}", out.first_mismatch);
    assert!(!has(out.machine.log(), &|k| matches!(
        k,
        EventKind::Crash { .. } | EventKind::Recover
    )));
    assert_eq!(out.machine.writes_lost(), 0);
}

#[test]
fn erasing_after_lock_contention_respects_awareness() {
    // On a real lock, erasure of a process the others have observed must
    // be detectably invalid (not silently wrong).
    let lock = lock_by_name("ticketq", 3, 1).unwrap();
    let (machine, _) = run_round_robin(lock.as_ref(), CommitPolicy::Lazy, 1_000_000).unwrap();
    // p1 and p2 CASed the same dispenser as p0: they are aware of p0.
    let mut aware_of_p0 = 0;
    for i in 1..3u32 {
        if machine.awareness(ProcId(i)).contains(ProcId(0)) {
            aware_of_p0 += 1;
        }
    }
    assert!(aware_of_p0 > 0, "ticket dispenser must create awareness");
    let erased: BTreeSet<ProcId> = [ProcId(0)].into_iter().collect();
    // Erasing the observed process must be detected: either the filtered
    // replay diverges hard enough to error (survivors run off the end of
    // their shortened programs), or it completes with non-identical
    // projections. Silent success would be a Lemma 1 soundness bug.
    match erase(&lock, &machine, &erased) {
        Err(_) => {}
        Ok(out) => assert!(
            !out.projection_identical,
            "erasing an observed process must perturb the execution"
        ),
    }
}

#[test]
fn fact1_part1_erasure_distributes_over_concatenation() {
    // (E1 E2)^{-Y} = E1^{-Y} E2^{-Y}: erasing a schedule equals erasing a
    // prefix and a suffix independently and concatenating, for any split
    // point. Checked on the directive level (the semantic content of
    // Fact 1(1) for schedules).
    let sys = independent_system(4, 2);
    let (machine, _) = run_random(&sys, 77, CommitPolicy::Random { num: 64 }, 100_000).unwrap();
    let erased: BTreeSet<ProcId> = [ProcId(1), ProcId(3)].into_iter().collect();
    let full = machine.schedule().to_vec();
    for split in [0, full.len() / 3, full.len() / 2, full.len()] {
        let (e1, e2) = full.split_at(split);
        let filter = |part: &[Directive]| -> Vec<Directive> {
            part.iter()
                .copied()
                .filter(|d| !erased.contains(&d.pid()))
                .collect()
        };
        let mut concat = filter(e1);
        concat.extend(filter(e2));
        assert_eq!(concat, filter(&full), "split at {split}");
    }
}

#[test]
fn awareness_is_transitive_through_issue_time_chains() {
    // Definition 1's second clause, positively: p0 commits to v0; p1 reads
    // v0 (now aware of p0), then issues+commits to v1; p2 reads v1 and
    // must be aware of BOTH p1 and (transitively) p0.
    use tpa::tso::scripted::{Instr, ScriptSystem};
    let sys = ScriptSystem::new(3, 2, |pid| match pid.0 {
        0 => vec![Instr::Write { var: 0, value: 1 }, Instr::Fence, Instr::Halt],
        1 => vec![
            Instr::Read { var: 0, reg: 0 },    // becomes aware of p0 ...
            Instr::Write { var: 1, value: 2 }, // ... BEFORE issuing this write
            Instr::Fence,
            Instr::Halt,
        ],
        _ => vec![Instr::Read { var: 1, reg: 0 }, Instr::Halt],
    });
    let mut m = Machine::new(&sys);
    // p0: write, fence (commit).
    for _ in 0..4 {
        m.step(Directive::Issue(ProcId(0))).unwrap();
    }
    // p1: read v0 (aware of p0), issue v1, fence (commit).
    for _ in 0..5 {
        m.step(Directive::Issue(ProcId(1))).unwrap();
    }
    // p2: read v1.
    m.step(Directive::Issue(ProcId(2))).unwrap();
    assert!(m.awareness(ProcId(2)).contains(ProcId(1)));
    assert!(
        m.awareness(ProcId(2)).contains(ProcId(0)),
        "issue-time snapshot must carry the transitive chain"
    );
}
