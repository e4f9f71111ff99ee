//! Differential tests for the incrementally maintained state hash.
//!
//! `Machine::state_hash` is a rolling per-component hash updated by
//! `step`; `Machine::recompute_state_hash` rebuilds the same value from
//! scratch. These tests drive machines through random schedules (reads,
//! writes, CAS, fences, PSO out-of-order commits) and assert the two
//! never diverge — the contract every future `step` extension must keep.

use std::panic::AssertUnwindSafe;

use tpa_tso::machine::StateKey;
use tpa_tso::sched::XorShift;
use tpa_tso::scripted::{Instr, ScriptSystem};
use tpa_tso::{
    CrashState, Directive, Event, EventKind, Machine, MemoryModel, Op, Outcome, ProcId, Program,
    System, VarId, VarSpec,
};

/// A 3-process workload exercising every directive-visible operation:
/// plain writes, remote reads, CAS (contended), and fences.
fn mixed_system() -> ScriptSystem {
    ScriptSystem::new(3, 3, |pid| {
        let me = pid.0;
        vec![
            Instr::Write {
                var: me % 3,
                value: me as u64 + 1,
            },
            Instr::Read {
                var: (me + 1) % 3,
                reg: 0,
            },
            Instr::Cas {
                var: 2,
                expected: 0,
                new: me as u64 + 10,
                success_reg: 1,
            },
            Instr::Write {
                var: (me + 2) % 3,
                value: 9,
            },
            Instr::Fence,
            Instr::Halt,
        ]
    })
}

fn enabled_all(machine: &Machine) -> Vec<Directive> {
    (0..machine.n())
        .flat_map(|i| machine.enabled_directives(ProcId(i as u32)))
        .collect()
}

fn assert_hash_in_sync(machine: &Machine, context: &str) {
    assert_eq!(
        machine.state_hash(),
        machine.recompute_state_hash(),
        "incremental hash diverged from full recomputation {context}"
    );
    assert_eq!(machine.state_key(), StateKey(machine.state_hash()));
}

#[test]
fn incremental_hash_matches_recomputation_on_random_schedules() {
    let sys = mixed_system();
    for model in [MemoryModel::Tso, MemoryModel::Pso] {
        for seed in 1..=20u64 {
            let mut machine = Machine::with_model(&sys, model);
            let mut rng = XorShift::new(seed);
            assert_hash_in_sync(&machine, "at the initial state");
            for step in 0..200 {
                let enabled = enabled_all(&machine);
                if enabled.is_empty() {
                    break;
                }
                let d = enabled[rng.below(enabled.len())];
                machine.step(d).expect("enabled directive must step");
                assert_hash_in_sync(
                    &machine,
                    &format!("after step {step} ({d:?}) under {model:?}, seed {seed}"),
                );
            }
        }
    }
}

#[test]
fn forks_carry_the_hash_and_search_forks_agree() {
    let sys = mixed_system();
    let mut machine = Machine::with_model(&sys, MemoryModel::Pso);
    let mut rng = XorShift::new(7);
    for _ in 0..40 {
        let enabled = enabled_all(&machine);
        if enabled.is_empty() {
            break;
        }
        machine
            .step(enabled[rng.below(enabled.len())])
            .expect("enabled directive must step");
        let fork = machine.fork();
        let search = machine.fork_for_search();
        assert_eq!(fork.state_hash(), machine.state_hash());
        assert_eq!(search.state_hash(), machine.state_hash());
        assert_hash_in_sync(&fork, "on a full fork");
        assert_hash_in_sync(&search, "on a search fork");
        // Behavioural equivalence: same moves available.
        assert_eq!(enabled_all(&search), enabled_all(&machine));
    }
}

#[test]
fn search_forks_step_identically_to_full_forks() {
    let sys = mixed_system();
    let root = Machine::with_model(&sys, MemoryModel::Pso);
    let mut full = root.fork();
    let mut search = root.fork_for_search();
    let mut rng = XorShift::new(99);
    for _ in 0..120 {
        let enabled = enabled_all(&full);
        assert_eq!(enabled, enabled_all(&search));
        if enabled.is_empty() {
            break;
        }
        let d = enabled[rng.below(enabled.len())];
        full.step(d).expect("full fork steps");
        search.step(d).expect("search fork steps");
        assert_eq!(full.state_hash(), search.state_hash());
        assert_hash_in_sync(&search, "stepping a search fork");
    }
}

/// Every lock of the portfolio, plus the recoverable bakery (so that
/// crash budget 1 also reaches processes that are down and recover), at
/// `n` processes, each native and compiled.
fn lock_systems(n: usize) -> Vec<(String, Box<dyn System>)> {
    let mut locks = tpa_algos::all_locks(n, 1);
    locks.push(Box::new(tpa_algos::sim::bakery::BakeryLock::recoverable(
        n, 1,
    )));
    let mut out: Vec<(String, Box<dyn System>)> = Vec::new();
    for lock in locks {
        let vm = lock.compile_vm().expect("every lock compiles");
        let name = lock.name().to_owned();
        out.push((format!("{name} (native)"), lock));
        out.push((format!("{name} (compiled)"), Box::new(vm)));
    }
    out
}

/// The states of a seeded random walk of at most `steps` steps from the
/// initial state of `sys` under `model` with crash budget `crashes`, the
/// initial state first. The walk stops early at a terminal state.
fn walk(
    sys: &dyn System,
    model: MemoryModel,
    crashes: u32,
    seed: u64,
    steps: usize,
) -> Vec<Machine> {
    let mut m = Machine::with_model(sys, model);
    m.set_crash_budget(crashes);
    let mut rng = XorShift::new(seed);
    let mut states = vec![m.fork()];
    for _ in 0..steps {
        let enabled = enabled_all(&m);
        if enabled.is_empty() {
            break;
        }
        m.step(enabled[rng.below(enabled.len())])
            .expect("enabled directive must step");
        states.push(m.fork());
    }
    states
}

/// Buffered writes plus remote reads over all processes: how much
/// per-process state a machine holds that a fork into it must clear.
fn clutter(m: &Machine) -> usize {
    let vars = m.spec().count();
    (0..m.n())
        .map(|p| {
            let p = ProcId(p as u32);
            m.buffer_len(p)
                + (0..vars)
                    .filter(|&v| m.has_remote_read(p, VarId(v as u32)))
                    .count()
        })
        .sum()
}

/// Asserts that `got` is the search fork `want` is: same hash, same
/// recomputed hash, same moves, same last event and same crash counters.
fn assert_same_search_fork(want: &Machine, got: &Machine, ctx: &str) {
    assert_eq!(got.state_hash(), want.state_hash(), "{ctx}: state hash");
    assert_eq!(
        got.recompute_state_hash(),
        want.recompute_state_hash(),
        "{ctx}: recomputed state hash"
    );
    assert_eq!(enabled_all(got), enabled_all(want), "{ctx}: enabled");
    assert_eq!(got.log().last(), want.log().last(), "{ctx}: last event");
    assert_eq!(
        (
            got.crash_budget(),
            got.crashes_executed(),
            got.writes_lost()
        ),
        (
            want.crash_budget(),
            want.crashes_executed(),
            want.writes_lost()
        ),
        "{ctx}: crash counters"
    );
}

/// `fork_for_search_into` yields exactly what `fork_for_search` returns,
/// whatever the destination held before: a search machine of another
/// state with more buffered writes and remote reads, a full machine, or
/// a machine of another system (more processes and variables, other
/// program types, native where the source is compiled and vice versa).
/// Every state of a random walk on every lock, native and compiled,
/// under TSO and PSO with crash budgets 0 and 1, is forked into each
/// kind of destination; the results must agree with a fresh search fork
/// on the hash, its recomputation, the enabled directives, the last
/// event, the crash counters, and the event and successor hash of every
/// enabled directive.
#[test]
fn recycled_search_forks_equal_fresh_ones() {
    let others = lock_systems(3);
    for (i, (name, sys)) in lock_systems(2).iter().enumerate() {
        // A system of another size, in the other execution mode.
        let (other_name, other) = &others[(i + 3) % others.len()];
        for model in [MemoryModel::Tso, MemoryModel::Pso] {
            for crashes in [0, 1] {
                let ctx = format!("{name}, {model:?}, crash budget {crashes}");
                let far = walk(sys.as_ref(), model, crashes, 0xfa2, 40)
                    .into_iter()
                    .max_by_key(clutter)
                    .expect("a walk has its initial state");
                assert!(clutter(&far) > 0, "{ctx}: no dirty destination");
                let foreign = walk(other.as_ref(), model, crashes, 0xf0e, 40)
                    .pop()
                    .expect("a walk has its initial state");
                let dirty: [(String, Box<dyn Fn() -> Machine>); 3] = [
                    ("another state".into(), Box::new(|| far.fork_for_search())),
                    ("a full machine".into(), Box::new(|| far.fork())),
                    (
                        format!("a machine of {other_name}"),
                        Box::new(|| foreign.fork_for_search()),
                    ),
                ];
                for (step, state) in walk(sys.as_ref(), model, crashes, 0x5eed, 60)
                    .iter()
                    .enumerate()
                {
                    let want = state.fork_for_search();
                    for (kind, make) in &dirty {
                        let ctx = format!("{ctx}, step {step}, forked into {kind}");
                        let mut got = make();
                        state.fork_for_search_into(&mut got);
                        assert_same_search_fork(&want, &got, &ctx);
                        for d in enabled_all(&want) {
                            let mut fresh = want.fork_for_search();
                            let mut recycled = make();
                            state.fork_for_search_into(&mut recycled);
                            assert_eq!(
                                recycled.step(d).expect("recycled fork steps"),
                                fresh.step(d).expect("fresh fork steps"),
                                "{ctx}: event of {d:?}"
                            );
                            assert_same_search_fork(
                                &fresh,
                                &recycled,
                                &format!("{ctx}, after {d:?}"),
                            );
                        }
                    }
                }
            }
        }
    }
}

/// `Machine::is_terminal` agrees with the enabled directives on every
/// state of random walks on every lock, native and compiled, under TSO
/// and PSO with crash budgets 0 and 1. It also agrees on every successor
/// of those states once one crash is (again) allowed, so that crashes
/// late in a passage are covered: among the states checked are terminal
/// ones and ones where only a process that is down has a move.
#[test]
fn is_terminal_equals_no_enabled_directive() {
    let (mut terminal, mut only_recovery) = (0, 0);
    for (name, sys) in lock_systems(2) {
        for model in [MemoryModel::Tso, MemoryModel::Pso] {
            for crashes in [0, 1] {
                for seed in 1..=4 {
                    for (step, state) in walk(sys.as_ref(), model, crashes, seed, 400)
                        .iter()
                        .enumerate()
                    {
                        let mut armed = state.fork_for_search();
                        armed.set_crash_budget(1);
                        let successors = enabled_all(&armed).into_iter().map(|d| {
                            let mut next = armed.fork_for_search();
                            next.step(d).expect("enabled directive must step");
                            next
                        });
                        let checked = [state.fork_for_search(), armed.fork_for_search()];
                        for m in checked.into_iter().chain(successors) {
                            let enabled = enabled_all(&m);
                            assert_eq!(
                                m.is_terminal(),
                                enabled.is_empty(),
                                "{name}, {model:?}, crash budget {crashes}, seed {seed}, \
                                 step {step}"
                            );
                            terminal += m.is_terminal() as usize;
                            only_recovery += (!enabled.is_empty()
                                && enabled
                                    .iter()
                                    .all(|d| m.crash_state(d.pid()) == CrashState::Down))
                                as usize;
                        }
                    }
                }
            }
        }
    }
    assert!(terminal > 0, "no terminal state checked");
    assert!(only_recovery > 0, "no state where only a recovery is left");
}

#[test]
fn search_forks_refuse_in_place_erasure() {
    let sys = mixed_system();
    let machine = Machine::with_model(&sys, MemoryModel::Tso);
    let mut search = machine.fork_for_search();
    let erased: std::collections::BTreeSet<ProcId> = [ProcId(2)].into();
    assert!(
        search.erase_in_place(&erased).is_err(),
        "search forks dropped the commit history; erasure must be rejected"
    );
}

/// A search fork keeps none of the lower bound's bookkeeping, so each
/// accessor for it panics, naming `fork_for_search`, rather than answer
/// from data that stopped being maintained; a full fork of the same
/// machine still answers, with the original's values.
#[test]
fn search_forks_refuse_accounting_queries() {
    let sys = mixed_system();
    let mut machine = Machine::with_model(&sys, MemoryModel::Tso);
    let p = ProcId(0);
    // p0 runs its whole script: a remote read, a CAS and a fence, so
    // every counter below is non-zero.
    while !machine.enabled_directives(p).is_empty() {
        machine.step(Directive::Issue(p)).expect("p0 runs solo");
    }
    let cas_var = VarId(2);
    let search = machine.fork_for_search();
    type Query = fn(&Machine, ProcId, VarId);
    let queries: [(&str, Query); 5] = [
        ("metrics", |m, _, _| {
            let _ = m.metrics();
        }),
        ("accessed", |m, _, v| {
            let _ = m.accessed(v);
        }),
        ("awareness", |m, p, _| {
            let _ = m.awareness(p);
        }),
        ("fences_completed", |m, p, _| {
            let _ = m.fences_completed(p);
        }),
        ("criticals", |m, p, _| {
            let _ = m.criticals(p);
        }),
    ];
    for (name, query) in queries {
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| query(&search, p, cas_var)))
            .expect_err(&format!("{name} answered on a search fork"));
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(
            message.contains("fork_for_search"),
            "{name} panicked without naming fork_for_search: {message:?}"
        );
    }

    let full = machine.fork();
    assert_eq!(
        full.metrics().proc(p).totals,
        machine.metrics().proc(p).totals
    );
    assert_eq!(full.accessed(cas_var), machine.accessed(cas_var));
    assert!(full.accessed(cas_var).contains(&p));
    assert_eq!(full.awareness(p), machine.awareness(p));
    assert!(full.awareness(p).contains(p));
    assert_eq!(full.fences_completed(p), 2, "the CAS and the fence");
    assert_eq!(full.criticals(p), machine.criticals(p));
    assert!(full.criticals(p) > 0);
}

#[test]
fn erasure_rebuilds_the_hash() {
    // p0 runs alone, p1 never moves — erasing p1 is legal, and the
    // rolling hash must match a from-scratch recomputation afterwards.
    let sys = ScriptSystem::new(2, 2, |pid| {
        vec![
            Instr::Write {
                var: pid.0,
                value: 5,
            },
            Instr::Fence,
            Instr::Halt,
        ]
    });
    let mut machine = Machine::new(&sys);
    for _ in 0..6 {
        let mine: Vec<Directive> = machine.enabled_directives(ProcId(0));
        let Some(&d) = mine.first() else { break };
        machine.step(d).expect("p0 runs solo");
    }
    let erased: std::collections::BTreeSet<ProcId> = [ProcId(1)].into();
    machine
        .erase_in_place(&erased)
        .expect("erasing an idle process is legal");
    assert_hash_in_sync(&machine, "after in-place erasure");
}

/// A minimal recoverable program: write your slot, fence, halt — and on a
/// crash restart from the top (`recover` returns `true`). Small enough
/// that random crash-bearing schedules terminate quickly, rich enough to
/// exercise issue/commit/fence around `Crash` and `Recover` events.
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

/// Random schedules that may pick `Crash` directives (budget 2, so both
/// crash-stop and recovery paths occur) keep the incremental hash equal
/// to a from-scratch recomputation — the same contract the crash-free
/// differential above pins, now covering `do_crash`'s buffer discard and
/// the `Recover` re-entry on the next issue.
#[test]
fn crash_directives_keep_the_hash_in_sync() {
    for (model, recoverable) in [
        (MemoryModel::Tso, false),
        (MemoryModel::Tso, true),
        (MemoryModel::Pso, false),
        (MemoryModel::Pso, true),
    ] {
        for seed in 1..=20u64 {
            let sys = mixed_system();
            let restart = RestartSystem(3);
            let mut machine = if recoverable {
                Machine::with_model(&restart, model)
            } else {
                Machine::with_model(&sys, model)
            };
            machine.set_crash_budget(2);
            assert_hash_in_sync(&machine, "after setting the crash budget");
            let mut rng = XorShift::new(seed);
            let mut crashed = 0;
            for step in 0..200 {
                let enabled = enabled_all(&machine);
                if enabled.is_empty() {
                    break;
                }
                let d = enabled[rng.below(enabled.len())];
                if matches!(d, Directive::Crash(_)) {
                    crashed += 1;
                }
                machine.step(d).expect("enabled directive must step");
                assert_hash_in_sync(
                    &machine,
                    &format!(
                        "after step {step} ({d:?}) under {model:?}, \
                         recoverable = {recoverable}, seed {seed}"
                    ),
                );
                let fork = machine.fork();
                let search = machine.fork_for_search();
                assert_eq!(fork.state_hash(), machine.state_hash());
                assert_eq!(search.state_hash(), machine.state_hash());
            }
            assert!(crashed <= 2, "the budget caps crash directives");
        }
    }
}

/// A deterministic crash + recovery schedule: the hash survives the
/// buffer discard, the `Recover` event, and replay on a fresh zero-budget
/// machine reaches the same state hash (crash replay is budget-free).
#[test]
fn crash_and_recovery_replay_to_the_same_hash() {
    let sys = RestartSystem(2);
    let p0 = ProcId(0);
    let schedule = [
        Directive::Issue(p0), // buffer the write
        Directive::Crash(p0), // lose it
        Directive::Issue(p0), // Recover event
        Directive::Issue(p0), // re-issue the write
        Directive::Issue(p0), // BeginFence
        Directive::Issue(p0), // commit
        Directive::Issue(p0), // EndFence
    ];
    let mut live = Machine::new(&sys);
    live.set_crash_budget(1);
    for d in schedule {
        live.step(d).expect("schedule must replay");
        assert_hash_in_sync(&live, &format!("after {d:?} on the live machine"));
    }
    assert_eq!(live.crash_state(p0), CrashState::Running);
    assert_eq!(live.writes_lost(), 1);
    let log = live.log();
    assert!(log
        .iter()
        .any(|e| matches!(e.kind, EventKind::Crash { lost: 1 })));
    assert!(log.iter().any(|e| matches!(e.kind, EventKind::Recover)));

    // Replay on a fresh machine with no budget: crash directives stay
    // legal (witness replay must never depend on the search budget).
    let mut replay = Machine::new(&sys);
    for d in schedule {
        replay.step(d).expect("budget-free replay must succeed");
        assert_hash_in_sync(&replay, &format!("after {d:?} on the replay machine"));
    }
    assert_eq!(replay.writes_lost(), live.writes_lost());
    // Budgets differ (1 spent vs 0 forever) but the hash covers them, so
    // compare recomputations of each against itself only; the *log* is
    // identical event-for-event.
    assert_eq!(replay.log().len(), live.log().len());
    for (a, b) in replay.log().iter().zip(live.log().iter()) {
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.pid, b.pid);
    }
}

/// `Event::congruent` treats the new kinds like the other transition
/// events: same-process crashes are congruent regardless of how many
/// stores they lost, recoveries likewise, and nothing is congruent across
/// kinds or processes.
#[test]
fn congruence_covers_crash_and_recover_events() {
    let ev = |pid: u32, kind: EventKind| Event {
        seq: 0,
        pid: ProcId(pid),
        kind,
        critical: false,
    };
    let c0 = ev(0, EventKind::Crash { lost: 0 });
    let c3 = ev(0, EventKind::Crash { lost: 3 });
    assert!(
        c0.congruent(&c3),
        "congruence ignores the lost-store count, like it ignores values"
    );
    assert!(!c0.congruent(&ev(1, EventKind::Crash { lost: 0 })));
    let r = ev(0, EventKind::Recover);
    assert!(r.congruent(&ev(0, EventKind::Recover)));
    assert!(!r.congruent(&ev(1, EventKind::Recover)));
    assert!(!c0.congruent(&r), "a crash is not a recovery");
    assert!(!c0.congruent(&ev(0, EventKind::Enter)));
    // Crash/Recover are transition events (Definition 3 bookkeeping), so
    // the adversary machinery treats them as special.
    assert!(c0.is_transition() && r.is_transition());
    assert!(!c0.is_fence() && !r.is_fence());
}

/// Collision sanity for the FxHash-based state keying: every distinct
/// behavioural state reached by a small exhaustive enumeration gets a
/// distinct `StateKey`. (A 64-bit hash over a few thousand states should
/// never collide; if this fires, the component mixing is broken.)
#[test]
fn state_keys_do_not_collide_across_reachable_states() {
    use std::collections::hash_map::Entry;
    use std::collections::HashMap;

    let sys = mixed_system();
    // Fingerprint = everything state_hash covers, read through public
    // accessors, so a collision is distinguishable from a revisit.
    fn fingerprint(m: &Machine) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for v in 0..3 {
            let var = tpa_tso::VarId(v);
            let _ = write!(s, "v{v}={},{:?};", m.value(var), m.writer(var));
        }
        for p in 0..m.n() {
            let pid = ProcId(p as u32);
            let _ = write!(
                s,
                "p{p}:{:?},{:?},{:?}|",
                m.mode(pid),
                m.pending_vars(pid),
                m.peek_next(pid)
            );
        }
        s
    }

    let mut seen: HashMap<u64, String> = HashMap::new();
    let mut frontier = vec![Machine::with_model(&sys, MemoryModel::Pso)];
    let mut visited = 0usize;
    while let Some(m) = frontier.pop() {
        if visited > 20_000 {
            break;
        }
        match seen.entry(m.state_hash()) {
            Entry::Occupied(prev) => {
                // Same key: must be the same behavioural state.
                assert_eq!(
                    prev.get(),
                    &fingerprint(&m),
                    "StateKey collision between distinct states"
                );
                continue;
            }
            Entry::Vacant(slot) => {
                slot.insert(fingerprint(&m));
            }
        }
        visited += 1;
        for d in enabled_all(&m) {
            let mut child = m.fork_for_search();
            child.step(d).expect("enabled directive must step");
            frontier.push(child);
        }
    }
    assert!(visited > 500, "enumeration too small: {visited} states");
}
