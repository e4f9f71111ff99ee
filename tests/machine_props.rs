//! Machine-level invariant property tests over randomly generated
//! programs and schedules: coherence, fence semantics, criticality
//! uniqueness, and determinism — checked post-hoc against the event log.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use tpa::prelude::*;
use tpa::tso::scripted::{Instr, ScriptSystem};
use tpa::tso::{EventKind, ReadSource};

const VARS: u32 = 4;

/// Strategy: a short random program over a few variables.
fn arb_program() -> impl Strategy<Value = Vec<Instr>> {
    let instr = prop_oneof![
        (0..VARS, 0..8u64).prop_map(|(var, value)| Instr::Write { var, value }),
        (0..VARS).prop_map(|var| Instr::Read { var, reg: 0 }),
        Just(Instr::Fence),
        (0..VARS, 0..4u64, 0..4u64).prop_map(|(var, expected, new)| Instr::Cas {
            var,
            expected,
            new,
            success_reg: 1
        }),
    ];
    prop::collection::vec(instr, 1..12).prop_map(|mut v| {
        v.push(Instr::Halt);
        v
    })
}

/// Replays the event log symbolically and checks coherence and fence
/// semantics against it.
fn check_log_invariants(machine: &Machine, n: usize) -> Result<(), String> {
    // 1. Coherence: a memory read returns the last committed value.
    let mut mem: HashMap<VarId, Value> = HashMap::new();
    // 2. TSO buffer mirror per process (variable -> value, insertion kept
    //    simple since we only need membership and value).
    let mut buffers: Vec<Vec<(VarId, Value)>> = vec![Vec::new(); n];
    // 3. Criticality: first remote read per (p, v).
    let mut remote_read: HashSet<(ProcId, VarId)> = HashSet::new();
    let mut writer: HashMap<VarId, ProcId> = HashMap::new();

    for e in machine.log() {
        let b = &mut buffers[e.pid.index()];
        match e.kind {
            EventKind::IssueWrite { var, value } => match b.iter_mut().find(|(v, _)| *v == var) {
                Some(slot) => slot.1 = value,
                None => b.push((var, value)),
            },
            EventKind::CommitWrite { var, value } => {
                let pos = b
                    .iter()
                    .position(|(v, _)| *v == var)
                    .ok_or_else(|| format!("commit of {var} with no pending write"))?;
                let (_, pending) = b.remove(pos);
                if pending != value {
                    return Err(format!("commit value {value} != pending {pending}"));
                }
                mem.insert(var, value);
                let expect_critical = writer.get(&var) != Some(&e.pid);
                if e.critical != expect_critical {
                    return Err(format!("commit criticality wrong at seq {}", e.seq));
                }
                writer.insert(var, e.pid);
            }
            EventKind::Read { var, value, source } => match source {
                ReadSource::Buffer => {
                    let pending = b
                        .iter()
                        .find(|(v, _)| *v == var)
                        .map(|(_, val)| *val)
                        .ok_or_else(|| format!("buffer read of {var} with empty slot"))?;
                    if pending != value {
                        return Err(format!("buffer read {value} != pending {pending}"));
                    }
                    if e.critical {
                        return Err("buffer reads are never critical".to_owned());
                    }
                }
                ReadSource::Memory => {
                    let committed = mem.get(&var).copied().unwrap_or(0);
                    if committed != value {
                        return Err(format!(
                            "read of {var} returned {value}, memory holds {committed}"
                        ));
                    }
                    // All vars are remote here (no DSM owners): critical iff
                    // first remote read.
                    let first = remote_read.insert((e.pid, var));
                    if e.critical != first {
                        return Err(format!("read criticality wrong at seq {}", e.seq));
                    }
                }
            },
            EventKind::Cas {
                var,
                expected,
                new,
                success,
                observed,
            } => {
                if !b.is_empty() {
                    return Err("CAS executed with non-empty buffer".to_owned());
                }
                let committed = mem.get(&var).copied().unwrap_or(0);
                if observed != committed {
                    return Err(format!("CAS observed {observed}, memory holds {committed}"));
                }
                if success != (observed == expected) {
                    return Err("CAS success flag inconsistent".to_owned());
                }
                if success {
                    mem.insert(var, new);
                    writer.insert(var, e.pid);
                }
                remote_read.insert((e.pid, var));
            }
            EventKind::BeginFence => {}
            EventKind::EndFence if !b.is_empty() => {
                return Err(format!("EndFence with non-empty buffer at seq {}", e.seq));
            }
            EventKind::EndFence => {}
            _ => {}
        }
    }

    // Final memory agrees with the machine.
    for (var, value) in &mem {
        if machine.value(*var) != *value {
            return Err(format!("final memory mismatch on {var}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_machine_invariants_hold(
        programs in prop::collection::vec(arb_program(), 1..4),
        seed in 0u64..10_000,
        commit_num in 0u8..=255,
    ) {
        let n = programs.len();
        let sys = ScriptSystem::new(n, VARS as usize, |pid| programs[pid.index()].clone());
        let (machine, stats) =
            run_random(&sys, seed, CommitPolicy::Random { num: commit_num }, 50_000)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert!(stats.all_halted);
        check_log_invariants(&machine, n).map_err(TestCaseError::fail)?;
    }

    /// The machine is a deterministic function of the directive sequence:
    /// replaying a run's schedule on a fresh machine reproduces the log
    /// exactly.
    #[test]
    fn prop_schedule_replay_determinism(
        programs in prop::collection::vec(arb_program(), 1..4),
        seed in 0u64..10_000,
    ) {
        let n = programs.len();
        let sys = ScriptSystem::new(n, VARS as usize, |pid| programs[pid.index()].clone());
        let (machine, _) = run_random(&sys, seed, CommitPolicy::Random { num: 64 }, 50_000)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let mut replica = Machine::new(&sys);
        for d in machine.schedule() {
            replica.step(*d).map_err(|e| TestCaseError::fail(e.to_string()))?;
        }
        let a: Vec<_> = machine.log().iter().map(|e| (e.pid, e.kind, e.critical)).collect();
        let b: Vec<_> = replica.log().iter().map(|e| (e.pid, e.kind, e.critical)).collect();
        prop_assert_eq!(a, b);
    }

    /// Awareness is monotone and correct w.r.t. the information-flow
    /// definition: a process is aware of the writer of anything it read.
    #[test]
    fn prop_awareness_includes_read_writers(
        programs in prop::collection::vec(arb_program(), 2..4),
        seed in 0u64..10_000,
    ) {
        let n = programs.len();
        let sys = ScriptSystem::new(n, VARS as usize, |pid| programs[pid.index()].clone());
        let (machine, _) = run_random(&sys, seed, CommitPolicy::Random { num: 96 }, 50_000)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        // Recompute direct awareness from the log.
        let mut writer: std::collections::HashMap<VarId, ProcId> = Default::default();
        for e in machine.log() {
            match e.kind {
                EventKind::CommitWrite { var, .. } => {
                    writer.insert(var, e.pid);
                }
                EventKind::Cas { var, success: true, .. } => {
                    if let Some(q) = writer.get(&var) {
                        prop_assert!(
                            machine.awareness(e.pid).contains(*q) || *q == e.pid,
                            "{} CASed {var} last written by {q} but is unaware",
                            e.pid
                        );
                    }
                    writer.insert(var, e.pid);
                }
                EventKind::Read { var, source: ReadSource::Memory, .. } => {
                    if let Some(q) = writer.get(&var) {
                        prop_assert!(
                            machine.awareness(e.pid).contains(*q) || *q == e.pid,
                            "{} read {var} last written by {q} but is unaware",
                            e.pid
                        );
                    }
                }
                _ => {}
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Contention gauges are ordered: point ≤ interval ≤ total, and every
    /// completed passage has point ≥ 1.
    #[test]
    fn prop_contention_gauges_are_ordered(
        n in 2usize..5,
        seed in 0u64..5000,
    ) {
        use tpa::tso::analysis::contention;
        let lock = lock_by_name("ttas", n, 1).unwrap();
        let (machine, _) =
            run_random(lock.as_ref(), seed, CommitPolicy::Random { num: 96 }, 400_000)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
        for (_, c) in contention(machine.log()) {
            prop_assert!(c.point >= 1);
            prop_assert!(c.point <= c.interval, "{c:?}");
            prop_assert!(c.interval <= c.total, "{c:?}");
            prop_assert!(c.total <= n, "{c:?}");
        }
    }

    /// Shrinking preserves the property and yields a subsequence.
    #[test]
    fn prop_shrink_is_a_property_preserving_subsequence(
        programs in prop::collection::vec(arb_program(), 2..4),
        seed in 0u64..5000,
        target_var in 0..VARS,
    ) {
        use tpa::tso::shrink::shrink_schedule;
        use tpa::tso::MemoryModel;
        let n = programs.len();
        let sys = ScriptSystem::new(n, VARS as usize, |pid| programs[pid.index()].clone());
        let (machine, _) = run_random(&sys, seed, CommitPolicy::Random { num: 96 }, 50_000)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let target = machine.value(VarId(target_var));
        prop_assume!(target != 0); // only shrink towards a non-trivial outcome
        let property = move |m: &Machine| m.value(VarId(target_var)) == target;

        let shrunk =
            shrink_schedule(&sys, MemoryModel::Tso, machine.schedule(), property);
        // Subsequence of the original.
        let mut it = machine.schedule().iter();
        for d in &shrunk {
            prop_assert!(
                it.any(|orig| orig == d),
                "shrunk schedule is not a subsequence"
            );
        }
        // Still exhibits the property.
        let mut replay = Machine::new(&sys);
        let mut held = false;
        for d in &shrunk {
            replay.step(*d).map_err(|e| TestCaseError::fail(e.to_string()))?;
            if replay.value(VarId(target_var)) == target {
                held = true;
                break;
            }
        }
        prop_assert!(held, "shrunk schedule lost the property");
    }
}
