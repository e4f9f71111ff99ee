//! Lock-based objects — the converse direction of Section 5.
//!
//! The paper notes that counters, stacks and queues "can be easily
//! implemented using the mutual exclusion algorithm presented by Attiya
//! et al. \[6\]", inheriting the lock's complexity per operation. This
//! module provides that construction on the simulator: a [`LockedCounter`]
//! protects the object state with an inline test-and-set lock (a CAS
//! spin), so every operation costs the lock's fences (two, solo: the
//! acquiring CAS and the release fence) plus the state access — a
//! **constant-fence but contention-blocking** counter to contrast with
//! the wait-free-ish CAS-loop counter of [`crate::counter`].

use tpa_tso::{Op, Outcome, Value, VarId, VarSpecBuilder};

use crate::opmachine::{OpMachine, SharedObject, SubStep};

/// Opcode of `fetch&increment`.
pub const OP_FETCH_INC: u32 = 0;
/// Opcode of a plain read of the counter value.
pub const OP_READ: u32 = 1;

/// A counter protected by an inline test-and-set lock.
#[derive(Clone, Debug)]
pub struct LockedCounter {
    lock: Option<VarId>,
    count: Option<VarId>,
    initial: Value,
}

impl LockedCounter {
    /// A locked counter starting at 0.
    pub fn new() -> Self {
        LockedCounter {
            lock: None,
            count: None,
            initial: 0,
        }
    }

    /// A locked counter starting at `initial`.
    pub fn starting_at(initial: Value) -> Self {
        LockedCounter {
            lock: None,
            count: None,
            initial,
        }
    }

    fn ids(&self) -> (VarId, VarId) {
        (
            self.lock.expect("declare_vars must run first"),
            self.count.unwrap(),
        )
    }
}

impl Default for LockedCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedObject for LockedCounter {
    fn declare_vars(&mut self, b: &mut VarSpecBuilder) {
        self.lock = Some(b.var("locked-counter.lock", 0, None));
        self.count = Some(b.var("locked-counter.count", self.initial, None));
    }

    fn start_op(&self, opcode: u32, _arg: Value) -> Box<dyn OpMachine> {
        let (lock, count) = self.ids();
        match opcode {
            OP_FETCH_INC => Box::new(LockedFetchInc {
                lock,
                count,
                state: LfState::Acquire,
                old: 0,
            }),
            OP_READ => Box::new(LockedRead {
                lock,
                count,
                state: LrState::Acquire,
                val: 0,
            }),
            other => panic!("locked counter has no opcode {other}"),
        }
    }

    fn name(&self) -> &str {
        "locked-counter"
    }
}

#[derive(Clone, Copy, Hash, Debug)]
enum LfState {
    /// `CAS(lock, 0, 1)` spin.
    Acquire,
    /// Read the protected state.
    ReadCount,
    /// Write the incremented value (buffered).
    WriteCount,
    /// Release: `lock := 0`, then fence (commits count and lock in order).
    WriteUnlock,
    FenceRelease,
}

#[derive(Clone)]
struct LockedFetchInc {
    lock: VarId,
    count: VarId,
    state: LfState,
    old: Value,
}

impl OpMachine for LockedFetchInc {
    fn state_hash(&self, mut h: &mut dyn std::hash::Hasher) {
        use std::hash::Hash;
        self.state.hash(&mut h);
        self.old.hash(&mut h);
    }

    fn peek(&self) -> Op {
        match self.state {
            LfState::Acquire => Op::Cas {
                var: self.lock,
                expected: 0,
                new: 1,
            },
            LfState::ReadCount => Op::Read(self.count),
            LfState::WriteCount => Op::Write(self.count, self.old + 1),
            LfState::WriteUnlock => Op::Write(self.lock, 0),
            LfState::FenceRelease => Op::Fence,
        }
    }

    fn apply(&mut self, outcome: Outcome) -> SubStep {
        match (self.state, outcome) {
            (LfState::Acquire, Outcome::CasResult { success, .. }) => {
                if success {
                    self.state = LfState::ReadCount;
                }
                SubStep::Continue
            }
            (LfState::ReadCount, Outcome::ReadValue(v)) => {
                self.old = v;
                self.state = LfState::WriteCount;
                SubStep::Continue
            }
            (LfState::WriteCount, Outcome::WriteIssued) => {
                self.state = LfState::WriteUnlock;
                SubStep::Continue
            }
            (LfState::WriteUnlock, Outcome::WriteIssued) => {
                self.state = LfState::FenceRelease;
                SubStep::Continue
            }
            (LfState::FenceRelease, Outcome::FenceDone) => SubStep::Done(self.old),
            (state, outcome) => panic!("outcome {outcome:?} does not match {state:?}"),
        }
    }
}

#[derive(Clone, Copy, Hash, Debug)]
enum LrState {
    Acquire,
    ReadCount,
    WriteUnlock,
    FenceRelease,
}

#[derive(Clone)]
struct LockedRead {
    lock: VarId,
    count: VarId,
    state: LrState,
    val: Value,
}

impl OpMachine for LockedRead {
    fn state_hash(&self, mut h: &mut dyn std::hash::Hasher) {
        use std::hash::Hash;
        self.state.hash(&mut h);
        self.val.hash(&mut h);
    }

    fn peek(&self) -> Op {
        match self.state {
            LrState::Acquire => Op::Cas {
                var: self.lock,
                expected: 0,
                new: 1,
            },
            LrState::ReadCount => Op::Read(self.count),
            LrState::WriteUnlock => Op::Write(self.lock, 0),
            LrState::FenceRelease => Op::Fence,
        }
    }

    fn apply(&mut self, outcome: Outcome) -> SubStep {
        match (self.state, outcome) {
            (LrState::Acquire, Outcome::CasResult { success, .. }) => {
                if success {
                    self.state = LrState::ReadCount;
                }
                SubStep::Continue
            }
            (LrState::ReadCount, Outcome::ReadValue(v)) => {
                self.val = v;
                self.state = LrState::WriteUnlock;
                SubStep::Continue
            }
            (LrState::WriteUnlock, Outcome::WriteIssued) => {
                self.state = LrState::FenceRelease;
                SubStep::Continue
            }
            (LrState::FenceRelease, Outcome::FenceDone) => SubStep::Done(self.val),
            (state, outcome) => panic!("outcome {outcome:?} does not match {state:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object_system::{ObjectSystem, OpCall};
    use tpa_tso::sched::CommitPolicy;
    use tpa_tso::{ProcId, Value};

    #[test]
    fn sequential_semantics_match_the_cas_counter() {
        let sys = ObjectSystem::new(LockedCounter::new(), 1, |_| {
            vec![
                OpCall {
                    opcode: OP_FETCH_INC,
                    arg: 0,
                },
                OpCall {
                    opcode: OP_FETCH_INC,
                    arg: 0,
                },
                OpCall {
                    opcode: OP_READ,
                    arg: 0,
                },
            ]
        });
        let m = crate::testutil::complete_or_dump(&sys, CommitPolicy::Lazy, 10_000);
        assert_eq!(sys.results(&m, ProcId(0)), vec![0, 1, 2]);
    }

    #[test]
    fn concurrent_tickets_are_unique() {
        for seed in 1..=8u64 {
            let sys = ObjectSystem::new(LockedCounter::new(), 4, |_| {
                vec![
                    OpCall {
                        opcode: OP_FETCH_INC,
                        arg: 0
                    };
                    2
                ]
            });
            let m = sys
                .run_random(seed, CommitPolicy::Random { num: 64 }, 500_000)
                .unwrap();
            let mut all: Vec<Value> = (0..4).flat_map(|p| sys.results(&m, ProcId(p))).collect();
            all.sort_unstable();
            assert_eq!(all, (0..8).collect::<Vec<_>>(), "seed {seed}");
        }
    }

    #[test]
    fn solo_operation_pays_the_locks_two_fences() {
        let sys = ObjectSystem::new(LockedCounter::new(), 1, |_| {
            vec![OpCall {
                opcode: OP_FETCH_INC,
                arg: 0,
            }]
        });
        let m = crate::testutil::complete_or_dump(&sys, CommitPolicy::Lazy, 10_000);
        let span = &m.metrics().proc(ProcId(0)).completed[0];
        assert_eq!(span.counters.fences, 2, "acquiring CAS + release fence");
    }

    #[test]
    fn release_publishes_count_before_lock() {
        // The count write is issued before the unlock write, so TSO's FIFO
        // commits guarantee the next holder sees the updated count — the
        // correctness hinges exactly on the ordering the paper's model
        // gives for free on TSO.
        let sys = ObjectSystem::new(LockedCounter::new(), 2, |_| {
            vec![OpCall {
                opcode: OP_FETCH_INC,
                arg: 0,
            }]
        });
        for seed in 1..=8u64 {
            let m = sys
                .run_random(seed, CommitPolicy::Random { num: 32 }, 500_000)
                .unwrap();
            let mut all: Vec<Value> = (0..2).flat_map(|p| sys.results(&m, ProcId(p))).collect();
            all.sort_unstable();
            assert_eq!(all, vec![0, 1], "seed {seed}: lost update");
        }
    }
}
