//! Fetch&increment counter (CAS retry loop).
//!
//! The paper's counter object supports a single operation,
//! `fetch&increment`, which atomically increments the counter and returns
//! its previous value. Built from a comparison primitive, the natural
//! implementation is a read + CAS retry loop — *weak obstruction-free*
//! (a process running alone completes in two steps) and *adaptive*: under
//! contention `k` an operation may retry up to `k-1` times, each retry a
//! CAS and hence a fence. It is thus a live specimen of the trade-off:
//! the object's adaptivity is paid for in fences, as Corollary 1 proves
//! is unavoidable.

use tpa_tso::{Op, Outcome, Value, VarId, VarSpecBuilder};

use crate::opmachine::{OpMachine, SharedObject, SubStep};

/// Opcode of `fetch&increment`.
pub const OP_FETCH_INC: u32 = 0;
/// Opcode of a plain read of the counter (diagnostic).
pub const OP_READ: u32 = 1;

/// A CAS-loop fetch&increment counter.
#[derive(Clone, Debug)]
pub struct CasCounter {
    var: Option<VarId>,
    initial: Value,
}

impl CasCounter {
    /// A counter starting at 0.
    pub fn new() -> Self {
        CasCounter {
            var: None,
            initial: 0,
        }
    }

    /// A counter starting at `initial`.
    pub fn starting_at(initial: Value) -> Self {
        CasCounter { var: None, initial }
    }

    fn var(&self) -> VarId {
        self.var.expect("declare_vars must run before start_op")
    }
}

impl Default for CasCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedObject for CasCounter {
    fn declare_vars(&mut self, b: &mut VarSpecBuilder) {
        self.var = Some(b.var("counter", self.initial, None));
    }

    fn start_op(&self, opcode: u32, _arg: Value) -> Box<dyn OpMachine> {
        match opcode {
            OP_FETCH_INC => Box::new(FetchInc {
                var: self.var(),
                state: FiState::Read,
            }),
            OP_READ => Box::new(ReadOnce {
                var: self.var(),
                done: false,
            }),
            other => panic!("counter has no opcode {other}"),
        }
    }

    fn name(&self) -> &str {
        "cas-counter"
    }
}

#[derive(Clone, Copy, Hash, Debug)]
enum FiState {
    Read,
    Cas(Value),
}

#[derive(Clone)]
struct FetchInc {
    var: VarId,
    state: FiState,
}

impl OpMachine for FetchInc {
    fn state_hash(&self, mut h: &mut dyn std::hash::Hasher) {
        use std::hash::Hash;
        self.state.hash(&mut h);
    }

    fn peek(&self) -> Op {
        match self.state {
            FiState::Read => Op::Read(self.var),
            FiState::Cas(v) => Op::Cas {
                var: self.var,
                expected: v,
                new: v + 1,
            },
        }
    }

    fn apply(&mut self, outcome: Outcome) -> SubStep {
        match (self.state, outcome) {
            (FiState::Read, Outcome::ReadValue(v)) => {
                self.state = FiState::Cas(v);
                SubStep::Continue
            }
            (FiState::Cas(v), Outcome::CasResult { success: true, .. }) => SubStep::Done(v),
            (
                FiState::Cas(_),
                Outcome::CasResult {
                    success: false,
                    observed,
                },
            ) => {
                // Retry directly from the observed value: saves the re-read.
                self.state = FiState::Cas(observed);
                SubStep::Continue
            }
            (state, outcome) => panic!("outcome {outcome:?} does not match {state:?}"),
        }
    }
}

#[derive(Clone)]
struct ReadOnce {
    var: VarId,
    done: bool,
}

impl OpMachine for ReadOnce {
    fn state_hash(&self, mut h: &mut dyn std::hash::Hasher) {
        use std::hash::Hash;
        self.done.hash(&mut h);
    }

    fn peek(&self) -> Op {
        Op::Read(self.var)
    }

    fn apply(&mut self, outcome: Outcome) -> SubStep {
        match outcome {
            Outcome::ReadValue(v) => {
                self.done = true;
                SubStep::Done(v)
            }
            other => panic!("unexpected outcome {other:?} for read"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object_system::{ObjectSystem, OpCall};
    use tpa_tso::sched::CommitPolicy;

    #[test]
    fn sequential_fetch_inc_returns_consecutive_values() {
        let sys = ObjectSystem::new(CasCounter::new(), 1, |_| {
            (0..5)
                .map(|_| OpCall {
                    opcode: OP_FETCH_INC,
                    arg: 0,
                })
                .collect()
        });
        let m = crate::testutil::complete_or_dump(&sys, CommitPolicy::Lazy, 10_000);
        assert_eq!(sys.results(&m, tpa_tso::ProcId(0)), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn concurrent_fetch_inc_hands_out_unique_tickets() {
        for seed in 1..=6u64 {
            let sys = ObjectSystem::new(CasCounter::new(), 4, |_| {
                (0..3)
                    .map(|_| OpCall {
                        opcode: OP_FETCH_INC,
                        arg: 0,
                    })
                    .collect()
            });
            let m = sys
                .run_random(seed, CommitPolicy::Random { num: 64 }, 200_000)
                .unwrap();
            let mut all: Vec<Value> = (0..4)
                .flat_map(|p| sys.results(&m, tpa_tso::ProcId(p)))
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..12).collect::<Vec<_>>(), "seed {seed}");
        }
    }

    #[test]
    fn starting_value_is_respected() {
        let sys = ObjectSystem::new(CasCounter::starting_at(10), 1, |_| {
            vec![
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
        let m = crate::testutil::complete_or_dump(&sys, CommitPolicy::Lazy, 1_000);
        assert_eq!(sys.results(&m, tpa_tso::ProcId(0)), vec![10, 11]);
    }

    #[test]
    fn solo_operation_is_one_fence() {
        let sys = ObjectSystem::new(CasCounter::new(), 1, |_| {
            vec![OpCall {
                opcode: OP_FETCH_INC,
                arg: 0,
            }]
        });
        let m = crate::testutil::complete_or_dump(&sys, CommitPolicy::Lazy, 1_000);
        let stats = &m.metrics().proc(tpa_tso::ProcId(0)).completed[0];
        assert_eq!(stats.counters.fences, 1, "one CAS");
    }
}
