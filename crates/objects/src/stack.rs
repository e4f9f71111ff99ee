//! Treiber stack over a never-reused node pool.
//!
//! The classic lock-free stack: `top` holds the index (+1, with 0 as
//! null) of the top node; `push` links a freshly allocated node in with a
//! CAS, `pop` unlinks with a CAS. Node slots come from a monotone bump
//! allocator and are never reused, which rules out the ABA problem without
//! tagged pointers. Capacity is fixed at construction (`prefill +
//! max_pushes` slots).
//!
//! Pre-filling implements the paper's N-limited-use counter from a stack:
//! initialise the stack to `⟨N-1; …; 0⟩` (0 on top) and `fetch&increment`
//! is simply `pop` (opcode [`OP_POP`]).

use tpa_tso::{Op, Outcome, Value, VarId, VarSpecBuilder};

use crate::opmachine::{OpMachine, SharedObject, SubStep, EMPTY};

/// Opcode of `pop` (the ticket operation).
pub const OP_POP: u32 = 0;
/// Opcode of `push(arg)`.
pub const OP_PUSH: u32 = 1;

/// A Treiber stack with a fixed-capacity node pool.
#[derive(Clone, Debug)]
pub struct TreiberStack {
    prefill: Vec<Value>,
    extra_capacity: usize,
    top: Option<VarId>,
    alloc: Option<VarId>,
    value_base: Option<VarId>,
    next_base: Option<VarId>,
}

impl TreiberStack {
    /// An empty stack able to hold `capacity` pushes in total.
    pub fn new(capacity: usize) -> Self {
        TreiberStack {
            prefill: Vec::new(),
            extra_capacity: capacity,
            top: None,
            alloc: None,
            value_base: None,
            next_base: None,
        }
    }

    /// A stack pre-filled with `items` (first element at the bottom, last
    /// element on top), with room for `extra_capacity` further pushes.
    pub fn with_items(items: Vec<Value>, extra_capacity: usize) -> Self {
        TreiberStack {
            prefill: items,
            extra_capacity,
            top: None,
            alloc: None,
            value_base: None,
            next_base: None,
        }
    }

    /// The paper's limited-use-counter initialisation: `⟨N-1; …; 0⟩`, so
    /// that N pops return `0, 1, …, N-1`.
    pub fn counter_prefill(n: usize) -> Self {
        Self::with_items((0..n as Value).rev().collect(), 0)
    }

    fn capacity(&self) -> usize {
        self.prefill.len() + self.extra_capacity
    }

    fn ids(&self) -> (VarId, VarId, VarId, VarId) {
        (
            self.top.expect("declare_vars must run first"),
            self.alloc.unwrap(),
            self.value_base.unwrap(),
            self.next_base.unwrap(),
        )
    }
}

impl SharedObject for TreiberStack {
    fn declare_vars(&mut self, b: &mut VarSpecBuilder) {
        let cap = self.capacity().max(1);
        // Pre-linked list: slot i holds prefill[i] and points to slot i-1
        // (encoded as link value i, since links are index+1 with 0 = null).
        self.top = Some(b.var("stack.top", self.prefill.len() as Value, None));
        self.alloc = Some(b.var("stack.alloc", self.prefill.len() as Value, None));
        for i in 0..cap {
            let init = self.prefill.get(i).copied().unwrap_or(0);
            let v = b.var(format!("stack.value[{i}]"), init, None);
            if i == 0 {
                self.value_base = Some(v);
            }
        }
        for i in 0..cap {
            let init = if i < self.prefill.len() {
                i as Value
            } else {
                0
            };
            let v = b.var(format!("stack.next[{i}]"), init, None);
            if i == 0 {
                self.next_base = Some(v);
            }
        }
    }

    fn start_op(&self, opcode: u32, arg: Value) -> Box<dyn OpMachine> {
        let (top, alloc, value_base, next_base) = self.ids();
        match opcode {
            OP_POP => Box::new(Pop {
                top,
                value_base,
                next_base,
                state: PopState::ReadTop,
            }),
            OP_PUSH => Box::new(Push {
                top,
                alloc,
                value_base,
                next_base,
                capacity: self.capacity() as Value,
                arg,
                state: PushState::ReadAlloc,
                slot: 0,
            }),
            other => panic!("stack has no opcode {other}"),
        }
    }

    fn name(&self) -> &str {
        "treiber-stack"
    }
}

fn nth(base: VarId, i: Value) -> VarId {
    VarId(base.0 + i as u32)
}

#[derive(Clone, Copy, Hash, Debug)]
enum PopState {
    ReadTop,
    ReadNext { t: Value },
    CasTop { t: Value, nx: Value },
    ReadValue { t: Value },
}

#[derive(Clone)]
struct Pop {
    top: VarId,
    value_base: VarId,
    next_base: VarId,
    state: PopState,
}

impl OpMachine for Pop {
    fn state_hash(&self, mut h: &mut dyn std::hash::Hasher) {
        use std::hash::Hash;
        self.state.hash(&mut h);
    }

    fn peek(&self) -> Op {
        match self.state {
            PopState::ReadTop => Op::Read(self.top),
            PopState::ReadNext { t } => Op::Read(nth(self.next_base, t - 1)),
            PopState::CasTop { t, nx } => Op::Cas {
                var: self.top,
                expected: t,
                new: nx,
            },
            PopState::ReadValue { t } => Op::Read(nth(self.value_base, t - 1)),
        }
    }

    fn apply(&mut self, outcome: Outcome) -> SubStep {
        let read = |outcome: Outcome| match outcome {
            Outcome::ReadValue(v) => v,
            other => panic!("unexpected outcome {other:?} for read"),
        };
        match self.state {
            PopState::ReadTop => {
                let t = read(outcome);
                if t == 0 {
                    return SubStep::Done(EMPTY);
                }
                self.state = PopState::ReadNext { t };
                SubStep::Continue
            }
            PopState::ReadNext { t } => {
                self.state = PopState::CasTop {
                    t,
                    nx: read(outcome),
                };
                SubStep::Continue
            }
            PopState::CasTop { t, .. } => match outcome {
                Outcome::CasResult { success: true, .. } => {
                    self.state = PopState::ReadValue { t };
                    SubStep::Continue
                }
                Outcome::CasResult { success: false, .. } => {
                    self.state = PopState::ReadTop;
                    SubStep::Continue
                }
                other => panic!("unexpected outcome {other:?} for CAS"),
            },
            PopState::ReadValue { .. } => SubStep::Done(read(outcome)),
        }
    }
}

#[derive(Clone, Copy, Hash, Debug)]
enum PushState {
    ReadAlloc,
    CasAlloc { a: Value },
    WriteValue,
    ReadTop,
    WriteNext { t: Value },
    FencePublish { t: Value },
    CasTop { t: Value },
}

#[derive(Clone)]
struct Push {
    top: VarId,
    alloc: VarId,
    value_base: VarId,
    next_base: VarId,
    capacity: Value,
    arg: Value,
    state: PushState,
    slot: Value,
}

impl OpMachine for Push {
    fn state_hash(&self, mut h: &mut dyn std::hash::Hasher) {
        use std::hash::Hash;
        self.state.hash(&mut h);
        self.slot.hash(&mut h);
    }

    fn peek(&self) -> Op {
        match self.state {
            PushState::ReadAlloc => Op::Read(self.alloc),
            PushState::CasAlloc { a } => Op::Cas {
                var: self.alloc,
                expected: a,
                new: a + 1,
            },
            PushState::WriteValue => Op::Write(nth(self.value_base, self.slot), self.arg),
            PushState::ReadTop => Op::Read(self.top),
            PushState::WriteNext { t } => Op::Write(nth(self.next_base, self.slot), t),
            PushState::FencePublish { .. } => Op::Fence,
            PushState::CasTop { t } => Op::Cas {
                var: self.top,
                expected: t,
                new: self.slot + 1,
            },
        }
    }

    fn apply(&mut self, outcome: Outcome) -> SubStep {
        let read = |outcome: Outcome| match outcome {
            Outcome::ReadValue(v) => v,
            other => panic!("unexpected outcome {other:?} for read"),
        };
        match self.state {
            PushState::ReadAlloc => {
                let a = read(outcome);
                if a >= self.capacity {
                    return SubStep::Done(EMPTY); // pool exhausted: report failure
                }
                self.state = PushState::CasAlloc { a };
                SubStep::Continue
            }
            PushState::CasAlloc { a } => match outcome {
                Outcome::CasResult { success: true, .. } => {
                    self.slot = a;
                    self.state = PushState::WriteValue;
                    SubStep::Continue
                }
                Outcome::CasResult {
                    success: false,
                    observed,
                } => {
                    if observed >= self.capacity {
                        return SubStep::Done(EMPTY);
                    }
                    self.state = PushState::CasAlloc { a: observed };
                    SubStep::Continue
                }
                other => panic!("unexpected outcome {other:?} for CAS"),
            },
            PushState::WriteValue => {
                self.state = PushState::ReadTop;
                SubStep::Continue
            }
            PushState::ReadTop => {
                self.state = PushState::WriteNext { t: read(outcome) };
                SubStep::Continue
            }
            PushState::WriteNext { t } => {
                self.state = PushState::FencePublish { t };
                SubStep::Continue
            }
            PushState::FencePublish { t } => match outcome {
                Outcome::FenceDone => {
                    self.state = PushState::CasTop { t };
                    SubStep::Continue
                }
                other => panic!("unexpected outcome {other:?} for fence"),
            },
            PushState::CasTop { .. } => match outcome {
                Outcome::CasResult { success: true, .. } => SubStep::Done(self.arg),
                Outcome::CasResult { success: false, .. } => {
                    self.state = PushState::ReadTop;
                    SubStep::Continue
                }
                other => panic!("unexpected outcome {other:?} for CAS"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object_system::{ObjectSystem, OpCall};
    use tpa_tso::sched::CommitPolicy;
    use tpa_tso::ProcId;

    #[test]
    fn lifo_order_sequentially() {
        let sys = ObjectSystem::new(TreiberStack::new(8), 1, |_| {
            vec![
                OpCall {
                    opcode: OP_PUSH,
                    arg: 10,
                },
                OpCall {
                    opcode: OP_PUSH,
                    arg: 20,
                },
                OpCall {
                    opcode: OP_PUSH,
                    arg: 30,
                },
                OpCall {
                    opcode: OP_POP,
                    arg: 0,
                },
                OpCall {
                    opcode: OP_POP,
                    arg: 0,
                },
                OpCall {
                    opcode: OP_POP,
                    arg: 0,
                },
                OpCall {
                    opcode: OP_POP,
                    arg: 0,
                },
            ]
        });
        let m = crate::testutil::complete_or_dump(&sys, CommitPolicy::Lazy, 10_000);
        assert_eq!(
            sys.results(&m, ProcId(0)),
            vec![10, 20, 30, 30, 20, 10, EMPTY]
        );
    }

    #[test]
    fn counter_prefill_pops_in_order() {
        let sys = ObjectSystem::new(TreiberStack::counter_prefill(4), 1, |_| {
            vec![
                OpCall {
                    opcode: OP_POP,
                    arg: 0
                };
                5
            ]
        });
        let m = crate::testutil::complete_or_dump(&sys, CommitPolicy::Lazy, 10_000);
        assert_eq!(sys.results(&m, ProcId(0)), vec![0, 1, 2, 3, EMPTY]);
    }

    #[test]
    fn concurrent_pops_take_distinct_items() {
        for seed in 1..=6u64 {
            let sys = ObjectSystem::new(TreiberStack::counter_prefill(8), 4, |_| {
                vec![
                    OpCall {
                        opcode: OP_POP,
                        arg: 0
                    };
                    2
                ]
            });
            let m = sys
                .run_random(seed, CommitPolicy::Random { num: 64 }, 400_000)
                .unwrap();
            let mut all: Vec<Value> = (0..4).flat_map(|p| sys.results(&m, ProcId(p))).collect();
            all.sort_unstable();
            assert_eq!(all, (0..8).collect::<Vec<_>>(), "seed {seed}");
        }
    }

    #[test]
    fn concurrent_pushes_then_drain_preserves_multiset() {
        for seed in 1..=4u64 {
            let sys = ObjectSystem::new(TreiberStack::new(8), 4, |pid| {
                vec![
                    OpCall {
                        opcode: OP_PUSH,
                        arg: 100 + pid.0 as Value,
                    },
                    OpCall {
                        opcode: OP_PUSH,
                        arg: 200 + pid.0 as Value,
                    },
                ]
            });
            let m = sys
                .run_random(seed, CommitPolicy::Random { num: 64 }, 400_000)
                .unwrap();
            // Drain sequentially on a fresh single-process system is not
            // possible (state is gone) — instead check the in-memory list.
            let mut contents = Vec::new();
            let mut cursor = m.value(tpa_tso::VarId(0)); // top
            while cursor != 0 {
                contents.push(m.value(tpa_tso::VarId(2 + (cursor - 1) as u32)));
                cursor = m.value(tpa_tso::VarId(2 + 8 + (cursor - 1) as u32));
            }
            contents.sort_unstable();
            let mut expected: Vec<Value> = (0..4).flat_map(|p| [100 + p, 200 + p]).collect();
            expected.sort_unstable();
            assert_eq!(contents, expected, "seed {seed}");
        }
    }

    #[test]
    fn push_beyond_capacity_reports_failure() {
        let sys = ObjectSystem::new(TreiberStack::new(1), 1, |_| {
            vec![
                OpCall {
                    opcode: OP_PUSH,
                    arg: 1,
                },
                OpCall {
                    opcode: OP_PUSH,
                    arg: 2,
                },
            ]
        });
        let m = crate::testutil::complete_or_dump(&sys, CommitPolicy::Lazy, 10_000);
        assert_eq!(sys.results(&m, ProcId(0)), vec![1, EMPTY]);
    }
}
