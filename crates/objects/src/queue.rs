//! Bounded MPMC array queue.
//!
//! A reserve-then-fill queue: `enqueue` claims a slot by CAS on `tail`,
//! writes the item, fences, and marks the slot ready; `dequeue` claims a
//! slot by CAS on `head` and reads the item once ready. Slots are never
//! reused (capacity equals total enqueues), so no ABA and no wrap-around
//! logic.
//!
//! Weak obstruction-freedom caveat: a dequeuer that claimed a slot whose
//! enqueuer stalled between reserve and ready spins; a *solo* run never
//! hits this (its own enqueues always complete first), so the paper's
//! progress condition holds. Pre-filling with `⟨0; …; N-1⟩` turns
//! `dequeue` into the paper's limited-use `fetch&increment`.

use tpa_tso::{Op, Outcome, Value, VarId, VarSpecBuilder};

use crate::opmachine::{OpMachine, SharedObject, SubStep, EMPTY};

/// Opcode of `dequeue` (the ticket operation).
pub const OP_DEQUEUE: u32 = 0;
/// Opcode of `enqueue(arg)`.
pub const OP_ENQUEUE: u32 = 1;

/// A bounded array queue.
#[derive(Clone, Debug)]
pub struct ArrayQueue {
    prefill: Vec<Value>,
    extra_capacity: usize,
    head: Option<VarId>,
    tail: Option<VarId>,
    items_base: Option<VarId>,
    ready_base: Option<VarId>,
}

impl ArrayQueue {
    /// An empty queue able to absorb `capacity` enqueues in total.
    pub fn new(capacity: usize) -> Self {
        ArrayQueue {
            prefill: Vec::new(),
            extra_capacity: capacity,
            head: None,
            tail: None,
            items_base: None,
            ready_base: None,
        }
    }

    /// A queue pre-filled with `items` (front first), with room for
    /// `extra_capacity` further enqueues.
    pub fn with_items(items: Vec<Value>, extra_capacity: usize) -> Self {
        ArrayQueue {
            prefill: items,
            extra_capacity,
            head: None,
            tail: None,
            items_base: None,
            ready_base: None,
        }
    }

    /// The paper's limited-use-counter initialisation `⟨0; …; N-1⟩`: N
    /// dequeues return `0, 1, …, N-1`.
    pub fn counter_prefill(n: usize) -> Self {
        Self::with_items((0..n as Value).collect(), 0)
    }

    fn capacity(&self) -> usize {
        (self.prefill.len() + self.extra_capacity).max(1)
    }

    fn ids(&self) -> (VarId, VarId, VarId, VarId) {
        (
            self.head.expect("declare_vars must run first"),
            self.tail.unwrap(),
            self.items_base.unwrap(),
            self.ready_base.unwrap(),
        )
    }
}

impl SharedObject for ArrayQueue {
    fn declare_vars(&mut self, b: &mut VarSpecBuilder) {
        let cap = self.capacity();
        self.head = Some(b.var("queue.head", 0, None));
        self.tail = Some(b.var("queue.tail", self.prefill.len() as Value, None));
        for i in 0..cap {
            let init = self.prefill.get(i).copied().unwrap_or(0);
            let v = b.var(format!("queue.items[{i}]"), init, None);
            if i == 0 {
                self.items_base = Some(v);
            }
        }
        for i in 0..cap {
            let init = u64::from(i < self.prefill.len());
            let v = b.var(format!("queue.ready[{i}]"), init, None);
            if i == 0 {
                self.ready_base = Some(v);
            }
        }
    }

    fn start_op(&self, opcode: u32, arg: Value) -> Box<dyn OpMachine> {
        let (head, tail, items_base, ready_base) = self.ids();
        match opcode {
            OP_DEQUEUE => Box::new(Dequeue {
                head,
                tail,
                items_base,
                ready_base,
                state: DeqState::ReadHead,
            }),
            OP_ENQUEUE => Box::new(Enqueue {
                tail,
                items_base,
                ready_base,
                capacity: self.capacity() as Value,
                arg,
                state: EnqState::ReadTail,
                slot: 0,
            }),
            other => panic!("queue has no opcode {other}"),
        }
    }

    fn name(&self) -> &str {
        "array-queue"
    }
}

fn nth(base: VarId, i: Value) -> VarId {
    VarId(base.0 + i as u32)
}

#[derive(Clone, Copy, Hash, Debug)]
enum DeqState {
    ReadHead,
    ReadTail { h: Value },
    CasHead { h: Value },
    WaitReady { h: Value },
    ReadItem { h: Value },
}

#[derive(Clone)]
struct Dequeue {
    head: VarId,
    tail: VarId,
    items_base: VarId,
    ready_base: VarId,
    state: DeqState,
}

impl OpMachine for Dequeue {
    fn state_hash(&self, mut h: &mut dyn std::hash::Hasher) {
        use std::hash::Hash;
        self.state.hash(&mut h);
    }

    fn peek(&self) -> Op {
        match self.state {
            DeqState::ReadHead => Op::Read(self.head),
            DeqState::ReadTail { .. } => Op::Read(self.tail),
            DeqState::CasHead { h } => Op::Cas {
                var: self.head,
                expected: h,
                new: h + 1,
            },
            DeqState::WaitReady { h } => Op::Read(nth(self.ready_base, h)),
            DeqState::ReadItem { h } => Op::Read(nth(self.items_base, h)),
        }
    }

    fn apply(&mut self, outcome: Outcome) -> SubStep {
        let read = |outcome: Outcome| match outcome {
            Outcome::ReadValue(v) => v,
            other => panic!("unexpected outcome {other:?} for read"),
        };
        match self.state {
            DeqState::ReadHead => {
                self.state = DeqState::ReadTail { h: read(outcome) };
                SubStep::Continue
            }
            DeqState::ReadTail { h } => {
                let t = read(outcome);
                if h >= t {
                    return SubStep::Done(EMPTY);
                }
                self.state = DeqState::CasHead { h };
                SubStep::Continue
            }
            DeqState::CasHead { h } => match outcome {
                Outcome::CasResult { success: true, .. } => {
                    self.state = DeqState::WaitReady { h };
                    SubStep::Continue
                }
                Outcome::CasResult { success: false, .. } => {
                    self.state = DeqState::ReadHead;
                    SubStep::Continue
                }
                other => panic!("unexpected outcome {other:?} for CAS"),
            },
            DeqState::WaitReady { h } => {
                if read(outcome) == 1 {
                    self.state = DeqState::ReadItem { h };
                }
                SubStep::Continue
            }
            DeqState::ReadItem { .. } => SubStep::Done(read(outcome)),
        }
    }
}

#[derive(Clone, Copy, Hash, Debug)]
enum EnqState {
    ReadTail,
    CasTail { t: Value },
    WriteItem,
    WriteReady,
    FencePublish,
}

#[derive(Clone)]
struct Enqueue {
    tail: VarId,
    items_base: VarId,
    ready_base: VarId,
    capacity: Value,
    arg: Value,
    state: EnqState,
    slot: Value,
}

impl OpMachine for Enqueue {
    fn state_hash(&self, mut h: &mut dyn std::hash::Hasher) {
        use std::hash::Hash;
        self.state.hash(&mut h);
        self.slot.hash(&mut h);
    }

    fn peek(&self) -> Op {
        match self.state {
            EnqState::ReadTail => Op::Read(self.tail),
            EnqState::CasTail { t } => Op::Cas {
                var: self.tail,
                expected: t,
                new: t + 1,
            },
            EnqState::WriteItem => Op::Write(nth(self.items_base, self.slot), self.arg),
            EnqState::WriteReady => Op::Write(nth(self.ready_base, self.slot), 1),
            EnqState::FencePublish => Op::Fence,
        }
    }

    fn apply(&mut self, outcome: Outcome) -> SubStep {
        let read = |outcome: Outcome| match outcome {
            Outcome::ReadValue(v) => v,
            other => panic!("unexpected outcome {other:?} for read"),
        };
        match self.state {
            EnqState::ReadTail => {
                let t = read(outcome);
                if t >= self.capacity {
                    return SubStep::Done(EMPTY); // full
                }
                self.state = EnqState::CasTail { t };
                SubStep::Continue
            }
            EnqState::CasTail { .. } => match outcome {
                Outcome::CasResult {
                    success: true,
                    observed,
                } => {
                    self.slot = observed;
                    self.state = EnqState::WriteItem;
                    SubStep::Continue
                }
                Outcome::CasResult {
                    success: false,
                    observed,
                } => {
                    if observed >= self.capacity {
                        return SubStep::Done(EMPTY);
                    }
                    self.state = EnqState::CasTail { t: observed };
                    SubStep::Continue
                }
                other => panic!("unexpected outcome {other:?} for CAS"),
            },
            EnqState::WriteItem => {
                self.state = EnqState::WriteReady;
                SubStep::Continue
            }
            EnqState::WriteReady => {
                self.state = EnqState::FencePublish;
                SubStep::Continue
            }
            EnqState::FencePublish => match outcome {
                Outcome::FenceDone => SubStep::Done(self.arg),
                other => panic!("unexpected outcome {other:?} for fence"),
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
    fn fifo_order_sequentially() {
        let sys = ObjectSystem::new(ArrayQueue::new(8), 1, |_| {
            vec![
                OpCall {
                    opcode: OP_ENQUEUE,
                    arg: 10,
                },
                OpCall {
                    opcode: OP_ENQUEUE,
                    arg: 20,
                },
                OpCall {
                    opcode: OP_DEQUEUE,
                    arg: 0,
                },
                OpCall {
                    opcode: OP_ENQUEUE,
                    arg: 30,
                },
                OpCall {
                    opcode: OP_DEQUEUE,
                    arg: 0,
                },
                OpCall {
                    opcode: OP_DEQUEUE,
                    arg: 0,
                },
                OpCall {
                    opcode: OP_DEQUEUE,
                    arg: 0,
                },
            ]
        });
        let m = crate::testutil::complete_or_dump(&sys, CommitPolicy::Lazy, 10_000);
        assert_eq!(
            sys.results(&m, ProcId(0)),
            vec![10, 20, 10, 30, 20, 30, EMPTY]
        );
    }

    #[test]
    fn counter_prefill_dequeues_in_order() {
        let sys = ObjectSystem::new(ArrayQueue::counter_prefill(4), 1, |_| {
            vec![
                OpCall {
                    opcode: OP_DEQUEUE,
                    arg: 0
                };
                5
            ]
        });
        let m = crate::testutil::complete_or_dump(&sys, CommitPolicy::Lazy, 10_000);
        assert_eq!(sys.results(&m, ProcId(0)), vec![0, 1, 2, 3, EMPTY]);
    }

    #[test]
    fn concurrent_dequeues_take_distinct_items() {
        for seed in 1..=6u64 {
            let sys = ObjectSystem::new(ArrayQueue::counter_prefill(8), 4, |_| {
                vec![
                    OpCall {
                        opcode: OP_DEQUEUE,
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
    fn enqueue_beyond_capacity_reports_full() {
        let sys = ObjectSystem::new(ArrayQueue::new(1), 1, |_| {
            vec![
                OpCall {
                    opcode: OP_ENQUEUE,
                    arg: 1,
                },
                OpCall {
                    opcode: OP_ENQUEUE,
                    arg: 2,
                },
            ]
        });
        let m = crate::testutil::complete_or_dump(&sys, CommitPolicy::Lazy, 10_000);
        assert_eq!(sys.results(&m, ProcId(0)), vec![1, EMPTY]);
    }

    #[test]
    fn dequeue_sees_only_published_items() {
        // Enqueue with lazy commits: the fence publishes items atomically,
        // so a dequeuer never observes a reserved-but-unready slot value.
        let sys = ObjectSystem::new(ArrayQueue::new(4), 2, |pid| {
            if pid.0 == 0 {
                vec![OpCall {
                    opcode: OP_ENQUEUE,
                    arg: 42,
                }]
            } else {
                vec![
                    OpCall {
                        opcode: OP_DEQUEUE,
                        arg: 0,
                    },
                    OpCall {
                        opcode: OP_DEQUEUE,
                        arg: 0,
                    },
                ]
            }
        });
        let m = crate::testutil::complete_or_dump(&sys, CommitPolicy::Lazy, 10_000);
        let results = sys.results(&m, ProcId(1));
        for r in results {
            assert!(
                r == 42 || r == EMPTY,
                "dequeue returned unpublished value {r}"
            );
        }
    }
}
