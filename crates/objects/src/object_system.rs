//! Standalone object workloads: each process runs a scripted sequence of
//! object operations bracketed by `Invoke`/`Return` marker events.

use std::sync::Arc;

use tpa_tso::sched::{self, CommitPolicy};
use tpa_tso::{EventKind, Machine, Op, Outcome, ProcId, Program, System, Value, VarSpec};

use crate::opmachine::{OpMachine, SharedObject, SubStep};

/// One scripted object operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OpCall {
    /// Object-specific opcode.
    pub opcode: u32,
    /// Operation argument (e.g. the value to push).
    pub arg: Value,
}

/// A [`System`] whose processes each execute a fixed sequence of object
/// operations.
pub struct ObjectSystem<O: SharedObject + 'static> {
    object: Arc<O>,
    spec: VarSpec,
    calls: Vec<Vec<OpCall>>,
    name: String,
}

impl<O: SharedObject + 'static> ObjectSystem<O> {
    /// Builds the system: declares the object's variables and assigns each
    /// of the `n` processes the operation sequence `gen(pid)`.
    pub fn new(mut object: O, n: usize, mut gen: impl FnMut(ProcId) -> Vec<OpCall>) -> Self {
        let mut b = VarSpec::builder();
        object.declare_vars(&mut b);
        let spec = b.build();
        let calls = (0..n).map(|i| gen(ProcId(i as u32))).collect();
        let name = format!("object<{}>", object.name());
        ObjectSystem {
            object: Arc::new(object),
            spec,
            calls,
            name,
        }
    }

    /// Runs round-robin until all processes halt.
    ///
    /// # Errors
    ///
    /// Returns a description if the budget is exhausted or a step fails.
    pub fn run_to_completion(
        &self,
        policy: CommitPolicy,
        max_steps: usize,
    ) -> Result<Machine, String> {
        let (machine, stats) =
            sched::run_round_robin(self, policy, max_steps).map_err(|e| e.to_string())?;
        if !stats.all_halted {
            return Err(format!("budget exhausted after {} steps", stats.steps));
        }
        Ok(machine)
    }

    /// Runs a seeded random schedule until quiescent.
    ///
    /// # Errors
    ///
    /// Returns a description if the budget is exhausted or a step fails.
    pub fn run_random(
        &self,
        seed: u64,
        policy: CommitPolicy,
        max_steps: usize,
    ) -> Result<Machine, String> {
        let (machine, stats) =
            sched::run_random(self, seed, policy, max_steps).map_err(|e| e.to_string())?;
        if !stats.all_halted {
            return Err(format!("budget exhausted after {} steps", stats.steps));
        }
        Ok(machine)
    }

    /// Extracts the results (`Return` values) of `pid`'s operations from a
    /// finished run, in program order.
    pub fn results(&self, machine: &Machine, pid: ProcId) -> Vec<Value> {
        machine
            .log()
            .iter()
            .filter(|e| e.pid == pid)
            .filter_map(|e| match e.kind {
                EventKind::Return { value } => Some(value),
                _ => None,
            })
            .collect()
    }
}

impl<O: SharedObject + 'static> System for ObjectSystem<O> {
    fn n(&self) -> usize {
        self.calls.len()
    }

    fn vars(&self) -> VarSpec {
        self.spec.clone()
    }

    fn program(&self, pid: ProcId) -> Box<dyn Program> {
        Box::new(ObjectProgram {
            object: Arc::clone(&self.object) as Arc<dyn SharedObject>,
            calls: self.calls[pid.index()].clone(),
            next_call: 0,
            state: OpState::Invoke,
        })
    }

    fn name(&self) -> &str {
        &self.name
    }
}

enum OpState {
    /// About to emit the `Invoke` marker for `next_call`.
    Invoke,
    /// Executing the operation fragment.
    Running(Box<dyn OpMachine>),
    /// About to emit the `Return` marker with this result.
    Return(Value),
    Halted,
}

impl Clone for OpState {
    fn clone(&self) -> Self {
        match self {
            OpState::Invoke => OpState::Invoke,
            OpState::Running(m) => OpState::Running(m.fork()),
            OpState::Return(v) => OpState::Return(*v),
            OpState::Halted => OpState::Halted,
        }
    }
}

#[derive(Clone)]
struct ObjectProgram {
    object: Arc<dyn SharedObject>,
    calls: Vec<OpCall>,
    next_call: usize,
    state: OpState,
}

impl Program for ObjectProgram {
    fn state_hash(&self, mut h: &mut dyn std::hash::Hasher) {
        use std::hash::Hash;
        self.next_call.hash(&mut h);
        match &self.state {
            OpState::Invoke => 0u8.hash(&mut h),
            OpState::Running(m) => {
                1u8.hash(&mut h);
                m.state_hash(h);
            }
            OpState::Return(v) => {
                2u8.hash(&mut h);
                v.hash(&mut h);
            }
            OpState::Halted => 3u8.hash(&mut h),
        }
    }

    fn peek(&self) -> Op {
        match &self.state {
            OpState::Invoke => {
                if self.next_call >= self.calls.len() {
                    Op::Halt
                } else {
                    let c = self.calls[self.next_call];
                    Op::Invoke {
                        op: c.opcode,
                        arg: c.arg,
                    }
                }
            }
            OpState::Running(m) => m.peek(),
            OpState::Return(v) => Op::Return(*v),
            OpState::Halted => Op::Halt,
        }
    }

    fn apply(&mut self, outcome: Outcome) {
        match &mut self.state {
            OpState::Invoke => {
                let c = self.calls[self.next_call];
                self.state = OpState::Running(self.object.start_op(c.opcode, c.arg));
            }
            OpState::Running(m) => {
                if let SubStep::Done(v) = m.apply(outcome) {
                    self.state = OpState::Return(v);
                }
            }
            OpState::Return(_) => {
                self.next_call += 1;
                self.state = if self.next_call >= self.calls.len() {
                    OpState::Halted
                } else {
                    OpState::Invoke
                };
            }
            OpState::Halted => panic!("apply on a halted object program"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::{CasCounter, OP_FETCH_INC};

    #[test]
    fn invoke_and_return_markers_bracket_operations() {
        let sys = ObjectSystem::new(CasCounter::new(), 1, |_| {
            vec![OpCall {
                opcode: OP_FETCH_INC,
                arg: 0,
            }]
        });
        let m = crate::testutil::complete_or_dump(&sys, CommitPolicy::Lazy, 1_000);
        let kinds: Vec<_> = m
            .log()
            .iter()
            .map(|e| std::mem::discriminant(&e.kind))
            .collect();
        assert!(kinds.len() >= 3);
        assert!(matches!(m.log()[0].kind, EventKind::Invoke { .. }));
        assert!(matches!(
            m.log().last().unwrap().kind,
            EventKind::Return { .. }
        ));
    }

    #[test]
    fn per_operation_spans_are_recorded() {
        let sys = ObjectSystem::new(CasCounter::new(), 2, |_| {
            vec![
                OpCall {
                    opcode: OP_FETCH_INC,
                    arg: 0
                };
                3
            ]
        });
        let m = crate::testutil::complete_or_dump(&sys, CommitPolicy::Lazy, 10_000);
        for p in 0..2u32 {
            assert_eq!(m.metrics().proc(ProcId(p)).completed.len(), 3);
        }
    }

    #[test]
    fn empty_call_list_halts_immediately() {
        let sys = ObjectSystem::new(CasCounter::new(), 1, |_| vec![]);
        let m = crate::testutil::complete_or_dump(&sys, CommitPolicy::Lazy, 100);
        assert!(m.log().is_empty());
    }
}
