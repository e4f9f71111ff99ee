//! Test-and-set lock (CAS spin).
//!
//! The simplest comparison-primitive lock: spin on `CAS(lock, 0, 1)`.
//! Every attempt is a CAS and therefore carries fence semantics, so the
//! fence complexity per passage equals the number of acquisition attempts
//! — Θ(k) under contention k. RMR complexity is likewise unbounded in k.

use tpa_tso::{
    Asm, Bytecode, Cmp, Op, Operand, Outcome, Permutation, ProcId, Program, SymMode, System, VRef,
    Value, VarId, VarSpec, VmSystem, DISCARD, NREGS,
};

/// The test-and-set lock system.
#[derive(Clone, Debug)]
pub struct TasLock {
    n: usize,
    passages: usize,
}

impl TasLock {
    /// An `n`-process instance where each process performs `passages`
    /// passages.
    pub fn new(n: usize, passages: usize) -> Self {
        TasLock { n, passages }
    }
}

const LOCK: VarId = VarId(0);

impl System for TasLock {
    fn n(&self) -> usize {
        self.n
    }

    fn vars(&self) -> VarSpec {
        let mut b = VarSpec::builder();
        b.var("lock", 0, None);
        b.build()
    }

    fn program(&self, _pid: ProcId) -> Box<dyn Program> {
        Box::new(TasProgram {
            state: State::Enter,
            passages_left: self.passages,
        })
    }

    fn name(&self) -> &str {
        "tas"
    }

    fn symmetric(&self) -> bool {
        // Programs are pid-oblivious and the lone lock variable holds
        // plain 0/1 data, so every renaming is an automorphism.
        true
    }

    fn compile_vm(&self) -> Option<VmSystem> {
        let code = (0..self.n).map(|_| compile(self.passages)).collect();
        Some(VmSystem::new(
            self.name(),
            self.vars(),
            code,
            self.symmetric(),
        ))
    }
}

/// Compiles one process. Register 0 mirrors `passages_left`; every
/// native `State` variant maps to a distinct rest pc, so compiled rest
/// states are in bijection with [`TasProgram`] states.
fn compile(passages: usize) -> Bytecode {
    const R_LEFT: u8 = 0;
    let mut a = Asm::new();
    let enter = a.here();
    a.enter();
    let cs = a.label();
    let trycas = a.here();
    a.cas(
        VRef::Direct(LOCK.0),
        Operand::Imm(0),
        Operand::Imm(1),
        DISCARD,
        DISCARD,
        cs,
        trycas,
    );
    a.bind(cs);
    a.cs();
    a.write(VRef::Direct(LOCK.0), Operand::Imm(0));
    a.fence();
    a.exit();
    a.add(R_LEFT, -1);
    a.br(Operand::Reg(R_LEFT), Cmp::Ne, Operand::Imm(0), enter);
    a.halt();
    let mut init_regs = [0; NREGS];
    init_regs[R_LEFT as usize] = passages as Value;
    Bytecode {
        code: a.finish(),
        init_regs,
        recover_pc: None,
        sym: SymMode::Equivariant,
        me: 0,
    }
}

#[derive(Clone, Copy, Hash, Debug)]
enum State {
    Enter,
    TryCas,
    Cs,
    Release,
    ReleaseFence,
    Exit,
    Done,
}

#[derive(Clone, Debug)]
struct TasProgram {
    state: State,
    passages_left: usize,
}

impl Program for TasProgram {
    fn state_hash(&self, mut h: &mut dyn std::hash::Hasher) {
        use std::hash::Hash;
        self.state.hash(&mut h);
        self.passages_left.hash(&mut h);
    }

    fn state_hash_permuted(&self, _perm: &Permutation, h: &mut dyn std::hash::Hasher) -> bool {
        // No local state mentions a pid: the renamed hash is the hash.
        self.state_hash(h);
        true
    }

    fn peek(&self) -> Op {
        match self.state {
            State::Enter => Op::Enter,
            State::TryCas => Op::Cas {
                var: LOCK,
                expected: 0,
                new: 1,
            },
            State::Cs => Op::Cs,
            State::Release => Op::Write(LOCK, 0),
            State::ReleaseFence => Op::Fence,
            State::Exit => Op::Exit,
            State::Done => Op::Halt,
        }
    }

    fn apply(&mut self, outcome: Outcome) {
        self.state = match self.state {
            State::Enter => State::TryCas,
            State::TryCas => match outcome {
                Outcome::CasResult { success: true, .. } => State::Cs,
                Outcome::CasResult { success: false, .. } => State::TryCas,
                other => panic!("unexpected outcome {other:?} for CAS"),
            },
            State::Cs => State::Release,
            State::Release => State::ReleaseFence,
            State::ReleaseFence => State::Exit,
            State::Exit => {
                self.passages_left -= 1;
                if self.passages_left == 0 {
                    State::Done
                } else {
                    State::Enter
                }
            }
            State::Done => panic!("apply on a halted program"),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing;
    use tpa_tso::sched::CommitPolicy;

    #[test]
    fn standard_battery() {
        testing::standard_lock_battery(&|n, p| Box::new(TasLock::new(n, p)));
    }

    #[test]
    fn vm_lockstep_battery() {
        testing::standard_vm_battery(&|n, p| Box::new(TasLock::new(n, p)));
    }

    #[test]
    fn solo_passage_costs_two_fences() {
        let sys = TasLock::new(1, 1);
        let m = testing::check_solo_progress(&sys, ProcId(0), 1, 1000).unwrap();
        let stats = &m.metrics().proc(ProcId(0)).completed[0];
        // One CAS (fence semantics) + one release fence.
        assert_eq!(stats.counters.fences, 2);
    }

    #[test]
    fn contended_fences_grow_with_failed_attempts() {
        let sys = TasLock::new(4, 1);
        let m =
            testing::check_round_robin_completion(&sys, CommitPolicy::Lazy, 1, 1_000_000).unwrap();
        let max_fences = m.metrics().max_completed(|p| p.counters.fences).unwrap();
        assert!(
            max_fences > 2,
            "some process must retry under contention: {max_fences}"
        );
    }
}
