//! Test-and-test-and-set lock.
//!
//! Spin reading the lock word (cache-local after the first read in CC)
//! and attempt `CAS(lock, 0, 1)` only when it is observed free. Compared
//! with [`crate::sim::tas`], the read spin converts most RMRs into local
//! cache hits, but each *attempt* is still a CAS and hence a fence.

use tpa_tso::{
    Asm, Bytecode, Cmp, Op, Operand, Outcome, Permutation, ProcId, Program, SymMode, System, VRef,
    Value, VarId, VarSpec, VmSystem, DISCARD, NREGS,
};

/// The test-and-test-and-set lock system.
#[derive(Clone, Debug)]
pub struct TtasLock {
    n: usize,
    passages: usize,
}

impl TtasLock {
    /// An `n`-process instance performing `passages` passages each.
    pub fn new(n: usize, passages: usize) -> Self {
        TtasLock { n, passages }
    }
}

const LOCK: VarId = VarId(0);

impl System for TtasLock {
    fn n(&self) -> usize {
        self.n
    }

    fn vars(&self) -> VarSpec {
        let mut b = VarSpec::builder();
        b.var("lock", 0, None);
        b.build()
    }

    fn program(&self, _pid: ProcId) -> Box<dyn Program> {
        Box::new(TtasProgram {
            state: State::Enter,
            passages_left: self.passages,
        })
    }

    fn name(&self) -> &str {
        "ttas"
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

/// Compiles one process. Register 0 mirrors `passages_left`; the spin
/// read is a test-and-discard [`tpa_tso::BInstr::ReadBr`], so no
/// register outlives it — exactly the native [`TtasProgram`], whose
/// `SpinRead` state keeps nothing but the control location.
fn compile(passages: usize) -> Bytecode {
    const R_LEFT: u8 = 0;
    let mut a = Asm::new();
    let enter = a.here();
    a.enter();
    let trycas = a.label();
    let spin = a.here();
    a.read_br(VRef::Direct(LOCK.0), Cmp::Eq, Operand::Imm(0), trycas, spin);
    let cs = a.label();
    a.bind(trycas);
    a.cas(
        VRef::Direct(LOCK.0),
        Operand::Imm(0),
        Operand::Imm(1),
        DISCARD,
        DISCARD,
        cs,
        spin,
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
    SpinRead,
    TryCas,
    Cs,
    Release,
    ReleaseFence,
    Exit,
    Done,
}

#[derive(Clone, Debug)]
struct TtasProgram {
    state: State,
    passages_left: usize,
}

impl Program for TtasProgram {
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
            State::SpinRead => Op::Read(LOCK),
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
            State::Enter => State::SpinRead,
            State::SpinRead => match outcome {
                Outcome::ReadValue(0) => State::TryCas,
                Outcome::ReadValue(_) => State::SpinRead,
                other => panic!("unexpected outcome {other:?} for read"),
            },
            State::TryCas => match outcome {
                Outcome::CasResult { success: true, .. } => State::Cs,
                Outcome::CasResult { success: false, .. } => State::SpinRead,
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
        testing::standard_lock_battery(&|n, p| Box::new(TtasLock::new(n, p)));
    }

    #[test]
    fn vm_lockstep_battery() {
        testing::standard_vm_battery(&|n, p| Box::new(TtasLock::new(n, p)));
    }

    #[test]
    fn solo_passage_costs_two_fences_and_two_cc_rmrs_on_lock_word() {
        let sys = TtasLock::new(1, 1);
        let m = testing::check_solo_progress(&sys, ProcId(0), 1, 1000).unwrap();
        let stats = &m.metrics().proc(ProcId(0)).completed[0];
        assert_eq!(stats.counters.fences, 2, "one CAS + one release fence");
        // Read miss + CAS upgrade; the release commit hits the exclusive
        // line the CAS acquired, so it is free under write-back.
        assert_eq!(stats.counters.rmr_wb, 2);
    }

    #[test]
    fn spinning_is_cache_local_in_cc() {
        // Two processes; p1 spins while p0 holds. p1's spin reads after the
        // first should be WB cache hits.
        let sys = TtasLock::new(2, 1);
        let m =
            testing::check_round_robin_completion(&sys, CommitPolicy::Lazy, 1, 1_000_000).unwrap();
        for (_, pm) in m.metrics().iter() {
            let c = &pm.completed[0].counters;
            // Spin reads dominate events, but WB RMRs stay small: every
            // invalidation costs at most a couple of misses.
            assert!(
                c.rmr_wb <= 12,
                "expected bounded WB RMRs for TTAS, got {} (events {})",
                c.rmr_wb,
                c.events
            );
        }
    }
}
