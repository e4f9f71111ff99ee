//! Ticket / array-queue lock with a CAS-loop ticket dispenser.
//!
//! A process takes a ticket by a read + `CAS(tail, t, t+1)` retry loop,
//! then spins on its own grant slot; the releaser writes the next slot.
//! This is the classic queue lock made *adaptive*: uncontended it costs
//! O(1) RMRs and fences, while under contention `k` the CAS retry loop
//! costs up to `k-1` failed attempts — each a fence. It thus exhibits
//! exactly the trade-off the paper proves inherent: the adaptive path buys
//! its RMR-adaptivity with a fence complexity that grows with contention
//! (the paper's primitive set has no atomic fetch&increment; only reads,
//! writes and comparison primitives).

use tpa_tso::{
    Asm, Bytecode, Cmp, Op, Operand, Outcome, Permutation, ProcId, Program, SymMode, System, VRef,
    Value, VarId, VarSpec, VmSystem, NREGS,
};

/// The ticket lock system.
#[derive(Clone, Debug)]
pub struct TicketLock {
    n: usize,
    passages: usize,
}

impl TicketLock {
    /// An `n`-process instance performing `passages` passages each.
    pub fn new(n: usize, passages: usize) -> Self {
        TicketLock { n, passages }
    }

    fn slots(&self) -> usize {
        self.n * self.passages + 1
    }
}

const TAIL: VarId = VarId(0);
const GRANT_BASE: u32 = 1;

impl System for TicketLock {
    fn n(&self) -> usize {
        self.n
    }

    fn vars(&self) -> VarSpec {
        let mut b = VarSpec::builder();
        b.var("tail", 0, None);
        // grant[0] starts granted; later slots are opened by releasers.
        for i in 0..self.slots() {
            b.var(format!("grant[{i}]"), u64::from(i == 0), None);
        }
        b.build()
    }

    fn program(&self, _pid: ProcId) -> Box<dyn Program> {
        Box::new(TicketProgram {
            state: State::Enter,
            ticket: 0,
            passages_left: self.passages,
        })
    }

    fn name(&self) -> &str {
        "ticketq"
    }

    fn symmetric(&self) -> bool {
        // Tickets are dispenser order, not pids: `tail` counts, the grant
        // slots are indexed by ticket, and no program state mentions a
        // pid — every renaming is an automorphism without relabeling.
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

/// Compiles one process. Register layout mirrors [`TicketProgram`]
/// field-for-field: `r0` is `passages_left`, `r1` the ticket (stale
/// across passages, exactly as the native field), `r2` the `CasTail`
/// expectation — live only while the counter rests on the CAS, and
/// re-zeroed on the success edge where the native payload dies.
fn compile(passages: usize) -> Bytecode {
    const R_LEFT: u8 = 0;
    const R_TICKET: u8 = 1;
    const R_T: u8 = 2;
    let mut a = Asm::new();
    let enter = a.here();
    a.enter();
    a.read(VRef::Direct(TAIL.0), R_T);
    let won = a.label();
    let cas = a.here();
    // On success the observed value *is* the ticket; on failure it is
    // the fresh expectation for the retry.
    a.cas(
        VRef::Direct(TAIL.0),
        Operand::Reg(R_T),
        Operand::RegOff(R_T, 1),
        R_TICKET,
        R_T,
        won,
        cas,
    );
    a.bind(won);
    a.li(R_T, 0);
    let cs = a.label();
    let spin = a.here();
    a.read_br(
        VRef::Indexed {
            base: GRANT_BASE,
            idx: R_TICKET,
            off: 0,
        },
        Cmp::Eq,
        Operand::Imm(1),
        cs,
        spin,
    );
    a.bind(cs);
    a.cs();
    a.write(
        VRef::Indexed {
            base: GRANT_BASE,
            idx: R_TICKET,
            off: 1,
        },
        Operand::Imm(1),
    );
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

fn grant_var(ticket: Value) -> VarId {
    VarId(GRANT_BASE + ticket as u32)
}

#[derive(Clone, Copy, Hash, Debug)]
enum State {
    Enter,
    ReadTail,
    CasTail(Value),
    SpinGrant,
    Cs,
    WriteNextGrant,
    GrantFence,
    Exit,
    Done,
}

#[derive(Clone, Debug)]
struct TicketProgram {
    state: State,
    ticket: Value,
    passages_left: usize,
}

impl Program for TicketProgram {
    fn state_hash(&self, mut h: &mut dyn std::hash::Hasher) {
        use std::hash::Hash;
        self.state.hash(&mut h);
        self.ticket.hash(&mut h);
        self.passages_left.hash(&mut h);
    }

    fn state_hash_permuted(&self, _perm: &Permutation, h: &mut dyn std::hash::Hasher) -> bool {
        // Tickets and the CAS-observed tail are counter values, not pids.
        self.state_hash(h);
        true
    }

    fn peek(&self) -> Op {
        match self.state {
            State::Enter => Op::Enter,
            State::ReadTail => Op::Read(TAIL),
            State::CasTail(t) => Op::Cas {
                var: TAIL,
                expected: t,
                new: t + 1,
            },
            State::SpinGrant => Op::Read(grant_var(self.ticket)),
            State::Cs => Op::Cs,
            State::WriteNextGrant => Op::Write(grant_var(self.ticket + 1), 1),
            State::GrantFence => Op::Fence,
            State::Exit => Op::Exit,
            State::Done => Op::Halt,
        }
    }

    fn apply(&mut self, outcome: Outcome) {
        self.state = match self.state {
            State::Enter => State::ReadTail,
            State::ReadTail => match outcome {
                Outcome::ReadValue(t) => State::CasTail(t),
                other => panic!("unexpected outcome {other:?} for read"),
            },
            State::CasTail(t) => match outcome {
                Outcome::CasResult { success: true, .. } => {
                    self.ticket = t;
                    State::SpinGrant
                }
                Outcome::CasResult {
                    success: false,
                    observed,
                } => State::CasTail(observed),
                other => panic!("unexpected outcome {other:?} for CAS"),
            },
            State::SpinGrant => match outcome {
                Outcome::ReadValue(1) => State::Cs,
                Outcome::ReadValue(_) => State::SpinGrant,
                other => panic!("unexpected outcome {other:?} for read"),
            },
            State::Cs => State::WriteNextGrant,
            State::WriteNextGrant => State::GrantFence,
            State::GrantFence => State::Exit,
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
        testing::standard_lock_battery(&|n, p| Box::new(TicketLock::new(n, p)));
    }

    #[test]
    fn vm_lockstep_battery() {
        testing::standard_vm_battery(&|n, p| Box::new(TicketLock::new(n, p)));
    }

    #[test]
    fn solo_passage_is_constant_cost() {
        let sys = TicketLock::new(1, 3);
        let m = testing::check_solo_progress(&sys, ProcId(0), 3, 10_000).unwrap();
        for p in &m.metrics().proc(ProcId(0)).completed {
            assert_eq!(p.counters.fences, 2, "one ticket CAS + one grant fence");
            // read tail + CAS tail + read grant + commit grant.
            assert!(p.counters.rmr_wb <= 5);
        }
    }

    #[test]
    fn tickets_are_fifo() {
        // Under a round-robin schedule processes obtain tickets in some
        // order, and the grant chain serves them strictly in that order.
        let sys = TicketLock::new(4, 1);
        let m =
            testing::check_round_robin_completion(&sys, CommitPolicy::Lazy, 1, 1_000_000).unwrap();
        // Find the order of Cs events in the log; each ticket's Cs must
        // follow the previous ticket's Exit fence.
        let cs_order: Vec<_> = m
            .log()
            .iter()
            .filter(|e| matches!(e.kind, tpa_tso::EventKind::Cs))
            .map(|e| e.pid)
            .collect();
        assert_eq!(cs_order.len(), 4);
    }

    #[test]
    fn contended_fence_count_grows_with_contention() {
        // With k processes hammering the dispenser under an adversarial
        // (round-robin lazy) schedule, some process fails its CAS at least
        // once per competitor, so max fences grows with k.
        let mut prev = 0;
        for k in [2, 4, 8] {
            let sys = TicketLock::new(k, 1);
            let m = testing::check_round_robin_completion(&sys, CommitPolicy::Lazy, 1, 4_000_000)
                .unwrap();
            let max_fences = m.metrics().max_completed(|p| p.counters.fences).unwrap();
            assert!(
                max_fences >= prev,
                "fences should not shrink with contention"
            );
            prev = max_fences;
        }
        assert!(
            prev >= 4,
            "at 8-way contention some process pays several CAS fences"
        );
    }
}
