//! Peterson's filter lock (read/write only).
//!
//! `n-1` filter levels; at each level a process volunteers as victim and
//! waits until either no other process is at its level or above, or it is
//! no longer the victim. Only reads and writes are used. Complexity: Θ(n)
//! fences per passage (one per level) and Θ(n²) reads under contention —
//! a deliberately expensive read/write baseline for the experiment tables.

use tpa_tso::{
    Asm, Bytecode, Cmp, Op, Operand, Outcome, Permutation, PidEncoding, ProcId, Program, RegKind,
    SymMode, System, VRef, Value, VarId, VarSpec, VmSystem, NREGS,
};

/// The filter lock system.
#[derive(Clone, Debug)]
pub struct FilterLock {
    n: usize,
    passages: usize,
}

impl FilterLock {
    /// An `n`-process instance performing `passages` passages each.
    pub fn new(n: usize, passages: usize) -> Self {
        FilterLock { n, passages }
    }
}

impl System for FilterLock {
    fn n(&self) -> usize {
        self.n
    }

    fn vars(&self) -> VarSpec {
        let mut b = VarSpec::builder();
        // level[] is indexed by pid and holds levels; victim[] is indexed
        // by *level* (so its slots do not permute) and holds pids. Levels
        // run 1..=n-1, so only n-1 victim slots exist — an unused slot 0
        // would sit unwritten forever and, being pid-valued, needlessly
        // restrict every renaming to ones fixing pid 0.
        let level = b.array("level", self.n, 0, |_| None);
        let victims = self.n.saturating_sub(1);
        let victim = b.array("victim", victims, 0, |_| None);
        b.mark_pid_indexed(level, self.n);
        b.mark_pid_valued_array(victim, victims, PidEncoding::ZeroBased);
        b.build()
    }

    fn program(&self, pid: ProcId) -> Box<dyn Program> {
        Box::new(FilterProgram {
            me: pid.index(),
            n: self.n,
            state: State::Enter,
            passages_left: self.passages,
        })
    }

    fn name(&self) -> &str {
        "filter"
    }

    fn symmetric(&self) -> bool {
        // Processes are interchangeable: `level[]` is pid-indexed,
        // `victim[]` holds pids, and the only pid-order dependence — the
        // per-level scan — is a renaming precondition in
        // `state_hash_permuted`.
        true
    }

    fn compile_vm(&self) -> Option<VmSystem> {
        let code = (0..self.n).map(|me| self.compile(me as u32)).collect();
        Some(VmSystem::new(
            self.name(),
            self.vars(),
            code,
            self.symmetric(),
        ))
    }
}

impl FilterLock {
    /// Compiles process `me`. Register layout mirrors [`FilterProgram`]
    /// payload-for-payload: `r0` is `passages_left`, `r1` the level `l`
    /// (plain data, live through the filter loop, re-zeroed on the edge
    /// into the critical section where the native payload dies), `r2` the
    /// scan position `k` (a pid index — [`RegKind::ScanSkipSelf`] at the
    /// scan rest point, zero everywhere else), `r3` a read scratch
    /// consumed and re-zeroed within each apply edge. The layout is
    /// identical across processes; only the baked-in `me` and the scan
    /// start constant differ.
    fn compile(&self, me: u32) -> Bytecode {
        const R_LEFT: u8 = 0;
        const R_L: u8 = 1;
        const R_K: u8 = 2;
        const R_V: u8 = 3;
        let n = self.n as Value;
        // First scan index skipping me.
        let k0: Value = if me == 0 { 1 } else { 0 };
        let level_me = VRef::Direct(me);
        let level_k = VRef::Indexed {
            base: 0,
            idx: R_K,
            off: 0,
        };
        // victim[l] lives at n + l - 1.
        let victim_l = VRef::Indexed {
            base: self.n as u32,
            idx: R_L,
            off: -1,
        };
        let mut a = Asm::new();
        let enter = a.here();
        a.enter();
        let mut scan_pc = None;
        let cs = a.label();
        if self.n == 1 {
            // Native n == 1 skips the filter loop entirely.
            a.jmp(cs);
        } else {
            a.li(R_L, 1);
            let wl = a.here();
            a.write(level_me, Operand::Reg(R_L));
            a.write(victim_l, Operand::Imm(me as Value));
            a.fence();
            a.li(R_K, k0);
            let conflict = a.label();
            let noskip = a.label();
            let afterlevel = a.label();
            let scan = a.here();
            scan_pc = Some(a.pc_of(scan) as usize);
            a.read(level_k, R_V);
            a.br(Operand::Reg(R_V), Cmp::Ge, Operand::Reg(R_L), conflict);
            a.li(R_V, 0);
            a.add(R_K, 1);
            a.br(
                Operand::Reg(R_K),
                Cmp::Ne,
                Operand::Imm(me as Value),
                noskip,
            );
            a.add(R_K, 1);
            a.bind(noskip);
            a.br(Operand::Reg(R_K), Cmp::Lt, Operand::Imm(n), scan);
            a.li(R_K, 0);
            a.jmp(afterlevel);
            a.bind(conflict);
            a.li(R_V, 0);
            a.li(R_K, 0);
            let notvictim = a.label();
            a.read(victim_l, R_V);
            a.br(
                Operand::Reg(R_V),
                Cmp::Ne,
                Operand::Imm(me as Value),
                notvictim,
            );
            a.li(R_V, 0);
            a.li(R_K, k0);
            a.jmp(scan);
            a.bind(notvictim);
            a.li(R_V, 0);
            a.bind(afterlevel);
            a.add(R_L, 1);
            a.br(Operand::Reg(R_L), Cmp::Lt, Operand::Imm(n), wl);
            a.li(R_L, 0);
        }
        a.bind(cs);
        a.cs();
        a.write(level_me, Operand::Imm(0));
        a.fence();
        a.exit();
        a.add(R_LEFT, -1);
        a.br(Operand::Reg(R_LEFT), Cmp::Ne, Operand::Imm(0), enter);
        a.halt();
        let code = a.finish();
        let mut kinds = vec![[RegKind::Plain; NREGS]; code.len()];
        if let Some(pc) = scan_pc {
            kinds[pc][R_K as usize] = RegKind::ScanSkipSelf;
        }
        let mut init_regs = [0; NREGS];
        init_regs[R_LEFT as usize] = self.passages as Value;
        Bytecode {
            code,
            init_regs,
            recover_pc: None,
            sym: SymMode::Kinds(kinds),
            me,
        }
    }
}

#[derive(Clone, Copy, Hash, Debug)]
enum State {
    Enter,
    WriteLevel { l: usize },
    WriteVictim { l: usize },
    FenceLevel { l: usize },
    Scan { l: usize, k: usize },
    CheckVictim { l: usize },
    Cs,
    ClearLevel,
    FenceRelease,
    Exit,
    Done,
}

#[derive(Clone, Debug)]
struct FilterProgram {
    me: usize,
    n: usize,
    state: State,
    passages_left: usize,
}

impl FilterProgram {
    fn level_var(&self, k: usize) -> VarId {
        VarId(k as u32)
    }

    fn victim_var(&self, l: usize) -> VarId {
        // Victim slots cover levels 1..=n-1, packed after the level array.
        VarId((self.n + l - 1) as u32)
    }

    /// First scan index at level `l` skipping `me`, or the level is clear.
    fn scan_start(&self, l: usize) -> State {
        match (0..self.n).find(|&k| k != self.me) {
            Some(k) => State::Scan { l, k },
            None => State::Cs, // n == 1
        }
    }

    fn after_level(&self, l: usize) -> State {
        if l + 1 < self.n {
            State::WriteLevel { l: l + 1 }
        } else {
            State::Cs
        }
    }
}

impl Program for FilterProgram {
    fn state_hash(&self, mut h: &mut dyn std::hash::Hasher) {
        use std::hash::Hash;
        self.state.hash(&mut h);
        self.passages_left.hash(&mut h);
    }

    fn state_hash_permuted(&self, perm: &Permutation, mut h: &mut dyn std::hash::Hasher) -> bool {
        use std::hash::Hash;
        // Levels are plain data; only the scan position `k` is a pid.
        let state = match self.state {
            State::Scan { l, k } => {
                if !perm.maps_scan_prefix(k, self.me) {
                    return false;
                }
                State::Scan {
                    l,
                    k: perm.apply_index(k),
                }
            }
            s => s,
        };
        state.hash(&mut h);
        self.passages_left.hash(&mut h);
        true
    }

    fn peek(&self) -> Op {
        match self.state {
            State::Enter => Op::Enter,
            State::WriteLevel { l } => Op::Write(self.level_var(self.me), l as Value),
            State::WriteVictim { l } => Op::Write(self.victim_var(l), self.me as Value),
            State::FenceLevel { .. } | State::FenceRelease => Op::Fence,
            State::Scan { k, .. } => Op::Read(self.level_var(k)),
            State::CheckVictim { l } => Op::Read(self.victim_var(l)),
            State::Cs => Op::Cs,
            State::ClearLevel => Op::Write(self.level_var(self.me), 0),
            State::Exit => Op::Exit,
            State::Done => Op::Halt,
        }
    }

    fn apply(&mut self, outcome: Outcome) {
        self.state = match self.state {
            State::Enter => {
                if self.n == 1 {
                    State::Cs
                } else {
                    State::WriteLevel { l: 1 }
                }
            }
            State::WriteLevel { l } => State::WriteVictim { l },
            State::WriteVictim { l } => State::FenceLevel { l },
            State::FenceLevel { l } => self.scan_start(l),
            State::Scan { l, k } => {
                let lk = match outcome {
                    Outcome::ReadValue(v) => v,
                    other => panic!("unexpected outcome {other:?} for scan"),
                };
                if lk >= l as Value {
                    // Conflict at this level: check whether we are still
                    // the victim.
                    State::CheckVictim { l }
                } else {
                    match (k + 1..self.n).find(|&k2| k2 != self.me) {
                        Some(k2) => State::Scan { l, k: k2 },
                        None => self.after_level(l),
                    }
                }
            }
            State::CheckVictim { l } => match outcome {
                Outcome::ReadValue(v) if v == self.me as Value => self.scan_start(l),
                Outcome::ReadValue(_) => self.after_level(l),
                other => panic!("unexpected outcome {other:?} for victim check"),
            },
            State::Cs => State::ClearLevel,
            State::ClearLevel => State::FenceRelease,
            State::FenceRelease => State::Exit,
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

    #[test]
    fn standard_battery() {
        testing::standard_lock_battery(&|n, p| Box::new(FilterLock::new(n, p)));
    }

    #[test]
    fn vm_lockstep_battery() {
        testing::standard_vm_battery(&|n, p| Box::new(FilterLock::new(n, p)));
    }

    #[test]
    fn fences_grow_linearly_with_n() {
        let mut fences = Vec::new();
        for n in [2, 4, 8] {
            let sys = FilterLock::new(n, 1);
            let m = testing::check_solo_progress(&sys, ProcId(0), 1, 1_000_000).unwrap();
            fences.push(m.metrics().proc(ProcId(0)).completed[0].counters.fences);
        }
        // One fence per level plus the release fence: n-1 + 1 = n.
        assert_eq!(fences, vec![2, 4, 8]);
    }

    #[test]
    fn single_process_skips_filtering() {
        let sys = FilterLock::new(1, 1);
        let m = testing::check_solo_progress(&sys, ProcId(0), 1, 100).unwrap();
        assert_eq!(m.metrics().proc(ProcId(0)).completed[0].counters.fences, 1);
    }
}
