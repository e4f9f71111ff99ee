//! Yang–Anderson-style tournament lock (read/write only).
//!
//! Processes climb a binary arbitration tree; at every node the two
//! subtree winners run a Peterson 2-process protocol. Each level costs
//! O(1) RMRs, giving the optimal Θ(log n) RMR complexity for read/write
//! locks — but the Peterson protocol needs its flag/turn writes visible
//! before it reads the peer's state, so the natural implementation pays
//! **one fence per level**: Θ(log n) fences. (Batching all levels' writes
//! behind one fence is *unsound* — see `crates/algos/src/hw/tree.rs` for
//! the interleaving our exclusion checker found; achieving O(1) fences at
//! O(log n) RMRs is the Attiya–Hendler–Levy PODC'13 contribution.)

use std::sync::Arc;

use tpa_tso::{
    Asm, Bytecode, Cmp, Label, Op, Operand, Outcome, ProcId, Program, SymMode, System, VRef, Value,
    VarId, VarSpec, VmSystem, NREGS,
};

/// Geometry and variable layout of a Peterson arbitration tree.
///
/// Levels are 1-indexed from the leaves; at level `l` process `me`
/// competes at node `me >> l` on side `(me >> (l-1)) & 1`. Each node has
/// three variables laid out consecutively: `flag[0]`, `flag[1]`, `turn`.
#[derive(Clone, Debug)]
pub(crate) struct TreeLayout {
    /// Number of levels (0 when n == 1).
    pub levels: usize,
    /// Variable index where each level's node block starts.
    level_base: Vec<u32>,
    total_vars: usize,
}

impl TreeLayout {
    pub(crate) fn new(n: usize) -> Self {
        let levels = if n <= 1 {
            0
        } else {
            (n - 1).ilog2() as usize + 1
        };
        let padded = 1usize << levels;
        let mut level_base = vec![0u32; levels + 1];
        let mut next = 0u32;
        for (l, base) in level_base.iter_mut().enumerate().skip(1) {
            *base = next;
            let nodes = (padded >> l) as u32;
            next += nodes * 3;
        }
        TreeLayout {
            levels,
            level_base,
            total_vars: next as usize,
        }
    }

    pub(crate) fn node_of(&self, me: usize, level: usize) -> usize {
        me >> level
    }

    pub(crate) fn side_of(&self, me: usize, level: usize) -> usize {
        (me >> (level - 1)) & 1
    }

    pub(crate) fn flag_var(&self, level: usize, node: usize, side: usize) -> VarId {
        VarId(self.level_base[level] + (node as u32) * 3 + side as u32)
    }

    pub(crate) fn turn_var(&self, level: usize, node: usize) -> VarId {
        VarId(self.level_base[level] + (node as u32) * 3 + 2)
    }

    pub(crate) fn spec(&self) -> VarSpec {
        let mut b = VarSpec::builder();
        for l in 1..=self.levels {
            let nodes = (1usize << self.levels) >> l;
            for node in 0..nodes {
                b.var(format!("flag[{l}][{node}][0]"), 0, None);
                b.var(format!("flag[{l}][{node}][1]"), 0, None);
                b.var(format!("turn[{l}][{node}]"), 0, None);
            }
        }
        let spec = b.build();
        debug_assert_eq!(spec.count(), self.total_vars);
        spec
    }
}

/// The per-level-fence tournament lock system.
#[derive(Clone, Debug)]
pub struct TournamentLock {
    n: usize,
    passages: usize,
    /// Shared with every program, so forking a program copies no tree.
    layout: Arc<TreeLayout>,
}

impl TournamentLock {
    /// An `n`-process instance performing `passages` passages each.
    pub fn new(n: usize, passages: usize) -> Self {
        TournamentLock {
            n,
            passages,
            layout: Arc::new(TreeLayout::new(n)),
        }
    }
}

impl System for TournamentLock {
    fn n(&self) -> usize {
        self.n
    }

    fn vars(&self) -> VarSpec {
        self.layout.spec()
    }

    fn program(&self, pid: ProcId) -> Box<dyn Program> {
        Box::new(TournamentProgram {
            me: pid.index(),
            layout: self.layout.clone(),
            state: State::Enter,
            passages_left: self.passages,
        })
    }

    fn name(&self) -> &str {
        "tournament"
    }

    fn compile_vm(&self) -> Option<VmSystem> {
        let code = (0..self.n).map(|me| self.compile(me)).collect();
        Some(VmSystem::new(
            self.name(),
            self.vars(),
            code,
            self.symmetric(),
        ))
    }
}

impl TournamentLock {
    /// Compiles process `me` by unrolling the arbitration tree: the level
    /// `l` of the native `State` payloads is fully encoded in the pc (one
    /// Peterson block per level on the way up, one clear per level on the
    /// way down), every node/side variable is a compile-time constant for
    /// a fixed `me`, and both reads are test-and-discard comparisons — so
    /// the only register is `r0 = passages_left`. The tree is
    /// pid-*shaped* (leaf position determines the path), so the bytecode
    /// is [`SymMode::Asymmetric`] like the native program.
    fn compile(&self, me: usize) -> Bytecode {
        const R_LEFT: u8 = 0;
        let lay = &self.layout;
        let mut a = Asm::new();
        let enter = a.here();
        a.enter();
        if lay.levels == 0 {
            // n == 1: Enter → Cs → Exit, no tree and no release fence.
            a.cs();
        } else {
            let cs = a.label();
            let mut next_level: Option<Label> = None;
            for l in 1..=lay.levels {
                if let Some(lbl) = next_level.take() {
                    a.bind(lbl);
                }
                let node = lay.node_of(me, l);
                let side = lay.side_of(me, l);
                let my_flag = VRef::Direct(lay.flag_var(l, node, side).0);
                let peer_flag = VRef::Direct(lay.flag_var(l, node, 1 - side).0);
                let turn = VRef::Direct(lay.turn_var(l, node).0);
                a.write(my_flag, Operand::Imm(1));
                a.write(turn, Operand::Imm(side as Value));
                a.fence();
                let adv = if l < lay.levels {
                    let lbl = a.label();
                    next_level = Some(lbl);
                    lbl
                } else {
                    cs
                };
                // Peterson wait: peer flag clear → advance; else spin on
                // the turn until it is the peer's.
                let read_turn = a.label();
                let read_peer = a.here();
                a.read_br(peer_flag, Cmp::Eq, Operand::Imm(0), adv, read_turn);
                a.bind(read_turn);
                a.read_br(turn, Cmp::Eq, Operand::Imm(side as Value), read_peer, adv);
            }
            a.bind(cs);
            a.cs();
            // Release: clear from the root down, one fence at the end.
            for l in (1..=lay.levels).rev() {
                let node = lay.node_of(me, l);
                let side = lay.side_of(me, l);
                let my_flag = VRef::Direct(lay.flag_var(l, node, side).0);
                a.write(my_flag, Operand::Imm(0));
            }
            a.fence();
        }
        a.exit();
        a.add(R_LEFT, -1);
        a.br(Operand::Reg(R_LEFT), Cmp::Ne, Operand::Imm(0), enter);
        a.halt();
        let mut init_regs = [0; NREGS];
        init_regs[R_LEFT as usize] = self.passages as Value;
        Bytecode {
            code: a.finish(),
            init_regs,
            recover_pc: None,
            sym: SymMode::Asymmetric,
            me: me as u32,
        }
    }
}

#[derive(Clone, Copy, Hash, Debug)]
enum State {
    Enter,
    WriteFlag { l: usize },
    WriteTurn { l: usize },
    FenceLevel { l: usize },
    ReadPeerFlag { l: usize },
    ReadTurn { l: usize },
    Cs,
    ClearFlag { l: usize },
    FenceRelease,
    Exit,
    Done,
}

#[derive(Clone, Debug)]
struct TournamentProgram {
    me: usize,
    layout: Arc<TreeLayout>,
    state: State,
    passages_left: usize,
}

impl TournamentProgram {
    fn advance_level(&self, l: usize) -> State {
        if l < self.layout.levels {
            State::WriteFlag { l: l + 1 }
        } else {
            State::Cs
        }
    }
}

impl Program for TournamentProgram {
    fn state_hash(&self, mut h: &mut dyn std::hash::Hasher) {
        use std::hash::Hash;
        self.state.hash(&mut h);
        self.passages_left.hash(&mut h);
    }

    fn peek(&self) -> Op {
        let lay = &self.layout;
        match self.state {
            State::Enter => Op::Enter,
            State::WriteFlag { l } => Op::Write(
                lay.flag_var(l, lay.node_of(self.me, l), lay.side_of(self.me, l)),
                1,
            ),
            State::WriteTurn { l } => Op::Write(
                lay.turn_var(l, lay.node_of(self.me, l)),
                lay.side_of(self.me, l) as Value,
            ),
            State::FenceLevel { .. } | State::FenceRelease => Op::Fence,
            State::ReadPeerFlag { l } => {
                Op::Read(lay.flag_var(l, lay.node_of(self.me, l), 1 - lay.side_of(self.me, l)))
            }
            State::ReadTurn { l } => Op::Read(lay.turn_var(l, lay.node_of(self.me, l))),
            State::Cs => Op::Cs,
            State::ClearFlag { l } => Op::Write(
                lay.flag_var(l, lay.node_of(self.me, l), lay.side_of(self.me, l)),
                0,
            ),
            State::Exit => Op::Exit,
            State::Done => Op::Halt,
        }
    }

    fn apply(&mut self, outcome: Outcome) {
        self.state = match self.state {
            State::Enter => {
                if self.layout.levels == 0 {
                    State::Cs
                } else {
                    State::WriteFlag { l: 1 }
                }
            }
            State::WriteFlag { l } => State::WriteTurn { l },
            State::WriteTurn { l } => State::FenceLevel { l },
            State::FenceLevel { l } => State::ReadPeerFlag { l },
            State::ReadPeerFlag { l } => match outcome {
                Outcome::ReadValue(0) => self.advance_level(l),
                Outcome::ReadValue(_) => State::ReadTurn { l },
                other => panic!("unexpected outcome {other:?} for flag read"),
            },
            State::ReadTurn { l } => {
                let turn = match outcome {
                    Outcome::ReadValue(v) => v,
                    other => panic!("unexpected outcome {other:?} for turn read"),
                };
                if turn == self.layout.side_of(self.me, l) as Value {
                    State::ReadPeerFlag { l } // still our turn to wait: spin
                } else {
                    self.advance_level(l)
                }
            }
            State::Cs => {
                if self.layout.levels == 0 {
                    State::Exit
                } else {
                    // Clear from the root down.
                    State::ClearFlag {
                        l: self.layout.levels,
                    }
                }
            }
            State::ClearFlag { l } => {
                if l > 1 {
                    State::ClearFlag { l: l - 1 }
                } else {
                    State::FenceRelease
                }
            }
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
    fn layout_geometry() {
        let t = TreeLayout::new(8);
        assert_eq!(t.levels, 3);
        // Level 1 has 4 nodes, level 2 has 2, level 3 has 1: 7 nodes, 21 vars.
        assert_eq!(t.spec().count(), 21);
        assert_eq!(t.node_of(5, 1), 2);
        assert_eq!(t.side_of(5, 1), 1);
        assert_eq!(t.node_of(5, 3), 0);
        assert_eq!(t.side_of(5, 3), 1);
    }

    #[test]
    fn layout_handles_non_powers_of_two() {
        let t = TreeLayout::new(5);
        assert_eq!(t.levels, 3, "5 processes need a depth-3 tree");
        let t = TreeLayout::new(1);
        assert_eq!(t.levels, 0);
        assert_eq!(t.spec().count(), 0);
    }

    #[test]
    fn standard_battery() {
        testing::standard_lock_battery(&|n, p| Box::new(TournamentLock::new(n, p)));
    }

    #[test]
    fn vm_lockstep_battery() {
        testing::standard_vm_battery(&|n, p| Box::new(TournamentLock::new(n, p)));
    }

    #[test]
    fn fences_are_logarithmic() {
        let mut fences = Vec::new();
        for n in [2, 4, 8, 16] {
            let sys = TournamentLock::new(n, 1);
            let m = testing::check_solo_progress(&sys, ProcId(0), 1, 100_000).unwrap();
            fences.push(m.metrics().proc(ProcId(0)).completed[0].counters.fences);
        }
        // log2(n) level fences + 1 release fence.
        assert_eq!(fences, vec![2, 3, 4, 5]);
    }

    #[test]
    fn rmr_is_logarithmic_solo() {
        let mut rmrs = Vec::new();
        for n in [2, 16] {
            let sys = TournamentLock::new(n, 1);
            let m = testing::check_solo_progress(&sys, ProcId(0), 1, 100_000).unwrap();
            rmrs.push(m.metrics().proc(ProcId(0)).completed[0].counters.rmr_wb);
        }
        assert!(
            rmrs[1] <= rmrs[0] * 4,
            "RMRs grow logarithmically: {rmrs:?}"
        );
    }
}
