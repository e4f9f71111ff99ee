//! TSO litmus tests through the public API: the simulator exhibits
//! exactly the reorderings the model permits and no others.

use tpa::prelude::*;
use tpa::tso::scripted::{Instr, ScriptSystem};
use tpa::tso::EventKind;

/// p0: x=1; r=y. p1: y=1; r=x.
fn store_buffer() -> ScriptSystem {
    ScriptSystem::new(2, 2, |pid| {
        let me = pid.0;
        vec![
            Instr::Write { var: me, value: 1 },
            Instr::Read {
                var: 1 - me,
                reg: 0,
            },
            Instr::Halt,
        ]
    })
}

#[test]
fn store_buffer_both_zero_is_reachable() {
    // The hallmark TSO outcome, impossible under SC.
    let sys = store_buffer();
    let mut m = Machine::new(&sys);
    for p in [ProcId(0), ProcId(1)] {
        m.step(Directive::Issue(p)).unwrap();
    }
    for p in [ProcId(0), ProcId(1)] {
        m.step(Directive::Issue(p)).unwrap();
    }
    assert_eq!(m.program(ProcId(0)).unwrap().register(0), Some(0));
    assert_eq!(m.program(ProcId(1)).unwrap().register(0), Some(0));
}

#[test]
fn store_buffer_with_fences_never_reads_both_zero() {
    // With a fence between write and read, at least one process sees the
    // other's write — under every schedule the machine can produce.
    let sys = ScriptSystem::new(2, 2, |pid| {
        let me = pid.0;
        vec![
            Instr::Write { var: me, value: 1 },
            Instr::Fence,
            Instr::Read {
                var: 1 - me,
                reg: 0,
            },
            Instr::Halt,
        ]
    });
    for seed in 0..200u64 {
        let (m, stats) = run_random(&sys, seed, CommitPolicy::Random { num: 64 }, 10_000).unwrap();
        assert!(stats.all_halted);
        let r0 = m.program(ProcId(0)).unwrap().register(0).unwrap();
        let r1 = m.program(ProcId(1)).unwrap().register(0).unwrap();
        assert!(
            r0 == 1 || r1 == 1,
            "SB with fences gave (0,0) at seed {seed}"
        );
    }
}

#[test]
fn writes_commit_in_issue_order() {
    // TSO: no write-write reordering. Observing the second write implies
    // the first is visible.
    let sys = ScriptSystem::new(2, 2, |pid| {
        if pid.0 == 0 {
            vec![
                Instr::Write { var: 0, value: 1 }, // data
                Instr::Write { var: 1, value: 1 }, // flag
                Instr::Halt,
            ]
        } else {
            vec![
                Instr::Read { var: 1, reg: 0 }, // flag
                Instr::Read { var: 0, reg: 1 }, // data
                Instr::Halt,
            ]
        }
    });
    for seed in 0..200u64 {
        let (m, _) = run_random(&sys, seed, CommitPolicy::Random { num: 128 }, 10_000).unwrap();
        let flag = m.program(ProcId(1)).unwrap().register(0).unwrap();
        let data = m.program(ProcId(1)).unwrap().register(1).unwrap();
        if flag == 1 {
            assert_eq!(data, 1, "message passing broken at seed {seed}");
        }
    }
}

#[test]
fn read_own_write_early() {
    // A process always sees its own buffered writes (store-to-load
    // forwarding), even though nobody else does.
    let sys = ScriptSystem::new(2, 1, |pid| {
        if pid.0 == 0 {
            vec![
                Instr::Write { var: 0, value: 7 },
                Instr::Read { var: 0, reg: 0 },
                Instr::Halt,
            ]
        } else {
            vec![Instr::Read { var: 0, reg: 0 }, Instr::Halt]
        }
    });
    let mut m = Machine::new(&sys);
    m.step(Directive::Issue(ProcId(0))).unwrap();
    m.step(Directive::Issue(ProcId(0))).unwrap();
    m.step(Directive::Issue(ProcId(1))).unwrap();
    assert_eq!(
        m.program(ProcId(0)).unwrap().register(0),
        Some(7),
        "own write visible"
    );
    assert_eq!(
        m.program(ProcId(1)).unwrap().register(0),
        Some(0),
        "foreign write invisible"
    );
}

#[test]
fn coalescing_is_observable() {
    // Two writes to one variable occupy a single buffer slot; only the
    // newest value ever commits.
    let sys = ScriptSystem::new(1, 1, |_| {
        vec![
            Instr::Write { var: 0, value: 1 },
            Instr::Write { var: 0, value: 2 },
            Instr::Fence,
            Instr::Halt,
        ]
    });
    let (m, _) = run_round_robin(&sys, CommitPolicy::Lazy, 100).unwrap();
    let commits: Vec<_> = m
        .log()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::CommitWrite { value, .. } => Some(value),
            _ => None,
        })
        .collect();
    assert_eq!(commits, vec![2], "only the coalesced value commits");
    assert_eq!(m.value(VarId(0)), 2);
}

#[test]
fn cas_acts_as_a_fence() {
    // A CAS drains the buffer: writes issued before a CAS are visible to
    // others after it executes.
    let sys = ScriptSystem::new(1, 2, |_| {
        vec![
            Instr::Write { var: 0, value: 9 },
            Instr::Cas {
                var: 1,
                expected: 0,
                new: 1,
                success_reg: 0,
            },
            Instr::Halt,
        ]
    });
    let (m, _) = run_round_robin(&sys, CommitPolicy::Lazy, 100).unwrap();
    assert_eq!(
        m.value(VarId(0)),
        9,
        "buffered write committed by the CAS drain"
    );
    assert_eq!(m.value(VarId(1)), 1);
}

#[test]
fn iriw_is_forbidden_under_tso() {
    // Independent Reads of Independent Writes: TSO (with a total commit
    // order through shared memory) forbids the two readers disagreeing on
    // the order of the two writes. Our machine commits to a single shared
    // memory, so the outcome r1=1,r2=0 ∧ r3=1,r4=0 must never appear.
    let sys = ScriptSystem::new(4, 2, |pid| match pid.0 {
        0 => vec![Instr::Write { var: 0, value: 1 }, Instr::Fence, Instr::Halt],
        1 => vec![Instr::Write { var: 1, value: 1 }, Instr::Fence, Instr::Halt],
        2 => vec![
            Instr::Read { var: 0, reg: 0 },
            Instr::Read { var: 1, reg: 1 },
            Instr::Halt,
        ],
        _ => vec![
            Instr::Read { var: 1, reg: 0 },
            Instr::Read { var: 0, reg: 1 },
            Instr::Halt,
        ],
    });
    for seed in 0..300u64 {
        let (m, _) = run_random(&sys, seed, CommitPolicy::Random { num: 64 }, 10_000).unwrap();
        let r = |p: u32, reg: usize| m.program(ProcId(p)).unwrap().register(reg).unwrap();
        let p2_saw_x_first = r(2, 0) == 1 && r(2, 1) == 0;
        let p3_saw_y_first = r(3, 0) == 1 && r(3, 1) == 0;
        assert!(
            !(p2_saw_x_first && p3_saw_y_first),
            "IRIW violation at seed {seed}: readers disagree on write order"
        );
    }
}

// ---------------------------------------------------------------------------
// Classic named litmus shapes (IRIW, R, 2+2W, S) as scripts, pushed through
// the exhaustive checker on BOTH execution paths — native `ScriptProgram`s
// and the compiled bytecode VM (`Execution::Compiled`). For every shape the
// two paths must agree exactly: same verdict, same unique-state count on a
// pass, same lexicographically-least witness on a violation. Under TSO all
// four forbidden outcomes are unreachable; under PSO (per-variable buffers,
// write-write reordering) R, 2+2W and S become reachable and the checker
// must exhibit them through the VM too.
// ---------------------------------------------------------------------------

use tpa::check::invariant::{Invariant, Violation};
use tpa::tso::machine::NextEvent;

/// A litmus invariant: fires when every process has halted (so every
/// buffer has drained — the scripts fence before halting) and the final
/// registers/memory match the forbidden outcome.
struct ForbiddenOutcome {
    label: &'static str,
    predicate: fn(&Machine) -> bool,
}

impl Invariant for ForbiddenOutcome {
    fn name(&self) -> &'static str {
        self.label
    }
    fn check(&self, m: &Machine) -> Option<Violation> {
        let all_halted = (0..m.n()).all(|p| m.peek_next(ProcId(p as u32)) == NextEvent::Halted);
        (all_halted && (self.predicate)(m)).then(|| Violation {
            invariant: self.label,
            detail: "forbidden litmus outcome reached".into(),
        })
    }
}

fn reg(m: &Machine, p: u32, r: usize) -> Value {
    m.program(ProcId(p)).unwrap().register(r).unwrap()
}

/// Checks one litmus on both paths and pins them against each other.
/// Returns whether the forbidden outcome was reachable.
fn litmus_both_paths(
    sys: &ScriptSystem,
    model: MemoryModel,
    label: &'static str,
    predicate: fn(&Machine) -> bool,
) -> bool {
    let run = |vm: bool| {
        let features = if vm {
            tpa::check::Features::default().compiled()
        } else {
            tpa::check::Features::default()
        };
        Checker::new(sys)
            .model(model)
            .invariants(vec![Box::new(ForbiddenOutcome { label, predicate })])
            .features(features)
            .exhaustive()
    };
    let native = run(false);
    let vm = run(true);
    assert!(vm.vm, "{label}: vm run did not engage the compiler");
    match (&native.verdict, &vm.verdict) {
        (Verdict::Pass, Verdict::Pass) => {
            assert!(
                native.stats.complete && vm.stats.complete,
                "{label}: truncated"
            );
            assert_eq!(
                native.stats.unique_states, vm.stats.unique_states,
                "{label}: vm explored a different state set"
            );
            false
        }
        (Verdict::Violation { found: a, .. }, Verdict::Violation { found: b, .. }) => {
            assert_eq!(a, b, "{label}: vm witness differs from native");
            true
        }
        (n, v) => panic!(
            "{label}: paths disagree (native {}, vm {})",
            if n.passed() { "pass" } else { "violation" },
            if v.passed() { "pass" } else { "violation" },
        ),
    }
}

/// IRIW: two writers, two readers reading the two variables in opposite
/// orders. With a single shared memory the readers can never disagree on
/// the commit order — forbidden under TSO *and* PSO, on both paths.
#[test]
fn iriw_forbidden_on_both_paths() {
    let sys = ScriptSystem::new(4, 2, |pid| match pid.0 {
        0 => vec![Instr::Write { var: 0, value: 1 }, Instr::Fence, Instr::Halt],
        1 => vec![Instr::Write { var: 1, value: 1 }, Instr::Fence, Instr::Halt],
        2 => vec![
            Instr::Read { var: 0, reg: 0 },
            Instr::Read { var: 1, reg: 1 },
            Instr::Halt,
        ],
        _ => vec![
            Instr::Read { var: 1, reg: 0 },
            Instr::Read { var: 0, reg: 1 },
            Instr::Halt,
        ],
    });
    let forbidden = |m: &Machine| {
        reg(m, 2, 0) == 1 && reg(m, 2, 1) == 0 && reg(m, 3, 0) == 1 && reg(m, 3, 1) == 0
    };
    for model in [MemoryModel::Tso, MemoryModel::Pso] {
        assert!(
            !litmus_both_paths(&sys, model, "iriw", forbidden),
            "IRIW outcome reachable under {model:?}"
        );
    }
}

/// R: p0 writes x then y; p1 overwrites y, fences, reads x. Seeing the
/// final y = 2 alongside r(x) = 0 needs p0's writes reordered — forbidden
/// under TSO, reachable under PSO.
#[test]
fn r_forbidden_under_tso_reachable_under_pso_on_both_paths() {
    let sys = ScriptSystem::new(2, 2, |pid| {
        if pid.0 == 0 {
            vec![
                Instr::Write { var: 0, value: 1 },
                Instr::Write { var: 1, value: 1 },
                Instr::Fence,
                Instr::Halt,
            ]
        } else {
            vec![
                Instr::Write { var: 1, value: 2 },
                Instr::Fence,
                Instr::Read { var: 0, reg: 0 },
                Instr::Halt,
            ]
        }
    });
    let forbidden = |m: &Machine| m.value(VarId(1)) == 2 && reg(m, 1, 0) == 0;
    assert!(!litmus_both_paths(
        &sys,
        MemoryModel::Tso,
        "litmus-r",
        forbidden
    ));
    assert!(litmus_both_paths(
        &sys,
        MemoryModel::Pso,
        "litmus-r",
        forbidden
    ));
}

/// 2+2W: both processes write both variables in opposite orders. Both
/// "first" writes surviving needs write-write reordering — forbidden
/// under TSO, reachable under PSO.
#[test]
fn two_plus_two_w_forbidden_under_tso_reachable_under_pso_on_both_paths() {
    let sys = ScriptSystem::new(2, 2, |pid| {
        if pid.0 == 0 {
            vec![
                Instr::Write { var: 0, value: 1 },
                Instr::Write { var: 1, value: 2 },
                Instr::Fence,
                Instr::Halt,
            ]
        } else {
            vec![
                Instr::Write { var: 1, value: 1 },
                Instr::Write { var: 0, value: 2 },
                Instr::Fence,
                Instr::Halt,
            ]
        }
    });
    let forbidden = |m: &Machine| m.value(VarId(0)) == 1 && m.value(VarId(1)) == 1;
    assert!(!litmus_both_paths(
        &sys,
        MemoryModel::Tso,
        "litmus-2+2w",
        forbidden
    ));
    assert!(litmus_both_paths(
        &sys,
        MemoryModel::Pso,
        "litmus-2+2w",
        forbidden
    ));
}

/// S: p0 writes x = 2 then y = 1; p1 reads y and then overwrites x.
/// Reading y = 1 while p0's x = 2 still wins the final write order needs
/// p0's writes reordered — forbidden under TSO, reachable under PSO.
#[test]
fn s_forbidden_under_tso_reachable_under_pso_on_both_paths() {
    let sys = ScriptSystem::new(2, 2, |pid| {
        if pid.0 == 0 {
            vec![
                Instr::Write { var: 0, value: 2 },
                Instr::Write { var: 1, value: 1 },
                Instr::Fence,
                Instr::Halt,
            ]
        } else {
            vec![
                Instr::Read { var: 1, reg: 0 },
                Instr::Write { var: 0, value: 1 },
                Instr::Fence,
                Instr::Halt,
            ]
        }
    });
    let forbidden = |m: &Machine| reg(m, 1, 0) == 1 && m.value(VarId(0)) == 2;
    assert!(!litmus_both_paths(
        &sys,
        MemoryModel::Tso,
        "litmus-s",
        forbidden
    ));
    assert!(litmus_both_paths(
        &sys,
        MemoryModel::Pso,
        "litmus-s",
        forbidden
    ));
}

/// SB (store buffer): the positive control — reachable under TSO, and
/// both paths must exhibit it with the identical lex-least witness.
#[test]
fn store_buffer_reachable_on_both_paths() {
    let sys = store_buffer();
    let forbidden = |m: &Machine| reg(m, 0, 0) == 0 && reg(m, 1, 0) == 0;
    assert!(litmus_both_paths(
        &sys,
        MemoryModel::Tso,
        "litmus-sb",
        forbidden
    ));
    assert!(litmus_both_paths(
        &sys,
        MemoryModel::Pso,
        "litmus-sb",
        forbidden
    ));
}
