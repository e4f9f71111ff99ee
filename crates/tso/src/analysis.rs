//! Post-hoc execution analysis: passage spans and contention gauges.
//!
//! The paper distinguishes three contention measures for a passage `𝒫`
//! (Section 1):
//!
//! * **total contention** — processes that participate anywhere in the
//!   execution;
//! * **interval contention** — processes active at some point *during*
//!   `𝒫`;
//! * **point contention** — the maximum number of processes
//!   *simultaneously* active during `𝒫`.
//!
//! Adaptivity to point contention is the strongest promise (Kim–Anderson
//! is `O(min(k, log n))` for point contention `k`). These gauges are
//! computed here from an event log, so experiment tables can report the
//! contention an algorithm actually faced rather than the nominal `k`.

use std::collections::BTreeSet;

use crate::event::{Event, EventKind};
use crate::ids::ProcId;

/// One passage (or object operation) located in an execution.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Span {
    /// The process performing the passage.
    pub pid: ProcId,
    /// Index of the `Enter`/`Invoke` event in the log.
    pub start: usize,
    /// Index of the matching `Exit`/`Return` event, if the passage
    /// completed.
    pub end: Option<usize>,
}

/// Contention measures of one passage.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Contention {
    /// Distinct processes that were active at any point during the span
    /// (including the owner) — interval contention.
    pub interval: usize,
    /// Maximum number of simultaneously active processes during the span
    /// — point contention.
    pub point: usize,
    /// Distinct processes with any event anywhere in the execution —
    /// total contention (the measure Theorem 1 is stated in).
    pub total: usize,
}

fn is_start(kind: EventKind) -> bool {
    matches!(kind, EventKind::Enter | EventKind::Invoke { .. })
}

fn is_end(kind: EventKind) -> bool {
    matches!(kind, EventKind::Exit | EventKind::Return { .. })
}

/// Every passage/operation span of `log`, in start order, with its
/// contention gauges, computed in one pass over the log. Unfinished
/// passages have `end: None`, and their window runs to the end of the
/// log. An `Exit`/`Return` closes its process's latest open span.
///
/// A process is *active* from its `Enter`/`Invoke` event through its
/// `Exit`/`Return` event, both included. A span's interval contention
/// counts the processes active at some event of its window, and its
/// point contention is the most processes active at one such event.
pub fn contention(log: &[Event]) -> Vec<(Span, Contention)> {
    let total = log.iter().map(|e| e.pid).collect::<BTreeSet<_>>().len();
    let mut active: BTreeSet<ProcId> = BTreeSet::new();
    let mut spans: Vec<(Span, BTreeSet<ProcId>, usize)> = Vec::new();
    // Indices into `spans` of the spans whose window is still running.
    let mut open: Vec<usize> = Vec::new();
    for e in log {
        if is_start(e.kind) {
            // The active set only grows here, so the gauges of a window
            // are its first event's active set plus every later start.
            active.insert(e.pid);
            for &i in &open {
                let (_, interval, point) = &mut spans[i];
                interval.insert(e.pid);
                *point = (*point).max(active.len());
            }
            open.push(spans.len());
            let span = Span {
                pid: e.pid,
                start: e.seq,
                end: None,
            };
            spans.push((span, active.clone(), active.len()));
        } else if is_end(e.kind) {
            if let Some(k) = open.iter().rposition(|&i| spans[i].0.pid == e.pid) {
                spans[open.remove(k)].0.end = Some(e.seq);
            }
            active.remove(&e.pid);
        }
    }
    spans
        .into_iter()
        .map(|(span, interval, point)| {
            let gauges = Contention {
                interval: interval.len(),
                point,
                total,
            };
            (span, gauges)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Directive, Machine};
    use crate::scripted::{Instr, ScriptSystem};

    /// p0's passage fully encloses p1's.
    fn nested_passages() -> Machine {
        let sys = ScriptSystem::new(3, 1, |_| {
            vec![Instr::Enter, Instr::Cs, Instr::Exit, Instr::Halt]
        });
        let mut m = Machine::new(&sys);
        let step = |m: &mut Machine, p: u32| m.step(Directive::Issue(ProcId(p))).unwrap();
        step(&mut m, 0); // p0 Enter
        step(&mut m, 1); // p1 Enter
        step(&mut m, 1); // p1 Cs
        step(&mut m, 1); // p1 Exit
        step(&mut m, 0); // p0 Cs
        step(&mut m, 0); // p0 Exit
                         // p2 never runs.
        m
    }

    #[test]
    fn spans_are_extracted_with_ends() {
        let m = nested_passages();
        let sp = contention(m.log());
        assert_eq!(sp.len(), 2);
        assert_eq!(sp[0].0.pid, ProcId(0));
        assert_eq!(sp[0].0.start, 0);
        assert_eq!(sp[0].0.end, Some(5));
        assert_eq!(sp[1].0.pid, ProcId(1));
        assert_eq!(sp[1].0.end, Some(3));
    }

    #[test]
    fn contention_gauges_nested() {
        let m = nested_passages();
        let sp = contention(m.log());
        let outer = sp[0].1;
        assert_eq!(outer.interval, 2, "p1 was active during p0's passage");
        assert_eq!(outer.point, 2);
        assert_eq!(outer.total, 2, "p2 never issued an event");
        let inner = sp[1].1;
        assert_eq!(inner.interval, 2);
        assert_eq!(inner.point, 2);
    }

    #[test]
    fn solo_passage_has_unit_contention() {
        let sys = ScriptSystem::new(2, 1, |_| {
            vec![Instr::Enter, Instr::Cs, Instr::Exit, Instr::Halt]
        });
        let mut m = Machine::new(&sys);
        for _ in 0..3 {
            m.step(Directive::Issue(ProcId(0))).unwrap();
        }
        let c = contention(m.log())[0].1;
        assert_eq!(
            c,
            Contention {
                interval: 1,
                point: 1,
                total: 1
            }
        );
    }

    #[test]
    fn disjoint_passages_have_unit_point_contention() {
        let sys = ScriptSystem::new(2, 1, |_| {
            vec![Instr::Enter, Instr::Cs, Instr::Exit, Instr::Halt]
        });
        let mut m = Machine::new(&sys);
        for p in [0u32, 0, 0, 1, 1, 1] {
            m.step(Directive::Issue(ProcId(p))).unwrap();
        }
        for (_, c) in contention(m.log()) {
            assert_eq!(c.point, 1, "sequential passages never overlap");
            assert_eq!(c.interval, 1);
            assert_eq!(c.total, 2, "both participate in the execution");
        }
    }

    #[test]
    fn unfinished_span_extends_to_log_end() {
        let sys = ScriptSystem::new(2, 1, |_| {
            vec![Instr::Enter, Instr::Cs, Instr::Exit, Instr::Halt]
        });
        let mut m = Machine::new(&sys);
        m.step(Directive::Issue(ProcId(0))).unwrap(); // p0 Enter, never exits
        m.step(Directive::Issue(ProcId(1))).unwrap(); // p1 Enter
        let sp = contention(m.log());
        assert_eq!(sp[0].0.end, None);
        assert_eq!(sp[0].1.interval, 2);
    }
}
