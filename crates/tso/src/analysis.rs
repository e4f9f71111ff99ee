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

/// Extracts every passage/operation span from a log, in start order.
/// Unfinished passages have `end: None`.
pub fn spans(log: &[Event]) -> Vec<Span> {
    let mut result: Vec<Span> = Vec::new();
    for e in log {
        if is_start(e.kind) {
            result.push(Span {
                pid: e.pid,
                start: e.seq,
                end: None,
            });
        } else if is_end(e.kind) {
            if let Some(open) = result
                .iter_mut()
                .rev()
                .find(|s| s.pid == e.pid && s.end.is_none())
            {
                open.end = Some(e.seq);
            }
        }
    }
    result
}

/// Computes the contention gauges for one span.
pub fn contention(log: &[Event], span: Span) -> Contention {
    let end = span.end.unwrap_or(log.len().saturating_sub(1));

    // Total contention: every process with any event in the execution.
    let total: BTreeSet<ProcId> = log.iter().map(|e| e.pid).collect();

    // Reconstruct the active set over time.
    let mut active: BTreeSet<ProcId> = BTreeSet::new();
    let mut interval: BTreeSet<ProcId> = BTreeSet::new();
    let mut point = 0usize;
    for e in log {
        if is_start(e.kind) {
            active.insert(e.pid);
        }
        let in_window = e.seq >= span.start && e.seq <= end;
        if in_window {
            for p in &active {
                interval.insert(*p);
            }
            point = point.max(active.len());
        }
        if is_end(e.kind) {
            active.remove(&e.pid);
        }
        if e.seq > end {
            break;
        }
    }

    Contention {
        interval: interval.len(),
        point,
        total: total.len(),
    }
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
        let sp = spans(m.log());
        assert_eq!(sp.len(), 2);
        assert_eq!(sp[0].pid, ProcId(0));
        assert_eq!(sp[0].start, 0);
        assert_eq!(sp[0].end, Some(5));
        assert_eq!(sp[1].pid, ProcId(1));
        assert_eq!(sp[1].end, Some(3));
    }

    #[test]
    fn contention_gauges_nested() {
        let m = nested_passages();
        let sp = spans(m.log());
        let outer = contention(m.log(), sp[0]);
        assert_eq!(outer.interval, 2, "p1 was active during p0's passage");
        assert_eq!(outer.point, 2);
        assert_eq!(outer.total, 2, "p2 never issued an event");
        let inner = contention(m.log(), sp[1]);
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
        let sp = spans(m.log());
        let c = contention(m.log(), sp[0]);
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
        let sp = spans(m.log());
        for s in sp {
            let c = contention(m.log(), s);
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
        let sp = spans(m.log());
        assert_eq!(sp[0].end, None);
        let c = contention(m.log(), sp[0]);
        assert_eq!(c.interval, 2);
    }
}
