//! R1: the crash-fault model — what a crash budget does to the verified
//! portfolio, shared by `exp_r1_crash` and `report_all`.
//!
//! Each row runs one lock through the exhaustive explorer of a
//! [`crate::checker`] under the crash-extended invariant battery
//! ([`tpa_check::crash_invariants`]) at a crash budget of 0 and of 1.
//! Budget 0 must reproduce the crash-free state space exactly (the fault
//! model gates enumeration, not semantics); budget 1 adds the crash
//! directives and shows which variants survive them. The negative
//! control isolates the crash-induced failure: the unfenced recoverable
//! bakery checked against [`CrashSafeExclusion`] alone passes with no
//! budget and is caught — with the data-losing crash kept in the shrunk
//! witness — the moment one crash is allowed.

use std::sync::Arc;

use tpa_check::invariant::CrashSafeExclusion;
use tpa_check::{crash_invariants, Report, Verdict};
use tpa_obs::json::Json;
use tpa_obs::Probe;
use tpa_tso::{Directive, System};

use crate::report::{self, num, object};

/// One row of the R1 table: one crash-aware exhaustive check.
pub struct CrashRow {
    /// Lock name, per [`System::name`].
    pub algo: String,
    /// Process count the lock was instantiated for.
    pub n: usize,
    /// Schedule-length bound the explorer ran under.
    pub max_steps: usize,
    /// Crash budget the search enumerated under.
    pub max_crashes: u32,
    /// Transitions actually executed.
    pub transitions: u64,
    /// Distinct states visited.
    pub unique_states: usize,
    /// Whether the search exhausted the bounded space.
    pub complete: bool,
    /// `"pass"`, `"incomplete"`, or `"VIOLATION(<invariant>)"`.
    pub verdict: String,
    /// Length of the raw violating schedule (0 on a pass).
    pub witness_len: usize,
    /// Length after ddmin shrinking (0 on a pass).
    pub shrunk_len: usize,
    /// Whether the shrunk witness contains a crash directive.
    pub crash_in_shrunk: bool,
}

impl CrashRow {
    /// Flattens a checker [`Report`] into a table/JSON row.
    pub fn from_report(report: &Report, n: usize, max_steps: usize, max_crashes: u32) -> Self {
        let (verdict, witness_len, shrunk_len, crash_in_shrunk) = match &report.verdict {
            Verdict::Pass => ("pass".to_owned(), 0, 0, false),
            Verdict::Incomplete { .. } => ("incomplete".to_owned(), 0, 0, false),
            Verdict::Violation {
                invariant,
                found_len,
                shrunk,
                ..
            } => (
                format!("VIOLATION({invariant})"),
                *found_len,
                shrunk.len(),
                shrunk.iter().any(|d| matches!(d, Directive::Crash(_))),
            ),
        };
        CrashRow {
            algo: report.algo.clone(),
            n,
            max_steps,
            max_crashes,
            transitions: report.stats.transitions,
            unique_states: report.stats.unique_states,
            complete: report.stats.complete,
            verdict,
            witness_len,
            shrunk_len,
            crash_in_shrunk,
        }
    }

    /// This row as a JSON object.
    pub fn json(&self) -> Json {
        object([
            ("algo", Json::Str(self.algo.clone())),
            ("n", num(self.n as f64)),
            ("max_steps", num(self.max_steps as f64)),
            ("max_crashes", num(f64::from(self.max_crashes))),
            ("transitions", num(self.transitions as f64)),
            ("unique_states", num(self.unique_states as f64)),
            ("complete", Json::Bool(self.complete)),
            ("verdict", Json::Str(self.verdict.clone())),
            ("witness_len", num(self.witness_len as f64)),
            ("shrunk_len", num(self.shrunk_len as f64)),
            ("crash_in_shrunk", Json::Bool(self.crash_in_shrunk)),
        ])
    }
}

/// One exhaustive TSO check under the crash-extended battery.
pub fn check(
    system: &dyn System,
    max_steps: usize,
    max_crashes: u32,
    threads: usize,
    probe: Option<&Arc<dyn Probe>>,
) -> Report {
    crate::checker(system, max_steps, threads, probe)
        .invariants(crash_invariants())
        .max_crashes(max_crashes)
        .exhaustive()
}

/// The R1 portfolio: crash-relevant bakery variants plus one CAS-based
/// lock, each at crash budgets 0 and 1.
pub fn portfolio_rows(
    n: usize,
    max_steps: usize,
    threads: usize,
    probe: Option<&Arc<dyn Probe>>,
) -> Vec<CrashRow> {
    use tpa_algos::sim::bakery::BakeryLock;
    let systems: Vec<Box<dyn System>> = vec![
        Box::new(BakeryLock::new(n, 1)),
        Box::new(BakeryLock::recoverable(n, 1)),
        Box::new(BakeryLock::recoverable_without_doorway_fence(n, 1)),
        tpa_algos::lock_by_name("tas", n, 1).expect("tas is registered"),
    ];
    let mut rows = Vec::new();
    for sys in &systems {
        for max_crashes in [0, 1] {
            let report = check(sys.as_ref(), max_steps, max_crashes, threads, probe);
            rows.push(CrashRow::from_report(&report, n, max_steps, max_crashes));
        }
    }
    rows
}

/// The negative control: the unfenced recoverable bakery against
/// [`CrashSafeExclusion`] *alone*, so the only way to fail is a crash
/// that discarded buffered doorway stores. With `max_crashes` = 0 the
/// invariant is vacuous and the check passes; with 1 the explorer must
/// find the crash-induced exclusion violation and ddmin must keep the
/// crash in the minimal witness.
pub fn negative_control(
    max_steps: usize,
    max_crashes: u32,
    threads: usize,
    probe: Option<&Arc<dyn Probe>>,
) -> Report {
    let broken = tpa_algos::sim::bakery::BakeryLock::recoverable_without_doorway_fence(2, 1);
    crate::checker(&broken, max_steps, threads, probe)
        .invariants(vec![Box::new(CrashSafeExclusion)])
        .max_crashes(max_crashes)
        .exhaustive()
}

/// R1: runs [`portfolio_rows`] and prints the R1 table.
pub fn run(
    n: usize,
    max_steps: usize,
    threads: usize,
    probe: Option<&Arc<dyn Probe>>,
) -> Vec<CrashRow> {
    let rows = portfolio_rows(n, max_steps, threads, probe);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.algo.clone(),
                r.n.to_string(),
                r.max_steps.to_string(),
                r.max_crashes.to_string(),
                r.transitions.to_string(),
                r.unique_states.to_string(),
                if r.complete { "yes" } else { "budget" }.to_string(),
                r.verdict.clone(),
                r.witness_len.to_string(),
                r.shrunk_len.to_string(),
                if r.crash_in_shrunk { "yes" } else { "-" }.to_string(),
            ]
        })
        .collect();
    report::print_table(
        &format!("R1: crash-fault model (TSO, n = {n}, crash-extended battery)"),
        &[
            "algo",
            "n",
            "steps",
            "crashes",
            "transitions",
            "states",
            "complete",
            "verdict",
            "witness",
            "shrunk",
            "crash kept",
        ],
        &table,
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpa_obs::json::parse;

    #[test]
    fn zero_budget_rows_match_the_crash_free_state_space() {
        let lock = tpa_algos::sim::bakery::BakeryLock::recoverable(2, 1);
        let with_battery = check(&lock, 28, 0, 1, None);
        let plain = crate::checker(&lock, 28, 1, None).exhaustive();
        assert!(with_battery.verdict.passed() && plain.verdict.passed());
        assert_eq!(
            with_battery.stats.unique_states, plain.stats.unique_states,
            "the crash battery at budget 0 must not grow the state space"
        );
    }

    #[test]
    fn negative_control_is_crash_gated() {
        let clean = negative_control(32, 0, 2, None);
        assert!(
            clean.verdict.passed(),
            "without a budget the crash invariant is vacuous: {:?}",
            clean.verdict
        );
        let caught = negative_control(32, 1, 2, None);
        let Verdict::Violation {
            invariant, shrunk, ..
        } = &caught.verdict
        else {
            panic!("budget 1 must break the unfenced doorway");
        };
        assert_eq!(*invariant, "crash-safe-exclusion");
        assert!(shrunk.iter().any(|d| matches!(d, Directive::Crash(_))));
    }

    #[test]
    fn crash_rows_round_trip_through_json() {
        let report = negative_control(32, 1, 2, None);
        let row = CrashRow::from_report(&report, 2, 32, 1);
        let payload = Json::Arr(vec![row.json()]).render();
        let v = parse(&payload).expect("row JSON must parse");
        let rows = v.as_arr().expect("rows array");
        assert_eq!(
            rows[0].get("algo").and_then(Json::as_str),
            Some("bakery-rec-nofence")
        );
        assert_eq!(rows[0].get("max_crashes").and_then(Json::as_u64), Some(1));
        assert_eq!(
            rows[0].get("crash_in_shrunk").and_then(Json::as_bool),
            Some(true)
        );
    }
}
