//! `tpa_runs` — list, inspect and diff persisted checker runs, and drive
//! the whole scenario corpus through the run ledger.
//!
//! ```text
//! tpa_runs list   LEDGER
//! tpa_runs show   LEDGER ID
//! tpa_runs diff   LEDGER [ID_A ID_B]
//! tpa_runs corpus DIR --ledger LEDGER [--threads N] [--out FILE]
//!                     [--baseline FILE]
//! ```
//!
//! Every command reads the ledger's record files, `LEDGER/runs/*.json`,
//! the only copy of each run. `list` prints one line per recorded run,
//! oldest first (ordered by the records' `(created_us, seq, id)`, not
//! file name), and one warning line counting the record files that do
//! not parse. `show` dumps a
//! run's full JSON record (by id or unique id prefix) plus the derived
//! rates and checkpoint lineage. `diff` compares two runs — explicitly by
//! id, or, with no ids, the latest two runs of every scenario in the
//! ledger — and classifies what changed. Interrupted runs whose
//! checkpoint a later run resumed are *superseded*: the resume chain is
//! one logical check, so automatic pairing skips them rather than diff a
//! partial search against a finished one. The classification:
//!
//! * **regressions** (non-zero exit): verdict flips, unique-state-count
//!   drift between complete exhaustive runs with the same verdict (pass,
//!   or violation, whose count the sequential witness search takes; a
//!   violating run resumed from a checkpoint is not judged on it), and
//!   witness-length drift between violation runs — all deterministic at
//!   any thread count, so any drift is a real behaviour change;
//! * **warnings** (exit 0): throughput drops and cache-hit-rate drops,
//!   which legitimately vary with load and hardware; runs shorter than
//!   [`WALL_FLOOR_US`] are too noisy to rate and are not warned about;
//! * **env differences**: every fingerprint field on which the two runs
//!   disagree (thread count, build, `TPA_*` vars), printed as `env:`
//!   lines so a drift that is *not* a code change explains itself.
//!
//! `corpus` compiles and runs every `.tpa` under `DIR` (recursively),
//! appends each clause to the ledger under the `{path}#{clause}`
//! identity, and writes a machine-readable corpus report (`--out`). With
//! `--baseline` the fresh report is compared against a committed one:
//! missing scenarios, verdict changes, expectation mismatches and
//! unique-state drift on complete passes and complete violations are
//! regressions.
//!
//! A closed stdout (`tpa_runs list L | head -1`) ends no command early:
//! lines that cannot be written are dropped, and the exit status is the
//! one an open stdout would give.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

use tpa_check::out;
use tpa_check::scenario::{run_checks_opts, RunOptions};
use tpa_obs::json::{parse, Json};
use tpa_obs::{Ledger, RunRecord, RUN_RECORD_VERSION};

/// Runs shorter than this (µs) are too noisy for throughput or hit-rate
/// comparisons; the diff skips rate warnings below it.
const WALL_FLOOR_US: u64 = 50_000;

/// Relative throughput drop (new vs old states/s) that earns a warning.
const THROUGHPUT_WARN: f64 = 0.30;

/// Absolute cache-hit-rate drop that earns a warning.
const HIT_RATE_WARN: f64 = 0.05;

fn usage() -> ! {
    eprintln!(
        "usage: tpa_runs list LEDGER\n\
         \x20      tpa_runs show LEDGER ID\n\
         \x20      tpa_runs diff LEDGER [ID_A ID_B]\n\
         \x20      tpa_runs corpus DIR --ledger LEDGER [--threads N] \
         [--out FILE] [--baseline FILE]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let result = match (cmd.as_str(), &args[1..]) {
        ("list", [ledger]) => list(Path::new(ledger)),
        ("show", [ledger, id]) => show(Path::new(ledger), id),
        ("diff", [ledger]) => diff_latest(Path::new(ledger)),
        ("diff", [ledger, a, b]) => diff_ids(Path::new(ledger), a, b),
        ("corpus", rest) => corpus(rest),
        _ => usage(),
    };
    match result {
        Ok(ok) => {
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn open(dir: &Path) -> Result<Ledger, String> {
    Ledger::open(dir).map_err(|e| format!("cannot open ledger {}: {e}", dir.display()))
}

fn list(dir: &Path) -> Result<bool, String> {
    let (runs, unreadable) = open(dir)?.runs().map_err(|e| e.to_string())?;
    if runs.is_empty() && unreadable == 0 {
        out!("(ledger {} is empty)", dir.display());
        return Ok(true);
    }
    for r in &runs {
        out!(
            "{}  {:<10} {:>3} {:<10} {}",
            r.id,
            r.verdict,
            r.model,
            r.mode,
            r.scenario
        );
    }
    out!("{} runs", runs.len());
    // Damage is reported, not hidden: an empty file is an append in
    // flight and is skipped, but a non-empty record that does not parse
    // was cut short or edited by hand.
    if unreadable > 0 {
        out!("warning: skipped {unreadable} unreadable record file(s)");
    }
    Ok(true)
}

fn show(dir: &Path, id: &str) -> Result<bool, String> {
    let ledger = open(dir)?;
    let rec = ledger.load(id).map_err(|e| e.to_string())?;
    out!("{}", rec.to_json().render());
    if rec.verdict == "incomplete" && !rec.verdict_detail.is_empty() {
        // The detail names what cut the search short — including a worker
        // panic's payload message — so surface it without JSON spelunking.
        out!("# incomplete: {}", rec.verdict_detail);
    }
    if !rec.resumed_from.is_empty() {
        out!("# resumed from checkpoint: {}", rec.resumed_from);
    }
    if !rec.checkpoint.is_empty() {
        out!("# checkpoint written: {}", rec.checkpoint);
    }
    if let Some(rate) = rec.metrics.cache_hit_rate() {
        out!("# cache hit rate: {:.1}%", rate * 100.0);
    }
    if let Some(y) = rec.metrics.prune_yield() {
        out!("# sleep-prune yield: {y:.3} prunes/transition");
    }
    if rec.wall_us > 0 {
        let states = rec.stats.get("unique_states").copied().unwrap_or(0);
        if states > 0 {
            out!(
                "# throughput: {:.0} states/s",
                states as f64 / (rec.wall_us as f64 / 1e6)
            );
        }
    }
    Ok(true)
}

fn diff_ids(dir: &Path, a: &str, b: &str) -> Result<bool, String> {
    let ledger = open(dir)?;
    let old = ledger.load(a).map_err(|e| e.to_string())?;
    let new = ledger.load(b).map_err(|e| e.to_string())?;
    let regressions = diff_pair(&old, &new);
    summarize(regressions)
}

/// With no ids: for every scenario in the ledger with at least two runs,
/// diff the latest against the previous one. "Latest" is explicit, not
/// positional: [`Ledger::runs`] orders runs by their records'
/// `(created_us, seq, id)`, so a `SystemTime` step backwards between
/// appends cannot scramble the pairing. Runs superseded by a resume —
/// their checkpoint id appears as a later run's `resumed_from` — are
/// skipped: the interrupted leg and its resumption are one logical
/// check, and only the chain's final run carries its result.
fn diff_latest(dir: &Path) -> Result<bool, String> {
    let (runs, _) = open(dir)?.runs().map_err(|e| e.to_string())?;
    let mut by_scenario: BTreeMap<&str, Vec<&RunRecord>> = BTreeMap::new();
    for r in &runs {
        by_scenario.entry(&r.scenario).or_default().push(r);
    }
    let mut regressions = 0usize;
    let mut pairs = 0usize;
    for (scenario, records) in &by_scenario {
        let resumed: std::collections::BTreeSet<&str> = records
            .iter()
            .filter(|r| !r.resumed_from.is_empty())
            .map(|r| r.resumed_from.as_str())
            .collect();
        let kept: Vec<&RunRecord> = records
            .iter()
            .copied()
            .filter(|r| r.checkpoint.is_empty() || !resumed.contains(r.checkpoint.as_str()))
            .collect();
        let superseded = records.len() - kept.len();
        let [.., old, new] = kept.as_slice() else {
            continue;
        };
        pairs += 1;
        out!("== {scenario} ({} -> {})", old.id, new.id);
        if superseded > 0 {
            out!("  note: skipped {superseded} interrupted run(s) superseded by a resume");
        }
        regressions += diff_pair(old, new);
    }
    if pairs == 0 {
        out!("(no scenario in {} has two runs to diff)", dir.display());
    }
    summarize(regressions)
}

fn summarize(regressions: usize) -> Result<bool, String> {
    if regressions == 0 {
        out!("0 regressions");
        Ok(true)
    } else {
        out!("{regressions} regressions");
        Ok(false)
    }
}

/// Prints everything that differs between two runs; returns the number
/// of *regressions* (verdict/state/witness changes on comparable runs).
fn diff_pair(old: &RunRecord, new: &RunRecord) -> usize {
    let mut regressions = 0usize;
    for line in old.env.differences(&new.env) {
        out!("  env: {line}");
    }
    if !old.comparable_to(new) {
        out!(
            "  note: runs are not comparable (different scenario, model, mode or features) \
             — result fields not judged"
        );
        return 0;
    }
    if old.verdict != new.verdict {
        out!(
            "  REGRESSION verdict: {} -> {} ({})",
            old.verdict,
            new.verdict,
            if new.verdict_detail.is_empty() {
                "no detail"
            } else {
                &new.verdict_detail
            }
        );
        regressions += 1;
    }
    let stat = |r: &RunRecord, k: &str| r.stats.get(k).copied();
    // Unique-state counts are deterministic for complete exhaustive runs
    // at any thread count, passing or violating; drift means the
    // explored space itself changed. A resumed witness search may settle
    // its witness in a different order, so a resumed violation's count
    // is not pinned.
    let resumed = !old.resumed_from.is_empty() || !new.resumed_from.is_empty();
    if old.mode == "exhaustive"
        && settled(&old.verdict)
        && old.verdict == new.verdict
        && !(old.verdict == "violation" && resumed)
        && old.complete
        && new.complete
    {
        let (a, b) = (stat(old, "unique_states"), stat(new, "unique_states"));
        if a != b {
            out!(
                "  REGRESSION unique_states: {} -> {}",
                a.unwrap_or(0),
                b.unwrap_or(0)
            );
            regressions += 1;
        }
    }
    // Witness schedules are deterministic too (lex-least for exhaustive,
    // lowest-index for seeded swarm), so their lengths must agree.
    if old.verdict == "violation" && new.verdict == "violation" {
        for key in ["found_len", "shrunk_len"] {
            let (a, b) = (stat(old, key), stat(new, key));
            if a != b {
                out!(
                    "  REGRESSION {key}: {} -> {}",
                    a.unwrap_or(0),
                    b.unwrap_or(0)
                );
                regressions += 1;
            }
        }
    }
    // Rates are warnings only: they vary with hardware and load, and
    // short runs are all noise.
    if old.wall_us >= WALL_FLOOR_US && new.wall_us >= WALL_FLOOR_US {
        let throughput = |r: &RunRecord| {
            let states = r.stats.get("unique_states").copied().unwrap_or(0);
            (states > 0).then(|| states as f64 / (r.wall_us as f64 / 1e6))
        };
        if let (Some(a), Some(b)) = (throughput(old), throughput(new)) {
            if b < a * (1.0 - THROUGHPUT_WARN) {
                out!("  warning: throughput {a:.0} -> {b:.0} states/s");
            }
        }
        if let (Some(a), Some(b)) = (old.metrics.cache_hit_rate(), new.metrics.cache_hit_rate()) {
            if b < a - HIT_RATE_WARN {
                out!(
                    "  warning: cache hit rate {:.1}% -> {:.1}%",
                    a * 100.0,
                    b * 100.0
                );
            }
        }
    }
    if regressions == 0 {
        out!("  ok");
    }
    regressions
}

/// Whether a complete exhaustive run with this verdict has a
/// thread-count-invariant unique-state count.
fn settled(verdict: &str) -> bool {
    matches!(verdict, "pass" | "violation")
}

/// Every `.tpa` file under `dir`, recursively, sorted by path.
fn find_scenarios(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries =
            std::fs::read_dir(&d).map_err(|e| format!("cannot read {}: {e}", d.display()))?;
        for entry in entries {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|x| x == "tpa") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn corpus(args: &[String]) -> Result<bool, String> {
    let mut dir: Option<PathBuf> = None;
    let mut ledger: Option<PathBuf> = None;
    let mut threads = 1usize;
    let mut out_path: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--ledger" => ledger = Some(it.next().ok_or("--ledger needs a value")?.into()),
            "--threads" => {
                threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--threads needs a number")?
            }
            "--out" => out_path = Some(it.next().ok_or("--out needs a value")?.into()),
            "--baseline" => baseline = Some(it.next().ok_or("--baseline needs a value")?.into()),
            _ if arg.starts_with('-') => usage(),
            _ if dir.is_none() => dir = Some(arg.into()),
            _ => usage(),
        }
    }
    let dir = dir.ok_or("corpus needs a scenario directory")?;
    let files = find_scenarios(&dir)?;
    if files.is_empty() {
        return Err(format!("no .tpa files under {}", dir.display()));
    }

    let mut all_ok = true;
    let mut scenarios: BTreeMap<String, Json> = BTreeMap::new();
    for path in &files {
        let name = path.display().to_string();
        let src = std::fs::read_to_string(path).map_err(|e| format!("{name}: {e}"))?;
        let scenario = match tpa_dsl::compile_named(&src, &name) {
            Ok(s) => s,
            Err(rendered) => {
                eprint!("{rendered}");
                all_ok = false;
                continue;
            }
        };
        let opts = RunOptions {
            threads,
            ledger: ledger.clone(),
            scenario_id: Some(name.clone()),
            ..RunOptions::default()
        };
        let mut clauses = Vec::new();
        for outcome in run_checks_opts(&scenario, &opts).map_err(|e| format!("{name}: {e}"))? {
            out!("{name}: {}", outcome.summary());
            all_ok &= outcome.ok;
            let mut c = BTreeMap::new();
            c.insert(
                "model".to_owned(),
                Json::Str(
                    match outcome.clause.model {
                        tpa_tso::MemoryModel::Tso => "tso",
                        tpa_tso::MemoryModel::Pso => "pso",
                    }
                    .to_owned(),
                ),
            );
            c.insert(
                "expect".to_owned(),
                Json::Str(
                    match outcome.clause.expect {
                        tpa_dsl::Expect::Pass => "pass",
                        tpa_dsl::Expect::Violation => "violation",
                    }
                    .to_owned(),
                ),
            );
            let verdict = match &outcome.report.verdict {
                tpa_check::Verdict::Pass => "pass",
                tpa_check::Verdict::Violation { .. } => "violation",
                tpa_check::Verdict::Incomplete { .. } => "incomplete",
            };
            c.insert("verdict".to_owned(), Json::Str(verdict.to_owned()));
            c.insert("ok".to_owned(), Json::Bool(outcome.ok));
            c.insert(
                "complete".to_owned(),
                Json::Bool(outcome.report.stats.complete),
            );
            c.insert(
                "transitions".to_owned(),
                Json::Num(outcome.report.stats.transitions as f64),
            );
            c.insert(
                "unique_states".to_owned(),
                Json::Num(outcome.report.stats.unique_states as f64),
            );
            c.insert(
                "wall_us".to_owned(),
                Json::Num(outcome.report.wall.as_micros() as f64),
            );
            clauses.push(Json::Obj(c));
        }
        let mut entry = BTreeMap::new();
        entry.insert("clauses".to_owned(), Json::Arr(clauses));
        scenarios.insert(name, Json::Obj(entry));
    }

    let mut report = BTreeMap::new();
    report.insert("v".to_owned(), Json::Num(RUN_RECORD_VERSION as f64));
    report.insert("kind".to_owned(), Json::Str("corpus_report".to_owned()));
    report.insert(
        "created_us".to_owned(),
        Json::Num(
            SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_micros() as u64) as f64,
        ),
    );
    report.insert("threads".to_owned(), Json::Num(threads as f64));
    report.insert("scenarios".to_owned(), Json::Obj(scenarios));
    let report = Json::Obj(report);
    if let Some(out) = &out_path {
        std::fs::write(out, report.render() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        out!("report: {}", out.display());
    }

    if let Some(base) = &baseline {
        let text = std::fs::read_to_string(base)
            .map_err(|e| format!("cannot read baseline {}: {e}", base.display()))?;
        let base_doc = parse(&text).map_err(|e| format!("baseline {}: {e}", base.display()))?;
        let regressions = compare_to_baseline(&base_doc, &report);
        if regressions > 0 {
            out!("{regressions} baseline regressions");
            all_ok = false;
        } else {
            out!("0 baseline regressions");
        }
    }
    Ok(all_ok)
}

/// Compares a fresh corpus report against a committed baseline. Judged
/// per clause: a scenario or clause present in the baseline but missing
/// now, a verdict change, an expectation (`ok`) change, and
/// unique-state drift on complete passing or violating clauses are
/// regressions.
/// Scenarios new since the baseline are noted, not judged.
fn compare_to_baseline(base: &Json, fresh: &Json) -> usize {
    let empty = BTreeMap::new();
    let base_scenarios = base
        .get("scenarios")
        .and_then(Json::as_obj)
        .unwrap_or(&empty);
    let fresh_scenarios = fresh
        .get("scenarios")
        .and_then(Json::as_obj)
        .unwrap_or(&empty);
    let mut regressions = 0usize;
    for (name, base_entry) in base_scenarios {
        let Some(fresh_entry) = fresh_scenarios.get(name) else {
            out!("REGRESSION {name}: in baseline but not in this run");
            regressions += 1;
            continue;
        };
        let base_clauses = base_entry
            .get("clauses")
            .and_then(Json::as_arr)
            .unwrap_or(&[]);
        let fresh_clauses = fresh_entry
            .get("clauses")
            .and_then(Json::as_arr)
            .unwrap_or(&[]);
        if base_clauses.len() != fresh_clauses.len() {
            out!(
                "REGRESSION {name}: {} clauses in baseline, {} now",
                base_clauses.len(),
                fresh_clauses.len()
            );
            regressions += 1;
            continue;
        }
        for (i, (b, f)) in base_clauses.iter().zip(fresh_clauses).enumerate() {
            let s = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
            if s(b, "verdict") != s(f, "verdict") {
                out!(
                    "REGRESSION {name}#{i}: verdict {} -> {}",
                    s(b, "verdict"),
                    s(f, "verdict")
                );
                regressions += 1;
            }
            if b.get("ok").and_then(Json::as_bool) != f.get("ok").and_then(Json::as_bool) {
                out!("REGRESSION {name}#{i}: expectation match changed");
                regressions += 1;
            }
            let complete = |v: &Json| v.get("complete").and_then(Json::as_bool) == Some(true);
            if settled(&s(b, "verdict"))
                && s(b, "verdict") == s(f, "verdict")
                && complete(b)
                && complete(f)
            {
                let states = |v: &Json| v.get("unique_states").and_then(Json::as_u64);
                if states(b) != states(f) {
                    out!(
                        "REGRESSION {name}#{i}: unique_states {:?} -> {:?}",
                        states(b),
                        states(f)
                    );
                    regressions += 1;
                }
            }
        }
    }
    for name in fresh_scenarios.keys() {
        if !base_scenarios.contains_key(name) {
            out!("note: {name} is new since the baseline");
        }
    }
    regressions
}
