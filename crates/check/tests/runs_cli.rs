//! End-to-end tests for the `tpa_runs` binary against hand-edited
//! ledgers: `diff` must pair "latest" by the records' `(created_us, seq,
//! id)` rather than file order, `list` must report record files that do
//! not parse but not appends still in flight, and an `index.jsonl` left
//! by an earlier build must change nothing. Both gates — `diff` and
//! `corpus --baseline` — flag unique-state drift between complete
//! violating runs as well as passing ones. A closed stdout changes
//! neither a command's work nor its exit status.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use tpa_obs::{Ledger, RunRecord};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tpa-runs-cli-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tpa_runs"))
        .args(args)
        .output()
        .expect("spawn tpa_runs");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

fn append_run(ledger: &Ledger, scenario: &str) -> String {
    let mut rec = RunRecord {
        scenario: scenario.to_owned(),
        algo: "tas".to_owned(),
        model: "tso".to_owned(),
        mode: "swarm".to_owned(),
        verdict: "pass".to_owned(),
        ..RunRecord::default()
    };
    ledger.append(&mut rec).expect("append")
}

/// Rewrites the record of run `id` with creation time `created_us`,
/// as a `SystemTime` step backwards between appends would have left it.
fn set_created_us(ledger: &Ledger, id: &str, created_us: u64) {
    let rec = RunRecord {
        created_us,
        ..ledger.load(id).expect("load")
    };
    let path = ledger.dir().join(format!("runs/{id}.json"));
    fs::write(path, rec.to_json().render()).expect("rewrite record");
}

#[test]
fn diff_pairs_latest_by_creation_key_not_file_order() {
    let dir = scratch("diff-order");
    let ledger = Ledger::open(&dir).expect("open");
    let i0 = append_run(&ledger, "s");
    let i1 = append_run(&ledger, "s");
    let i2 = append_run(&ledger, "s");
    // Clock stepped backwards: the run appended last (file order) is
    // *not* the latest. True creation order is i1 < i2 < i0.
    for (id, t) in [(&i0, 300), (&i1, 100), (&i2, 200)] {
        set_created_us(&ledger, id, t);
    }

    let (ok, text) = run(&["diff", dir.to_str().unwrap()]);
    assert!(ok, "diff failed:\n{text}");
    assert!(
        text.contains(&format!("== s ({i2} -> {i0})")),
        "must pair the two largest (created_us, seq, id) keys, got:\n{text}"
    );
    assert!(text.contains("0 regressions"), "{text}");
    let _ = fs::remove_dir_all(&dir);
}

/// An empty record file is an id claimed by an append still in flight:
/// it is not a run and not damage. A non-empty one that does not parse
/// is damage, and `list` says so in one line.
#[test]
fn list_reports_unreadable_records_but_not_appends_in_flight() {
    let dir = scratch("list-damage");
    let ledger = Ledger::open(&dir).expect("open");
    append_run(&ledger, "s");
    fs::File::create(dir.join("runs/00000000000000ff-1-0000.json")).expect("claim");
    let (ok, text) = run(&["list", dir.to_str().unwrap()]);
    assert!(ok, "list failed:\n{text}");
    assert!(text.contains("1 runs"), "{text}");
    assert!(
        !text.contains("warning"),
        "an append in flight is not damage:\n{text}"
    );

    fs::write(
        dir.join("runs/00000000000000fe-1-0000.json"),
        "{\"v\":1,\"id\":\"half-wr",
    )
    .expect("cut");
    let (ok, text) = run(&["list", dir.to_str().unwrap()]);
    assert!(ok, "list failed:\n{text}");
    assert!(text.contains("1 runs"), "{text}");
    assert_eq!(
        text.lines()
            .filter(|l| l.starts_with("warning"))
            .collect::<Vec<_>>(),
        ["warning: skipped 1 unreadable record file(s)"],
        "{text}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Earlier builds also kept an `index.jsonl` of summary lines. A ledger
/// that holds one, torn line and ghost entry included, lists, loads and
/// diffs exactly its records, without a warning, and keeps the file.
#[test]
fn an_index_left_by_an_earlier_build_changes_nothing() {
    let dir = scratch("old-index");
    let ledger = Ledger::open(&dir).expect("open");
    let ids = [append_run(&ledger, "s"), append_run(&ledger, "s")];
    let mut index = String::new();
    for id in &ids {
        index += &format!(
            "{{\"v\":1,\"id\":\"{id}\",\"t\":1,\"scenario\":\"s\",\"algo\":\"tas\",\
             \"model\":\"tso\",\"mode\":\"swarm\",\"verdict\":\"pass\",\"path\":\"runs/{id}.json\"}}\n"
        );
    }
    index +=
        "{\"v\":1,\"id\":\"ghost\",\"t\":9,\"scenario\":\"ghost\",\"path\":\"runs/lost.json\"}\n";
    index += "{\"id\":\"half-wr\n";
    fs::write(dir.join("index.jsonl"), &index).expect("index");

    let (ok, text) = run(&["list", dir.to_str().unwrap()]);
    assert!(ok, "list failed:\n{text}");
    assert!(text.contains("2 runs"), "{text}");
    assert!(ids.iter().all(|id| text.contains(id.as_str())), "{text}");
    assert!(
        !text.contains("ghost") && !text.contains("warning"),
        "{text}"
    );
    let (ok, text) = run(&["show", dir.to_str().unwrap(), &ids[0]]);
    assert!(ok && text.contains(&ids[0]), "{text}");
    let (ok, text) = run(&["diff", dir.to_str().unwrap()]);
    assert!(ok, "diff failed:\n{text}");
    assert!(
        text.contains(&format!("== s ({} -> {})", ids[0], ids[1])),
        "{text}"
    );
    assert_eq!(
        fs::read_to_string(dir.join("index.jsonl")).expect("kept"),
        index
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn list_on_a_clean_ledger_prints_no_warnings() {
    let dir = scratch("list-clean");
    let ledger = Ledger::open(&dir).expect("open");
    append_run(&ledger, "a");
    append_run(&ledger, "b");
    drop(ledger);
    let (ok, text) = run(&["list", dir.to_str().unwrap()]);
    assert!(ok, "list failed:\n{text}");
    assert!(text.contains("2 runs"), "{text}");
    assert!(!text.contains("warning"), "{text}");
    assert!(
        !dir.join("index.jsonl").exists(),
        "the records are the only copy"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// `list` and `diff` whose stdout reader has gone away (`tpa_runs list L
/// | head -1`) finish and exit with the status an open stdout gives: 0
/// for `list`, 1 for a `diff` that finds a verdict flip.
#[test]
fn a_closed_stdout_changes_no_exit_status() {
    let dir = scratch("closed-stdout");
    let ledger = Ledger::open(&dir).expect("open");
    append_exhaustive(&ledger, "pass", 778, "");
    append_exhaustive(&ledger, "violation", 778, "");
    for cmd in ["list", "diff"] {
        let tpa_runs = |stdout: Stdio| {
            Command::new(env!("CARGO_BIN_EXE_tpa_runs"))
                .args([cmd, dir.to_str().unwrap()])
                .stdout(stdout)
                .stderr(Stdio::piped())
                .output()
                .expect("spawn tpa_runs")
        };
        let open = tpa_runs(Stdio::piped());
        assert_eq!(open.status.success(), cmd == "list", "{cmd}");
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let closed = tpa_runs(writer.into());
        let stderr = String::from_utf8_lossy(&closed.stderr);
        assert_eq!(closed.status.code(), open.status.code(), "{cmd}: {stderr}");
        assert!(!stderr.contains("panicked"), "{cmd}: {stderr}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A complete exhaustive run of scenario `s` with `verdict` and
/// `unique_states`, resumed from checkpoint `resumed_from` unless empty.
fn append_exhaustive(
    ledger: &Ledger,
    verdict: &str,
    unique_states: u64,
    resumed_from: &str,
) -> String {
    let mut rec = RunRecord {
        scenario: "s".to_owned(),
        algo: "bakery".to_owned(),
        model: "tso".to_owned(),
        mode: "exhaustive".to_owned(),
        verdict: verdict.to_owned(),
        complete: true,
        resumed_from: resumed_from.to_owned(),
        ..RunRecord::default()
    };
    rec.stats.insert("unique_states".to_owned(), unique_states);
    ledger.append(&mut rec).expect("append")
}

/// Complete violating runs are held to their state count like passing
/// ones, except a violation resumed from a checkpoint, whose witness
/// search may have run in another order.
#[test]
fn diff_flags_state_drift_between_violating_runs() {
    for (verdict, old, new, resumed, drift) in [
        ("violation", 5325, 8098, "", true),
        ("violation", 5325, 5325, "", false),
        ("violation", 5325, 5400, "ckpt-0001", false),
        ("pass", 778, 779, "", true),
        ("pass", 778, 779, "ckpt-0001", true),
    ] {
        let dir = scratch(&format!("diff-states-{verdict}-{new}-{resumed}"));
        let ledger = Ledger::open(&dir).expect("open");
        append_exhaustive(&ledger, verdict, old, "");
        append_exhaustive(&ledger, verdict, new, resumed);
        drop(ledger);
        let (ok, text) = run(&["diff", dir.to_str().unwrap()]);
        assert_eq!(ok, !drift, "{verdict} {old} -> {new}:\n{text}");
        assert_eq!(
            text.contains(&format!("REGRESSION unique_states: {old} -> {new}")),
            drift,
            "{verdict} {old} -> {new}:\n{text}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn corpus_baseline_flags_state_drift_on_a_violating_clause() {
    let dir = scratch("corpus-violation");
    let corpus = dir.join("corpus");
    fs::create_dir_all(&corpus).expect("corpus dir");
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/litmus/sb.tpa");
    fs::copy(&root, corpus.join("sb.tpa")).expect("copy sb.tpa");
    let ledger = dir.join("ledger");
    let base = dir.join("base.json");
    let (c, l, b) = (
        corpus.to_str().unwrap(),
        ledger.to_str().unwrap(),
        base.to_str().unwrap(),
    );
    let (ok, text) = run(&["corpus", c, "--ledger", l, "--out", b]);
    assert!(ok, "corpus failed:\n{text}");
    let (ok, text) = run(&["corpus", c, "--ledger", l, "--baseline", b]);
    assert!(ok && text.contains("0 baseline regressions"), "{text}");
    // Both sb clauses are complete violations; shift their pinned counts.
    let report = fs::read_to_string(&base).expect("report");
    let states = "\"unique_states\":16";
    assert_eq!(report.matches(states).count(), 2, "{report}");
    fs::write(&base, report.replace(states, "\"unique_states\":17")).expect("rewrite");
    let (ok, text) = run(&["corpus", c, "--ledger", l, "--baseline", b]);
    assert!(
        !ok,
        "state drift on violating clauses passed the gate:\n{text}"
    );
    assert!(
        text.contains("unique_states Some(17) -> Some(16)"),
        "{text}"
    );
    assert!(text.contains("2 baseline regressions"), "{text}");
    let _ = fs::remove_dir_all(&dir);
}
