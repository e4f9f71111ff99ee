//! End-to-end tests for the `tpa_runs` binary against hand-damaged
//! ledgers: `diff` must pair "latest" by `(created_us, seq, id)` rather
//! than index-file position, and `list` must report torn/duplicate index
//! lines instead of hiding them. Both gates — `diff` and `corpus
//! --baseline` — flag unique-state drift between complete violating
//! runs as well as passing ones.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

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

/// Rewrites `index.jsonl` so that the stored creation timestamps are
/// `ts[i]` for the i-th id, in the given *file* order — simulating a
/// `SystemTime` step backwards between appends.
fn rewrite_index(dir: &Path, scenario: &str, order: &[(&str, u64)]) {
    let mut f = fs::File::create(dir.join("index.jsonl")).expect("index");
    for (id, t) in order {
        writeln!(
            f,
            "{{\"id\":\"{id}\",\"t\":{t},\"scenario\":\"{scenario}\",\"algo\":\"tas\",\
             \"model\":\"tso\",\"mode\":\"swarm\",\"verdict\":\"pass\",\"path\":\"runs/{id}.json\"}}"
        )
        .expect("line");
    }
}

#[test]
fn diff_pairs_latest_by_creation_key_not_file_order() {
    let dir = scratch("diff-order");
    let ledger = Ledger::open(&dir).expect("open");
    let i0 = append_run(&ledger, "s");
    let i1 = append_run(&ledger, "s");
    let i2 = append_run(&ledger, "s");
    drop(ledger);
    // Clock stepped backwards: the run appended last (file order) is
    // *not* the latest. True creation order by t is i1 < i2 < i0.
    rewrite_index(&dir, "s", &[(&i0, 300), (&i1, 100), (&i2, 200)]);

    let (ok, text) = run(&["diff", dir.to_str().unwrap()]);
    assert!(ok, "diff failed:\n{text}");
    assert!(
        text.contains(&format!("== s ({i2} -> {i0})")),
        "must pair the two largest (created_us, seq, id) keys, got:\n{text}"
    );
    assert!(text.contains("0 regressions"), "{text}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn list_reports_torn_and_duplicate_index_lines() {
    let dir = scratch("list-health");
    let ledger = Ledger::open(&dir).expect("open");
    let id = append_run(&ledger, "s");
    drop(ledger);
    let mut f = fs::OpenOptions::new()
        .append(true)
        .open(dir.join("index.jsonl"))
        .expect("index");
    // A duplicate of the same id pointing at a record that lost the
    // (pre-`create_new`) collision, then a newline-terminated but
    // unparseable line from a crashed writer. (A line with no newline
    // at all is an append still in flight, not damage.)
    writeln!(
        f,
        "{{\"id\":\"{id}\",\"t\":9,\"scenario\":\"ghost\",\"verdict\":\"violation\",\
         \"path\":\"runs/lost.json\"}}"
    )
    .expect("dup");
    writeln!(f, "{{\"id\":\"half-wr").expect("torn");
    drop(f);

    let (ok, text) = run(&["list", dir.to_str().unwrap()]);
    assert!(ok, "list failed:\n{text}");
    assert!(text.contains("1 runs"), "{text}");
    assert!(
        !text.contains("ghost"),
        "lost duplicate must not win:\n{text}"
    );
    assert!(
        text.contains("skipped 1 torn index line"),
        "torn lines must be reported:\n{text}"
    );
    assert!(
        text.contains("collapsed 1 duplicate id"),
        "duplicates must be reported:\n{text}"
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
