//! An `exp_*` binary whose stdout reader has gone away (`exp_t6_frontier
//! | head -1`): it must still write its `TPA_JSON` rows, exit with the
//! status an open stdout gives, and never panic on the broken pipe.

use std::fs;
use std::process::{Command, Output, Stdio};

fn exp_t6_frontier(rows: &std::path::Path, stdout: Stdio) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp_t6_frontier"))
        .env("TPA_JSON", rows)
        .stdout(stdout)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn exp_t6_frontier")
}

#[test]
fn a_closed_stdout_changes_neither_the_work_nor_the_exit_status() {
    let dir = std::env::temp_dir().join(format!("tpa-exp-cli-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let (open_rows, closed_rows) = (dir.join("open.json"), dir.join("closed.json"));
    let open = exp_t6_frontier(&open_rows, Stdio::piped());
    assert!(open.status.success());

    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let closed = exp_t6_frontier(&closed_rows, writer.into());
    let stderr = String::from_utf8_lossy(&closed.stderr);
    assert_eq!(closed.status.code(), open.status.code(), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    // The rows are dumped after the tables are printed: the run went to
    // the end.
    assert_eq!(
        fs::read_to_string(&closed_rows).expect("rows dumped"),
        fs::read_to_string(&open_rows).expect("rows dumped")
    );
    let _ = fs::remove_dir_all(&dir);
}
