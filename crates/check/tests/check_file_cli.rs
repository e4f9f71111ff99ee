//! `check_file` whose stdout reader has gone away (`check_file F... |
//! head -1`): it must still run every clause, exit with the status an
//! open stdout gives, and never panic on the broken pipe.

use std::process::{Command, Output, Stdio};

fn check_file(metrics: &std::path::Path, stdout: Stdio) -> Output {
    let scenarios = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/litmus");
    Command::new(env!("CARGO_BIN_EXE_check_file"))
        .args([format!("{scenarios}/sb.tpa"), format!("{scenarios}/mp.tpa")])
        .env("TPA_OBS_METRICS", metrics)
        .env_remove("TPA_OBS_LEDGER")
        .stdout(stdout)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn check_file")
}

#[test]
fn a_closed_stdout_changes_neither_the_work_nor_the_exit_status() {
    let dir = std::env::temp_dir().join(format!("tpa-check-file-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let open = check_file(&dir.join("open.json"), Stdio::piped());
    assert!(open.status.success(), "the litmus clauses hold");

    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let closed_metrics = dir.join("closed.json");
    let closed = check_file(&closed_metrics, writer.into());
    let stderr = String::from_utf8_lossy(&closed.stderr);
    assert_eq!(closed.status.code(), open.status.code(), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    // The metrics snapshot is written after the last clause: the run
    // went to the end.
    assert!(closed_metrics.exists(), "no metrics snapshot: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
