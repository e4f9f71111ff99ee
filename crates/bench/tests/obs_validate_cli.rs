//! `obs_validate` whose stdout reader has gone away (`obs_validate F |
//! head -1`): it must still validate every file, exit with the status an
//! open stdout gives, and never panic on the broken pipe.

use std::fs;
use std::process::{Command, Output, Stdio};

fn obs_validate(args: &[&str], stdout: Stdio) -> Output {
    Command::new(env!("CARGO_BIN_EXE_obs_validate"))
        .args(args)
        .stdout(stdout)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn obs_validate")
}

#[test]
fn a_closed_stdout_changes_neither_the_work_nor_the_exit_status() {
    let dir = std::env::temp_dir().join(format!("tpa-obs-validate-cli-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let good = dir.join("metrics.json");
    let bad = dir.join("bad.json");
    fs::write(&good, tpa_obs::Metrics::new().snapshot().to_json().render()).unwrap();
    fs::write(&bad, "{").unwrap();
    let (good, bad) = (good.to_str().unwrap(), bad.to_str().unwrap());

    // Two valid files pass; a bad file after a valid one fails, so it is
    // only reached if the first file's OK line did not end the run.
    for (args, valid) in [
        (["--metrics", good, good], true),
        (["--metrics", good, bad], false),
    ] {
        let open = obs_validate(&args, Stdio::piped());
        assert_eq!(open.status.success(), valid, "{args:?}");
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let closed = obs_validate(&args, writer.into());
        let stderr = String::from_utf8_lossy(&closed.stderr);
        assert_eq!(
            closed.status.code(),
            open.status.code(),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    let _ = fs::remove_dir_all(&dir);
}
