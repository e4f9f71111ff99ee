//! `check_file` — compile `.tpa` scenario files and run their `check`
//! clauses.
//!
//! ```text
//! check_file [--threads N] [--ledger DIR] [--deadline-ms N]
//!            [--checkpoint-dir DIR] [--checkpoint-every N]
//!            [--resume FILE.tpack] FILE...
//! ```
//!
//! Each file is compiled through the scenario DSL and every `check`
//! clause is run exhaustively; a scenario with no clauses gets one
//! implicit `check tso expect pass`. The exit code is non-zero when any
//! file fails to compile or any clause's verdict does not match its
//! `expect`. Compile errors are rendered with source line and caret.
//!
//! `--checkpoint-dir DIR` makes interrupted searches durable: a clause
//! that stops early (wall-clock `--deadline-ms`, transition budget,
//! worker panic) writes a versioned, checksummed checkpoint into `DIR`
//! and prints its path; `--checkpoint-every N` additionally snapshots
//! every `N` node expansions mid-search. `--resume FILE.tpack` continues
//! such a checkpoint: the clause whose search identity matches the
//! checkpoint's fingerprint picks it up (marked `[resumed]` in the
//! output), and a corrupt or foreign checkpoint is rejected with the
//! loader's diagnostic rather than silently re-run from scratch.
//!
//! `--ledger DIR` (or `TPA_OBS_LEDGER=DIR`) appends one
//! [`tpa_obs::RunRecord`] per clause into the run ledger at `DIR`, under
//! the scenario identity `{file}#{clause_index}`; `tpa_runs` lists,
//! inspects and diffs the records. `TPA_OBS_METRICS=FILE` additionally
//! aggregates every clause's search into one metrics registry and writes
//! its snapshot JSON to `FILE` on exit (`obs_validate --metrics` checks
//! it).

use std::process::ExitCode;
use std::sync::Arc;

use tpa_check::out;
use tpa_check::scenario::{run_checks_opts, RunOptions};
use tpa_obs::Metrics;

fn usage() -> ! {
    eprintln!(
        "usage: check_file [--threads N] [--ledger DIR] [--deadline-ms N]\n\
         \x20                 [--checkpoint-dir DIR] [--checkpoint-every N]\n\
         \x20                 [--resume FILE.tpack] FILE..."
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut threads = 1usize;
    let mut ledger: Option<std::path::PathBuf> = std::env::var_os("TPA_OBS_LEDGER")
        .filter(|v| !v.is_empty())
        .map(Into::into);
    let mut deadline: Option<std::time::Duration> = None;
    let mut checkpoint_dir: Option<std::path::PathBuf> = None;
    let mut checkpoint_every: Option<u64> = None;
    let mut resume: Option<std::path::PathBuf> = None;
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()) else {
                    usage();
                };
                threads = n;
            }
            "--ledger" => {
                let Some(dir) = args.next() else { usage() };
                ledger = Some(dir.into());
            }
            "--deadline-ms" => {
                let Some(ms) = args.next().and_then(|v| v.parse().ok()) else {
                    usage();
                };
                deadline = Some(std::time::Duration::from_millis(ms));
            }
            "--checkpoint-dir" => {
                let Some(dir) = args.next() else { usage() };
                checkpoint_dir = Some(dir.into());
            }
            "--checkpoint-every" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()) else {
                    usage();
                };
                checkpoint_every = Some(n);
            }
            "--resume" => {
                let Some(path) = args.next() else { usage() };
                resume = Some(path.into());
            }
            "--help" | "-h" => usage(),
            _ if arg.starts_with('-') => usage(),
            _ => files.push(arg),
        }
    }
    if files.is_empty() {
        usage();
    }
    let metrics_path: Option<std::path::PathBuf> = std::env::var_os("TPA_OBS_METRICS")
        .filter(|v| !v.is_empty())
        .map(Into::into);
    let metrics = metrics_path.as_ref().map(|_| Arc::new(Metrics::new()));

    let mut failed = false;
    for path in &files {
        let src = match std::fs::read_to_string(path) {
            Ok(src) => src,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                failed = true;
                continue;
            }
        };
        let scenario = match tpa_dsl::compile_named(&src, path) {
            Ok(s) => s,
            Err(rendered) => {
                eprint!("{rendered}");
                failed = true;
                continue;
            }
        };
        out!(
            "{path}: scenario `{}`, {} processes",
            scenario.name,
            scenario.procs
        );
        let opts = RunOptions {
            threads,
            ledger: ledger.clone(),
            scenario_id: Some(path.clone()),
            metrics: metrics.clone(),
            deadline,
            checkpoint_dir: checkpoint_dir.clone(),
            checkpoint_every,
            resume: resume.clone(),
        };
        let outcomes = match run_checks_opts(&scenario, &opts) {
            Ok(outcomes) => outcomes,
            Err(e) => {
                eprintln!("error: {e}");
                failed = true;
                continue;
            }
        };
        for outcome in outcomes {
            out!("  {}", outcome.summary());
            if let tpa_check::Verdict::Incomplete {
                reason,
                checkpoint: Some(ckpt),
            } = &outcome.report.verdict
            {
                out!("    incomplete: {reason}");
                out!(
                    "    checkpoint written: {} (resume with --resume)",
                    ckpt.display()
                );
            }
            if !outcome.ok {
                failed = true;
                match &outcome.report.verdict {
                    tpa_check::Verdict::Violation { invariant, .. } => {
                        out!("    unexpected violation of `{invariant}`");
                    }
                    tpa_check::Verdict::Incomplete {
                        reason,
                        checkpoint: None,
                    } => {
                        out!("    incomplete: {reason}");
                    }
                    _ => {
                        out!("    verdict: {:?}", outcome.report.verdict.passed());
                    }
                }
            }
        }
    }
    if let (Some(path), Some(m)) = (&metrics_path, &metrics) {
        let doc = m.snapshot().to_json().render();
        if let Err(e) = std::fs::write(path, doc + "\n") {
            eprintln!(
                "[obs] cannot write metrics snapshot {}: {e}",
                path.display()
            );
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
