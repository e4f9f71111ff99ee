//! Validates telemetry artifacts produced under `TPA_OBS_*`.
//!
//! Checks a JSONL run log against the schema in `tpa_obs::schema`
//! (per-line shape, `t` monotonicity, per-worker counter monotonicity)
//! and, optionally, a Chrome trace-event/Perfetto export. The flag modes
//! check the observability sidecar documents instead: ledger run records
//! (`tpa_obs::RunRecord`), `tpa_runs corpus` reports, `TPA_OBS_METRICS`
//! snapshots, and search checkpoints (`tpa_check::Checkpoint` `.tpack`
//! files — full header/checksum/section decode, so a truncated or
//! bit-flipped checkpoint fails here with the loader's offset
//! diagnostic). Exits non-zero on the first violation — the smoke script
//! uses this as its telemetry gate.
//!
//! ```text
//! obs_validate <run.jsonl> [trace.json]
//! obs_validate --record FILE...     # ledger RunRecord JSON documents
//! obs_validate --corpus FILE...     # tpa_runs corpus reports
//! obs_validate --metrics FILE...    # TPA_OBS_METRICS snapshots
//! obs_validate --checkpoint FILE... # search checkpoints (.tpack)
//! ```

use std::process::ExitCode;

use tpa_bench::out;
use tpa_obs::{json, schema, MetricsSnapshot};

fn usage() -> ExitCode {
    eprintln!(
        "usage: obs_validate <run.jsonl> [trace.json]\n       obs_validate --record|--corpus|--metrics|--checkpoint FILE..."
    );
    ExitCode::FAILURE
}

/// Validates checkpoint files: full decode (magic, version, length,
/// checksum, every section) and a summary print. Binary, so it cannot go
/// through the text-based [`validate_files`].
fn validate_checkpoints(files: &[String]) -> ExitCode {
    if files.is_empty() {
        return usage();
    }
    for path in files {
        match tpa_check::Checkpoint::load(std::path::Path::new(path)) {
            Ok(ckpt) => out!("{path}: OK — {}", ckpt.describe()),
            Err(e) => {
                eprintln!("obs_validate: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Validates each file's contents with `check`, printing one OK line per
/// file.
fn validate_files(files: &[String], check: impl Fn(&str) -> Result<String, String>) -> ExitCode {
    if files.is_empty() {
        return usage();
    }
    for path in files {
        let raw = match std::fs::read_to_string(path) {
            Ok(raw) => raw,
            Err(e) => {
                eprintln!("obs_validate: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match check(&raw) {
            Ok(line) => out!("{path}: OK — {line}"),
            Err(e) => {
                eprintln!("obs_validate: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => usage(),
        Some("--record") => validate_files(&args[1..], |raw| {
            schema::validate_run_record(raw)
                .map(|r| format!("run record {} ({} {})", r.id, r.scenario, r.verdict))
        }),
        Some("--corpus") => validate_files(&args[1..], |raw| {
            schema::validate_corpus_report(raw)
                .map(|scenarios| format!("corpus report, {scenarios} scenarios"))
        }),
        Some("--checkpoint") => validate_checkpoints(&args[1..]),
        Some("--metrics") => validate_files(&args[1..], |raw| {
            let doc = json::parse(raw).map_err(|e| format!("bad JSON: {e}"))?;
            MetricsSnapshot::from_json(&doc).map(|s| {
                format!(
                    "metrics snapshot, {} counters, {} gauges, {} histograms",
                    s.counters.len(),
                    s.gauges.len(),
                    s.histograms.len()
                )
            })
        }),
        Some(flag) if flag.starts_with("--") => usage(),
        Some(jsonl_path) => {
            let jsonl_path = jsonl_path.to_owned();
            let trace_path = args.get(1).cloned();
            let raw = match std::fs::read_to_string(&jsonl_path) {
                Ok(raw) => raw,
                Err(e) => {
                    eprintln!("obs_validate: cannot read {jsonl_path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let lines: Vec<&str> = raw.lines().collect();
            match schema::validate_lines(&lines) {
                Ok(summary) => {
                    let kinds = summary
                        .by_kind
                        .iter()
                        .map(|(k, n)| format!("{k}={n}"))
                        .collect::<Vec<_>>()
                        .join(" ");
                    out!(
                        "{jsonl_path}: OK — {} lines over {} us, {} workers ({kinds})",
                        summary.lines,
                        summary.span_us,
                        summary.workers
                    );
                }
                Err(e) => {
                    eprintln!("obs_validate: {jsonl_path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            if let Some(trace_path) = trace_path {
                let doc = match std::fs::read_to_string(&trace_path) {
                    Ok(doc) => doc,
                    Err(e) => {
                        eprintln!("obs_validate: cannot read {trace_path}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                match schema::validate_trace(&doc) {
                    Ok(events) => out!("{trace_path}: OK — {events} trace events"),
                    Err(e) => {
                        eprintln!("obs_validate: {trace_path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
    }
}
