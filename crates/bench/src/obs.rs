//! Environment-driven telemetry for the experiment binaries.
//!
//! Every `exp_*` binary calls [`probe_from_env`] at startup: when any of
//! the `TPA_OBS_*` variables are set it returns a live
//! [`tpa_obs::Recorder`] the binary threads into the checker and the
//! construction; otherwise telemetry stays off and costs nothing.
//!
//! | variable | effect |
//! |---|---|
//! | `TPA_OBS_JSONL` | append the JSONL run log to this path |
//! | `TPA_OBS_TRACE` | write a Chrome trace-event/Perfetto JSON here |
//! | `TPA_OBS_HEARTBEAT_MS` | stderr progress heartbeat every N ms |
//! | `TPA_OBS_METRICS` | write the final [`tpa_obs::Metrics`] snapshot JSON here |
//! | `TPA_OBS_LEDGER` | append one `RunRecord` per check into this ledger dir |
//!
//! `TPA_OBS_METRICS` names a file: [`env_metrics`] hands the same
//! process-wide registry to every checker [`crate::checker`] builds —
//! each C1 and R1 row and both negative controls — and [`finish`] writes
//! its snapshot (counters, gauges, log₂ histograms, sorted keys) as one
//! JSON document. `TPA_OBS_LEDGER` is consumed by the scenario front ends
//! (`check_file`, `tpa_runs corpus`) rather than here — the experiment
//! binaries have no scenario identity to record under.
//!
//! The JSONL schema is documented in EXPERIMENTS.md and machine-checked
//! by `tpa_obs::schema::validate_lines` (the `obs_validate` binary and
//! the smoke script run it); `obs_validate --metrics` checks the
//! snapshot file.

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use tpa_obs::{Metrics, Recorder};

static METRICS: OnceLock<Option<(Arc<Metrics>, PathBuf)>> = OnceLock::new();

fn metrics_cell() -> &'static Option<(Arc<Metrics>, PathBuf)> {
    METRICS.get_or_init(|| {
        std::env::var_os("TPA_OBS_METRICS")
            .filter(|v| !v.is_empty())
            .map(|p| (Arc::new(Metrics::new()), PathBuf::from(p)))
    })
}

/// The process-wide metrics registry requested by `TPA_OBS_METRICS`, or
/// `None` when the variable is unset. Every caller gets the same
/// registry, so counters aggregate across all checks a binary runs;
/// [`finish`] writes the snapshot to the named file.
pub fn env_metrics() -> Option<Arc<Metrics>> {
    metrics_cell().as_ref().map(|(m, _)| m.clone())
}

/// Builds a [`Recorder`] from the `TPA_OBS_*` environment, or `None`
/// when none of the variables are set. I/O errors disable telemetry with
/// a stderr note rather than failing the experiment — the tables on
/// stdout are the primary artifact.
pub fn probe_from_env() -> Option<Arc<Recorder>> {
    let jsonl = std::env::var("TPA_OBS_JSONL").ok();
    let trace = std::env::var("TPA_OBS_TRACE").ok();
    let heartbeat = std::env::var("TPA_OBS_HEARTBEAT_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis);
    if jsonl.is_none() && trace.is_none() && heartbeat.is_none() {
        return None;
    }
    match Recorder::to_files(
        jsonl.as_deref().map(Path::new),
        trace.as_deref().map(Path::new),
        heartbeat,
    ) {
        Ok(recorder) => Some(Arc::new(recorder)),
        Err(e) => {
            eprintln!("[obs] telemetry disabled: {e}");
            None
        }
    }
}

/// Writes a metrics snapshot as a single JSON document. Errors go to
/// stderr — telemetry never fails the run it observes.
pub fn write_metrics_snapshot(metrics: &Metrics, path: &Path) {
    let doc = metrics.snapshot().to_json().render();
    if let Err(e) = std::fs::write(path, doc + "\n") {
        eprintln!(
            "[obs] cannot write metrics snapshot {}: {e}",
            path.display()
        );
    }
}

/// Flushes and closes an env-built recorder (writes the Perfetto file),
/// and lands the `TPA_OBS_METRICS` snapshot if a registry is live. Safe
/// to call with `None` or more than once.
pub fn finish(probe: &Option<Arc<Recorder>>) {
    if let Some(recorder) = probe {
        recorder.finish();
    }
    if let Some(Some((metrics, path))) = METRICS.get() {
        write_metrics_snapshot(metrics, path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env-var manipulation is process-global, so the three scenarios run
    // in one test to avoid cross-test races.
    #[test]
    fn probe_from_env_respects_the_environment() {
        // No variables: no probe. (Guard against ambient TPA_OBS_* from
        // the invoking shell.)
        for k in [
            "TPA_OBS_JSONL",
            "TPA_OBS_TRACE",
            "TPA_OBS_HEARTBEAT_MS",
            "TPA_OBS_METRICS",
        ] {
            std::env::remove_var(k);
        }
        assert!(probe_from_env().is_none());
        assert!(env_metrics().is_none());

        // A JSONL path: live probe, and finish() lands the file.
        let dir = std::env::temp_dir().join("tpa-obs-env-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        std::env::set_var("TPA_OBS_JSONL", &path);
        let probe = probe_from_env();
        assert!(probe.is_some());
        finish(&probe);
        assert!(path.exists());
        std::env::remove_var("TPA_OBS_JSONL");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The env registry memoises on first touch, so the snapshot writer
    // is exercised directly rather than through TPA_OBS_METRICS.
    #[test]
    fn snapshot_writer_lands_a_parseable_document() {
        let dir = std::env::temp_dir().join("tpa-obs-metrics-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.json");
        let metrics = Metrics::new();
        metrics.counter("search.transitions").add(7);
        metrics.histogram("shrink.shrunk_len").observe(3);
        write_metrics_snapshot(&metrics, &path);
        let raw = std::fs::read_to_string(&path).unwrap();
        let doc = tpa_obs::json::parse(&raw).expect("snapshot is valid JSON");
        let snap = tpa_obs::MetricsSnapshot::from_json(&doc).expect("snapshot round-trips");
        assert_eq!(snap.counter("search.transitions"), 7);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
