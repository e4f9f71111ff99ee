//! The [`Recorder`]: a [`Probe`] that aggregates structured events into
//! a JSONL run log, a Perfetto trace, and an opt-in stderr heartbeat.
//!
//! One recorder serves a whole process run (possibly several checker
//! runs and constructions); every line it writes carries `t`, the
//! microseconds since the recorder was created, and `kind`, the event
//! family. Timestamps are clamped monotone under the internal lock, so a
//! log is always sorted by `t` even when parallel workers race to emit.
//! The JSONL schema is documented in [`crate::schema`] (and in
//! EXPERIMENTS.md); [`crate::schema::validate_lines`] checks it.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::json::escape;
use crate::perfetto::{TraceBuilder, PID_RUN, PID_WORKERS};
use crate::probe::{
    AdvEvent, HistogramRecord, Probe, RunInfo, RunSummary, SimKind, SimStep, WorkerSnapshot,
};

enum Sink {
    /// No JSONL output requested.
    None,
    /// Streaming to a file.
    File(BufWriter<File>),
    /// Buffered in memory (tests, the `adversary_trace` example).
    Memory(Vec<String>),
}

struct Inner {
    sink: Sink,
    /// Trace destination (`None` = keep in memory only).
    trace_path: Option<PathBuf>,
    trace: TraceBuilder,
    /// Clamp: `t` never decreases across lines.
    last_t: u64,
    /// End of the last adversary slice, for synthesising phase durations.
    last_adv_us: u64,
    /// Pending `run_start`s awaiting their `run_finish` (LIFO).
    open_runs: Vec<(String, &'static str, u64)>,
    /// First-sighting timestamp of each worker (for lifetime slices).
    worker_first: BTreeMap<u32, u64>,
    /// Latest snapshot of each worker (for the heartbeat totals).
    worker_last: BTreeMap<u32, WorkerSnapshot>,
    heartbeat_every: Option<Duration>,
    last_heartbeat: Instant,
    sim_events: u64,
    finished: bool,
}

/// A recording probe. Construct with [`Recorder::to_files`] (streaming)
/// or [`Recorder::in_memory`] (buffered, for tests), attach it to the
/// engines as an `Arc<dyn Probe>`, and call [`Recorder::finish`] once at
/// the end to flush the JSONL stream and write the Perfetto trace.
pub struct Recorder {
    start: Instant,
    inner: Mutex<Inner>,
}

impl Recorder {
    fn with_sink(sink: Sink, trace_path: Option<PathBuf>, heartbeat: Option<Duration>) -> Self {
        Recorder {
            start: Instant::now(),
            inner: Mutex::new(Inner {
                sink,
                trace_path,
                trace: TraceBuilder::new(),
                last_t: 0,
                last_adv_us: 0,
                open_runs: Vec::new(),
                worker_first: BTreeMap::new(),
                worker_last: BTreeMap::new(),
                heartbeat_every: heartbeat,
                last_heartbeat: Instant::now(),
                sim_events: 0,
                finished: false,
            }),
        }
    }

    /// A recorder streaming JSONL to `jsonl` (if given) and writing a
    /// Perfetto trace to `trace` (if given) on [`Recorder::finish`]. A
    /// `heartbeat` interval enables the stderr progress line.
    ///
    /// # Errors
    ///
    /// Fails if the JSONL file cannot be created.
    pub fn to_files(
        jsonl: Option<&Path>,
        trace: Option<&Path>,
        heartbeat: Option<Duration>,
    ) -> std::io::Result<Self> {
        let sink = match jsonl {
            Some(p) => Sink::File(BufWriter::new(File::create(p)?)),
            None => Sink::None,
        };
        Ok(Self::with_sink(
            sink,
            trace.map(Path::to_path_buf),
            heartbeat,
        ))
    }

    /// A recorder buffering everything in memory; read back with
    /// [`Recorder::lines`] and [`Recorder::trace_json`].
    pub fn in_memory() -> Self {
        Self::with_sink(Sink::Memory(Vec::new()), None, None)
    }

    /// The JSONL lines buffered so far (in-memory recorders only; file
    /// recorders return an empty vec).
    pub fn lines(&self) -> Vec<String> {
        let inner = self.inner.lock().expect("recorder poisoned");
        match &inner.sink {
            Sink::Memory(lines) => lines.clone(),
            _ => Vec::new(),
        }
    }

    /// The Perfetto trace accumulated so far, rendered as JSON.
    pub fn trace_json(&self) -> String {
        self.inner.lock().expect("recorder poisoned").trace.render()
    }

    /// Simulator steps observed so far.
    pub fn sim_events(&self) -> u64 {
        self.inner.lock().expect("recorder poisoned").sim_events
    }

    /// Flushes the JSONL stream and writes the Perfetto trace file, if
    /// one was requested. Idempotent; errors go to stderr (telemetry is
    /// never allowed to fail the run it observes).
    pub fn finish(&self) {
        let mut inner = self.inner.lock().expect("recorder poisoned");
        if inner.finished {
            return;
        }
        inner.finished = true;
        let t = self.stamp(&mut inner);
        let line = format!("{{\"t\":{t},\"kind\":\"mark\",\"label\":\"recorder-finish\"}}");
        write_line(&mut inner.sink, &line);
        if let Sink::File(w) = &mut inner.sink {
            if let Err(e) = w.flush() {
                eprintln!("[obs] cannot flush JSONL log: {e}");
            }
        }
        if let Some(path) = inner.trace_path.clone() {
            let doc = inner.trace.render();
            if let Err(e) = std::fs::write(&path, doc) {
                eprintln!("[obs] cannot write trace {}: {e}", path.display());
            }
        }
    }

    /// Microseconds since the recorder started, clamped monotone.
    fn stamp(&self, inner: &mut Inner) -> u64 {
        let now = self.start.elapsed().as_micros() as u64;
        inner.last_t = inner.last_t.max(now);
        inner.last_t
    }

    fn heartbeat(&self, inner: &mut Inner) {
        let Some(every) = inner.heartbeat_every else {
            return;
        };
        if inner.last_heartbeat.elapsed() < every {
            return;
        }
        inner.last_heartbeat = Instant::now();
        let (mut transitions, mut hits, mut misses, mut prunes) = (0u64, 0u64, 0u64, 0u64);
        for s in inner.worker_last.values() {
            transitions += s.transitions;
            hits += s.cache_hits;
            misses += s.cache_misses;
            prunes += s.sleep_prunes;
        }
        let secs = self.start.elapsed().as_secs_f64().max(1e-9);
        // A miss is a state the search had to expand — first sightings
        // plus rank-tag re-expansions — so misses/s tracks live state
        // discovery.
        let hit_rate = if hits + misses > 0 {
            format!(", {:.2} hit rate", hits as f64 / (hits + misses) as f64)
        } else {
            String::new()
        };
        eprintln!(
            "[obs] {:7.1}s  {} workers  {} transitions ({:.0}/s)  {} states ({:.0}/s{})  {} sleep prunes",
            secs,
            inner.worker_last.len(),
            transitions,
            transitions as f64 / secs,
            misses,
            misses as f64 / secs,
            hit_rate,
            prunes,
        );
    }
}

fn write_line(sink: &mut Sink, line: &str) {
    match sink {
        Sink::None => {}
        Sink::File(w) => {
            if let Err(e) = writeln!(w, "{line}") {
                eprintln!("[obs] cannot write JSONL line: {e}");
            }
        }
        Sink::Memory(lines) => lines.push(line.to_owned()),
    }
}

fn sim_kind_fields(kind: &SimKind) -> String {
    match kind {
        SimKind::Read {
            var,
            value,
            from_buffer,
        } => format!(",\"var\":{var},\"value\":{value},\"from_buffer\":{from_buffer}"),
        SimKind::IssueWrite { var, value } | SimKind::CommitWrite { var, value } => {
            format!(",\"var\":{var},\"value\":{value}")
        }
        SimKind::Cas {
            var,
            expected,
            new,
            success,
            observed,
        } => format!(
            ",\"var\":{var},\"expected\":{expected},\"new\":{new},\"success\":{success},\"observed\":{observed}"
        ),
        SimKind::Invoke { op, arg } => format!(",\"op\":{op},\"arg\":{arg}"),
        SimKind::Return { value } => format!(",\"value\":{value}"),
        SimKind::Crash { lost } => format!(",\"lost\":{lost}"),
        SimKind::BeginFence
        | SimKind::EndFence
        | SimKind::Enter
        | SimKind::Cs
        | SimKind::Exit
        | SimKind::Recover => String::new(),
    }
}

impl Probe for Recorder {
    fn sim_step(&self, step: &SimStep) {
        let mut inner = self.inner.lock().expect("recorder poisoned");
        inner.sim_events += 1;
        let t = self.stamp(&mut inner);
        let line = format!(
            "{{\"t\":{t},\"kind\":\"sim\",\"seq\":{},\"pid\":{},\"event\":\"{}\",\"critical\":{},\"buffer_depth\":{}{}}}",
            step.seq,
            step.pid,
            step.kind.tag(),
            step.critical,
            step.buffer_depth,
            sim_kind_fields(&step.kind),
        );
        write_line(&mut inner.sink, &line);
    }

    fn adversary(&self, event: &AdvEvent) {
        let mut inner = self.inner.lock().expect("recorder poisoned");
        let t = self.stamp(&mut inner);
        let body = match event {
            AdvEvent::RoundStart { round, active } => {
                format!("\"round\":{round},\"active\":{active}")
            }
            AdvEvent::Phase {
                round,
                label,
                case,
                act_before,
                act_after,
            } => format!(
                "\"round\":{round},\"label\":{},\"case\":{},\"act_before\":{act_before},\"act_after\":{act_after}",
                escape(label),
                escape(case),
            ),
            AdvEvent::Erasure {
                round,
                erased,
                mode,
                active_after,
            } => format!(
                "\"round\":{round},\"erased\":{erased},\"mode\":\"{mode}\",\"active_after\":{active_after}"
            ),
            AdvEvent::Blocked { round, count } => format!("\"round\":{round},\"count\":{count}"),
            AdvEvent::RoundEnd {
                round,
                finisher,
                active,
                criticals_per_active,
                read_iters,
                write_iters,
                reg_criticals,
            } => format!(
                "\"round\":{round},\"finisher\":{finisher},\"active\":{active},\"criticals_per_active\":{criticals_per_active},\"read_iters\":{read_iters},\"write_iters\":{write_iters},\"reg_criticals\":{reg_criticals}"
            ),
        };
        let line = format!(
            "{{\"t\":{t},\"kind\":\"adv\",\"event\":\"{}\",{body}}}",
            event.tag()
        );
        write_line(&mut inner.sink, &line);

        match event {
            AdvEvent::RoundStart { round, .. } => {
                inner
                    .trace
                    .instant(&format!("round {round}"), "adversary", PID_RUN, 1, t);
                inner.last_adv_us = t;
            }
            AdvEvent::Phase { label, case, .. } => {
                let start = inner.last_adv_us.min(t);
                let name = format!("{label} {case}");
                inner
                    .trace
                    .slice(&name, "adversary", PID_RUN, 1, start, t - start, Vec::new());
                inner.last_adv_us = t;
            }
            AdvEvent::Erasure { erased, .. } => {
                inner
                    .trace
                    .instant(&format!("erase {erased}"), "adversary", PID_RUN, 1, t);
            }
            AdvEvent::Blocked { count, .. } => {
                inner
                    .trace
                    .instant(&format!("blocked {count}"), "adversary", PID_RUN, 1, t);
            }
            AdvEvent::RoundEnd { round, .. } => {
                inner
                    .trace
                    .instant(&format!("H_{round} built"), "adversary", PID_RUN, 1, t);
                inner.last_adv_us = t;
            }
        }
    }

    fn worker(&self, snapshot: &WorkerSnapshot) {
        let mut inner = self.inner.lock().expect("recorder poisoned");
        let t = self.stamp(&mut inner);
        let line = format!(
            "{{\"t\":{t},\"kind\":\"worker\",\"worker\":{},\"done\":{},\"transitions\":{},\"nodes_expanded\":{},\"cache_hits\":{},\"cache_misses\":{},\"sleep_prunes\":{},\"donated\":{},\"frontier_depth\":{},\"max_frontier\":{}}}",
            snapshot.worker,
            snapshot.done,
            snapshot.transitions,
            snapshot.nodes_expanded,
            snapshot.cache_hits,
            snapshot.cache_misses,
            snapshot.sleep_prunes,
            snapshot.donated,
            snapshot.frontier_depth,
            snapshot.max_frontier,
        );
        write_line(&mut inner.sink, &line);

        let is_new = !inner.worker_first.contains_key(&snapshot.worker);
        let first = *inner.worker_first.entry(snapshot.worker).or_insert(t);
        if is_new {
            let name = format!("worker-{}", snapshot.worker);
            inner.trace.name_thread(PID_WORKERS, snapshot.worker, &name);
        }
        inner.trace.counter(
            &format!("worker-{}", snapshot.worker),
            PID_WORKERS,
            snapshot.worker,
            t,
            vec![
                ("transitions".to_owned(), snapshot.transitions.to_string()),
                ("cache_hits".to_owned(), snapshot.cache_hits.to_string()),
                ("sleep_prunes".to_owned(), snapshot.sleep_prunes.to_string()),
                (
                    "frontier_depth".to_owned(),
                    snapshot.frontier_depth.to_string(),
                ),
            ],
        );
        if snapshot.done {
            inner.trace.slice(
                &format!("worker-{} lifetime", snapshot.worker),
                "checker",
                PID_WORKERS,
                snapshot.worker,
                first,
                t - first,
                vec![
                    ("transitions".to_owned(), snapshot.transitions.to_string()),
                    (
                        "nodes_expanded".to_owned(),
                        snapshot.nodes_expanded.to_string(),
                    ),
                ],
            );
        }
        inner.worker_last.insert(snapshot.worker, *snapshot);
        self.heartbeat(&mut inner);
    }

    fn run_start(&self, info: &RunInfo) {
        let mut inner = self.inner.lock().expect("recorder poisoned");
        let t = self.stamp(&mut inner);
        // A swarm run has no transition budget: omit the key rather than
        // write a placeholder the schema would have to excuse.
        let budget = match info.max_transitions {
            Some(b) => format!(",\"max_transitions\":{b}"),
            None => String::new(),
        };
        let line = format!(
            "{{\"t\":{t},\"kind\":\"run_start\",\"algo\":{},\"model\":\"{}\",\"mode\":\"{}\",\"threads\":{},\"max_steps\":{}{budget}}}",
            escape(&info.algo),
            info.model,
            info.mode,
            info.threads,
            info.max_steps,
        );
        write_line(&mut inner.sink, &line);
        inner.open_runs.push((info.algo.clone(), info.mode, t));
        // A fresh run means fresh workers: forget the previous run's
        // first-sighting marks so lifetime slices stay per-run.
        inner.worker_first.clear();
        inner.worker_last.clear();
    }

    fn run_finish(&self, summary: &RunSummary) {
        let mut inner = self.inner.lock().expect("recorder poisoned");
        let t = self.stamp(&mut inner);
        // Swarm keeps no state cache: omit `unique_states` rather than
        // report a fake zero.
        let states = match summary.unique_states {
            Some(s) => format!(",\"unique_states\":{s}"),
            None => String::new(),
        };
        let line = format!(
            "{{\"t\":{t},\"kind\":\"run_finish\",\"algo\":{},\"mode\":\"{}\",\"passed\":{},\"complete\":{},\"transitions\":{}{states},\"wall_us\":{}}}",
            escape(&summary.algo),
            summary.mode,
            summary.passed,
            summary.complete,
            summary.transitions,
            summary.wall_us,
        );
        write_line(&mut inner.sink, &line);
        let start = match inner
            .open_runs
            .iter()
            .rposition(|(algo, mode, _)| *algo == summary.algo && *mode == summary.mode)
        {
            Some(i) => inner.open_runs.remove(i).2,
            None => t.saturating_sub(summary.wall_us),
        };
        let name = format!("{}: {}", summary.mode, summary.algo);
        let mut args = vec![
            ("transitions".to_owned(), summary.transitions.to_string()),
            ("passed".to_owned(), summary.passed.to_string()),
        ];
        if let Some(states) = summary.unique_states {
            args.push(("unique_states".to_owned(), states.to_string()));
        }
        inner
            .trace
            .slice(&name, "run", PID_RUN, 0, start, t - start, args);
    }

    fn histogram(&self, hist: &HistogramRecord) {
        let mut inner = self.inner.lock().expect("recorder poisoned");
        let t = self.stamp(&mut inner);
        let buckets = hist
            .buckets
            .iter()
            .map(|(label, count)| format!("{}:{count}", escape(label)))
            .collect::<Vec<_>>()
            .join(",");
        let line = format!(
            "{{\"t\":{t},\"kind\":\"hist\",\"label\":{},\"count\":{},\"sum\":{},\"max\":{},\"buckets\":{{{buckets}}}}}",
            escape(&hist.label),
            hist.count,
            hist.sum,
            hist.max,
        );
        write_line(&mut inner.sink, &line);
    }

    fn mark(&self, label: &str) {
        let mut inner = self.inner.lock().expect("recorder poisoned");
        let t = self.stamp(&mut inner);
        let line = format!(
            "{{\"t\":{t},\"kind\":\"mark\",\"label\":{}}}",
            escape(label)
        );
        write_line(&mut inner.sink, &line);
        inner.trace.instant(label, "mark", PID_RUN, 0, t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::schema::validate_lines;

    fn sample_run(rec: &Recorder) {
        rec.run_start(&RunInfo {
            algo: "tas".into(),
            model: "tso".into(),
            mode: "exhaustive",
            threads: 2,
            max_steps: 40,
            max_transitions: Some(1000),
        });
        rec.sim_step(&SimStep {
            seq: 0,
            pid: 1,
            critical: true,
            buffer_depth: 1,
            kind: SimKind::IssueWrite { var: 3, value: 7 },
        });
        for (i, done) in [(0u64, false), (10, true)] {
            rec.worker(&WorkerSnapshot {
                worker: 0,
                done,
                transitions: 5 + i,
                nodes_expanded: 2 + i,
                cache_hits: 1,
                cache_misses: 2 + i,
                sleep_prunes: 0,
                donated: 0,
                frontier_depth: 3,
                max_frontier: 4,
            });
        }
        rec.histogram(&HistogramRecord {
            label: "passage_fences".into(),
            count: 2,
            sum: 3,
            max: 2,
            buckets: vec![("[1,2)".into(), 1), ("[2,4)".into(), 1)],
        });
        rec.adversary(&AdvEvent::RoundStart {
            round: 1,
            active: 8,
        });
        rec.adversary(&AdvEvent::Phase {
            round: 1,
            label: "read[1]".into(),
            case: "batch".into(),
            act_before: 8,
            act_after: 6,
        });
        rec.mark("done");
        rec.run_finish(&RunSummary {
            algo: "tas".into(),
            mode: "exhaustive",
            passed: true,
            complete: true,
            transitions: 15,
            unique_states: Some(12),
            wall_us: 100,
        });
        rec.finish();
    }

    #[test]
    fn swarm_runs_omit_unmeasured_keys_and_stay_schema_clean() {
        let rec = Recorder::in_memory();
        rec.run_start(&RunInfo {
            algo: "tas".into(),
            model: "tso".into(),
            mode: "swarm",
            threads: 4,
            max_steps: 4096,
            max_transitions: None,
        });
        rec.worker(&WorkerSnapshot {
            worker: 0,
            done: true,
            transitions: 9,
            nodes_expanded: 3,
            ..WorkerSnapshot::default()
        });
        rec.run_finish(&RunSummary {
            algo: "tas".into(),
            mode: "swarm",
            passed: true,
            complete: false,
            transitions: 9,
            unique_states: None,
            wall_us: 50,
        });
        rec.finish();
        let lines = rec.lines();
        validate_lines(&lines).expect("swarm lines are schema-clean");
        assert!(
            !lines.iter().any(|l| l.contains("max_transitions")),
            "unmeasured budget must be omitted: {lines:?}"
        );
        assert!(
            !lines.iter().any(|l| l.contains("unique_states")),
            "unmeasured state count must be omitted: {lines:?}"
        );
    }

    #[test]
    fn every_line_is_valid_json_and_schema_clean() {
        let rec = Recorder::in_memory();
        sample_run(&rec);
        let lines = rec.lines();
        assert!(lines.len() >= 8, "{lines:?}");
        for line in &lines {
            parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
        }
        let summary = validate_lines(&lines).expect("schema-valid");
        assert_eq!(summary.by_kind.get("run_start"), Some(&1));
        assert_eq!(summary.by_kind.get("worker"), Some(&2));
        assert_eq!(summary.by_kind.get("sim"), Some(&1));
    }

    #[test]
    fn trace_contains_run_slice_and_worker_counters() {
        let rec = Recorder::in_memory();
        sample_run(&rec);
        let doc = parse(&rec.trace_json()).expect("trace is valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let slices: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert!(
            slices
                .iter()
                .any(|e| e.get("name").and_then(Json::as_str) == Some("exhaustive: tas")),
            "run slice missing"
        );
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("C")));
    }

    #[test]
    fn timestamps_are_monotone() {
        let rec = Recorder::in_memory();
        sample_run(&rec);
        let mut last = 0;
        for line in rec.lines() {
            let t = parse(&line)
                .unwrap()
                .get("t")
                .and_then(Json::as_u64)
                .expect("t present");
            assert!(t >= last, "t went backwards in {line}");
            last = t;
        }
    }

    #[test]
    fn finish_is_idempotent() {
        let rec = Recorder::in_memory();
        rec.mark("x");
        rec.finish();
        let n = rec.lines().len();
        rec.finish();
        assert_eq!(rec.lines().len(), n);
    }
}
