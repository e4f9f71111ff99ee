//! The persistent run ledger: one JSON [`RunRecord`] per checker run,
//! one file per run, so runs survive their process and can be listed,
//! inspected and diffed later (`tpa_runs`).
//!
//! Layout of a ledger directory:
//!
//! ```text
//! <dir>/runs/<id>.json   the full RunRecord, the only copy of the run
//! ```
//!
//! Records are written temp-file-then-rename so a crashed writer never
//! leaves a half-record behind. Run ids are
//! `{unix_micros:016x}-{pid}-{seq:04}`, and an id is *claimed* by
//! creating an empty `runs/<id>.json` with `create_new` before anything
//! is written: two `Ledger` handles (same pid, seq restarting at 0, same
//! microsecond) that mint the same candidate id race on the exclusive
//! create, and the loser retries with the next sequence number — a
//! collision can slow an append down, never silently overwrite a record.
//!
//! A read ([`Ledger::runs`], `tpa_runs list|diff`) scans `runs/*.json`
//! and orders the records by `(created_us, seq, id)` taken from each
//! record. It skips dot-prefixed temp files and empty files (ids claimed
//! by appends still in flight), and counts the non-empty files that do
//! not parse. The rename is atomic, so a read sees all of an append or
//! none of it, and a record one read lists every later read lists too.
//! Ledger directories written by earlier builds also hold an
//! `index.jsonl` of per-run summary lines; nothing reads it, and their
//! records list, load and diff unchanged.
//!
//! This crate sits below `tpa-check` in the workspace graph, so the
//! record speaks in plain strings and counter maps; the checker's
//! `Report` → `RunRecord` translation lives in
//! `crates/check/src/checker.rs`.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::{parse, Json};
use crate::metrics::MetricsSnapshot;

/// The current `RunRecord` envelope version; bump on breaking shape
/// changes so old ledgers stay readable by version sniffing.
pub const RUN_RECORD_VERSION: u64 = 1;

/// Env vars excluded from the fingerprint: they name *output* paths and
/// cadences, which vary per invocation without affecting any result. A
/// scratch-dir change must not read as an environment difference.
const FINGERPRINT_EXCLUDED: [&str; 5] = [
    "TPA_OBS_JSONL",
    "TPA_OBS_TRACE",
    "TPA_OBS_METRICS",
    "TPA_OBS_LEDGER",
    "TPA_OBS_HEARTBEAT_MS",
];

/// Where and how a run happened: enough to explain a result drift that
/// is *not* a code regression (different machine, build, thread count,
/// or `TPA_*` knobs).
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct EnvFingerprint {
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
    /// Available hardware parallelism (0 when unknown).
    pub nproc: u64,
    /// `"debug"` or `"release"`.
    pub build: String,
    /// Checker worker threads the run was configured with.
    pub threads: u64,
    /// Result-affecting `TPA_*` environment variables (output-path and
    /// cadence vars are excluded, see module docs).
    pub vars: BTreeMap<String, String>,
}

impl EnvFingerprint {
    /// Captures the current process environment for a run using
    /// `threads` checker workers.
    pub fn capture(threads: u64) -> Self {
        let vars = std::env::vars()
            .filter(|(k, _)| k.starts_with("TPA_") && !FINGERPRINT_EXCLUDED.contains(&k.as_str()))
            .collect();
        EnvFingerprint {
            os: std::env::consts::OS.to_owned(),
            arch: std::env::consts::ARCH.to_owned(),
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
            build: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_owned(),
            threads,
            vars,
        }
    }

    /// The fields (as `name: value` strings) on which `self` and `other`
    /// disagree — what `tpa_runs diff` prints as `env:` lines.
    pub fn differences(&self, other: &EnvFingerprint) -> Vec<String> {
        let mut out = Vec::new();
        let mut field = |name: &str, a: &str, b: &str| {
            if a != b {
                out.push(format!("{name}: {a} -> {b}"));
            }
        };
        field("os", &self.os, &other.os);
        field("arch", &self.arch, &other.arch);
        field("nproc", &self.nproc.to_string(), &other.nproc.to_string());
        field("build", &self.build, &other.build);
        field(
            "threads",
            &self.threads.to_string(),
            &other.threads.to_string(),
        );
        let keys: std::collections::BTreeSet<&String> =
            self.vars.keys().chain(other.vars.keys()).collect();
        for k in keys {
            let a = self.vars.get(k).map_or("(unset)", String::as_str);
            let b = other.vars.get(k).map_or("(unset)", String::as_str);
            if a != b {
                out.push(format!("{k}: {a} -> {b}"));
            }
        }
        out
    }

    fn to_json(&self) -> Json {
        let mut obj = BTreeMap::new();
        obj.insert("os".to_owned(), Json::Str(self.os.clone()));
        obj.insert("arch".to_owned(), Json::Str(self.arch.clone()));
        obj.insert("nproc".to_owned(), Json::Num(self.nproc as f64));
        obj.insert("build".to_owned(), Json::Str(self.build.clone()));
        obj.insert("threads".to_owned(), Json::Num(self.threads as f64));
        obj.insert(
            "vars".to_owned(),
            Json::Obj(
                self.vars
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        );
        Json::Obj(obj)
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let str_field = |name: &str| {
            v.get(name)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or(format!("env missing string `{name}`"))
        };
        let num_field = |name: &str| {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or(format!("env missing numeric `{name}`"))
        };
        let vars = match v.get("vars") {
            None => BTreeMap::new(),
            Some(j) => j
                .as_obj()
                .ok_or("env `vars` is not an object")?
                .iter()
                .map(|(k, s)| {
                    s.as_str()
                        .map(|s| (k.clone(), s.to_owned()))
                        .ok_or(format!("env var `{k}` is not a string"))
                })
                .collect::<Result<_, _>>()?,
        };
        Ok(EnvFingerprint {
            os: str_field("os")?,
            arch: str_field("arch")?,
            nproc: num_field("nproc")?,
            build: str_field("build")?,
            threads: num_field("threads")?,
            vars,
        })
    }
}

/// One persisted checker run: everything needed to re-identify the run
/// (scenario + features + env) and to compare it against another
/// (verdict + stats + metrics + wall time).
#[derive(Clone, Default, PartialEq, Debug)]
pub struct RunRecord {
    /// Ledger-assigned run id (empty until [`Ledger::append`]).
    pub id: String,
    /// Creation time, microseconds since the Unix epoch (assigned by
    /// [`Ledger::append`]).
    pub created_us: u64,
    /// Scenario identity — a `.tpa` path, a lock name, or whatever the
    /// caller uses to name "the same check" across runs.
    pub scenario: String,
    /// System/algorithm name (e.g. `"tas"`, `"scenario:peterson"`).
    pub algo: String,
    /// Memory model (`"tso"` / `"pso"`).
    pub model: String,
    /// Search mode (`"exhaustive"` / `"swarm"`).
    pub mode: String,
    /// Verdict kind: `"pass"`, `"violation"`, or `"incomplete"`.
    pub verdict: String,
    /// Verdict detail: violated invariant, incompleteness reason, or
    /// empty for a pass.
    pub verdict_detail: String,
    /// Feature flags that select the engine configuration
    /// (`execution`, `keys`, `vm`, `symmetry`, …), as strings.
    pub features: BTreeMap<String, String>,
    /// Effort counters (`transitions`, `unique_states`, `pruned_sleep`,
    /// `cache_skips`, `schedules_run`, witness lengths, …).
    pub stats: BTreeMap<String, u64>,
    /// Whether the search exhausted its space within budget.
    pub complete: bool,
    /// Wall-clock time of the run in microseconds.
    pub wall_us: u64,
    /// Environment fingerprint.
    pub env: EnvFingerprint,
    /// Metrics registry snapshot taken at the end of the run.
    pub metrics: MetricsSnapshot,
    /// Id of the last search checkpoint this run wrote, or empty. Pairs
    /// with `resumed_from` to reconstruct resume lineage across runs.
    pub checkpoint: String,
    /// Id of the checkpoint this run resumed from, or empty for a run
    /// that started from the initial state. A resumed run supersedes the
    /// interrupted run that wrote the checkpoint: comparisons (`tpa_runs
    /// diff`) treat the chain as one logical check.
    pub resumed_from: String,
}

impl RunRecord {
    /// Renders the record as its versioned JSON document.
    pub fn to_json(&self) -> Json {
        let mut obj = BTreeMap::new();
        obj.insert("v".to_owned(), Json::Num(RUN_RECORD_VERSION as f64));
        obj.insert("id".to_owned(), Json::Str(self.id.clone()));
        obj.insert("created_us".to_owned(), Json::Num(self.created_us as f64));
        obj.insert("scenario".to_owned(), Json::Str(self.scenario.clone()));
        obj.insert("algo".to_owned(), Json::Str(self.algo.clone()));
        obj.insert("model".to_owned(), Json::Str(self.model.clone()));
        obj.insert("mode".to_owned(), Json::Str(self.mode.clone()));
        let mut verdict = BTreeMap::new();
        verdict.insert("kind".to_owned(), Json::Str(self.verdict.clone()));
        verdict.insert("detail".to_owned(), Json::Str(self.verdict_detail.clone()));
        obj.insert("verdict".to_owned(), Json::Obj(verdict));
        obj.insert(
            "features".to_owned(),
            Json::Obj(
                self.features
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        );
        let mut stats: BTreeMap<String, Json> = self
            .stats
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
            .collect();
        stats.insert("complete".to_owned(), Json::Bool(self.complete));
        obj.insert("stats".to_owned(), Json::Obj(stats));
        obj.insert("wall_us".to_owned(), Json::Num(self.wall_us as f64));
        obj.insert("env".to_owned(), self.env.to_json());
        obj.insert("metrics".to_owned(), self.metrics.to_json());
        // Lineage keys are omitted when empty so documents written by
        // older builds (which never had them) still compare equal after a
        // round trip.
        if !self.checkpoint.is_empty() {
            obj.insert("checkpoint".to_owned(), Json::Str(self.checkpoint.clone()));
        }
        if !self.resumed_from.is_empty() {
            obj.insert(
                "resumed_from".to_owned(),
                Json::Str(self.resumed_from.clone()),
            );
        }
        Json::Obj(obj)
    }

    /// Parses a record back from its [`RunRecord::to_json`] form.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first structural problem,
    /// including an unsupported version number.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let version = v
            .get("v")
            .and_then(Json::as_u64)
            .ok_or("run record missing numeric `v`")?;
        if version != RUN_RECORD_VERSION {
            return Err(format!(
                "unsupported run record version {version} (this build reads {RUN_RECORD_VERSION})"
            ));
        }
        let str_field = |name: &str| {
            v.get(name)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or(format!("run record missing string `{name}`"))
        };
        let verdict = v.get("verdict").ok_or("run record missing `verdict`")?;
        let stats_obj = v
            .get("stats")
            .and_then(Json::as_obj)
            .ok_or("run record missing `stats` object")?;
        let mut stats = BTreeMap::new();
        let mut complete = false;
        for (k, s) in stats_obj {
            if k == "complete" {
                complete = s.as_bool().ok_or("stats `complete` is not a bool")?;
            } else {
                stats.insert(
                    k.clone(),
                    s.as_u64()
                        .ok_or(format!("stats `{k}` is not a non-negative integer"))?,
                );
            }
        }
        let features = match v.get("features") {
            None => BTreeMap::new(),
            Some(j) => j
                .as_obj()
                .ok_or("run record `features` is not an object")?
                .iter()
                .map(|(k, s)| {
                    s.as_str()
                        .map(|s| (k.clone(), s.to_owned()))
                        .ok_or(format!("feature `{k}` is not a string"))
                })
                .collect::<Result<_, _>>()?,
        };
        Ok(RunRecord {
            id: str_field("id")?,
            created_us: v
                .get("created_us")
                .and_then(Json::as_u64)
                .ok_or("run record missing numeric `created_us`")?,
            scenario: str_field("scenario")?,
            algo: str_field("algo")?,
            model: str_field("model")?,
            mode: str_field("mode")?,
            verdict: verdict
                .get("kind")
                .and_then(Json::as_str)
                .ok_or("verdict missing string `kind`")?
                .to_owned(),
            verdict_detail: verdict
                .get("detail")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned(),
            features,
            stats,
            complete,
            wall_us: v
                .get("wall_us")
                .and_then(Json::as_u64)
                .ok_or("run record missing numeric `wall_us`")?,
            env: EnvFingerprint::from_json(v.get("env").ok_or("run record missing `env`")?)?,
            metrics: MetricsSnapshot::from_json(
                v.get("metrics").ok_or("run record missing `metrics`")?,
            )?,
            checkpoint: v
                .get("checkpoint")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned(),
            resumed_from: v
                .get("resumed_from")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned(),
        })
    }

    /// Whether two records describe *the same check* — same scenario,
    /// model, mode and features — so their results are comparable.
    pub fn comparable_to(&self, other: &RunRecord) -> bool {
        self.scenario == other.scenario
            && self.model == other.model
            && self.mode == other.mode
            && self.features == other.features
    }
}

/// The `{seq:04}` suffix of a run id, or 0 for foreign/hand-made ids.
fn id_seq(id: &str) -> u64 {
    id.rsplit('-')
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Parses the bytes of the record file at `path`, naming it in the
/// error.
fn parse_record(path: &Path, bytes: &[u8]) -> Result<RunRecord, String> {
    std::str::from_utf8(bytes)
        .map_err(|e| e.to_string())
        .and_then(parse)
        .and_then(|v| RunRecord::from_json(&v))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// A ledger directory handle. Opening one creates the directory (and
/// `runs/`) if missing; appending assigns ids and timestamps. A handle
/// holds no copy of the ledger: every read scans the record files, so
/// appends made by other handles or other processes surface on the next
/// read.
pub struct Ledger {
    dir: PathBuf,
    seq: AtomicU64,
}

impl Ledger {
    /// Opens the ledger at `dir`, creating the directory if needed.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created.
    pub fn open(dir: &Path) -> io::Result<Self> {
        fs::create_dir_all(dir.join("runs"))?;
        Ok(Ledger {
            dir: dir.to_path_buf(),
            seq: AtomicU64::new(0),
        })
    }

    /// The ledger directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends `record` to the ledger: claims an id (see module docs) and
    /// writes `runs/<id>.json` (temp + rename over the claimed file).
    /// Returns the assigned id.
    ///
    /// # Errors
    ///
    /// Fails if the record cannot be written; a failed append leaves at
    /// most an empty claimed file and a dot-prefixed temp file, both of
    /// which reads skip.
    pub fn append(&self, record: &mut RunRecord) -> io::Result<String> {
        // Mint candidate ids until `create_new` wins the exclusive
        // claim on runs/<id>.json. Two handles in one process share a
        // pid and each start `seq` at 0, so same-microsecond appends
        // *will* collide on the first candidate — the create_new race
        // decides a winner and the loser retries with a fresh seq;
        // overwriting another handle's record is structurally
        // impossible. The loop terminates: seq strictly increases.
        let (id, now) = loop {
            let now = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_micros() as u64);
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            let id = format!("{now:016x}-{}-{seq:04}", std::process::id());
            match OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(self.dir.join(format!("runs/{id}.json")))
            {
                Ok(_claim) => break (id, now),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        };
        record.id = id.clone();
        record.created_us = now;

        // The id is claimed, so the tmp name derived from it is ours
        // alone; the rename replaces our empty claim file atomically.
        let tmp_path = self.dir.join(format!("runs/.{id}.tmp"));
        let doc = record.to_json().render();
        {
            let mut f = File::create(&tmp_path)?;
            f.write_all(doc.as_bytes())?;
            f.write_all(b"\n")?;
            f.sync_all()?;
        }
        fs::rename(&tmp_path, self.dir.join(format!("runs/{id}.json")))?;
        Ok(id)
    }

    /// Every run in the ledger, oldest first, and the number of record
    /// files that do not parse.
    ///
    /// Runs are ordered by `(created_us, seq, id)` read from the records
    /// themselves, *not* by file name or directory order, so a
    /// `SystemTime` step backwards between appends cannot scramble what
    /// "latest" means, and two same-microsecond appends from one handle
    /// still order by `seq`. Dot-prefixed temp files are skipped, and so
    /// are empty files: an id claimed by an append still in flight.
    ///
    /// # Errors
    ///
    /// Fails if `runs/` or a record file cannot be read.
    pub fn runs(&self) -> io::Result<(Vec<RunRecord>, usize)> {
        let mut runs = Vec::new();
        let mut unreadable = 0;
        for path in self.record_paths()? {
            let bytes = fs::read(&path)?;
            if bytes.is_empty() {
                continue;
            }
            match parse_record(&path, &bytes) {
                Ok(record) => runs.push(record),
                Err(_) => unreadable += 1,
            }
        }
        runs.sort_by(|a, b| {
            (a.created_us, id_seq(&a.id))
                .cmp(&(b.created_us, id_seq(&b.id)))
                .then_with(|| a.id.cmp(&b.id))
        });
        Ok((runs, unreadable))
    }

    /// Loads the record of run `id`. Accepts unique id prefixes, matched
    /// against the record file names.
    ///
    /// # Errors
    ///
    /// Fails on an unknown or ambiguous id, or an unreadable record.
    pub fn load(&self, id: &str) -> io::Result<RunRecord> {
        let mut matches = self.record_paths()?;
        matches.retain(|p| {
            p.file_stem()
                .and_then(|s| s.to_str())
                .is_some_and(|s| s.starts_with(id))
        });
        let path = match matches.as_slice() {
            [one] => one,
            [] => {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("no run with id `{id}` in {}", self.dir.display()),
                ))
            }
            many => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("id `{id}` is ambiguous ({} matches)", many.len()),
                ))
            }
        };
        parse_record(path, &fs::read(path)?)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// The paths of `runs/*.json`, leaving out dot-prefixed temp files.
    fn record_paths(&self) -> io::Result<Vec<PathBuf>> {
        let mut paths = Vec::new();
        for entry in fs::read_dir(self.dir.join("runs"))? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or(".");
            if !name.starts_with('.') && name.ends_with(".json") {
                paths.push(path);
            }
        }
        Ok(paths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;

    fn sample_record(scenario: &str) -> RunRecord {
        let m = Metrics::new();
        m.counter("search.transitions").add(100);
        m.counter("search.cache_hits").add(20);
        m.counter("search.cache_misses").add(60);
        let mut stats = BTreeMap::new();
        stats.insert("transitions".to_owned(), 100);
        stats.insert("unique_states".to_owned(), 60);
        RunRecord {
            scenario: scenario.to_owned(),
            algo: "tas".to_owned(),
            model: "tso".to_owned(),
            mode: "exhaustive".to_owned(),
            verdict: "pass".to_owned(),
            features: [("keys".to_owned(), "concrete".to_owned())].into(),
            stats,
            complete: true,
            wall_us: 1234,
            env: EnvFingerprint::capture(2),
            metrics: m.snapshot(),
            ..RunRecord::default()
        }
    }

    #[test]
    fn record_json_round_trips() {
        let rec = sample_record("scenarios/sb.tpa");
        let doc = rec.to_json().render();
        let back = RunRecord::from_json(&parse(&doc).expect("valid")).expect("parses");
        assert_eq!(back, rec);
    }

    #[test]
    fn unknown_versions_are_rejected_with_a_clear_message() {
        let mut rec = sample_record("x");
        rec.id = "deadbeef".into();
        let doc = rec.to_json().render().replace("\"v\":1", "\"v\":99");
        let err = RunRecord::from_json(&parse(&doc).unwrap()).unwrap_err();
        assert!(err.contains("version 99"), "{err}");
    }

    #[test]
    fn append_list_load_cycle() {
        let dir = std::env::temp_dir().join(format!("tpa-ledger-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let ledger = Ledger::open(&dir).expect("open");
        let mut a = sample_record("scenarios/sb.tpa");
        let mut b = sample_record("scenarios/peterson.tpa");
        b.verdict = "violation".into();
        let id_a = ledger.append(&mut a).expect("append a");
        let id_b = ledger.append(&mut b).expect("append b");
        assert_ne!(id_a, id_b);

        let (runs, unreadable) = ledger.runs().expect("read");
        assert_eq!(unreadable, 0);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].id, id_a);
        assert_eq!(runs[1].verdict, "violation");
        assert!(runs[0].created_us <= runs[1].created_us);

        let loaded = ledger.load(&id_a).expect("load");
        assert_eq!(loaded, a);
        // Prefix lookup works while unambiguous.
        assert!(ledger.load(&id_a[..id_a.len() - 1]).is_ok());
        assert!(ledger.load("zzz-no-such-run").is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn comparability_requires_same_scenario_and_features() {
        let a = sample_record("scenarios/sb.tpa");
        let mut b = a.clone();
        assert!(a.comparable_to(&b));
        b.features.insert("keys".into(), "canonical".into());
        assert!(!a.comparable_to(&b));
        let mut c = a.clone();
        c.env.threads = 99; // env may differ, runs stay comparable
        assert!(a.comparable_to(&c));
    }

    /// Regression for the run-id collision: two `Ledger` handles share
    /// the pid and each restart `seq` at 0, so same-microsecond appends
    /// used to mint identical ids and the second rename silently
    /// clobbered the first record. The `create_new` claim makes the
    /// loser retry: every append keeps its own record.
    #[test]
    fn two_handles_appending_in_a_tight_loop_never_collide() {
        let dir = std::env::temp_dir().join(format!("tpa-ledger-collide-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        const PER_HANDLE: usize = 40;
        let ids = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let dir = dir.clone();
                    s.spawn(move || {
                        let ledger = Ledger::open(&dir).expect("open");
                        (0..PER_HANDLE)
                            .map(|i| {
                                let mut rec = sample_record(&format!("s{i}"));
                                ledger.append(&mut rec).expect("append")
                            })
                            .collect::<Vec<String>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("no panic"))
                .collect::<Vec<String>>()
        });
        let unique: std::collections::BTreeSet<&String> = ids.iter().collect();
        assert_eq!(unique.len(), 2 * PER_HANDLE, "colliding run ids minted");
        for id in &ids {
            assert!(
                dir.join(format!("runs/{id}.json")).is_file(),
                "record {id} clobbered"
            );
        }
        let fresh = Ledger::open(&dir).expect("reopen");
        let (runs, unreadable) = fresh.runs().expect("read");
        assert_eq!(runs.len(), 2 * PER_HANDLE);
        assert_eq!(unreadable, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A read lists the records that parse and counts the non-empty ones
    /// that do not. An empty file is an id claimed by an append still in
    /// flight and a dot-prefixed file is its temp record: neither is a
    /// run, and neither is damage.
    #[test]
    fn reads_skip_appends_in_flight_and_count_unreadable_records() {
        let dir = std::env::temp_dir().join(format!("tpa-ledger-damage-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let ledger = Ledger::open(&dir).expect("open");
        let mut rec = sample_record("scenarios/sb.tpa");
        let id = ledger.append(&mut rec).expect("append");
        let runs = dir.join("runs");
        File::create(runs.join("00000000000000ff-1-0000.json")).expect("claim");
        fs::write(runs.join(".00000000000000ff-1-0000.tmp"), "{\"v\":1").expect("tmp");
        fs::write(runs.join("cut.json"), "{\"v\":1,\"id\":\"cut\"").expect("cut");
        let future = rec.to_json().render().replace("\"v\":1", "\"v\":99");
        fs::write(runs.join("future.json"), future).expect("future");

        let (listed, unreadable) = ledger.runs().expect("read");
        assert_eq!(listed, [rec.clone()]);
        assert_eq!(unreadable, 2, "the cut and the future record");
        assert_eq!(ledger.load(&id).expect("load"), rec);
        let err = ledger.load("cut").expect_err("cut record loads");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A `SystemTime` step backwards between appends must not scramble
    /// what "latest" means: a read orders by the records' own
    /// `(created_us, seq, id)`, not by file name or directory order.
    #[test]
    fn read_order_is_creation_order_not_file_order() {
        let dir = std::env::temp_dir().join(format!("tpa-ledger-order-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let ledger = Ledger::open(&dir).expect("open");
        // A clock step backwards (t=50 minted after t=100) and a
        // same-microsecond pair whose seq order (0 before 1) is the
        // reverse of its id order (pid 2 after pid 1).
        for (created_us, id, scenario) in [
            (100u64, "0000000000000064-1-0002", "c"),
            (50, "0000000000000032-1-0003", "d"),
            (7, "0000000000000007-2-0000", "a"),
            (7, "0000000000000007-1-0001", "b"),
        ] {
            let rec = RunRecord {
                id: id.to_owned(),
                created_us,
                ..sample_record(scenario)
            };
            fs::write(dir.join(format!("runs/{id}.json")), rec.to_json().render()).expect("record");
        }
        let (runs, unreadable) = ledger.runs().expect("read");
        assert_eq!(unreadable, 0);
        let order: Vec<&str> = runs.iter().map(|r| r.scenario.as_str()).collect();
        assert_eq!(
            order,
            ["a", "b", "d", "c"],
            "must order by (created_us, seq, id): same-µs pair by seq, \
             clock-stepped t=50 before t=100"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A read taken from one handle while another handle appends is an
    /// owned copy: it keeps what it saw, and a re-read sees everything.
    #[test]
    fn reads_are_snapshots_and_new_reads_see_new_appends() {
        let dir = std::env::temp_dir().join(format!("tpa-ledger-snap-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let writer = Ledger::open(&dir).expect("open writer");
        let reader = Ledger::open(&dir).expect("open reader");
        let mut a = sample_record("one");
        writer.append(&mut a).expect("append one");
        let (first, _) = reader.runs().expect("read");
        assert_eq!(first.len(), 1);
        let mut b = sample_record("two");
        writer.append(&mut b).expect("append two");
        // The earlier Vec is untouched by definition; a fresh read from
        // the same handle surfaces the cross-handle append.
        assert_eq!(first.len(), 1);
        let (second, _) = reader.runs().expect("re-read");
        assert_eq!(second.len(), 2);
        assert_eq!(second[1].scenario, "two");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_differences_name_the_fields() {
        let a = EnvFingerprint::capture(1);
        let mut b = a.clone();
        b.threads = 4;
        b.vars.insert("TPA_FOO".into(), "1".into());
        let diffs = a.differences(&b);
        assert!(
            diffs.iter().any(|d| d.starts_with("threads: 1 -> 4")),
            "{diffs:?}"
        );
        assert!(diffs.iter().any(|d| d.contains("TPA_FOO")), "{diffs:?}");
        assert!(a.differences(&a).is_empty());
    }
}
