//! `perf`: the checker benchmark — end-to-end metrics for five
//! workloads, and a replay-traced breakdown by layer. See README.md.

#![forbid(unsafe_code)]

mod replay;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use tpa_obs::json::{self, Json};

use crate::stats::{median, quartiles, Metric, Outcome};
use crate::workload::Workload;

const USAGE: &str = "usage:
  perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
      run one workload for S seconds (default 15); the last line of
      stdout is its result as JSON
  perf run [--seed N] [--seconds S] [--repeat K] [--out FILE]
      every workload, each in its own process, K times with seeds N.. N+K-1
  perf trace [--seed N] [--seconds S] [--out FILE]
      every workload's per-layer breakdown
  perf check
      replay self-check on the n = 2 portfolio, and a JSON round trip
  perf pin
      print the pinned outputs (expected.json) from seed 1
workloads: portfolio symmetric swarm corpus parallel";

struct Opts {
    command: Option<String>,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        command: None,
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        repeat: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value()?;
                o.workload = Some(Workload::parse(v).ok_or_else(|| format!("no workload {v}"))?);
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds.is_finite() && o.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--repeat" => {
                o.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if o.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            cmd if o.command.is_none() && ["run", "trace", "check", "pin"].contains(&cmd) => {
                o.command = Some(cmd.to_owned());
            }
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args).and_then(|o| match (o.command.as_deref(), o.workload) {
        (None, Some(w)) => one(w, &o),
        (Some("run"), None) => all(&o, false),
        (Some("trace"), None) => all(&o, true),
        (Some("check"), None) => check(),
        (Some("pin"), None) => workload::pins().map(|doc| {
            println!("{doc}");
            true
        }),
        _ => Err("give one command, or --workload".into()),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload in this process: a summary on stderr, the result
/// line on stdout.
fn one(w: Workload, o: &Opts) -> Result<bool, String> {
    let out = if o.trace {
        trace::layers(w, o.seed, o.seconds)?
    } else {
        workload::measure(w, o.seed, o.seconds)?
    };
    eprintln!(
        "{}: {} checks, {} failed, {} passes (samples), seed {}",
        w.name(),
        out.attempted,
        out.failed,
        out.samples,
        o.seed
    );
    for m in &out.metrics {
        eprintln!("  {:<40} {:>16} {}", m.name, stats::show(m.value), m.unit);
    }
    println!("{}", out.to_json().render());
    Ok(out.correct())
}

/// Runs every workload `repeat` times, each run in its own process, and
/// prints each metric's median and interquartile range over the runs.
fn all(o: &Opts, trace: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut ok = true;
    let mut summary = BTreeMap::new();
    for w in Workload::ALL {
        let mut runs = Vec::new();
        for r in 0..o.repeat as u64 {
            let seed = o.seed + r;
            let output = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            ok &= output.status.success();
            let stdout = String::from_utf8_lossy(&output.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            let doc = json::parse(line)
                .map_err(|e| format!("{} printed no result line: {e}", w.name()))?;
            ok &= doc.get("correct").and_then(Json::as_bool) == Some(true);
            runs.push(doc);
        }
        summary.insert(w.name().to_owned(), summarise(&runs));
    }
    let mut doc = BTreeMap::new();
    doc.insert("seed".to_owned(), Json::Num(o.seed as f64));
    doc.insert("seconds".to_owned(), Json::Num(o.seconds));
    doc.insert("repeat".to_owned(), Json::Num(o.repeat as f64));
    doc.insert("workloads".to_owned(), Json::Obj(summary));
    let doc = Json::Obj(doc);
    print_summary(&doc);
    if let Some(path) = &o.out {
        std::fs::write(path, doc.render() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(ok)
}

/// One workload's runs: summed counts, and per metric its unit, values,
/// median, quartiles and interquartile range relative to the median.
fn summarise(runs: &[Json]) -> Json {
    let sum = |key: &str| Json::Num(runs.iter().filter_map(|r| r.get(key)?.as_num()).sum());
    let mut metrics: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    for run in runs {
        for (name, m) in run
            .get("metrics")
            .and_then(Json::as_obj)
            .into_iter()
            .flatten()
        {
            let (Some(unit), Some(value)) = (
                m.get("unit").and_then(Json::as_str),
                m.get("value").and_then(Json::as_num),
            ) else {
                continue;
            };
            let entry = metrics
                .entry(name.clone())
                .or_insert_with(|| (unit.to_owned(), Vec::new()));
            entry.1.push(value);
        }
    }
    let metrics = metrics
        .into_iter()
        .map(|(name, (unit, values))| {
            let med = median(&mut values.clone());
            let (q1, q3) = quartiles(&mut values.clone());
            let mut m = BTreeMap::new();
            m.insert("unit".to_owned(), Json::Str(unit));
            m.insert("median".to_owned(), Json::Num(med));
            m.insert("q1".to_owned(), Json::Num(q1));
            m.insert("q3".to_owned(), Json::Num(q3));
            m.insert(
                "iqr_frac".to_owned(),
                Json::Num(stats::ratio(q3 - q1, med.abs())),
            );
            m.insert(
                "values".to_owned(),
                Json::Arr(values.into_iter().map(Json::Num).collect()),
            );
            (name, Json::Obj(m))
        })
        .collect();
    let mut doc = BTreeMap::new();
    doc.insert("attempted".to_owned(), sum("attempted"));
    doc.insert("failed".to_owned(), sum("failed"));
    doc.insert("runs".to_owned(), Json::Num(runs.len() as f64));
    doc.insert("metrics".to_owned(), Json::Obj(metrics));
    Json::Obj(doc)
}

fn print_summary(doc: &Json) {
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_obj)
        .into_iter()
        .flatten();
    println!(
        "{:<10} {:<40} {:>16} {:>9} {:<6} {:>4}",
        "workload", "metric", "median", "IQR/med", "unit", "runs"
    );
    for (w, s) in workloads {
        let num = |j: Option<&Json>| j.and_then(Json::as_num).unwrap_or(f64::NAN);
        let runs = num(s.get("runs"));
        for (name, m) in s
            .get("metrics")
            .and_then(Json::as_obj)
            .into_iter()
            .flatten()
        {
            println!(
                "{w:<10} {name:<40} {:>16} {:>8.2}% {:<6} {runs:>4}",
                stats::show(num(m.get("median"))),
                100.0 * num(m.get("iqr_frac")),
                m.get("unit").and_then(Json::as_str).unwrap_or_default(),
            );
        }
        println!(
            "{w:<10} {:<40} {:>16}",
            "failed / attempted",
            format!("{} / {}", num(s.get("failed")), num(s.get("attempted")))
        );
    }
}

/// The replay self-check, and a round trip of a result line through
/// `tpa_obs::json` that must keep every digit.
fn check() -> Result<bool, String> {
    let replays = trace::self_check()?;
    eprintln!(
        "replay: {} checks reproduced, {} differed",
        replays.attempted - replays.failed,
        replays.failed
    );
    let line = Outcome {
        attempted: 3,
        failed: 0,
        samples: 1,
        metrics: vec![
            Metric::new("wall_s", 0.1 + 0.2, "s"),
            Metric::new("states_per_s", 123_456.789_012_345_6, "1/s"),
            Metric::new("setup_s", 1.0e-7 / 3.0, "s"),
        ],
    };
    let rendered = line.to_json().render();
    let back = json::parse(&rendered)?;
    let round_trip = back == line.to_json() && back.render() == rendered;
    eprintln!(
        "json: result line {}",
        if round_trip {
            "round-trips"
        } else {
            "CHANGED in a round trip"
        }
    );
    Ok(replays.correct() && round_trip)
}
