//! Table/JSON output helpers shared by the experiment binaries.
//!
//! JSON export goes through the local [`ToJson`] trait rather than serde:
//! the build environment is offline, the row structs are flat, and a
//! hand-rolled emitter keeps the dependency surface at zero.

use std::fs;
use std::io::Write as _;

/// Prints an aligned text table: `headers` then `rows` of equal arity.
///
/// # Panics
///
/// Panics if a row's arity differs from the header's.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), headers.len(), "ragged table row");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!("{:>width$}  ", cell, width = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// A value that can render itself as a JSON document fragment.
pub trait ToJson {
    /// Renders the value as JSON (no trailing newline).
    fn to_json(&self) -> String;
}

/// Escapes a string per RFC 8259.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders an object from `(key, rendered-value)` pairs, one field per
/// line — the shape `serde_json::to_string_pretty` produced for the flat
/// row structs.
pub fn json_object(fields: &[(&str, String)]) -> String {
    let body = fields
        .iter()
        .map(|(k, v)| format!("  {}: {}", json_string(k), v.replace('\n', "\n  ")))
        .collect::<Vec<_>>()
        .join(",\n");
    format!("{{\n{body}\n}}")
}

impl ToJson for bool {
    fn to_json(&self) -> String {
        self.to_string()
    }
}

impl ToJson for String {
    fn to_json(&self) -> String {
        json_string(self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> String {
        json_string(self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> String {
        if self.is_finite() {
            self.to_string()
        } else {
            // JSON has no NaN/inf; null is what serde_json emits for the
            // lossy formatters and is good enough for report rows.
            "null".to_owned()
        }
    }
}

macro_rules! int_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> String {
                self.to_string()
            }
        }
    )*};
}

int_to_json!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> String {
        let body = self
            .iter()
            .map(|x| {
                let rendered = x.to_json().replace('\n', "\n  ");
                format!("  {rendered}")
            })
            .collect::<Vec<_>>()
            .join(",\n");
        if body.is_empty() {
            "[]".to_owned()
        } else {
            format!("[\n{body}\n]")
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> String {
        self.as_slice().to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> String {
        match self {
            Some(x) => x.to_json(),
            None => "null".to_owned(),
        }
    }
}

impl ToJson for tpa_tso::ProcId {
    fn to_json(&self) -> String {
        self.0.to_string()
    }
}

impl ToJson for tpa_check::WorkerStats {
    fn to_json(&self) -> String {
        json_object(&[
            ("worker", self.worker.to_json()),
            ("nodes_expanded", self.nodes_expanded.to_json()),
            ("transitions", self.transitions.to_json()),
            ("cache_hits", self.cache_hits.to_json()),
            ("cache_misses", self.cache_misses.to_json()),
            ("sleep_prunes", self.sleep_prunes.to_json()),
            ("donated", self.donated.to_json()),
            ("steals", self.steals.to_json()),
            ("max_frontier", self.max_frontier.to_json()),
            ("truncated_paths", self.truncated_paths.to_json()),
            ("max_depth", self.max_depth.to_json()),
            ("cache_subsumed", self.cache_subsumed.to_json()),
            ("sym_renamed", self.sym_renamed.to_json()),
        ])
    }
}

impl ToJson for tpa_adversary::RoundTrace {
    fn to_json(&self) -> String {
        json_object(&[
            ("round", self.round.to_json()),
            ("read_iters", self.read_iters.to_json()),
            ("write_iters", self.write_iters.to_json()),
            ("reg_criticals", self.reg_criticals.to_json()),
            ("act_start", self.act_start.to_json()),
            ("act_end", self.act_end.to_json()),
            ("criticals_per_active", self.criticals_per_active.to_json()),
            ("finisher", self.finisher.to_json()),
        ])
    }
}

/// Writes `rows` as pretty JSON to the path named by the `TPA_JSON`
/// environment variable, if set. Errors are reported to stderr but never
/// fatal (the table on stdout is the primary artifact).
pub fn maybe_write_json<T: ToJson + ?Sized>(experiment: &str, rows: &T) {
    let Ok(path) = std::env::var("TPA_JSON") else {
        return;
    };
    let payload = rows.to_json();
    match fs::File::create(&path).and_then(|mut f| f.write_all(payload.as_bytes())) {
        Ok(()) => eprintln!("[{experiment}] rows written to {path}"),
        Err(e) => eprintln!("[{experiment}] cannot write {path}: {e}"),
    }
}

/// Writes `payload` to `path` unconditionally — for benchmark artifacts
/// that are committed alongside the docs (e.g. `BENCH_check.json`).
/// Errors are reported to stderr but never fatal.
pub fn write_json_file(experiment: &str, path: &str, payload: &str) {
    match fs::File::create(path).and_then(|mut f| f.write_all(payload.as_bytes())) {
        Ok(()) => eprintln!("[{experiment}] benchmark record written to {path}"),
        Err(e) => eprintln!("[{experiment}] cannot write {path}: {e}"),
    }
}

/// Formats a float compactly for table cells.
pub fn fmt_f64(x: f64) -> String {
    if x == 0.0 {
        "0".to_owned()
    } else if x.abs() >= 1e6 || x.abs() < 1e-3 {
        format!("{x:.3e}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_f64_ranges() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(1.5), "1.500");
        assert_eq!(fmt_f64(2.0e9), "2.000e9");
    }

    #[test]
    fn table_prints_without_panic() {
        print_table(
            "demo",
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        print_table("demo", &["a"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(json_string("plain"), "\"plain\"");
    }

    #[test]
    fn json_object_and_array_shape() {
        let obj = json_object(&[("x", 1u64.to_json()), ("s", "hi".to_json())]);
        assert_eq!(obj, "{\n  \"x\": 1,\n  \"s\": \"hi\"\n}");
        let arr = vec![1u64, 2].to_json();
        assert_eq!(arr, "[\n  1,\n  2\n]");
        assert_eq!(Vec::<u64>::new().to_json(), "[]");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(f64::NAN.to_json(), "null");
        assert_eq!(f64::INFINITY.to_json(), "null");
        assert_eq!(2.5f64.to_json(), "2.5");
    }
}
