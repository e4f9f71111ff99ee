//! Table and JSON output helpers shared by the experiment binaries.
//!
//! Row dumps are [`tpa_obs::json::Json`] values, the representation the
//! run ledger, metrics snapshots and run logs already use: each row type
//! has a `json` method, and [`maybe_write_json`] renders the rows as one
//! compact array with sorted keys.

use tpa_obs::json::Json;

/// `println!` for the crate's binaries, whose stdout reader may leave
/// early (`exp_t6_frontier | head -1`, `obs_validate F | head -1`): a
/// failed write is dropped instead of panicking, so the command still
/// finishes its work (every table, `TPA_JSON` dump, metrics snapshot and
/// validated file) and exits with the status an open stdout would give.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

/// Prints an aligned text table: `headers` then `rows` of equal arity.
///
/// # Panics
///
/// Panics if a row's arity differs from the header's.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    crate::out!("\n== {title} ==");
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
        crate::out!("{}", out.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// A JSON object of `fields`.
pub fn object<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// `x` as a JSON number, or `null` when it is NaN or infinite: JSON has
/// no such numbers.
pub fn num(x: f64) -> Json {
    if x.is_finite() {
        Json::Num(x)
    } else {
        Json::Null
    }
}

/// Writes `rows`, each rendered by `json`, as one JSON array to the path
/// named by the `TPA_JSON` environment variable, if set. Errors are
/// reported to stderr but never fatal (the table on stdout is the
/// primary artifact).
pub fn maybe_write_json<T>(experiment: &str, rows: &[T], json: impl Fn(&T) -> Json) {
    let Ok(path) = std::env::var("TPA_JSON") else {
        return;
    };
    let doc = Json::Arr(rows.iter().map(json).collect()).render();
    match std::fs::write(&path, doc + "\n") {
        Ok(()) => eprintln!("[{experiment}] rows written to {path}"),
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
    fn rows_render_compact_with_sorted_keys() {
        let row = object([("x", num(1.0)), ("s", Json::Str("hi".into()))]);
        assert_eq!(row.render(), r#"{"s":"hi","x":1}"#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(num(f64::NAN).render(), "null");
        assert_eq!(num(f64::INFINITY).render(), "null");
        assert_eq!(num(2.5).render(), "2.5");
    }
}
