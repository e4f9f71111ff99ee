//! Metric values, the result line, and the order statistics behind them.

use std::collections::BTreeMap;

use tpa_obs::json::Json;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one workload run reports.
#[derive(Default)]
pub struct Outcome {
    /// Checks run.
    pub attempted: u64,
    /// Checks whose output differed from its pin (or that could not run).
    pub failed: u64,
    /// Passes the metrics are medians over.
    pub samples: usize,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Counts one failed check and says why on stderr.
    pub fn fail(&mut self, why: &str) {
        self.failed += 1;
        eprintln!("FAILED {why}");
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "{} is not finite", m.name);
                let mut v = BTreeMap::new();
                v.insert("value".to_owned(), Json::Num(m.value));
                v.insert("unit".to_owned(), Json::Str(m.unit.to_owned()));
                (m.name.clone(), Json::Obj(v))
            })
            .collect();
        let mut doc = BTreeMap::new();
        doc.insert("correct".to_owned(), Json::Bool(self.correct()));
        doc.insert("attempted".to_owned(), Json::Num(self.attempted as f64));
        doc.insert("failed".to_owned(), Json::Num(self.failed as f64));
        doc.insert("metrics".to_owned(), Json::Obj(metrics));
        Json::Obj(doc)
    }
}

/// A value for a human: six decimals, or six significant digits when
/// it is small.
pub fn show(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.5e}")
    } else {
        format!("{v:.6}")
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default, exclusive method).
pub fn quartiles(values: &mut [f64]) -> (f64, f64) {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n < 2 {
        return (values[0], values[0]);
    }
    let q = |i: i64| {
        let m = i * (n as i64 + 1);
        let j = (m / 4).clamp(1, n as i64 - 1);
        let delta = m - j * 4;
        (values[j as usize - 1] * (4 - delta) as f64 + values[j as usize] * delta as f64) / 4.0
    };
    (q(1), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&mut [3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
