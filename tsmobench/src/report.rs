//! Metric records, percentiles, and the two output forms: one
//! `name value unit` line per metric, then the one-line JSON result.

use crate::verify::Tally;
use std::fmt::Write as _;
use tsmo_obs::json::{self, Json};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// Shorthand constructor.
pub fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    }
}

/// Everything one workload run reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Whether every output checked was right (no verification failure
    /// and, in a traced run, the driven archive equalled the library's).
    pub correct: bool,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Context lines printed before the metrics (sample counts and the
    /// like).
    pub notes: Vec<String>,
}

impl Report {
    /// The final result line the benchmark contract asks for.
    pub fn result_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.tally.attempted, self.tally.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::write_str(&mut out, &m.name);
            out.push_str(": {\"value\": ");
            json::write_f64(&mut out, m.value);
            out.push_str(", \"unit\": ");
            json::write_str(&mut out, &m.unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// Reads a result line back (metrics in name order; notes and failure
    /// messages are not part of it).
    pub fn parse(line: &str) -> Result<Report, String> {
        let doc = json::parse(line).map_err(|e| format!("bad result line: {e}"))?;
        let field = |k: &str| doc.get(k).ok_or(format!("result line lacks {k}"));
        let Json::Object(metrics) = field("metrics")? else {
            return Err("result metrics are not an object".to_string());
        };
        Ok(Report {
            tally: Tally {
                attempted: field("attempted")?.as_u64().unwrap_or(0),
                failed: field("failed")?.as_u64().unwrap_or(0),
                ..Tally::default()
            },
            correct: field("correct")?.as_bool().unwrap_or(false),
            metrics: metrics
                .iter()
                .map(|(name, m)| Metric {
                    name: name.clone(),
                    value: m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                    unit: m
                        .get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                })
                .collect(),
            notes: Vec::new(),
        })
    }

    /// Prints the notes, one `name value unit` line per metric, and the
    /// result line last.
    pub fn print(&self) {
        for note in &self.notes {
            println!("# {note}");
        }
        for message in &self.tally.messages {
            println!("# failure: {message}");
        }
        for m in &self.metrics {
            println!("{} {} {}", m.name, m.value, m.unit);
        }
        println!("{}", self.result_json());
    }
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Mean of the slowest tenth (at least one) of an ascending slice (0 when
/// empty).
pub fn tail_mean(sorted: &[f64]) -> f64 {
    let k = sorted.len().div_ceil(10);
    ratio(sorted[sorted.len() - k..].iter().sum(), k as f64)
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 when
/// `/proc/self/status` is unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
