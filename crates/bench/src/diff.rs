//! The perf-regression observatory: compares a freshly generated
//! `BENCH_*.json` against a committed baseline, metric by metric.
//!
//! Both documents are flattened to dotted numeric paths
//! (`points.1.mesh.seconds`, `win_rates.0.win_rate`, …); each shared
//! path is judged by a direction heuristic — throughputs and quality
//! scores should not drop, latencies and loss counts should not rise,
//! deterministic work counts should not move at all — against a relative
//! tolerance band. Paths that moved the *good* way or stayed inside the
//! band pass; informational paths (seeds, sizes, configuration echoes)
//! never fail. The `benchdiff` binary renders the delta table and exits
//! non-zero on any regression, which is what makes the CI bench steps a
//! gate instead of an archive.

use std::fmt::Write as _;
use tsmo_obs::json::{self, Json};

/// Which way a metric is allowed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// A drop beyond tolerance is a regression (throughput, quality).
    HigherIsBetter,
    /// A rise beyond tolerance is a regression (latency, losses).
    LowerIsBetter,
    /// A move beyond tolerance either way is a regression: work counts
    /// that a fixed seed and budget pin exactly, where any change means
    /// the search did different work.
    Exact,
    /// Tracked and printed, never a failure (configuration echoes,
    /// seeds, identifiers).
    Informational,
}

/// Classifies a flattened path by its last segment. The heuristic is
/// deliberately name-based: bench writers pick conventional suffixes
/// (`*_per_s`, `*_ms`, `*_seconds`) and the observatory follows them.
/// The exact-count names are matched whole, so a timing such as
/// `materialize_ns_per_neighbor` is not mistaken for a count.
pub fn direction_of(path: &str) -> Direction {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    const EXACT: [&str; 7] = [
        "draws_per_neighbor",
        "draw_fail_ratio",
        "sites_resimulated_per_neighbor",
        "materialized_sites_per_neighbor",
        "allocs_per_neighbor",
        "iterations",
        "restarts",
    ];
    const HIGHER: [&str; 7] = [
        "per_sec",
        "throughput",
        "hypervolume",
        "coverage",
        "win",
        "front",
        "correct",
    ];
    const LOWER: [&str; 10] = [
        "seconds", "_ms", "_ns", "latency", "p50", "p95", "p99", "dropped", "lost", "failed",
    ];
    if EXACT.contains(&leaf) {
        return Direction::Exact;
    }
    if leaf.ends_with("_per_s") || HIGHER.iter().any(|m| leaf.contains(m)) {
        return Direction::HigherIsBetter;
    }
    if leaf.ends_with("_mb") || LOWER.iter().any(|m| leaf.contains(m)) {
        return Direction::LowerIsBetter;
    }
    Direction::Informational
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct DiffEntry {
    /// Dotted path into both documents.
    pub path: String,
    /// The committed value.
    pub baseline: f64,
    /// The freshly measured value.
    pub fresh: f64,
    /// Relative change in percent, signed (`fresh` vs `baseline`).
    pub delta_pct: f64,
    /// How the path is judged.
    pub direction: Direction,
    /// The tolerance band (percent) the entry was judged against.
    pub tolerance_pct: f64,
    /// Whether the move is a regression.
    pub regressed: bool,
}

/// The observatory's verdict over one baseline/fresh pair.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Every shared numeric path, in path order.
    pub entries: Vec<DiffEntry>,
    /// Paths the baseline has but the fresh run lost — always a failure:
    /// a silently vanished metric is how regressions hide.
    pub missing_in_fresh: Vec<String>,
    /// Paths only the fresh run has (new metrics; informational).
    pub new_in_fresh: Vec<String>,
}

impl DiffReport {
    /// True when any entry regressed or any baseline metric vanished.
    pub fn regressed(&self) -> bool {
        !self.missing_in_fresh.is_empty() || self.entries.iter().any(|e| e.regressed)
    }

    /// The human-readable delta table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let width = self
            .entries
            .iter()
            .map(|e| e.path.len())
            .max()
            .unwrap_or(4)
            .max(4);
        let _ = writeln!(
            out,
            "{:width$}  {:>14}  {:>14}  {:>9}  {:>6}  verdict",
            "path", "baseline", "fresh", "delta", "band"
        );
        for e in &self.entries {
            let verdict = if e.regressed {
                "REGRESSED"
            } else {
                match e.direction {
                    Direction::Informational => "info",
                    _ => "ok",
                }
            };
            let _ = writeln!(
                out,
                "{:width$}  {:>14.4}  {:>14.4}  {:>+8.2}%  {:>5.0}%  {verdict}",
                e.path, e.baseline, e.fresh, e.delta_pct, e.tolerance_pct
            );
        }
        for path in &self.missing_in_fresh {
            let _ = writeln!(out, "{path:width$}  MISSING from the fresh run: REGRESSED");
        }
        for path in &self.new_in_fresh {
            let _ = writeln!(out, "{path:width$}  new in the fresh run (no baseline)");
        }
        out
    }
}

/// Per-metric tolerance bands: the default plus `(substring, percent)`
/// overrides, last match wins. CI widens timing-dominated paths
/// (`seconds=80`) without loosening deterministic ones.
#[derive(Debug, Clone)]
pub struct Tolerances {
    /// Band applied when no override matches (percent).
    pub default_pct: f64,
    /// `(path substring, band percent)` overrides.
    pub overrides: Vec<(String, f64)>,
    /// Path substrings forced to [`Direction::Informational`] — for
    /// metrics that are quality-tracked but machine-noisy.
    pub informational: Vec<String>,
}

impl Default for Tolerances {
    fn default() -> Self {
        Self {
            default_pct: 10.0,
            overrides: Vec::new(),
            informational: Vec::new(),
        }
    }
}

impl Tolerances {
    fn band_for(&self, path: &str) -> f64 {
        self.overrides
            .iter()
            .rev()
            .find(|(sub, _)| path.contains(sub.as_str()))
            .map(|(_, pct)| *pct)
            .unwrap_or(self.default_pct)
    }

    fn is_informational(&self, path: &str) -> bool {
        self.informational.iter().any(|sub| path.contains(sub))
    }
}

/// Flattens every numeric leaf of `doc` to `(dotted.path, value)`.
/// Booleans count as 0/1 so flags like `merged_non_dominated` are
/// guarded too; strings and nulls are skipped.
pub fn flatten(doc: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    walk(doc, String::new(), &mut out);
    out
}

fn walk(node: &Json, path: String, out: &mut Vec<(String, f64)>) {
    match node {
        Json::Number(x) => out.push((path, *x)),
        Json::Bool(b) => out.push((path, if *b { 1.0 } else { 0.0 })),
        Json::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                walk(item, join(&path, &i.to_string()), out);
            }
        }
        Json::Object(map) => {
            for (k, v) in map {
                walk(v, join(&path, k), out);
            }
        }
        Json::Null | Json::String(_) => {}
    }
}

fn join(prefix: &str, key: &str) -> String {
    if prefix.is_empty() {
        key.to_string()
    } else {
        format!("{prefix}.{key}")
    }
}

/// Compares two parsed bench documents under the given tolerances.
pub fn diff(baseline: &Json, fresh: &Json, tolerances: &Tolerances) -> DiffReport {
    let base = flatten(baseline);
    let new = flatten(fresh);
    let fresh_map: std::collections::BTreeMap<&str, f64> =
        new.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let base_keys: std::collections::BTreeSet<&str> =
        base.iter().map(|(k, _)| k.as_str()).collect();

    let mut report = DiffReport::default();
    for (path, baseline_value) in &base {
        let Some(&fresh_value) = fresh_map.get(path.as_str()) else {
            report.missing_in_fresh.push(path.clone());
            continue;
        };
        let direction = if tolerances.is_informational(path) {
            Direction::Informational
        } else {
            direction_of(path)
        };
        let tolerance_pct = tolerances.band_for(path);
        let delta_pct = if *baseline_value != 0.0 {
            100.0 * (fresh_value - baseline_value) / baseline_value.abs()
        } else if fresh_value == 0.0 {
            0.0
        } else {
            100.0 * fresh_value.signum()
        };
        let regressed = match direction {
            Direction::Informational => false,
            Direction::HigherIsBetter => delta_pct < -tolerance_pct,
            Direction::LowerIsBetter => delta_pct > tolerance_pct,
            Direction::Exact => delta_pct.abs() > tolerance_pct,
        };
        report.entries.push(DiffEntry {
            path: path.clone(),
            baseline: *baseline_value,
            fresh: fresh_value,
            delta_pct,
            direction,
            tolerance_pct,
            regressed,
        });
    }
    for (path, _) in &new {
        if !base_keys.contains(path.as_str()) {
            report.new_in_fresh.push(path.clone());
        }
    }
    report
}

/// Parses one bench file's text and diffs it against the baseline text.
pub fn diff_texts(
    baseline_text: &str,
    fresh_text: &str,
    tolerances: &Tolerances,
) -> Result<DiffReport, String> {
    let baseline = json::parse(baseline_text).map_err(|e| format!("baseline: {e}"))?;
    let fresh = json::parse(fresh_text).map_err(|e| format!("fresh: {e}"))?;
    Ok(diff(&baseline, &fresh, tolerances))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{"evals_per_sec": 1000000.0, "seconds": 2.0,
        "seed": 1, "points": [{"hypervolume": 500.0}, {"hypervolume": 600.0}]}"#;

    #[test]
    fn identical_documents_pass() {
        let report = diff_texts(BASELINE, BASELINE, &Tolerances::default()).unwrap();
        assert!(!report.regressed(), "{}", report.render());
        assert!(report.missing_in_fresh.is_empty());
        assert!(report.new_in_fresh.is_empty());
    }

    #[test]
    fn a_throughput_drop_beyond_the_band_fails() {
        // 20% below baseline with a 10% band: regression.
        let fresh = BASELINE.replace("1000000.0", "800000.0");
        let report = diff_texts(BASELINE, &fresh, &Tolerances::default()).unwrap();
        assert!(report.regressed());
        let entry = report
            .entries
            .iter()
            .find(|e| e.path == "evals_per_sec")
            .unwrap();
        assert!(entry.regressed);
        assert_eq!(entry.direction, Direction::HigherIsBetter);
        assert!(report.render().contains("REGRESSED"));
    }

    #[test]
    fn a_throughput_gain_and_in_band_noise_pass() {
        // Faster, and quality wiggling inside the band: both fine.
        let fresh = BASELINE
            .replace("1000000.0", "1200000.0")
            .replace("500.0", "480.0");
        let report = diff_texts(BASELINE, &fresh, &Tolerances::default()).unwrap();
        assert!(!report.regressed(), "{}", report.render());
    }

    #[test]
    fn a_latency_rise_beyond_the_band_fails() {
        let fresh = BASELINE.replace("2.0", "3.0");
        let report = diff_texts(BASELINE, &fresh, &Tolerances::default()).unwrap();
        let entry = report.entries.iter().find(|e| e.path == "seconds").unwrap();
        assert_eq!(entry.direction, Direction::LowerIsBetter);
        assert!(entry.regressed);
    }

    #[test]
    fn overrides_widen_and_informational_silences() {
        let fresh = BASELINE.replace("2.0", "3.0").replace("600.0", "100.0");
        // A 100% band on seconds absorbs the rise; hypervolume is
        // forced informational, so its collapse is reported, not fatal.
        let tol = Tolerances {
            default_pct: 10.0,
            overrides: vec![("seconds".to_string(), 100.0)],
            informational: vec!["hypervolume".to_string()],
        };
        let report = diff_texts(BASELINE, &fresh, &tol).unwrap();
        assert!(!report.regressed(), "{}", report.render());
    }

    #[test]
    fn a_vanished_metric_fails() {
        let fresh = r#"{"evals_per_sec": 1000000.0, "seconds": 2.0, "seed": 1}"#;
        let report = diff_texts(BASELINE, fresh, &Tolerances::default()).unwrap();
        assert!(report.regressed());
        assert_eq!(report.missing_in_fresh.len(), 2);
        assert!(report.render().contains("MISSING"));
    }

    #[test]
    fn configuration_echoes_never_fail() {
        let fresh = BASELINE.replace("\"seed\": 1", "\"seed\": 9");
        let report = diff_texts(BASELINE, &fresh, &Tolerances::default()).unwrap();
        let entry = report.entries.iter().find(|e| e.path == "seed").unwrap();
        assert_eq!(entry.direction, Direction::Informational);
        assert!(!report.regressed());
    }

    /// One workload of a traced tsmobench run, as the CI gate sees it.
    const TRACED: &str = r#"{"benchmark": "tsmobench", "seed": 1, "seconds": 0.001,
        "trace": 1, "workloads": {"serve-small": {"correct": true, "attempted": 7,
        "failed": 0, "metrics": {
            "core.allocs_per_neighbor": 271.3591925258592,
            "core.iterations": 20,
            "core.materialize_ns_per_neighbor": 945.826159492826,
            "core.materialized_sites_per_neighbor": 100,
            "core.restarts": 0,
            "operators.draw_fail_ratio": 0.9364934734700797,
            "operators.draws_per_neighbor": 15.746413079746413,
            "server.cache_hit_ratio": 0.14285714285714285,
            "server.submit_ms_p50": 1.5,
            "trace.overhead_pct": 12.5,
            "vrptw.sites_resimulated_per_neighbor": 16.49632966299633}}}}"#;

    /// The bands of the CI step that gates the traced run.
    fn ci_bands() -> Tolerances {
        Tolerances {
            default_pct: 2.0,
            overrides: vec![("_ms".to_string(), 900.0), ("_ns".to_string(), 900.0)],
            informational: Vec::new(),
        }
    }

    /// The traced document with one leaf of `serve-small` replaced.
    fn traced_with(key: &str, edit: impl Fn(&Json) -> Json) -> Json {
        let mut doc = json::parse(TRACED).unwrap();
        let mut node = &mut doc;
        let parts: Vec<&str> = match key.split_once('/') {
            Some((outer, metric)) => vec!["workloads", "serve-small", outer, metric],
            None => vec!["workloads", "serve-small", key],
        };
        for part in parts {
            node = match node {
                Json::Object(map) => map.get_mut(part).expect("key exists"),
                _ => panic!("{part}: not an object"),
            };
        }
        *node = edit(node);
        doc
    }

    fn scaled(key: &str, factor: f64) -> Json {
        traced_with(key, |v| Json::Number(v.as_f64().unwrap() * factor))
    }

    fn judged(fresh: &Json) -> DiffReport {
        diff(&json::parse(TRACED).unwrap(), fresh, &ci_bands())
    }

    #[test]
    fn exact_counts_fail_a_move_either_way_beyond_the_band() {
        let key = "metrics/operators.draws_per_neighbor";
        for factor in [1.03, 0.97] {
            let report = judged(&scaled(key, factor));
            assert!(report.regressed(), "x{factor}: {}", report.render());
            let entry = report
                .entries
                .iter()
                .find(|e| e.path.ends_with("draws_per_neighbor"))
                .unwrap();
            assert_eq!(entry.direction, Direction::Exact);
        }
        for factor in [1.01, 0.99] {
            let report = judged(&scaled(key, factor));
            assert!(!report.regressed(), "x{factor}: {}", report.render());
        }
    }

    #[test]
    fn per_layer_timings_keep_a_ten_fold_band() {
        // Per-neighbor timings are not the exact per-neighbor counts.
        for timing in [
            "core.materialize_ns_per_neighbor",
            "core.neighbor_arcs_ns_per_neighbor",
        ] {
            assert_eq!(direction_of(timing), Direction::LowerIsBetter, "{timing}");
        }
        let key = "metrics/core.materialize_ns_per_neighbor";
        let report = judged(&scaled(key, 3.0));
        assert!(!report.regressed(), "{}", report.render());
        let report = judged(&scaled(key, 11.0));
        assert!(report.regressed(), "{}", report.render());
        let report = judged(&scaled("metrics/server.submit_ms_p50", 3.0));
        assert!(!report.regressed(), "{}", report.render());
    }

    #[test]
    fn a_wrong_front_or_a_failed_operation_fails() {
        let wrong = traced_with("correct", |_| Json::Bool(false));
        let report = judged(&wrong);
        assert!(report.regressed(), "{}", report.render());
        let failed = traced_with("failed", |_| Json::Number(1.0));
        let report = judged(&failed);
        assert!(report.regressed(), "{}", report.render());
    }

    #[test]
    fn load_dependent_leaves_stay_informational() {
        // How many jobs fit in the window, and how many of them hit the
        // cache, depend on the host's load, not on the search.
        for (key, value) in [
            ("attempted", 8.0),
            ("metrics/server.cache_hit_ratio", 0.25),
            ("metrics/trace.overhead_pct", 80.0),
        ] {
            let report = judged(&traced_with(key, |_| Json::Number(value)));
            assert!(!report.regressed(), "{key}: {}", report.render());
        }
    }

    #[test]
    fn headline_leaves_are_judged_by_their_suffix() {
        assert_eq!(
            direction_of("workloads.serve-small.metrics.evals_per_s"),
            Direction::HigherIsBetter
        );
        assert_eq!(
            direction_of("workloads.serve-small.metrics.peak_rss_mb"),
            Direction::LowerIsBetter
        );
        // `_per_s` only as a suffix: a per-searcher total is not a rate.
        assert_eq!(
            direction_of("points.0.mesh.per_searcher_evaluations"),
            Direction::Informational
        );
    }

    #[test]
    fn real_bench_shapes_flatten_to_dotted_paths() {
        let doc = json::parse(BASELINE).unwrap();
        let flat = flatten(&doc);
        let paths: Vec<&str> = flat.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            paths,
            [
                "evals_per_sec",
                "points.0.hypervolume",
                "points.1.hypervolume",
                "seconds",
                "seed"
            ]
        );
    }
}
