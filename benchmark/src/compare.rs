//! `compare PARENT_DIR CHANGE_DIR`: judges a change against its parent
//! from two directories of untraced result files.
//!
//! Runs pair up by workload and seed, in start order, so running the
//! two commits alternately on the same seeds gives alternating pairs.
//! The two runs of a pair share their inputs, so every row is judged on
//! the paired ratios: change ÷ parent for a lower-is-better metric,
//! parent ÷ change for a higher-is-better one. A ratio above 1 is a
//! worsening, and the variation the seeds cause on both sides cancels.
//!
//! There is a row for every end-to-end metric, for every per-strategy
//! breakdown line the catalog judges (so that a regression in one
//! strategy is not averaged away), and a `failed_share` row. A timing
//! row gets one verdict:
//!
//! * **improved**: the change wins at least 9 of every 10 pairs (ties
//!   count for neither side), and the median ratio is below 1 by more
//!   than the interquartile range of the ratios;
//! * **worse**: the median ratio exceeds 1 by more than the bound;
//! * **unresolved**: neither, and the ratios' interquartile range
//!   exceeds the bound, unless every change run beats every parent run;
//! * **no-change**: otherwise.
//!
//! A value that is exact per seed, such as a simulated outcome, has no
//! noise to allow for: its row is **worse** when any pair is worse,
//! **improved** when at least 9 of every 10 pairs are better, and
//! **no-change** otherwise. `failed_share` (items lost ÷ items offered,
//! 1 for a run that failed its checks) is judged this way too. Any
//! **worse** row makes the command exit non-zero.

use crate::catalog::{judged, Better, END_TO_END};
use crate::stats::{median, quartiles};
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;

/// Fewest pairs per workload a comparison accepts.
pub const MIN_PAIRS: usize = 10;

/// The verdict on one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A gain by the rule above.
    Improved,
    /// Within the bound, and steady enough to say so.
    NoChange,
    /// Worse by more than the bound (by anything, for an exact value).
    Worse,
    /// Spread wider than the bound.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::NoChange => "no-change",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// How much worse `change` is than `parent`, as a ratio: above 1 is
/// worse and below 1 better, in either direction of improvement.
pub fn worsening(parent: f64, change: f64, better: Better) -> f64 {
    if parent == change {
        return 1.0;
    }
    match better {
        Better::Lower => change / parent,
        Better::Higher => parent / change,
    }
}

/// Judges paired samples: `parent[i]` and `change[i]` ran as pair `i`.
/// `exact` marks values that repeat bit for bit on the same inputs.
/// Returns the verdict and the change's wins.
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    better: Better,
    bound: f64,
    exact: bool,
) -> (Verdict, usize) {
    assert_eq!(parent.len(), change.len(), "samples must be paired");
    let n = parent.len();
    let ratios: Vec<f64> = parent
        .iter()
        .zip(change)
        .map(|(p, c)| worsening(*p, *c, better))
        .collect();
    let wins = ratios.iter().filter(|r| **r < 1.0).count();
    let mostly_won = wins * 10 >= n * 9;
    if exact {
        let v = if ratios.iter().any(|r| *r > 1.0) {
            Verdict::Worse
        } else if mostly_won {
            Verdict::Improved
        } else {
            Verdict::NoChange
        };
        return (v, wins);
    }
    let mid = median(&ratios);
    let (q1, q3) = quartiles(&ratios);
    let spread = q3 - q1;
    if mostly_won && 1.0 - mid > spread {
        return (Verdict::Improved, wins);
    }
    if mid - 1.0 > bound {
        return (Verdict::Worse, wins);
    }
    let all_better = change
        .iter()
        .all(|c| parent.iter().all(|p| better.beats(*c, *p)));
    if spread > bound && !all_better {
        (Verdict::Unresolved, wins)
    } else {
        (Verdict::NoChange, wins)
    }
}

/// The parts of one result file `compare` reads.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Start time, ms since the Unix epoch.
    pub started_unix_ms: u64,
    /// `(nproc, cpu_model)` of the host.
    pub host: (u64, String),
    /// Seconds the run measured.
    pub seconds: f64,
    /// Whether every correctness check passed.
    pub correct: bool,
    /// End-to-end metric and breakdown line values by name.
    pub values: BTreeMap<String, f64>,
    /// Names of the values that are exact per seed.
    pub exact: BTreeSet<String>,
    /// Items offered.
    pub attempted: u64,
    /// Items lost.
    pub failed: u64,
}

impl RunResult {
    /// Items lost ÷ items offered; 1 when the run failed its checks.
    fn failed_share(&self) -> f64 {
        if self.correct {
            self.failed as f64 / self.attempted.max(1) as f64
        } else {
            1.0
        }
    }
}

fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

fn uint(v: &Value, key: &str) -> Result<u64, String> {
    match get(v, key) {
        Some(Value::UInt(n)) => Ok(*n),
        _ => Err(format!("missing unsigned integer `{key}`")),
    }
}

fn float(v: &Value) -> Option<f64> {
    match v {
        Value::Float(x) => Some(*x),
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        _ => None,
    }
}

fn text(v: &Value, key: &str) -> Result<String, String> {
    match get(v, key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        _ => Err(format!("missing string `{key}`")),
    }
}

/// `{name: {"value": x, ...}}` as `name → x`.
fn values(v: &Value, key: &str) -> Result<Vec<(String, f64)>, String> {
    Ok(get(v, key)
        .and_then(Value::as_object)
        .ok_or_else(|| format!("missing `{key}`"))?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), get(m, "value").and_then(float)?)))
        .collect())
}

/// Parses one result file's JSON. Returns `Ok(None)` for a traced run,
/// which carries per-layer metrics only.
pub fn parse_result(json: &str) -> Result<Option<RunResult>, String> {
    let v: Value = serde_json::from_str(json).map_err(|e| e.to_string())?;
    if matches!(get(&v, "trace"), Some(Value::Bool(true))) {
        return Ok(None);
    }
    let host = get(&v, "host").ok_or("missing `host`")?;
    let exact = get(&v, "exact")
        .and_then(Value::as_array)
        .ok_or("missing `exact`")?
        .iter()
        .filter_map(|n| match n {
            Value::Str(s) => Some(s.clone()),
            _ => None,
        })
        .collect();
    Ok(Some(RunResult {
        workload: text(&v, "workload")?,
        seed: uint(&v, "seed")?,
        started_unix_ms: uint(&v, "started_unix_ms")?,
        host: (uint(host, "nproc")?, text(host, "cpu_model")?),
        seconds: get(&v, "seconds")
            .and_then(float)
            .ok_or("missing `seconds`")?,
        correct: match get(&v, "correct") {
            Some(Value::Bool(b)) => *b,
            _ => return Err("missing boolean `correct`".into()),
        },
        values: values(&v, "metrics")?
            .into_iter()
            .chain(values(&v, "detail")?)
            .collect(),
        exact,
        attempted: uint(&v, "attempted")?,
        failed: uint(&v, "failed")?,
    }))
}

/// Reads every untraced result file in `dir`.
pub fn load_dir(dir: &Path) -> Result<Vec<RunResult>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut results = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if !name.ends_with(".json") || name.ends_with(".trace.json") {
            continue;
        }
        let json =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        if let Some(r) = parse_result(&json).map_err(|e| format!("{}: {e}", path.display()))? {
            results.push(r);
        }
    }
    Ok(results)
}

/// One verdict row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric or breakdown line name (or `failed_share`).
    pub metric: String,
    /// Parent samples, pair order.
    pub parent: Vec<f64>,
    /// Change samples, pair order.
    pub change: Vec<f64>,
    /// Paired worsening ratios (see [`worsening`]), pair order.
    pub ratios: Vec<f64>,
    /// Whether the row was judged as exact per seed.
    pub exact: bool,
    /// Pairs the change won.
    pub wins: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// Pairs runs per workload and judges every end-to-end metric, every
/// judged breakdown line both sides report, and `failed_share`. Fails
/// when host stamps or run lengths differ, or a workload has fewer
/// than [`MIN_PAIRS`] pairs.
pub fn compare(parent: &[RunResult], change: &[RunResult]) -> Result<Vec<Row>, String> {
    let mut hosts: Vec<&(u64, String)> = parent.iter().chain(change).map(|r| &r.host).collect();
    hosts.sort();
    hosts.dedup();
    if hosts.len() > 1 {
        return Err(format!(
            "results come from different hosts, refusing to compare: {hosts:?}"
        ));
    }
    let mut lengths: Vec<f64> = parent.iter().chain(change).map(|r| r.seconds).collect();
    lengths.sort_by(f64::total_cmp);
    lengths.dedup();
    if lengths.len() > 1 {
        return Err(format!(
            "results measured for different lengths, refusing to compare: {lengths:?} s"
        ));
    }
    let mut pairs: BTreeMap<&str, Vec<(&RunResult, &RunResult)>> = BTreeMap::new();
    let (p, c) = (by_seed(parent), by_seed(change));
    for (key, ps) in &p {
        if let Some(cs) = c.get(key) {
            let entry = pairs.entry(ps[0].workload.as_str()).or_default();
            entry.extend(ps.iter().copied().zip(cs.iter().copied()));
        }
    }
    if pairs.is_empty() {
        return Err("no workload and seed appears in both directories".into());
    }
    let mut rows = Vec::new();
    for (workload, runs) in pairs {
        if runs.len() < MIN_PAIRS {
            return Err(format!(
                "{workload}: {} pairs; a comparison needs at least {MIN_PAIRS}",
                runs.len()
            ));
        }
        let breakdown: BTreeSet<&str> = runs[0]
            .0
            .values
            .keys()
            .map(String::as_str)
            .filter(|name| name.contains('.') && judged(name).is_some())
            .filter(|name| {
                runs.iter()
                    .all(|(p, c)| p.values.contains_key(*name) && c.values.contains_key(*name))
            })
            .collect();
        for name in END_TO_END.iter().map(|d| d.name).chain(breakdown) {
            rows.push(value_row(workload, name, &runs)?);
        }
        let parent: Vec<f64> = runs.iter().map(|(p, _)| p.failed_share()).collect();
        let change: Vec<f64> = runs.iter().map(|(_, c)| c.failed_share()).collect();
        rows.push(row(
            workload,
            "failed_share",
            parent,
            change,
            Better::Lower,
            0.0,
            true,
        ));
    }
    Ok(rows)
}

/// Runs grouped by `(workload, seed)`, each group in start order.
fn by_seed(runs: &[RunResult]) -> BTreeMap<(&str, u64), Vec<&RunResult>> {
    let mut m: BTreeMap<(&str, u64), Vec<&RunResult>> = BTreeMap::new();
    for r in runs {
        m.entry((r.workload.as_str(), r.seed)).or_default().push(r);
    }
    for v in m.values_mut() {
        v.sort_by_key(|r| r.started_unix_ms);
    }
    m
}

/// The row of value `name`, judged by its catalog definition; exact
/// when every run on both sides marks it so.
fn value_row(workload: &str, name: &str, runs: &[(&RunResult, &RunResult)]) -> Result<Row, String> {
    let def = judged(name).expect("only judged names get rows");
    let value = |r: &RunResult| {
        r.values
            .get(name)
            .copied()
            .ok_or_else(|| format!("{workload}: a result lacks `{name}`"))
    };
    let parent = runs
        .iter()
        .map(|(p, _)| value(p))
        .collect::<Result<Vec<_>, _>>()?;
    let change = runs
        .iter()
        .map(|(_, c)| value(c))
        .collect::<Result<Vec<_>, _>>()?;
    let exact = runs
        .iter()
        .all(|(p, c)| p.exact.contains(name) && c.exact.contains(name));
    let bound = def.bound.expect("judged metrics have bounds");
    Ok(row(
        workload, name, parent, change, def.better, bound, exact,
    ))
}

fn row(
    workload: &str,
    metric: &str,
    parent: Vec<f64>,
    change: Vec<f64>,
    better: Better,
    bound: f64,
    exact: bool,
) -> Row {
    let (verdict, wins) = verdict(&parent, &change, better, bound, exact);
    let ratios = parent
        .iter()
        .zip(&change)
        .map(|(p, c)| worsening(*p, *c, better))
        .collect();
    Row {
        workload: workload.to_string(),
        metric: metric.to_string(),
        parent,
        change,
        ratios,
        exact,
        wins,
        verdict,
    }
}

/// Formats rows as a table: each side's median, the paired ratios'
/// median with quartiles, wins and verdict.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<17} {:<30} {:>14} {:>14} {:>28} {:>6}  verdict\n",
        "workload", "metric", "parent median", "change median", "ratio median [q1, q3]", "wins"
    );
    for r in rows {
        let (q1, q3) = quartiles(&r.ratios);
        let ratio = format!("{:.4} [{:.4}, {:.4}]", median(&r.ratios), q1, q3);
        out += &format!(
            "{:<17} {:<30} {:>14.6} {:>14.6} {:>28} {:>3}/{:<2}  {}{}\n",
            r.workload,
            r.metric,
            median(&r.parent),
            median(&r.change),
            ratio,
            r.wins,
            r.parent.len(),
            r.verdict,
            if r.exact { " (exact)" } else { "" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::relative_iqr;

    const TEN: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 99.7,
    ];

    /// A parent whose values vary 5% across seeds, as outcomes do.
    const SEEDS: [f64; 10] = [
        100.0, 104.0, 97.0, 102.0, 95.0, 103.0, 98.0, 101.0, 96.0, 105.0,
    ];

    fn scaled(parent: &[f64], ratios: &[f64]) -> Vec<f64> {
        parent.iter().zip(ratios).map(|(p, r)| p * r).collect()
    }

    fn judge(parent: &[f64], change: &[f64], bound: f64) -> (Verdict, usize) {
        verdict(parent, change, Better::Lower, bound, false)
    }

    #[test]
    fn nine_of_ten_wins_beyond_the_ratio_spread_is_a_gain() {
        let mut ratios = [0.95; 10];
        ratios[3] = 1.01; // the one pair the parent wins
        assert_eq!(
            judge(&TEN, &scaled(&TEN, &ratios), 0.05),
            (Verdict::Improved, 9)
        );
    }

    #[test]
    fn eight_of_ten_wins_is_not_a_gain() {
        let mut ratios = [0.95; 10];
        ratios[3] = 1.01;
        ratios[4] = 1.01;
        assert_eq!(
            judge(&TEN, &scaled(&TEN, &ratios), 0.05),
            (Verdict::NoChange, 8)
        );
    }

    #[test]
    fn a_steady_paired_gain_counts_even_inside_the_seed_spread() {
        // Every pair gains 3%, less than the parent's spread across
        // seeds; pairing removes that spread.
        assert!(relative_iqr(&SEEDS) > 0.03);
        let change = scaled(&SEEDS, &[0.97; 10]);
        assert_eq!(judge(&SEEDS, &change, 0.05), (Verdict::Improved, 10));
    }

    #[test]
    fn wins_inside_the_ratio_spread_are_no_gain() {
        // Nine wins, but most are tiny: the median gain (0.25%) is far
        // inside the ratios' interquartile range.
        let ratios = [0.999, 0.999, 0.998, 0.6, 0.6, 0.6, 0.997, 0.6, 0.999, 1.01];
        let (v, wins) = judge(&TEN, &scaled(&TEN, &ratios), 0.5);
        assert_eq!((v, wins), (Verdict::NoChange, 9));
    }

    #[test]
    fn a_median_ratio_past_the_bound_is_worse() {
        let change = scaled(&TEN, &[1.08; 10]);
        assert_eq!(judge(&TEN, &change, 0.05).0, Verdict::Worse);
        assert_eq!(
            verdict(&TEN, &change, Better::Higher, 0.05, false).0,
            Verdict::Improved
        );
        assert_eq!(judge(&TEN, &change, 0.10).0, Verdict::NoChange);
    }

    #[test]
    fn a_ratio_spread_wider_than_the_bound_is_unresolved() {
        let ratios = [0.8, 1.2, 0.9, 1.1, 1.0, 0.7, 1.3, 0.95, 1.05, 1.0];
        assert_eq!(
            judge(&TEN, &scaled(&TEN, &ratios), 0.05).0,
            Verdict::Unresolved
        );
        // ... unless every change run beats every parent run.
        let ratios = [0.3, 0.3, 0.3, 0.3, 0.3, 0.98, 0.98, 0.98, 0.98, 0.98];
        let change: Vec<f64> = ratios.iter().map(|r| r * 99.0).collect();
        assert_eq!(judge(&TEN, &change, 0.05).0, Verdict::NoChange);
    }

    #[test]
    fn an_exact_value_is_worse_on_any_paired_worsening() {
        // +15% on every seed: inside a 0.20 bound, but certain.
        let change = scaled(&SEEDS, &[1.15; 10]);
        assert_eq!(judge(&SEEDS, &change, 0.20).0, Verdict::NoChange);
        let exact = |c: &[f64]| verdict(&SEEDS, c, Better::Lower, 0.20, true);
        assert_eq!(exact(&change), (Verdict::Worse, 0));
        let mut one_worse = scaled(&SEEDS, &[0.9; 10]);
        one_worse[6] = SEEDS[6] * 1.001;
        assert_eq!(exact(&one_worse), (Verdict::Worse, 9));
        assert_eq!(exact(&SEEDS), (Verdict::NoChange, 0));
        assert_eq!(exact(&scaled(&SEEDS, &[0.97; 10])).0, Verdict::Improved);
    }

    fn result(workload: &str, seed: u64, at: u64, value: f64, nproc: u64) -> RunResult {
        let mut values: BTreeMap<String, f64> = END_TO_END
            .iter()
            .map(|d| (d.name.to_string(), value))
            .collect();
        values.insert("ns_per_arrival.mutex".into(), value);
        values.insert("power_mw.pbpl".into(), value);
        values.insert("reps.mutex".into(), 3.0);
        RunResult {
            workload: workload.into(),
            seed,
            started_unix_ms: at,
            host: (nproc, "cpu".into()),
            seconds: 20.0,
            correct: true,
            values,
            exact: ["power_mw.pbpl".to_string()].into(),
            attempted: 100,
            failed: 0,
        }
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter()
            .find(|r| r.metric == metric)
            .unwrap_or_else(|| panic!("no row {metric}"))
            .verdict
    }

    #[test]
    fn compare_pairs_by_seed_and_refuses_mixed_settings() {
        let parent: Vec<RunResult> = (0..10).map(|s| result("w", s, 2 * s, 10.0, 2)).collect();
        let change: Vec<RunResult> = (0..10)
            .map(|s| result("w", s, 2 * s + 1, 10.0, 2))
            .collect();
        let rows = compare(&parent, &change).expect("comparable");
        // Every end-to-end metric, the two judged breakdown lines and
        // failed_share; `reps.mutex` is not judged.
        assert_eq!(rows.len(), END_TO_END.len() + 3);
        assert!(rows.iter().all(|r| r.verdict == Verdict::NoChange));
        assert!(
            rows.iter()
                .find(|r| r.metric == "power_mw.pbpl")
                .unwrap()
                .exact
        );

        let mut other_host = change.clone();
        other_host[0].host.0 = 4;
        assert!(compare(&parent, &other_host)
            .unwrap_err()
            .contains("different hosts"));
        let mut other_length = change.clone();
        other_length[0].seconds = 5.0;
        assert!(compare(&parent, &other_length)
            .unwrap_err()
            .contains("different lengths"));
        assert!(compare(&parent[..9], &change[..9])
            .unwrap_err()
            .contains("at least 10"));
    }

    #[test]
    fn one_strategy_regressing_shows_in_its_own_row() {
        let parent: Vec<RunResult> = (0..10).map(|s| result("w", s, 2 * s, 10.0, 2)).collect();
        let mut change: Vec<RunResult> = (0..10)
            .map(|s| result("w", s, 2 * s + 1, 10.0, 2))
            .collect();
        for r in &mut change {
            *r.values.get_mut("ns_per_arrival.mutex").unwrap() = 20.0;
            *r.values.get_mut("power_mw.pbpl").unwrap() = 10.01;
        }
        let rows = compare(&parent, &change).expect("comparable");
        assert_eq!(verdict_of(&rows, "ns_per_arrival"), Verdict::NoChange);
        assert_eq!(verdict_of(&rows, "ns_per_arrival.mutex"), Verdict::Worse);
        assert_eq!(verdict_of(&rows, "power_mw.pbpl"), Verdict::Worse);
    }

    #[test]
    fn lost_items_and_failed_checks_are_worse() {
        let parent: Vec<RunResult> = (0..10).map(|s| result("w", s, 2 * s, 10.0, 2)).collect();
        let mut lossy: Vec<RunResult> = (0..10)
            .map(|s| result("w", s, 2 * s + 1, 10.0, 2))
            .collect();
        lossy[2].failed = 1;
        let rows = compare(&parent, &lossy).expect("comparable");
        assert_eq!(verdict_of(&rows, "failed_share"), Verdict::Worse);

        let mut broken: Vec<RunResult> = (0..10)
            .map(|s| result("w", s, 2 * s + 1, 10.0, 2))
            .collect();
        broken[5].correct = false;
        let rows = compare(&parent, &broken).expect("comparable");
        assert_eq!(verdict_of(&rows, "failed_share"), Verdict::Worse);
    }

    #[test]
    fn a_failed_run_parses_with_its_values() {
        let json = r#"{"workload": "paper_m5", "seed": 4, "seconds": 20,
            "trace": false, "started_unix_ms": 7, "correct": false,
            "host": {"nproc": 2, "cpu_model": "cpu", "git_commit": "x"},
            "attempted": 10, "failed": 0,
            "metrics": {"setup_s": {"value": 0.5, "unit": "s"}},
            "detail": {"power_mw.pbpl": {"value": 12.5, "unit": "mW"}},
            "exact": ["power_mw.pbpl"]}"#;
        let r = parse_result(json).expect("parses").expect("untraced");
        assert!(!r.correct);
        assert_eq!(r.failed_share(), 1.0);
        assert_eq!(r.values["setup_s"], 0.5);
        assert_eq!(r.values["power_mw.pbpl"], 12.5);
        assert!(r.exact.contains("power_mw.pbpl"));
        assert_eq!(r.seconds, 20.0);
    }
}
