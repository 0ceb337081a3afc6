//! Shared experiment machinery: the paper's measurement protocol
//! (§III-B) as reusable code.
//!
//! Every experiment executes for a fixed horizon (50 s in the paper),
//! runs three replicates with distinct seeds, and reports mean ± 95% CI
//! for each metric. The `PC_*` environment knobs override the defaults
//! so the full suite can be smoke-tested quickly; they all go through
//! one parser (`env_knob`), and a malformed value is an error that
//! names the variable, never a silent fallback.

use crate::replay::{planet_workload_label, worldcup_workload_label};
use pc_core::{RunMetrics, StrategyKind};
use pc_sim::SimDuration;
use pc_stats::Summary;
use pc_trace::{PlanetConfig, WorldCupConfig};
use pc_trace_events::DEFAULT_RECORDER_CAPACITY;
use serde::Serialize;
use std::io::Write;
use std::path::PathBuf;

/// The paper's horizon (ms) and replicate count (§III-B).
pub(crate) const PAPER_PROTOCOL: (u64, usize) = (50_000, 3);

/// Protocol parameters shared by all experiment runners.
#[derive(Debug, Clone)]
pub struct Protocol {
    /// Run length (paper: 50 s).
    pub duration: SimDuration,
    /// Replicates per configuration (paper: 3).
    pub replicates: usize,
    /// Base seed; replicate k runs with `base_seed + k`.
    pub base_seed: u64,
    /// World-Cup workload of the paper-scale cells.
    pub trace: WorldCupConfig,
    /// Planet-fleet workload of the large-M cells.
    pub planet: PlanetConfig,
    /// Worker threads for the sweep engine. Thread count never affects
    /// results (see `sweep`) — only wall-clock time.
    pub threads: usize,
    /// Per-cell recorder bound of recorded runs.
    pub trace_cap: usize,
}

/// Reads one `PC_*` knob through `vars`: unset takes `default`; a set
/// value that is not an integer `>= min` is an error naming the
/// variable.
pub(crate) fn env_knob(
    vars: &impl Fn(&str) -> Option<String>,
    name: &str,
    default: u64,
    min: u64,
) -> Result<u64, String> {
    let Some(value) = vars(name) else {
        return Ok(default);
    };
    match value.trim().parse::<u64>() {
        Ok(n) if n >= min => Ok(n),
        _ if min == 0 => Err(format!("{name}={value:?} is not an unsigned integer")),
        _ => Err(format!("{name}={value:?} is not a positive integer")),
    }
}

impl Protocol {
    /// The paper's protocol (50 s, 3 replicates) under the environment
    /// knobs; exits 2 on a malformed knob.
    pub fn from_env() -> Self {
        let (duration_ms, replicates) = PAPER_PROTOCOL;
        Self::from_env_with(duration_ms, replicates)
    }

    /// [`Protocol::from_vars`] over the process environment; exits 2 on
    /// a malformed knob.
    pub fn from_env_with(duration_ms: u64, replicates: usize) -> Self {
        Self::from_vars(&|name| std::env::var(name).ok(), duration_ms, replicates)
            .unwrap_or_else(|e| die(&e))
    }

    /// The protocol with defaults `duration_ms` and `replicates`,
    /// overridden by `PC_DURATION_MS`, `PC_REPLICATES`, `PC_SEED`,
    /// `PC_THREADS` (default: the machine's parallelism) and
    /// `PC_TRACE_CAP` (default [`DEFAULT_RECORDER_CAPACITY`]) as `vars`
    /// reports them.
    pub fn from_vars(
        vars: &impl Fn(&str) -> Option<String>,
        duration_ms: u64,
        replicates: usize,
    ) -> Result<Self, String> {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let knob =
            |name, default: usize| env_knob(vars, name, default as u64, 1).map(|n| n as usize);
        Ok(Protocol {
            duration: SimDuration::from_millis(env_knob(vars, "PC_DURATION_MS", duration_ms, 1)?),
            replicates: knob("PC_REPLICATES", replicates)?,
            base_seed: env_knob(vars, "PC_SEED", 1, 0)?,
            trace: WorldCupConfig::paper_default(),
            planet: PlanetConfig::scale_default(),
            threads: knob("PC_THREADS", nproc)?,
            trace_cap: knob("PC_TRACE_CAP", DEFAULT_RECORDER_CAPACITY)?,
        })
    }

    /// Registered name of [`Protocol::trace`]: every cell names a
    /// workload `replay` can rebuild, so an unregistered one is a bug.
    pub(crate) fn worldcup_workload(&self) -> &'static str {
        worldcup_workload_label(&self.trace).expect("trace config is a registered workload")
    }

    /// Registered name of [`Protocol::planet`].
    pub(crate) fn planet_workload(&self) -> &'static str {
        planet_workload_label(&self.planet).expect("planet config is a registered workload")
    }
}

/// Per-strategy result row: each §VI-B metric as a replicate summary.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Strategy display name.
    pub name: String,
    /// Extra power over baseline, milliwatts.
    pub power_mw: Summary,
    /// Core wakeups per second.
    pub wakeups_per_sec: Summary,
    /// CPU usage, ms/s.
    pub usage_ms_per_sec: Summary,
    /// Internally counted scheduled wakeups (batchers).
    pub scheduled: Summary,
    /// Buffer overflows (batchers).
    pub overflows: Summary,
    /// Mean allocated buffer capacity.
    pub mean_capacity: Summary,
    /// Mean item latency, microseconds.
    pub latency_us: Summary,
    /// 99th-percentile item latency, microseconds (batching's tail cost).
    pub latency_p99_us: Summary,
    /// Items consumed per replicate (sanity).
    pub items: Summary,
}

impl Row {
    /// Summarises replicate metrics into a row; `runs` must not be
    /// empty.
    pub fn from_runs(runs: &[&RunMetrics]) -> Row {
        let get = |f: &dyn Fn(&RunMetrics) -> f64| runs.iter().map(|m| f(m)).collect::<Vec<_>>();
        Row {
            name: runs[0].strategy.clone(),
            power_mw: Summary::of("power_mw", &get(&|m| m.extra_power_mw())),
            wakeups_per_sec: Summary::of("wakeups_per_sec", &get(&|m| m.wakeups_per_sec())),
            usage_ms_per_sec: Summary::of("usage_ms_per_sec", &get(&|m| m.usage_ms_per_sec())),
            scheduled: Summary::of("scheduled", &get(&|m| m.scheduled_wakeups() as f64)),
            overflows: Summary::of("overflows", &get(&|m| m.overflow_wakeups() as f64)),
            mean_capacity: Summary::of("mean_capacity", &get(&|m| m.mean_capacity())),
            latency_us: Summary::of(
                "latency_us",
                &get(&|m| m.mean_latency().as_secs_f64() * 1e6),
            ),
            latency_p99_us: Summary::of(
                "latency_p99_us",
                &get(&|m| {
                    m.latency_percentile(99.0)
                        .map(|d| d.as_secs_f64() * 1e6)
                        .unwrap_or(f64::NAN)
                }),
            ),
            items: Summary::of("items", &get(&|m| m.items_consumed as f64)),
        }
    }
}

/// Finds the row for a strategy by its display name, panicking with the
/// name when absent (all runners construct their own rows, so absence is
/// a programming error).
pub fn row<'a>(rows: &'a [Row], name: &str) -> &'a Row {
    rows.iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("no row named {name}"))
}

/// Signed percentage change of `ours` versus `baseline` (−20.0 = 20%
/// lower).
pub fn pct_change(ours: f64, baseline: f64) -> f64 {
    if baseline == 0.0 {
        f64::NAN
    } else {
        (ours - baseline) / baseline * 100.0
    }
}

/// Prints the standard metric table header.
pub fn print_header(title: &str) {
    println!("\n=== {title} ===");
    println!(
        "{:>6} | {:>16} | {:>16} | {:>14} | {:>12} | {:>12} | {:>9} | {:>10}",
        "impl",
        "power (mW)",
        "wakeups/s",
        "usage (ms/s)",
        "scheduled",
        "overflows",
        "avg buf",
        "lat (us)"
    );
}

/// Prints one strategy row.
pub fn print_row(r: &Row) {
    println!(
        "{:>6} | {:>8.1} ±{:>6.1} | {:>8.1} ±{:>6.1} | {:>7.2} ±{:>5.2} | {:>12.0} | {:>12.0} | {:>9.1} | {:>10.0}",
        r.name,
        r.power_mw.mean,
        r.power_mw.ci95.half_width,
        r.wakeups_per_sec.mean,
        r.wakeups_per_sec.ci95.half_width,
        r.usage_ms_per_sec.mean,
        r.usage_ms_per_sec.ci95.half_width,
        r.scheduled.mean,
        r.overflows.mean,
        r.mean_capacity.mean,
        r.latency_us.mean,
    );
}

/// Prints `msg` prefixed with the program name and exits 2 — the one
/// exit path for usage errors, malformed knobs and failed writes.
pub fn die(msg: &str) -> ! {
    let program = std::env::args()
        .next()
        .and_then(|arg0| {
            std::path::Path::new(&arg0)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
        })
        .unwrap_or_else(|| "pc-bench".to_string());
    eprintln!("{program}: {msg}");
    std::process::exit(2);
}

/// Creates `results/<file>` for writing; exits 2 naming the path when
/// it cannot.
pub fn create_result_file(file: &str) -> (PathBuf, std::io::BufWriter<std::fs::File>) {
    let path = PathBuf::from("results").join(file);
    std::fs::create_dir_all("results")
        .and_then(|()| std::fs::File::create(&path))
        .map(|f| (path.clone(), std::io::BufWriter::new(f)))
        .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())))
}

/// Serialises experiment output under `results/<name>.json`; exits 2
/// naming the path when the write fails, so a stale file from an
/// earlier run can never stand in for this one.
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let (path, mut out) = create_result_file(&format!("{name}.json"));
    let json = serde_json::to_string_pretty(value)
        .unwrap_or_else(|e| die(&format!("cannot serialise {}: {e}", path.display())));
    out.write_all(json.as_bytes())
        .and_then(|()| out.flush())
        .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
    println!("[saved {}]", path.display());
}

/// The four implementations §VI evaluates.
pub fn evaluated_strategies() -> Vec<StrategyKind> {
    vec![
        StrategyKind::Mutex,
        StrategyKind::Sem,
        StrategyKind::Bp,
        StrategyKind::pbpl_default(),
    ]
}

/// The seven §III implementations. The periodic strategies' period is
/// matched to the buffer-fill time at the workload's mean rate (the
/// paper's 100 µs played the same role against its much faster replay).
pub fn single_pc_strategies(buffer: usize, mean_rate: f64) -> Vec<StrategyKind> {
    let period = SimDuration::from_secs_f64(buffer as f64 / mean_rate);
    vec![
        StrategyKind::BusyWait,
        StrategyKind::Yield,
        StrategyKind::Mutex,
        StrategyKind::Sem,
        StrategyKind::Bp,
        StrategyKind::Pbp { period },
        StrategyKind::Spbp { period },
    ]
}

/// A small protocol on the quick workloads for unit tests.
#[cfg(test)]
pub(crate) fn quick_protocol(duration_ms: u64, replicates: usize, threads: usize) -> Protocol {
    Protocol {
        duration: SimDuration::from_millis(duration_ms),
        replicates,
        base_seed: 11,
        trace: WorldCupConfig::quick_test(),
        planet: PlanetConfig::quick_test(),
        threads,
        trace_cap: DEFAULT_RECORDER_CAPACITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The protocol under exactly one knob set to `value`.
    fn with(name: &str, value: &str) -> Result<Protocol, String> {
        let (name, value) = (name.to_string(), value.to_string());
        Protocol::from_vars(
            &move |var: &str| (var == name).then(|| value.clone()),
            50_000,
            3,
        )
    }

    /// A malformed value is an error naming the variable, never the
    /// default in disguise.
    fn rejects(name: &str, value: &str) {
        let err = with(name, value).expect_err(value);
        assert!(err.contains(name), "{err}");
    }

    #[test]
    fn unset_knobs_take_the_defaults() {
        let p = Protocol::from_vars(&|_: &str| None, 10_000, 1).unwrap();
        assert_eq!(p.duration, SimDuration::from_millis(10_000));
        assert_eq!(p.replicates, 1);
        assert_eq!(p.base_seed, 1);
        assert!(p.threads >= 1);
        assert_eq!(p.trace_cap, DEFAULT_RECORDER_CAPACITY);
    }

    #[test]
    fn pc_duration_ms_parses_or_names_itself() {
        assert_eq!(
            with("PC_DURATION_MS", "1234").unwrap().duration,
            SimDuration::from_millis(1234)
        );
        for bad in ["2s", "0", "-5", ""] {
            rejects("PC_DURATION_MS", bad);
        }
    }

    #[test]
    fn pc_replicates_parses_or_names_itself() {
        assert_eq!(with("PC_REPLICATES", "5").unwrap().replicates, 5);
        for bad in ["0", "three", "1.5"] {
            rejects("PC_REPLICATES", bad);
        }
    }

    #[test]
    fn pc_seed_takes_any_u64_or_names_itself() {
        assert_eq!(with("PC_SEED", "0").unwrap().base_seed, 0);
        assert_eq!(
            with("PC_SEED", "18446744073709551615").unwrap().base_seed,
            u64::MAX
        );
        for bad in ["x", "-3", "18446744073709551616"] {
            rejects("PC_SEED", bad);
        }
    }

    #[test]
    fn pc_threads_parses_or_names_itself() {
        assert_eq!(with("PC_THREADS", "3").unwrap().threads, 3);
        for bad in ["0", "all"] {
            rejects("PC_THREADS", bad);
        }
    }

    #[test]
    fn pc_trace_cap_parses_or_names_itself() {
        assert_eq!(with("PC_TRACE_CAP", "1000").unwrap().trace_cap, 1000);
        for bad in ["0", "2M"] {
            rejects("PC_TRACE_CAP", bad);
        }
    }

    #[test]
    fn pct_change_signs() {
        assert!((pct_change(80.0, 100.0) + 20.0).abs() < 1e-12);
        assert!((pct_change(120.0, 100.0) - 20.0).abs() < 1e-12);
        assert!(pct_change(1.0, 0.0).is_nan());
    }

    #[test]
    fn strategy_sets() {
        assert_eq!(evaluated_strategies().len(), 4);
        let seven = single_pc_strategies(50, 2000.0);
        assert_eq!(seven.len(), 7);
        // Period = B / rate = 25ms.
        match &seven[5] {
            StrategyKind::Pbp { period } => {
                assert_eq!(*period, SimDuration::from_millis(25));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
