//! The analysis family: the paper's §III-C statistics behind Figs. 3–4,
//! the reproduction's claims self-check, and the ablation, ω-sensitivity
//! and time-series extensions, all as reports over one grid.
//!
//! The grid reuses the suite's Fig. 3/4, 9, 10 and 11 blocks under the
//! same experiment names and adds two blocks at Fig. 9's point: the
//! PBPL ablations (`ablation_pbpl`) and Mutex/BP/PBPL under each
//! registered wakeup-energy scale (`sensitivity_omega`). Every cell is
//! an ordinary header, so the whole family replays and byte-gates like
//! the others. Everything else is arithmetic over cells the grid
//! already ran: the menu-governor penalty re-accounts Fig. 9's core
//! timelines, the time series meters Fig. 9's first replicate, and full
//! PBPL and ω = 1× are Fig. 9's own rows.
//!
//! A `--filter`ed run reports only the sections whose cells ran; a
//! claim whose cells were filtered out is skipped, neither passed nor
//! failed. A failed claim is a gate failure.

use crate::chaos::CHAOS_POINT;
use crate::exp::{pct_change, print_header, print_row, single_pc_strategies, Protocol, Row};
use crate::oracle::CellMeta;
use crate::replay::{label, pbpl_variants, Condition, WAKEUP_SCALES};
use crate::suite;
use crate::sweep::{configurations, Block, CellRun};
use pc_core::{RunMetrics, StrategyKind};
use pc_power::{account_cores, GovernorKind, Meter, PowerModel};
use pc_sim::{SimDuration, SimRng};
use pc_stats::{correlation_significance, linear_fit, mean, pearson, ConfidenceLevel, Summary};
use serde::Serialize;

const SINGLE: &str = "fig03_04_single_pc";
const FIG09: &str = "fig09_five_consumers";
const FIG10: &str = "fig10_consumer_sweep";
const FIG11: &str = "fig11_buffer_sweep";
const ABLATION: &str = "ablation_pbpl";
const OMEGA: &str = "sensitivity_omega";

/// The PBPL ablations in table order; full PBPL is Fig. 9's row.
const ABLATIONS: [&str; 9] = [
    "PBPL(-latch)",
    "PBPL(-piggy)",
    "PBPL(fixed)",
    "PBPL(-both)",
    "PBPL(ewma)",
    "PBPL(holt)",
    "PBPL(kalman)",
    "PBPL(d=10ms)",
    "PBPL(d=50ms)",
];

/// The strategies the ω sweep, the governor check and the time series
/// compare.
fn panel() -> [StrategyKind; 3] {
    let pbpl = StrategyKind::pbpl_default();
    [StrategyKind::Mutex, StrategyKind::Bp, pbpl]
}

/// The suite's Fig. 3/4, 9, 10 and 11 blocks, the ablation block and
/// one ω-scaled block per registered wakeup scale.
pub fn blocks(protocol: &Protocol) -> Vec<Block> {
    let mut blocks: Vec<Block> = suite::blocks(protocol)
        .into_iter()
        .filter(|b| [SINGLE, FIG09, FIG10, FIG11].contains(&b.experiment.as_str()))
        .collect();
    let block = |experiment: &str, strategies| Block {
        experiment: experiment.to_string(),
        point: CHAOS_POINT,
        workload: protocol.worldcup_workload(),
        scenario: "",
        strategies,
    };
    let variants = pbpl_variants().into_iter();
    let ablations = ABLATIONS.iter().flat_map(|name| {
        let (_, cfg) = variants.clone().find(|(n, _)| n == name)?;
        Some((StrategyKind::Pbpl(cfg), Condition::Plain))
    });
    blocks.push(block(ABLATION, ablations.collect()));
    for factor in WAKEUP_SCALES {
        let scaled = panel().map(|s| (s, Condition::WakeupScale(factor)));
        blocks.push(block(OMEGA, scaled.to_vec()));
    }
    blocks
}

/// The run's configurations, looked up by experiment, label and point.
struct Configs<'a>(Vec<(&'a CellMeta, Vec<&'a RunMetrics>)>);

impl<'a> Configs<'a> {
    /// The replicates of one configuration, in seed order; `None` when
    /// the filter left it out.
    fn runs(&self, experiment: &str, label: &str, m: u64, b: u64) -> Option<&[&'a RunMetrics]> {
        let (_, runs) = self.0.iter().find(|(c, _)| {
            c.experiment == experiment && c.strategy == label && (c.pairs, c.buffer) == (m, b)
        })?;
        Some(runs)
    }

    /// The configuration's row, named by its label.
    fn row(&self, experiment: &str, label: &str, m: u64, b: u64) -> Option<Row> {
        let runs = self.runs(experiment, label, m, b)?;
        let mut row = Row::from_runs(runs);
        row.name = label.to_string();
        Some(row)
    }

    /// A row at Fig. 9's point (M = 5, B = 25).
    fn fig09(&self, experiment: &str, label: &str) -> Option<Row> {
        self.row(experiment, label, 5, 25)
    }
}

fn plain(strategy: &StrategyKind) -> String {
    label(strategy, Condition::Plain).expect("registered strategy")
}

fn power(row: &Row) -> f64 {
    row.power_mw.mean
}

/// §III-C: correlations and the 99% hypothesis test over the seven
/// single-pair implementations.
#[derive(Debug, Clone, Serialize)]
pub struct Correlations {
    corr_wakeups_power_all7: f64,
    corr_wakeups_power_idle5: f64,
    corr_usage_power_idle5: f64,
    noisy_corr_wakeups_power_idle5: f64,
    noisy_corr_usage_power_idle5: f64,
    wakeup_effect_significant_99: bool,
    t_statistic: f64,
    regression_slope_mw_per_wakeup: Option<f64>,
    rows: Vec<Row>,
}

/// Oracle versus menu-governor accounting of one Fig. 9 strategy.
#[derive(Debug, Clone, Serialize)]
pub struct MenuPenalty {
    strategy: String,
    oracle_mw: f64,
    menu_mw: f64,
    penalty_pct: f64,
}

/// The Fig. 9 panel at one wakeup energy ω.
#[derive(Debug, Clone, Serialize)]
pub struct SensitivityPoint {
    omega_uj: f64,
    mutex_mw: f64,
    bp_mw: f64,
    pbpl_mw: f64,
    pbpl_vs_mutex_pct: f64,
    pbpl_vs_bp_pct: f64,
}

/// Per-second wakeups and usage over Fig. 9's first replicate.
#[derive(Debug, Clone, Serialize)]
pub struct Series {
    strategy: String,
    wakeups_per_sec: Vec<f64>,
    usage_ms_per_sec: Vec<f64>,
}

/// One claim's verdict.
#[derive(Debug, Clone, Serialize)]
pub struct Claim {
    claim: String,
    /// `pass`, `fail` or `skip` (its cells were filtered out).
    verdict: &'static str,
    detail: String,
}

/// `results/analysis.json`: every section whose cells ran.
#[derive(Debug, Clone, Serialize)]
pub struct AnalysisReport {
    /// Bump on any change to this file's structure.
    schema_version: u32,
    duration_ms: u64,
    replicates: usize,
    base_seed: u64,
    correlations: Option<Correlations>,
    ablations: Vec<Row>,
    menu_penalty: Vec<MenuPenalty>,
    sensitivity: Vec<SensitivityPoint>,
    timeseries: Vec<Series>,
    claims: Vec<Claim>,
}

impl AnalysisReport {
    /// One line per failed claim.
    pub fn failures(&self) -> Vec<String> {
        let failed = self.claims.iter().filter(|c| c.verdict == "fail");
        failed
            .map(|c| format!("claim failed: {}  [{}]", c.claim, c.detail))
            .collect()
    }
}

/// Prints every section whose cells ran, then the claims, and builds
/// `results/analysis.json`.
pub fn report(protocol: &Protocol, runs: &[CellRun]) -> AnalysisReport {
    let configs = Configs(configurations(runs));
    let correlations = correlations(protocol, &configs);
    let ablations = ablations(&configs);
    let menu_penalty = menu_penalty(&configs);
    let sensitivity = sensitivity(&configs);
    let timeseries = timeseries(&configs);
    let mut report = AnalysisReport {
        schema_version: 1,
        duration_ms: protocol.duration.as_nanos() / 1_000_000,
        replicates: protocol.replicates,
        base_seed: protocol.base_seed,
        correlations,
        ablations,
        menu_penalty,
        sensitivity,
        timeseries,
        claims: Vec::new(),
    };
    report.claims = claims(&configs, &report);
    report
}

/// Every replicate of `rows`, row-major, of one metric.
fn samples(rows: &[Row], metric: fn(&Row) -> &Summary) -> Vec<f64> {
    rows.iter()
        .flat_map(|r| metric(r).samples.iter().copied())
        .collect()
}

/// §III-C. Paper values: CPU usage vs power correlates weakly (+12%)
/// once BW/Yield are excluded; wakeups vs power correlates strongly
/// positively (+74%) among the five idle-based implementations and
/// strongly negatively (−79.6%) across all seven (BW/Yield have huge
/// power but few wakeups); "wakeups have a significant effect on power"
/// is accepted at 99% confidence.
fn correlations(protocol: &Protocol, configs: &Configs<'_>) -> Option<Correlations> {
    let seven = single_pc_strategies(50, protocol.trace.mean_rate);
    let rows: Vec<Row> = seven
        .iter()
        .map(|s| configs.row(SINGLE, &plain(s), 1, 50))
        .collect::<Option<_>>()?;
    // BW and Yield lead the seven; the idle-based five follow.
    let wk: fn(&Row) -> &Summary = |r| &r.wakeups_per_sec;
    let pw: fn(&Row) -> &Summary = |r| &r.power_mw;
    let (wk_all, pw_all) = (samples(&rows, wk), samples(&rows, pw));
    let (wk5, pw5) = (samples(&rows[2..], wk), samples(&rows[2..], pw));
    let us5 = samples(&rows[2..], |r| &r.usage_ms_per_sec);
    let (c_all, c_wk5, c_us5) = (
        pearson(&wk_all, &pw_all),
        pearson(&wk5, &pw5),
        pearson(&us5, &pw5),
    );
    let print = |what: &str, r: f64, paper: &str| {
        println!("{what:<42}{:+.1}%  (paper: {paper})", r * 100.0)
    };
    println!("\n=== §III-C correlation analysis ===");
    print("corr(wakeups, power), all 7 impls:", c_all, "−79.6%");
    print("corr(wakeups, power), idle-based 5:", c_wk5, "+74%");
    print("corr(usage,   power), idle-based 5:", c_us5, "+12%");
    let test = correlation_significance(&wk5, &pw5, ConfidenceLevel::P99);
    let (significant, t_stat) = test.map_or((false, f64::NAN), |t| (t.significant, t.t_statistic));
    let verdict = if significant {
        "ACCEPTED"
    } else {
        "NOT ACCEPTED"
    };
    println!("\nH0: wakeups significantly affect power — {verdict} at 99% (t = {t_stat:.2}; paper accepts at 99%)");

    // Deviation D3 quantified: the simulator is noiseless, so shared
    // dependence on the workload shows up as near-perfect correlations.
    // Injecting scope/PowerTop-class measurement noise (the paper's
    // error bars) reproduces the paper's regime — wakeups stay the
    // strong predictor, usage decorrelates.
    let mut rng = SimRng::new(0xD3);
    let mut noisy = |xs: &[f64], rel: f64| -> Vec<f64> {
        let mut noise = |x: f64| x + rng.normal(0.0, rel * x.abs().max(1.0));
        xs.iter().map(|&x| noise(x)).collect()
    };
    let pw5_noisy = noisy(&pw5, 0.08); // ±8% power readout noise
    let wk5_noisy = noisy(&wk5, 0.05); // PowerTop wakeup sampling noise
    let us5_noisy = noisy(&us5, 0.50); // PowerTop ms/s is the noisiest readout
    let (nc_wk, nc_us) = (
        pearson(&wk5_noisy, &pw5_noisy),
        pearson(&us5_noisy, &pw5_noisy),
    );
    println!("\nwith injected measurement noise (D3 sensitivity):");
    print("corr(wakeups, power), idle-based 5:", nc_wk, "+74%");
    print("corr(usage,   power), idle-based 5:", nc_us, "+12%");
    let fit = linear_fit(&wk5, &pw5);
    if let Some(f) = &fit {
        let (slope, intercept, r2) = (f.slope, f.intercept, f.r_squared);
        println!("power ≈ {slope:.4} mW per wakeup/s + {intercept:.1} mW   (R² = {r2:.3})");
    }
    Some(Correlations {
        corr_wakeups_power_all7: c_all,
        corr_wakeups_power_idle5: c_wk5,
        corr_usage_power_idle5: c_us5,
        noisy_corr_wakeups_power_idle5: nc_wk,
        noisy_corr_usage_power_idle5: nc_us,
        wakeup_effect_significant_99: significant,
        t_statistic: t_stat,
        regression_slope_mw_per_wakeup: fit.map(|f| f.slope),
        rows,
    })
}

/// Each PBPL design choice switched off or swapped (our extension; §VIII
/// motivates the Kalman variant): full PBPL first, then every ablation
/// that ran, with its deltas against full PBPL when that ran too.
fn ablations(configs: &Configs<'_>) -> Vec<Row> {
    let variants = ABLATIONS.iter().map(|name| (ABLATION, *name));
    let rows: Vec<Row> = [(FIG09, "PBPL")]
        .into_iter()
        .chain(variants)
        .filter_map(|(experiment, name)| configs.fig09(experiment, name))
        .collect();
    if !rows.is_empty() {
        print_header("Ablations — PBPL variants (M = 5, B = 25)");
        rows.iter().for_each(print_row);
    }
    if let Some(full) = rows.iter().find(|r| r.name == "PBPL") {
        println!("\n--- power deltas vs full PBPL ---");
        for row in rows.iter().filter(|r| r.name != "PBPL") {
            let d_power = pct_change(row.power_mw.mean, full.power_mw.mean);
            let d_wakeups = pct_change(row.wakeups_per_sec.mean, full.wakeups_per_sec.mean);
            println!(
                "{:>12}: {d_power:+.1}% power, {d_wakeups:+.1}% wakeups",
                row.name
            );
        }
    }
    rows
}

/// Governor realism: the oracle accounting is post-hoc optimal; a
/// menu-like predictive governor pays for mispredicted idles. Grouped
/// wakeups (PBPL) make idle lengths regular, so the realistic governor
/// should lose *less* on PBPL than on Mutex. The governor only accounts
/// a finished timeline, so Fig. 9's cells are re-accounted rather than
/// re-run.
fn menu_penalty(configs: &Configs<'_>) -> Vec<MenuPenalty> {
    let model = PowerModel::exynos_like();
    let menu = |m: &RunMetrics| {
        account_cores(&m.core_reports, &model, || GovernorKind::Menu.build()).extra_power_mw()
    };
    let penalties: Vec<MenuPenalty> = panel()
        .iter()
        .filter_map(|strategy| {
            let runs = configs.runs(FIG09, &plain(strategy), 5, 25)?;
            let oracle = mean(&runs.iter().map(|m| m.extra_power_mw()).collect::<Vec<_>>());
            let menu = mean(&runs.iter().map(|m| menu(m)).collect::<Vec<_>>());
            let penalty_pct = pct_change(menu, oracle);
            let strategy = plain(strategy);
            Some(MenuPenalty {
                strategy,
                oracle_mw: oracle,
                menu_mw: menu,
                penalty_pct,
            })
        })
        .collect();
    if !penalties.is_empty() {
        println!("\n--- menu governor penalty (realistic cpuidle vs oracle accounting) ---");
    }
    for p in &penalties {
        let (name, oracle, menu, pct) = (&p.strategy, p.oracle_mw, p.menu_mw, p.penalty_pct);
        println!("{name:>6}: oracle {oracle:>7.1} mW  menu {menu:>7.1} mW  penalty {pct:+.1}%");
    }
    penalties
}

/// Calibration robustness: the paper's argument rests on wakeups being
/// expensive (Eq. 3, Fig. 1), so the strategy gaps are swept over ω
/// from a quarter to four times the calibrated 120 µJ. If the PBPL
/// advantage grows with ω, the mechanism is exactly the paper's.
fn sensitivity(configs: &Configs<'_>) -> Vec<SensitivityPoint> {
    let mut factors = WAKEUP_SCALES.to_vec();
    factors.insert(2, 1.0);
    let points: Vec<SensitivityPoint> = factors
        .into_iter()
        .filter_map(|factor| {
            let (experiment, condition) = match factor {
                1.0 => (FIG09, Condition::Plain),
                _ => (OMEGA, Condition::WakeupScale(factor)),
            };
            let [mutex, bp, pbpl] = panel().map(|strategy| {
                let label = label(&strategy, condition).expect("registered");
                configs.fig09(experiment, &label).map(|r| power(&r))
            });
            let (mutex, bp, pbpl) = (mutex?, bp?, pbpl?);
            Some(SensitivityPoint {
                omega_uj: PowerModel::exynos_like().wakeup_energy_j * factor * 1e6,
                mutex_mw: mutex,
                bp_mw: bp,
                pbpl_mw: pbpl,
                pbpl_vs_mutex_pct: pct_change(pbpl, mutex),
                pbpl_vs_bp_pct: pct_change(pbpl, bp),
            })
        })
        .collect();
    if !points.is_empty() {
        println!("\n=== wakeup-energy sensitivity (M = 5, B = 25) ===");
        println!("  ω (µJ) |  Mutex mW |     BP mW |   PBPL mW | PBPL vs Mutex |   PBPL vs BP");
    }
    for p in &points {
        println!(
            "{:>8.0} | {:>9.1} | {:>9.1} | {:>9.1} | {:>+12.1}% | {:>+11.1}%",
            p.omega_uj, p.mutex_mw, p.bp_mw, p.pbpl_mw, p.pbpl_vs_mutex_pct, p.pbpl_vs_bp_pct
        );
    }
    points
}

fn sparkline(values: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(f64::MIN_POSITIVE, f64::max);
    let glyph = |v: f64| GLYPHS[(((v / max) * 7.0).round() as usize).min(7)];
    values.iter().map(|&v| glyph(v)).collect()
}

/// PowerTop-style 1-second windows over Fig. 9's first replicate (our
/// extension; the paper reports only run-wide means): item-driven
/// wakeups track the arrival rate, BP tracks it at 1/B, and PBPL
/// latches groups of wakeups together.
fn timeseries(configs: &Configs<'_>) -> Vec<Series> {
    let meter = Meter::new(SimDuration::from_secs(1));
    let series: Vec<Series> = panel()
        .iter()
        .filter_map(|strategy| {
            let m = configs.runs(FIG09, &plain(strategy), 5, 25)?[0];
            // Sum the per-window series across cores.
            let per_core: Vec<_> = m.core_reports.iter().map(|r| meter.sample(r)).collect();
            let windows = per_core.iter().map(|s| s.len()).min().unwrap_or(0);
            let (mut wakeups, mut usage) = (vec![0.0; windows], vec![0.0; windows]);
            for samples in &per_core {
                for (i, s) in samples.iter().take(windows).enumerate() {
                    wakeups[i] += s.wakeups_per_sec;
                    usage[i] += s.usage_ms_per_sec;
                }
            }
            let strategy = m.strategy.clone();
            Some(Series {
                strategy,
                wakeups_per_sec: wakeups,
                usage_ms_per_sec: usage,
            })
        })
        .collect();
    if !series.is_empty() {
        println!("\n=== per-second wakeups across the run (1 window = 1 s) ===");
        println!("(cv = std/mean of the per-second wakeups; lower = steadier idle)\n");
    }
    for s in &series {
        let m = mean(&s.wakeups_per_sec);
        let peak = s.wakeups_per_sec.iter().cloned().fold(0.0, f64::max);
        let deviations: Vec<f64> = s
            .wakeups_per_sec
            .iter()
            .map(|v| (v - m) * (v - m))
            .collect();
        let cv = mean(&deviations).sqrt() / m;
        let name = &s.strategy;
        println!("{name:>6}  mean {m:>6.0} wk/s  peak {peak:>6.0} wk/s  cv = {cv:.2}");
        println!("        {}", sparkline(&s.wakeups_per_sec));
    }
    series
}

/// Every claim the reproduction asserts, in check order: the paper's
/// fifteen, then two the extensions make. Shape assertions (orderings,
/// trends, signs).
const CLAIMS: [&str; 17] = [
    "§III: busy-waiting is the power disaster",
    "§III: Yield draws slightly less than BW (DVFS)",
    "§III: batchers beat the item-driven implementations",
    "§III: batch processing cuts ≥33% vs Mutex (paper's headline)",
    "§III: Sem is marginally cheaper than Mutex",
    "§III-C: wakeups↔power strongly positive among the idle-based five",
    "§III-C: wakeup effect significant at 99%",
    "Fig 9: PBPL has the lowest power of the four",
    "Fig 9: PBPL has the fewest wakeups of the four",
    "Fig 9: PBPL cuts ≥20% power vs Mutex (paper: −20%)",
    "§VI-C: PBPL converts a large share of BP's overflows into scheduled wakeups",
    "Fig 10: PBPL's advantage over Mutex widens with the consumer count",
    "Fig 11: power drops with buffer size for both BP and PBPL",
    "Fig 11: the BP↔PBPL gap narrows with buffer size",
    "§V-A: disabling group latching costs power",
    "ω sensitivity: the PBPL-vs-BP gap widens monotonically with wakeup cost",
    "menu governor: PBPL pays a smaller penalty than Mutex",
];

/// Evaluates [`CLAIMS`]; a claim whose cells did not run is skipped.
fn claims(configs: &Configs<'_>, report: &AnalysisReport) -> Vec<Claim> {
    let pct = |ours: f64, base: f64| format!("{:+.1}%", (ours / base - 1.0) * 100.0);
    // §III: BW, Yield, Mutex, Sem, BP, PBP, SPBP power.
    let c = report.correlations.as_ref();
    let single: Option<[f64; 7]> = c.map(|c| std::array::from_fn(|i| power(&c.rows[i])));
    let fig09 = match ["Mutex", "Sem", "BP", "PBPL"].map(|n| configs.fig09(FIG09, n)) {
        [Some(mutex), Some(sem), Some(bp), Some(pbpl)] => Some([mutex, sem, bp, pbpl]),
        _ => None,
    };
    let fig09 = fig09.as_ref();
    let mw = |e, name, m, b| configs.row(e, name, m, b).map(|r| power(&r));
    let ratio = |m| Some(mw(FIG10, "PBPL", m, 25)? / mw(FIG10, "Mutex", m, 25)?);
    let at_b = |b| mw(FIG11, "BP", 5, b).zip(mw(FIG11, "PBPL", 5, b));
    let fig11 = at_b(25).zip(at_b(100));
    let ablation = |name| report.ablations.iter().find(|r| r.name == name).map(power);
    let (menu, points) = (&report.menu_penalty, &report.sensitivity);
    let penalty = |name| {
        menu.iter()
            .find(|p| p.strategy == name)
            .map(|p| p.penalty_pct)
    };
    let verdicts: [Option<(bool, String)>; 17] = [
        single.map(|[bw, _, mutex, ..]| {
            let detail = format!("BW {bw:.0} mW vs Mutex {mutex:.0} mW");
            (bw > 5.0 * mutex, detail)
        }),
        single.map(|[bw, y, ..]| (y < bw, format!("{y:.0} < {bw:.0} mW"))),
        single.map(|[_, _, mutex, _, bp, pbp, spbp]| {
            let detail =
                format!("BP {bp:.0} / PBP {pbp:.0} / SPBP {spbp:.0} vs Mutex {mutex:.0} mW");
            (bp < mutex && pbp < mutex && spbp < mutex, detail)
        }),
        single.map(|[_, _, mutex, _, bp, ..]| (bp < 0.67 * mutex, pct(bp, mutex))),
        single.map(|[_, _, mutex, sem, ..]| (sem <= mutex, format!("{sem:.1} ≤ {mutex:.1} mW"))),
        c.map(|c| {
            let r5 = c.corr_wakeups_power_idle5;
            (r5 > 0.5, format!("r = {r5:+.3} (paper +0.74)"))
        }),
        c.map(|c| {
            let n = samples(&c.rows[2..], |r| &r.power_mw).len();
            (c.wakeup_effect_significant_99, format!("n = {n}"))
        }),
        fig09.map(|rows| {
            let [mutex, sem, bp, pbpl] = rows.each_ref().map(power);
            let detail =
                format!("PBPL {pbpl:.0} / BP {bp:.0} / Sem {sem:.0} / Mutex {mutex:.0} mW");
            (pbpl < bp && pbpl < sem && pbpl < mutex, detail)
        }),
        fig09.map(|rows| {
            let [mutex, _, bp, pbpl] = rows.each_ref().map(|r| r.wakeups_per_sec.mean);
            let detail = format!("PBPL {pbpl:.0} / BP {bp:.0} / Mutex {mutex:.0} wk/s");
            (pbpl < bp && pbpl < mutex, detail)
        }),
        fig09.map(|rows| {
            let [mutex, _, _, pbpl] = rows.each_ref().map(power);
            (pbpl < 0.8 * mutex, pct(pbpl, mutex))
        }),
        fig09.map(|rows| {
            let [_, _, bp, pbpl] = rows.each_ref().map(|r| r.overflows.mean);
            (pbpl < 0.75 * bp, format!("{pbpl:.0} vs {bp:.0}"))
        }),
        ratio(2).zip(ratio(10)).map(|(g2, g10)| {
            let detail = format!("PBPL/Mutex power ratio {g2:.2} @ M=2 → {g10:.2} @ M=10");
            (g10 < g2, detail)
        }),
        fig11.map(|((bp25, pb25), (bp100, pb100))| {
            let detail = format!("BP {bp25:.0}→{bp100:.0} mW, PBPL {pb25:.0}→{pb100:.0} mW");
            (bp100 < bp25 && pb100 < pb25, detail)
        }),
        fig11.map(|((bp25, pb25), (bp100, pb100))| {
            let (gap25, gap100) = (bp25 - pb25, bp100 - pb100);
            let detail = format!("gap {gap25:.1} mW @ B=25 → {gap100:.1} mW @ B=100");
            (gap100.abs() < gap25.abs(), detail)
        }),
        ablation("PBPL(-latch)")
            .zip(ablation("PBPL"))
            .map(|(no_latch, pbpl)| (no_latch > pbpl, format!("{no_latch:.0} > {pbpl:.0} mW"))),
        (points.len() == WAKEUP_SCALES.len() + 1).then(|| {
            let gaps: Vec<_> = points.iter().map(|p| p.pbpl_vs_bp_pct).collect();
            let shown: Vec<_> = gaps.iter().map(|g| format!("{g:+.1}%")).collect();
            let widens = gaps.windows(2).all(|w| w[1] < w[0]);
            (widens, format!("{} at ω = ¼…4×", shown.join(" → ")))
        }),
        penalty("PBPL").zip(penalty("Mutex")).map(|(pbpl, mutex)| {
            let detail = format!("PBPL {pbpl:+.1}% vs Mutex {mutex:+.1}%");
            (pbpl < mutex, detail)
        }),
    ];
    println!("\n=== reproduction claims ===");
    let claims: Vec<Claim> = CLAIMS
        .into_iter()
        .zip(verdicts)
        .map(|(claim, verdict)| {
            let (verdict, detail) = match verdict {
                Some((true, detail)) => ("pass", detail),
                Some((false, detail)) => ("fail", detail),
                None => ("skip", "cells filtered out".to_string()),
            };
            println!("{:<4}  {claim}  [{detail}]", verdict.to_uppercase());
            Claim {
                claim: claim.to_string(),
                verdict,
                detail,
            }
        })
        .collect();
    let count = |verdict| claims.iter().filter(|c| c.verdict == verdict).count();
    let (passed, failed, skipped) = (count("pass"), count("fail"), count("skip"));
    println!("\n{passed} claims passed, {failed} failed, {skipped} skipped");
    claims
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::quick_protocol;
    use crate::sweep::{execute, Family};

    fn run(experiments: &[&str]) -> AnalysisReport {
        let p = quick_protocol(40, 2, 2);
        let cells: Vec<CellMeta> = Family::Analysis
            .cells(&p)
            .into_iter()
            .filter(|c| experiments.contains(&c.experiment.as_str()))
            .collect();
        let (runs, _) = execute(&p, &cells, false);
        report(&p, &runs)
    }

    fn verdicts(report: &AnalysisReport) -> Vec<&'static str> {
        report.claims.iter().map(|c| c.verdict).collect()
    }

    #[test]
    fn the_full_grid_fills_every_section_and_decides_every_claim() {
        let report = run(&[SINGLE, FIG09, FIG10, FIG11, ABLATION, OMEGA]);
        let correlations = report.correlations.as_ref().expect("section ran");
        assert_eq!(correlations.rows.len(), 7);
        assert!(correlations.rows[5].name.starts_with("PBP@"));
        assert_eq!(report.ablations.len(), 1 + ABLATIONS.len());
        assert_eq!(report.ablations[0].name, "PBPL");
        assert_eq!(report.menu_penalty.len(), 3);
        assert_eq!(report.sensitivity.len(), 5);
        assert_eq!(report.sensitivity[2].omega_uj, 120.0);
        assert_eq!(report.timeseries.len(), 3);
        let verdicts = verdicts(&report);
        assert_eq!(verdicts.len(), 17);
        assert!(!verdicts.contains(&"skip"), "{verdicts:?}");
        assert_eq!(
            report.failures().len(),
            verdicts.iter().filter(|v| **v == "fail").count()
        );
    }

    /// A filtered run reports only the sections whose cells ran, and a
    /// claim whose cells were filtered out is skipped, not failed.
    #[test]
    fn a_filtered_run_skips_what_did_not_run() {
        let report = run(&[ABLATION, OMEGA]);
        assert!(report.correlations.is_none());
        assert!(report.menu_penalty.is_empty() && report.timeseries.is_empty());
        // ω = 1× is Fig. 9's row: the other four points report, and
        // the monotonicity claim, which needs all five, is skipped.
        assert_eq!(report.sensitivity.len(), 4);
        assert_eq!(report.ablations.len(), ABLATIONS.len(), "no full row");
        assert!(verdicts(&report).iter().all(|v| *v == "skip"));
        assert!(report.failures().is_empty());

        let report = run(&[FIG09]);
        assert_eq!(report.ablations.len(), 1);
        assert_eq!(report.menu_penalty.len(), 3);
        let decided = verdicts(&report).iter().filter(|v| **v != "skip").count();
        assert_eq!(decided, 4 + 1, "the four Fig. 9 claims and the menu claim");

        let empty = super::report(&quick_protocol(40, 1, 1), &[]);
        assert!(verdicts(&empty).iter().all(|v| *v == "skip"));
    }
}
