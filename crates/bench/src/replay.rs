//! Executable trace replay: re-drive a recorded cell and fail on the
//! first divergence.
//!
//! The oracle (`crate::oracle`) *verifies* a recorded stream against
//! the system invariants; this module goes the other way and *re-runs*
//! the execution the stream came from. A [`CellMeta`] header is a
//! complete replay recipe — strategy (label + exact `period_ns`),
//! named workload, horizon, geometry, seed, and the fault scenario
//! whose plan re-expands deterministically from `(scenario, seed,
//! env)` — so [`run_cell`] reconstructs the experiment, runs it with
//! a recorder attached, and [`first_divergence`] compares the
//! regenerated event stream against the recording event-by-event
//! (sequence number, sim time and payload all must match). The first
//! mismatch is reported wasm-rr-style with a ±`CONTEXT_WINDOW`-event
//! context window; `replay --digest-only` skips the per-event diff and
//! compares the FNV canonical-JSON digests instead.
//!
//! The header is the *only* cell type: the `sweep` runner expands
//! every family into headers and runs live cells through the same
//! [`run_cell`], so every exported cell replays by construction.
//! [`parse_export`] backs the `replay` binary, and the golden fixtures
//! under `tests/fixtures/` are rendered by [`render_fixture`] from the
//! [`fixture_defs`] table —
//! regeneration is `cargo run -p pc-bench --bin replay --
//! --regen-fixtures` (see DESIGN.md §12).

use crate::oracle::{self, CellMeta, TraceLine};
use pc_core::{Experiment, OverloadConfig, PbplConfig, PredictorKind, RunMetrics, StrategyKind};
use pc_faults::{ExpandEnv, FaultPlan, FaultScenario};
use pc_power::PowerModel;
use pc_sim::{SimDuration, SimTime};
use pc_trace::{PlanetConfig, Trace, WorldCupConfig};
use pc_trace_events::{
    event_to_json, Event, PackedEvents, Recorder, TraceHandle, TraceLog, DEFAULT_RECORDER_CAPACITY,
    TRACE_SCHEMA_VERSION,
};
use std::io::BufRead;
use std::path::PathBuf;
use std::sync::Arc;

/// One cell reassembled from a JSONL export: its header plus the event
/// lines that followed it, packed.
#[derive(Debug, Clone)]
pub struct CellTrace {
    /// The cell's header line.
    pub meta: CellMeta,
    /// The recording, in stream order; `dropped` is the header's.
    pub log: TraceLog,
}

impl CellTrace {
    /// A cell holding `events` under `meta`, whose `dropped` count the
    /// log takes over.
    pub fn new(meta: CellMeta, events: PackedEvents) -> Self {
        let log = TraceLog {
            schema_version: TRACE_SCHEMA_VERSION,
            events,
            dropped: meta.dropped,
        };
        CellTrace { meta, log }
    }
}

/// A parse failure, located by 1-based line number so CLI callers can
/// print `path:line: message`.
#[derive(Debug, Clone)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

/// Parses a JSONL trace export into cells. Blank lines are skipped;
/// an event before any cell header, an unreadable line, or malformed
/// JSON is an error with its line number.
pub fn parse_export(reader: impl BufRead) -> Result<Vec<CellTrace>, ParseError> {
    let mut cells: Vec<CellTrace> = Vec::new();
    for (index, line) in reader.lines().enumerate() {
        let lineno = index + 1;
        let line = line.map_err(|e| ParseError {
            line: lineno,
            msg: format!("read error: {e}"),
        })?;
        if line.trim().is_empty() {
            continue;
        }
        match oracle::line_from_json(&line) {
            Ok(TraceLine::Cell(meta)) => cells.push(CellTrace::new(meta, PackedEvents::new())),
            Ok(TraceLine::Ev(ev)) => match cells.last_mut() {
                Some(cell) => cell.log.events.push(&ev),
                None => {
                    return Err(ParseError {
                        line: lineno,
                        msg: "event before any cell header".to_string(),
                    })
                }
            },
            Err(e) => {
                return Err(ParseError {
                    line: lineno,
                    msg: format!("bad line: {e}"),
                })
            }
        }
    }
    Ok(cells)
}

/// Opens and parses a JSONL export file; errors are prefixed with
/// `path:line`.
pub fn parse_export_file(path: &str) -> Result<Vec<CellTrace>, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    parse_export(std::io::BufReader::new(file)).map_err(|e| format!("{path}:{}: {}", e.line, e.msg))
}

/// The workload registry: every exportable workload is one of these
/// named configurations, compared with the horizon normalised away
/// (the experiment builder stretches the horizon to the run duration).
#[derive(Debug, Clone)]
pub enum Workload {
    /// Single shared World-Cup trace config (suite, chaos and overload
    /// cells).
    WorldCup(WorldCupConfig),
    /// Planet-fleet config; the per-pair fleet regenerates from
    /// `(config, seed, pairs)` (scale and overload m100 cells).
    Planet(PlanetConfig),
}

/// Name of the World-Cup workload `cfg`, ignoring its horizon — or
/// `None` if it matches no registered configuration (such a cell could
/// not be replayed, so exporters refuse to write it).
pub(crate) fn worldcup_workload_label(cfg: &WorldCupConfig) -> Option<&'static str> {
    let mut paper = WorldCupConfig::paper_default();
    paper.horizon = cfg.horizon;
    if *cfg == paper {
        return Some("worldcup_paper");
    }
    let mut quick = WorldCupConfig::quick_test();
    quick.horizon = cfg.horizon;
    if *cfg == quick {
        return Some("worldcup_quick");
    }
    None
}

/// Name of the planet-fleet workload `cfg`, ignoring the base horizon.
pub(crate) fn planet_workload_label(cfg: &PlanetConfig) -> Option<&'static str> {
    let mut scale = PlanetConfig::scale_default();
    scale.base.horizon = cfg.base.horizon;
    if *cfg == scale {
        return Some("planet_scale");
    }
    let mut quick = PlanetConfig::quick_test();
    quick.base.horizon = cfg.base.horizon;
    if *cfg == quick {
        return Some("planet_quick");
    }
    None
}

/// Maps a workload name back to its constructor.
pub(crate) fn workload_by_name(name: &str) -> Option<Workload> {
    match name {
        "worldcup_paper" => Some(Workload::WorldCup(WorldCupConfig::paper_default())),
        "worldcup_quick" => Some(Workload::WorldCup(WorldCupConfig::quick_test())),
        "planet_scale" => Some(Workload::Planet(PlanetConfig::scale_default())),
        "planet_quick" => Some(Workload::Planet(PlanetConfig::quick_test())),
        _ => None,
    }
}

/// A run condition a registered label suffix names. [`run_cell`]
/// applies it beside the strategy, so the label alone stays the cell's
/// whole recipe and `CellMeta` needs no field for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Condition {
    /// The experiment builder's defaults.
    Plain,
    /// [`OverloadConfig::standard`], suffix `(overload)`.
    Overload,
    /// The wakeup energy ω of [`PowerModel::exynos_like`] scaled by
    /// this factor, suffix `(omega*FACTOR)`.
    WakeupScale(f64),
}

/// Every registered label suffix, with the condition it names.
const SUFFIXES: [(&str, Condition); 5] = [
    ("(overload)", Condition::Overload),
    ("(omega*0.25)", Condition::WakeupScale(0.25)),
    ("(omega*0.5)", Condition::WakeupScale(0.5)),
    ("(omega*2)", Condition::WakeupScale(2.0)),
    ("(omega*4)", Condition::WakeupScale(4.0)),
];

/// The wakeup-energy factors the ω suffixes register, in order.
pub(crate) const WAKEUP_SCALES: [f64; 4] = [0.25, 0.5, 2.0, 4.0];

/// Every PBPL configuration a label names, and the label: `PBPL` is
/// [`PbplConfig::default`], each other entry changes the fields its
/// label names. One table drives both [`label`] and
/// [`rebuild_strategy`], so a config with no entry has no label.
pub(crate) fn pbpl_variants() -> [(&'static str, PbplConfig); 11] {
    use PredictorKind::{Ewma, Holt, Kalman};
    fn with(edit: impl FnOnce(&mut PbplConfig)) -> PbplConfig {
        let mut cfg = PbplConfig::default();
        edit(&mut cfg);
        cfg
    }
    let ms = SimDuration::from_millis;
    [
        ("PBPL", PbplConfig::default()),
        ("PBPL(fixed)", with(|c| c.resizing = false)),
        ("PBPL(degraded)", with(|c| c.degrade.enabled = true)),
        ("PBPL(-latch)", with(|c| c.latching = false)),
        ("PBPL(-piggy)", with(|c| c.piggyback = false)),
        (
            "PBPL(-both)",
            with(|c| (c.latching, c.resizing) = (false, false)),
        ),
        ("PBPL(ewma)", with(|c| c.predictor = Ewma { alpha: 0.35 })),
        (
            "PBPL(holt)",
            with(|c| {
                c.predictor = Holt {
                    alpha: 0.5,
                    beta: 0.25,
                }
            }),
        ),
        (
            "PBPL(kalman)",
            with(|c| c.predictor = Kalman { q: 4.0e5, r: 4.0e6 }),
        ),
        ("PBPL(d=10ms)", with(|c| c.slot = ms(10))),
        ("PBPL(d=50ms)", with(|c| c.slot = ms(50))),
    ]
}

/// Why a strategy has no label, or a label no strategy.
#[derive(Debug, Clone, PartialEq)]
pub enum LabelError {
    /// A PBPL config or run condition with no registered label.
    Unregistered(String),
    /// A label whose base names no registered strategy.
    UnknownStrategy(String),
    /// A label ending in an ω suffix that is not registered.
    UnknownSuffix(String),
    /// A periodic strategy's label in a header whose `period_ns` is 0.
    MissingPeriod(String),
}

impl std::fmt::Display for LabelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LabelError::Unregistered(what) => write!(f, "{what} has no registered label"),
            LabelError::UnknownStrategy(label) => write!(f, "unknown strategy label {label:?}"),
            LabelError::UnknownSuffix(label) => {
                write!(f, "label {label:?} ends in an unregistered ω suffix")
            }
            LabelError::MissingPeriod(label) => {
                write!(f, "strategy {label} needs period_ns, but the header says 0")
            }
        }
    }
}

impl std::error::Error for LabelError {}

impl From<LabelError> for String {
    fn from(e: LabelError) -> String {
        e.to_string()
    }
}

/// Splits a label into its base strategy label and the condition its
/// registered suffix names.
fn split_label(label: &str) -> Result<(&str, Condition), LabelError> {
    for (suffix, condition) in SUFFIXES {
        if let Some(base) = label.strip_suffix(suffix) {
            return Ok((base, condition));
        }
    }
    if label.contains("(omega") {
        return Err(LabelError::UnknownSuffix(label.to_string()));
    }
    Ok((label, Condition::Plain))
}

/// The run condition a label's suffix names.
pub(crate) fn condition(label: &str) -> Result<Condition, LabelError> {
    split_label(label).map(|(_, condition)| condition)
}

/// Whether a strategy label carries the `(overload)` suffix — the
/// overload sweep's marker that the cell ran under
/// [`OverloadConfig::standard`].
pub(crate) fn label_overloaded(label: &str) -> bool {
    condition(label) == Ok(Condition::Overload)
}

/// Display label of a strategy under a run condition, the `strategy`
/// field of a [`CellMeta`]: periods in µs, a PBPL variant by its
/// `pbpl_variants` name, then the condition's registered suffix.
/// `rebuild_strategy` inverts it; an unregistered config or condition
/// is an error that names it.
pub fn label(strategy: &StrategyKind, condition: Condition) -> Result<String, LabelError> {
    let base = match strategy {
        StrategyKind::Pbp { period } => format!("PBP@{}us", period.as_nanos() / 1_000),
        StrategyKind::Spbp { period } => format!("SPBP@{}us", period.as_nanos() / 1_000),
        StrategyKind::Pbpl(cfg) => pbpl_variants()
            .into_iter()
            .find(|(_, registered)| registered == cfg)
            .ok_or_else(|| LabelError::Unregistered(format!("{cfg:?}")))?
            .0
            .to_string(),
        other => other.name().to_string(),
    };
    let suffix = match condition {
        Condition::Plain => "",
        _ => {
            SUFFIXES
                .iter()
                .find(|(_, registered)| *registered == condition)
                .ok_or_else(|| LabelError::Unregistered(format!("{condition:?}")))?
                .0
        }
    };
    Ok(format!("{base}{suffix}"))
}

/// Inverts the strategy display label (plus the exact `period_ns` for
/// the periodic strategies — the label's microseconds are truncated).
/// A registered suffix names a run condition, not the strategy;
/// [`run_cell`] applies it separately. The inverse of [`label`].
pub(crate) fn rebuild_strategy(meta: &CellMeta) -> Result<StrategyKind, LabelError> {
    let (label, _) = split_label(&meta.strategy)?;
    let period = || match meta.period_ns {
        0 => Err(LabelError::MissingPeriod(label.to_string())),
        ns => Ok(SimDuration::from_nanos(ns)),
    };
    match label {
        "BW" => Ok(StrategyKind::BusyWait),
        "Yield" => Ok(StrategyKind::Yield),
        "Mutex" => Ok(StrategyKind::Mutex),
        "Sem" => Ok(StrategyKind::Sem),
        "BP" => Ok(StrategyKind::Bp),
        _ if label.starts_with("PBP@") => Ok(StrategyKind::Pbp { period: period()? }),
        _ if label.starts_with("SPBP@") => Ok(StrategyKind::Spbp { period: period()? }),
        _ => pbpl_variants()
            .into_iter()
            .find(|(name, _)| *name == label)
            .map(|(_, cfg)| StrategyKind::Pbpl(cfg))
            .ok_or_else(|| LabelError::UnknownStrategy(label.to_string())),
    }
}

/// The cell's fault plan, re-expanded from `(scenario, seed)` and its
/// geometry — empty for a fault-free cell. The pool total mirrors the
/// sim's own construction (`B₀ · M` for batching strategies, zero
/// otherwise).
pub fn fault_plan(meta: &CellMeta) -> Result<FaultPlan, String> {
    if meta.scenario.is_empty() {
        return Ok(FaultPlan::empty());
    }
    let scenario = FaultScenario::from_name(&meta.scenario)
        .ok_or_else(|| format!("unknown fault scenario {:?}", meta.scenario))?;
    let env = ExpandEnv {
        horizon_ns: meta.duration_ns,
        pairs: meta.pairs as u32,
        cores: meta.cores as u32,
        pool_total: if rebuild_strategy(meta)?.is_batching() {
            meta.buffer * meta.pairs
        } else {
            0
        },
    };
    Ok(FaultPlan::expand(scenario, meta.seed, &env))
}

/// The per-pair fleet of a planet-workload cell, generated from
/// `(config, seed, pairs)` with the config's horizon stretched to the
/// run so the diurnal cycle spans it; `None` for a World-Cup cell.
/// Cells that differ only in strategy share one fleet.
pub fn fleet(meta: &CellMeta) -> Result<Option<Vec<Trace>>, String> {
    match workload_by_name(&meta.workload) {
        Some(Workload::WorldCup(_)) => Ok(None),
        Some(Workload::Planet(mut cfg)) => {
            cfg.base.horizon = SimTime::ZERO + SimDuration::from_nanos(meta.duration_ns);
            Ok(Some(cfg.traces(meta.seed, meta.pairs as usize)))
        }
        None => Err(format!("unknown workload {:?}", meta.workload)),
    }
}

/// Runs the cell `meta` describes — the one path every live and
/// replayed cell takes. `fleet` is a pre-generated [`fleet`] to share
/// (generated here when `None`); `record` is the recorder bound, or
/// `None` for an unrecorded run. A closed scheduler ledger (DESIGN.md §14) is part of
/// the contract: a drift is an error, not a result.
pub fn run_cell(
    meta: &CellMeta,
    fleet: Option<&Arc<Vec<Trace>>>,
    record: Option<usize>,
) -> Result<(RunMetrics, Option<TraceLog>), String> {
    if meta.duration_ns == 0 {
        return Err("header duration_ns is 0".to_string());
    }
    let mut overload = OverloadConfig::default();
    let mut power = PowerModel::exynos_like();
    match condition(&meta.strategy)? {
        Condition::Plain => {}
        Condition::Overload => overload = OverloadConfig::standard(),
        Condition::WakeupScale(factor) => power.wakeup_energy_j *= factor,
    }
    let recorder = record.map(Recorder::bounded);
    let builder = Experiment::builder()
        .pairs(meta.pairs as usize)
        .cores(meta.cores as usize)
        .duration(SimDuration::from_nanos(meta.duration_ns))
        .strategy(rebuild_strategy(meta)?)
        .seed(meta.seed)
        .buffer_capacity(meta.buffer as usize)
        .overload(overload)
        .power(power)
        .faults(fault_plan(meta)?)
        .record_events(
            recorder
                .as_ref()
                .map_or_else(TraceHandle::disabled, |r| r.handle()),
        );
    let builder = match (workload_by_name(&meta.workload), fleet) {
        (None, _) => return Err(format!("unknown workload {:?}", meta.workload)),
        (Some(Workload::WorldCup(cfg)), _) => builder.trace(cfg),
        (Some(Workload::Planet(_)), Some(fleet)) => builder.shared_traces(Arc::clone(fleet)),
        (Some(Workload::Planet(_)), None) => {
            builder.shared_traces(Arc::new(self::fleet(meta)?.expect("planet workload")))
        }
    };
    let metrics = builder.run();
    if !metrics.scheduler.ledger_balanced() {
        return Err(format!(
            "scheduler ledger out of balance: {:?}",
            metrics.scheduler
        ));
    }
    Ok((metrics, recorder.map(|r| r.take())))
}

/// Why [`rerecord`] could not regenerate a cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RerecordError {
    /// The header's `events` field implies no recorder bound this
    /// platform can hold.
    EventsOutOfRange(u64),
    /// The header names no runnable cell (see [`run_cell`]).
    Run(String),
}

impl std::fmt::Display for RerecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RerecordError::EventsOutOfRange(events) => write!(
                f,
                "header field `events` = {events} implies no recorder bound (must stay below usize::MAX)"
            ),
            RerecordError::Run(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for RerecordError {}

/// Runs `meta` recorded under the bound its header implies: a truncated
/// recording (`dropped > 0`) was cut at exactly `events`; a complete
/// one needs room for at least one event more than it holds, so a
/// longer regenerated stream shows as a divergence rather than a drop.
pub fn rerecord(meta: &CellMeta) -> Result<TraceLog, RerecordError> {
    let events = usize::try_from(meta.events).ok();
    let bound = if meta.dropped > 0 {
        events
    } else {
        events
            .and_then(|n| n.checked_add(1))
            .map(|n| n.max(DEFAULT_RECORDER_CAPACITY))
    };
    let bound = bound.ok_or(RerecordError::EventsOutOfRange(meta.events))?;
    let (_, log) = run_cell(meta, None, Some(bound)).map_err(RerecordError::Run)?;
    Ok(log.expect("recorded run"))
}

/// Events shown on each side of a divergence.
pub(crate) const CONTEXT_WINDOW: usize = 8;

/// The first point where a regenerated stream departs from the
/// recording.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Index into the streams of the first mismatch.
    pub index: usize,
    /// What the recording holds there (`None`: recording ended early).
    pub expected: Option<Event>,
    /// What the replay produced there (`None`: replay ended early).
    pub got: Option<Event>,
}

impl Divergence {
    /// Sequence number of the first divergent event (the recording's
    /// if present, else the replay's).
    pub fn seq(&self) -> u64 {
        self.expected
            .as_ref()
            .or(self.got.as_ref())
            .map(|e| e.seq)
            .expect("a divergence names at least one event")
    }
}

/// Compares the recording against the regenerated stream event-by-event
/// (seq, sim time and payload). Returns the first divergence, or `None`
/// when the streams are identical.
pub fn first_divergence(recorded: &[Event], regenerated: &[Event]) -> Option<Divergence> {
    let n = recorded.len().max(regenerated.len());
    for i in 0..n {
        let expected = recorded.get(i);
        let got = regenerated.get(i);
        if expected != got {
            return Some(Divergence {
                index: i,
                expected: expected.cloned(),
                got: got.cloned(),
            });
        }
    }
    None
}

fn side(label: &str, events: &[Event], index: usize, out: &mut String) {
    let lo = index.saturating_sub(CONTEXT_WINDOW);
    let hi = (index + CONTEXT_WINDOW + 1).min(events.len());
    out.push_str(&format!("  {label} [{lo}..{hi}):\n"));
    if lo >= hi {
        out.push_str("    (stream ended)\n");
        return;
    }
    for (i, ev) in events.iter().enumerate().take(hi).skip(lo) {
        let marker = if i == index { '>' } else { ' ' };
        out.push_str(&format!("   {marker} {}\n", ev.summary()));
    }
}

/// Renders a divergence wasm-rr-style: the mismatching pair as
/// canonical JSON (every field, so two events that differ only where
/// [`Event::summary`] is silent still print differently), then a
/// ±[`CONTEXT_WINDOW`]-event window of both streams in terse summaries
/// with the divergent index marked.
pub(crate) fn divergence_message(
    recorded: &[Event],
    regenerated: &[Event],
    d: &Divergence,
) -> String {
    let mut out = String::new();
    let describe = |ev: &Option<Event>, ended: &str| match ev {
        Some(ev) => event_to_json(ev),
        None => ended.to_string(),
    };
    out.push_str(&format!(
        "first divergence at index {} (seq {}): expected {}, got {}\n",
        d.index,
        d.seq(),
        describe(&d.expected, "end of recording"),
        describe(&d.got, "end of replay"),
    ));
    side("recorded", recorded, d.index, &mut out);
    side("replayed", regenerated, d.index, &mut out);
    out
}

/// Outcome of replaying one cell.
pub enum CellReplay {
    /// The regenerated stream matched the recording exactly.
    Match {
        /// Events compared.
        events: u64,
    },
    /// The streams differ; the report includes the context window.
    Diverged {
        /// First divergent sequence number.
        seq: u64,
        /// Human-readable report (`divergence_message`).
        report: String,
    },
    /// The cell could not be reconstructed (unknown strategy, workload
    /// or scenario, or a zero duration).
    Unreplayable(String),
}

/// Completes a header from its cell's recording: event count, drop
/// count and digest.
pub fn seal(meta: &mut CellMeta, log: &TraceLog) {
    meta.events = log.events.len() as u64;
    meta.dropped = log.dropped;
    meta.digest = log.digest();
}

/// Checks a recording against itself before any re-execution: the
/// event count and digest against the header (drift or tampering
/// between export and replay is caught, not assumed away), then the
/// replay oracle. Returns one line per problem.
pub fn check_recording(cell: &CellTrace) -> Vec<String> {
    let mut problems = Vec::new();
    let events = &cell.log.events;
    if events.len() as u64 != cell.meta.events {
        problems.push(format!(
            "event count {} != header {}",
            events.len(),
            cell.meta.events
        ));
    }
    let recomputed = cell.log.digest();
    if recomputed != cell.meta.digest {
        problems.push(format!(
            "digest {recomputed:016x} != header {:016x}",
            cell.meta.digest
        ));
    }
    problems.extend(oracle::check(&cell.log).violations);
    problems
}

/// Replays one cell end-to-end. With `digest_only`, the event streams
/// are compared through their FNV canonical-JSON digests instead of
/// event-by-event — same verdict on match, coarser report on mismatch.
///
/// Packed streams encode canonically, so equal bytes are equal events:
/// a matching replay is one byte comparison, and only a divergent one
/// decodes both streams to locate and report the mismatch.
pub fn replay_cell(cell: &CellTrace, digest_only: bool) -> CellReplay {
    let regenerated = match rerecord(&cell.meta) {
        Ok(log) => log,
        Err(e) => return CellReplay::Unreplayable(e.to_string()),
    };
    let recorded = &cell.log.events;
    let matched = CellReplay::Match {
        events: recorded.len() as u64,
    };
    let decode = |events: &PackedEvents| events.iter().collect::<Vec<Event>>();
    if digest_only {
        let expected = cell.log.digest();
        let got = regenerated.digest();
        if expected == got {
            return matched;
        }
        // Fall through to the event-level diff only to find the seq —
        // the caller asked for digests, so keep the report terse.
        let seq = first_divergence(&decode(recorded), &decode(&regenerated.events))
            .map(|d| d.seq())
            .unwrap_or(0);
        return CellReplay::Diverged {
            seq,
            report: format!(
                "digest mismatch: recorded {expected:016x}, replayed {got:016x} (first divergent seq {seq})\n"
            ),
        };
    }
    if *recorded == regenerated.events {
        return matched;
    }
    let (recorded, regenerated) = (decode(recorded), decode(&regenerated.events));
    let d = first_divergence(&recorded, &regenerated)
        .expect("unequal packed streams hold unequal events");
    CellReplay::Diverged {
        seq: d.seq(),
        report: divergence_message(&recorded, &regenerated, &d),
    }
}

/// Directory of the checked-in golden fixtures (`tests/fixtures/` at
/// the repository root).
pub fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures")
}

/// The golden fixture cells: one canonical cell from each sweep family
/// (suite, chaos, scale, overload), on the quick workloads so the
/// checked-in files stay small. The `events`/`dropped`/`digest` fields
/// are prototypes — [`render_fixture`] fills them from the actual run.
pub fn fixture_defs() -> Vec<(&'static str, CellMeta)> {
    let proto = |experiment: &str,
                 strategy: &str,
                 pairs: u64,
                 cores: u64,
                 buffer: u64,
                 seed: u64,
                 duration_ns: u64,
                 workload: &str,
                 scenario: &str| CellMeta {
        experiment: experiment.to_string(),
        strategy: strategy.to_string(),
        pairs,
        cores,
        buffer,
        seed,
        duration_ns,
        workload: workload.to_string(),
        scenario: scenario.to_string(),
        period_ns: 0,
        events: 0,
        dropped: 0,
        digest: 0,
    };
    vec![
        // The paper's Fig. 9 point under PBPL: slot reservations,
        // elastic pool traffic and core spans all present.
        (
            "suite_cell.jsonl",
            proto(
                "fig09_five_consumers",
                "PBPL",
                5,
                2,
                25,
                7,
                30_000_000,
                "worldcup_quick",
                "",
            ),
        ),
        // A rate shock against degraded PBPL: fault windows plus the
        // watchdog's emergency rebalance path.
        (
            "chaos_cell.jsonl",
            proto(
                "chaos_rate_shock",
                "PBPL(degraded)",
                5,
                2,
                25,
                11,
                60_000_000,
                "worldcup_quick",
                "rate_shock",
            ),
        ),
        // The scale sweep's smallest point on the planet fleet.
        (
            "scale_cell.jsonl",
            proto(
                "scale_m10",
                "PBPL",
                10,
                2,
                25,
                3,
                30_000_000,
                "planet_quick",
                "",
            ),
        ),
        // A flash crowd against overload-controlled PBPL: admission
        // actually trips (the horizon is long enough for the surge to
        // push service lag past the standard 50 ms deadline), so the
        // fixture pins the shed path — `ItemShed` events, paired
        // `OverloadEntered`/`OverloadCleared` windows and the
        // shed-aware conservation law — byte-for-byte.
        (
            "overload_cell.jsonl",
            proto(
                "overload_flash_crowd",
                "PBPL(overload)",
                5,
                2,
                25,
                11,
                400_000_000,
                "worldcup_quick",
                "flash_crowd",
            ),
        ),
    ]
}

/// Renders one fixture: re-runs the prototype cell, completes the
/// header from the recording, and returns the exact JSONL bytes the
/// checked-in file must contain.
pub fn render_fixture(proto: &CellMeta) -> Result<String, String> {
    let log = rerecord(proto).map_err(|e| e.to_string())?;
    let mut meta = proto.clone();
    seal(&mut meta, &log);
    let mut out = Vec::new();
    oracle::write_cell(&mut out, &meta, &log.events).map_err(|e| e.to_string())?;
    Ok(String::from_utf8(out).expect("trace JSON is UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_trace_events::TraceEvent;

    fn meta(strategy: &str, scenario: &str) -> CellMeta {
        CellMeta {
            experiment: "test".into(),
            strategy: strategy.into(),
            pairs: 2,
            cores: 2,
            buffer: 25,
            seed: 5,
            duration_ns: 20_000_000,
            workload: "worldcup_quick".into(),
            scenario: scenario.into(),
            period_ns: 0,
            events: 0,
            dropped: 0,
            digest: 0,
        }
    }

    /// Every label any family emits (and so every `--list` name's
    /// strategy) rebuilds a strategy that labels back to it, with the
    /// exact period.
    #[test]
    fn strategy_labels_roundtrip() {
        let p = crate::exp::quick_protocol(20, 1, 1);
        let mut seen = std::collections::BTreeSet::new();
        for family in crate::sweep::Family::ALL {
            for cell in family.cells(&p) {
                let strategy = rebuild_strategy(&cell).unwrap();
                let condition = condition(&cell.strategy).unwrap();
                assert_eq!(label(&strategy, condition).unwrap(), cell.strategy);
                assert_eq!(oracle::strategy_period_ns(&strategy), cell.period_ns);
                seen.insert(cell.strategy);
            }
        }
        for label in [
            "BW",
            "Yield",
            "PBP@27000us",
            "PBPL(fixed)",
            "PBPL(degraded)",
            "PBPL(overload)",
            "PBPL(-latch)",
            "PBPL(-piggy)",
            "PBPL(-both)",
            "PBPL(ewma)",
            "PBPL(holt)",
            "PBPL(kalman)",
            "PBPL(d=10ms)",
            "PBPL(d=50ms)",
            "Mutex(omega*0.25)",
            "BP(omega*0.5)",
            "PBPL(omega*2)",
            "PBPL(omega*4)",
        ] {
            assert!(seen.contains(label), "{label} missing from {seen:?}");
        }
        match rebuild_strategy(&meta("PBPL(fixed)", "")).unwrap() {
            StrategyKind::Pbpl(cfg) => assert!(!cfg.resizing),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            rebuild_strategy(&meta("NOPE", "")),
            Err(LabelError::UnknownStrategy("NOPE".into()))
        );
        // Periodic labels without the exact period are unreplayable.
        assert_eq!(
            rebuild_strategy(&meta("PBP@100us", "")),
            Err(LabelError::MissingPeriod("PBP@100us".into()))
        );
    }

    /// Every registered PBPL variant is a distinct config, so the table
    /// maps each label to one config and back.
    #[test]
    fn pbpl_variants_are_distinct_and_invert() {
        let variants = pbpl_variants();
        for (i, (name, cfg)) in variants.iter().enumerate() {
            assert!(
                variants[..i].iter().all(|(_, other)| other != cfg),
                "{name} repeats a config"
            );
            let strategy = StrategyKind::Pbpl(cfg.clone());
            assert_eq!(label(&strategy, Condition::Plain).unwrap(), *name);
            assert_eq!(rebuild_strategy(&meta(name, "")).unwrap(), strategy);
        }
        assert_eq!(
            rebuild_strategy(&meta("PBPL(degraded)", "")).unwrap(),
            StrategyKind::pbpl_degraded()
        );
    }

    /// A config the label cannot express is an error at label time that
    /// names the config — never another variant's label.
    #[test]
    fn label_rejects_an_unregistered_config_by_name() {
        let cfg = PbplConfig {
            slot: SimDuration::from_millis(7),
            latching: false,
            ..PbplConfig::default()
        };
        let err = label(&StrategyKind::Pbpl(cfg), Condition::Plain).unwrap_err();
        assert!(matches!(err, LabelError::Unregistered(_)), "{err:?}");
        let msg = err.to_string();
        assert!(
            msg.contains("latching: false") && msg.contains("SimDuration(7000000)"),
            "{msg}"
        );
        let err = label(&StrategyKind::Bp, Condition::WakeupScale(3.0)).unwrap_err();
        assert!(err.to_string().contains("3.0"), "{err}");
    }

    /// An ω suffix is a run condition: it rebuilds the base strategy, and
    /// an unregistered one is a typed error, not a silent 1×.
    #[test]
    fn omega_suffixes_rebuild_the_base_or_fail_typed() {
        assert_eq!(
            rebuild_strategy(&meta("PBPL(-latch)(omega*4)", "")).unwrap(),
            rebuild_strategy(&meta("PBPL(-latch)", "")).unwrap()
        );
        assert_eq!(condition("BP(omega*0.5)"), Ok(Condition::WakeupScale(0.5)));
        assert_eq!(condition("BP"), Ok(Condition::Plain));
        for bad in ["BP(omega*3)", "Mutex(omega)"] {
            assert_eq!(
                rebuild_strategy(&meta(bad, "")),
                Err(LabelError::UnknownSuffix(bad.into()))
            );
        }
        let err = run_cell(&meta("BP(omega*3)", ""), None, None).unwrap_err();
        assert!(err.contains("unregistered ω suffix"), "{err}");
    }

    #[test]
    fn workload_labels_roundtrip_and_reject_unknown() {
        let mut cfg = WorldCupConfig::paper_default();
        cfg.horizon = SimTime::from_millis(123); // horizon is normalised away
        assert_eq!(worldcup_workload_label(&cfg), Some("worldcup_paper"));
        assert_eq!(
            worldcup_workload_label(&WorldCupConfig::quick_test()),
            Some("worldcup_quick")
        );
        cfg.mean_rate += 1.0;
        assert_eq!(worldcup_workload_label(&cfg), None);

        assert_eq!(
            planet_workload_label(&PlanetConfig::scale_default()),
            Some("planet_scale")
        );
        assert_eq!(
            planet_workload_label(&PlanetConfig::quick_test()),
            Some("planet_quick")
        );
        assert!(workload_by_name("worldcup_paper").is_some());
        assert!(workload_by_name("nope").is_none());
    }

    #[test]
    fn rerun_is_bit_identical_and_comparator_sees_it() {
        let m = meta("PBPL", "");
        let a = rerecord(&m).unwrap();
        let b = rerecord(&m).unwrap();
        assert!(!a.events.is_empty());
        assert_eq!(a.digest(), b.digest());
        let (a, b): (Vec<Event>, Vec<Event>) =
            (a.events.iter().collect(), b.events.iter().collect());
        assert!(first_divergence(&a, &b).is_none());
    }

    #[test]
    fn a_header_claiming_u64_max_events_is_a_typed_error() {
        let mut m = meta("PBPL", "");
        m.events = u64::MAX;
        let err = rerecord(&m).unwrap_err();
        assert_eq!(err, RerecordError::EventsOutOfRange(u64::MAX));
        assert!(err.to_string().contains("header field `events`"), "{err}");
    }

    #[test]
    fn chaos_rerun_reexpands_the_fault_plan() {
        let m = meta("PBPL(degraded)", "rate_shock");
        let log = rerecord(&m).unwrap();
        assert!(
            log.events
                .iter()
                .any(|e| matches!(e.kind, TraceEvent::FaultInjected { .. })),
            "re-expanded plan must fire"
        );
        assert_eq!(log.digest(), rerecord(&m).unwrap().digest());
    }

    #[test]
    fn overload_labels_rebuild_the_base_strategy_and_rerun_sheds() {
        assert!(label_overloaded("PBPL(overload)"));
        assert!(label_overloaded("BP(overload)"));
        assert!(!label_overloaded("PBPL(degraded)"));
        assert_eq!(
            rebuild_strategy(&meta("PBPL(overload)", "")).unwrap(),
            StrategyKind::pbpl_default()
        );
        assert_eq!(
            rebuild_strategy(&meta("BP(overload)", "")).unwrap(),
            StrategyKind::Bp
        );

        // The label alone is a complete recipe: rerun applies
        // OverloadConfig::standard(), and under a flash crowd the
        // admission controller actually sheds — deterministically.
        // The cell needs to run long enough for the surge window to
        // push service lag past the 50 ms standard deadline on this
        // geometry (one dedicated core per pair).
        let mut m = meta("PBPL(overload)", "flash_crowd");
        m.duration_ns = 800_000_000;
        let log = rerecord(&m).unwrap();
        assert!(
            log.events
                .iter()
                .any(|e| matches!(e.kind, TraceEvent::ItemShed { .. })),
            "flash crowd under overload control must shed"
        );
        assert_eq!(log.digest(), rerecord(&m).unwrap().digest());

        // Same cell without the suffix must not shed (overload stays off).
        let mut vanilla = meta("PBPL", "flash_crowd");
        vanilla.duration_ns = 800_000_000;
        let base = rerecord(&vanilla).unwrap();
        assert!(!base
            .events
            .iter()
            .any(|e| matches!(e.kind, TraceEvent::ItemShed { .. })));
    }

    #[test]
    fn divergence_reports_first_mismatching_seq() {
        let m = meta("BP", "");
        let base: Vec<Event> = rerecord(&m).unwrap().events.iter().collect();
        assert!(base.len() > 20);

        // Retime one event mid-stream.
        let mut retimed = base.clone();
        let idx = base.len() / 2;
        retimed[idx].t_ns += 1;
        let d = first_divergence(&retimed, &base).expect("diverges");
        assert_eq!(d.index, idx);
        assert_eq!(d.seq(), base[idx].seq);
        let msg = divergence_message(&retimed, &base, &d);
        assert!(msg.contains(&format!("seq {}", base[idx].seq)), "{msg}");
        assert!(msg.contains("recorded"), "{msg}");

        // Truncate: the recording ends early.
        let shorter = &base[..base.len() - 3];
        let d = first_divergence(shorter, &base).expect("length mismatch diverges");
        assert_eq!(d.index, base.len() - 3);
        assert!(d.expected.is_none());
        assert!(divergence_message(shorter, &base, &d).contains("end of recording"));
    }

    #[test]
    fn divergence_headline_shows_fields_the_summary_omits() {
        let grow = |pool_available| Event {
            seq: 4,
            t_ns: 100,
            kind: TraceEvent::BufferGrow {
                owner: 1,
                from: 25,
                to: 30,
                want: 40,
                pool_available,
            },
        };
        let (recorded, replayed) = ([grow(20)], [grow(21)]);
        assert_eq!(recorded[0].summary(), replayed[0].summary());
        let d = first_divergence(&recorded, &replayed).expect("diverges");
        let msg = divergence_message(&recorded, &replayed, &d);
        let headline = msg.lines().next().unwrap();
        let (_, pair) = headline.split_once(": expected ").expect("headline shape");
        let (expected, got) = pair.split_once(", got ").expect("headline shape");
        assert_ne!(expected, got, "{headline}");
        assert_eq!(expected, event_to_json(&recorded[0]));
        assert_eq!(got, event_to_json(&replayed[0]));
    }

    #[test]
    fn parse_export_reports_line_numbers() {
        let good = "\n";
        assert!(parse_export(good.as_bytes()).unwrap().is_empty());

        let orphan = r#"{"Ev":{"seq":0,"t_ns":1,"kind":{"Produce":{"pair":0}}}}"#;
        let err = parse_export(orphan.as_bytes()).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.msg.contains("before any cell header"));

        let garbage = "not json\n";
        let err = parse_export(garbage.as_bytes()).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.msg.contains("bad line"));
    }

    #[test]
    fn replay_cell_matches_its_own_recording() {
        let m = meta("Mutex", "");
        let log = rerecord(&m).unwrap();
        let mut full = m.clone();
        full.events = log.events.len() as u64;
        full.dropped = log.dropped;
        full.digest = log.digest();
        let cell = CellTrace::new(full, log.events);
        for digest_only in [false, true] {
            match replay_cell(&cell, digest_only) {
                CellReplay::Match { events } => assert!(events > 0),
                CellReplay::Diverged { report, .. } => panic!("diverged: {report}"),
                CellReplay::Unreplayable(e) => panic!("unreplayable: {e}"),
            }
        }
    }
}
