//! Deterministic structured event log for the producer-consumer system.
//!
//! Every scheduler decision the simulator (and, best-effort, the native
//! runtime) makes can be emitted as a typed [`TraceEvent`] into a bounded
//! in-memory [`Recorder`]. The stream is the input of the replay oracle in
//! `pc-bench` (`pc_bench::oracle`), which re-derives the system invariants
//! — item conservation, elastic-pool conservation, span ordering,
//! reservation consistency — from the events alone.
//!
//! Determinism rules (these are a contract, mirrored in DESIGN.md):
//!
//! * **No wall-clock, ever.** Events carry sim time as integer
//!   nanoseconds (`t_ns`) plus a logical sequence number (`seq`). The
//!   native runtime stamps events with its replay clock's *sim* time,
//!   which is wall-derived and therefore non-deterministic — native
//!   traces are for conservation checks, not digests.
//! * **No floats in payloads.** Every field is an integer, bool or
//!   string, so the serialised stream and its [`digest`] are
//!   platform-stable.
//! * **Zero cost when disabled.** Instrumentation goes through
//!   [`TraceHandle::record`], whose disabled path is a single `Option`
//!   branch; payload construction is a closure that never runs unless a
//!   recorder is attached.
//! * **Bounded memory.** The recorder encodes events into a
//!   [`PackedEvents`] byte stream, about 6 bytes per event (see
//!   [`packed`]). It stores at most its configured capacity, still
//!   counted in events, and counts everything beyond it in
//!   [`TraceLog::dropped`]; the oracle treats a truncated trace as
//!   unverifiable rather than silently passing.

pub mod packed;

pub use packed::PackedEvents;

use serde::{Deserialize, Serialize, Writer};
use std::borrow::Borrow;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Version of the event schema; bump on any change to [`TraceEvent`]
/// variants or fields so recorded streams are self-describing.
///
/// v2: added `FaultInjected` / `FaultRecovered` (deterministic fault
/// injection, DESIGN.md §10). Zero-fault streams are byte-identical to
/// v1 streams, and the digest covers events only, so golden digests
/// survive the bump.
///
/// v3: added `ItemShed` / `OverloadEntered` / `OverloadCleared`
/// (deadline-aware overload control, DESIGN.md §15). Streams recorded
/// with overload control disabled contain none of the new variants and
/// are byte-identical to v2 streams; golden digests survive the bump
/// for the same reason as v2.
pub const TRACE_SCHEMA_VERSION: u32 = 3;

/// What caused a consumer invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Trigger {
    /// A reserved slot (or periodic timer) fired.
    Scheduled,
    /// The buffer filled before the scheduled wakeup.
    Overflow,
    /// Item-driven dispatch (Mutex/Sem sessions, busy strategies).
    Item,
}

/// One typed observation of the system. Payloads are integers only (see
/// the module docs); identifiers are the plain indices the system uses
/// (`pair` = pair/consumer index, `core` = core index, `owner` = the
/// pair index owning an elastic buffer).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A producer emitted one item for `pair`.
    Produce {
        /// Producing pair index.
        pair: u32,
    },
    /// A consumer dispatched a batch of `batch` items.
    Invoke {
        /// Consuming pair index.
        pair: u32,
        /// Why the consumer ran.
        trigger: Trigger,
        /// Items drained by this invocation.
        batch: u64,
        /// Buffer capacity at dispatch time (0 when not applicable).
        capacity: u64,
    },
    /// End-of-run flush of items still buffered when the run stopped.
    Flush {
        /// Pair index being flushed.
        pair: u32,
        /// Items accounted by the flush.
        drained: u64,
    },
    /// A consumer thread woke from a blocking primitive (native runtime).
    Wakeup {
        /// Pair index that woke.
        pair: u32,
    },
    /// `Core::add_active_span` accepted an execution span.
    CoreSpan {
        /// Core index.
        core: u32,
        /// Span start, sim nanoseconds.
        start_ns: u64,
        /// Span end (exclusive), sim nanoseconds.
        end_ns: u64,
        /// Whether the span closed an idle gap (counted one wakeup).
        wakeup: bool,
    },
    /// PBPL slot selection decided where a consumer wakes next.
    SlotSelect {
        /// Planning pair index.
        pair: u32,
        /// Core the pair is pinned to.
        core: u32,
        /// Chosen slot index.
        slot: u64,
        /// Whether the choice latches onto an existing reservation.
        latched: bool,
        /// Whether the predicted rate overran the buffer (§V-C upsizing
        /// trigger).
        rate_overrun: bool,
    },
    /// A consumer reserved a slot with its core manager.
    SlotReserve {
        /// Core whose manager took the reservation.
        core: u32,
        /// Reserving consumer (pair index).
        consumer: u32,
        /// Reserved slot.
        slot: u64,
        /// The consumer's previous reservation, replaced by this one.
        prev: Option<u64>,
    },
    /// A consumer dropped its reservation.
    SlotRelease {
        /// Core whose manager held the reservation.
        core: u32,
        /// Deregistering consumer.
        consumer: u32,
        /// Slot it held.
        slot: u64,
    },
    /// A slot fired and the manager dispatched its reservation list.
    SlotDispatch {
        /// Core whose slot fired.
        core: u32,
        /// The fired slot.
        slot: u64,
        /// Consumers invoked by this one wakeup (reservation order).
        consumers: Vec<u32>,
    },
    /// An elastic buffer was created against the global pool.
    BufferCreate {
        /// Owning pair index.
        owner: u32,
        /// Initial capacity reserved from the pool.
        capacity: u64,
        /// Pool units available after the reservation.
        pool_available: u64,
        /// The pool's fixed total (`B_g`).
        pool_total: u64,
    },
    /// An elastic buffer requested growth (§V-C upsizing; best-effort,
    /// so `to - from` may be less than `want - from`).
    BufferGrow {
        /// Owning pair index.
        owner: u32,
        /// Capacity before the request.
        from: u64,
        /// Capacity after (what the pool granted).
        to: u64,
        /// Requested target capacity.
        want: u64,
        /// Pool units available after the grant.
        pool_available: u64,
    },
    /// An elastic buffer returned capacity to the pool (§V-C downsizing).
    BufferShrink {
        /// Owning pair index.
        owner: u32,
        /// Capacity before the shrink.
        from: u64,
        /// Capacity after (floored by occupancy and `min_capacity`).
        to: u64,
        /// Pool units available after the release.
        pool_available: u64,
    },
    /// An elastic buffer was dropped, releasing its whole capacity.
    BufferDestroy {
        /// Owning pair index.
        owner: u32,
        /// Units released back to the pool.
        released: u64,
        /// Pool units available after the release.
        pool_available: u64,
    },
    /// A fault from the active `FaultPlan` became effective.
    FaultInjected {
        /// Plan-unique fault id, echoed by the matching `FaultRecovered`.
        id: u32,
        /// Stable fault-kind name (`rate_shock`, `producer_stall`,
        /// `consumer_slowdown`, `timer_drift`, `dropped_wakeup`,
        /// `pool_squeeze`).
        kind: String,
        /// Target pair, `u32::MAX` when not pair-scoped.
        pair: u32,
        /// Target core, `u32::MAX` when not core-scoped.
        core: u32,
        /// Kind-specific scalar: fixed-point factor, delay in ns, or —
        /// for `pool_squeeze` — the units actually reserved away.
        param: u64,
        /// Pool units available after injection; `u64::MAX` when the
        /// strategy has no pool (the oracle skips pool accounting then).
        pool_available: u64,
    },
    /// The admission controller rejected one arriving item for `pair`
    /// (DESIGN.md §15). A shed item still counts as produced — the
    /// conservation law over a stream with sheds is
    /// `produced == consumed + shed` — so every `ItemShed` follows the
    /// `Produce` of the same arrival.
    ItemShed {
        /// Pair whose arrival was shed.
        pair: u32,
    },
    /// A pair's admission controller tripped into overload: subsequent
    /// arrivals are shed until the matching `OverloadCleared`.
    OverloadEntered {
        /// Pair entering overload.
        pair: u32,
        /// Buffered occupancy (backlog + buffer) at the trip.
        occupancy: u64,
        /// Whether the fleet supervisor forced the window (correlated
        /// overload escalation) rather than the pair's own estimator.
        escalated: bool,
    },
    /// A pair's overload window closed; admission resumed.
    OverloadCleared {
        /// Pair leaving overload.
        pair: u32,
        /// Items shed during this window — the oracle cross-checks
        /// Σ shed over a pair's windows against its `ItemShed` count.
        shed: u64,
    },
    /// A fault's window closed and its effects were rolled back.
    FaultRecovered {
        /// Id of the fault that cleared.
        id: u32,
        /// Stable fault-kind name (matches the injection).
        kind: String,
        /// Target pair, `u32::MAX` when not pair-scoped.
        pair: u32,
        /// Target core, `u32::MAX` when not core-scoped.
        core: u32,
        /// Kind-specific scalar: for `pool_squeeze` the units returned
        /// to the pool (must equal the injected grant); for
        /// `dropped_wakeup` the wakeups swallowed during the window.
        param: u64,
        /// Pool units available after recovery; `u64::MAX` when no pool.
        pool_available: u64,
    },
}

impl TraceEvent {
    /// Compact human-readable form for diagnostics (replay divergence
    /// messages): variant name plus the discriminating fields, e.g.
    /// `Invoke(pair=3, trigger=Overflow, batch=25)`. Not part of the
    /// canonical serialisation, which is [`event_to_json`]'s.
    pub fn summary(&self) -> String {
        match self {
            TraceEvent::Produce { pair } => format!("Produce(pair={pair})"),
            TraceEvent::Invoke {
                pair,
                trigger,
                batch,
                capacity,
            } => format!("Invoke(pair={pair}, trigger={trigger:?}, batch={batch}, cap={capacity})"),
            TraceEvent::Flush { pair, drained } => {
                format!("Flush(pair={pair}, drained={drained})")
            }
            TraceEvent::Wakeup { pair } => format!("Wakeup(pair={pair})"),
            TraceEvent::CoreSpan {
                core,
                start_ns,
                end_ns,
                wakeup,
            } => format!("CoreSpan(core={core}, [{start_ns}, {end_ns}), wakeup={wakeup})"),
            TraceEvent::SlotSelect {
                pair, core, slot, ..
            } => format!("SlotSelect(pair={pair}, core={core}, slot={slot})"),
            TraceEvent::SlotReserve {
                core,
                consumer,
                slot,
                prev,
            } => {
                format!("SlotReserve(core={core}, consumer={consumer}, slot={slot}, prev={prev:?})")
            }
            TraceEvent::SlotRelease {
                core,
                consumer,
                slot,
            } => format!("SlotRelease(core={core}, consumer={consumer}, slot={slot})"),
            TraceEvent::SlotDispatch {
                core,
                slot,
                consumers,
            } => format!("SlotDispatch(core={core}, slot={slot}, consumers={consumers:?})"),
            TraceEvent::BufferCreate {
                owner, capacity, ..
            } => format!("BufferCreate(owner={owner}, capacity={capacity})"),
            TraceEvent::BufferGrow {
                owner,
                from,
                to,
                want,
                ..
            } => format!("BufferGrow(owner={owner}, {from}->{to}, want={want})"),
            TraceEvent::BufferShrink {
                owner, from, to, ..
            } => format!("BufferShrink(owner={owner}, {from}->{to})"),
            TraceEvent::BufferDestroy {
                owner, released, ..
            } => format!("BufferDestroy(owner={owner}, released={released})"),
            TraceEvent::FaultInjected {
                id, kind, param, ..
            } => format!("FaultInjected(id={id}, kind={kind}, param={param})"),
            TraceEvent::ItemShed { pair } => format!("ItemShed(pair={pair})"),
            TraceEvent::OverloadEntered {
                pair,
                occupancy,
                escalated,
            } => format!(
                "OverloadEntered(pair={pair}, occupancy={occupancy}, escalated={escalated})"
            ),
            TraceEvent::OverloadCleared { pair, shed } => {
                format!("OverloadCleared(pair={pair}, shed={shed})")
            }
            TraceEvent::FaultRecovered {
                id, kind, param, ..
            } => format!("FaultRecovered(id={id}, kind={kind}, param={param})"),
        }
    }
}

/// One recorded event: a [`TraceEvent`] stamped with its logical sequence
/// number and sim time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Event {
    /// Logical sequence number, strictly increasing per recorder
    /// (dropped events still consume numbers).
    pub seq: u64,
    /// Sim time of the emission, nanoseconds since run start.
    pub t_ns: u64,
    /// The observation itself.
    pub kind: TraceEvent,
}

impl Event {
    /// Compact human-readable form: the payload summary stamped with
    /// sim time and sequence number.
    pub fn summary(&self) -> String {
        format!(
            "{} at t={}ns seq={}",
            self.kind.summary(),
            self.t_ns,
            self.seq
        )
    }
}

/// A finished recording: the bounded event stream plus how much of the
/// run overflowed the bound.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceLog {
    /// Schema version the events were recorded under.
    pub schema_version: u32,
    /// Events in emission order, packed.
    pub events: PackedEvents,
    /// Events discarded after the capacity bound was hit.
    pub dropped: u64,
}

impl TraceLog {
    /// An empty log at the current schema version.
    pub fn empty() -> Self {
        TraceLog {
            schema_version: TRACE_SCHEMA_VERSION,
            events: PackedEvents::new(),
            dropped: 0,
        }
    }

    /// FNV-1a digest of the event stream, decoded one event at a time
    /// (see [`digest`]).
    pub fn digest(&self) -> u64 {
        fold_digest(&self.events)
    }
}

struct RecorderInner {
    events: PackedEvents,
    dropped: u64,
}

/// Bounded in-memory event sink. Shared via `Arc`; clone cheap
/// [`TraceHandle`]s from it to thread through the system.
///
/// The recorder keeps a "current sim time" that the simulation engine
/// updates on every event pop ([`Recorder::set_now`] via
/// [`TraceHandle::set_now`]), so emission sites don't need to plumb
/// timestamps; native-runtime sites stamp explicitly with
/// [`TraceHandle::record_at`].
pub struct Recorder {
    inner: Mutex<RecorderInner>,
    now_ns: AtomicU64,
    capacity: usize,
}

/// Default recorder bound: comfortably holds a CI-duration suite cell
/// (~100k events) while capping worst-case memory per live cell.
pub const DEFAULT_RECORDER_CAPACITY: usize = 2_000_000;

impl Recorder {
    /// Creates a recorder bounded to `capacity` events.
    pub fn bounded(capacity: usize) -> Arc<Self> {
        Arc::new(Recorder {
            inner: Mutex::new(RecorderInner {
                events: PackedEvents::new(),
                dropped: 0,
            }),
            now_ns: AtomicU64::new(0),
            capacity,
        })
    }

    /// Creates a recorder with [`DEFAULT_RECORDER_CAPACITY`].
    pub fn new() -> Arc<Self> {
        Self::bounded(DEFAULT_RECORDER_CAPACITY)
    }

    /// A recording handle onto this recorder.
    pub fn handle(self: &Arc<Self>) -> TraceHandle {
        TraceHandle {
            recorder: Some(Arc::clone(self)),
        }
    }

    /// Updates the recorder's notion of "now" (sim nanoseconds).
    pub fn set_now(&self, t_ns: u64) {
        self.now_ns.store(t_ns, Ordering::Relaxed);
    }

    fn push(&self, t_ns: u64, kind: TraceEvent) {
        let mut inner = self.inner.lock().expect("recorder poisoned");
        if inner.events.len() >= self.capacity {
            inner.dropped += 1;
            return;
        }
        let seq = inner.events.len() as u64 + inner.dropped;
        inner.events.encode(seq, t_ns, &kind);
    }

    /// Takes the recording without copying it, leaving the recorder
    /// empty (sequence numbers restart from zero).
    pub fn take(&self) -> TraceLog {
        let mut inner = self.inner.lock().expect("recorder poisoned");
        let events = std::mem::take(&mut inner.events);
        let dropped = std::mem::take(&mut inner.dropped);
        TraceLog {
            schema_version: TRACE_SCHEMA_VERSION,
            events,
            dropped,
        }
    }
}

/// Cheap, cloneable emission endpoint. Disabled by default — the
/// disabled path of every `record*` call is a single branch and the
/// payload closure never runs.
#[derive(Clone, Default)]
pub struct TraceHandle {
    recorder: Option<Arc<Recorder>>,
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl TraceHandle {
    /// A handle that records nothing.
    pub const fn disabled() -> Self {
        TraceHandle { recorder: None }
    }

    /// Whether a recorder is attached.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// Records an event stamped with the recorder's current sim time.
    /// `make` only runs when a recorder is attached.
    #[inline]
    pub fn record(&self, make: impl FnOnce() -> TraceEvent) {
        if let Some(rec) = &self.recorder {
            let t_ns = rec.now_ns.load(Ordering::Relaxed);
            rec.push(t_ns, make());
        }
    }

    /// Records an event at an explicit sim time (native-runtime sites,
    /// where no engine maintains the recorder clock).
    #[inline]
    pub fn record_at(&self, t_ns: u64, make: impl FnOnce() -> TraceEvent) {
        if let Some(rec) = &self.recorder {
            rec.push(t_ns, make());
        }
    }

    /// Forwards the simulation clock to the recorder (no-op when
    /// disabled).
    #[inline]
    pub fn set_now(&self, t_ns: u64) {
        if let Some(rec) = &self.recorder {
            rec.set_now(t_ns);
        }
    }
}

/// FNV-1a (64-bit) over each event's canonical compact JSON followed by
/// `\n` — the payload of an export's `{"Ev":…}` line, not the line
/// itself (JSONL exports wrap every event in that tag).
///
/// The bytes hashed are exactly `event_to_json(ev)` plus `\n`, pinned by
/// the golden fixtures and the golden digests in
/// `tests/sim_invariants.rs`, but most of them are never visited one at
/// a time. About 70% of a line is constant JSON text (`{"seq":`,
/// `,"kind":{"Produce":{"pair":`, `}}}\n`, …), and FNV-1a can jump over
/// a known run in O(1):
///
/// * XOR with a byte touches only bits 0–7 of the state, and the FNV
///   prime `P` is odd, so the state's low byte evolves on its own and
///   alone fixes every XOR delta `(h ^ b) - h` along a run.
/// * Hence for a constant run `c` of `n` bytes, hashing `c` from state
///   `h` is exactly `h·Pⁿ + T_c[h & 0xff]` (wrapping), where `T_c[l]`
///   is the hash of `c` from state `l` minus `l·Pⁿ`.
///
/// Each constant run is one `Run`: `Pⁿ` and its 256-entry `T_c`
/// (2 KiB), built at compile time by a `const fn` into a `static`
/// beside the code that uses it (`run!`). Variable tokens — integers,
/// `null`, strings, the `consumers` array — stay byte-serial through the
/// serde shim's one formatter ([`serde::Writer`]); bools and [`Trigger`]
/// values are constant runs of their own.
///
/// The per-variant template is one `event_template!` invocation. Key
/// literals come from the field identifiers, the match has no `_` arm
/// and every pattern names every field, so a new variant or field fails
/// to compile until it is listed there, in declaration order (the
/// derive's order, which `tests/json_streaming.rs` holds it to).
///
/// Payloads are integers/bools/strings only (module contract), so the
/// digest is platform-stable and bit-deterministic per seed.
/// [`TraceLog::digest`] folds the same hash over a packed stream.
pub fn digest(events: &[Event]) -> u64 {
    fold_digest(events)
}

fn fold_digest(events: impl IntoIterator<Item = impl Borrow<Event>>) -> u64 {
    let mut hash = Fnv1a::new();
    for ev in events {
        hash.event(ev.borrow());
    }
    hash.0
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1_0000_01b3;

/// 64-bit FNV-1a state. As an [`io::Write`] sink it is the byte-serial
/// step for variable tokens; [`Fnv1a::jump`] crosses constant runs.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    #[inline]
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Hashes a constant run in O(1).
    #[inline]
    fn jump(&mut self, run: &Run) {
        self.0 = run.apply(self.0);
    }

    /// Hashes a variable token byte by byte through the shim formatter.
    #[inline]
    fn serial(&mut self, write: impl FnOnce(&mut Writer<&mut Self>) -> io::Result<()>) {
        write(&mut Writer::compact(self)).expect("hashing is infallible");
    }

    #[inline]
    fn token(&mut self, value: &impl Token) {
        value.hash(self);
    }
}

impl io::Write for Fnv1a {
    #[inline]
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.update(bytes);
        Ok(bytes.len())
    }

    #[inline]
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.update(bytes);
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// FNV-1a over one constant byte run, as a jump: `h ↦ h·mul +
/// add[h & 0xff]` (see [`digest`] for why this is exact).
struct Run {
    /// `Pⁿ` for a run of `n` bytes.
    mul: u64,
    /// Per entry low byte `l`: the run hashed from state `l`, minus `l·Pⁿ`.
    add: [u64; 256],
}

impl Run {
    const fn new(text: &str) -> Run {
        let text = text.as_bytes();
        let mut mul = 1u64;
        let mut i = 0;
        while i < text.len() {
            mul = mul.wrapping_mul(FNV_PRIME);
            i += 1;
        }
        let mut add = [0u64; 256];
        let mut low = 0;
        while low < 256 {
            let mut h = low as u64;
            let mut i = 0;
            while i < text.len() {
                h = (h ^ text[i] as u64).wrapping_mul(FNV_PRIME);
                i += 1;
            }
            add[low] = h.wrapping_sub((low as u64).wrapping_mul(mul));
            low += 1;
        }
        Run { mul, add }
    }

    #[inline]
    fn apply(&self, h: u64) -> u64 {
        h.wrapping_mul(self.mul)
            .wrapping_add(self.add[(h & 0xff) as usize])
    }
}

/// A `&'static Run` for a constant text, built at compile time.
macro_rules! run {
    ($text:expr) => {{
        static RUN: Run = Run::new($text);
        &RUN
    }};
}

/// `,"name":` — a field key with its separating comma.
macro_rules! key {
    ($name:ident) => {
        concat!(",\"", stringify!($name), "\":")
    };
}

/// `,"kind":{"Variant":{"first":` — a variant's tag and first key.
macro_rules! head {
    ($variant:ident, $first:ident) => {
        concat!(
            key!(kind),
            "{\"",
            stringify!($variant),
            "\":{\"",
            stringify!($first),
            "\":"
        )
    };
}

/// `{"seq":` — opens every line.
const OPEN: &str = concat!("{\"", stringify!(seq), "\":");

/// `}}}\n` — closes the fields, the variant tag, the event and the line.
const CLOSE: &str = "}}}\n";

/// `"Name"` — a unit variant's JSON string.
macro_rules! unit {
    ($name:ident) => {
        concat!("\"", stringify!($name), "\"")
    };
}

/// One field value inside the event template.
trait Token {
    fn hash(&self, h: &mut Fnv1a);
}

impl Token for u32 {
    #[inline]
    fn hash(&self, h: &mut Fnv1a) {
        h.serial(|w| w.u64(u64::from(*self)));
    }
}

impl Token for u64 {
    #[inline]
    fn hash(&self, h: &mut Fnv1a) {
        h.serial(|w| w.u64(*self));
    }
}

impl Token for Option<u64> {
    #[inline]
    fn hash(&self, h: &mut Fnv1a) {
        h.serial(|w| match self {
            Some(n) => w.u64(*n),
            None => w.null(),
        });
    }
}

impl Token for String {
    #[inline]
    fn hash(&self, h: &mut Fnv1a) {
        h.serial(|w| w.str(self));
    }
}

impl Token for Vec<u32> {
    #[inline]
    fn hash(&self, h: &mut Fnv1a) {
        h.serial(|w| {
            let mut c = w.begin_array()?;
            for &n in self {
                w.element(&mut c)?;
                w.u64(u64::from(n))?;
            }
            w.end_array(c)
        });
    }
}

impl Token for bool {
    #[inline]
    fn hash(&self, h: &mut Fnv1a) {
        h.jump(if *self { run!("true") } else { run!("false") });
    }
}

impl Token for Trigger {
    #[inline]
    fn hash(&self, h: &mut Fnv1a) {
        h.jump(match self {
            Trigger::Scheduled => run!(unit!(Scheduled)),
            Trigger::Overflow => run!(unit!(Overflow)),
            Trigger::Item => run!(unit!(Item)),
        });
    }
}

/// The canonical line of every event as constant runs and tokens:
/// `{"seq":N,"t_ns":N,"kind":{"Variant":{"first":V,"next":V…}}}\n`,
/// with fields listed in declaration order (the derive's order). Emits
/// `Fnv1a::event` and, for the table test, every constant text it jumps.
macro_rules! event_template {
    ($($variant:ident { $first:ident $(, $field:ident)* }),+ $(,)?) => {
        impl Fnv1a {
            #[inline]
            fn event(&mut self, ev: &Event) {
                let Event { seq, t_ns, kind } = ev;
                self.jump(run!(OPEN));
                self.token(seq);
                self.jump(run!(key!(t_ns)));
                self.token(t_ns);
                match kind {
                    $(TraceEvent::$variant { $first $(, $field)* } => {
                        self.jump(run!(head!($variant, $first)));
                        self.token($first);
                        $(
                            self.jump(run!(key!($field)));
                            self.token($field);
                        )*
                    })+
                }
                self.jump(run!(CLOSE));
            }
        }

        #[cfg(test)]
        const TEMPLATE_TEXTS: &[&str] = &[
            OPEN,
            key!(t_ns),
            $(head!($variant, $first), $(key!($field),)*)+
            CLOSE,
        ];
    };
}

event_template! {
    Produce { pair },
    Invoke { pair, trigger, batch, capacity },
    Flush { pair, drained },
    Wakeup { pair },
    CoreSpan { core, start_ns, end_ns, wakeup },
    SlotSelect { pair, core, slot, latched, rate_overrun },
    SlotReserve { core, consumer, slot, prev },
    SlotRelease { core, consumer, slot },
    SlotDispatch { core, slot, consumers },
    BufferCreate { owner, capacity, pool_available, pool_total },
    BufferGrow { owner, from, to, want, pool_available },
    BufferShrink { owner, from, to, pool_available },
    BufferDestroy { owner, released, pool_available },
    FaultInjected { id, kind, pair, core, param, pool_available },
    ItemShed { pair },
    OverloadEntered { pair, occupancy, escalated },
    OverloadCleared { pair, shed },
    FaultRecovered { id, kind, pair, core, param, pool_available },
}

/// Canonical single-line JSON for one event (insertion-ordered keys, no
/// whitespace — the shim's compact form).
pub fn event_to_json(ev: &Event) -> String {
    serde_json::to_string(ev).expect("event serialisation is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(pair: u32) -> TraceEvent {
        TraceEvent::Produce { pair }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let h = TraceHandle::disabled();
        assert!(!h.is_enabled());
        // The payload closure must not run.
        h.record(|| panic!("closure ran on a disabled handle"));
        h.record_at(5, || panic!("closure ran on a disabled handle"));
        h.set_now(9);
    }

    #[test]
    fn records_are_stamped_with_seq_and_now() {
        let rec = Recorder::new();
        let h = rec.handle();
        h.set_now(100);
        h.record(|| ev(0));
        h.set_now(250);
        h.record(|| ev(1));
        h.record_at(7, || ev(2));
        let log = rec.take();
        assert_eq!(log.dropped, 0);
        assert_eq!(log.events.len(), 3);
        let stamps: Vec<(u64, u64)> = log.events.iter().map(|e| (e.seq, e.t_ns)).collect();
        assert_eq!(stamps, [(0, 100), (1, 250), (2, 7)]);
        // take() drains.
        assert!(rec.take().events.is_empty());
    }

    #[test]
    fn capacity_bound_counts_drops() {
        let rec = Recorder::bounded(2);
        let h = rec.handle();
        for i in 0..5 {
            h.record(|| ev(i));
        }
        let log = rec.take();
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.dropped, 3);
    }

    /// Every variant, with both bools, every trigger and `prev` as
    /// `None` and `Some`.
    fn all_variants() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Produce { pair: 3 },
            TraceEvent::Invoke {
                pair: 1,
                trigger: Trigger::Overflow,
                batch: 25,
                capacity: 50,
            },
            TraceEvent::Flush {
                pair: 0,
                drained: 7,
            },
            TraceEvent::Wakeup { pair: 2 },
            TraceEvent::CoreSpan {
                core: 1,
                start_ns: 10,
                end_ns: 20,
                wakeup: true,
            },
            TraceEvent::SlotSelect {
                pair: 0,
                core: 0,
                slot: 41,
                latched: true,
                rate_overrun: false,
            },
            TraceEvent::SlotReserve {
                core: 0,
                consumer: 4,
                slot: 9,
                prev: Some(7),
            },
            TraceEvent::SlotReserve {
                core: 0,
                consumer: 4,
                slot: 9,
                prev: None,
            },
            TraceEvent::SlotRelease {
                core: 1,
                consumer: 0,
                slot: 3,
            },
            TraceEvent::SlotDispatch {
                core: 0,
                slot: 12,
                consumers: vec![0, 2, 4],
            },
            TraceEvent::BufferCreate {
                owner: 0,
                capacity: 25,
                pool_available: 25,
                pool_total: 50,
            },
            TraceEvent::BufferGrow {
                owner: 1,
                from: 25,
                to: 30,
                want: 40,
                pool_available: 0,
            },
            TraceEvent::BufferShrink {
                owner: 1,
                from: 30,
                to: 10,
                pool_available: 20,
            },
            TraceEvent::BufferDestroy {
                owner: 1,
                released: 10,
                pool_available: 50,
            },
            TraceEvent::FaultInjected {
                id: 0,
                kind: "pool_squeeze".to_string(),
                pair: u32::MAX,
                core: u32::MAX,
                param: 35,
                pool_available: 15,
            },
            TraceEvent::FaultRecovered {
                id: 0,
                kind: "dropped_wakeup".to_string(),
                pair: u32::MAX,
                core: 1,
                param: 4,
                pool_available: u64::MAX,
            },
            TraceEvent::ItemShed { pair: 3 },
            TraceEvent::OverloadEntered {
                pair: 3,
                occupancy: 47,
                escalated: false,
            },
            TraceEvent::OverloadEntered {
                pair: 1,
                occupancy: 0,
                escalated: true,
            },
            TraceEvent::OverloadCleared { pair: 3, shed: 12 },
        ]
    }

    /// Parses one event back from its canonical JSON line.
    fn event_from_json(line: &str) -> Result<Event, String> {
        serde_json::from_str(line).map_err(|e| e.to_string())
    }

    fn all_events() -> Vec<Event> {
        all_variants()
            .into_iter()
            .enumerate()
            .map(|(i, kind)| Event {
                seq: i as u64,
                t_ns: 1_000 + i as u64,
                kind,
            })
            .collect()
    }

    #[test]
    fn json_roundtrip_all_variants() {
        for event in all_events() {
            let line = event_to_json(&event);
            let back = event_from_json(&line).expect("roundtrip parses");
            assert_eq!(back, event, "roundtrip mismatch for {line}");
        }
    }

    /// Byte-serial FNV-1a from state `h`: the reference for every jump.
    fn serial(h: u64, bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
    }

    #[test]
    fn every_constant_run_jumps_like_the_serial_hash() {
        let values = [
            "true",
            "false",
            unit!(Scheduled),
            unit!(Overflow),
            unit!(Item),
        ];
        // splitmix64: deterministic pseudo-random high words.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut highs = vec![0, u64::MAX, FNV_OFFSET];
        highs.extend((0..5).map(|_| next()));
        assert!(TEMPLATE_TEXTS.len() > 18, "one head per variant at least");
        for text in TEMPLATE_TEXTS.iter().chain(&values) {
            let run = Run::new(text);
            for &high in &highs {
                for low in 0..256u64 {
                    let h = (high & !0xff) | low;
                    assert_eq!(
                        run.apply(h),
                        serial(h, text.as_bytes()),
                        "{text:?} from {h:#018x}"
                    );
                }
            }
        }
    }

    #[test]
    fn digest_is_the_serial_hash_of_every_canonical_line() {
        let events = all_events();
        let mut bytes = Vec::new();
        for ev in &events {
            bytes.extend_from_slice(event_to_json(ev).as_bytes());
            bytes.push(b'\n');
        }
        assert_eq!(digest(&events), serial(FNV_OFFSET, &bytes));
        assert_eq!(digest(&[]), FNV_OFFSET);
        let log = TraceLog {
            events: events.into_iter().collect(),
            ..TraceLog::empty()
        };
        assert_eq!(log.digest(), serial(FNV_OFFSET, &bytes));
        assert_eq!(TraceLog::empty().digest(), FNV_OFFSET);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let make = |pair| {
            vec![
                Event {
                    seq: 0,
                    t_ns: 5,
                    kind: ev(pair),
                },
                Event {
                    seq: 1,
                    t_ns: 9,
                    kind: TraceEvent::Flush { pair, drained: 1 },
                },
            ]
        };
        let a = digest(&make(0));
        let b = digest(&make(0));
        let c = digest(&make(1));
        assert_eq!(a, b, "same stream, same digest");
        assert_ne!(a, c, "different stream, different digest");
        assert_ne!(digest(&[]), a);
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let rec = Recorder::new();
        let h = rec.handle();
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let h = h.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        h.record_at(u64::from(t), || ev(t));
                    }
                });
            }
        });
        let log = rec.take();
        assert_eq!(log.events.len(), 400);
        // Sequence numbers are unique and dense.
        let mut seqs: Vec<u64> = log.events.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..400).collect::<Vec<u64>>());
    }
}
