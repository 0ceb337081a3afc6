//! In-memory span recorder for the traced pass.
//!
//! The benchmark opens a span around each call it makes into a layer:
//! name, start, end, parent and the cell it belongs to. Spans stay in
//! memory and are written out once, when the run ends. A span's self
//! time is its duration minus the part of it that its children cover.

use serde::Value;
use std::time::{Duration, Instant};

/// One recorded interval, in nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `sim.run` or `oracle.check`.
    pub name: String,
    /// Strategy cell the call belongs to, if any.
    pub cell: Option<String>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
}

/// Handle of an open span; [`Spans::exit`] closes it.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// The recorder. A disabled recorder records nothing, so the timed reps
/// can share code with the traced pass.
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder whose clock starts now.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &str, cell: Option<&str>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            cell: cell.map(str::to_string),
            parent: self.open.last().copied(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span and returns its result with its wall
    /// time, which is measured whether or not spans are recorded.
    pub fn time<T>(
        &mut self,
        name: &str,
        cell: Option<&str>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.enter(name, cell);
        let start = Instant::now();
        let out = f();
        let took = start.elapsed();
        self.exit(id);
        (out, took)
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals, clipped to it.
    pub fn self_ns(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// The trace file body: every span with its self time, plus the
    /// share of each root span that its children cover.
    pub fn to_json(&self) -> Value {
        let selfs = self.self_ns();
        let spans = self
            .spans
            .iter()
            .zip(&selfs)
            .enumerate()
            .map(|(id, (s, &self_ns))| {
                Value::Object(vec![
                    ("id".into(), Value::UInt(id as u64)),
                    ("name".into(), Value::Str(s.name.clone())),
                    (
                        "cell".into(),
                        s.cell.clone().map_or(Value::Null, Value::Str),
                    ),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    ("start_ns".into(), Value::UInt(s.start_ns)),
                    ("end_ns".into(), Value::UInt(s.end_ns)),
                    ("dur_ns".into(), Value::UInt(s.end_ns - s.start_ns)),
                    ("self_ns".into(), Value::UInt(self_ns)),
                ])
            })
            .collect();
        Value::Object(vec![("spans".into(), Value::Array(spans))])
    }

    /// Share of the first root span's duration covered by its children
    /// (1 − self/duration); 0 when nothing was recorded.
    pub fn root_coverage(&self) -> f64 {
        let Some(root) = self.spans.iter().position(|s| s.parent.is_none()) else {
            return 0.0;
        };
        let dur = self.spans[root].end_ns - self.spans[root].start_ns;
        if dur == 0 {
            return 0.0;
        }
        1.0 - self.self_ns()[root] as f64 / dur as f64
    }
}

/// Self times of `spans` (see [`Spans::self_ns`]).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.clamp(reach, s.end_ns);
                let end = end.clamp(start, s.end_ns);
                covered += end - start;
                reach = reach.max(end);
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.into(),
            cell: None,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60), // overlaps `a` by 10
            span("a.leaf", Some(1), 15, 35),
            span("c", Some(0), 90, 120), // runs past the parent's end
        ];
        // root: 100 − |[10,60] ∪ [90,100]| = 100 − 60 = 40
        // a: 30 − 20 = 10; b, a.leaf: no children; c: no children
        assert_eq!(self_times(&spans), vec![40, 10, 30, 20, 30]);
    }

    #[test]
    fn recorder_nests_and_covers() {
        let mut s = Spans::new(true);
        let root = s.enter("root", None);
        let (v, took) = s.time("leaf", Some("pbpl"), || {
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        s.exit(root);
        assert_eq!(v, 7);
        assert!(took >= Duration::from_millis(2));
        assert_eq!(s.spans()[1].parent, Some(0));
        assert_eq!(s.spans()[1].cell.as_deref(), Some("pbpl"));
        let cov = s.root_coverage();
        assert!(cov > 0.5 && cov <= 1.0, "{cov}");
    }

    #[test]
    fn disabled_recorder_still_times() {
        let mut s = Spans::new(false);
        let (_, took) = s.time("leaf", None, || {
            std::thread::sleep(Duration::from_millis(1))
        });
        assert!(took >= Duration::from_millis(1));
        assert!(s.spans().is_empty());
        assert_eq!(s.root_coverage(), 0.0);
    }
}
