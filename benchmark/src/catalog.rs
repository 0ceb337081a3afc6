//! The metrics the benchmark reports: name, unit, direction and, for
//! the end-to-end ones, the bound by which a change may worsen them.
//! `BENCHMARK.json` at the repository root mirrors these tables and the
//! run length; a test keeps the two identical.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Whether `a` is strictly better than `b`.
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// One metric definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name, as printed and as keyed in result files.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`). It is
/// a constant, not a setting, so that the parent and the change of a
/// comparison always run for the same time.
pub const RUN_SECONDS: u64 = 20;

/// End-to-end metrics: every workload reports every one of them in an
/// untraced run. `wakeups_per_s`, `latency_mean_ms` and
/// `delivered_share` are those of the workload's PBPL cell. A bound
/// must also hold between medians of runs on different seeds, so it
/// covers seed-to-seed variation as well as host noise (see
/// `README.md`).
pub const END_TO_END: &[MetricDef] = &[
    e2e("ns_per_arrival", "ns", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.20),
    e2e("wakeups_per_s", "1/s", Lower, 0.20),
    e2e("latency_mean_ms", "ms", Lower, 0.25),
    e2e("delivered_share", "share", Higher, 0.10),
];

/// Per-strategy breakdown lines that `compare` judges besides the
/// end-to-end metrics, so that a regression in one strategy is not
/// averaged away: `<name>.<strategy>` for every name here and every
/// end-to-end name. Both are outcomes of the simulator, exact per seed.
pub const BREAKDOWN: &[MetricDef] = &[
    e2e("power_mw", "mW", Lower, 0.20),
    e2e("latency_p99_ms", "ms", Lower, 0.25),
];

/// The definition `compare` judges a result line `name` by: an
/// end-to-end metric, or a breakdown line `<base>.<strategy>` whose
/// base is an end-to-end or [`BREAKDOWN`] metric.
pub fn judged(name: &str) -> Option<&'static MetricDef> {
    let find = |n: &str| END_TO_END.iter().chain(BREAKDOWN).find(|d| d.name == n);
    match name.split_once('.') {
        Some((base, _)) => find(base),
        None => END_TO_END.iter().find(|d| d.name == name),
    }
}

/// Per-layer metrics: every workload reports every one of them in a
/// traced run; a layer the workload bypasses reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("generate_s", "s", Lower),
    layer("expand_s", "s", Lower),
    layer("calendar_ns_per_pop", "ns", Lower),
    layer("calendar_pops", "count", Lower),
    layer("wheel_scheduled", "count", Lower),
    layer("wheel_cancelled", "count", Lower),
    layer("wheel_cascades", "count", Lower),
    layer("wheel_events_per_arrival", "events/arrival", Lower),
    layer("allocs_per_arrival", "allocs/arrival", Lower),
    layer("alloc_bytes_per_arrival", "B/arrival", Lower),
    layer("invocations", "count", Lower),
    layer("overflow_wakeups", "count", Lower),
    layer("scheduled_wakeups", "count", Lower),
    layer("slot_fires", "count", Lower),
    layer("elastic_ns_per_item", "ns", Lower),
    layer("mean_capacity", "items", Lower),
    layer("mean_batch", "items", Higher),
    layer("record_latency_ns_per_item", "ns", Lower),
    layer("account_ns_per_interval", "ns", Lower),
    layer("intervals", "count", Lower),
    layer("events_per_arrival", "events/arrival", Lower),
    layer("record_ns_per_arrival", "ns", Lower),
    layer("digest_ns_per_event", "ns", Lower),
    layer("dropped", "count", Lower),
    layer("check_ns_per_event", "ns", Lower),
    layer("violations", "count", Lower),
    layer("busy_ms_per_s", "ms/s", Lower),
    layer("invocations_per_s", "1/s", Lower),
    layer("trace_overhead_share", "share", Lower),
    layer("span_coverage", "share", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn field<'a>(obj: &'a Value, key: &str) -> &'a Value {
        obj.as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}"))
    }

    fn text(v: &Value) -> &str {
        match v {
            Value::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    fn number(v: &Value) -> f64 {
        match v {
            Value::Float(x) => *x,
            Value::UInt(n) => *n as f64,
            other => panic!("expected a number, got {other:?}"),
        }
    }

    /// `BENCHMARK.json` is what the outside world reads; the tables
    /// here are what the program reports. They must not drift apart.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text_json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let spec: Value = serde_json::from_str(&text_json).expect("parse BENCHMARK.json");
        let e2e = field(&spec, "end_to_end")
            .as_array()
            .expect("end_to_end array");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (v, d) in e2e.iter().zip(END_TO_END) {
            assert_eq!(text(field(v, "name")), d.name);
            assert_eq!(text(field(v, "unit")), d.unit, "{}", d.name);
            assert_eq!(text(field(v, "better")), d.better.as_str(), "{}", d.name);
            assert_eq!(Some(number(field(v, "bound"))), d.bound, "{}", d.name);
        }
        let per_layer = field(&spec, "per_layer")
            .as_array()
            .expect("per_layer array");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (v, d) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(text(field(v, "name")), d.name);
            assert_eq!(text(field(v, "unit")), d.unit, "{}", d.name);
            assert_eq!(text(field(v, "better")), d.better.as_str(), "{}", d.name);
        }
        let workloads: Vec<&str> = field(&spec, "workloads")
            .as_array()
            .expect("workloads array")
            .iter()
            .map(|w| text(field(w, "name")))
            .collect();
        assert_eq!(workloads, crate::workloads::WORKLOADS);
        assert_eq!(number(field(&spec, "run_seconds")), RUN_SECONDS as f64);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(BREAKDOWN)
            .chain(PER_LAYER)
            .map(|d| d.name)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn breakdown_lines_are_judged_by_their_base() {
        assert_eq!(judged("ns_per_arrival.mutex"), judged("ns_per_arrival"));
        assert_eq!(judged("power_mw.pbpl").map(|d| d.name), Some("power_mw"));
        assert_eq!(judged("power_mw"), None);
        assert_eq!(judged("reps.mutex"), None);
        assert_eq!(judged("cpu_ms_per_s"), None);
    }
}
