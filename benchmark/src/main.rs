//! Command line of the benchmark. Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     run --workload NAME [--seed N] [--trace 0|1] [--out DIR]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run --all [...]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare PARENT_DIR CHANGE_DIR
//! ```
//!
//! Every run measures for [`RUN_SECONDS`]. `--seconds` is accepted
//! only with that value, so a caller that states the run length keeps
//! working and no two runs can differ in it.
//!
//! `run` prints `name value unit` for every metric, then, as its last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. It writes the full result to `DIR` and, when tracing,
//! `DIR/<workload>.trace.json`. It exits 1 when a correctness check
//! fails and 2 on bad arguments.

use pc_benchmark::alloc::CountingAlloc;
use pc_benchmark::catalog::{MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS};
use pc_benchmark::compare;
use pc_benchmark::host::{self, HostStamp};
use pc_benchmark::workloads::{self, Outcome, WORKLOADS};
use serde::{Serialize, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage:
  pc-benchmark run --workload NAME [--seed N] [--trace 0|1] [--out DIR]
  pc-benchmark run --all [--seed N] [--trace 0|1] [--out DIR]
  pc-benchmark compare PARENT_DIR CHANGE_DIR";

#[derive(Debug)]
struct RunArgs {
    workload: Option<String>,
    seed: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        trace: false,
        out: PathBuf::from("benchmark/results"),
    };
    let mut all = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--all" {
            all = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload {value}; one of {}",
                        WORKLOADS.join(", ")
                    ));
                }
                parsed.workload = Some(value.clone());
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                if value.parse::<u64>().ok() != Some(RUN_SECONDS) {
                    return Err(format!(
                        "the run length is fixed at {RUN_SECONDS} s; got --seconds {value}"
                    ));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--out" => parsed.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if all == parsed.workload.is_some() {
        return Err("give exactly one of --workload NAME and --all".into());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|a| match &a.workload {
            Some(w) => run_one(w, &a),
            None => run_all(&a),
        }),
        Some("compare") if args.len() == 3 => run_compare(Path::new(&args[1]), Path::new(&args[2])),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn metric_json(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".into(), Value::Float(value)),
        ("unit".into(), Value::Str(unit.into())),
    ])
}

fn run_one(workload: &str, a: &RunArgs) -> Result<u8, String> {
    let started = host::unix_ms();
    let clock = std::time::Instant::now();
    let outcome: Outcome = workloads::run(workload, a.seed, RUN_SECONDS as f64, a.trace)
        .ok_or_else(|| format!("unknown workload {workload}"))?;
    let wall_s = clock.elapsed().as_secs_f64();
    let defs: &[MetricDef] = if a.trace { PER_LAYER } else { END_TO_END };
    let correct = outcome.checks.all_passed();

    let mut metrics = Vec::new();
    for d in defs {
        let value = *outcome
            .values
            .get(d.name)
            .unwrap_or_else(|| panic!("workload {workload} did not measure {}", d.name));
        println!("{} {} {}", d.name, value, d.unit);
        metrics.push((d.name.to_string(), metric_json(value, d.unit)));
    }
    for (name, value, unit) in &outcome.detail {
        println!("{name} {value} {unit}");
    }
    for (name, ok, detail) in outcome.checks.results() {
        if *ok {
            println!("check {name} ok");
        } else {
            println!("check {name} FAILED: {detail}");
            eprintln!("check {name} FAILED: {detail}");
        }
    }

    let summary = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(outcome.attempted)),
        ("failed".into(), Value::UInt(outcome.failed)),
        ("metrics".into(), Value::Object(metrics.clone())),
    ]);
    let checks = outcome
        .checks
        .results()
        .iter()
        .map(|(name, ok, detail)| {
            Value::Object(vec![
                ("name".into(), Value::Str(name.to_string())),
                ("passed".into(), Value::Bool(*ok)),
                ("detail".into(), Value::Str(detail.clone())),
            ])
        })
        .collect();
    let detail = outcome
        .detail
        .iter()
        .map(|(name, value, unit)| (name.clone(), metric_json(*value, unit)))
        .collect();
    let full = Value::Object(vec![
        ("schema".into(), Value::UInt(2)),
        ("workload".into(), Value::Str(workload.into())),
        ("seed".into(), Value::UInt(a.seed)),
        ("seconds".into(), Value::UInt(RUN_SECONDS)),
        ("trace".into(), Value::Bool(a.trace)),
        ("reps".into(), Value::UInt(outcome.reps as u64)),
        ("started_unix_ms".into(), Value::UInt(started)),
        ("wall_s".into(), Value::Float(wall_s)),
        ("host".into(), HostStamp::current().to_value()),
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(outcome.attempted)),
        ("failed".into(), Value::UInt(outcome.failed)),
        ("checks".into(), Value::Array(checks)),
        ("metrics".into(), Value::Object(metrics)),
        ("detail".into(), Value::Object(detail)),
        (
            "exact".into(),
            Value::Array(outcome.exact.iter().cloned().map(Value::Str).collect()),
        ),
    ]);

    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    let trace_flag = u8::from(a.trace);
    let path = a.out.join(format!(
        "{workload}-seed{}-trace{trace_flag}-{started}.json",
        a.seed
    ));
    write_json(&path, &full)?;
    if a.trace {
        write_json(
            &a.out.join(format!("{workload}.trace.json")),
            &outcome.spans.to_json(),
        )?;
    }
    println!(
        "{}",
        serde_json::to_string(&summary).map_err(|e| e.to_string())?
    );
    Ok(if correct { 0 } else { 1 })
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs every workload in a fresh child process of this binary, one
/// after another, so peak memory is measured per workload.
fn run_all(a: &RunArgs) -> Result<u8, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut code = 0;
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .args(["run", "--workload", workload, "--seed", &a.seed.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&a.out)
            .status()
            .map_err(|e| format!("{workload}: {e}"))?;
        if !status.success() {
            eprintln!("{workload}: {status}");
            code = 1;
        }
    }
    Ok(code)
}

fn run_compare(parent: &Path, change: &Path) -> Result<u8, String> {
    let rows = compare::compare(&compare::load_dir(parent)?, &compare::load_dir(change)?)?;
    print!("{}", compare::render(&rows));
    Ok(
        if rows.iter().any(|r| r.verdict == compare::Verdict::Worse) {
            1
        } else {
            0
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<RunArgs, String> {
        let args: Vec<String> = args.split_whitespace().map(String::from).collect();
        parse_run(&args)
    }

    #[test]
    fn the_run_length_cannot_be_changed() {
        let a = parse("--workload paper_m5 --seed 3 --seconds 20 --trace 1").expect("valid");
        assert_eq!((a.seed, a.trace), (3, true));
        for bad in ["5", "20.5", "x"] {
            let err = parse(&format!("--workload paper_m5 --seconds {bad}")).unwrap_err();
            assert!(err.contains("fixed at 20 s"), "{err}");
        }
    }
}
