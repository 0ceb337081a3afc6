//! Exit-path contract of the `sweep` binary: 0 clean, 1 a failed gate,
//! 2 a usage error, a malformed `PC_*` knob or a failed write. The
//! determinism gate byte-compares whatever sits at a result path, so a
//! run that could not write its file must never exit 0.

use std::path::PathBuf;
use std::process::{Command, Output};

const SWEEP: &str = env!("CARGO_BIN_EXE_sweep");

const KNOBS: [&str; 5] = [
    "PC_DURATION_MS",
    "PC_REPLICATES",
    "PC_SEED",
    "PC_THREADS",
    "PC_TRACE_CAP",
];

/// A fresh working directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pc_sweep_cli_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `sweep` in `cwd` with only the given knobs set.
fn sweep(cwd: &PathBuf, knobs: &[(&str, &str)], args: &[&str]) -> Output {
    let mut cmd = Command::new(SWEEP);
    cmd.current_dir(cwd).args(args);
    for knob in KNOBS {
        cmd.env_remove(knob);
    }
    cmd.envs(knobs.iter().copied());
    cmd.output().expect("sweep spawns")
}

#[test]
fn a_failed_result_write_exits_two_naming_the_path() {
    let dir = scratch("unwritable");
    // A directory where the result file should go: the write must fail.
    std::fs::create_dir_all(dir.join("results/suite.json")).unwrap();
    let out = sweep(
        &dir,
        &[("PC_DURATION_MS", "50"), ("PC_REPLICATES", "1")],
        &["suite", "--filter", "table_overflows"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("results/suite.json"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_malformed_knob_exits_two_naming_the_variable() {
    let dir = scratch("knob");
    for (knob, value) in [
        ("PC_DURATION_MS", "2s"),
        ("PC_SEED", "x"),
        ("PC_THREADS", "0"),
    ] {
        let out = sweep(&dir, &[(knob, value)], &["suite"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{knob}={value}: {stderr}");
        assert!(stderr.contains(knob), "{stderr}");
    }
    assert!(!dir.join("results").exists(), "nothing may run");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_errors_exit_two() {
    let dir = scratch("usage");
    for args in [
        &[][..],
        &["nope"],
        &["suite", "--frobnicate"],
        &["scale", "--threads", "0"],
        &["scale", "--shards", "3"],
        &["scale", "--filter", "m"],
    ] {
        let out = sweep(&dir, &[], args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn list_prints_the_exact_filter_names() {
    let dir = scratch("list");
    let out = sweep(&dir, &[], &["scale", "--list"]);
    assert!(out.status.success());
    let names: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| l.split_whitespace().next().unwrap().to_string())
        .collect();
    assert_eq!(names, ["m10", "m100", "m1000"]);

    let out = sweep(
        &dir,
        &[],
        &["overload", "--list", "--filter", "baseline/BP"],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
    assert!(stdout.starts_with("baseline/BP "), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_clean_filtered_run_writes_its_result_and_sidecar() {
    let dir = scratch("clean");
    let out = sweep(
        &dir,
        &[("PC_DURATION_MS", "50"), ("PC_REPLICATES", "1")],
        &["suite", "--filter", "table_overflows", "--trace"],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for file in ["suite.json", "BENCH_suite.json", "suite_trace.jsonl"] {
        assert!(dir.join("results").join(file).is_file(), "{file}");
    }
    let sidecar = std::fs::read_to_string(dir.join("results/BENCH_suite.json")).unwrap();
    assert!(sidecar.contains("\"schema_version\": 7"), "{sidecar}");
    assert!(sidecar.contains("\"points_popped\""), "{sidecar}");
    assert!(!sidecar.contains("\"shards\""), "{sidecar}");
    assert!(sidecar.contains("\"table_overflows\""), "{sidecar}");
    std::fs::remove_dir_all(&dir).ok();
}
