//! Argument contract of the `throughput` binary: a malformed item count
//! (from `PC_TP_ITEMS` or `--items`) exits 2 naming the knob, like
//! `sweep`. Every case passes `--list`, so no timed cell ever runs.

use std::process::{Command, Output};

const THROUGHPUT: &str = env!("CARGO_BIN_EXE_throughput");

/// Runs `throughput` with `PC_TP_ITEMS` set to `items` (or unset).
fn throughput(items: Option<&str>, args: &[&str]) -> Output {
    let mut cmd = Command::new(THROUGHPUT);
    cmd.current_dir(std::env::temp_dir()).args(args);
    match items {
        Some(v) => cmd.env("PC_TP_ITEMS", v),
        None => cmd.env_remove("PC_TP_ITEMS"),
    };
    cmd.output().expect("throughput spawns")
}

#[test]
fn a_malformed_item_count_exits_two_naming_the_knob() {
    for (env, args, knob) in [
        (Some("2O000"), &["--list"][..], "PC_TP_ITEMS"),
        (Some("0"), &["--list"][..], "PC_TP_ITEMS"),
        (None, &["--list", "--items", "x"][..], "--items"),
        (None, &["--list", "--items", "0"][..], "--items"),
        (None, &["--list", "--items"][..], "--items"),
    ] {
        let out = throughput(env, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{env:?} {args:?}: {stderr}");
        assert!(stderr.contains(knob), "{env:?} {args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{env:?} {args:?}: {stderr}");
    }
}

#[test]
fn list_exits_zero_without_sharded_cells() {
    for env in [None, Some("20000")] {
        let out = throughput(env, &["--list"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{env:?}: {stdout}");
        assert!(stdout.lines().any(|l| l == "mutex/p1/b1"), "{stdout}");
        assert!(!stdout.contains("_sharded"), "{stdout}");
    }
}
