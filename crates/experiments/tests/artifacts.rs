//! The experiment binaries end to end: `all` writes each artifact exactly
//! as that artifact's binary prints it, sweep files land per platform, and
//! a binary refuses a flag it would ignore.

use std::path::PathBuf;
use std::process::{Command, Output};

use pas_experiments::cli::ARTIFACTS;

fn exe(name: &str) -> &'static str {
    match name {
        "all" => env!("CARGO_BIN_EXE_all"),
        "table1" => env!("CARGO_BIN_EXE_table1"),
        "table2" => env!("CARGO_BIN_EXE_table2"),
        "fig4" => env!("CARGO_BIN_EXE_fig4"),
        "fig5" => env!("CARGO_BIN_EXE_fig5"),
        "fig6" => env!("CARGO_BIN_EXE_fig6"),
        "ablation_smin" => env!("CARGO_BIN_EXE_ablation_smin"),
        "ablation_levels" => env!("CARGO_BIN_EXE_ablation_levels"),
        "ablation_overhead" => env!("CARGO_BIN_EXE_ablation_overhead"),
        "ablation_procs" => env!("CARGO_BIN_EXE_ablation_procs"),
        "ablation_leakage" => env!("CARGO_BIN_EXE_ablation_leakage"),
        "oracle_gap" => env!("CARGO_BIN_EXE_oracle_gap"),
        "breakdown" => env!("CARGO_BIN_EXE_breakdown"),
        "stream" => env!("CARGO_BIN_EXE_stream"),
        "fault_sweep" => env!("CARGO_BIN_EXE_fault_sweep"),
        other => panic!("no binary {other}"),
    }
}

fn run(name: &str, args: &[&str]) -> Output {
    Command::new(exe(name))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("running {name}: {e}"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn all_writes_what_each_binary_prints() {
    let dir = tmp("artifacts_all");
    let out = run("all", &["--reps", "2", "--outdir", dir.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    for name in ARTIFACTS {
        let printed = run(name, &["--reps", "2", "--markdown"]);
        assert!(printed.status.success(), "{name}: {printed:?}");
        let written = std::fs::read(dir.join(format!("{name}.md"))).unwrap();
        assert!(
            written == printed.stdout,
            "all's {name}.md differs from `{name} --markdown`"
        );
    }
}

#[test]
fn sweep_files_are_written_per_platform() {
    let dir = tmp("artifacts_fig4_files");
    let (csv, svg) = (dir.join("x.csv"), dir.join("x.svg"));
    let out = run(
        "fig4",
        &[
            "--reps",
            "2",
            "--csv",
            csv.to_str().unwrap(),
            "--svg",
            svg.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "{out:?}");
    for file in [
        "x_transmeta.csv",
        "x_intel-xscale.csv",
        "x_transmeta.svg",
        "x_intel-xscale.svg",
    ] {
        assert!(dir.join(file).is_file(), "{file} missing");
    }
    assert!(!csv.exists() && !svg.exists());
    let transmeta = std::fs::read_to_string(dir.join("x_transmeta.csv")).unwrap();
    let xscale = std::fs::read_to_string(dir.join("x_intel-xscale.csv")).unwrap();
    assert_ne!(transmeta, xscale);
}

#[test]
fn ignored_or_unknown_flags_exit_2() {
    let f = tmp("artifacts_refused").join("f");
    for (name, args) in [
        ("oracle_gap", vec!["--csv", f.to_str().unwrap()]),
        ("table1", vec!["--bogus"]),
    ] {
        let out = run(name, &args);
        assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {out:?}");
    }
    assert!(!f.exists());
}
