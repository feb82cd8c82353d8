#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! `pas` — a command-line tool over the power-aware AND/OR scheduling
//! stack.
//!
//! ```text
//! pas inspect  --app synthetic                       graph & scenario statistics
//! pas plan     --app atr --procs 2 --load 0.5        off-line phase report
//! pas run      --app synthetic --procs 2 --load 0.5 \
//!              --scheme gss --seed 42 --gantt        simulate one realization
//! pas compare  --app atr --procs 2 --load 0.5 \
//!              --reps 200 --seed 42                  paired Monte-Carlo comparison
//! pas dot      --app synthetic                       Graphviz DOT to stdout
//! pas export   --app atr --out atr.json              save a workload as JSON
//! pas trace    --app atr --scheme as --format chrome \
//!              --out trace.json                      export the event stream
//! pas trace    --app atr --frames 100 --format jsonl \
//!              --out stream.jsonl                    stream 100 frames incrementally
//! pas plan     --app atr --procs 2 --load 0.5 \
//!              --profile                             span-profiled off-line phase
//! pas check    atr xscale faults.json                static analysis & feasibility
//! pas plan     w.json xscale --scheme ss2 \
//!              --out plan.json                       serialize the off-line artifact
//! pas check    plan.json --against w.json xscale     verify a plan artifact
//! pas check    w.json --fix                          write repaired w.fixed.json
//! pas serve    --listen 127.0.0.1:7453 --workers 4   long-running plan/sim daemon
//! ```
//!
//! `--app` accepts the built-in workloads `atr`, `synthetic` and `video`,
//! or a path
//! to a JSON file produced by `pas export` (the serde form of
//! [`andor_graph::AndOrGraph`]). `--model` selects `transmeta` (default),
//! `xscale`, or `continuous:<smin>`.

mod args;
mod check;
mod commands;
mod source;

pub use args::{Args, Command};

/// One-line usage summary printed on argument errors.
pub const USAGE: &str =
    "usage: pas <inspect|plan|run|compare|dot|optimal|export|trace|check|serve> \
[SOURCES...] [--app atr|synthetic|video|FILE.json] [--model transmeta|xscale|continuous:S] \
[--procs N] [--load L | --deadline D] [--scheme npm|spm|gss|ss1|ss2|as|oracle] \
[--seed S] [--reps N] [--alpha A] [--gantt] [--out FILE] \
[--fault-plan FILE.json] [--format chrome|jsonl|csv|summary] [--proc P] \
[--kinds k1,k2,...] [--frames N] [--carry] \
[--deny-warnings] [--against REF...] [--fix] \
[--profile] [--profile-out FILE] \
[--listen HOST:PORT] [--socket PATH] [--watch DIR] [--workers N] [--queue N] \
[--timeout-ms T] [--debug-faults] [--log FILE|stderr] [--log-level L] \
[--crash-dir DIR] [--trace-out DIR]";

/// Parses `args` and executes the selected command, returning the text to
/// print.
pub fn run(args: &[String]) -> Result<String, String> {
    let parsed = Args::parse(args)?;
    commands::execute(&parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(argv: &[&str]) -> Result<String, String> {
        let v: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        run(&v)
    }

    #[test]
    fn no_args_is_an_error() {
        assert!(call(&[]).is_err());
    }

    #[test]
    fn unknown_command_is_an_error() {
        let err = call(&["frobnicate"]).unwrap_err();
        assert!(err.contains("unknown command"), "{err}");
    }

    #[test]
    fn inspect_synthetic() {
        let out = call(&["inspect", "--app", "synthetic"]).unwrap();
        assert!(out.contains("tasks"), "{out}");
        assert!(out.contains("scenarios"), "{out}");
        assert!(out.contains("sections"), "{out}");
    }

    #[test]
    fn inspect_atr_with_alpha() {
        let out = call(&["inspect", "--app", "atr", "--alpha", "0.5"]).unwrap();
        assert!(out.contains("scenarios: 4"), "{out}");
    }

    #[test]
    fn plan_reports_offline_quantities() {
        let out = call(&[
            "plan",
            "--app",
            "synthetic",
            "--procs",
            "2",
            "--load",
            "0.5",
        ])
        .unwrap();
        assert!(out.contains("Tw"), "{out}");
        assert!(out.contains("Ta"), "{out}");
        assert!(out.contains("PMP"), "{out}");
        assert!(out.contains("canonical schedule"), "{out}");
        assert!(out.contains("latest start"), "{out}");
    }

    #[test]
    fn plan_rejects_infeasible_deadline() {
        let err = call(&[
            "plan",
            "--app",
            "synthetic",
            "--procs",
            "1",
            "--deadline",
            "1.0",
        ])
        .unwrap_err();
        assert!(err.contains("infeasible"), "{err}");
    }

    #[test]
    fn run_gss_with_gantt() {
        let out = call(&[
            "run",
            "--app",
            "synthetic",
            "--procs",
            "2",
            "--load",
            "0.5",
            "--scheme",
            "gss",
            "--seed",
            "7",
            "--gantt",
        ])
        .unwrap();
        assert!(out.contains("finished at"), "{out}");
        assert!(out.contains("deadline met"), "{out}");
        assert!(out.contains("p0 "), "gantt lane expected: {out}");
        assert!(out.contains("pw "), "power timeline expected: {out}");
        assert!(out.contains("speed changes"), "{out}");
    }

    #[test]
    fn run_with_fault_plan_reports_injections() {
        let dir = std::env::temp_dir().join("pas_cli_test_run_faults");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("plan.json");
        let plan = mp_sim::FaultPlan::overruns(1.0, 1.5, 5);
        std::fs::write(&path, serde_json::to_string(&plan).unwrap()).unwrap();
        let out = call(&[
            "run",
            "--app",
            "synthetic",
            "--procs",
            "2",
            "--load",
            "0.5",
            "--scheme",
            "gss",
            "--seed",
            "7",
            "--fault-plan",
            path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("faults:"), "{out}");
        assert!(out.contains("overruns"), "{out}");
        assert!(out.contains("detected"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_fault_plan_is_a_one_line_error() {
        let dir = std::env::temp_dir().join("pas_cli_test_corrupt_faults");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("broken.json");
        std::fs::write(&path, "{\"overrun_prob\": [oops").unwrap();
        let err = call(&[
            "run",
            "--app",
            "synthetic",
            "--procs",
            "2",
            "--load",
            "0.5",
            "--fault-plan",
            path.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.contains("parsing"), "{err}");
        assert!(!err.contains('\n'), "one-line error: {err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_plan_is_rejected_outside_run() {
        let err = call(&["compare", "--app", "synthetic", "--fault-plan", "x.json"]).unwrap_err();
        assert!(err.contains("applies only to `run`"), "{err}");
    }

    #[test]
    fn run_oracle_scheme() {
        let out = call(&[
            "run",
            "--app",
            "synthetic",
            "--procs",
            "2",
            "--load",
            "0.5",
            "--scheme",
            "oracle",
            "--seed",
            "7",
        ])
        .unwrap();
        assert!(out.contains("deadline met"), "{out}");
    }

    #[test]
    fn compare_prints_all_schemes() {
        let out = call(&[
            "compare",
            "--app",
            "synthetic",
            "--procs",
            "2",
            "--load",
            "0.5",
            "--reps",
            "20",
            "--seed",
            "3",
        ])
        .unwrap();
        for name in ["NPM", "SPM", "GSS", "SS(1)", "SS(2)", "AS", "Oracle"] {
            assert!(out.contains(name), "missing {name}: {out}");
        }
        assert!(out.contains("p95"), "p95 column expected: {out}");
    }

    #[test]
    fn dot_emits_graphviz() {
        let out = call(&["dot", "--app", "synthetic"]).unwrap();
        assert!(out.starts_with("digraph"));
        assert!(out.contains("doublecircle"));
    }

    #[test]
    fn export_and_reimport_round_trip() {
        let dir = std::env::temp_dir().join("pas_cli_test_export");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("app.json");
        let path_s = path.to_str().unwrap();
        let out = call(&["export", "--app", "synthetic", "--out", path_s]).unwrap();
        assert!(out.contains("wrote"), "{out}");
        // Re-load through --app FILE.json.
        let out = call(&["inspect", "--app", path_s]).unwrap();
        assert!(out.contains("scenarios: 10"), "{out}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn video_workload_runs() {
        let out = call(&[
            "run", "--app", "video", "--procs", "2", "--load", "0.6", "--scheme", "as", "--seed",
            "3",
        ])
        .unwrap();
        assert!(out.contains("deadline met"), "{out}");
    }

    #[test]
    fn model_selection() {
        let out = call(&[
            "run",
            "--app",
            "synthetic",
            "--procs",
            "2",
            "--load",
            "0.5",
            "--scheme",
            "gss",
            "--model",
            "xscale",
        ])
        .unwrap();
        assert!(out.contains("Intel XScale"), "{out}");
        let out = call(&[
            "run",
            "--app",
            "synthetic",
            "--procs",
            "2",
            "--load",
            "0.5",
            "--scheme",
            "gss",
            "--model",
            "continuous:0.2",
        ])
        .unwrap();
        assert!(out.contains("Continuous"), "{out}");
        assert!(call(&["run", "--app", "synthetic", "--model", "bogus"]).is_err());
    }

    #[test]
    fn optimal_on_tiny_custom_instance() {
        // The built-in apps are too big for exhaustive search; build a tiny
        // one, export it, and run `optimal` on the file.
        let dir = std::env::temp_dir().join("pas_cli_test_optimal");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("tiny.json");
        let app = andor_graph::Segment::seq([
            andor_graph::Segment::task("A", 4.0, 2.0),
            andor_graph::Segment::task("B", 3.0, 1.5),
        ])
        .lower()
        .unwrap();
        std::fs::write(&path, serde_json::to_string(&app).unwrap()).unwrap();
        let path_s = path.to_str().unwrap();
        let out = call(&[
            "optimal", "--app", path_s, "--procs", "1", "--load", "0.5", "--model", "xscale",
        ])
        .unwrap();
        assert!(out.contains("exhaustive optimum"), "{out}");
        assert!(out.contains("worst-case energy"), "{out}");
        assert!(out.contains("GSS"), "{out}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn optimal_rejects_big_instances() {
        let err = call(&["optimal", "--app", "atr", "--load", "0.5"]).unwrap_err();
        assert!(err.contains("too large"), "{err}");
    }

    #[test]
    fn trace_summary_reports_ledger_and_counts() {
        let argv = [
            "trace",
            "--app",
            "synthetic",
            "--procs",
            "2",
            "--load",
            "0.5",
            "--scheme",
            "gss",
            "--seed",
            "7",
        ];
        let out = call(&argv).unwrap();
        // The summary holds no wall-clock figure: a seeded run prints the
        // same bytes every time.
        assert_eq!(call(&argv).unwrap(), out);
        assert!(out.contains("events:"), "{out}");
        assert!(out.contains("dispatch"), "{out}");
        // Spelled like the bench baseline field (`results/baselines/`).
        assert!(out.contains("peak_ring_occupancy = "), "{out}");
        assert!(out.contains("energy ledger"), "{out}");
        assert!(out.contains("matches engine total_energy"), "{out}");
        assert!(out.contains("event-derived"), "{out}");
    }

    #[test]
    fn trace_chrome_is_valid_json_with_filters() {
        let out = call(&[
            "trace",
            "--app",
            "synthetic",
            "--scheme",
            "as",
            "--format",
            "chrome",
        ])
        .unwrap();
        let doc: serde::Value = serde_json::from_str(&out).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        assert!(!events.is_empty());
        // Filtering down to one processor's completions still parses and
        // carries only task slices (plus thread metadata).
        let narrow = call(&[
            "trace",
            "--app",
            "synthetic",
            "--scheme",
            "as",
            "--format",
            "chrome",
            "--proc",
            "0",
            "--kinds",
            "complete",
        ])
        .unwrap();
        let doc: serde::Value = serde_json::from_str(&narrow).expect("valid JSON");
        let narrow_events = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        assert!(narrow_events.len() < events.len(), "filter narrows stream");
    }

    #[test]
    fn trace_jsonl_round_trips_and_csv_has_metrics() {
        let out = call(&[
            "trace",
            "--app",
            "synthetic",
            "--scheme",
            "ss1",
            "--format",
            "jsonl",
        ])
        .unwrap();
        let events = pas_obs::export::from_jsonl(&out).expect("round-trips");
        assert!(!events.is_empty());
        let csv = call(&[
            "trace",
            "--app",
            "synthetic",
            "--scheme",
            "ss1",
            "--format",
            "csv",
        ])
        .unwrap();
        assert!(csv.starts_with("metric,kind,value"), "{csv}");
        assert!(csv.contains("speed_changes.total"), "{csv}");
    }

    #[test]
    fn trace_rejects_bad_format_and_kind() {
        let err = call(&["trace", "--app", "synthetic", "--format", "yaml"]).unwrap_err();
        assert!(err.contains("unknown trace format"), "{err}");
        let err = call(&["trace", "--app", "synthetic", "--kinds", "bogus"]).unwrap_err();
        assert!(err.contains("unknown event kind"), "{err}");
    }

    #[test]
    fn trace_writes_out_file() {
        let dir = std::env::temp_dir().join("pas_cli_test_trace_out");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("trace.json");
        let path_s = path.to_str().unwrap();
        let out = call(&[
            "trace",
            "--app",
            "synthetic",
            "--format",
            "chrome",
            "--out",
            path_s,
        ])
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(serde_json::from_str::<serde::Value>(&body).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_accepts_fault_plan() {
        let dir = std::env::temp_dir().join("pas_cli_test_trace_faults");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("plan.json");
        let plan = mp_sim::FaultPlan::overruns(1.0, 1.5, 5);
        std::fs::write(&path, serde_json::to_string(&plan).unwrap()).unwrap();
        let out = call(&[
            "trace",
            "--app",
            "synthetic",
            "--scheme",
            "gss",
            "--seed",
            "7",
            "--fault-plan",
            path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("fault-injected"), "{out}");
        assert!(out.contains("matches engine total_energy"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_streams_frames_incrementally() {
        let dir = std::env::temp_dir().join("pas_cli_test_trace_frames");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("stream.jsonl");
        let path_s = path.to_str().unwrap();
        let out = call(&[
            "trace",
            "--app",
            "synthetic",
            "--scheme",
            "gss",
            "--seed",
            "7",
            "--frames",
            "6",
            "--format",
            "jsonl",
            "--out",
            path_s,
        ])
        .unwrap();
        assert!(out.contains("streamed"), "{out}");
        let body = std::fs::read_to_string(&path).unwrap();
        let events = pas_obs::export::from_jsonl(&body).expect("round-trips");
        // Six frames of one run each: strictly more events than one run.
        let one = call(&[
            "trace",
            "--app",
            "synthetic",
            "--scheme",
            "gss",
            "--seed",
            "7",
            "--format",
            "jsonl",
        ])
        .unwrap();
        assert!(events.len() > pas_obs::export::from_jsonl(&one).unwrap().len());
        // Streamed summaries report the frame count and bounded window.
        let summary = call(&[
            "trace",
            "--app",
            "synthetic",
            "--scheme",
            "gss",
            "--seed",
            "7",
            "--frames",
            "6",
            "--carry",
        ])
        .unwrap();
        assert!(summary.contains("6 frames streamed"), "{summary}");
        assert!(summary.contains("DVS state carried over"), "{summary}");
        assert!(summary.contains("bounded ring"), "{summary}");
        assert!(summary.contains("matches engine total_energy"), "{summary}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_frames_streams_the_oracle_and_rejects_faults() {
        // The oracle measures each frame's realization when its run
        // starts, so it streams like any scheme, with or without carried
        // DVS state.
        for carry in [false, true] {
            let mut argv = vec![
                "trace",
                "--app",
                "synthetic",
                "--frames",
                "3",
                "--scheme",
                "oracle",
            ];
            if carry {
                argv.push("--carry");
            }
            let out = call(&argv).unwrap();
            assert!(out.contains("3 frames streamed"), "{out}");
            assert!(out.contains(", 0 deadline misses"), "{out}");
        }
        let err = call(&[
            "trace",
            "--app",
            "synthetic",
            "--frames",
            "2",
            "--fault-plan",
            "x.json",
        ])
        .unwrap_err();
        assert!(err.contains("--frames"), "{err}");
    }

    #[test]
    fn trace_summary_lists_per_section_slices() {
        let out = call(&[
            "trace",
            "--app",
            "synthetic",
            "--procs",
            "2",
            "--load",
            "0.5",
            "--scheme",
            "as",
            "--seed",
            "7",
        ])
        .unwrap();
        assert!(out.contains("per-section slices"), "{out}");
        assert!(out.contains("root"), "{out}");
    }

    /// The six scheme rows, the makespan rows and `events/run` the README
    /// shows for `compare --reps 400 --seed 42`.
    #[test]
    fn compare_pins_the_readme_sample() {
        let out = call(&[
            "compare",
            "--app",
            "synthetic",
            "--procs",
            "2",
            "--load",
            "0.5",
            "--reps",
            "400",
            "--seed",
            "42",
        ])
        .unwrap();
        for row in [
            "NPM        1.0000   0.0096   1.0189   1.1412   1.1862   1.2314        0.00     0.0000   0.0000",
            "SPM        0.5956   0.0045   0.6038   0.6621   0.6857   0.7048        2.00     0.0000   0.0000",
            "GSS        0.4747   0.0050   0.4771   0.5662   0.6074   0.6311        3.08     0.0000   0.0000",
            "SS(1)      0.4747   0.0050   0.4771   0.5662   0.6074   0.6311        3.08     0.0000   0.0000",
            "SS(2)      0.4747   0.0050   0.4771   0.5662   0.6074   0.6311        3.08     0.0000   0.0000",
            "AS         0.4758   0.0045   0.4789   0.5559   0.5841   0.6114        4.74     0.0000   0.0000",
            "makespan distribution (ms, deadline 118.1):",
            "NPM         34.20    39.67    41.64    42.02",
            "SPM         65.49    75.60    79.29    80.38",
            "GSS        111.63   115.84   116.76   117.09",
            "SS(1)      111.63   115.84   116.76   117.09",
            "SS(2)      111.63   115.84   116.76   117.09",
            "AS         110.55   115.05   116.06   117.32",
            "events/run 41.3 (observer sampled every 64th realization)",
        ] {
            assert!(out.lines().any(|l| l == row), "missing {row:?} in\n{out}");
        }
    }

    #[test]
    fn compare_with_an_overflowing_deadline_is_an_error_not_a_panic() {
        // procs · D · 1.05 overflows to inf: no histogram fits that range.
        let argv = ["compare", "--deadline", "1e308", "--reps", "2"];
        let err = std::panic::catch_unwind(|| call(&argv))
            .expect("compare does not panic")
            .unwrap_err();
        assert!(err.contains("degenerate histogram bounds"), "{err}");
    }

    #[test]
    fn bad_scheme_is_an_error() {
        let err = call(&["run", "--app", "synthetic", "--scheme", "warp-speed"]).unwrap_err();
        assert!(err.contains("unknown scheme"), "{err}");
    }

    #[test]
    fn plan_artifact_round_trips_through_check() {
        let dir = std::env::temp_dir().join("pas_cli_test_plan_artifact");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::create_dir_all(&dir);
        let w = dir.join("w.json");
        let w_s = w.to_str().unwrap();
        call(&["export", "--app", "synthetic", "--out", w_s]).unwrap();
        let p = dir.join("plan.json");
        let p_s = p.to_str().unwrap();
        // Positional sources: workload file + platform builtin.
        let out = call(&["plan", w_s, "xscale", "--scheme", "ss2", "--out", p_s]).unwrap();
        assert!(out.contains("wrote"), "{out}");
        assert!(out.contains("schema v1"), "{out}");
        // Honest artifact verifies cleanly against explicit references...
        let out = call(&["check", p_s, "--against", w_s, "xscale", "--deny-warnings"]).unwrap();
        assert!(out.contains("verified against"), "{out}");
        // ...and against the labels recorded inside the artifact.
        let out = call(&["check", p_s, "--deny-warnings"]).unwrap();
        assert!(out.contains("verified against"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_plan_artifacts_are_rejected() {
        let dir = std::env::temp_dir().join("pas_cli_test_plan_tamper");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::create_dir_all(&dir);
        let w = dir.join("w.json");
        let w_s = w.to_str().unwrap();
        call(&["export", "--app", "synthetic", "--out", w_s]).unwrap();
        let p = dir.join("plan.json");
        let p_s = p.to_str().unwrap();
        call(&["plan", w_s, "xscale", "--scheme", "ss2", "--out", p_s]).unwrap();
        let text = std::fs::read_to_string(&p).unwrap();
        // A switch time outside [0, D] violates the SS(2) window bound.
        let mut a = pas_core::PlanArtifact::from_json(&text).unwrap();
        match &mut a.params {
            pas_core::SchemeParams::Ss2 { switch_time, .. } => *switch_time = -5.0,
            other => panic!("ss2 plan expected, got {other:?}"),
        }
        std::fs::write(&p, a.to_json().unwrap()).unwrap();
        let err = call(&["check", p_s, "--against", w_s, "xscale"]).unwrap_err();
        assert!(err.contains("PAS0407"), "{err}");
        // A shifted latest-start-time disagrees with the re-derivation.
        let mut a = pas_core::PlanArtifact::from_json(&text).unwrap();
        let slot = a
            .plan
            .lst
            .iter_mut()
            .find(|s| s.is_some())
            .expect("some computation node");
        *slot = Some(slot.unwrap() + 3.0);
        std::fs::write(&p, a.to_json().unwrap()).unwrap();
        let err = call(&["check", p_s, "--against", w_s, "xscale"]).unwrap_err();
        assert!(err.contains("PAS0404"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn check_fix_writes_repaired_workload() {
        let dir = std::env::temp_dir().join("pas_cli_test_check_fix");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::create_dir_all(&dir);
        let bad = dir.join("bad.json");
        let bad_s = bad.to_str().unwrap();
        std::fs::write(
            &bad,
            r#"{"nodes": [
                {"name": "A", "kind": {"Computation": {"wcet": 2.0, "acet": 1.0}}, "preds": [], "succs": [1, 1]},
                {"name": "B", "kind": {"Computation": {"wcet": 3.0, "acet": 1.5}}, "preds": [0, 0], "succs": []}
            ]}"#,
        )
        .unwrap();
        // Whether or not the duplicate edge rejects the input, the fix
        // must be written and reported.
        let text = match call(&["check", bad_s, "--fix", "--deny-warnings"]) {
            Ok(t) | Err(t) => t,
        };
        assert!(text.contains("dropped duplicate edge"), "{text}");
        assert!(text.contains("fix: wrote"), "{text}");
        let fixed = dir.join("bad.fixed.json");
        assert!(fixed.exists(), "repaired sibling written");
        // The repaired workload passes the strict check.
        let out = call(&["check", fixed.to_str().unwrap(), "--deny-warnings"]).unwrap();
        assert!(out.contains("feasibility:"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // One test covers every profiled invocation: the profiler is a
    // process-wide singleton, so concurrent `--profile` tests would
    // steal each other's spans.
    #[test]
    fn plan_and_check_profile_the_offline_phase() {
        let out = call(&[
            "plan",
            "--app",
            "synthetic",
            "--procs",
            "2",
            "--load",
            "0.5",
            "--profile",
        ])
        .unwrap();
        assert!(out.contains("profile (offline-phase wall clock)"), "{out}");
        assert!(out.contains(pas_obs::profile::names::CLI_PLAN), "{out}");
        assert!(
            out.contains(pas_obs::profile::names::OFFLINE_BUILD),
            "{out}"
        );
        assert!(
            out.contains(pas_obs::profile::names::OFFLINE_CANONICAL),
            "{out}"
        );
        // The root span's duration covers its direct children: the tree
        // renderer annotates parents with their children's total.
        assert!(out.contains("(children"), "{out}");

        let out = call(&["check", "--app", "synthetic", "--profile"]).unwrap();
        assert!(out.contains(pas_obs::profile::names::CLI_CHECK), "{out}");

        // `--profile-out` writes a Chrome trace instead of the tree.
        let dir = std::env::temp_dir().join("pas_cli_test_profile_out");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("trace.json");
        let path_s = path.to_str().unwrap();
        let out = call(&[
            "plan",
            "--app",
            "synthetic",
            "--procs",
            "2",
            "--load",
            "0.5",
            "--profile-out",
            path_s,
        ])
        .unwrap();
        assert!(out.contains("profile: wrote"), "{out}");
        let body = std::fs::read_to_string(&path).unwrap();
        let doc: serde::Value = serde_json::from_str(&body).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        assert!(!events.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn fixture(path: &str) -> String {
        format!("{}/../../tests/fixtures/{path}", env!("CARGO_MANIFEST_DIR"))
    }

    #[test]
    fn alpha_is_refused_on_a_workload_file_by_every_command() {
        let tiny = fixture("valid/graph_tiny.json");
        let want = "--alpha applies only to the built-in workloads";
        for argv in [
            vec!["check", &tiny, "--alpha", "0.3"],
            vec!["check", &tiny, "xscale", "--alpha", "0.3"],
            vec!["run", "--app", &tiny, "--alpha", "0.3"],
            vec!["plan", &tiny, "--alpha", "0.3"],
        ] {
            assert_eq!(call(&argv).unwrap_err(), want, "{argv:?}");
        }
        // A built-in takes it.
        assert!(call(&["check", "atr", "--alpha", "0.3"]).is_ok());
    }

    #[test]
    fn plan_reads_a_platform_file() {
        let tiny = fixture("valid/graph_tiny.json");
        let without_digest = |out: String| -> String {
            out.lines()
                .filter(|l| !l.contains("plan digest"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let by_file = call(&["plan", &tiny, &fixture("valid/platform_xscale.json")]).unwrap();
        let by_spec = call(&["plan", &tiny, "xscale"]).unwrap();
        assert!(by_spec.contains("model Intel XScale"), "{by_spec}");
        assert_eq!(without_digest(by_file), without_digest(by_spec));
        let err = call(&["plan", &tiny, &fixture("invalid/platform_empty.json")]).unwrap_err();
        assert!(
            err.starts_with("pre-run check failed:\nerror[PAS0102]"),
            "{err}"
        );
    }

    #[test]
    fn plan_out_rejects_oracle() {
        let err = call(&["plan", "--scheme", "oracle", "--out", "/tmp/x.json"]).unwrap_err();
        assert!(err.contains("oracle"), "{err}");
    }
}
