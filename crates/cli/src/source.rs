//! Resolving `--app` and `--model` specifications.

use crate::args::Args;
use andor_graph::AndOrGraph;
use dvfs_power::ProcessorModel;

/// Builds the application graph for `--app` (with the optional `--alpha`
/// override applied before lowering for the built-ins, or left as-is for
/// JSON files).
pub fn load_app(args: &Args) -> Result<AndOrGraph, String> {
    load_app_as(args, true)
}

/// Like [`load_app`], but JSON workloads skip the eager `validate()` —
/// for callers that run the full `pas-analyze` check suite instead
/// (collecting *every* problem rather than failing on the first).
pub fn load_app_unvalidated(args: &Args) -> Result<AndOrGraph, String> {
    load_app_as(args, false)
}

fn load_app_as(args: &Args, validate: bool) -> Result<AndOrGraph, String> {
    if let Some(g) = workloads::builtin(&args.app, args.alpha, args.seed) {
        return g;
    }
    let path = &args.app;
    if args.alpha.is_some() {
        return Err("--alpha applies only to the built-in workloads".into());
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let g: AndOrGraph = serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    if validate {
        g.validate()
            .map_err(|e| format!("validating {path}: {e}"))?;
    }
    Ok(g)
}

/// Loads and validates a fault plan from a JSON file (the serde form of
/// [`mp_sim::FaultPlan`]).
pub fn load_fault_plan(path: &str) -> Result<mp_sim::FaultPlan, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let plan: mp_sim::FaultPlan =
        serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    plan.validate()
        .map_err(|e| format!("validating {path}: {e}"))?;
    Ok(plan)
}

/// Resolves the `--model` specification.
pub fn load_model(spec: &str) -> Result<ProcessorModel, String> {
    ProcessorModel::from_spec(spec).unwrap_or_else(|| {
        Err(format!(
            "unknown platform '{spec}' ({})",
            ProcessorModel::SPEC_GRAMMAR
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{Args, Command, SchemeArg};

    fn base_args(app: &str) -> Args {
        Args {
            command: Command::Inspect,
            app: app.into(),
            model: "transmeta".into(),
            procs: 2,
            load: None,
            deadline: None,
            scheme: SchemeArg::Scheme(pas_core::Scheme::Gss),
            seed: 1,
            reps: 10,
            alpha: None,
            gantt: false,
            out: None,
            fault_plan: None,
            format: "summary".into(),
            proc_filter: None,
            kinds: None,
            frames: None,
            carry: false,
            listen: None,
            socket: None,
            watch: None,
            workers: 4,
            queue: 64,
            timeout_ms: 10_000,
            debug_faults: false,
            sources: Vec::new(),
            deny_warnings: false,
            against: Vec::new(),
            fix: false,
            bounds: false,
            profile: false,
            profile_out: None,
            log: None,
            log_level: "info".into(),
            crash_dir: None,
            trace_out: None,
        }
    }

    #[test]
    fn loads_builtins() {
        assert!(load_app(&base_args("synthetic")).is_ok());
        assert!(load_app(&base_args("atr")).is_ok());
        assert!(load_app(&base_args("video")).is_ok());
    }

    #[test]
    fn alpha_override_applies() {
        let mut a = base_args("synthetic");
        a.alpha = Some(0.4);
        let g = load_app(&a).unwrap();
        for (_, n) in g.iter() {
            if n.kind.is_computation() {
                assert!((n.kind.acet() - 0.4 * n.kind.wcet()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn missing_file_errors() {
        let err = load_app(&base_args("/nonexistent/x.json")).unwrap_err();
        assert!(err.contains("reading"), "{err}");
    }

    #[test]
    fn invalid_json_errors() {
        let dir = std::env::temp_dir().join("pas_cli_test_source");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("bad.json");
        std::fs::write(&path, "{not json").unwrap();
        let err = load_app(&base_args(path.to_str().unwrap())).unwrap_err();
        assert!(err.contains("parsing"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fault_plan_round_trip_and_corrupt_file() {
        let dir = std::env::temp_dir().join("pas_cli_test_fault_plan");
        let _ = std::fs::create_dir_all(&dir);
        // Round trip a valid plan.
        let good = dir.join("good.json");
        let plan = mp_sim::FaultPlan::overruns(0.2, 1.5, 9);
        std::fs::write(&good, serde_json::to_string(&plan).expect("serializes"))
            .expect("write fixture");
        let loaded = load_fault_plan(good.to_str().expect("utf-8 path")).expect("valid plan loads");
        assert_eq!(loaded, plan);
        // Corrupt JSON surfaces a one-line parse error.
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{\"overrun_prob\": ").expect("write fixture");
        let err = load_fault_plan(bad.to_str().expect("utf-8 path"))
            .expect_err("corrupt JSON is rejected");
        assert!(err.contains("parsing"), "{err}");
        assert!(!err.contains('\n'), "one-line error: {err:?}");
        // Valid JSON, invalid semantics: validation error.
        let invalid = dir.join("invalid.json");
        let mut out_of_range = mp_sim::FaultPlan::none();
        out_of_range.overrun_prob = 2.0;
        std::fs::write(
            &invalid,
            serde_json::to_string(&out_of_range).expect("serializes"),
        )
        .expect("write fixture");
        let err = load_fault_plan(invalid.to_str().expect("utf-8 path"))
            .expect_err("out-of-range probability is rejected");
        assert!(err.contains("validating"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn model_specs() {
        assert_eq!(load_model("transmeta").unwrap().num_levels(), Some(16));
        assert_eq!(load_model("xscale").unwrap().num_levels(), Some(5));
        let c = load_model("continuous:0.25").unwrap();
        assert_eq!(c.num_levels(), None);
        assert!((c.min_speed() - 0.25).abs() < 1e-12);
        assert!(load_model("continuous:2.0").is_err());
        assert!(load_model("pentium").is_err());
    }
}
