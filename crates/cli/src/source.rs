//! Resolving sources: `--app`, `--model`, `--fault-plan` and the
//! positional sources of `pas plan` and `pas check`. Each file is read
//! and parsed once.

use crate::args::Args;
use andor_graph::AndOrGraph;
use dvfs_power::ProcessorModel;
use mp_sim::FaultPlan;
use pas_analyze::Report;
use pas_core::PlanArtifact;
use serde::Value;

/// What one source spec turned out to be.
pub enum Source {
    Workload(String, AndOrGraph),
    Platform(String, ProcessorModel),
    Fault(String, FaultPlan),
    Plan(String, Box<PlanArtifact>),
}

/// Classifies one source spec. Built-in workload names and platform specs
/// are recognized directly; a JSON file is sniffed by its top-level keys
/// (`schema_version` → plan artifact, `nodes` → workload, `overrun_prob`
/// → fault plan, `kind` → platform). Nothing is validated here beyond
/// `--alpha`, which a workload file refuses: `pas check` reports every
/// problem, and the other commands refuse an input whose report has an
/// error.
pub fn classify(spec: &str, args: &Args) -> Result<Source, String> {
    if let Some(model) = ProcessorModel::from_spec(spec) {
        return Ok(Source::Platform(spec.to_string(), model?));
    }
    if let Some(g) = workloads::builtin(spec, args.alpha, args.seed) {
        return Ok(Source::Workload(spec.to_string(), g?));
    }
    let path = spec;
    let value = read_json(path)?;
    let label = path.to_string();
    if value.get("schema_version").is_some() {
        PlanArtifact::from_value(&value)
            .map(|a| Source::Plan(label, Box::new(a)))
            .map_err(|e| format!("parsing {path}: {e}"))
    } else if value.get("nodes").is_some() {
        refuse_alpha(args)?;
        serde_json::from_value(&value)
            .map(|g| Source::Workload(label, g))
            .map_err(|e| format!("parsing {path}: {e}"))
    } else if value.get("overrun_prob").is_some() {
        serde_json::from_value(&value)
            .map(|p| Source::Fault(label, p))
            .map_err(|e| format!("parsing {path}: {e}"))
    } else if value.get("kind").is_some() {
        serde_json::from_value(&value)
            .map(|m| Source::Platform(label, m))
            .map_err(|e| format!("parsing {path}: {e}"))
    } else {
        Err(format!(
            "{path}: cannot classify source (expected a plan artifact with \
             \"schema_version\", a workload with \"nodes\", a fault plan with \
             \"overrun_prob\", or a platform with \"kind\")"
        ))
    }
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))
}

/// Reads the workload `--app` names: a built-in with the optional
/// `--alpha` override applied before lowering, or a JSON file. Nothing is
/// validated here; the commands run the `pas-analyze` checks on it.
pub fn read_app(args: &Args) -> Result<AndOrGraph, String> {
    if let Some(g) = workloads::builtin(&args.app, args.alpha, args.seed) {
        return g;
    }
    refuse_alpha(args)?;
    let path = &args.app;
    serde_json::from_value(&read_json(path)?).map_err(|e| format!("parsing {path}: {e}"))
}

/// `--alpha` rescales a built-in workload; a workload file carries its
/// own execution times.
fn refuse_alpha(args: &Args) -> Result<(), String> {
    match args.alpha {
        Some(_) => Err("--alpha applies only to the built-in workloads".into()),
        None => Ok(()),
    }
}

/// Loads a fault plan from a JSON file (the serde form of
/// [`mp_sim::FaultPlan`]), refused with the rendered report when it
/// breaks a range rule.
pub fn load_fault_plan(path: &str) -> Result<FaultPlan, String> {
    let plan: FaultPlan =
        serde_json::from_value(&read_json(path)?).map_err(|e| format!("parsing {path}: {e}"))?;
    refuse_errors(&pas_analyze::check_fault_plan(&plan, None, path))?;
    Ok(plan)
}

/// Refuses an input whose ingest report — the checks `pas check` runs —
/// has an error, with the rendered report. Warnings are ignored here (run
/// `pas check` for the full report including feasibility).
pub fn refuse_errors(report: &Report) -> Result<(), String> {
    if report.has_errors() {
        return Err(format!(
            "pre-run check failed:\n{}",
            report.render_human().trim_end()
        ));
    }
    Ok(())
}

/// Resolves the `--model` specification.
pub fn load_model(spec: &str) -> Result<ProcessorModel, String> {
    ProcessorModel::resolve(spec)
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
        assert!(read_app(&base_args("synthetic")).is_ok());
        assert!(read_app(&base_args("atr")).is_ok());
        assert!(read_app(&base_args("video")).is_ok());
    }

    #[test]
    fn alpha_override_applies() {
        let mut a = base_args("synthetic");
        a.alpha = Some(0.4);
        let g = read_app(&a).unwrap();
        for (_, n) in g.iter() {
            if n.kind.is_computation() {
                assert!((n.kind.acet() - 0.4 * n.kind.wcet()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn missing_file_errors() {
        let err = read_app(&base_args("/nonexistent/x.json")).unwrap_err();
        assert!(err.contains("reading"), "{err}");
    }

    #[test]
    fn invalid_json_errors() {
        let dir = std::env::temp_dir().join("pas_cli_test_source");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("bad.json");
        std::fs::write(&path, "{not json").unwrap();
        let err = read_app(&base_args(path.to_str().unwrap())).unwrap_err();
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
        assert!(err.contains("error[PAS0201]"), "{err}");
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
