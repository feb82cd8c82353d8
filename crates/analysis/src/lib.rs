#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::indexing_slicing))]

//! Static analysis and feasibility verification for the PAS workspace —
//! the engine behind `pas check`.
//!
//! The crate is a pure front-end: it never mutates its inputs and never
//! perturbs the numeric simulation path. It turns the mid-simulation
//! panics and `SimError`s a malformed input would cause into upfront
//! [`Diagnostic`]s with stable `PAS0xxx` codes. The error rules of the
//! first three ranges live once, in the crate that owns each input type
//! (`AndOrGraph::errors`, `ProcessorModel::errors`, `Overheads::errors`,
//! `PlanError::check_*`, `FaultPlan::errors`); this crate names them and
//! adds its lints and cross-input passes:
//!
//! | range     | subject |
//! |-----------|---------|
//! | `PAS00xx` | graph well-formedness ([`graph_checks`]) |
//! | `PAS01xx` | platform, overheads, run parameters ([`platform_checks`]) |
//! | `PAS02xx` | fault plans ([`fault_checks`]) |
//! | `PAS03xx` | Theorem-1 feasibility ([`feasibility`]) |
//! | `PAS04xx` | serialized plan artifacts ([`plan_checks`]) |
//! | `PAS06xx` | symbolic energy/timing bounds ([`bounds`]) |
//!
//! The full catalog with messages and the feasibility-verifier soundness
//! argument live in DESIGN.md §3e; `docs/diagnostics.md` is the
//! user-facing reference (kept in sync by test).
//!
//! # Examples
//!
//! Checking a workload/platform pair end to end:
//!
//! ```
//! use andor_graph::Segment;
//! use dvfs_power::{Overheads, ProcessorModel};
//! use pas_analyze::{check_application, DeadlineSpec};
//!
//! let g = Segment::seq([
//!     Segment::task("A", 8.0, 5.0),
//!     Segment::task("B", 4.0, 2.0),
//! ])
//! .lower()
//! .unwrap();
//! let analysis = check_application(
//!     &g,
//!     "app",
//!     &ProcessorModel::xscale(),
//!     "xscale",
//!     Overheads::paper_defaults(),
//!     2,
//!     DeadlineSpec::Load(0.5),
//! );
//! assert!(analysis.report.is_clean());
//! assert!(analysis.feasibility.unwrap().static_slack_ms > 0.0);
//! ```
//!
//! Verifying a serialized plan artifact against its inputs:
//!
//! ```
//! use andor_graph::Segment;
//! use dvfs_power::ProcessorModel;
//! use pas_analyze::check_plan;
//! use pas_core::{PlanArtifact, Scheme, Setup};
//!
//! let g = Segment::seq([
//!     Segment::task("A", 8.0, 5.0),
//!     Segment::task("B", 4.0, 2.0),
//! ])
//! .lower()
//! .unwrap();
//! let setup = Setup::for_load(g.clone(), ProcessorModel::xscale(), 2, 0.5).unwrap();
//! let artifact = PlanArtifact::from_setup(&setup, Scheme::Gss, "app", "xscale");
//! let report = check_plan(&artifact, "plan.json", &g, "app", &setup.model);
//! assert!(report.is_clean());
//! ```

pub mod bounds;
pub mod diag;
mod enumeration;
pub mod fault_checks;
pub mod feasibility;
pub mod fixes;
pub mod graph_checks;
pub mod plan_checks;
pub mod platform_checks;

pub use bounds::{
    analyze_bounds, BoundsAnalysis, BoundsConfig, EnergySplit, FaultEnvelope, Interval,
    SchemeBounds,
};
pub use diag::{Code, Diagnostic, Loc, Report, Severity};
pub use enumeration::ENUMERATION_THRESHOLD;
pub use fault_checks::check_fault_plan;
pub use feasibility::{verify_feasibility, DeadlineSpec, Feasibility};
pub use fixes::fix_graph;
pub use graph_checks::check_graph;
pub use plan_checks::check_plan;
pub use platform_checks::{check_model, check_overheads, check_run_params};

use andor_graph::{AndOrGraph, SectionGraph};
use dvfs_power::{Overheads, ProcessorModel};

/// The result of a full application check: all diagnostics, plus the
/// feasibility summary when the inputs were sound enough to compute one.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Every diagnostic, in check order (graph, platform, parameters,
    /// feasibility).
    pub report: Report,
    /// Feasibility findings; `None` when structural errors prevented the
    /// verifier from running.
    pub feasibility: Option<Feasibility>,
}

/// The ingest checks every front end runs on a workload/platform pair
/// before planning or simulating it: graph well-formedness, then the
/// platform.
pub fn check_inputs(
    g: &AndOrGraph,
    graph_src: &str,
    model: &ProcessorModel,
    model_src: &str,
) -> Report {
    let mut report = check_graph(g, graph_src);
    report.merge(check_model(model, model_src));
    report
}

/// Runs the complete static-analysis pipeline over one workload/platform
/// pair: graph well-formedness, platform and parameter validity, then —
/// only if everything structural is clean — the Theorem-1 feasibility
/// verifier.
pub fn check_application(
    g: &AndOrGraph,
    graph_src: &str,
    model: &ProcessorModel,
    model_src: &str,
    overheads: Overheads,
    num_procs: usize,
    spec: DeadlineSpec,
) -> Analysis {
    let mut report = check_inputs(g, graph_src, model, model_src);
    report.merge(check_overheads(&overheads, model_src));
    report.merge(check_run_params(
        num_procs,
        match spec {
            DeadlineSpec::Deadline(d) => Some(d),
            DeadlineSpec::Load(_) => None,
        },
        graph_src,
    ));
    if report.has_errors() {
        return Analysis {
            report,
            feasibility: None,
        };
    }
    let sections = match SectionGraph::build(g) {
        Ok(s) => s,
        Err(e) => {
            // Unreachable after a clean `check_graph`, but kept total.
            report.push(Diagnostic::new(
                Code::Pas0011,
                Loc::whole(graph_src),
                e.to_string(),
            ));
            return Analysis {
                report,
                feasibility: None,
            };
        }
    };
    let (fr, feasibility) =
        verify_feasibility(g, &sections, model, overheads, num_procs, spec, graph_src);
    report.merge(fr);
    Analysis {
        report,
        feasibility,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use andor_graph::Segment;

    #[test]
    fn end_to_end_clean_application() {
        let g = Segment::seq([
            Segment::task("A", 8.0, 5.0),
            Segment::par([Segment::task("B", 6.0, 3.0), Segment::task("C", 2.0, 1.0)]),
        ])
        .lower()
        .expect("valid segment lowers");
        let a = check_application(
            &g,
            "app",
            &ProcessorModel::xscale(),
            "xscale",
            Overheads::paper_defaults(),
            2,
            DeadlineSpec::Load(0.5),
        );
        assert!(a.report.is_clean(), "{}", a.report.render_human());
        assert!(a.feasibility.expect("computed").static_slack_ms > 0.0);
    }

    #[test]
    fn structural_errors_suppress_feasibility() {
        let g: AndOrGraph = serde_json::from_str(r#"{"nodes": []}"#).expect("parses");
        let a = check_application(
            &g,
            "bad",
            &ProcessorModel::xscale(),
            "xscale",
            Overheads::paper_defaults(),
            2,
            DeadlineSpec::Deadline(10.0),
        );
        assert!(a.report.has_errors());
        assert!(a.feasibility.is_none());
    }
}
