//! Symbolic Theorem-1 feasibility verification (`PAS03xx`).
//!
//! Theorem 1 of the paper guarantees the deadline *given* that the
//! worst-case canonical schedule of every OR-path fits inside `D` at
//! maximum speed. This module proves (or refutes) that premise without
//! running the simulator:
//!
//! 1. The deadline-independent half of the off-line phase
//!    ([`CanonicalPlan::build`], the same pass `Setup::for_load` runs) yields
//!    the per-section canonical lengths at WCET/`f_max` — including the
//!    per-task PMP reservation, so the bound is the one the runtime
//!    actually schedules against.
//! 2. The number of OR-paths is counted *without* enumeration (a memoized
//!    sum/chain recursion over the section DAG, saturating on overflow).
//! 3. Below [`ENUMERATION_THRESHOLD`] paths, every scenario is enumerated
//!    and its chain of section lengths summed exactly; the maximizing
//!    path is reported as a witness. Above the threshold, the offline
//!    phase's recursive worst-case (`Tw`) is used as a conservative
//!    bound and PAS0303 notes the downgrade.
//! 4. `worst > D` (with the offline phase's own relative tolerance) is
//!    PAS0301, an error; `worst == D` within float noise is PAS0302, a
//!    zero-static-slack warning — NPM meets the deadline with nothing to
//!    spare, so any overhead mis-modelling shows up as a miss.
//!
//! Soundness: the enumerated per-path sums equal the offline `Tw` by
//! construction (debug-asserted), and `Tw` is exactly the quantity
//! Theorem 1's induction needs — see DESIGN.md §3e for the argument.

use crate::diag::{Code, Diagnostic, Loc, Report};
use crate::enumeration::{self, count_scenarios};
use andor_graph::{AndOrGraph, SectionGraph};
use dvfs_power::{Overheads, ProcessorModel};
use pas_core::{CanonicalPlan, PlanError, SchemeParams, Setup, SetupError, MAX_PROCS};

pub use crate::enumeration::ENUMERATION_THRESHOLD;

/// How the deadline is specified.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeadlineSpec {
    /// An explicit deadline in milliseconds.
    Deadline(f64),
    /// A system load `Tw / D` in `(0, 1]`; the deadline is derived as
    /// `worst_case / load` (the CLI's `--load` convention).
    Load(f64),
}

impl DeadlineSpec {
    /// The spec a front end's optional deadline and load give: the
    /// deadline when there is one, else the load, else load 0.5.
    pub fn from_flags(deadline: Option<f64>, load: Option<f64>) -> Self {
        match (deadline, load) {
            (Some(d), _) => Self::Deadline(d),
            (None, l) => Self::Load(l.unwrap_or(0.5)),
        }
    }

    /// Runs the off-line phase for this spec with the paper's default
    /// overheads: [`Setup::new`] for a deadline, [`Setup::for_load`] for
    /// a load.
    pub fn setup(
        self,
        graph: AndOrGraph,
        model: ProcessorModel,
        num_procs: usize,
    ) -> Result<Setup, SetupError> {
        match self {
            Self::Deadline(d) => Setup::new(graph, model, num_procs, d),
            Self::Load(l) => Setup::for_load(graph, model, num_procs, l),
        }
    }
}

/// The verifier's findings, returned alongside the diagnostics so the
/// CLI can print a feasibility summary for clean inputs too.
#[derive(Debug, Clone, PartialEq)]
pub struct Feasibility {
    /// Worst-case canonical finish time over all OR-paths, at `f_max`,
    /// reservations included (ms).
    pub worst_case_ms: f64,
    /// The deadline verified against (ms).
    pub deadline_ms: f64,
    /// `deadline_ms - worst_case_ms` (negative when infeasible).
    pub static_slack_ms: f64,
    /// Number of distinct OR-paths (saturating).
    pub scenarios_total: u64,
    /// True when every path was enumerated; false when the conservative
    /// bound was used.
    pub exact: bool,
    /// The OR choices of the worst path (`"n3 ('detect') -> branch 1"`
    /// per entry); empty for single-path applications or when inexact.
    pub witness: Vec<String>,
}

/// Verifies Theorem-1 feasibility of `(g, model, num_procs)` against
/// `spec`. `sections` must be the decomposition of `g` (the caller has
/// already established graph cleanliness).
pub fn verify_feasibility(
    g: &AndOrGraph,
    sections: &SectionGraph,
    model: &ProcessorModel,
    overheads: Overheads,
    num_procs: usize,
    spec: DeadlineSpec,
    src: &str,
) -> (Report, Option<Feasibility>) {
    let mut r = Report::new();
    let reserve = pas_core::pmp_reserve(model, overheads);
    let canonical = match CanonicalPlan::build(g, sections, num_procs, reserve) {
        Ok(c) => c,
        Err(e) => {
            r.push(plan_error(e, src));
            return (r, None);
        }
    };

    let scenarios_total = count_scenarios(g, sections);
    let (worst, exact, witness) = if scenarios_total <= ENUMERATION_THRESHOLD {
        let _enum_span =
            pas_obs::profile::span_with(pas_obs::profile::names::OFFLINE_ENUMERATE, || {
                format!("{scenarios_total} paths")
            });
        let (max, witness) = enumerate_worst(g, sections, canonical.section_worst_len());
        debug_assert!(
            (max - canonical.worst_total()).abs() <= 1e-6 * canonical.worst_total().max(1.0),
            "enumerated worst {max} disagrees with offline Tw {}",
            canonical.worst_total()
        );
        (max, true, witness)
    } else {
        r.push(Diagnostic::new(
            Code::Pas0303,
            Loc::whole(src),
            format!(
                "{scenarios_total} OR-paths exceed the enumeration threshold \
                 {ENUMERATION_THRESHOLD}; using the recursive worst-case bound"
            ),
        ));
        (canonical.worst_total(), false, Vec::new())
    };

    let deadline = match spec {
        DeadlineSpec::Deadline(d) => d,
        DeadlineSpec::Load(l) => {
            if let Err(e) = PlanError::check_load(l) {
                r.push(plan_error(e, src));
                return (r, None);
            }
            worst / l
        }
    };
    if let Err(e) = PlanError::check_deadline(deadline) {
        r.push(plan_error(e, src));
        return (r, None);
    }

    let slack = deadline - worst;
    let feas = Feasibility {
        worst_case_ms: worst,
        deadline_ms: deadline,
        static_slack_ms: slack,
        scenarios_total,
        exact,
        witness: witness.clone(),
    };
    // Same relative tolerance as `OfflinePlan`, so `pas check` and the
    // offline phase never disagree about the same input.
    if worst > deadline * (1.0 + 1e-12) {
        let path = if witness.is_empty() {
            String::new()
        } else {
            format!(" on OR-path [{}]", witness.join(", "))
        };
        r.push(Diagnostic::new(
            Code::Pas0301,
            Loc::whole(src),
            format!(
                "statically infeasible: the worst case needs {worst:.3} ms at f_max but \
                 the deadline is {deadline:.3} ms (over by {:.3} ms){path}",
                worst - deadline
            ),
        ));
    } else {
        if slack <= 1e-9 * deadline.max(1.0) {
            r.push(Diagnostic::new(
                Code::Pas0302,
                Loc::whole(src),
                format!(
                    "zero static slack: the worst case finishes at {worst:.3} ms, exactly \
                     at the deadline — any modelling error becomes a miss"
                ),
            ));
        }
        check_ss2_switch_time(canonical, model, deadline, src, &mut r);
    }
    (r, Some(feas))
}

/// The code, location and message of a rejected run parameter or
/// offline plan. The location names a top-level `procs`, `deadline` or
/// `load` field; a caller whose source keeps them elsewhere overrides it.
pub(crate) fn plan_error(e: PlanError, src: &str) -> Diagnostic {
    match e {
        PlanError::Infeasible {
            worst_finish,
            deadline,
        } => Diagnostic::new(
            Code::Pas0301,
            Loc::whole(src),
            format!(
                "statically infeasible: the worst case needs {worst_finish:.3} ms at f_max \
                 but the deadline is {deadline:.3} ms"
            ),
        ),
        PlanError::BadDeadline(d) => Diagnostic::new(
            Code::Pas0107,
            Loc::at(src, "deadline"),
            format!("deadline {d} ms must be finite and positive"),
        ),
        PlanError::BadLoad(l) => Diagnostic::new(
            Code::Pas0107,
            Loc::at(src, "load"),
            format!("load {l} must be in (0, 1]"),
        ),
        PlanError::NoProcessors => Diagnostic::new(
            Code::Pas0106,
            Loc::at(src, "procs"),
            "processor count must be positive",
        ),
        PlanError::TooManyProcessors(n) => Diagnostic::new(
            Code::Pas0106,
            Loc::at(src, "procs"),
            format!("processor count {n} exceeds the maximum of {MAX_PROCS}"),
        ),
        PlanError::MissingBranchSection { or, branch } => Diagnostic::new(
            Code::Pas0011,
            Loc::whole(src),
            format!("OR node {or} branch {branch} has no program section"),
        ),
        PlanError::PlanGraphMismatch { detail } => Diagnostic::new(
            Code::Pas0402,
            Loc::whole(src),
            format!("plan does not match the application: {detail}"),
        ),
    }
}

/// Exact enumeration: the worst chain-sum of canonical section lengths
/// over every scenario, plus the maximizing path rendered for humans.
fn enumerate_worst(
    g: &AndOrGraph,
    sections: &SectionGraph,
    section_worst_len: &[f64],
) -> (f64, Vec<String>) {
    let mut worst = f64::NEG_INFINITY;
    let mut witness = Vec::new();
    enumeration::for_each_path(g, sections, |scenario, _p, chain| {
        let total = enumeration::chain_sum(chain, section_worst_len);
        if total > worst {
            worst = total;
            witness = enumeration::witness(g, scenario);
        }
    });
    if worst == f64::NEG_INFINITY {
        (0.0, Vec::new())
    } else {
        (worst, witness)
    }
}

/// PAS0108: applies the real deadline to the canonical pass and takes
/// SS(2)'s *unclamped* switch time from [`SchemeParams::ss2_switch`]. The
/// policy clamps θ into `[0, D]`, so an out-of-range value is not unsafe —
/// but it means the two-speed speculation degenerates to a single speed,
/// which is worth a warning (the user probably wanted SS(1)).
fn check_ss2_switch_time(
    canonical: CanonicalPlan,
    model: &ProcessorModel,
    deadline: f64,
    src: &str,
    r: &mut Report,
) {
    let Ok(plan) = canonical.with_deadline(deadline) else {
        return;
    };
    let (_, _, Some(theta)) = SchemeParams::ss2_switch(&plan, model) else {
        return;
    };
    if !(-1e-9..=plan.deadline + 1e-9).contains(&theta) {
        r.push(Diagnostic::new(
            Code::Pas0108,
            Loc::whole(src),
            format!(
                "SS(2) switch time θ = {theta:.3} ms falls outside [0, {:.3}] and will be \
                 clamped (two-speed speculation degenerates)",
                plan.deadline
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use andor_graph::Segment;

    fn app() -> AndOrGraph {
        Segment::seq([
            Segment::task("A", 8.0, 5.0),
            Segment::branch([
                (0.3, Segment::task("B", 5.0, 3.0)),
                (0.7, Segment::task("C", 4.0, 2.0)),
            ]),
        ])
        .lower()
        .expect("valid segment lowers")
    }

    fn verify(g: &AndOrGraph, deadline: f64) -> (Report, Option<Feasibility>) {
        let sections = SectionGraph::build(g).expect("sections build");
        verify_feasibility(
            g,
            &sections,
            &ProcessorModel::transmeta5400(),
            Overheads::paper_defaults(),
            2,
            DeadlineSpec::Deadline(deadline),
            "test",
        )
    }

    #[test]
    fn feasible_deadline_is_clean_with_exact_witness() {
        let g = app();
        let (r, feas) = verify(&g, 40.0);
        assert!(r.is_clean(), "{}", r.render_human());
        let f = feas.expect("feasibility computed");
        assert!(f.exact);
        assert_eq!(f.scenarios_total, 2);
        assert!(f.static_slack_ms > 0.0);
        // Worst path takes branch 0 (B, wcet 5 > C, wcet 4).
        assert_eq!(f.witness.len(), 1);
        assert!(f.witness[0].contains("branch 0"), "{:?}", f.witness);
    }

    #[test]
    fn infeasible_deadline_is_pas0301() {
        let g = app();
        let (r, feas) = verify(&g, 10.0);
        assert!(r.has_errors());
        assert_eq!(r.diagnostics[0].code, Code::Pas0301);
        assert!(r.diagnostics[0].message.contains("OR-path"));
        assert!(feas.expect("feasibility computed").static_slack_ms < 0.0);
    }

    #[test]
    fn zero_slack_is_pas0302() {
        let g = app();
        let (_, feas) = verify(&g, 40.0);
        let worst = feas.expect("feasibility computed").worst_case_ms;
        let (r, _) = verify(&g, worst);
        assert!(!r.has_errors(), "{}", r.render_human());
        assert!(
            r.diagnostics.iter().any(|d| d.code == Code::Pas0302),
            "{}",
            r.render_human()
        );
    }

    #[test]
    fn offline_phase_agrees_with_enumeration() {
        let g = app();
        let sections = SectionGraph::build(&g).expect("sections build");
        let model = ProcessorModel::transmeta5400();
        let reserve = pas_core::pmp_reserve(&model, Overheads::paper_defaults());
        let plan = CanonicalPlan::build(&g, &sections, 2, reserve).expect("canonical pass runs");
        let (worst, _) = enumerate_worst(&g, &sections, plan.section_worst_len());
        assert!((worst - plan.worst_total()).abs() < 1e-9);
    }

    #[test]
    fn load_spec_derives_a_feasible_deadline() {
        let g = app();
        let sections = SectionGraph::build(&g).expect("sections build");
        let (r, feas) = verify_feasibility(
            &g,
            &sections,
            &ProcessorModel::transmeta5400(),
            Overheads::paper_defaults(),
            2,
            DeadlineSpec::Load(0.5),
            "test",
        );
        assert!(r.is_clean(), "{}", r.render_human());
        let f = feas.expect("feasibility computed");
        assert!((f.deadline_ms - 2.0 * f.worst_case_ms).abs() < 1e-9);
    }

    #[test]
    fn full_load_warns_zero_slack() {
        let g = app();
        let sections = SectionGraph::build(&g).expect("sections build");
        let (r, _) = verify_feasibility(
            &g,
            &sections,
            &ProcessorModel::transmeta5400(),
            Overheads::paper_defaults(),
            2,
            DeadlineSpec::Load(1.0),
            "test",
        );
        assert!(!r.has_errors());
        assert!(r.diagnostics.iter().any(|d| d.code == Code::Pas0302));
    }

    #[test]
    fn flags_pick_the_deadline_then_the_load_then_the_default() {
        assert_eq!(
            DeadlineSpec::from_flags(Some(40.0), None),
            DeadlineSpec::Deadline(40.0)
        );
        assert_eq!(
            DeadlineSpec::from_flags(None, Some(0.7)),
            DeadlineSpec::Load(0.7)
        );
        assert_eq!(
            DeadlineSpec::from_flags(None, None),
            DeadlineSpec::Load(0.5)
        );
    }

    #[test]
    fn spec_setup_matches_the_setup_constructors() {
        let model = ProcessorModel::xscale();
        let by_load = DeadlineSpec::Load(0.5)
            .setup(app(), model.clone(), 2)
            .expect("feasible load");
        let direct = Setup::for_load(app(), model.clone(), 2, 0.5).expect("feasible load");
        let json = |s: &Setup| serde_json::to_string(&s.plan).expect("plan prints");
        assert_eq!(json(&by_load), json(&direct));
        let by_deadline = DeadlineSpec::Deadline(direct.plan.deadline)
            .setup(app(), model.clone(), 2)
            .expect("feasible deadline");
        let direct = Setup::new(app(), model, 2, direct.plan.deadline).expect("feasible deadline");
        assert_eq!(json(&by_deadline), json(&direct));
    }
}
