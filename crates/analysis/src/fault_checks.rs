//! Fault-plan sanity checks (`PAS02xx`).
//!
//! The range rules are [`FaultPlan::errors`]'s, in `mp-sim`; this module
//! names each with its code and field, and adds the lints: stalls that
//! can never happen, a plan that injects nothing, and a plan aimed at a
//! workload with no computation nodes.

use crate::diag::{Code, Diagnostic, Loc, Report};
use andor_graph::AndOrGraph;
use mp_sim::{FaultPlan, FaultPlanError};

/// Checks one fault plan. When the workload it will be applied to is
/// known, pass it as `graph` to enable the target cross-checks
/// (PAS0205).
pub fn check_fault_plan(plan: &FaultPlan, graph: Option<&AndOrGraph>, src: &str) -> Report {
    let mut r = Report::new();
    for e in plan.errors() {
        let (code, field) = match e {
            FaultPlanError::Probability(field, _) => (Code::Pas0201, field),
            FaultPlanError::OverrunFactor(_) => (Code::Pas0202, "overrun_factor"),
            FaultPlanError::StallMs(_) => (Code::Pas0203, "stall_ms"),
        };
        r.push(Diagnostic::new(code, Loc::at(src, field), e.to_string()));
    }
    if r.has_errors() {
        return r;
    }
    if plan.stall_prob > 0.0 && plan.stall_ms == 0.0 {
        r.push(Diagnostic::new(
            Code::Pas0204,
            Loc::at(src, "stall_ms"),
            format!(
                "stall_prob = {} but stall_ms = 0: stalls can never occur",
                plan.stall_prob
            ),
        ));
    }
    if plan.is_none() {
        r.push(Diagnostic::new(
            Code::Pas0206,
            Loc::whole(src),
            "fault plan injects nothing (all probabilities are zero)",
        ));
    } else if let Some(g) = graph {
        let targets = g.nodes().iter().filter(|n| n.kind.is_computation()).count();
        if targets == 0 {
            r.push(Diagnostic::new(
                Code::Pas0205,
                Loc::whole(src),
                "fault plan targets a workload with no computation nodes; \
                 no fault can ever be injected",
            ));
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_plan_is_clean() {
        let plan = FaultPlan::overruns(0.2, 1.5, 7);
        assert!(check_fault_plan(&plan, None, "p.json").is_clean());
    }

    #[test]
    fn range_violations_all_reported() {
        let plan = FaultPlan {
            overrun_prob: 2.0,
            overrun_factor: 0.5,
            speed_fail_prob: -0.1,
            stall_prob: 0.3,
            stall_ms: -1.0,
            seed: 0,
        };
        let r = check_fault_plan(&plan, None, "p.json");
        let codes: Vec<_> = r.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(
            codes,
            vec![Code::Pas0201, Code::Pas0201, Code::Pas0202, Code::Pas0203]
        );
    }

    #[test]
    fn degenerate_plans_warned() {
        let r = check_fault_plan(&FaultPlan::none(), None, "p.json");
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].code, Code::Pas0206);
        assert!(!r.has_errors() && !r.has_warnings());

        let mut stall_no_dur = FaultPlan::none();
        stall_no_dur.stall_prob = 0.4;
        let r = check_fault_plan(&stall_no_dur, None, "p.json");
        assert_eq!(r.diagnostics[0].code, Code::Pas0204);
    }
}
