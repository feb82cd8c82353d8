//! Plan-artifact verification (`PAS04xx`).
//!
//! A `pas plan --out` artifact is a *claim*: "this canonical schedule,
//! these latest start times, these speculative parameters are what the
//! off-line phase produces for that workload on that platform, and they
//! meet the deadline". This module re-derives the whole artifact
//! independently and diffs every field, then re-proves the scheme-specific
//! bounds symbolically over OR-paths (the same enumeration the Theorem-1
//! verifier uses):
//!
//! * `PAS0401` — unsupported schema version;
//! * `PAS0402` — the plan does not fit the workload at all (table lengths
//!   disagree with the graph or its section decomposition, or the
//!   dispatch order cannot run on it): `PlanError::check_fit`, the rule
//!   `Setup::from_plan` refuses by;
//! * `PAS0403` — the canonical schedule (dispatch order or canonical
//!   start times) differs from re-derivation;
//! * `PAS0404` — a latest start time differs from re-derivation;
//! * `PAS0405` — the timing statistics (`Tw`, `Ta`, per-branch tables,
//!   section lengths, worst-remaining) differ from re-derivation;
//! * `PAS0406` — the stored scheme parameters differ from what the
//!   policies derive from the re-derived plan;
//! * `PAS0407` — SS(2)'s switch time θ falls outside `[0, D]` or violates
//!   the switch equation `θ·s₁ + (D−θ)·s₂ = Tᵃ` against the OR-path
//!   enumerated average;
//! * `PAS0408` — a speculative speed (SS(1)'s floor, AS's initial or
//!   per-branch speculation) undercuts the GSS-guaranteed floor — it
//!   assumes less remaining work than the enumeration proves;
//! * `PAS0409` — the plan's deadline is infeasible for the workload
//!   (enumerated worst case exceeds it), so no on-line scheme can honour
//!   the plan's guarantee.
//!
//! The verifier is deliberately *independent* of the serializer: it never
//! trusts a stored value it can recompute, which is what makes a clean
//! `pas check plan.json --against …` an end-to-end proof that the file on
//! disk still means what the off-line phase meant.

use crate::diag::{Code, Diagnostic, Loc, Report};
use crate::enumeration::{self, count_scenarios, ENUMERATION_THRESHOLD};
use crate::feasibility::plan_error;
use andor_graph::{AndOrGraph, SectionGraph};
use dvfs_power::ProcessorModel;
use pas_core::{
    pmp_reserve, OfflinePlan, PlanArtifact, PlanError, SchemeParams, PLAN_SCHEMA_VERSION,
};

/// Relative tolerance for all numeric plan comparisons. The serializer
/// round-trips `f64`s exactly, so honest artifacts compare bit-equal;
/// the tolerance only keeps the verifier robust to future formatting
/// changes.
const REL_TOL: f64 = 1e-9;

fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// Worst and probability-weighted average chain-sums of canonical section
/// lengths over every OR-path of `plan` — the symbolic quantities the
/// scheme bounds are checked against.
fn enumerate_stats(g: &AndOrGraph, sections: &SectionGraph, plan: &OfflinePlan) -> (f64, f64) {
    let mut worst = f64::NEG_INFINITY;
    let mut avg = 0.0_f64;
    enumeration::for_each_path(g, sections, |_scenario, p, chain| {
        worst = worst.max(enumeration::chain_sum(chain, &plan.section_worst_len));
        avg += p * enumeration::chain_sum(chain, &plan.section_avg_len);
    });
    if worst == f64::NEG_INFINITY {
        (0.0, 0.0)
    } else {
        (worst, avg)
    }
}

/// Verifies a deserialized plan artifact against an independently loaded
/// workload and platform. `plan_src` labels the artifact file in
/// diagnostics; `graph_src` labels the reference workload. The caller
/// must have already established graph cleanliness (`check_graph`) —
/// structural graph errors make every comparison here meaningless.
pub fn check_plan(
    artifact: &PlanArtifact,
    plan_src: &str,
    g: &AndOrGraph,
    graph_src: &str,
    model: &ProcessorModel,
) -> Report {
    let _span = pas_obs::profile::span_with(pas_obs::profile::names::CHECK_VERIFY_PLAN, || {
        plan_src.to_string()
    });
    let mut r = Report::new();
    if artifact.schema_version != PLAN_SCHEMA_VERSION {
        r.push(Diagnostic::new(
            Code::Pas0401,
            Loc::at(plan_src, "schema_version"),
            format!(
                "unsupported plan schema version {} (this build reads version {})",
                artifact.schema_version, PLAN_SCHEMA_VERSION
            ),
        ));
        return r;
    }
    r.merge(crate::platform_checks::check_overheads(
        &artifact.overheads,
        plan_src,
    ));
    let stored = &artifact.plan;
    for (path, check) in [
        ("plan.num_procs", PlanError::check_procs(stored.num_procs)),
        ("plan.deadline", PlanError::check_deadline(stored.deadline)),
    ] {
        if let Err(e) = check {
            r.push(Diagnostic {
                loc: Loc::at(plan_src, path),
                ..plan_error(e, plan_src)
            });
        }
    }
    if artifact.params.scheme() != artifact.scheme {
        r.push(Diagnostic::new(
            Code::Pas0406,
            Loc::at(plan_src, "params"),
            format!(
                "artifact claims scheme {} but carries {} parameters",
                artifact.scheme.name(),
                artifact.params.scheme().name()
            ),
        ));
    }
    if r.has_errors() {
        return r;
    }

    let sections = match SectionGraph::build(g) {
        Ok(s) => s,
        Err(e) => {
            r.push(Diagnostic::new(
                Code::Pas0402,
                Loc::whole(plan_src),
                format!("workload {graph_src} has no section decomposition: {e}"),
            ));
            return r;
        }
    };
    if let Err(e) = PlanError::check_fit(stored, g, &sections) {
        r.push(plan_error(e, plan_src));
        return r;
    }

    // Independent re-derivation: the whole off-line phase, from scratch,
    // at the stored deadline with the stored overheads.
    let reserve = pmp_reserve(model, artifact.overheads);
    let rederived = match OfflinePlan::build_with_pmp_reserve(
        g,
        &sections,
        stored.num_procs,
        stored.deadline,
        reserve,
    ) {
        Ok(p) => p,
        Err(PlanError::Infeasible {
            worst_finish,
            deadline,
        }) => {
            r.push(Diagnostic::new(
                Code::Pas0409,
                Loc::whole(plan_src),
                format!(
                    "plan deadline {deadline:.3} ms is infeasible for {graph_src}: \
                     the re-derived worst case needs {worst_finish:.3} ms at f_max"
                ),
            ));
            return r;
        }
        Err(e) => {
            r.push(plan_error(e, plan_src));
            return r;
        }
    };

    compare_schedule(stored, &rederived, plan_src, &mut r);
    compare_lst(stored, &rederived, g, plan_src, &mut r);
    compare_stats(stored, &rederived, plan_src, &mut r);
    compare_params(artifact, &rederived, model, plan_src, &mut r);
    scheme_bounds(artifact, &rederived, g, &sections, plan_src, &mut r);
    r
}

/// `PAS0403`: dispatch order and canonical start times.
fn compare_schedule(stored: &OfflinePlan, rederived: &OfflinePlan, src: &str, r: &mut Report) {
    for (sid, (so, ro)) in stored
        .dispatch
        .per_section
        .iter()
        .zip(rederived.dispatch.per_section.iter())
        .enumerate()
    {
        if so != ro {
            r.push(Diagnostic::new(
                Code::Pas0403,
                Loc::at(src, format!("plan.dispatch[{sid}]")),
                format!(
                    "section {sid} dispatch order {:?} differs from the re-derived LTF order {:?}",
                    so.iter().map(|n| n.index()).collect::<Vec<_>>(),
                    ro.iter().map(|n| n.index()).collect::<Vec<_>>()
                ),
            ));
            continue; // Start times are meaningless under a different order.
        }
        let ss = stored.canonical_start_rel.get(sid);
        let rs = rederived.canonical_start_rel.get(sid);
        if let (Some(ss), Some(rs)) = (ss, rs) {
            for (i, (a, b)) in ss.iter().zip(rs.iter()).enumerate() {
                if !approx_eq(*a, *b) {
                    r.push(Diagnostic::new(
                        Code::Pas0403,
                        Loc::at(src, format!("plan.canonical_start_rel[{sid}][{i}]")),
                        format!(
                            "canonical start {a} ms differs from the re-derived {b} ms \
                             (section {sid}, dispatch slot {i})"
                        ),
                    ));
                }
            }
        }
    }
}

/// `PAS0404`: latest start times, per node.
fn compare_lst(
    stored: &OfflinePlan,
    rederived: &OfflinePlan,
    g: &AndOrGraph,
    src: &str,
    r: &mut Report,
) {
    for (i, (s, d)) in stored.lst.iter().zip(rederived.lst.iter()).enumerate() {
        let name = g
            .iter()
            .nth(i)
            .map(|(_, n)| n.name.clone())
            .unwrap_or_default();
        match (s, d) {
            (Some(a), Some(b)) if !approx_eq(*a, *b) => r.push(Diagnostic::new(
                Code::Pas0404,
                Loc::at(src, format!("plan.lst[{i}]")),
                format!(
                    "latest start time of node {i} ('{name}') is {a} ms in the plan but \
                     re-derives to {b} ms — a tampered or stale LST breaks the Theorem-1 shift"
                ),
            )),
            (Some(_), None) | (None, Some(_)) => r.push(Diagnostic::new(
                Code::Pas0404,
                Loc::at(src, format!("plan.lst[{i}]")),
                format!(
                    "node {i} ('{name}') {} a latest start time in the plan but the \
                     re-derivation disagrees",
                    if s.is_some() { "has" } else { "lacks" }
                ),
            )),
            _ => {}
        }
    }
}

/// `PAS0405`: `Tw`/`Ta`, section lengths, remaining-time tables.
fn compare_stats(stored: &OfflinePlan, rederived: &OfflinePlan, src: &str, r: &mut Report) {
    fn diff(r: &mut Report, src: &str, path: String, a: f64, b: f64) {
        if !approx_eq(a, b) {
            r.push(Diagnostic::new(
                Code::Pas0405,
                Loc::at(src, path),
                format!("stored value {a} differs from the re-derived {b}"),
            ));
        }
    }
    diff(
        r,
        src,
        "plan.worst_total".into(),
        stored.worst_total,
        rederived.worst_total,
    );
    diff(
        r,
        src,
        "plan.avg_total".into(),
        stored.avg_total,
        rederived.avg_total,
    );
    for (name, sv, rv) in [
        (
            "section_worst_len",
            &stored.section_worst_len,
            &rederived.section_worst_len,
        ),
        (
            "section_avg_len",
            &stored.section_avg_len,
            &rederived.section_avg_len,
        ),
        ("worst_after", &stored.worst_after, &rederived.worst_after),
    ] {
        for (i, (a, b)) in sv.iter().zip(rv.iter()).enumerate() {
            diff(r, src, format!("plan.{name}[{i}]"), *a, *b);
        }
    }
    for (name, sm, rm) in [
        (
            "branch_worst",
            &stored.branch_worst,
            &rederived.branch_worst,
        ),
        ("branch_avg", &stored.branch_avg, &rederived.branch_avg),
    ] {
        let mut keys: Vec<_> = sm.keys().chain(rm.keys()).collect();
        keys.sort();
        keys.dedup();
        for key in keys {
            let (or, k) = *key;
            match (sm.get(key), rm.get(key)) {
                (Some(a), Some(b)) => diff(r, src, format!("plan.{name}[{or},{k}]"), *a, *b),
                (a, b) => r.push(Diagnostic::new(
                    Code::Pas0405,
                    Loc::at(src, format!("plan.{name}[{or},{k}]")),
                    format!(
                        "entry ({or}, branch {k}) is {} the plan but {} the re-derivation",
                        if a.is_some() { "in" } else { "missing from" },
                        if b.is_some() { "in" } else { "missing from" },
                    ),
                )),
            }
        }
    }
}

/// `PAS0406`: the stored scheme parameters vs. what the policies derive
/// from the re-derived plan.
fn compare_params(
    artifact: &PlanArtifact,
    rederived: &OfflinePlan,
    model: &ProcessorModel,
    src: &str,
    r: &mut Report,
) {
    let expected = SchemeParams::derive(artifact.scheme, rederived, model, artifact.overheads);
    let fields: Vec<(&str, f64, f64)> = match (&artifact.params, &expected) {
        (SchemeParams::Npm, SchemeParams::Npm) | (SchemeParams::Gss, SchemeParams::Gss) => vec![],
        (SchemeParams::Spm { static_speed: a }, SchemeParams::Spm { static_speed: b }) => {
            vec![("static_speed", *a, *b)]
        }
        (SchemeParams::Ss1 { spec_speed: a }, SchemeParams::Ss1 { spec_speed: b }) => {
            vec![("spec_speed", *a, *b)]
        }
        (
            SchemeParams::Ss2 {
                low: al,
                high: ah,
                switch_time: at,
            },
            SchemeParams::Ss2 {
                low: bl,
                high: bh,
                switch_time: bt,
            },
        ) => vec![
            ("low", *al, *bl),
            ("high", *ah, *bh),
            ("switch_time", *at, *bt),
        ],
        (SchemeParams::As { initial_spec: a }, SchemeParams::As { initial_spec: b }) => {
            vec![("initial_spec", *a, *b)]
        }
        // Variant mismatch against the claimed scheme was reported before
        // re-derivation; nothing numeric to compare.
        _ => return,
    };
    for (field, a, b) in fields {
        if !approx_eq(a, b) {
            r.push(Diagnostic::new(
                Code::Pas0406,
                Loc::at(src, format!("params.{field}")),
                format!(
                    "{} parameter '{field}' is {a} in the artifact but re-derives to {b}",
                    artifact.scheme.name()
                ),
            ));
        }
    }
}

/// `PAS0407`/`PAS0408`/`PAS0409`: the scheme-specific bounds, proved over
/// the OR-path enumeration (exact below [`ENUMERATION_THRESHOLD`], with a
/// `PAS0303` note and the recursive totals above it).
fn scheme_bounds(
    artifact: &PlanArtifact,
    rederived: &OfflinePlan,
    g: &AndOrGraph,
    sections: &SectionGraph,
    src: &str,
    r: &mut Report,
) {
    let deadline = rederived.deadline;
    let scenarios = count_scenarios(g, sections);
    let (worst, avg) = if scenarios <= ENUMERATION_THRESHOLD {
        let _enum_span =
            pas_obs::profile::span_with(pas_obs::profile::names::OFFLINE_ENUMERATE, || {
                format!("{scenarios} paths")
            });
        enumerate_stats(g, sections, rederived)
    } else {
        r.push(Diagnostic::new(
            Code::Pas0303,
            Loc::whole(src),
            format!(
                "{scenarios} OR-paths exceed the enumeration threshold \
                 {ENUMERATION_THRESHOLD}; scheme bounds use the recursive totals"
            ),
        ));
        (rederived.worst_total, rederived.avg_total)
    };
    debug_assert!(
        scenarios > ENUMERATION_THRESHOLD || approx_eq(worst, rederived.worst_total),
        "enumerated worst {worst} disagrees with recursive Tw {}",
        rederived.worst_total
    );

    if worst > deadline * (1.0 + 1e-12) {
        r.push(Diagnostic::new(
            Code::Pas0409,
            Loc::whole(src),
            format!(
                "enumerated worst-case OR-path needs {worst:.3} ms at f_max but the plan \
                 deadline is {deadline:.3} ms"
            ),
        ));
    }

    // The GSS-guaranteed floor over the whole application: at least the
    // enumerated average work must fit below the deadline at the claimed
    // speculative speed, or the speculation starves the guarantee.
    let floor = avg / deadline;
    match &artifact.params {
        SchemeParams::Npm | SchemeParams::Gss | SchemeParams::Spm { .. } => {}
        SchemeParams::Ss1 { spec_speed } => {
            if *spec_speed < floor * (1.0 - REL_TOL) {
                r.push(Diagnostic::new(
                    Code::Pas0408,
                    Loc::at(src, "params.spec_speed"),
                    format!(
                        "SS(1) speculative speed {spec_speed:.6} undercuts the enumerated \
                         floor Ta/D = {floor:.6} — the speculation assumes less work than \
                         the OR-path average proves"
                    ),
                ));
            }
        }
        SchemeParams::Ss2 {
            low,
            high,
            switch_time,
        } => {
            check_ss2(*low, *high, *switch_time, avg, deadline, src, r);
        }
        SchemeParams::As { initial_spec } => {
            if *initial_spec < floor * (1.0 - REL_TOL) {
                r.push(Diagnostic::new(
                    Code::Pas0408,
                    Loc::at(src, "params.initial_spec"),
                    format!(
                        "AS initial speculation {initial_spec:.6} undercuts the enumerated \
                         floor Ta/D = {floor:.6}"
                    ),
                ));
            }
            // AS re-speculates from `branch_avg` at every OR: a branch
            // average above the branch worst would *over*-claim remaining
            // work was observed; below the re-derived average it
            // undercuts the floor at that PMP.
            for (key, a) in &artifact.plan.branch_avg {
                let (or, k) = *key;
                if let Some(w) = artifact.plan.branch_worst.get(key) {
                    if *a > *w * (1.0 + REL_TOL) + REL_TOL {
                        r.push(Diagnostic::new(
                            Code::Pas0408,
                            Loc::at(src, format!("plan.branch_avg[{or},{k}]")),
                            format!(
                                "branch average remaining {a} ms exceeds the branch worst \
                                 {w} ms — the speculation table is inconsistent"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// The SS(2) window and switch-equation checks against the enumerated
/// average `avg` (paper §4: `θ = (s₂·D − Tᵃ)/(s₂ − s₁)`, clamped to
/// `[0, D]`).
fn check_ss2(low: f64, high: f64, theta: f64, avg: f64, deadline: f64, src: &str, r: &mut Report) {
    if !(0.0 - REL_TOL..=deadline * (1.0 + REL_TOL) + REL_TOL).contains(&theta) {
        r.push(Diagnostic::new(
            Code::Pas0407,
            Loc::at(src, "params.switch_time"),
            format!(
                "SS(2) switch time θ = {theta} ms falls outside the valid window \
                 [0, {deadline}]"
            ),
        ));
        return;
    }
    if low > high + REL_TOL {
        r.push(Diagnostic::new(
            Code::Pas0407,
            Loc::at(src, "params.low"),
            format!("SS(2) low speed {low} exceeds the high speed {high}"),
        ));
        return;
    }
    let expected = if (high - low).abs() < 1e-12 {
        0.0
    } else {
        ((high * deadline - avg) / (high - low)).clamp(0.0, deadline)
    };
    if !approx_eq(theta, expected) {
        r.push(Diagnostic::new(
            Code::Pas0407,
            Loc::at(src, "params.switch_time"),
            format!(
                "SS(2) switch time θ = {theta} ms violates the switch equation \
                 θ·s₁ + (D−θ)·s₂ = Tᵃ over the enumerated average: expected \
                 θ = {expected} ms for s₁ = {low}, s₂ = {high}, Tᵃ = {avg} ms, \
                 D = {deadline} ms"
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use andor_graph::Segment;
    use pas_core::{Scheme, Setup};

    fn setup(model: ProcessorModel) -> Setup {
        let app = Segment::seq([
            Segment::task("A", 8.0, 5.0),
            Segment::branch([
                (0.3, Segment::task("B", 5.0, 3.0)),
                (0.7, Segment::task("C", 4.0, 2.0)),
            ]),
        ]);
        Setup::for_load(app.lower().expect("fixture lowers"), model, 2, 0.5)
            .expect("feasible setup")
    }

    fn artifact(scheme: Scheme) -> (PlanArtifact, Setup) {
        let s = setup(ProcessorModel::transmeta5400());
        let a = PlanArtifact::from_setup(&s, scheme, "fixture", "transmeta");
        (a, s)
    }

    #[test]
    fn honest_artifacts_verify_cleanly_for_all_schemes() {
        for scheme in Scheme::ALL {
            let (a, s) = artifact(scheme);
            let r = check_plan(&a, "plan.json", &s.graph, "fixture", &s.model);
            assert!(r.is_clean(), "{}: {}", scheme.name(), r.render_human());
        }
    }

    #[test]
    fn round_tripped_artifacts_verify_cleanly() {
        for scheme in Scheme::ALL {
            let (a, s) = artifact(scheme);
            let back =
                PlanArtifact::from_json(&a.to_json().expect("serializes")).expect("deserializes");
            let r = check_plan(&back, "plan.json", &s.graph, "fixture", &s.model);
            assert!(r.is_clean(), "{}: {}", scheme.name(), r.render_human());
        }
    }

    #[test]
    fn wrong_schema_version_is_pas0401() {
        let (mut a, s) = artifact(Scheme::Gss);
        a.schema_version = 99;
        let r = check_plan(&a, "plan.json", &s.graph, "fixture", &s.model);
        assert!(r.has_errors());
        assert!(r.diagnostics.iter().any(|d| d.code == Code::Pas0401));
    }

    #[test]
    fn wrong_workload_is_pas0402() {
        let (a, s) = artifact(Scheme::Gss);
        let other = Segment::task("solo", 2.0, 1.0)
            .lower()
            .expect("fixture lowers");
        let r = check_plan(&a, "plan.json", &other, "other", &s.model);
        assert!(r.diagnostics.iter().any(|d| d.code == Code::Pas0402));
    }

    #[test]
    fn tampered_lst_is_pas0404() {
        let (mut a, s) = artifact(Scheme::Gss);
        let slot = a
            .plan
            .lst
            .iter()
            .position(|l| l.is_some())
            .expect("some node has an LST");
        if let Some(Some(l)) = a.plan.lst.get_mut(slot) {
            *l += 3.0;
        }
        let r = check_plan(&a, "plan.json", &s.graph, "fixture", &s.model);
        assert!(r.has_errors());
        assert!(
            r.diagnostics.iter().any(|d| d.code == Code::Pas0404),
            "{}",
            r.render_human()
        );
    }

    #[test]
    fn tampered_theta_is_pas0407() {
        let (mut a, s) = artifact(Scheme::Ss2);
        if let SchemeParams::Ss2 { switch_time, .. } = &mut a.params {
            *switch_time = -5.0;
        }
        let r = check_plan(&a, "plan.json", &s.graph, "fixture", &s.model);
        assert!(r.has_errors());
        assert!(
            r.diagnostics.iter().any(|d| d.code == Code::Pas0407),
            "{}",
            r.render_human()
        );
    }

    #[test]
    fn undercut_spec_speed_is_pas0408() {
        let (mut a, s) = artifact(Scheme::Ss1);
        if let SchemeParams::Ss1 { spec_speed } = &mut a.params {
            *spec_speed *= 0.5;
        }
        let r = check_plan(&a, "plan.json", &s.graph, "fixture", &s.model);
        assert!(r.has_errors());
        assert!(
            r.diagnostics.iter().any(|d| d.code == Code::Pas0408),
            "{}",
            r.render_human()
        );
    }

    #[test]
    fn tampered_worst_total_is_pas0405() {
        let (mut a, s) = artifact(Scheme::Npm);
        a.plan.worst_total *= 0.9;
        let r = check_plan(&a, "plan.json", &s.graph, "fixture", &s.model);
        assert!(r.has_errors());
        assert!(r.diagnostics.iter().any(|d| d.code == Code::Pas0405));
    }

    #[test]
    fn shrunk_deadline_is_pas0409() {
        let (mut a, s) = artifact(Scheme::Gss);
        a.plan.deadline = a.plan.worst_total * 0.5;
        let r = check_plan(&a, "plan.json", &s.graph, "fixture", &s.model);
        assert!(r.has_errors());
        assert!(
            r.diagnostics.iter().any(|d| d.code == Code::Pas0409),
            "{}",
            r.render_human()
        );
    }

    #[test]
    fn oversized_processor_count_is_pas0106() {
        for n in [pas_core::MAX_PROCS + 1, usize::MAX] {
            let (mut a, s) = artifact(Scheme::Gss);
            a.plan.num_procs = n;
            let r = check_plan(&a, "plan.json", &s.graph, "fixture", &s.model);
            assert!(r.has_errors());
            assert!(
                r.diagnostics.iter().any(|d| d.code == Code::Pas0106),
                "{}",
                r.render_human()
            );
        }
    }

    #[test]
    fn reordered_dispatch_is_pas0403() {
        let app = Segment::par([Segment::task("X", 6.0, 3.0), Segment::task("Y", 4.0, 2.0)]);
        let s = Setup::for_load(
            app.lower().expect("fixture lowers"),
            ProcessorModel::transmeta5400(),
            2,
            0.5,
        )
        .expect("feasible setup");
        let mut a = PlanArtifact::from_setup(&s, Scheme::Gss, "fixture", "transmeta");
        let order = a
            .plan
            .dispatch
            .per_section
            .iter_mut()
            .find(|o| o.len() >= 2)
            .expect("a section with two nodes");
        order.swap(0, 1);
        let r = check_plan(&a, "plan.json", &s.graph, "fixture", &s.model);
        assert!(r.has_errors());
        assert!(
            r.diagnostics.iter().any(|d| d.code == Code::Pas0403),
            "{}",
            r.render_human()
        );
    }
}
