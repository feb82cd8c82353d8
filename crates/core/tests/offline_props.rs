//! Property-based invariants of the off-line phase.

use andor_graph::{SectionGraph, Segment};
use pas_core::{CanonicalPlan, OfflinePlan, PlanError};
use proptest::prelude::*;

/// Random structured apps (Par arms branch-free by design).
fn arb_segment(depth: u32, allow_branch: bool) -> BoxedStrategy<Segment> {
    let task = (1u32..500, 1u32..=100).prop_map(|(w, a_pct)| {
        let wcet = w as f64 / 10.0;
        Segment::task("t", wcet, wcet * a_pct as f64 / 100.0)
    });
    if depth == 0 {
        return task.boxed();
    }
    let seq = proptest::collection::vec(arb_segment(depth - 1, allow_branch), 1..4)
        .prop_map(Segment::Seq);
    let par = proptest::collection::vec(arb_segment(depth - 1, false), 2..4).prop_map(Segment::Par);
    if allow_branch {
        let branch = proptest::collection::vec((1u32..100, arb_segment(depth - 1, true)), 2..3)
            .prop_map(|arms| {
                let total: u32 = arms.iter().map(|(w, _)| w).sum();
                Segment::Branch(
                    arms.into_iter()
                        .map(|(w, s)| (w as f64 / total as f64, s))
                        .collect(),
                )
            });
        prop_oneof![task, seq, par, branch].boxed()
    } else {
        prop_oneof![task, seq, par].boxed()
    }
}

fn instance() -> impl Strategy<Value = (andor_graph::AndOrGraph, SectionGraph, usize)> {
    (arb_segment(3, true), 1usize..5).prop_filter_map("lowers", |(s, m)| {
        let g = s.lower().ok()?;
        let sg = SectionGraph::build(&g).ok()?;
        Some((g, sg, m))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `Ta <= Tw`, both positive. Adding a processor may *slightly*
    /// lengthen an LTF list schedule (Graham's scheduling anomaly — the
    /// longest-first order interacts with precedence), but never beyond
    /// Graham's bound: any list schedule is within `2 − 1/m` of optimal,
    /// so two list schedules of the same instance are within that factor
    /// of each other.
    #[test]
    fn canonical_lengths_are_sane((g, sg, m) in instance()) {
        let d = g.total_wcet() * 10.0 + 10.0;
        let plan_m = OfflinePlan::build(&g, &sg, m, d).unwrap();
        prop_assert!(plan_m.worst_total > 0.0);
        prop_assert!(plan_m.avg_total <= plan_m.worst_total + 1e-9);
        let plan_more = OfflinePlan::build(&g, &sg, m + 1, d).unwrap();
        let graham = 2.0 - 1.0 / m as f64;
        prop_assert!(
            plan_more.worst_total <= plan_m.worst_total * graham + 1e-9,
            "anomaly beyond Graham's bound: {} procs -> {} ms, {} procs -> {} ms",
            m,
            plan_m.worst_total,
            m + 1,
            plan_more.worst_total
        );
    }

    /// Tw never exceeds the serial bound (sum of all WCETs) and never
    /// undercuts the critical path.
    #[test]
    fn tw_bounded_by_serial_and_critical_path((g, sg, m) in instance()) {
        let d = g.total_wcet() * 10.0 + 10.0;
        let plan = OfflinePlan::build(&g, &sg, m, d).unwrap();
        let serial = g.total_wcet();
        prop_assert!(plan.worst_total <= serial + 1e-9);
        let profile = andor_graph::app_profile(&g, &sg);
        prop_assert!(
            plan.worst_total >= profile.worst_critical_path - 1e-9,
            "Tw {} below critical path {}",
            plan.worst_total,
            profile.worst_critical_path
        );
    }

    /// LSTs exist exactly for non-OR nodes, never exceed `D − wcet`, and
    /// follow the dispatch order within a section.
    #[test]
    fn lst_structure((g, sg, m) in instance()) {
        let d = g.total_wcet() * 4.0 + 10.0;
        let plan = OfflinePlan::build(&g, &sg, m, d).unwrap();
        for (id, node) in g.iter() {
            match plan.lst[id.index()] {
                Some(lst) => {
                    prop_assert!(!node.kind.is_or());
                    prop_assert!(lst <= d - node.kind.wcet() + 1e-9);
                }
                None => prop_assert!(node.kind.is_or()),
            }
        }
        for order in &plan.dispatch.per_section {
            for w in order.windows(2) {
                let a = plan.lst[w[0].index()].unwrap();
                let b = plan.lst[w[1].index()].unwrap();
                prop_assert!(a <= b + 1e-9, "LSTs must follow dispatch order");
            }
        }
    }

    /// The PMP branch statistics are consistent: a branch's worst remaining
    /// time is at least its average, and the root totals dominate the
    /// continuation stored at each top-level PMP.
    #[test]
    fn pmp_stats_consistent((g, sg, m) in instance()) {
        let d = g.total_wcet() * 10.0 + 10.0;
        let plan = OfflinePlan::build(&g, &sg, m, d).unwrap();
        for (key, tw) in &plan.branch_worst {
            let ta = plan.branch_avg[key];
            prop_assert!(ta <= tw + 1e-9, "Ta_k {ta} > Tw_k {tw}");
            prop_assert!(*tw <= plan.worst_total + 1e-9);
        }
    }

    /// Dispatch orders cover each section's nodes exactly once.
    #[test]
    fn dispatch_orders_cover_sections((g, sg, m) in instance()) {
        let d = g.total_wcet() * 10.0 + 10.0;
        let plan = OfflinePlan::build(&g, &sg, m, d).unwrap();
        prop_assert_eq!(plan.dispatch.per_section.len(), sg.len());
        for (sid, order) in plan.dispatch.per_section.iter().enumerate() {
            let section = &sg.sections()[sid];
            let mut a: Vec<_> = order.clone();
            let mut b: Vec<_> = section.nodes.clone();
            a.sort();
            b.sort();
            prop_assert_eq!(a, b);
        }
    }

    /// The deadline scales linearly: doubling D doubles every LST residual
    /// (`D − LST` is deadline-independent).
    #[test]
    fn lst_residuals_deadline_invariant((g, sg, m) in instance()) {
        let d1 = g.total_wcet() * 4.0 + 10.0;
        let d2 = d1 * 2.0;
        let p1 = OfflinePlan::build(&g, &sg, m, d1).unwrap();
        let p2 = OfflinePlan::build(&g, &sg, m, d2).unwrap();
        for i in 0..g.len() {
            if let (Some(a), Some(b)) = (p1.lst[i], p2.lst[i]) {
                prop_assert!(((d1 - a) - (d2 - b)).abs() < 1e-9);
            }
        }
    }

    /// The load path runs the canonical pass once and derives
    /// `D = Tw / load` from it. Its plan equals, bit for bit, a full
    /// build at that deadline and the two-build construction it replaced
    /// (a plan at a loose probe deadline to learn `Tw`, then the real one).
    #[test]
    fn for_load_equals_a_build_at_its_deadline(
        (g, sg, m) in instance(),
        load_pct in 1u32..=100,
        reserve_milli in 0u32..500,
    ) {
        let load = load_pct as f64 / 100.0;
        let reserve = reserve_milli as f64 / 1000.0;
        let plan = OfflinePlan::build_for_load(&g, &sg, m, load, reserve).unwrap();
        let direct = OfflinePlan::build_with_pmp_reserve(&g, &sg, m, plan.deadline, reserve).unwrap();
        assert_bit_identical(&plan, &direct);

        let probe_deadline =
            (g.total_wcet().max(1.0) + g.num_tasks() as f64 * reserve + 1.0) * 10.0;
        let probe = OfflinePlan::build_with_pmp_reserve(&g, &sg, m, probe_deadline, reserve).unwrap();
        prop_assert_eq!(plan.deadline.to_bits(), (probe.worst_total / load).to_bits());
        let two_builds =
            OfflinePlan::build_with_pmp_reserve(&g, &sg, m, probe.worst_total / load, reserve).unwrap();
        assert_bit_identical(&plan, &two_builds);
    }

    /// Around the feasibility boundary, the deadline step accepts exactly
    /// the deadlines with `Tw <= D·(1 + 1e-12)` (the rule `pas check`
    /// shares), and agrees with a full build on every plan and error.
    #[test]
    fn deadline_step_keeps_the_infeasibility_boundary(
        (g, sg, m) in instance(),
        reserve_milli in 0u32..500,
    ) {
        let reserve = reserve_milli as f64 / 1000.0;
        let canonical = CanonicalPlan::build(&g, &sg, m, reserve).unwrap();
        let tw = canonical.worst_total();
        let threshold = tw / (1.0 + 1e-12);
        let mut saw = (false, false);
        for d in [
            tw,
            tw * (1.0 + 1e-9),
            tw * (1.0 - 1e-13),
            tw * (1.0 - 1e-11),
            tw * (1.0 - 1e-3),
            threshold,
            f64::from_bits(threshold.to_bits() - 1),
            f64::from_bits(threshold.to_bits() - 2),
            f64::from_bits(threshold.to_bits() + 1),
        ] {
            let step = canonical.clone().with_deadline(d);
            prop_assert_eq!(step.is_err(), tw > d * (1.0 + 1e-12), "deadline {}", d);
            let full = OfflinePlan::build_with_pmp_reserve(&g, &sg, m, d, reserve);
            match (step, full) {
                (Ok(a), Ok(b)) => {
                    assert_bit_identical(&a, &b);
                    saw.0 = true;
                }
                (Err(a), Err(b)) => {
                    prop_assert!(matches!(a, PlanError::Infeasible { .. }), "{a}");
                    prop_assert_eq!(a, b);
                    saw.1 = true;
                }
                (a, b) => prop_assert!(false, "deadline {d}: step {a:?}, full build {b:?}"),
            }
        }
        prop_assert!(saw.0 && saw.1, "both sides of the boundary probed");
    }
}

/// Asserts two plans are equal bit for bit: every float compared by its
/// bits, every table entry by entry.
fn assert_bit_identical(a: &OfflinePlan, b: &OfflinePlan) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(a.deadline.to_bits(), b.deadline.to_bits(), "deadline");
    assert_eq!(a.num_procs, b.num_procs, "num_procs");
    assert_eq!(a.dispatch.per_section, b.dispatch.per_section, "dispatch");
    let lst_bits = |p: &OfflinePlan| {
        p.lst
            .iter()
            .map(|l| l.map(f64::to_bits))
            .collect::<Vec<_>>()
    };
    assert_eq!(lst_bits(a), lst_bits(b), "lst");
    assert_eq!(
        a.worst_total.to_bits(),
        b.worst_total.to_bits(),
        "worst_total"
    );
    assert_eq!(a.avg_total.to_bits(), b.avg_total.to_bits(), "avg_total");
    for (name, x, y) in [
        ("branch_worst", &a.branch_worst, &b.branch_worst),
        ("branch_avg", &a.branch_avg, &b.branch_avg),
    ] {
        assert_eq!(x.len(), y.len(), "{name} size");
        for (key, v) in x {
            assert_eq!(
                Some(v.to_bits()),
                y.get(key).map(|w| w.to_bits()),
                "{name} {key:?}"
            );
        }
    }
    assert_eq!(a.canonical_start_rel.len(), b.canonical_start_rel.len());
    for (x, y) in a.canonical_start_rel.iter().zip(&b.canonical_start_rel) {
        assert_eq!(bits(x), bits(y), "canonical_start_rel");
    }
    assert_eq!(
        bits(&a.section_worst_len),
        bits(&b.section_worst_len),
        "section_worst_len"
    );
    assert_eq!(
        bits(&a.section_avg_len),
        bits(&b.section_avg_len),
        "section_avg_len"
    );
    assert_eq!(bits(&a.worst_after), bits(&b.worst_after), "worst_after");
}
