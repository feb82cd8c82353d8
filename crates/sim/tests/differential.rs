//! Differential testing: the fast max/plus engine versus the literal
//! Figure-2 agent interpreter must produce identical schedules — same
//! finish times, same energies, same dispatch order and processor
//! assignment — on random applications, platforms and policies.

use andor_graph::{AndOrGraph, GraphBuilder, NodeId, Scenario, SectionGraph, Segment};
use dvfs_power::{Overheads, ProcessorModel};
use mp_sim::literal::run_literal;
use mp_sim::{
    DispatchCtx, DispatchOrder, ExecTimeModel, MaxSpeed, Policy, Realization, SimConfig, Simulator,
    SpeedDecision,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_segment(depth: u32, allow_branch: bool) -> BoxedStrategy<Segment> {
    let task = (1u32..300, 10u32..=100).prop_map(|(w, a_pct)| {
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

fn instance() -> impl Strategy<Value = (AndOrGraph, SectionGraph)> {
    arb_segment(3, true).prop_filter_map("lowers", |s| {
        let g = s.lower().ok()?;
        let sg = SectionGraph::build(&g).ok()?;
        Some((g, sg))
    })
}

/// A deterministic pseudo-random policy (same decisions in both
/// implementations as long as they dispatch in the same order — which is
/// exactly what the test verifies).
struct SeededSpeeds {
    model: ProcessorModel,
    rng: StdRng,
    seed: u64,
}

impl Policy for SeededSpeeds {
    fn name(&self) -> &str {
        "seeded"
    }
    fn begin_run(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
    }
    fn speed_for(&mut self, _t: NodeId, _c: &DispatchCtx) -> SpeedDecision {
        let desired: f64 = self.rng.gen_range(0.05..1.1);
        SpeedDecision {
            point: self.model.quantize_up(desired),
            ran_pmp: true,
        }
    }
}

fn check(
    g: &AndOrGraph,
    sg: &SectionGraph,
    procs: usize,
    policy: &mut dyn Policy,
    real: &Realization,
    overheads: Overheads,
    model: &ProcessorModel,
) -> Result<(), TestCaseError> {
    let order = DispatchOrder::topological(g, sg);
    let cfg = SimConfig {
        num_procs: procs,
        deadline: g.total_wcet() * 100.0 + 100.0,
        idle_fraction: 0.05,
        static_fraction: 0.0,
        overheads,
        record_trace: true,
    };
    let sim = Simulator::new(g, sg, &order, model, cfg);
    let fast = sim.run(policy, real).expect("engine run succeeds");
    let lit = run_literal(g, sg, &order, model, &cfg, policy, real).expect("literal run succeeds");

    prop_assert!(
        (fast.finish_time - lit.finish_time).abs() < 1e-9,
        "finish: fast {} vs literal {}",
        fast.finish_time,
        lit.finish_time
    );
    prop_assert!(
        (fast.total_energy() - lit.energy.total_energy()).abs() < 1e-9,
        "energy: fast {} vs literal {}",
        fast.total_energy(),
        lit.energy.total_energy()
    );
    prop_assert_eq!(fast.energy.speed_changes(), lit.energy.speed_changes());

    // Dispatch order and processor assignment of computation tasks match.
    let fast_trace = fast.trace.as_ref().expect("trace recorded");
    let lit_tasks: Vec<(NodeId, usize, f64)> = lit
        .dispatches
        .iter()
        .copied()
        .filter(|(n, _, _)| g.node(*n).kind.is_computation())
        .collect();
    prop_assert_eq!(fast_trace.len(), lit_tasks.len());
    for (f, l) in fast_trace.iter().zip(&lit_tasks) {
        prop_assert_eq!(f.node, l.0, "dispatch order diverged");
        prop_assert_eq!(f.proc, l.1, "processor assignment diverged");
        prop_assert!(
            (f.start - l.2).abs() < 1e-9,
            "start time diverged: {} vs {}",
            f.start,
            l.2
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engines_agree_under_max_speed(
        (g, sg) in instance(),
        procs in 1usize..5,
        real_seed in 0u64..10_000,
    ) {
        let model = ProcessorModel::xscale();
        let mut rng = StdRng::seed_from_u64(real_seed);
        let real = Realization::sample(&g, &sg, &ExecTimeModel::paper_defaults(), &mut rng);
        check(&g, &sg, procs, &mut MaxSpeed, &real, Overheads::none(), &model)?;
    }

    #[test]
    fn engines_agree_under_random_policy_with_overheads(
        (g, sg) in instance(),
        procs in 1usize..4,
        policy_seed in 0u64..10_000,
        real_seed in 0u64..10_000,
    ) {
        let model = ProcessorModel::transmeta5400();
        let mut rng = StdRng::seed_from_u64(real_seed);
        let real = Realization::sample(&g, &sg, &ExecTimeModel::paper_defaults(), &mut rng);
        let mut policy = SeededSpeeds {
            model: model.clone(),
            rng: StdRng::seed_from_u64(policy_seed),
            seed: policy_seed,
        };
        check(
            &g,
            &sg,
            procs,
            &mut policy,
            &real,
            Overheads::paper_defaults(),
            &model,
        )?;
    }
}

/// An OR fires when its whole section drains, not when its own
/// predecessors finish: the root section is {A, X}, only A feeds the OR,
/// and X feeds branch B across it. Branch C waits on X only through the
/// drain, so it pins the drain term on both engines.
#[test]
fn engines_agree_when_an_or_waits_for_its_section_to_drain() {
    let mut b = GraphBuilder::new();
    let a = b.task("A", 2.0, 2.0);
    let x = b.task("X", 5.0, 5.0);
    let or = b.or("O");
    let t_b = b.task("B", 1.0, 1.0);
    let t_c = b.task("C", 3.0, 3.0);
    b.edge(a, or).expect("edge is valid");
    b.or_branch(or, t_b, 0.5).expect("branch is valid");
    b.or_branch(or, t_c, 0.5).expect("branch is valid");
    b.edge(x, t_b).expect("edge is valid");
    let g = b.build().expect("graph builds");
    let sg = SectionGraph::build(&g).expect("sections build");
    let model = ProcessorModel::xscale();
    for branch in 0..2 {
        let real = Realization::worst_case(
            &g,
            Scenario {
                choices: vec![(or, branch)],
            },
        );
        for procs in 1..=3 {
            check(
                &g,
                &sg,
                procs,
                &mut MaxSpeed,
                &real,
                Overheads::none(),
                &model,
            )
            .unwrap_or_else(|e| panic!("branch {branch}, {procs} processors: {e}"));
        }
    }
}
