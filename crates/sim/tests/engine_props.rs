//! Property-based invariants of the execution engine, checked under a
//! randomized (but deadline-unsafe) speed policy: whatever speeds a policy
//! picks, the engine must produce a physically consistent schedule.

use andor_graph::{AndOrGraph, NodeId, SectionGraph, Segment};
use dvfs_power::{OperatingPoint, Overheads, ProcessorModel};
use mp_sim::{
    DispatchCtx, DispatchOrder, ExecTimeModel, Policy, Realization, RunScratch, SimConfig,
    Simulator, SpeedDecision,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A policy that roams the level table pseudo-randomly.
struct RandomSpeeds {
    model: ProcessorModel,
    rng: StdRng,
    seed: u64,
}

impl Policy for RandomSpeeds {
    fn name(&self) -> &str {
        "random"
    }
    fn begin_run(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
    }
    fn speed_for(&mut self, _t: NodeId, _c: &DispatchCtx) -> SpeedDecision {
        let desired: f64 = self.rng.gen_range(0.01..1.2);
        SpeedDecision {
            point: self.model.quantize_up(desired),
            ran_pmp: true,
        }
    }
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under arbitrary speed choices the trace stays consistent:
    /// dependency-ordered, non-overlapping per processor, every active
    /// computation node executed exactly once, and energy/time accounting
    /// closed.
    #[test]
    fn engine_invariants_under_random_policy(
        (g, sg) in instance(),
        procs in 1usize..5,
        policy_seed in 0u64..1000,
        real_seed in 0u64..1000,
    ) {
        let order = DispatchOrder::topological(&g, &sg);
        let model = ProcessorModel::xscale();
        let cfg = SimConfig {
            num_procs: procs,
            deadline: g.total_wcet() * 100.0 + 100.0,
            idle_fraction: 0.05,
            static_fraction: 0.0,
            overheads: Overheads::paper_defaults(),
            record_trace: true,
        };
        let sim = Simulator::new(&g, &sg, &order, &model, cfg);
        let mut rng = StdRng::seed_from_u64(real_seed);
        let real = Realization::sample(&g, &sg, &ExecTimeModel::paper_defaults(), &mut rng);
        let mut policy = RandomSpeeds {
            model: model.clone(),
            rng: StdRng::seed_from_u64(policy_seed),
            seed: policy_seed,
        };
        let mut scratch = RunScratch::new();
        let res = sim
            .run_into(&mut scratch, &mut policy, &real, None, None, None)
            .expect("run succeeds");
        let trace = res.trace.as_ref().expect("trace recorded");

        // 1. Every active computation node appears exactly once.
        let active = sg.active_nodes(&g, &real.scenario);
        let expected: Vec<NodeId> = active
            .iter()
            .copied()
            .filter(|&n| g.node(n).kind.is_computation())
            .collect();
        prop_assert_eq!(trace.len(), expected.len());
        for &n in &expected {
            prop_assert_eq!(trace.iter().filter(|e| e.node == n).count(), 1);
        }

        // 2. Dependencies respected among traced tasks.
        let finish: std::collections::HashMap<NodeId, f64> =
            trace.iter().map(|e| (e.node, e.end)).collect();
        for e in trace {
            for p in &g.node(e.node).preds {
                if let Some(&pf) = finish.get(p) {
                    prop_assert!(pf <= e.start + 1e-9);
                }
            }
        }

        // 3. No per-processor overlap; dispatch serialization holds.
        for p in 0..procs {
            let mut last = 0.0_f64;
            for e in trace.iter().filter(|e| e.proc == p) {
                prop_assert!(e.start >= last - 1e-9);
                last = e.end;
            }
        }
        for w in trace.windows(2) {
            prop_assert!(w[0].start <= w[1].start + 1e-9);
        }

        // 4. Accounting closes: horizon covered on every processor.
        let horizon = res.finish_time.max(res.deadline);
        for m in scratch.meters() {
            let covered = m.busy_time() + m.idle_time() + m.transition_time();
            prop_assert!((covered - horizon).abs() < 1e-6);
        }

        // 5. Finish time matches the last trace end.
        let last_end = trace.iter().map(|e| e.end).fold(0.0_f64, f64::max);
        prop_assert!((res.finish_time - last_end).abs() < 1e-9);
    }

    /// Uniform slowdown scales the (overhead-free) schedule exactly:
    /// makespan(s) = makespan(1)/s — the property the SPM/oracle analyses
    /// rely on.
    #[test]
    fn uniform_slowdown_scales_schedule(
        (g, sg) in instance(),
        procs in 1usize..4,
        speed_pct in 10u32..100,
    ) {
        struct Fixed(f64);
        impl Policy for Fixed {
            fn name(&self) -> &str { "fixed" }
            fn speed_for(&mut self, _t: NodeId, _c: &DispatchCtx) -> SpeedDecision {
                SpeedDecision {
                    point: OperatingPoint { speed: self.0, power: self.0.powi(3) },
                    ran_pmp: false,
                }
            }
        }
        let s = speed_pct as f64 / 100.0;
        let order = DispatchOrder::topological(&g, &sg);
        let model = ProcessorModel::continuous(0.01).expect("continuous model");
        let cfg = SimConfig {
            num_procs: procs,
            deadline: g.total_wcet() * 1000.0,
            idle_fraction: 0.0,
            static_fraction: 0.0,
            overheads: Overheads::none(),
            record_trace: false,
        };
        let sim = Simulator::new(&g, &sg, &order, &model, cfg);
        let mut rng = StdRng::seed_from_u64(7);
        let real = Realization::sample(&g, &sg, &ExecTimeModel::paper_defaults(), &mut rng);
        let full = sim.run(&mut Fixed(1.0), &real).expect("run succeeds").finish_time;
        let slowed = sim.run(&mut Fixed(s), &real).expect("run succeeds").finish_time;
        prop_assert!(
            (slowed - full / s).abs() < 1e-6 * (1.0 + full / s),
            "expected {}, got {slowed}",
            full / s
        );
    }
}
