//! The clairvoyant single-speed bound.
//!
//! Paper §3.3: "a clairvoyant algorithm can achieve minimal energy
//! consumption for uniprocessor systems by running all tasks at a single
//! speed setting if the actual running time of every task is known" — this
//! intuition motivates the speculative schemes.
//!
//! [`OraclePolicy`] realizes that algorithm: at the start of every run it
//! peeks at the *realization* (which no on-line scheme may do, see
//! [`Policy::peek_realization`]), measures the application's actual
//! makespan at full speed and runs everything at the single slowest speed
//! that still meets the deadline. Because the engine's schedule scales
//! exactly with a uniform slowdown (every dispatch-time expression is a
//! max/plus over scaled durations), the stretched schedule finishes at
//! `makespan / s ≤ D`. One instance serves any number of runs, so a
//! Monte-Carlo loop runs it like any other policy.
//!
//! Two caveats make this a *reference point* rather than a provable
//! optimum:
//!
//! * on multiprocessors, per-processor idle intervals could in principle
//!   be exploited further;
//! * on **discrete** level tables the single speed is rounded *up* a whole
//!   level, while an on-line scheme may mix adjacent levels across tasks —
//!   a convex combination the single-speed clairvoyant cannot express, so
//!   on coarse tables (e.g. XScale) GSS can genuinely *beat* this bound.
//!   On the continuous model the bound is tight and no scheme beats it.
//!
//! Experiments report each scheme's *gap* to this reference.

use crate::harness::Setup;
use andor_graph::NodeId;
use dvfs_power::{OperatingPoint, Overheads, ProcessorModel};
use mp_sim::{
    DispatchCtx, MaxSpeed, Policy, Realization, RunScratch, SimConfig, SimError, Simulator,
    SpeedDecision,
};

/// The clairvoyant single-speed policy.
pub struct OraclePolicy<'a> {
    /// Overhead-free full-speed engine measuring each realization (the
    /// clairvoyant computes off-line).
    probe: Simulator<'a>,
    scratch: RunScratch,
    model: &'a ProcessorModel,
    /// The deadline less one voltage transition for entering the chosen
    /// speed.
    budget: f64,
    point: OperatingPoint,
    makespan_full_speed: f64,
}

impl<'a> OraclePolicy<'a> {
    /// Builds the oracle for `setup`'s plan. It measures each realization
    /// when a run starts, so it runs at full speed until the first run.
    pub fn new(setup: &'a Setup) -> Self {
        let (plan, model) = (&setup.plan, &setup.model);
        let probe_cfg = SimConfig {
            num_procs: plan.num_procs,
            deadline: plan.deadline,
            idle_fraction: 0.0,
            static_fraction: 0.0,
            overheads: Overheads::none(),
            record_trace: false,
        };
        let budget = plan.deadline - setup.overheads.transition_time_ms;
        Self {
            probe: Simulator::new(
                &setup.graph,
                &setup.sections,
                &plan.dispatch,
                model,
                probe_cfg,
            ),
            scratch: RunScratch::new(),
            model,
            budget: budget.max(f64::MIN_POSITIVE),
            point: model.max_point(),
            makespan_full_speed: 0.0,
        }
    }

    /// The single operating point chosen for the last realization.
    pub fn point(&self) -> OperatingPoint {
        self.point
    }

    /// The last realization's makespan at full speed (ms).
    pub fn makespan_full_speed(&self) -> f64 {
        self.makespan_full_speed
    }
}

impl Policy for OraclePolicy<'_> {
    fn name(&self) -> &str {
        "Oracle"
    }

    /// Measures `real`'s makespan at full speed and picks the slowest
    /// level finishing within the budget.
    fn peek_realization(&mut self, real: &Realization) -> Result<(), SimError> {
        let makespan = self
            .probe
            .run_into(&mut self.scratch, &mut MaxSpeed, real, None, None, None)?
            .finish_time;
        let desired = if makespan <= 0.0 {
            self.model.min_speed()
        } else {
            makespan / self.budget
        };
        self.point = self.model.quantize_up(desired);
        self.makespan_full_speed = makespan;
        Ok(())
    }

    fn speed_for(&mut self, _task: NodeId, _ctx: &DispatchCtx) -> SpeedDecision {
        SpeedDecision {
            point: self.point,
            // Clairvoyant decisions are made off-line: no PMP cost.
            ran_pmp: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::Scheme;
    use andor_graph::Segment;
    use mp_sim::ExecTimeModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> Setup {
        let app = Segment::seq([
            Segment::task("A", 6.0, 3.0),
            Segment::par([Segment::task("B", 5.0, 2.0), Segment::task("C", 7.0, 3.0)]),
            Segment::branch([
                (0.4, Segment::task("D", 9.0, 4.0)),
                (0.6, Segment::task("E", 3.0, 2.0)),
            ]),
        ])
        .lower()
        .expect("fixture app lowers");
        Setup::for_load(app, ProcessorModel::transmeta5400(), 2, 0.6).expect("feasible load")
    }

    #[test]
    fn oracle_meets_deadline_on_every_draw() {
        let s = setup();
        let sim = s.simulator(false);
        let mut oracle = s.oracle();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..200 {
            let real = s.sample(&ExecTimeModel::paper_defaults(), &mut rng);
            let res = sim.run(&mut oracle, &real).expect("run succeeds");
            assert!(
                !res.missed_deadline,
                "oracle missed: {} > {}",
                res.finish_time, res.deadline
            );
        }
    }

    /// On the continuous model (no rounding) the clairvoyant single speed
    /// is a true lower bound.
    #[test]
    fn oracle_lower_bounds_online_schemes_on_average() {
        let app = Segment::seq([
            Segment::task("A", 6.0, 3.0),
            Segment::par([Segment::task("B", 5.0, 2.0), Segment::task("C", 7.0, 3.0)]),
            Segment::branch([
                (0.4, Segment::task("D", 9.0, 4.0)),
                (0.6, Segment::task("E", 3.0, 2.0)),
            ]),
        ])
        .lower()
        .expect("fixture app lowers");
        let model = ProcessorModel::continuous(0.05).expect("valid continuous model");
        let s = Setup::for_load(app, model, 2, 0.6).expect("feasible load");
        let mut rng = StdRng::seed_from_u64(9);
        let mut e_oracle = 0.0;
        let mut e_schemes = vec![0.0_f64; Scheme::ALL.len()];
        for _ in 0..300 {
            let real = s.sample(&ExecTimeModel::paper_defaults(), &mut rng);
            e_oracle += s.run_oracle(&real).expect("run succeeds").total_energy();
            for (i, scheme) in Scheme::ALL.iter().enumerate() {
                e_schemes[i] += s.run(*scheme, &real).expect("run succeeds").total_energy();
            }
        }
        for (i, scheme) in Scheme::ALL.iter().enumerate() {
            assert!(
                e_oracle <= e_schemes[i] * 1.001,
                "{} beat the clairvoyant bound: {} vs {}",
                scheme.name(),
                e_schemes[i],
                e_oracle
            );
        }
    }

    #[test]
    fn oracle_uses_single_speed_and_no_pmps() {
        let s = setup();
        let mut rng = StdRng::seed_from_u64(14);
        let real = s.sample(&ExecTimeModel::paper_defaults(), &mut rng);
        let mut oracle = s.oracle();
        let res = s
            .simulator(true)
            .run(&mut oracle, &real)
            .expect("run succeeds");
        let speeds: std::collections::BTreeSet<u64> = res
            .trace
            .as_ref()
            .expect("trace recorded")
            .iter()
            .map(|e| (e.speed * 1e9) as u64)
            .collect();
        assert_eq!(speeds.len(), 1, "one speed for the whole run");
        // At most one transition per processor (entering the speed).
        assert!(res.energy.speed_changes() <= s.plan.num_procs as u64);
    }

    #[test]
    fn oracle_stretches_to_fill_deadline() {
        let s = setup();
        let mut rng = StdRng::seed_from_u64(21);
        let real = s.sample(&ExecTimeModel::paper_defaults(), &mut rng);
        let mut oracle = s.oracle();
        oracle.peek_realization(&real).expect("probe run succeeds");
        // The chosen speed is the quantization of makespan/deadline.
        let ideal =
            oracle.makespan_full_speed() / (s.plan.deadline - s.overheads.transition_time_ms);
        assert!(oracle.point().speed >= ideal - 1e-12);
        // ...and no more than one level above it.
        let above = s.model.quantize_up(ideal).speed;
        assert_eq!(oracle.point().speed, above);
    }

    /// One oracle reused across realizations is bit-identical to a fresh
    /// oracle per realization: the probe depends on nothing but the
    /// realization it peeks at.
    #[test]
    fn reused_oracle_matches_a_fresh_one_per_realization() {
        let s = setup();
        let sim = s.simulator(false);
        let mut reused = s.oracle();
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..50 {
            let real = s.sample(&ExecTimeModel::paper_defaults(), &mut rng);
            let a = sim.run(&mut reused, &real).expect("run succeeds");
            let b = sim.run(&mut s.oracle(), &real).expect("run succeeds");
            assert_eq!(a.total_energy().to_bits(), b.total_energy().to_bits());
            assert_eq!(a.finish_time.to_bits(), b.finish_time.to_bits());
        }
    }
}
