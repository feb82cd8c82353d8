//! Extending the scheduler: writing your own speed policy.
//!
//! The engine accepts anything implementing `mp_sim::Policy`. This example
//! builds a *stochastic race-to-sleep* policy — it flips between full speed
//! and a low level, never dropping below the GSS-guaranteed speed — and
//! checks that (a) it still meets every deadline (the GSS floor is doing
//! its job) and (b) it burns more energy than plain GSS (racing wastes the
//! quadratic voltage saving).
//!
//! Run with: `cargo run --example custom_policy`

use pas_andor::core::{Scheme, SchemePolicy, Setup};
use pas_andor::graph::NodeId;
use pas_andor::power::ProcessorModel;
use pas_andor::sim::{DispatchCtx, ExecTimeModel, Policy, SpeedDecision};
use pas_andor::workloads::synthetic_app;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs every other task flat-out and the rest at the guaranteed minimum.
struct RaceToSleep<'a> {
    /// Deadline safety comes from composing with the GSS policy.
    guarantee: SchemePolicy<'a>,
    model: &'a ProcessorModel,
    rng: StdRng,
}

impl Policy for RaceToSleep<'_> {
    fn name(&self) -> &str {
        "race-to-sleep"
    }

    fn begin_run(&mut self) {
        self.rng = StdRng::seed_from_u64(0xACE);
    }

    fn speed_for(&mut self, task: NodeId, ctx: &DispatchCtx) -> SpeedDecision {
        let floor = self.guarantee.speed_for(task, ctx).point.speed;
        let race: bool = self.rng.gen();
        let desired = if race { 1.0 } else { floor };
        SpeedDecision {
            point: self.model.quantize_up(desired.max(floor)),
            ran_pmp: true,
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = synthetic_app().lower()?;
    let setup = Setup::for_load(graph, ProcessorModel::xscale(), 2, 0.6)?;

    let mut custom = RaceToSleep {
        guarantee: SchemePolicy::new(Scheme::Gss, &setup.plan, &setup.model, setup.overheads),
        model: &setup.model,
        rng: StdRng::seed_from_u64(0),
    };

    let etm = ExecTimeModel::paper_defaults();
    let mut rng = StdRng::seed_from_u64(123);
    let sim = setup.simulator(false);
    let (mut e_custom, mut e_gss, mut e_npm) = (0.0, 0.0, 0.0);
    const RUNS: usize = 500;
    for _ in 0..RUNS {
        let real = setup.sample(&etm, &mut rng);
        let res = sim.run(&mut custom, &real)?;
        assert!(
            !res.missed_deadline,
            "the GSS floor must keep any custom policy deadline-safe"
        );
        e_custom += res.total_energy();
        e_gss += setup.run(Scheme::Gss, &real)?.total_energy();
        e_npm += setup.run(Scheme::Npm, &real)?.total_energy();
    }

    println!("policy          normalized energy");
    println!("NPM             1.0000");
    println!("race-to-sleep   {:.4}", e_custom / e_npm);
    println!("GSS             {:.4}", e_gss / e_npm);
    println!();
    println!(
        "race-to-sleep meets every deadline (inherited from the GSS floor) \
         but wastes {:.1}% more energy than GSS — racing forfeits the \
         quadratic voltage saving.",
        100.0 * (e_custom - e_gss) / e_gss
    );
    Ok(())
}
