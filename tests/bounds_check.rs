//! End-to-end soundness of the symbolic bounds pass: every simulated
//! run — fault-free or fault-injected — must land inside the static
//! `[best, worst]` intervals `pas_analyze::analyze_bounds` derives, and
//! on a workload with no scheduling freedom (one processor, zero
//! overheads, a serial chain) the NPM interval endpoints must be
//! *achieved* exactly by the corner realizations.

use pas_andor::analyze::{analyze_bounds, BoundsAnalysis, BoundsConfig, FaultEnvelope};
use pas_andor::core::{Scheme, Setup};
use pas_andor::graph::{Scenario, Segment};
use pas_andor::power::{Overheads, ProcessorModel};
use pas_andor::sim::{ExecTimeModel, FaultPlan, Realization};
use pas_andor::workloads::synthetic_app;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Containment tolerance: the bounds are exact-arithmetic sound, so
/// this only absorbs float associativity between analyzer and engine.
const TOL: f64 = 1e-6;

fn scheme_bounds(ba: &BoundsAnalysis, scheme: Scheme) -> &pas_andor::analyze::SchemeBounds {
    ba.schemes
        .iter()
        .find(|s| s.scheme == scheme.name())
        .unwrap_or_else(|| panic!("no bounds entry for {}", scheme.name()))
}

/// 6 schemes x 2 platforms x 32 seeded realizations, each run fault-free
/// and under a fault plan whose envelope matches the faulty bounds:
/// simulated energy and makespan always within the static interval.
#[test]
fn simulated_runs_stay_inside_the_static_intervals() {
    let g = synthetic_app().lower().expect("synthetic lowers");
    let fault_plan = FaultPlan {
        overrun_prob: 0.3,
        overrun_factor: 1.4,
        speed_fail_prob: 0.2,
        stall_prob: 0.2,
        stall_ms: 1.5,
        seed: 11,
    };
    let envelope = FaultEnvelope::from_plan(&fault_plan).expect("plan injects");
    for model in [ProcessorModel::transmeta5400(), ProcessorModel::xscale()] {
        let setup = Setup::for_load(g.clone(), model, 2, 0.5).expect("feasible");
        let free = analyze_bounds(&setup, &BoundsConfig::default(), "synthetic");
        let faulty_cfg = BoundsConfig {
            fault: Some(envelope),
            ..BoundsConfig::default()
        };
        let faulty = analyze_bounds(&setup, &faulty_cfg, "synthetic");
        assert!(free.exact, "synthetic app should enumerate exactly");
        let etm = ExecTimeModel::paper_defaults();
        let mut rng = StdRng::seed_from_u64(0xB0B5);
        for rep in 0..32u64 {
            let real = setup.sample(&etm, &mut rng);
            let faults = fault_plan.realize(&setup.graph, rep);
            for scheme in Scheme::ALL {
                let sb = scheme_bounds(&free, scheme);
                let res = setup.run(scheme, &real).expect("fault-free run");
                assert!(
                    sb.energy.contains(res.total_energy(), TOL),
                    "{} rep {rep}: fault-free energy {} outside [{}, {}]",
                    scheme.name(),
                    res.total_energy(),
                    sb.energy.lo,
                    sb.energy.hi
                );
                assert!(
                    sb.makespan.contains(res.finish_time, TOL),
                    "{} rep {rep}: fault-free makespan {} outside [{}, {}]",
                    scheme.name(),
                    res.finish_time,
                    sb.makespan.lo,
                    sb.makespan.hi
                );
                let fb = scheme_bounds(&faulty, scheme);
                let fres = setup
                    .simulator(false)
                    .run_observed(
                        setup.policy(scheme).as_mut(),
                        &real,
                        None,
                        Some(&faults),
                        None,
                    )
                    .expect("faulty run");
                assert!(
                    fb.energy.contains(fres.total_energy(), TOL),
                    "{} rep {rep}: faulty energy {} outside [{}, {}]",
                    scheme.name(),
                    fres.total_energy(),
                    fb.energy.lo,
                    fb.energy.hi
                );
                assert!(
                    fb.makespan.contains(fres.finish_time, TOL),
                    "{} rep {rep}: faulty makespan {} outside [{}, {}]",
                    scheme.name(),
                    fres.finish_time,
                    fb.makespan.lo,
                    fb.makespan.hi
                );
                // The faulty interval is a superset: fault-free runs
                // must sit inside it too.
                assert!(
                    fb.energy.contains(res.total_energy(), TOL)
                        && fb.makespan.contains(res.finish_time, TOL),
                    "{} rep {rep}: fault-free run escapes the faulty interval",
                    scheme.name()
                );
            }
        }
        // Deterministic extremes: every scenario at full WCET.
        for (scenario, _) in setup.sections.enumerate_scenarios(&setup.graph) {
            let real = Realization::worst_case(&setup.graph, scenario);
            for scheme in Scheme::ALL {
                let sb = scheme_bounds(&free, scheme);
                let res = setup.run(scheme, &real).expect("worst-case run");
                assert!(
                    sb.energy.contains(res.total_energy(), TOL),
                    "{}: WCET energy {} outside [{}, {}]",
                    scheme.name(),
                    res.total_energy(),
                    sb.energy.lo,
                    sb.energy.hi
                );
                assert!(
                    sb.makespan.contains(res.finish_time, TOL),
                    "{}: WCET makespan {} outside [{}, {}]",
                    scheme.name(),
                    res.finish_time,
                    sb.makespan.lo,
                    sb.makespan.hi
                );
            }
        }
    }
}

/// Tightness oracle: a serial chain on one processor with zero
/// overheads leaves NPM no freedom at all, so the two corner
/// realizations (sampler floor, full WCET) must land *exactly* on the
/// interval endpoints — the intervals are tight, not merely sound.
#[test]
fn npm_interval_endpoints_are_achieved_on_a_serial_chain() {
    let app = Segment::seq([Segment::task("A", 10.0, 6.0), Segment::task("B", 6.0, 3.0)]);
    let g = app.lower().expect("chain lowers");
    let model = ProcessorModel::continuous(0.05).expect("valid");
    let setup =
        Setup::with_deadline_and_overheads(g, model, 1, 40.0, Overheads::none()).expect("feasible");
    let cfg = BoundsConfig::default();
    let ba = analyze_bounds(&setup, &cfg, "chain");
    assert!(ba.exact && ba.paths == 1, "a chain has one OR-path");

    let scenario = Scenario {
        choices: Vec::new(),
    };
    // The sampler's exact per-task lower clip (see ExecTimeModel::sample).
    let floor: Vec<f64> = setup
        .graph
        .nodes()
        .iter()
        .map(|n| {
            if n.kind.is_computation() {
                (cfg.min_exec_fraction * n.kind.wcet())
                    .min(n.kind.acet())
                    .max(n.kind.wcet() * 1e-12)
                    .min(n.kind.wcet())
            } else {
                0.0
            }
        })
        .collect();
    let lo_real = Realization {
        scenario: scenario.clone(),
        actual: floor,
    };
    let hi_real = Realization::worst_case(&setup.graph, scenario);

    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()));
    let npm = scheme_bounds(&ba, Scheme::Npm);
    let lo_res = setup.run(Scheme::Npm, &lo_real).expect("floor run");
    let hi_res = setup.run(Scheme::Npm, &hi_real).expect("wcet run");
    assert!(
        close(lo_res.total_energy(), npm.energy.lo),
        "NPM lower energy endpoint not achieved: sim {} vs bound {}",
        lo_res.total_energy(),
        npm.energy.lo
    );
    assert!(
        close(hi_res.total_energy(), npm.energy.hi),
        "NPM upper energy endpoint not achieved: sim {} vs bound {}",
        hi_res.total_energy(),
        npm.energy.hi
    );
    assert!(
        close(lo_res.finish_time, npm.makespan.lo),
        "NPM lower makespan endpoint not achieved: sim {} vs bound {}",
        lo_res.finish_time,
        npm.makespan.lo
    );
    assert!(
        close(hi_res.finish_time, npm.makespan.hi),
        "NPM upper makespan endpoint not achieved: sim {} vs bound {}",
        hi_res.finish_time,
        npm.makespan.hi
    );

    // The managed schemes have real freedom (they may slow down), so
    // their intervals merely contain the same corner runs.
    for scheme in Scheme::ALL {
        let sb = scheme_bounds(&ba, scheme);
        for real in [&lo_real, &hi_real] {
            let res = setup.run(scheme, real).expect("corner run");
            assert!(
                sb.energy.contains(res.total_energy(), TOL),
                "{}: corner energy {} outside [{}, {}]",
                scheme.name(),
                res.total_energy(),
                sb.energy.lo,
                sb.energy.hi
            );
            assert!(
                sb.makespan.contains(res.finish_time, TOL),
                "{}: corner makespan {} outside [{}, {}]",
                scheme.name(),
                res.finish_time,
                sb.makespan.lo,
                sb.makespan.hi
            );
        }
    }
}
