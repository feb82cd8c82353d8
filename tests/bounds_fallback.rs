//! The bounds pass's DAG fallback (`PAS0602`) against batch simulation.
//!
//! Above `ENUMERATION_THRESHOLD` (4096) OR-paths, `analyze_bounds` stops
//! enumerating paths and derives each scheme's energy and makespan
//! intervals component-wise. `tests/bounds_check.rs` only simulates graphs
//! the pass enumerates exactly; here chains of random segments
//! (`RandomAppParams::chained`) from just above the threshold up to a few
//! hundred sections run through `run_batch` under every scheme, and every
//! realization's energy and makespan must lie inside the fallback
//! intervals.

use pas_andor::analyze::{analyze_bounds, BoundsConfig, Code, Interval};
use pas_andor::core::{Scheme, Setup};
use pas_andor::power::ProcessorModel;
use pas_andor::sim::{run_batch, BatchConfig, ExecTimeModel};
use pas_andor::workloads::RandomAppParams;

/// Containment tolerance: the bounds are exact-arithmetic sound, so
/// this only absorbs float associativity between analyzer and engine.
const TOL: f64 = 1e-6;
/// Realizations per scheme and case.
const RUNS: usize = 96;

/// One case: the chain's seed and length, then the platform, processor
/// count and load it is planned at.
struct Case {
    seed: u64,
    segments: usize,
    xscale: bool,
    procs: usize,
    load: f64,
}

/// From 4608 OR-paths (60 sections) up to a saturated path count over
/// 333 sections.
const CASES: [Case; 8] = [
    Case {
        seed: 2,
        segments: 12,
        xscale: true,
        procs: 2,
        load: 0.6,
    },
    Case {
        seed: 7,
        segments: 4,
        xscale: false,
        procs: 3,
        load: 1.0,
    },
    Case {
        seed: 9,
        segments: 10,
        xscale: true,
        procs: 4,
        load: 0.3,
    },
    Case {
        seed: 4,
        segments: 24,
        xscale: false,
        procs: 2,
        load: 0.8,
    },
    Case {
        seed: 5,
        segments: 6,
        xscale: false,
        procs: 1,
        load: 0.7,
    },
    Case {
        seed: 3,
        segments: 10,
        xscale: true,
        procs: 2,
        load: 0.9,
    },
    Case {
        seed: 8,
        segments: 16,
        xscale: false,
        procs: 4,
        load: 0.4,
    },
    Case {
        seed: 1,
        segments: 32,
        xscale: true,
        procs: 3,
        load: 0.5,
    },
];

/// `[min, max]` of `xs`.
fn span(xs: &[f64]) -> Interval {
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Interval::new(lo, hi)
}

fn inside(observed: Interval, bound: Interval) -> bool {
    bound.contains(observed.lo, TOL) && bound.contains(observed.hi, TOL)
}

#[test]
fn batch_runs_stay_inside_the_fallback_intervals() {
    let params = RandomAppParams {
        max_depth: 5,
        ..RandomAppParams::default()
    };
    let etm = ExecTimeModel::paper_defaults();
    let mut failures = Vec::new();
    for case in &CASES {
        let label = format!("chain-{}x{}", case.seed, case.segments);
        let g = params
            .chained(case.seed, case.segments)
            .lower()
            .expect("chained segments lower");
        let model = if case.xscale {
            ProcessorModel::xscale()
        } else {
            ProcessorModel::transmeta5400()
        };
        let setup = Setup::for_load(g, model, case.procs, case.load).expect("feasible load");
        let bounds = analyze_bounds(&setup, &BoundsConfig::default(), &label);
        assert!(
            !bounds.exact && bounds.paths > 4096,
            "{label}: {} paths must take the fallback",
            bounds.paths
        );
        assert!(
            bounds
                .report
                .diagnostics
                .iter()
                .any(|d| d.code == Code::Pas0602),
            "{label}: the fallback must be reported as PAS0602"
        );
        let sim = setup.simulator(false);
        for (scheme, sb) in Scheme::ALL.into_iter().zip(&bounds.schemes) {
            assert_eq!(sb.scheme, scheme.name());
            let cfg = BatchConfig::new(RUNS, case.seed);
            let out =
                run_batch(&sim, &etm, None, || setup.policy(scheme), &cfg).expect("batch runs");
            let (energy, makespan) = (span(&out.energy), span(&out.finish_time));
            if !inside(energy, sb.energy) || !inside(makespan, sb.makespan) {
                failures.push(format!(
                    "{label} {}: energy {energy:?} in {:?}, makespan {makespan:?} in {:?}",
                    scheme.name(),
                    sb.energy,
                    sb.makespan
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
