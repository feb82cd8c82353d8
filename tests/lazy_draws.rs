//! The lazy execution-time sampler against the eager one it replaced.
//!
//! A realization draws two uniforms for every computation node with a
//! random execution time, in node-index order, but only transforms them
//! into a time for nodes on the sampled OR-path; the rest hold their WCET.
//! These tests pin both halves of that contract:
//!
//! * every on-path value is bit-equal to the eager `ClippedNormal`-based
//!   sampler (kept here as the reference) and the rng ends in the same
//!   state, for random graphs and random, possibly degenerate, models;
//! * nothing downstream reads an off-path value: poisoning them all with
//!   `NaN` leaves every scheme's run, with or without faults, and the
//!   literal engine bit-identical.

use pas_andor::core::{Scheme, Setup};
use pas_andor::graph::{AndOrGraph, NodeId, Scenario, SectionGraph, SectionId};
use pas_andor::power::ProcessorModel;
use pas_andor::sim::literal::run_literal;
use pas_andor::sim::{DrawTable, ExecDraw, ExecTimeModel, FaultPlan, Realization, RunScratch};
use pas_andor::workloads::{self, AtrParams, RandomAppParams};
use pas_stats::ClippedNormal;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::collections::HashSet;

/// The eager per-task sampler as it stood before draws were resolved per
/// graph: clamps, a fresh `ClippedNormal`, a full Box–Muller round.
fn reference_sample<R: Rng + ?Sized>(m: &ExecTimeModel, wcet: f64, acet: f64, rng: &mut R) -> f64 {
    if !wcet.is_finite() || wcet <= 0.0 {
        return wcet.max(0.0);
    }
    if m.floor_fraction >= 1.0 {
        return wcet;
    }
    let acet = if acet.is_finite() {
        acet.clamp(0.0, wcet)
    } else {
        wcet
    };
    let sd = m.sd_over_gap * (wcet - acet).max(0.0);
    let lo = (m.floor_fraction * wcet)
        .min(acet)
        .max(wcet * 1e-12)
        .min(wcet);
    match ClippedNormal::new(acet, sd, lo, wcet) {
        Some(mut dist) => dist.sample(rng).clamp(lo, wcet),
        None => acet.clamp(lo, wcet),
    }
}

/// The eager realization: the scenario walk over `or_branches`, then a
/// reference draw for every computation node, on-path or not.
fn reference_realization<R: Rng + ?Sized>(
    g: &AndOrGraph,
    sg: &SectionGraph,
    m: &ExecTimeModel,
    rng: &mut R,
) -> Realization {
    let mut choices = Vec::new();
    let mut cur = sg.root();
    while let Some(or) = sg.section(cur).exit_or {
        let branches = g.or_branches(or);
        if branches.is_empty() {
            break;
        }
        let mut u: f64 = rng.gen();
        let mut k = branches.len() - 1;
        for (i, (_, p)) in branches.iter().enumerate() {
            if u < *p {
                k = i;
                break;
            }
            u -= p;
        }
        choices.push((or, k));
        cur = sg.branch_section(or, k).expect("branch section exists");
    }
    let actual = g
        .nodes()
        .iter()
        .map(|n| {
            if n.kind.is_computation() {
                reference_sample(m, n.kind.wcet(), n.kind.acet(), rng)
            } else {
                0.0
            }
        })
        .collect();
    Realization {
        scenario: Scenario { choices },
        actual,
    }
}

/// The sections `scenario` runs.
fn on_path(g: &AndOrGraph, sg: &SectionGraph, scenario: &Scenario) -> HashSet<SectionId> {
    sg.chain(g, scenario).into_iter().collect()
}

/// Rewrites every task's `(wcet, acet)` through the serialized graph,
/// which bypasses the builder's `0 < acet <= wcet` validation.
fn degrade(v: &mut Value, pick: &mut dyn FnMut() -> (f64, f64)) {
    match v {
        Value::Object(fields) => {
            for (key, inner) in fields.iter_mut() {
                match (key.as_str(), &mut *inner) {
                    ("Computation", Value::Object(times)) => {
                        let (wcet, acet) = pick();
                        for (name, x) in times.iter_mut() {
                            match name.as_str() {
                                "wcet" => *x = Value::Float(wcet),
                                "acet" => *x = Value::Float(acet),
                                _ => {}
                            }
                        }
                    }
                    _ => degrade(inner, pick),
                }
            }
        }
        Value::Array(items) => items.iter_mut().for_each(|x| degrade(x, pick)),
        _ => {}
    }
}

/// One of the three graph families, by index, lowered from `seed`.
fn graph_family(which: u32, seed: u64) -> AndOrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let seg = match which {
        0 => workloads::synthetic_app(),
        1 => AtrParams::default()
            .build_jittered(&mut rng)
            .expect("default ATR builds"),
        _ => RandomAppParams::default().generate(&mut rng),
    };
    seg.lower().expect("generated workloads lower")
}

/// A mostly valid, sometimes degenerate `(wcet, acet)` pair.
fn odd_times(rng: &mut StdRng) -> (f64, f64) {
    let wcet = rng.gen_range(0.5..20.0);
    match rng.gen_range(0u32..8) {
        0 => (wcet, wcet * rng.gen_range(1.0..3.0)),
        1 => (wcet, -wcet * rng.gen_range(0.0..1.0)),
        2 => (wcet, f64::NAN),
        3 => (0.0, 1.0),
        4 => (-wcet, wcet),
        5 => (f64::INFINITY, wcet),
        _ => (wcet, wcet * rng.gen_range(0.0..1.0)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// On-path values equal the eager sampler bit for bit, off-path
    /// `Normal` nodes hold their WCET, the rng consumed the same words,
    /// and `sample`, `sample_into` and the table path agree.
    #[test]
    fn lazy_draws_match_the_eager_sampler(
        family in 0u32..3,
        graph_seed in 0u64..10_000,
        degenerate in 0u32..2,
        sd_over_gap in 0.0f64..=3.0,
        floor_fraction in 0.0f64..=1.2,
        seed in 0u64..1_000_000,
    ) {
        let mut g = graph_family(family, graph_seed);
        if degenerate == 1 {
            let mut v = serde_json::to_value(&g);
            let mut times = StdRng::seed_from_u64(graph_seed);
            degrade(&mut v, &mut || odd_times(&mut times));
            g = serde_json::from_value(&v).expect("degraded graph deserializes");
        }
        let sg = SectionGraph::build(&g).expect("sections build");
        let m = ExecTimeModel { sd_over_gap, floor_fraction };
        let table = DrawTable::new(&g, &sg, &m);

        let mut ref_rng = StdRng::seed_from_u64(seed);
        let reference = reference_realization(&g, &sg, &m, &mut ref_rng);
        let mut rng = StdRng::seed_from_u64(seed);
        let lazy = Realization::sample(&g, &sg, &m, &mut rng);
        prop_assert_eq!(&lazy.scenario, &reference.scenario);
        let next = ref_rng.next_u64();
        prop_assert_eq!(rng.next_u64(), next);

        let active = on_path(&g, &sg, &lazy.scenario);
        for (i, node) in g.nodes().iter().enumerate() {
            let (got, want) = (lazy.actual[i], reference.actual[i]);
            let runs = sg.section_of(NodeId(i as u32)).is_none_or(|s| active.contains(&s));
            let resolved = m.resolve(node.kind.wcet(), node.kind.acet());
            if runs || !node.kind.is_computation() {
                prop_assert!(got.to_bits() == want.to_bits(), "node {i}: {got} vs {want}");
            } else if let ExecDraw::Normal { hi, .. } = resolved {
                prop_assert!(got.to_bits() == hi.to_bits(), "off-path node {i}: {got}");
                prop_assert!(hi.to_bits() == node.kind.wcet().to_bits());
            } else {
                prop_assert!(got.to_bits() == want.to_bits(), "fixed node {i}: {got} vs {want}");
            }
        }

        // The reused-buffer and table paths, starting from stale buffers
        // of the wrong lengths.
        let stale = Realization {
            scenario: Scenario { choices: vec![(NodeId(0), 7); 9] },
            actual: vec![f64::NAN; 3],
        };
        let mut into = stale.clone();
        let mut into_rng = StdRng::seed_from_u64(seed);
        into.sample_into(&g, &sg, &m, &mut into_rng);
        let mut tabled = stale;
        let mut table_rng = StdRng::seed_from_u64(seed);
        table.sample_into(&mut tabled, &mut table_rng);
        let fresh = table.sample(&mut StdRng::seed_from_u64(seed));
        for other in [&into, &tabled, &fresh] {
            prop_assert_eq!(&other.scenario, &lazy.scenario);
            let bits = |r: &Realization| r.actual.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(other), bits(&lazy));
        }
        prop_assert_eq!(into_rng.next_u64(), next);
        prop_assert_eq!(table_rng.next_u64(), next);
    }

    /// Per task, `ExecTimeModel::sample` is the eager sampler exactly,
    /// degenerate inputs included, and consumes the same rng words.
    #[test]
    fn per_task_sample_matches_the_eager_sampler(
        case in 0u64..1_000_000,
        sd_over_gap in 0.0f64..=3.0,
        floor_fraction in 0.0f64..=1.2,
    ) {
        let mut times = StdRng::seed_from_u64(case);
        let m = ExecTimeModel { sd_over_gap, floor_fraction };
        for _ in 0..32 {
            let (wcet, acet) = odd_times(&mut times);
            let mut a = StdRng::seed_from_u64(case ^ 0x5EED);
            let mut b = a.clone();
            let got = m.sample(wcet, acet, &mut a);
            let want = reference_sample(&m, wcet, acet, &mut b);
            prop_assert!(got.to_bits() == want.to_bits(), "({wcet}, {acet}): {got} vs {want}");
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}

/// Degenerate model parameters resolve to the eager sampler's fallbacks.
#[test]
fn degenerate_models_match_the_eager_sampler() {
    for (sd_over_gap, floor_fraction) in [
        (f64::NAN, 0.01),
        (-1.0, 0.01),
        (f64::INFINITY, 0.01),
        (0.3, f64::NAN),
        (0.3, -2.0),
        (0.0, 0.0),
    ] {
        let m = ExecTimeModel {
            sd_over_gap,
            floor_fraction,
        };
        for (wcet, acet) in [(10.0, 4.0), (10.0, 0.0), (10.0, 10.0), (1e-300, 0.0)] {
            let mut a = StdRng::seed_from_u64(7);
            let mut b = a.clone();
            let got = m.sample(wcet, acet, &mut a);
            let want = reference_sample(&m, wcet, acet, &mut b);
            assert_eq!(got.to_bits(), want.to_bits(), "{m:?} ({wcet}, {acet})");
            assert_eq!(a.next_u64(), b.next_u64(), "{m:?} ({wcet}, {acet})");
        }
    }
}

/// Every computation entry off the sampled OR-path set to `NaN`.
fn poisoned(setup: &Setup, real: &Realization) -> (Realization, usize) {
    let active = on_path(&setup.graph, &setup.sections, &real.scenario);
    let mut out = real.clone();
    let mut count = 0;
    for (i, node) in setup.graph.nodes().iter().enumerate() {
        let section = setup.sections.section_of(NodeId(i as u32));
        if node.kind.is_computation() && section.is_some_and(|s| !active.contains(&s)) {
            out.actual[i] = f64::NAN;
            count += 1;
        }
    }
    (out, count)
}

/// Runs every scheme on the clean and the poisoned realization and
/// demands bit-identical results. `RunResult` has no `PartialEq`; its
/// `Debug` form prints every float in round-trip precision, so equal
/// strings mean equal bits (both sides are NaN-free).
#[test]
fn off_path_entries_are_never_read() {
    let etm = ExecTimeModel::paper_defaults();
    let plan = FaultPlan {
        overrun_prob: 0.3,
        overrun_factor: 1.5,
        speed_fail_prob: 0.2,
        stall_prob: 0.2,
        stall_ms: 0.5,
        seed: 11,
    };
    let mut poisoned_total = 0;
    for model in [ProcessorModel::transmeta5400(), ProcessorModel::xscale()] {
        for (app, procs) in [
            (workloads::synthetic_app().lower().expect("lowers"), 2),
            (graph_family(1, 0xA72), 4),
        ] {
            let setup = Setup::for_load(app, model.clone(), procs, 0.5).expect("feasible");
            let sim = setup.simulator(false);
            let draws = setup.draw_table(&etm);
            let mut rng = StdRng::seed_from_u64(0x9015);
            for index in 0..6u64 {
                let real = draws.sample(&mut rng);
                let (dirty, count) = poisoned(&setup, &real);
                poisoned_total += count;
                let faults = plan.realize(&setup.graph, index);
                for scheme in Scheme::ALL {
                    for fs in [None, Some(&faults)] {
                        let run = |r: &Realization| {
                            let mut scratch = RunScratch::new();
                            let res = sim
                                .run_into(
                                    &mut scratch,
                                    setup.policy(scheme).as_mut(),
                                    r,
                                    None,
                                    fs,
                                    None,
                                )
                                .expect("run succeeds");
                            let sections: Vec<u64> = scratch
                                .section_energy()
                                .iter()
                                .map(|e| e.to_bits())
                                .collect();
                            (format!("{res:?}"), sections)
                        };
                        assert_eq!(
                            run(&real),
                            run(&dirty),
                            "{} run {index}, faults {}",
                            scheme.name(),
                            fs.is_some()
                        );
                    }
                    let literal = |r: &Realization| {
                        let lit = run_literal(
                            &setup.graph,
                            &setup.sections,
                            &setup.plan.dispatch,
                            &setup.model,
                            &setup.sim_config(false),
                            setup.policy(scheme).as_mut(),
                            r,
                        )
                        .expect("literal run succeeds");
                        format!("{lit:?}")
                    };
                    assert_eq!(
                        literal(&real),
                        literal(&dirty),
                        "{} literal run {index}",
                        scheme.name()
                    );
                }
            }
        }
    }
    assert!(
        poisoned_total > 0,
        "no realization left a task off its path"
    );
}
