//! Cross-crate integration: serialization round trips, energy-accounting
//! identities, and end-to-end consistency through the facade crate.

use pas_andor::core::{OfflinePlan, Scheme, Setup};
use pas_andor::graph::{AndOrGraph, SectionGraph};
use pas_andor::power::{Overheads, ProcessorModel};
use pas_andor::sim::{ExecTimeModel, Realization, RunScratch};
use pas_andor::workloads::synthetic_app;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup() -> Setup {
    Setup::for_load(
        synthetic_app().lower().unwrap(),
        ProcessorModel::transmeta5400(),
        2,
        0.5,
    )
    .unwrap()
}

#[test]
fn graph_json_round_trip_preserves_behavior() {
    let s = setup();
    let json = serde_json::to_string(&s.graph).unwrap();
    let graph2: AndOrGraph = serde_json::from_str(&json).unwrap();
    graph2.validate().unwrap();
    let s2 = Setup::new(graph2, ProcessorModel::transmeta5400(), 2, s.plan.deadline).unwrap();
    // Identical plans from identical graphs.
    assert_eq!(s.plan.worst_total, s2.plan.worst_total);
    assert_eq!(s.plan.avg_total, s2.plan.avg_total);
    assert_eq!(s.plan.lst, s2.plan.lst);
    // Identical runs on identical realizations.
    let mut rng = StdRng::seed_from_u64(11);
    let real = s.sample(&ExecTimeModel::paper_defaults(), &mut rng);
    for scheme in Scheme::ALL {
        assert_eq!(
            s.run(scheme, &real).expect("run succeeds").total_energy(),
            s2.run(scheme, &real).expect("run succeeds").total_energy()
        );
    }
}

#[test]
fn plan_and_realization_serde_round_trips() {
    let s = setup();
    let plan_json = serde_json::to_string(&s.plan).unwrap();
    let plan2: OfflinePlan = serde_json::from_str(&plan_json).unwrap();
    assert_eq!(plan2.branch_worst, s.plan.branch_worst);
    assert_eq!(plan2.dispatch.per_section, s.plan.dispatch.per_section);

    let mut rng = StdRng::seed_from_u64(13);
    let real = s.sample(&ExecTimeModel::paper_defaults(), &mut rng);
    let real_json = serde_json::to_string(&real).unwrap();
    let real2: Realization = serde_json::from_str(&real_json).unwrap();
    assert_eq!(real2.actual, real.actual);
    assert_eq!(
        s.run(Scheme::Gss, &real).expect("run succeeds").finish_time,
        s.run(Scheme::Gss, &real2)
            .expect("run succeeds")
            .finish_time
    );
}

#[test]
fn energy_accounting_identities() {
    let s = setup();
    let mut rng = StdRng::seed_from_u64(17);
    for _ in 0..50 {
        let real = s.sample(&ExecTimeModel::paper_defaults(), &mut rng);
        for scheme in Scheme::ALL {
            let mut scratch = RunScratch::new();
            let res = s
                .simulator(false)
                .run_into(
                    &mut scratch,
                    s.policy(scheme).as_mut(),
                    &real,
                    None,
                    None,
                    None,
                )
                .expect("run succeeds");
            // Total = busy + idle + transition.
            let sum = res.energy.busy_energy()
                + res.energy.idle_energy()
                + res.energy.transition_energy();
            assert!((res.total_energy() - sum).abs() < 1e-9);
            // Per-processor meters aggregate to the total.
            let agg: f64 = scratch.meters().iter().map(|m| m.total_energy()).sum();
            assert!((res.total_energy() - agg).abs() < 1e-9);
            // Each processor is accounted for the full horizon.
            let horizon = res.finish_time.max(res.deadline);
            for m in scratch.meters() {
                let covered = m.busy_time() + m.idle_time() + m.transition_time();
                assert!(
                    (covered - horizon).abs() < 1e-6,
                    "{scheme}: processor covered {covered} of horizon {horizon}"
                );
            }
        }
    }
}

#[test]
fn trace_is_consistent_with_dependencies_and_energy() {
    let s = setup();
    let mut rng = StdRng::seed_from_u64(23);
    let real = s.sample(&ExecTimeModel::paper_defaults(), &mut rng);
    let mut policy = s.policy(Scheme::Gss);
    let res = s
        .simulator(true)
        .run(policy.as_mut(), &real)
        .expect("run succeeds");
    let trace = res.trace.as_ref().unwrap();

    // Starts are globally ordered (the engine serializes dispatches).
    for w in trace.windows(2) {
        assert!(w[0].start <= w[1].start + 1e-12);
    }
    // No processor overlaps itself and speeds are legal levels.
    let levels: Vec<f64> = s
        .model
        .levels()
        .unwrap()
        .iter()
        .map(|l| l.freq_mhz / s.model.max_freq_mhz())
        .collect();
    for p in 0..s.plan.num_procs {
        let mut last_end = 0.0_f64;
        for e in trace.iter().filter(|e| e.proc == p) {
            assert!(e.start >= last_end - 1e-9, "processor {p} overlaps");
            assert!(e.end >= e.start);
            last_end = e.end;
            assert!(
                levels.iter().any(|l| (l - e.speed).abs() < 1e-9),
                "speed {} is not a level",
                e.speed
            );
        }
    }
    // Every traced task's predecessors finished before it started
    // (OR nodes excepted: they are not traced).
    let finish: std::collections::HashMap<_, _> = trace.iter().map(|e| (e.node, e.end)).collect();
    for e in trace {
        for &pred in &s.graph.node(e.node).preds {
            if let Some(&pf) = finish.get(&pred) {
                assert!(
                    pf <= e.start + 1e-9,
                    "task started before its predecessor finished"
                );
            }
        }
    }
}

#[test]
fn sections_and_dispatch_cover_every_active_node() {
    let s = setup();
    let sg = SectionGraph::build(&s.graph).unwrap();
    let mut rng = StdRng::seed_from_u64(29);
    for _ in 0..20 {
        let scenario = sg.sample_scenario(&s.graph, &mut rng);
        let active = sg.active_nodes(&s.graph, &scenario);
        // Every active computation node appears in the dispatch order of
        // its section.
        for &n in &active {
            if s.graph.node(n).kind.is_or() {
                continue;
            }
            let sec = sg.section_of(n).unwrap();
            assert!(
                s.plan.dispatch.per_section[sec.index()].contains(&n),
                "node missing from dispatch order"
            );
        }
    }
}

#[test]
fn overhead_accounting_behaves() {
    // Zero-overhead runs pay no transition time/energy; overheaded runs
    // pay exactly `transition_time · changes`, reserve slack accordingly
    // (so they never run *slower* than the free configuration), and still
    // meet every deadline.
    let app = synthetic_app().lower().unwrap();
    let free = Setup::for_load_with_overheads(
        app.clone(),
        ProcessorModel::xscale(),
        2,
        0.6,
        Overheads::none(),
    )
    .unwrap();
    let costly = Setup::for_load_with_overheads(
        app,
        ProcessorModel::xscale(),
        2,
        0.6,
        Overheads::new(300.0, 0.5).unwrap(),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(31);
    for _ in 0..30 {
        let real = free.sample(&ExecTimeModel::paper_defaults(), &mut rng);
        for scheme in [Scheme::Gss, Scheme::As] {
            let a = free.run(scheme, &real).expect("run succeeds");
            let b = costly.run(scheme, &real).expect("run succeeds");
            assert!(!a.missed_deadline && !b.missed_deadline);
            assert_eq!(a.energy.transition_time(), 0.0);
            assert!(
                (b.energy.transition_time() - 0.5 * b.energy.speed_changes() as f64).abs() < 1e-9
            );
            // (No per-run energy ordering holds in general: reserving
            // overhead shifts which tasks absorb the slack.)
        }
    }
}
