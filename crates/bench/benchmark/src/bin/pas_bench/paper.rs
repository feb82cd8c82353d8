//! `paper-figs`: what `fig4`, `fig5` and `fig6` compute, at the paper's
//! 1000 replications per point. This is the experiments runner's
//! Monte-Carlo path (`runner::evaluate`, one `Setup::run` per run), not the
//! batch engine. One op is one figure point: the `Setup` its figure
//! function builds for that x, then `evaluate` over all six schemes. Ops
//! walk the 60 points of the six sweeps in figure order.

use crate::catalog::{slug, DEFAULT_SEED};
use crate::mc::{self, LayerRows};
use crate::measure::{self, timed, Probes};
use crate::record::Metric;
use crate::spans::Spans;
use crate::sys::Affinity;
use crate::Outcome;
use andor_graph::AndOrGraph;
use mp_sim::{FaultSet, Realization};
use pas_core::{Scheme, Setup};
use pas_experiments::figures::{
    alpha_axis, atr_app, fig_energy_vs_alpha, fig_energy_vs_load, load_axis, Platform, SweepOutput,
};
use pas_experiments::runner::{evaluate, ExperimentConfig};
use pas_stats::Summary;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;
use std::hint::black_box;
use std::time::Instant;

#[derive(Clone, Copy)]
enum Axis {
    /// Energy vs load on this many processors (Figures 4 and 5).
    Load(usize),
    /// Energy vs α (Figure 6).
    Alpha,
}

/// The six sweeps in the order the `fig4`, `fig5` and `fig6` binaries
/// print them.
const SWEEPS: [(Axis, Platform); 6] = [
    (Axis::Load(2), Platform::Transmeta),
    (Axis::Load(2), Platform::XScale),
    (Axis::Load(6), Platform::Transmeta),
    (Axis::Load(6), Platform::XScale),
    (Axis::Alpha, Platform::Transmeta),
    (Axis::Alpha, Platform::XScale),
];

/// Points on every figure's x-axis.
const POINTS: usize = 10;

fn axis_points(axis: Axis) -> Vec<f64> {
    match axis {
        Axis::Load(_) => load_axis(),
        Axis::Alpha => alpha_axis(),
    }
}

fn config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        base_seed: seed,
        ..ExperimentConfig::paper_defaults()
    }
}

fn figure(axis: Axis, platform: Platform, cfg: &ExperimentConfig) -> SweepOutput {
    match axis {
        Axis::Load(procs) => fig_energy_vs_load(platform, procs, cfg),
        Axis::Alpha => fig_energy_vs_alpha(platform, cfg),
    }
}

/// The setup the figure function builds for point `x`.
fn point_setup(atr: &AndOrGraph, axis: Axis, platform: Platform, x: f64) -> Result<Setup, String> {
    match axis {
        Axis::Load(procs) => Setup::for_load(atr.clone(), platform.model(), procs, x),
        Axis::Alpha => {
            let app = workloads::synthetic_app_alpha(x)
                .map_err(|e| e.to_string())?
                .lower()
                .map_err(|e| e.to_string())?;
            Setup::for_load(app, platform.model(), 2, 0.5)
        }
    }
    .map_err(|e| format!("setup at x = {x}: {e}"))
}

/// The tables as `fig4 --markdown`, `fig5 --markdown` and `fig6
/// --markdown` print them, one after another.
fn render(outputs: &[SweepOutput]) -> String {
    outputs
        .iter()
        .map(|o| {
            format!(
                "{}{}\n",
                o.energy.to_markdown(),
                o.speed_changes.to_markdown()
            )
        })
        .collect()
}

/// The SHA-256 of [`render`] at [`DEFAULT_SEED`], recorded in
/// `expected.json` next to this package's manifest.
fn expected_digest() -> Result<String, String> {
    let v: Value = serde_json::from_str(include_str!("../../../expected.json"))
        .map_err(|e| format!("expected.json: {e}"))?;
    v.get("paper_figs_tables_sha256")
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| "expected.json: no paper_figs_tables_sha256".to_string())
}

/// Runs the six figure functions once and applies the gates: NPM is
/// exactly 1.0 everywhere, no deadline is missed, and at the default
/// seed the rendered tables match the recorded digest.
fn figures(cfg: &ExperimentConfig) -> Result<Vec<SweepOutput>, String> {
    let outputs: Vec<SweepOutput> = SWEEPS
        .iter()
        .map(|&(axis, platform)| figure(axis, platform, cfg))
        .collect();
    for o in &outputs {
        let npm = o.energy.series(Scheme::Npm.name()).ok_or("no NPM series")?;
        if npm.values.iter().any(|&v| v != 1.0) {
            return Err(format!("{}: NPM column is not exactly 1.0", o.energy.title));
        }
        if o.total_misses > 0 {
            return Err(format!(
                "{}: {} deadline misses",
                o.energy.title, o.total_misses
            ));
        }
    }
    if cfg.base_seed == DEFAULT_SEED {
        let digest = pas_core::sha256_hex(render(&outputs).as_bytes());
        if digest != expected_digest()? {
            return Err(format!(
                "rendered tables digest to {digest}, not the recorded digest"
            ));
        }
    }
    Ok(outputs)
}

pub fn run(seed: u64, seconds: u64) -> Result<Outcome, String> {
    let pin = Affinity::pin_to_one_cpu()?;
    let mut setup = measure::SetupTimer::default();
    let atr = setup.slot(|| Ok(atr_app()))?;
    let cfg = config(seed);
    let tables = figures(&cfg)?;
    let mut slot = || setup.slot(|| Ok(atr_app())).map(drop);
    let measured = e2e(&atr, &cfg, &tables, seconds, &pin, None, Some(&mut slot))?;
    let mut metrics = vec![setup.metric()?];
    metrics.extend(measured.metrics()?);
    metrics.push(Metric::value("peak_rss_mb", crate::sys::peak_rss_mb(None)?));
    Ok(Outcome::new(metrics, measured.ops()))
}

fn e2e(
    atr: &AndOrGraph,
    cfg: &ExperimentConfig,
    tables: &[SweepOutput],
    seconds: u64,
    pin: &Affinity,
    spans: Option<&mut Spans>,
    between: Option<&mut dyn FnMut() -> Result<(), String>>,
) -> Result<measure::Measured, String> {
    let points = POINTS * SWEEPS.len();
    measure::sample(seconds, points as u64, pin, spans, between, |k| {
        let s = (k as usize / POINTS) % SWEEPS.len();
        let j = k as usize % POINTS;
        let (axis, platform) = SWEEPS[s];
        let x = axis_points(axis)[j];
        let t0 = Instant::now();
        let setup = point_setup(atr, axis, platform, x)?;
        let res = evaluate(&setup, cfg).map_err(|e| e.to_string())?;
        let busy = t0.elapsed();
        if res.total_misses() > 0 {
            return Err(format!("x = {x}: {} deadline misses", res.total_misses()));
        }
        for scheme in Scheme::ALL {
            let got = res.normalized_energy(scheme);
            let want = tables[s]
                .energy
                .series(scheme.name())
                .and_then(|series| series.values.get(j).copied());
            if got.map(f64::to_bits) != want.map(f64::to_bits) {
                return Err(format!(
                    "{} at x = {x}: {got:?} differs from the figure's {want:?}",
                    scheme.name()
                ));
            }
        }
        Ok(busy)
    })
}

pub fn trace(seed: u64, seconds: u64, spans: &mut Spans) -> Result<Outcome, String> {
    let pin = Affinity::pin_to_one_cpu()?;
    let atr = atr_app();
    let cfg = config(seed);
    let tables = figures(&cfg)?;
    let plain = e2e(&atr, &cfg, &tables, seconds, &pin, None, None)?;
    let traced = spans.scope("e2e", |sp| {
        e2e(&atr, &cfg, &tables, seconds, &pin, Some(sp), None)
    })?;
    let case = mc::Case {
        setup: point_setup(&atr, Axis::Load(6), Platform::Transmeta, 0.5)?,
        faults: None,
        platform: Platform::Transmeta,
        load: 0.5,
    };
    let mut metrics = vec![mc::overhead(plain.ops_per_s(), traced.ops_per_s())];
    metrics.extend(runner_layers(&case.setup, &cfg, &pin, spans)?);
    metrics.extend(crate::offline::case_layers(&case, spans)?);
    Ok(Outcome::new(metrics, plain.ops() + traced.ops()))
}

/// The layer table of the experiments runner's path on one figure point
/// (Figure 5, load 0.5, Transmeta), per run (one replication under one
/// scheme). Sampling happens once per replication and is shared by the six
/// schemes, so its rows are divided by six.
fn runner_layers(
    setup: &Setup,
    cfg: &ExperimentConfig,
    pin: &Affinity,
    spans: &mut Spans,
) -> Result<Vec<Metric>, String> {
    let (g, sg) = (&setup.graph, &setup.sections);
    let reps = cfg.replications;
    let runs = reps * Scheme::ALL.len();
    // The runner's own seed rule (`runner::evaluate_with_faults`).
    let seeds: Vec<u64> = (0..reps as u64)
        .map(|r| {
            cfg.base_seed
                .wrapping_add(r.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        })
        .collect();
    let rngs = || -> Vec<StdRng> { seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect() };
    let inputs: Vec<(Realization, Option<FaultSet>)> = rngs()
        .iter_mut()
        .map(|r| (setup.sample(&cfg.etm, r), None))
        .collect();
    let results = Scheme::ALL
        .into_iter()
        .flat_map(|scheme| inputs.iter().map(move |(real, _)| setup.run(scheme, real)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let sim = setup.simulator(false);

    let mut p = Probes::default();
    p.add("sim.seed", reps, || {
        timed(|| {
            for &s in &seeds {
                black_box(StdRng::seed_from_u64(black_box(s)));
            }
            Ok(())
        })
    });
    p.add("graph.sample_scenario", reps, || {
        let mut rs = rngs();
        timed(|| {
            for r in &mut rs {
                black_box(sg.sample_scenario(g, r));
            }
            Ok(())
        })
    });
    p.add("sim.sample", reps, || {
        let mut rs = rngs();
        timed(|| {
            for r in &mut rs {
                black_box(setup.sample(&cfg.etm, r));
            }
            Ok(())
        })
    });
    for scheme in Scheme::ALL {
        let inputs = &inputs;
        p.add(
            format!("core.setup_run.{}", slug(scheme)),
            reps,
            move || {
                timed(|| {
                    for (real, _) in inputs {
                        black_box(setup.run(scheme, real).map_err(|e| e.to_string())?);
                    }
                    Ok(())
                })
            },
        );
    }
    mc::add_run_into_rows(&mut p, &sim, setup, &inputs, None);
    // The runner folds every run into per-scheme `Summary`s.
    p.add("stats.fold", runs, || {
        timed(|| {
            let mut s: Vec<Summary> = (0..6).map(|_| Summary::new()).collect();
            for res in &results {
                s[0].add(res.total_energy());
                s[1].add(res.energy.busy_energy());
                s[2].add(res.energy.idle_energy());
                s[3].add(res.energy.transition_energy());
                s[4].add(res.energy.speed_changes() as f64);
                s[5].add(res.faults.recovery_energy);
            }
            Ok(s)
        })
    });
    p.add("runner.evaluate", runs, || {
        timed(|| evaluate(setup, cfg).map_err(|e| e.to_string()))
    });
    mc::add_parallel_scaling(&mut p, pin, || {
        evaluate(setup, cfg).map(drop).map_err(|e| e.to_string())
    });
    let t = p.run(spans)?;

    let per_run = |ns_per_rep: f64| ns_per_rep / Scheme::ALL.len() as f64;
    let setup_run_ns = mc::per_scheme_mean(&t, "core.setup_run");
    let (run_into, _) = mc::run_into_metrics(&t, &sim, setup, &inputs)?;
    let mut m = LayerRows {
        seed_ns: per_run(t.ns("sim.seed")),
        scenario_ns: per_run(t.ns("graph.sample_scenario")),
        sample_self_ns: per_run(t.ns("sim.sample") - t.ns("graph.sample_scenario")),
        fault_ns: 0.0,
        run_ns: setup_run_ns,
        fold_ns: t.ns("stats.fold"),
        total_ns: t.ns("runner.evaluate"),
    }
    .metrics();
    m.extend(run_into);
    m.push(Metric::value("core.setup_run_ns", setup_run_ns));
    m.push(mc::parallel_scaling(&t));
    Ok(m)
}
