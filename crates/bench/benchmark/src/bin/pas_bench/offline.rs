//! `offline-large`: the offline phase and the bounds pass on large seeded
//! graphs. One op is `check_graph` → `Setup::for_load` (XScale, 4
//! processors, load 0.6) → `analyze_bounds` → `PlanArtifact::from_setup`,
//! `to_json` and `digest`. No Monte-Carlo work at all.

use crate::mc::Case;
use crate::measure::{self, timed, Probes};
use crate::record::Metric;
use crate::spans::Spans;
use crate::sys::Affinity;
use crate::{stats, Outcome};
use andor_graph::{AndOrGraph, SectionGraph, Segment};
use dvfs_power::ProcessorModel;
use mp_sim::realization_seed;
use pas_analyze::{analyze_bounds, check_graph, BoundsConfig};
use pas_core::{PlanArtifact, Scheme, Setup};
use pas_experiments::figures::Platform;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;
use workloads::RandomAppParams;

/// Graphs per run; ops cycle through them.
pub const GRAPHS: usize = 24;
/// Random segments chained into one graph.
const SEGMENTS: usize = 256;
const PROCS: usize = 4;
const LOAD: f64 = 0.6;
const PLATFORM: &str = "xscale";

fn params() -> RandomAppParams {
    RandomAppParams {
        max_depth: 5,
        max_seq_len: 4,
        max_par_width: 3,
        max_branch_arms: 3,
        ..RandomAppParams::default()
    }
}

/// The run's graphs: `Segment::seq` of [`SEGMENTS`] random segments each,
/// seeded from the run seed.
pub fn graphs(seed: u64) -> Result<Vec<AndOrGraph>, String> {
    let params = params();
    (0..GRAPHS)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(realization_seed(seed, i as u64));
            Segment::seq((0..SEGMENTS).map(|_| params.generate(&mut rng)))
                .lower()
                .map_err(|e| format!("graph {i}: {e}"))
        })
        .collect()
}

fn label(i: usize) -> String {
    format!("large-{i}")
}

/// One op; returns the plan digest. Fails on any diagnostic from
/// `check_graph` and on any error from the bounds pass.
fn pipeline(g: AndOrGraph, label: &str) -> Result<PlanArtifact, String> {
    let report = check_graph(&g, label);
    if !report.is_clean() {
        return Err(format!("{label}: check_graph is not clean: {report:?}"));
    }
    let setup = Setup::for_load(g, ProcessorModel::xscale(), PROCS, LOAD)
        .map_err(|e| format!("{label}: {e}"))?;
    let bounds = analyze_bounds(&setup, &BoundsConfig::default(), label);
    if bounds.report.has_errors() {
        return Err(format!("{label}: bounds report has errors"));
    }
    let artifact = PlanArtifact::from_setup(&setup, Scheme::Gss, label, PLATFORM);
    black_box(artifact.to_json()?);
    Ok(artifact)
}

/// The run's correctness gate per graph: the pipeline succeeds and
/// `from_json(to_json)` keeps the digest. Returns the digests every later
/// op must reproduce.
fn reference_digests(graphs: &[AndOrGraph]) -> Result<Vec<String>, String> {
    graphs
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let artifact = pipeline(g.clone(), &label(i))?;
            let digest = artifact.digest()?;
            let back = PlanArtifact::from_json(&artifact.to_json()?)?;
            if back.digest()? != digest {
                return Err(format!(
                    "{}: from_json(to_json) changes the digest",
                    label(i)
                ));
            }
            Ok(digest)
        })
        .collect()
}

pub fn run(seed: u64, seconds: u64) -> Result<Outcome, String> {
    let pin = Affinity::pin_to_one_cpu()?;
    // Building the graphs takes a quarter second, so its slots run up
    // front (four per CPU, taking turns) rather than between the samples,
    // where a second set of graphs would also inflate the peak memory.
    let mut setup = measure::SetupTimer::default();
    let mut built = None;
    for cpu in 0..4 * pin.count() {
        pin.use_cpu(cpu)?;
        drop(built.take());
        built = Some(setup.slot(|| graphs(seed))?);
    }
    let graphs = built.ok_or("no graphs built")?;
    let digests = reference_digests(&graphs)?;
    let measured = e2e(&graphs, &digests, seconds, &pin, None)?;
    let mut metrics = vec![setup.metric()?];
    metrics.extend(measured.metrics()?);
    metrics.push(Metric::value("peak_rss_mb", crate::sys::peak_rss_mb(None)?));
    Ok(Outcome::new(metrics, measured.ops()))
}

/// Ops visit the graphs in turn, one op per graph, so every sample covers
/// all of them; every op is one latency sample.
fn e2e(
    graphs: &[AndOrGraph],
    digests: &[String],
    seconds: u64,
    pin: &Affinity,
    spans: Option<&mut Spans>,
) -> Result<measure::Measured, String> {
    measure::sample(seconds, GRAPHS as u64, pin, spans, None, |k| {
        let i = k as usize % GRAPHS;
        let name = label(i);
        let g = graphs[i].clone();
        let t0 = Instant::now();
        let artifact = pipeline(g, &name)?;
        let digest = artifact.digest()?;
        let busy = t0.elapsed();
        if digest != digests[i] {
            return Err(format!("{name}: plan digest changed between ops"));
        }
        Ok(busy)
    })
}

pub fn trace(seed: u64, seconds: u64, spans: &mut Spans) -> Result<Outcome, String> {
    let pin = Affinity::pin_to_one_cpu()?;
    let graphs = graphs(seed)?;
    let digests = reference_digests(&graphs)?;
    let plain = e2e(&graphs, &digests, seconds, &pin, None)?;
    let traced = spans.scope("e2e", |sp| e2e(&graphs, &digests, seconds, &pin, Some(sp)))?;
    let mut per_graph = Vec::with_capacity(GRAPHS);
    for (i, g) in graphs.iter().enumerate() {
        per_graph.push(spans.scope(label(i), |sp| {
            rows(g, Platform::XScale, PROCS, LOAD, &label(i), sp)
        })?);
    }
    let mut metrics = vec![crate::mc::overhead(plain.ops_per_s(), traced.ops_per_s())];
    // Each row is the median over the graphs.
    for (j, row) in per_graph[0].iter().enumerate() {
        let values: Vec<f64> = per_graph.iter().map(|r| r[j].value).collect();
        let value = if row.name == "analysis.exact_frac" {
            crate::mc::mean(&values)
        } else {
            stats::median(&values).unwrap_or(0.0)
        };
        metrics.push(Metric::value(&row.name, value));
    }
    Ok(Outcome::new(metrics, plain.ops() + traced.ops()))
}

/// The offline rows for a Monte-Carlo case's own graph and operating point.
pub fn case_layers(case: &Case, spans: &mut Spans) -> Result<Vec<Metric>, String> {
    spans.scope("offline", |sp| {
        rows(
            &case.setup.graph,
            case.platform,
            case.setup.plan.num_procs,
            case.load,
            "case",
            sp,
        )
    })
}

/// Each offline layer timed on its own (in ms), plus the graph's size and
/// whether the bounds were exact.
fn rows(
    g: &AndOrGraph,
    platform: Platform,
    procs: usize,
    load: f64,
    label: &str,
    spans: &mut Spans,
) -> Result<Vec<Metric>, String> {
    let build = |g: AndOrGraph| {
        Setup::for_load(g, platform.model(), procs, load).map_err(|e| format!("{label}: {e}"))
    };
    let setup = build(g.clone())?;
    let cfg = BoundsConfig::default();
    let artifact = PlanArtifact::from_setup(&setup, Scheme::Gss, label, PLATFORM);

    let mut p = Probes::default();
    p.add("analysis.check_graph", 1, || {
        timed(|| Ok(check_graph(g, label)))
    });
    p.add("graph.section_build", 1, || {
        timed(|| SectionGraph::build(g).map_err(|e| e.to_string()))
    });
    p.add("core.setup_for_load", 1, || {
        let g = g.clone();
        timed(|| build(g))
    });
    p.add("analysis.bounds", 1, || {
        timed(|| Ok(analyze_bounds(&setup, &cfg, label)))
    });
    p.add("core.artifact_json", 1, || {
        timed(|| PlanArtifact::from_setup(&setup, Scheme::Gss, label, PLATFORM).to_json())
    });
    p.add("core.artifact_digest", 1, || timed(|| artifact.digest()));
    let t = p.run(spans)?;

    let ms = |row: &str| t.ns(row) / 1e6;
    let exact = analyze_bounds(&setup, &cfg, label).exact;
    Ok(vec![
        Metric::value("analysis.check_graph_ms", ms("analysis.check_graph")),
        Metric::value("core.setup_for_load_ms", ms("core.setup_for_load")),
        Metric::value("graph.section_build_ms", ms("graph.section_build")),
        Metric::value("analysis.bounds_ms", ms("analysis.bounds")),
        Metric::value("core.artifact_json_ms", ms("core.artifact_json")),
        Metric::value("core.artifact_digest_ms", ms("core.artifact_digest")),
        Metric::value("graph.nodes", g.len() as f64),
        Metric::value("graph.sections", setup.sections.len() as f64),
        Metric::value("analysis.exact_frac", if exact { 1.0 } else { 0.0 }),
    ])
}
