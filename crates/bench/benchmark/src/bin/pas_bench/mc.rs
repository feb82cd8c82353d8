//! `mc-fig5` and `mc-faults`: the batched Monte-Carlo engine in the shape
//! `pas compare --metrics --batch` uses it. One op is one scheme's
//! `run_batch` over [`BATCH`] realizations (observability sampled every
//! 64th) followed by `BatchDistribution::from_output`. Consecutive ops
//! cycle through the six schemes on the same draws, the paper's paired
//! design, then move to the next of [`DRAW_BLOCKS`] blocks of draws.

use crate::catalog::{slug, SCHEMES};
use crate::measure::{self, timed, Probes, Timings};
use crate::record::Metric;
use crate::spans::Spans;
use crate::sys::Affinity;
use crate::{offline, Outcome};
use mp_sim::{
    realization_seed, run_batch, BatchConfig, BatchDistribution, BatchOutput, ExecTimeModel,
    FaultPlan, FaultSet, Realization, RunScratch, Simulator,
};
use pas_core::{Scheme, Setup};
use pas_experiments::figures::{atr_app, Platform};
use pas_obs::{MetricsRegistry, Observer, SimEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Realizations per op.
pub const BATCH: usize = 4096;
/// Blocks of draws per run: op `k` runs scheme `k % 6` on block
/// `(k / 6) % DRAW_BLOCKS`, so the run's 24 inputs recur every cycle.
const DRAW_BLOCKS: u64 = 4;
/// Observability sampling stride, as `pas compare --batch` uses it.
const OBSERVE_STRIDE: usize = 64;
/// Every this-many-th realization of an op is replayed through a fresh
/// engine and must match the batch columns bit for bit.
const REPLAY_STRIDE: usize = 1009;
/// Histogram bins, as `pas compare --batch` uses them.
const BINS: usize = 200;

/// Counts events, like the batch engine's own sampled observer.
#[derive(Default)]
struct EventCounter(u64);

impl Observer for EventCounter {
    fn on_event(&mut self, _event: &SimEvent) {
        self.0 += 1;
    }
}

/// One Monte-Carlo configuration: a prepared setup and its fault plan.
pub struct Case {
    pub setup: Setup,
    pub faults: Option<FaultPlan>,
    /// The platform and load the setup was built for (for the offline rows).
    pub platform: Platform,
    pub load: f64,
}

impl Case {
    /// Figure 5's operating point: ATR, 6 processors, load 0.5, Transmeta,
    /// fault-free.
    pub fn fig5() -> Result<Self, String> {
        let setup = Setup::for_load(atr_app(), Platform::Transmeta.model(), 6, 0.5)
            .map_err(|e| format!("fig5 setup: {e}"))?;
        Ok(Self {
            setup,
            faults: None,
            platform: Platform::Transmeta,
            load: 0.5,
        })
    }

    /// The synthetic application at α = 0.5 on 2 XScale processors at
    /// load 0.5, with overruns and stalls injected.
    pub fn faults(seed: u64) -> Result<Self, String> {
        let graph = workloads::synthetic_app_alpha(0.5)
            .map_err(|e| format!("synthetic app: {e}"))?
            .lower()
            .map_err(|e| format!("synthetic app: {e}"))?;
        let setup = Setup::for_load(graph, Platform::XScale.model(), 2, 0.5)
            .map_err(|e| format!("synthetic setup: {e}"))?;
        let plan = FaultPlan {
            overrun_prob: 0.2,
            overrun_factor: 1.5,
            speed_fail_prob: 0.0,
            stall_prob: 0.05,
            stall_ms: 0.5,
            seed: realization_seed(seed, u64::MAX),
        };
        plan.validate().map_err(|e| e.to_string())?;
        Ok(Self {
            setup,
            faults: Some(plan),
            platform: Platform::XScale,
            load: 0.5,
        })
    }

    /// Histogram ranges, as `pas compare --batch` sets them.
    fn ranges(&self) -> (f64, f64) {
        let d = self.setup.plan.deadline;
        (self.setup.plan.num_procs as f64 * d * 1.05, d * 1.5)
    }

    fn config(n: usize, base: u64) -> BatchConfig {
        let mut cfg = BatchConfig::new(n, base);
        cfg.observe_stride = OBSERVE_STRIDE;
        cfg
    }

    /// One op: `n` realizations of `scheme` from base seed `base`, folded.
    pub fn batch(
        &self,
        scheme: Scheme,
        base: u64,
        n: usize,
    ) -> Result<(BatchOutput, BatchDistribution), String> {
        let sim = self.setup.simulator(false);
        let out = run_batch(
            &sim,
            &ExecTimeModel::paper_defaults(),
            self.faults.as_ref(),
            || self.setup.policy(scheme),
            &Self::config(n, base),
        )
        .map_err(|e| format!("{}: run_batch: {e}", scheme.name()))?;
        let (e_max, t_max) = self.ranges();
        let dist = BatchDistribution::from_output(&out, e_max, t_max, BINS)
            .ok_or("degenerate histogram ranges")?;
        Ok((out, dist))
    }

    fn realization(&self, base: u64, i: usize) -> (Realization, Option<FaultSet>) {
        let mut rng = StdRng::seed_from_u64(realization_seed(base, i as u64));
        let g = &self.setup.graph;
        let real = Realization::sample(
            g,
            &self.setup.sections,
            &ExecTimeModel::paper_defaults(),
            &mut rng,
        );
        (real, self.faults.as_ref().map(|p| p.realize(g, i as u64)))
    }

    /// The correctness gates of one op: replayed realizations match the
    /// batch columns bit for bit, section rows sum to the energy, and the
    /// row count is right.
    pub fn check(
        &self,
        scheme: Scheme,
        base: u64,
        out: &BatchOutput,
        dist: &BatchDistribution,
    ) -> Result<(), String> {
        let name = scheme.name();
        if out.len() != dist.runs() as usize {
            return Err(format!(
                "{name}: folded {} of {} runs",
                dist.runs(),
                out.len()
            ));
        }
        let sim = self.setup.simulator(false);
        for i in (0..out.len()).step_by(REPLAY_STRIDE) {
            let (real, faults) = self.realization(base, i);
            let mut policy = self.setup.policy(scheme);
            let mut scratch = RunScratch::new();
            let o = sim
                .run_into(
                    &mut scratch,
                    policy.as_mut(),
                    &real,
                    None,
                    faults.as_ref(),
                    None,
                )
                .map_err(|e| format!("{name}: replay {i}: {e}"))?;
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            if o.finish_time.to_bits() != out.finish_time[i].to_bits()
                || o.energy.total_energy().to_bits() != out.energy[i].to_bits()
                || o.missed_deadline != out.missed[i]
                || o.energy.speed_changes() != out.speed_changes[i]
                || bits(scratch.section_energy()) != bits(out.section_row(i))
            {
                return Err(format!(
                    "{name}: realization {i} of base seed {base} replays differently"
                ));
            }
        }
        for i in 0..out.len() {
            let sum: f64 = out.section_row(i).iter().sum();
            let total = out.energy[i];
            if (sum - total).abs() > 1e-9 * total.abs().max(1.0) {
                return Err(format!(
                    "{name}: realization {i}: sections sum to {sum}, energy is {total}"
                ));
            }
        }
        Ok(())
    }
}

fn build(workload: &str, seed: u64) -> Result<Case, String> {
    match workload {
        "mc-fig5" => Case::fig5(),
        _ => Case::faults(seed),
    }
}

/// The untraced run: set-up time, throughput, op latency, peak memory.
pub fn run(workload: &str, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let pin = Affinity::pin_to_one_cpu()?;
    let mut setup = measure::SetupTimer::default();
    let case = setup.slot(|| build(workload, seed))?;
    let mut slot = || setup.slot(|| build(workload, seed)).map(drop);
    let measured = e2e(&case, seed, seconds, &pin, None, Some(&mut slot))?;
    let mut metrics = vec![setup.metric()?];
    metrics.extend(measured.metrics()?);
    metrics.push(Metric::value("peak_rss_mb", crate::sys::peak_rss_mb(None)?));
    Ok(Outcome::new(metrics, measured.ops()))
}

fn e2e(
    case: &Case,
    seed: u64,
    seconds: u64,
    pin: &Affinity,
    spans: Option<&mut Spans>,
    between: Option<&mut dyn FnMut() -> Result<(), String>>,
) -> Result<measure::Measured, String> {
    let schemes = Scheme::ALL.len() as u64;
    measure::sample(seconds, schemes * DRAW_BLOCKS, pin, spans, between, |k| {
        let scheme = Scheme::ALL[(k % schemes) as usize];
        let base = realization_seed(seed, (k / schemes) % DRAW_BLOCKS);
        let t0 = Instant::now();
        let (out, dist) = case.batch(scheme, base, BATCH)?;
        let busy = t0.elapsed();
        case.check(scheme, base, &out, &dist)?;
        if case.faults.is_none() && dist.misses() > 0 {
            return Err(format!(
                "{}: {} deadline misses on a fault-free workload",
                scheme.name(),
                dist.misses()
            ));
        }
        Ok(busy)
    })
}

/// The traced run: an untraced and a traced pass of the same ops (their
/// throughput ratio is the tracing overhead), then the layer table and the
/// offline rows.
pub fn trace(
    workload: &str,
    seed: u64,
    seconds: u64,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    let pin = Affinity::pin_to_one_cpu()?;
    let case = build(workload, seed)?;
    let plain = e2e(&case, seed, seconds, &pin, None, None)?;
    let traced = spans.scope("e2e", |sp| e2e(&case, seed, seconds, &pin, Some(sp), None))?;
    let mut metrics = vec![overhead(plain.ops_per_s(), traced.ops_per_s())];
    metrics.extend(batch_layers(
        &case,
        realization_seed(seed, 0),
        BATCH,
        &pin,
        spans,
    )?);
    metrics.extend(offline::case_layers(&case, spans)?);
    Ok(Outcome::new(metrics, plain.ops() + traced.ops()))
}

/// `bench.trace_overhead_frac`: the share of throughput the traced pass
/// lost.
pub fn overhead(plain_ops_per_s: f64, traced_ops_per_s: f64) -> Metric {
    Metric::value(
        "bench.trace_overhead_frac",
        (plain_ops_per_s - traced_ops_per_s) / plain_ops_per_s,
    )
}

/// The per-realization layer table of the batch path, each layer timed on
/// its own over the same `n` seeded realizations, plus the residual the
/// rows leave of the single-worker batch time.
pub fn batch_layers(
    case: &Case,
    base: u64,
    n: usize,
    pin: &Affinity,
    spans: &mut Spans,
) -> Result<Vec<Metric>, String> {
    let setup = &case.setup;
    let (g, sg) = (&setup.graph, &setup.sections);
    let etm = ExecTimeModel::paper_defaults();
    let rngs = || -> Vec<StdRng> {
        (0..n)
            .map(|i| StdRng::seed_from_u64(realization_seed(base, i as u64)))
            .collect()
    };
    let inputs: Vec<(Realization, Option<FaultSet>)> =
        (0..n).map(|i| case.realization(base, i)).collect();
    let outputs = Scheme::ALL
        .iter()
        .map(|&s| case.batch(s, base, n).map(|(out, _)| out))
        .collect::<Result<Vec<_>, _>>()?;
    let sim = setup.simulator(false);
    let (e_max, t_max) = case.ranges();

    let mut p = Probes::default();
    p.add("sim.seed", n, || {
        timed(|| {
            for i in 0..n as u64 {
                black_box(StdRng::seed_from_u64(realization_seed(base, i)));
            }
            Ok(())
        })
    });
    p.add("graph.sample_scenario", n, || {
        let mut rs = rngs();
        timed(|| {
            for r in &mut rs {
                black_box(sg.sample_scenario(g, r));
            }
            Ok(())
        })
    });
    p.add("sim.sample_into", n, || {
        let (mut rs, mut real) = (rngs(), inputs[0].0.clone());
        timed(|| {
            for r in &mut rs {
                real.sample_into(g, sg, &etm, r);
                black_box(&real);
            }
            Ok(())
        })
    });
    if let Some(plan) = &case.faults {
        p.add("sim.fault_realize", n, || {
            timed(|| {
                for i in 0..n as u64 {
                    black_box(plan.realize(g, i));
                }
                Ok(())
            })
        });
    }
    add_run_into_rows(&mut p, &sim, setup, &inputs, Some(OBSERVE_STRIDE));
    for (scheme, out) in Scheme::ALL.into_iter().zip(&outputs) {
        let slug = slug(scheme);
        p.add(format!("sim.run_batch.{slug}"), n, move || {
            timed(|| case.batch(scheme, base, n))
        });
        p.add(format!("stats.fold.{slug}"), n, move || {
            let mut dist = BatchDistribution::new(e_max, t_max, out.n_sections, BINS)
                .ok_or("degenerate histogram ranges")?;
            timed(|| {
                for i in 0..out.len() {
                    dist.push(
                        out.energy[i],
                        out.finish_time[i],
                        out.missed[i],
                        out.section_row(i),
                    );
                }
                Ok(dist)
            })
        });
    }
    add_parallel_scaling(&mut p, pin, move || {
        case.batch(Scheme::Gss, base, n).map(drop)
    });
    let t = p.run(spans)?;

    let (mut m, run_ns) = run_into_metrics(&t, &sim, setup, &inputs)?;
    m.extend(
        LayerRows {
            seed_ns: t.ns("sim.seed"),
            scenario_ns: t.ns("graph.sample_scenario"),
            sample_self_ns: t.ns("sim.sample_into") - t.ns("graph.sample_scenario"),
            fault_ns: case
                .faults
                .as_ref()
                .map_or(0.0, |_| t.ns("sim.fault_realize")),
            run_ns,
            fold_ns: per_scheme_mean(&t, "stats.fold"),
            total_ns: per_scheme_mean(&t, "sim.run_batch"),
        }
        .metrics(),
    );
    m.push(parallel_scaling(&t));
    Ok(m)
}

/// The per-run rows of a Monte-Carlo path, in ns per run (one realization
/// under one scheme), and the single-worker total they should add up to.
pub struct LayerRows {
    pub seed_ns: f64,
    pub scenario_ns: f64,
    /// Execution-time draws: realization sampling minus the scenario draw.
    pub sample_self_ns: f64,
    pub fault_ns: f64,
    /// The engine run (`run_into` on the batch path, `Setup::run` on the
    /// experiments runner's path).
    pub run_ns: f64,
    pub fold_ns: f64,
    pub total_ns: f64,
}

impl LayerRows {
    /// The time no row covers.
    pub fn residual_ns(&self) -> f64 {
        self.total_ns
            - (self.seed_ns
                + self.scenario_ns
                + self.sample_self_ns
                + self.fault_ns
                + self.run_ns
                + self.fold_ns)
    }

    /// The rows every Monte-Carlo workload reports the same way.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::value("sim.seed_ns", self.seed_ns),
            Metric::value("graph.sample_scenario_ns", self.scenario_ns),
            Metric::value("sim.sample_into_ns", self.sample_self_ns),
            Metric::value("sim.fault_realize_ns", self.fault_ns),
            Metric::value("stats.fold_ns", self.fold_ns),
            Metric::value("sim.batch_ns", self.total_ns),
            Metric::value("sim.batch_residual_ns", self.residual_ns()),
        ]
    }
}

type Inputs = [(Realization, Option<FaultSet>)];

/// Runs the observer-cost rows take: a `MetricsRegistry` makes a run about
/// twenty times slower, so they use only the first of the inputs.
const OBSERVER_RUNS: usize = 1024;

/// One pass of `Simulator::run_into` under `scheme` over `inputs`, one
/// policy and scratch reused across the inputs as the batch engine reuses
/// them; `observer(i)` is wired to run `i`.
fn run_into_pass(
    sim: &Simulator,
    setup: &Setup,
    scheme: Scheme,
    inputs: &Inputs,
    observer: impl Fn(usize) -> Option<Box<dyn Observer>>,
) -> Result<Duration, String> {
    let mut policy = setup.policy(scheme);
    let mut scratch = RunScratch::new();
    let t0 = Instant::now();
    for (i, (real, faults)) in inputs.iter().enumerate() {
        let mut obs = observer(i);
        let o = sim
            .run_into(
                &mut scratch,
                policy.as_mut(),
                real,
                None,
                faults.as_ref(),
                obs.as_mut().map(|b| &mut **b as &mut dyn Observer),
            )
            .map_err(|e| format!("{}: run_into: {e}", scheme.name()))?;
        black_box(o);
    }
    Ok(t0.elapsed())
}

/// Adds a `sim.run_into.<scheme>` row per scheme, with an event counter
/// wired to every `observe_stride`-th run as the batch engine's sampled
/// observability does, and the two rows of `sim.observer_cost_ratio`.
pub fn add_run_into_rows<'a>(
    p: &mut Probes<'a>,
    sim: &'a Simulator<'a>,
    setup: &'a Setup,
    inputs: &'a Inputs,
    observe_stride: Option<usize>,
) {
    for scheme in Scheme::ALL {
        p.add(
            format!("sim.run_into.{}", slug(scheme)),
            inputs.len(),
            move || {
                run_into_pass(sim, setup, scheme, inputs, |i| {
                    observe_stride
                        .is_some_and(|s| i.is_multiple_of(s))
                        .then(|| Box::new(EventCounter::default()) as Box<dyn Observer>)
                })
            },
        );
    }
    let few = &inputs[..inputs.len().min(OBSERVER_RUNS)];
    let all_schemes = move |observer: fn(usize) -> Option<Box<dyn Observer>>| {
        Scheme::ALL
            .into_iter()
            .map(|s| run_into_pass(sim, setup, s, few, observer))
            .sum::<Result<Duration, String>>()
    };
    let runs = few.len() * Scheme::ALL.len();
    p.add("sim.run_into.bare", runs, move || all_schemes(|_| None));
    p.add("sim.run_into.observed", runs, move || {
        all_schemes(|_| Some(Box::new(MetricsRegistry::new())))
    });
}

/// The metrics of the rows [`add_run_into_rows`] added, and the mean of
/// `sim.run_into_ns` over the schemes. `sim.run_into_events` is an exact
/// count over every input and scheme.
pub fn run_into_metrics(
    t: &Timings,
    sim: &Simulator,
    setup: &Setup,
    inputs: &Inputs,
) -> Result<(Vec<Metric>, f64), String> {
    let mut events = 0;
    for scheme in Scheme::ALL {
        let mut policy = setup.policy(scheme);
        let mut scratch = RunScratch::new();
        let mut counter = EventCounter::default();
        for (real, faults) in inputs {
            sim.run_into(
                &mut scratch,
                policy.as_mut(),
                real,
                None,
                faults.as_ref(),
                Some(&mut counter),
            )
            .map_err(|e| format!("{}: run_into: {e}", scheme.name()))?;
        }
        events += counter.0;
    }
    let mean_ns = per_scheme_mean(t, "sim.run_into");
    let mut m: Vec<Metric> = SCHEMES
        .iter()
        .map(|s| {
            Metric::value(
                &format!("sim.run_into_ns.{s}"),
                t.ns(&format!("sim.run_into.{s}")),
            )
        })
        .collect();
    m.extend([
        Metric::value("sim.run_into_ns", mean_ns),
        Metric::value("sim.run_into_events", events as f64),
        Metric::value(
            "sim.observer_cost_ratio",
            t.ns("sim.run_into.observed") / t.ns("sim.run_into.bare"),
        ),
    ]);
    Ok((m, mean_ns))
}

/// The mean over the schemes of the rows `<row>.<scheme>`.
pub fn per_scheme_mean(t: &Timings, row: &str) -> f64 {
    mean(&SCHEMES.map(|s| t.ns(&format!("{row}.{s}"))))
}

/// Adds the two rows of `sim.parallel_scaling`: `work` pinned to one CPU,
/// and with the start-up CPU mask restored.
pub fn add_parallel_scaling<'a>(
    p: &mut Probes<'a>,
    pin: &'a Affinity,
    work: impl Fn() -> Result<(), String> + Copy + 'a,
) {
    p.add("sim.parallel.pinned", 1, move || timed(work));
    p.add("sim.parallel.widened", 1, move || {
        pin.widened(|| timed(work))?
    });
}

/// Pinned time over widened time, from the rows [`add_parallel_scaling`]
/// added.
pub fn parallel_scaling(t: &Timings) -> Metric {
    Metric::value(
        "sim.parallel_scaling",
        t.ns("sim.parallel.pinned") / t.ns("sim.parallel.widened"),
    )
}

pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(total_ns: f64) -> LayerRows {
        LayerRows {
            seed_ns: 10.0,
            scenario_ns: 100.0,
            sample_self_ns: 2000.0,
            fault_ns: 250.0,
            run_ns: 800.0,
            fold_ns: 90.0,
            total_ns,
        }
    }

    #[test]
    fn rows_plus_residual_reconcile_with_the_total() {
        let r = rows(3500.0);
        assert_eq!(r.residual_ns(), 250.0);
        let m = r.metrics();
        let get = |name: &str| m.iter().find(|x| x.name == name).expect(name).value;
        let sum: f64 = [
            "sim.seed_ns",
            "graph.sample_scenario_ns",
            "sim.sample_into_ns",
            "sim.fault_realize_ns",
            "stats.fold_ns",
            "sim.batch_residual_ns",
        ]
        .iter()
        .map(|n| get(n))
        .sum::<f64>()
            + r.run_ns;
        assert_eq!(sum, get("sim.batch_ns"));
    }

    #[test]
    fn residual_goes_negative_when_rows_overcount() {
        // Layers timed in isolation can add up to more than the batch
        // took; the residual reports that instead of hiding it.
        assert_eq!(rows(3000.0).residual_ns(), -250.0);
    }

    #[test]
    fn layer_table_reconciles_on_a_small_batch() {
        let case = Case::fig5().expect("fig5 setup");
        let pin = Affinity::pin_to_one_cpu().expect("affinity");
        let mut spans = Spans::new();
        let m = batch_layers(&case, 7, 512, &pin, &mut spans).expect("layer table");
        let get = |name: &str| m.iter().find(|x| x.name == name).expect(name).value;
        let rows = get("sim.seed_ns")
            + get("graph.sample_scenario_ns")
            + get("sim.sample_into_ns")
            + get("sim.fault_realize_ns")
            + get("sim.run_into_ns")
            + get("stats.fold_ns");
        let total = get("sim.batch_ns");
        assert!(total > 0.0);
        assert!((rows + get("sim.batch_residual_ns") - total).abs() < 1e-6 * total);
        assert_eq!(get("sim.fault_realize_ns"), 0.0, "fig5 is fault-free");
        assert!(get("sim.run_into_events") > 0.0);
    }
}
