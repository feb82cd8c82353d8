//! Batched Monte-Carlo execution: thousands of seeded realizations of one
//! plan, run against a shared immutable [`Simulator`] with per-worker
//! reused mutable state and the vendored rayon fanning chunks across
//! cores.
//!
//! [`run_paired`] is the one loop: it draws each realization once and runs
//! every lane's policy on it; [`run_batch`] is its one-lane case.
//!
//! The determinism contract (written down in `docs/simulator.md`) is the
//! load-bearing property here: realization `i` of a batch is executed
//! through exactly the same [`Simulator::run_into`] code path as a
//! sequential `run` call would use, seeded with the caller's seed mapping
//! of `i` — so per-seed results are bit-identical whichever engine ran
//! them, and the batch can skip `Observer` wiring (and therefore all
//! event construction) unless a realization is sampled for observability.
//!
//! [`run_batch`]'s outputs are packed structure-of-arrays
//! ([`BatchOutput`]): one column per scalar metric plus a row-major
//! `realizations × sections` energy matrix, ready to fold into
//! distribution summaries ([`BatchDistribution`]) without touching
//! per-run heap objects.

use crate::engine::{RunResult, RunScratch, Simulator};
use crate::error::SimError;
use crate::fault::{FaultPlan, FaultSet};
use crate::policy::Policy;
use crate::realization::{DrawTable, ExecTimeModel, Realization};
use pas_stats::{ci95_half_width, Histogram, Summary};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// Derives the RNG seed for one realization of a batch.
///
/// A splitmix64-style finalizer over `base ^ (index · φ64)`: every
/// realization gets an independent, well-mixed stream, the mapping is a
/// pure function of `(base_seed, index)`, and slicing a batch across
/// workers (or across `pas serve` requests) cannot change any
/// realization's draws. This is the seeding contract `pas compare` and
/// the `montecarlo` request kind both advertise.
pub fn realization_seed(base_seed: u64, index: u64) -> u64 {
    let mut z = base_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Counts events without retaining them — the cheapest possible observer,
/// wired to sampled realizations to estimate `events_per_sec` without
/// paying event construction on the unsampled hot path.
#[derive(Debug, Default)]
struct EventCounter {
    count: u64,
}

impl pas_obs::Observer for EventCounter {
    fn on_event(&mut self, _event: &pas_obs::SimEvent) {
        self.count += 1;
    }
}

/// Realizations per slice for callers that fold a long batch as it runs
/// (`pas serve`'s `montecarlo` handler, `pas compare`): each slice's
/// columns are folded and dropped before the next slice runs, so memory
/// does not grow with the realization count. [`BatchConfig::start_index`]
/// keeps every draw where an unsliced batch would put it.
pub const SLICE: usize = 256;

/// Parameters of one batched run.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Number of realizations to execute.
    pub realizations: usize,
    /// Base seed; [`run_batch`] draws realization `i` from
    /// [`realization_seed`]`(base_seed, start_index + i)`.
    pub base_seed: u64,
    /// Global index of the first realization (lets `pas serve` slice one
    /// logical batch across requests without changing any draw).
    /// `start_index + realizations` must not overflow a `u64`.
    pub start_index: u64,
    /// Realizations per work unit handed to a rayon worker. Each chunk
    /// reuses one instance of every policy, one [`RunScratch`] and one
    /// [`Realization`] buffer across its whole range.
    pub chunk: usize,
    /// Also materialize the full per-realization [`RunResult`]s
    /// (deadline status, fault report, energy meter). Off on the hot path; the
    /// bit-identity property test turns it on to compare against the
    /// sequential engine field by field.
    pub keep_results: bool,
    /// Wire an event-counting observer to every `observe_stride`-th
    /// realization (0 disables sampling). Emission is purely additive, so
    /// sampled and unsampled realizations produce bit-identical numbers;
    /// the sample feeds [`BatchOutput::events_sampled`] and
    /// [`BatchOutput::runs_sampled`].
    pub observe_stride: usize,
}

impl BatchConfig {
    /// A batch of `realizations` draws from `base_seed`, with the default
    /// chunking (256 realizations per work unit) and no observability
    /// sampling.
    pub fn new(realizations: usize, base_seed: u64) -> Self {
        Self {
            realizations,
            base_seed,
            start_index: 0,
            chunk: 256,
            keep_results: false,
            observe_stride: 0,
        }
    }
}

/// One policy of a paired batch, run on every realization.
pub struct Lane<'s> {
    /// Built once per chunk and reused across its runs.
    pub policy: Box<dyn Policy + 's>,
    /// Whether the realization's fault set is injected into this lane.
    pub faulted: bool,
}

/// What a paired batch keeps of one lane's runs. Each chunk fills its own
/// in index order, then one lane's chunks are joined in chunk order.
pub trait RunColumns: Send + Sized {
    /// Empty columns for a chunk of `runs` realizations over `n_sections`
    /// sections.
    fn with_capacity(runs: usize, n_sections: usize, cfg: &BatchConfig) -> Self;
    /// Keeps one run; `events` counts its events if it was sampled.
    fn push(&mut self, res: RunResult, scratch: &RunScratch, events: Option<u64>);
    /// Joins one lane's chunks (at least one), in chunk order.
    fn concat(chunks: Vec<Self>) -> Self;
}

/// The structure-of-arrays output of [`run_batch`]: column `i` of every
/// vector belongs to realization `start_index + i`.
#[derive(Debug)]
pub struct BatchOutput {
    /// Number of program sections (the row width of
    /// [`BatchOutput::section_energy`]).
    pub n_sections: usize,
    /// Application finish time per realization (ms).
    pub finish_time: Vec<f64>,
    /// Deadline-miss flag per realization.
    pub missed: Vec<bool>,
    /// Total normalized energy per realization.
    pub energy: Vec<f64>,
    /// Voltage/speed transitions charged per realization.
    pub speed_changes: Vec<u64>,
    /// Row-major `realizations × n_sections` matrix of per-section energy
    /// (see [`RunScratch::section_energy`] for the attribution rule).
    pub section_energy: Vec<f64>,
    /// Events counted across the observability-sampled realizations.
    pub events_sampled: u64,
    /// How many realizations were sampled for observability.
    pub runs_sampled: u64,
    /// Full per-realization results, present iff
    /// [`BatchConfig::keep_results`] was set.
    pub results: Option<Vec<RunResult>>,
}

impl BatchOutput {
    fn with_room(runs: usize, n_sections: usize, keep_results: bool) -> Self {
        Self {
            n_sections,
            finish_time: Vec::with_capacity(runs),
            missed: Vec::with_capacity(runs),
            energy: Vec::with_capacity(runs),
            speed_changes: Vec::with_capacity(runs),
            section_energy: Vec::with_capacity(runs * n_sections),
            events_sampled: 0,
            runs_sampled: 0,
            results: keep_results.then(|| Vec::with_capacity(runs)),
        }
    }

    /// Number of realizations executed.
    pub fn len(&self) -> usize {
        self.finish_time.len()
    }

    /// True if the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.finish_time.is_empty()
    }

    /// The per-section energy row of realization `i`.
    pub fn section_row(&self, i: usize) -> &[f64] {
        let lo = i * self.n_sections;
        self.section_energy
            .get(lo..lo + self.n_sections)
            .expect("realization index within the batch")
    }
}

impl RunColumns for BatchOutput {
    fn with_capacity(runs: usize, n_sections: usize, cfg: &BatchConfig) -> Self {
        Self::with_room(runs, n_sections, cfg.keep_results)
    }

    fn push(&mut self, res: RunResult, scratch: &RunScratch, events: Option<u64>) {
        self.finish_time.push(res.finish_time);
        self.missed.push(res.missed_deadline);
        self.energy.push(res.energy.total_energy());
        self.speed_changes.push(res.energy.speed_changes());
        self.section_energy
            .extend_from_slice(scratch.section_energy());
        if let Some(count) = events {
            self.events_sampled += count;
            self.runs_sampled += 1;
        }
        if let Some(results) = self.results.as_mut() {
            results.push(res);
        }
    }

    fn concat(chunks: Vec<Self>) -> Self {
        let runs = chunks.iter().map(Self::len).sum();
        let first = chunks.first().expect("run_paired joins at least one chunk");
        let mut out = Self::with_room(runs, first.n_sections, first.results.is_some());
        for mut next in chunks {
            out.finish_time.append(&mut next.finish_time);
            out.missed.append(&mut next.missed);
            out.energy.append(&mut next.energy);
            out.speed_changes.append(&mut next.speed_changes);
            out.section_energy.append(&mut next.section_energy);
            out.events_sampled += next.events_sampled;
            out.runs_sampled += next.runs_sampled;
            if let (Some(results), Some(next)) = (out.results.as_mut(), next.results.as_mut()) {
                results.append(next);
            }
        }
        out
    }
}

/// The paired Monte-Carlo kernel: executes `cfg.realizations` seeded
/// realizations of one plan, runs every lane on each, and returns one
/// [`RunColumns`] per lane.
///
/// Global realization `g = start_index + i` draws from an RNG seeded with
/// `seed(g)`, and `faults`, when given, is realized with index `g` —
/// what a sequential loop over `FaultPlan::realize` would inject.
/// `lanes` builds one instance of every policy per chunk; the engine
/// resets each at every run start (`Policy::begin_run`), so reuse is
/// bit-identical to rebuilding per realization.
pub fn run_paired<'s, C, L, S>(
    sim: &Simulator<'_>,
    etm: &ExecTimeModel,
    faults: Option<&FaultPlan>,
    lanes: L,
    seed: S,
    cfg: &BatchConfig,
) -> Result<Vec<C>, SimError>
where
    C: RunColumns,
    L: Fn() -> Vec<Lane<'s>> + Sync,
    S: Fn(u64) -> u64 + Sync,
{
    let g = sim.graph();
    let n_sections = sim.sections().len();
    let chunk = cfg.chunk.max(1);
    // At least one chunk, so that even an empty batch has one per lane.
    let n_chunks = cfg.realizations.div_ceil(chunk).max(1);
    let draws = DrawTable::new(g, sim.sections(), etm);

    let chunks: Vec<Result<Vec<C>, SimError>> = (0..n_chunks)
        .into_par_iter()
        .map(|c| {
            let lo = c * chunk;
            let hi = (lo + chunk).min(cfg.realizations);
            let mut lanes = lanes();
            let mut out: Vec<C> = (0..lanes.len())
                .map(|_| C::with_capacity(hi - lo, n_sections, cfg))
                .collect();
            let mut scratch = RunScratch::new();
            let mut real = Realization::default();
            let mut fault_set = FaultSet::empty(0);
            for i in lo..hi {
                let global = cfg.start_index + i as u64;
                let mut rng = StdRng::seed_from_u64(seed(global));
                draws.sample_into(&mut real, &mut rng);
                let fs = faults.map(|plan| {
                    plan.realize_into(g, global, &mut fault_set);
                    &fault_set
                });
                let sampled =
                    cfg.observe_stride > 0 && global.is_multiple_of(cfg.observe_stride as u64);
                for (lane, cols) in lanes.iter_mut().zip(&mut out) {
                    let mut counter = EventCounter::default();
                    let res = sim.run_into(
                        &mut scratch,
                        lane.policy.as_mut(),
                        &real,
                        None,
                        fs.filter(|_| lane.faulted),
                        sampled.then_some(&mut counter as &mut dyn pas_obs::Observer),
                    )?;
                    cols.push(res, &scratch, sampled.then_some(counter.count));
                }
            }
            Ok(out)
        })
        .collect();

    let mut per_lane: Vec<Vec<C>> = Vec::new();
    for chunk in chunks {
        let chunk = chunk?;
        per_lane.resize_with(chunk.len(), Vec::new);
        for (lane, cols) in per_lane.iter_mut().zip(chunk) {
            lane.push(cols);
        }
    }
    Ok(per_lane.into_iter().map(C::concat).collect())
}

/// [`run_paired`] with one lane (the policy `factory` builds per chunk),
/// seeded by [`realization_seed`]`(cfg.base_seed, start_index + i)`.
pub fn run_batch<'s, F>(
    sim: &Simulator<'_>,
    etm: &ExecTimeModel,
    faults: Option<&FaultPlan>,
    factory: F,
    cfg: &BatchConfig,
) -> Result<BatchOutput, SimError>
where
    F: Fn() -> Box<dyn Policy + 's> + Sync,
{
    let lanes = || {
        vec![Lane {
            policy: factory(),
            faulted: true,
        }]
    };
    let seed = |i| realization_seed(cfg.base_seed, i);
    let mut out = run_paired(sim, etm, faults, lanes, seed, cfg)?;
    Ok(out.pop().expect("one lane in, one output out"))
}

/// One metric's distribution: a fixed-geometry [`Histogram`] for
/// quantiles next to a streaming [`Summary`] for moments and extrema.
#[derive(Debug, Clone)]
pub struct MetricDistribution {
    hist: Histogram,
    summary: Summary,
}

impl MetricDistribution {
    fn new(hi: f64, bins: usize) -> Option<Self> {
        Some(Self {
            hist: Histogram::new(0.0, hi, bins)?,
            summary: Summary::new(),
        })
    }

    /// Folds one observation in.
    pub fn add(&mut self, x: f64) {
        self.hist.add(x);
        self.summary.add(x);
    }

    /// Approximate quantile from the histogram (`None` while empty),
    /// clamped to the exact `[min, max]` observed: interpolation inside
    /// the lowest or highest occupied bin could otherwise step past it.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let s = &self.summary;
        self.hist.quantile(q).map(|x| x.max(s.min()).min(s.max()))
    }

    /// Exact maximum observed (not histogram-quantized).
    pub fn max(&self) -> f64 {
        self.summary.max()
    }

    /// The streaming moments (count, mean, sd, min/max, ci95).
    pub fn summary(&self) -> &Summary {
        &self.summary
    }

    /// The underlying histogram.
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }
}

/// Distribution summaries over one batch: energy and makespan quantiles,
/// miss rate with a confidence interval, and per-section energy ledger
/// quantiles — the tails the paper's mean-only figures flatten away.
///
/// Built strictly by folding realizations in index order
/// (see [`BatchDistribution::push`]); [`Summary`]'s streaming moments are
/// order-sensitive in the last bits, so a fold over sequential
/// [`RunResult`]s in the same order produces bit-identical summaries —
/// the equality the `batch` property tests pin.
#[derive(Debug, Clone)]
pub struct BatchDistribution {
    energy: MetricDistribution,
    makespan: MetricDistribution,
    sections: Vec<MetricDistribution>,
    runs: u64,
    misses: u64,
}

impl BatchDistribution {
    /// An empty distribution. `energy_hi` / `makespan_hi` bound the
    /// histogram ranges (observations above land in the top bin);
    /// `None` if a bound is non-positive/non-finite or `bins` is zero.
    pub fn new(energy_hi: f64, makespan_hi: f64, n_sections: usize, bins: usize) -> Option<Self> {
        Some(Self {
            energy: MetricDistribution::new(energy_hi, bins)?,
            makespan: MetricDistribution::new(makespan_hi, bins)?,
            sections: (0..n_sections)
                .map(|_| MetricDistribution::new(energy_hi, bins))
                .collect::<Option<Vec<_>>>()?,
            runs: 0,
            misses: 0,
        })
    }

    /// Folds one realization in. `section_energy` must have exactly the
    /// `n_sections` width the distribution was created with.
    pub fn push(&mut self, energy: f64, makespan: f64, missed: bool, section_energy: &[f64]) {
        assert_eq!(
            section_energy.len(),
            self.sections.len(),
            "per-section row width must match the distribution"
        );
        self.energy.add(energy);
        self.makespan.add(makespan);
        for (dist, &e) in self.sections.iter_mut().zip(section_energy) {
            dist.add(e);
        }
        self.runs += 1;
        if missed {
            self.misses += 1;
        }
    }

    /// Folds a whole [`BatchOutput`] in realization-index order.
    pub fn from_output(
        out: &BatchOutput,
        energy_hi: f64,
        makespan_hi: f64,
        bins: usize,
    ) -> Option<Self> {
        let mut dist = Self::new(energy_hi, makespan_hi, out.n_sections, bins)?;
        dist.push_output(out);
        Some(dist)
    }

    /// Folds every realization of `out` in, in index order.
    pub fn push_output(&mut self, out: &BatchOutput) {
        for (i, ((&energy, &finish), &missed)) in out
            .energy
            .iter()
            .zip(&out.finish_time)
            .zip(&out.missed)
            .enumerate()
        {
            self.push(energy, finish, missed, out.section_row(i));
        }
    }

    /// Total energy distribution.
    pub fn energy(&self) -> &MetricDistribution {
        &self.energy
    }

    /// Makespan (finish-time) distribution.
    pub fn makespan(&self) -> &MetricDistribution {
        &self.makespan
    }

    /// Per-section energy distributions, indexed by
    /// [`SectionId::index`](andor_graph::SectionId).
    pub fn sections(&self) -> &[MetricDistribution] {
        &self.sections
    }

    /// Realizations folded in.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Deadline misses observed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Observed miss rate in `[0, 1]` (0 while empty).
    pub fn miss_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.misses as f64 / self.runs as f64
        }
    }

    /// 95% confidence half-width of the miss rate (normal approximation
    /// to the binomial, the same ±1.96·sd/√n convention as
    /// [`ci95_half_width`]).
    pub fn miss_ci95(&self) -> f64 {
        let p = self.miss_rate();
        ci95_half_width((p * (1.0 - p)).sqrt(), self.runs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DispatchOrder, SimConfig, Simulator};
    use crate::policy::MaxSpeed;
    use andor_graph::{AndOrGraph, GraphBuilder, SectionGraph};
    use dvfs_power::ProcessorModel;

    fn diamond() -> (AndOrGraph, SectionGraph) {
        let mut b = GraphBuilder::new();
        let a = b.task("A", 8.0, 5.0);
        let o1 = b.or("O1");
        let t_b = b.task("B", 5.0, 3.0);
        let t_c = b.task("C", 4.0, 2.0);
        b.edge(a, o1).expect("edge is valid");
        b.or_branch(o1, t_b, 0.3).expect("branch is valid");
        b.or_branch(o1, t_c, 0.7).expect("branch is valid");
        let g = b.build().expect("diamond builds");
        let sg = SectionGraph::build(&g).expect("diamond sections");
        (g, sg)
    }

    fn harness(g: &AndOrGraph, sg: &SectionGraph) -> (DispatchOrder, ProcessorModel, SimConfig) {
        let order = DispatchOrder::topological(g, sg);
        let model = ProcessorModel::transmeta5400();
        (order, model, SimConfig::new(2, 30.0))
    }

    #[test]
    fn seeds_are_well_mixed_and_pure() {
        assert_eq!(realization_seed(42, 7), realization_seed(42, 7));
        assert_ne!(realization_seed(42, 7), realization_seed(42, 8));
        assert_ne!(realization_seed(42, 7), realization_seed(43, 7));
        // Consecutive indices must not land on correlated StdRng streams:
        // the finalizer changes about half the bits between neighbours.
        let a = realization_seed(0, 1);
        let b = realization_seed(0, 2);
        let differing = (a ^ b).count_ones();
        assert!(
            (16..=48).contains(&differing),
            "weak mixing: {differing} bits"
        );
    }

    #[test]
    fn batch_matches_sequential_per_seed() {
        let (g, sg) = diamond();
        let (order, model, cfg) = harness(&g, &sg);
        let sim = Simulator::new(&g, &sg, &order, &model, cfg);
        let etm = ExecTimeModel::paper_defaults();
        let mut bcfg = BatchConfig::new(20, 0xB00);
        bcfg.chunk = 7; // force several chunks
        bcfg.keep_results = true;
        let out = run_batch(&sim, &etm, None, || Box::new(MaxSpeed), &bcfg).expect("batch runs");
        assert_eq!(out.len(), 20);
        let results = out.results.as_ref().expect("keep_results set");
        for (i, batched) in results.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(realization_seed(0xB00, i as u64));
            let real = Realization::sample(&g, &sg, &etm, &mut rng);
            let mut policy = MaxSpeed;
            let sequential = sim.run(&mut policy, &real).expect("sequential runs");
            assert_eq!(
                batched.finish_time.to_bits(),
                sequential.finish_time.to_bits(),
                "realization {i}"
            );
            assert_eq!(
                batched.total_energy().to_bits(),
                sequential.total_energy().to_bits(),
                "realization {i}"
            );
            assert_eq!(
                out.finish_time[i].to_bits(),
                sequential.finish_time.to_bits()
            );
            assert_eq!(out.energy[i].to_bits(), sequential.total_energy().to_bits());
        }
    }

    #[test]
    fn start_index_slices_are_draw_stable() {
        let (g, sg) = diamond();
        let (order, model, cfg) = harness(&g, &sg);
        let sim = Simulator::new(&g, &sg, &order, &model, cfg);
        let etm = ExecTimeModel::paper_defaults();
        let full = run_batch(
            &sim,
            &etm,
            None,
            || Box::new(MaxSpeed),
            &BatchConfig::new(16, 9),
        )
        .expect("full batch");
        let mut tail_cfg = BatchConfig::new(6, 9);
        tail_cfg.start_index = 10;
        let tail =
            run_batch(&sim, &etm, None, || Box::new(MaxSpeed), &tail_cfg).expect("tail batch");
        for i in 0..6 {
            assert_eq!(tail.energy[i].to_bits(), full.energy[10 + i].to_bits());
            assert_eq!(
                tail.finish_time[i].to_bits(),
                full.finish_time[10 + i].to_bits()
            );
        }
    }

    #[test]
    fn section_rows_reconcile_with_total_energy() {
        let (g, sg) = diamond();
        let (order, model, cfg) = harness(&g, &sg);
        let sim = Simulator::new(&g, &sg, &order, &model, cfg);
        let etm = ExecTimeModel::paper_defaults();
        let out = run_batch(
            &sim,
            &etm,
            None,
            || Box::new(MaxSpeed),
            &BatchConfig::new(32, 3),
        )
        .expect("batch runs");
        for i in 0..out.len() {
            let row_sum: f64 = out.section_row(i).iter().sum();
            let total = out.energy[i];
            assert!(
                (row_sum - total).abs() <= 1e-9 * total.max(1.0),
                "realization {i}: sections sum {row_sum} vs total {total}"
            );
        }
    }

    #[test]
    fn observability_sampling_does_not_change_numbers() {
        let (g, sg) = diamond();
        let (order, model, cfg) = harness(&g, &sg);
        let sim = Simulator::new(&g, &sg, &order, &model, cfg);
        let etm = ExecTimeModel::paper_defaults();
        let plain = run_batch(
            &sim,
            &etm,
            None,
            || Box::new(MaxSpeed),
            &BatchConfig::new(12, 5),
        )
        .expect("plain batch");
        let mut scfg = BatchConfig::new(12, 5);
        scfg.observe_stride = 3;
        let sampled =
            run_batch(&sim, &etm, None, || Box::new(MaxSpeed), &scfg).expect("sampled batch");
        assert_eq!(sampled.runs_sampled, 4);
        assert!(sampled.events_sampled > 0);
        for i in 0..12 {
            assert_eq!(plain.energy[i].to_bits(), sampled.energy[i].to_bits());
            assert_eq!(
                plain.finish_time[i].to_bits(),
                sampled.finish_time[i].to_bits()
            );
        }
    }

    #[test]
    fn distribution_is_a_fold_in_index_order() {
        let (g, sg) = diamond();
        let (order, model, cfg) = harness(&g, &sg);
        let sim = Simulator::new(&g, &sg, &order, &model, cfg);
        let etm = ExecTimeModel::paper_defaults();
        let out = run_batch(
            &sim,
            &etm,
            None,
            || Box::new(MaxSpeed),
            &BatchConfig::new(40, 1),
        )
        .expect("batch runs");
        let dist = BatchDistribution::from_output(&out, 100.0, 50.0, 64).expect("dist builds");
        // Manual sequential fold over the SoA rows must agree bit-for-bit.
        let mut manual = BatchDistribution::new(100.0, 50.0, out.n_sections, 64).expect("dist");
        for i in 0..out.len() {
            manual.push(
                out.energy[i],
                out.finish_time[i],
                out.missed[i],
                out.section_row(i),
            );
        }
        assert_eq!(dist.runs(), 40);
        assert_eq!(dist.misses(), manual.misses());
        assert_eq!(
            dist.energy().summary().mean().to_bits(),
            manual.energy().summary().mean().to_bits()
        );
        assert_eq!(
            dist.energy().histogram().counts(),
            manual.energy().histogram().counts()
        );
        assert_eq!(
            dist.makespan().histogram().counts(),
            manual.makespan().histogram().counts()
        );
        assert!(dist.energy().quantile(0.5).expect("nonempty") <= dist.energy().max() + 1e-9);
        assert!(dist.miss_ci95() >= 0.0);
    }

    #[test]
    fn quantiles_stay_within_the_observed_range() {
        // Three observations inside one 0.25-wide bin: interpolating
        // across the bin would put p99 near 0.5 and p0 at 0.25.
        let mut m = MetricDistribution::new(1.0, 4).expect("geometry");
        for x in [0.30, 0.31, 0.32] {
            m.add(x);
        }
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            let x = m.quantile(q).expect("nonempty");
            assert!(
                (m.summary().min()..=m.max()).contains(&x),
                "q{q} = {x} outside [{}, {}]",
                m.summary().min(),
                m.max()
            );
        }
        assert_eq!(m.quantile(0.99), Some(0.32));
    }
}
