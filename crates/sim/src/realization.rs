//! Run realizations: the random draws one Monte-Carlo iteration is made of.
//!
//! A *realization* fixes everything stochastic about one run of the
//! application — which branch every OR node takes and how long every task
//! actually executes (at maximum speed). The engine is then a deterministic
//! function of `(realization, policy)`, so different schemes can be compared
//! on identical draws, which is the paired design behind each averaged
//! point in the paper's figures.

use andor_graph::sections::SectionEntry;
use andor_graph::{AndOrGraph, NodeId, Scenario, SectionGraph};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How a task's actual execution time is drawn from its `(wcet, acet)`
/// pair.
///
/// The paper (§5): "the actual execution time of a task follows a normal
/// distribution around" the average case. We use
/// `N(acet, (sd_over_gap · (wcet − acet))²)` clipped to
/// `[floor_fraction·wcet, wcet]`: the spread scales with the available
/// dynamic slack, so `acet == wcet` (α = 1) degenerates to deterministic
/// worst-case execution, exactly as the paper's α-sweep expects.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecTimeModel {
    /// Standard deviation as a fraction of `wcet − acet`.
    pub sd_over_gap: f64,
    /// Lower clip bound as a fraction of `wcet` (must be positive — tasks
    /// cannot take zero time).
    pub floor_fraction: f64,
}

impl ExecTimeModel {
    /// The defaults used throughout the evaluation: σ = (wcet−acet)/3,
    /// floor at 1% of WCET.
    pub const fn paper_defaults() -> Self {
        Self {
            sd_over_gap: 1.0 / 3.0,
            floor_fraction: 0.01,
        }
    }

    /// Deterministic worst-case execution (every task takes its WCET).
    pub const fn always_wcet() -> Self {
        Self {
            sd_over_gap: 0.0,
            floor_fraction: 1.0,
        }
    }

    /// Draws an actual execution time for a task: [`ExecTimeModel::resolve`]
    /// followed by [`ExecDraw::draw`].
    ///
    /// Invariant: for any `wcet > 0` the result is in `(0, wcet]` — a
    /// fault-free realization can never overrun the worst case or take
    /// non-positive time, whatever (possibly degenerate) model parameters
    /// or `(wcet, acet)` pair this is called with. Overruns are injected
    /// explicitly through [`crate::fault::FaultPlan`], never sampled.
    pub fn sample<R: Rng + ?Sized>(&self, wcet: f64, acet: f64, rng: &mut R) -> f64 {
        self.resolve(wcet, acet).draw(rng)
    }

    /// Works out everything about a task's draw that does not depend on
    /// the rng: the clamped mean, the spread and the clip interval.
    pub fn resolve(&self, wcet: f64, acet: f64) -> ExecDraw {
        if !wcet.is_finite() || wcet <= 0.0 {
            // No positive budget to sample within (dummy nodes pass 0.0).
            return ExecDraw::Fixed(wcet.max(0.0));
        }
        if self.floor_fraction >= 1.0 {
            return ExecDraw::Fixed(wcet);
        }
        // Clamp degenerate inputs instead of panicking: a NaN or
        // out-of-range acet collapses to the worst case.
        let acet = if acet.is_finite() {
            acet.clamp(0.0, wcet)
        } else {
            wcet
        };
        let sd = self.sd_over_gap * (wcet - acet).max(0.0);
        // Strictly positive floor even when `floor_fraction * wcet`
        // underflows or acet sits at zero.
        let lo = (self.floor_fraction * wcet)
            .min(acet)
            .max(wcet * 1e-12)
            .min(wcet);
        if sd.is_finite() && sd > 0.0 {
            ExecDraw::Normal {
                mean: acet,
                sd,
                lo,
                hi: wcet,
            }
        } else {
            // A zero spread draws nothing; a negative or non-finite one
            // (only reachable via a degenerate sd_over_gap) degrades to
            // the deterministic mean rather than panicking mid-experiment.
            ExecDraw::Fixed(acet.clamp(lo, wcet))
        }
    }
}

impl Default for ExecTimeModel {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// A task's execution-time draw with the model's clamps applied
/// ([`ExecTimeModel::resolve`]): all that is left per realization is the
/// Box–Muller step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecDraw {
    /// Consumes no randomness and always takes this value.
    Fixed(f64),
    /// `N(mean, sd²)` with `sd > 0`, clamped to `[lo, hi]`; `hi` is the
    /// task's WCET.
    Normal {
        /// The clamped ACET.
        mean: f64,
        /// Standard deviation, finite and positive.
        sd: f64,
        /// Lower clip bound, at most `hi`.
        lo: f64,
        /// Upper clip bound: the WCET.
        hi: f64,
    },
}

impl ExecDraw {
    /// Draws one execution time: two uniforms for a `Normal`, none for a
    /// `Fixed` value.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            Self::Fixed(x) => x,
            Self::Normal { mean, sd, lo, hi } => {
                // Box–Muller: u1 ∈ (0, 1] avoids ln(0). Only the cos half
                // of the pair is used.
                let u1: f64 = 1.0 - rng.gen::<f64>();
                let u2: f64 = rng.gen();
                let r = (-2.0 * u1.ln()).sqrt();
                let theta = 2.0 * std::f64::consts::PI * u2;
                (mean + sd * (r * theta.cos())).clamp(lo, hi)
            }
        }
    }

    /// Consumes the same uniforms as [`ExecDraw::draw`] without
    /// transforming them, and returns the WCET bound instead: the value
    /// of a task the realization never runs.
    fn skip<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            Self::Fixed(x) => x,
            Self::Normal { hi, .. } => {
                let _: (f64, f64) = (rng.gen(), rng.gen());
                hi
            }
        }
    }
}

/// One node's row of a realization: its resolved draw and the OR branch
/// its section needs to run (`None` for the root section and for nodes
/// outside every section).
#[derive(Debug, Clone, Copy)]
struct DrawRow {
    draw: ExecDraw,
    guard: Option<(NodeId, usize)>,
}

impl DrawRow {
    fn new(g: &AndOrGraph, sections: &SectionGraph, model: &ExecTimeModel, id: NodeId) -> Self {
        let kind = &g.node(id).kind;
        if !kind.is_computation() {
            return Self {
                draw: ExecDraw::Fixed(0.0),
                guard: None,
            };
        }
        let guard = sections
            .section_of(id)
            .and_then(|s| match sections.section(s).entry {
                SectionEntry::Root => None,
                SectionEntry::Branch { or, branch } => Some((or, branch)),
            });
        Self {
            draw: model.resolve(kind.wcet(), kind.acet()),
            guard,
        }
    }

    /// The node's entry in [`Realization::actual`]: a full draw if the
    /// scenario runs the node's section, otherwise the skipped draw.
    fn value<R: Rng + ?Sized>(&self, scenario: &Scenario, rng: &mut R) -> f64 {
        match self.guard {
            Some((or, branch)) if scenario.choice_for(or) != Some(branch) => self.draw.skip(rng),
            _ => self.draw.draw(rng),
        }
    }
}

/// Refills `actual` in node-index order from `rows`.
fn fill<R: Rng + ?Sized>(
    actual: &mut Vec<f64>,
    rows: impl Iterator<Item = DrawRow>,
    scenario: &Scenario,
    rng: &mut R,
) {
    actual.clear();
    actual.extend(rows.map(|row| row.value(scenario, rng)));
}

/// The per-graph rows of [`Realization::sample_into`], resolved once.
///
/// Build one per `(graph, sections, model)` and draw every realization of
/// a Monte-Carlo loop from it: the draws are bit-identical to
/// [`Realization::sample`] and [`Realization::sample_into`], which resolve
/// the same rows inline on every call.
#[derive(Debug, Clone)]
pub struct DrawTable<'g> {
    graph: &'g AndOrGraph,
    sections: &'g SectionGraph,
    rows: Vec<DrawRow>,
}

impl<'g> DrawTable<'g> {
    /// Resolves every node's draw and section guard.
    pub fn new(g: &'g AndOrGraph, sections: &'g SectionGraph, model: &ExecTimeModel) -> Self {
        Self {
            graph: g,
            sections,
            rows: (0..g.len())
                .map(|i| DrawRow::new(g, sections, model, NodeId(i as u32)))
                .collect(),
        }
    }

    /// Draws a realization (see [`Realization::sample`]).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Realization {
        let mut real = Realization::default();
        self.sample_into(&mut real, rng);
        real
    }

    /// Re-draws `real` in place (see [`Realization::sample_into`]).
    pub fn sample_into<R: Rng + ?Sized>(&self, real: &mut Realization, rng: &mut R) {
        self.sections
            .sample_scenario_into(self.graph, &mut real.scenario, rng);
        fill(
            &mut real.actual,
            self.rows.iter().copied(),
            &real.scenario,
            rng,
        );
    }
}

/// One fully resolved run: OR choices plus per-node actual execution times.
///
/// The default value is an empty buffer for [`Realization::sample_into`]
/// or [`DrawTable::sample_into`] to fill.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Realization {
    /// The OR decisions of this run.
    pub scenario: Scenario,
    /// Actual execution time (ms at maximum speed) per node, indexed by
    /// [`NodeId::index`](andor_graph::NodeId::index). Synchronization nodes
    /// hold `0.0`. A computation node in a section this scenario does not
    /// run skips its random draw and holds its WCET instead (see
    /// [`Realization::sample`]); the engines never read it.
    pub actual: Vec<f64>,
}

impl Realization {
    /// Draws a realization: samples the scenario from the OR branch
    /// probabilities, then an actual execution time for every computation
    /// node in node-index order.
    ///
    /// Every computation node with a random draw consumes two uniforms,
    /// whether or not the scenario runs its section, so the rng stream
    /// does not depend on the sampled OR-path. Only nodes the scenario
    /// runs pay for the Box–Muller transform; the others hold their WCET,
    /// which the engine never reads.
    pub fn sample<R: Rng + ?Sized>(
        g: &AndOrGraph,
        sections: &SectionGraph,
        model: &ExecTimeModel,
        rng: &mut R,
    ) -> Self {
        let mut real = Self::default();
        real.sample_into(g, sections, model, rng);
        real
    }

    /// Re-draws this realization in place, reusing the scenario and
    /// `actual` buffers.
    ///
    /// Makes exactly the same RNG calls in exactly the same order as
    /// [`Realization::sample`] and [`DrawTable::sample_into`], so for a
    /// given rng state all three produce bit-identical draws. It resolves
    /// each node's draw inline; loops that sample one graph many times
    /// should build a [`DrawTable`] once instead.
    pub fn sample_into<R: Rng + ?Sized>(
        &mut self,
        g: &AndOrGraph,
        sections: &SectionGraph,
        model: &ExecTimeModel,
        rng: &mut R,
    ) {
        sections.sample_scenario_into(g, &mut self.scenario, rng);
        let rows = (0..g.len()).map(|i| DrawRow::new(g, sections, model, NodeId(i as u32)));
        fill(&mut self.actual, rows, &self.scenario, rng);
    }

    /// A worst-case realization: a caller-chosen scenario with every task
    /// at its WCET (used by the deadline-guarantee tests).
    pub fn worst_case(g: &AndOrGraph, scenario: Scenario) -> Self {
        let actual = g.nodes().iter().map(|n| n.kind.wcet()).collect();
        Self { scenario, actual }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use andor_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    #[test]
    fn samples_respect_bounds() {
        let m = ExecTimeModel::paper_defaults();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = m.sample(10.0, 4.0, &mut rng);
            assert!(x > 0.0 && x <= 10.0, "x={x}");
        }
    }

    #[test]
    fn alpha_one_is_deterministic_wcet() {
        let m = ExecTimeModel::paper_defaults();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(m.sample(10.0, 10.0, &mut rng), 10.0);
        }
    }

    #[test]
    fn always_wcet_model() {
        let m = ExecTimeModel::always_wcet();
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(m.sample(7.0, 2.0, &mut rng), 7.0);
    }

    #[test]
    fn sample_mean_tracks_acet() {
        let m = ExecTimeModel::paper_defaults();
        let mut rng = StdRng::seed_from_u64(11);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| m.sample(10.0, 6.0, &mut rng)).sum::<f64>() / n as f64;
        // Clipping skews slightly; stay within a tolerant band.
        assert!((mean - 6.0).abs() < 0.2, "mean={mean}");
    }

    #[test]
    fn realization_covers_all_nodes() {
        let (g, sg) = diamond();
        let mut rng = StdRng::seed_from_u64(5);
        let r = Realization::sample(&g, &sg, &ExecTimeModel::paper_defaults(), &mut rng);
        assert_eq!(r.actual.len(), g.len());
        assert_eq!(r.actual[1], 0.0, "OR node draws no execution time");
        assert!(r.actual[0] > 0.0 && r.actual[0] <= 8.0);
        assert_eq!(r.scenario.choices.len(), 1);
    }

    proptest::proptest! {
        /// Satellite invariant: for any positive WCET — including
        /// degenerate model parameters and out-of-range acet — a
        /// fault-free sample lies strictly in `(0, wcet]`. Overrunning the
        /// worst case is the fault layer's job, never the sampler's.
        #[test]
        fn sample_stays_in_zero_wcet_interval(
            wcet_tenths in 1u32..10_000,
            acet_pct in 0u32..=110,
            sd_over_gap_pct in 0u32..=300,
            floor_pct in 0u32..=120,
            seed in 0u64..1_000,
        ) {
            let wcet = wcet_tenths as f64 / 10.0;
            let acet = wcet * acet_pct as f64 / 100.0;
            let m = ExecTimeModel {
                sd_over_gap: sd_over_gap_pct as f64 / 100.0,
                floor_fraction: floor_pct as f64 / 100.0,
            };
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..64 {
                let x = m.sample(wcet, acet, &mut rng);
                proptest::prop_assert!(
                    x > 0.0 && x <= wcet,
                    "x={x} wcet={wcet} acet={acet} model={m:?}"
                );
            }
        }
    }

    #[test]
    fn worst_case_uses_wcet_everywhere() {
        let (g, sg) = diamond();
        let mut rng = StdRng::seed_from_u64(5);
        let scen = sg.sample_scenario(&g, &mut rng);
        let r = Realization::worst_case(&g, scen);
        assert_eq!(r.actual[0], 8.0);
        assert_eq!(r.actual[2], 5.0);
    }
}
