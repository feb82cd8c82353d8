//! One-stop experiment configuration: application + platform + plan.

use crate::offline::{OfflineError, OfflinePlan, PlanError};
use crate::policies::{Scheme, SchemePolicy};
use andor_graph::{AndOrGraph, GraphError, SectionGraph};
use dvfs_power::{Overheads, ProcessorModel, DEFAULT_IDLE_FRACTION};
use mp_sim::{
    BatchDistribution, DrawTable, ExecTimeModel, Policy, Realization, RunResult, SimConfig,
    SimError, Simulator,
};
use rand::Rng;

/// Errors building a [`Setup`].
#[derive(Debug)]
pub enum SetupError {
    /// The application graph failed validation.
    Graph(GraphError),
    /// The off-line phase failed (infeasible deadline, bad parameters).
    Offline(OfflineError),
}

impl std::fmt::Display for SetupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SetupError::Graph(e) => write!(f, "graph error: {e}"),
            SetupError::Offline(e) => write!(f, "offline phase error: {e}"),
        }
    }
}

impl std::error::Error for SetupError {}

impl From<GraphError> for SetupError {
    fn from(e: GraphError) -> Self {
        SetupError::Graph(e)
    }
}

impl From<OfflineError> for SetupError {
    fn from(e: OfflineError) -> Self {
        SetupError::Offline(e)
    }
}

/// A fully prepared experiment configuration: validated application,
/// section decomposition, off-line plan, processor model and overheads.
///
/// # Examples
///
/// ```
/// use andor_graph::Segment;
/// use dvfs_power::ProcessorModel;
/// use pas_core::{Scheme, Setup};
/// use mp_sim::ExecTimeModel;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let app = Segment::seq([
///     Segment::task("A", 8.0, 5.0),
///     Segment::branch([
///         (0.3, Segment::task("B", 5.0, 3.0)),
///         (0.7, Segment::task("C", 4.0, 2.0)),
///     ]),
/// ]);
/// let setup = Setup::new(
///     app.lower().unwrap(),
///     ProcessorModel::transmeta5400(),
///     2,      // processors
///     26.0,   // deadline (ms)
/// )
/// .unwrap();
///
/// let mut rng = StdRng::seed_from_u64(42);
/// let real = setup.sample(&ExecTimeModel::paper_defaults(), &mut rng);
/// let gss = setup.run(Scheme::Gss, &real).expect("valid setup simulates");
/// let npm = setup.run(Scheme::Npm, &real).expect("valid setup simulates");
/// assert!(gss.status.met());
/// assert!(gss.total_energy() < npm.total_energy());
/// ```
#[derive(Debug)]
pub struct Setup {
    /// The validated application.
    pub graph: AndOrGraph,
    /// Its program-section decomposition.
    pub sections: SectionGraph,
    /// The off-line phase output.
    pub plan: OfflinePlan,
    /// The processor's DVS capability.
    pub model: ProcessorModel,
    /// Speed-management overheads charged by the engine and reserved by the
    /// policies.
    pub overheads: Overheads,
    /// Idle power as a fraction of maximum.
    pub idle_fraction: f64,
    /// Static (leakage) power while active, as a fraction of maximum
    /// power (`0.0` = the paper's pure-dynamic model).
    pub static_fraction: f64,
}

/// Per-task overhead reservation folded into the canonical schedules: the
/// PMP computation at the lowest speed the processor might sit at, plus
/// one voltage/speed transition. The transition term covers the
/// speed-*up* case — a task dispatched with (nearly) zero slack on a
/// processor an earlier task left at a low level must be able to return
/// to full speed without borrowing time it does not have.
pub fn pmp_reserve(model: &ProcessorModel, overheads: Overheads) -> f64 {
    overheads.compute_time_ms(model.min_speed(), model.max_freq_mhz())
        + overheads.transition_time_ms
}

impl Setup {
    /// Builds a setup for an explicit deadline, with the paper's default
    /// overheads and idle fraction.
    pub fn new(
        graph: AndOrGraph,
        model: ProcessorModel,
        num_procs: usize,
        deadline: f64,
    ) -> Result<Self, SetupError> {
        Self::with_deadline_and_overheads(
            graph,
            model,
            num_procs,
            deadline,
            Overheads::paper_defaults(),
        )
    }

    /// Builds a setup for an explicit deadline and overhead configuration.
    pub fn with_deadline_and_overheads(
        graph: AndOrGraph,
        model: ProcessorModel,
        num_procs: usize,
        deadline: f64,
        overheads: Overheads,
    ) -> Result<Self, SetupError> {
        let _setup_span =
            pas_obs::profile::span_with(pas_obs::profile::names::OFFLINE_SETUP, || {
                format!("{num_procs} procs, deadline {deadline} ms")
            });
        let sections = SectionGraph::build(&graph)?;
        let plan = OfflinePlan::build_with_pmp_reserve(
            &graph,
            &sections,
            num_procs,
            deadline,
            pmp_reserve(&model, overheads),
        )?;
        Ok(Self {
            graph,
            sections,
            plan,
            model,
            overheads,
            idle_fraction: DEFAULT_IDLE_FRACTION,
            static_fraction: 0.0,
        })
    }

    /// Builds a setup whose deadline realizes a target *load* (the paper's
    /// x-axis): `load = Tw / D`, so `D = Tw / load`, with the paper's
    /// default overheads.
    pub fn for_load(
        graph: AndOrGraph,
        model: ProcessorModel,
        num_procs: usize,
        load: f64,
    ) -> Result<Self, SetupError> {
        Self::for_load_with_overheads(graph, model, num_procs, load, Overheads::paper_defaults())
    }

    /// Builds a setup for a target load under an explicit overhead
    /// configuration. The deadline is derived from the overhead-inflated
    /// canonical worst case, so the load axis keeps its meaning across
    /// overhead sweeps. A load outside `(0, 1]` (or NaN) is
    /// [`PlanError::BadLoad`].
    pub fn for_load_with_overheads(
        graph: AndOrGraph,
        model: ProcessorModel,
        num_procs: usize,
        load: f64,
        overheads: Overheads,
    ) -> Result<Self, SetupError> {
        let _setup_span =
            pas_obs::profile::span_with(pas_obs::profile::names::OFFLINE_SETUP, || {
                format!("{num_procs} procs, load {load}")
            });
        let sections = SectionGraph::build(&graph)?;
        let plan = OfflinePlan::build_for_load(
            &graph,
            &sections,
            num_procs,
            load,
            pmp_reserve(&model, overheads),
        )?;
        Ok(Self {
            graph,
            sections,
            plan,
            model,
            overheads,
            idle_fraction: DEFAULT_IDLE_FRACTION,
            static_fraction: 0.0,
        })
    }

    /// Rebuilds a setup around an *existing* plan — typically one
    /// deserialized from a `pas plan --out` artifact — without re-running
    /// the off-line phase. The plan must pass [`PlanError::check_fit`]
    /// (table lengths vs. node count and section count, a dispatch order
    /// the engine can run), so a plan built for a different application
    /// is rejected up front rather than failing inside the engine.
    pub fn from_plan(
        graph: AndOrGraph,
        model: ProcessorModel,
        plan: OfflinePlan,
        overheads: Overheads,
    ) -> Result<Self, SetupError> {
        let sections = SectionGraph::build(&graph)?;
        PlanError::check_procs(plan.num_procs)?;
        PlanError::check_deadline(plan.deadline)?;
        PlanError::check_fit(&plan, &graph, &sections)?;
        Ok(Self {
            graph,
            sections,
            plan,
            model,
            overheads,
            idle_fraction: DEFAULT_IDLE_FRACTION,
            static_fraction: 0.0,
        })
    }

    /// Enables the static-power extension: `fraction` of maximum power is
    /// drawn whenever a processor is active (see `dvfs_power::leakage`).
    pub fn with_static_power(mut self, fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction));
        self.static_fraction = fraction;
        self
    }

    /// The energy-efficient speed floor of this setup's platform under its
    /// static-power fraction.
    pub fn efficient_floor(&self) -> f64 {
        dvfs_power::efficient_floor(&self.model, self.static_fraction)
    }

    /// The engine configuration this setup implies.
    pub fn sim_config(&self, record_trace: bool) -> SimConfig {
        SimConfig {
            num_procs: self.plan.num_procs,
            deadline: self.plan.deadline,
            idle_fraction: self.idle_fraction,
            static_fraction: self.static_fraction,
            overheads: self.overheads,
            record_trace,
        }
    }

    /// An engine over this setup.
    pub fn simulator(&self, record_trace: bool) -> Simulator<'_> {
        Simulator::new(
            &self.graph,
            &self.sections,
            &self.plan.dispatch,
            &self.model,
            self.sim_config(record_trace),
        )
    }

    /// Instantiates a scheme's policy against this setup.
    ///
    /// Policy construction is offline work (per-scheme parameter tables
    /// over the finished plan), so it is profiled under
    /// `offline.policies` — callers running Monte-Carlo loops should
    /// hoist this out of the per-realization path and reuse the instance:
    /// the engine calls [`Policy::begin_run`] at every run start, so one
    /// instance across runs is bit-identical to rebuilding per run.
    pub fn policy(&self, scheme: Scheme) -> Box<dyn Policy + '_> {
        let _span = pas_obs::profile::span_with(pas_obs::profile::names::OFFLINE_POLICIES, || {
            scheme.name().to_string()
        });
        Box::new(SchemePolicy::new(
            scheme,
            &self.plan,
            &self.model,
            self.overheads,
        ))
    }

    /// Draws a realization (OR choices + actual execution times).
    pub fn sample<R: Rng + ?Sized>(&self, etm: &ExecTimeModel, rng: &mut R) -> Realization {
        Realization::sample(&self.graph, &self.sections, etm, rng)
    }

    /// The setup's [`DrawTable`] under `etm`: build it once before a
    /// Monte-Carlo loop and draw every realization from it (same draws as
    /// [`Setup::sample`], without re-resolving each task per run).
    pub fn draw_table(&self, etm: &ExecTimeModel) -> DrawTable<'_> {
        DrawTable::new(&self.graph, &self.sections, etm)
    }

    /// An empty [`BatchDistribution`] in the histogram geometry that
    /// `pas compare` and `pas serve`'s `montecarlo` share: 200 bins,
    /// energy up to NPM's busy+idle over the whole horizon on every
    /// processor (× 1.05), makespan up to 1.5 deadlines (an overrun lands
    /// in the top bin; the exact maximum is kept apart). `None` when a
    /// bound overflows to a degenerate range.
    pub fn batch_distribution(&self) -> Option<BatchDistribution> {
        let d = self.plan.deadline;
        let e_max = self.plan.num_procs as f64 * d * 1.05;
        BatchDistribution::new(e_max, d * 1.5, self.sections.len(), 200)
    }

    /// Runs one scheme on one realization (no trace).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the engine (dependency-violating
    /// dispatch order, unresolved OR choice, plan/graph mismatch).
    pub fn run(&self, scheme: Scheme, real: &Realization) -> Result<RunResult, SimError> {
        let mut policy = self.policy(scheme);
        self.simulator(false).run(policy.as_mut(), real)
    }

    /// The clairvoyant single-speed bound as a policy (see
    /// [`crate::oracle`]). It measures each realization when a run
    /// starts, so one instance serves a whole Monte-Carlo loop.
    pub fn oracle(&self) -> crate::oracle::OraclePolicy<'_> {
        crate::oracle::OraclePolicy::new(self)
    }

    /// Runs the clairvoyant bound on one realization.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the probe or the measured run.
    pub fn run_oracle(&self, real: &Realization) -> Result<RunResult, SimError> {
        self.simulator(false).run(&mut self.oracle(), real)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlanError;
    use andor_graph::Segment;
    use mp_sim::FaultSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn app() -> AndOrGraph {
        Segment::seq([
            Segment::task("A", 8.0, 5.0),
            Segment::branch([
                (0.3, Segment::task("B", 5.0, 3.0)),
                (0.7, Segment::task("C", 4.0, 2.0)),
            ]),
        ])
        .lower()
        .expect("fixture app lowers")
    }

    #[test]
    fn from_plan_rejects_too_many_processors() {
        let s = Setup::for_load(app(), ProcessorModel::xscale(), 2, 0.5).expect("feasible load");
        let mut plan = s.plan.clone();
        plan.num_procs = usize::MAX;
        let err = Setup::from_plan(app(), ProcessorModel::xscale(), plan, s.overheads)
            .expect_err("rejected");
        assert!(
            matches!(
                err,
                SetupError::Offline(PlanError::TooManyProcessors(usize::MAX))
            ),
            "{err}"
        );
    }

    #[test]
    fn from_plan_refuses_a_node_dispatched_twice() {
        let s = Setup::for_load(app(), ProcessorModel::xscale(), 2, 0.5).expect("feasible load");
        let root = s.sections.root().index();
        let mut plan = s.plan.clone();
        let first = plan.dispatch.per_section[root][0];
        plan.dispatch.per_section[root].push(first);
        plan.canonical_start_rel[root].push(0.0);
        let err = Setup::from_plan(app(), ProcessorModel::xscale(), plan, s.overheads)
            .expect_err("refused");
        let SetupError::Offline(PlanError::PlanGraphMismatch { detail }) = err else {
            panic!("expected a plan/graph mismatch, got {err}");
        };
        assert_eq!(
            detail,
            format!(
                "invalid dispatch order: section {root} dispatches node '{}' a second time",
                s.graph.node(first).name
            )
        );
        Setup::from_plan(app(), ProcessorModel::xscale(), s.plan.clone(), s.overheads)
            .expect("the plan as built fits");
    }

    #[test]
    fn for_load_hits_requested_load() {
        for load in [0.2, 0.5, 0.9, 1.0] {
            let s =
                Setup::for_load(app(), ProcessorModel::xscale(), 2, load).expect("feasible load");
            assert!((s.plan.load() - load).abs() < 1e-9, "load {load}");
        }
    }

    #[test]
    fn bad_load_is_a_typed_offline_error() {
        for load in [0.0, -1.0, 1.5, f64::NAN, f64::INFINITY] {
            let err = Setup::for_load(app(), ProcessorModel::xscale(), 2, load)
                .expect_err("load outside (0, 1] is rejected");
            let SetupError::Offline(PlanError::BadLoad(got)) = err else {
                panic!("load {load}: expected BadLoad, got {err}");
            };
            assert_eq!(got.to_bits(), load.to_bits());
        }
    }

    #[test]
    fn infeasible_deadline_surfaces_as_offline_error() {
        let err = Setup::new(app(), ProcessorModel::xscale(), 1, 1.0)
            .expect_err("1 ms deadline is infeasible");
        assert!(matches!(err, SetupError::Offline(_)), "{err}");
    }

    #[test]
    fn run_all_schemes_on_sampled_realizations() {
        let s =
            Setup::for_load(app(), ProcessorModel::transmeta5400(), 2, 0.5).expect("feasible load");
        let mut rng = StdRng::seed_from_u64(17);
        for i in 0..20 {
            let real = s.sample(&ExecTimeModel::paper_defaults(), &mut rng);
            for scheme in Scheme::ALL {
                let res = s.run(scheme, &real).expect("run succeeds");
                assert!(
                    !res.missed_deadline,
                    "iteration {i}: {} missed ({} > {})",
                    scheme.name(),
                    res.finish_time,
                    res.deadline
                );
                assert!(res.total_energy() > 0.0);
            }
        }
    }

    #[test]
    fn managed_schemes_save_energy_at_low_load() {
        let s =
            Setup::for_load(app(), ProcessorModel::transmeta5400(), 2, 0.3).expect("feasible load");
        let mut rng = StdRng::seed_from_u64(99);
        let real = s.sample(&ExecTimeModel::paper_defaults(), &mut rng);
        let npm = s
            .run(Scheme::Npm, &real)
            .expect("run succeeds")
            .total_energy();
        for scheme in Scheme::MANAGED {
            let e = s.run(scheme, &real).expect("run succeeds").total_energy();
            assert!(
                e < npm,
                "{} should beat NPM at low load: {e} vs {npm}",
                scheme.name()
            );
        }
    }

    #[test]
    fn empty_fault_set_is_transparent_through_the_harness() {
        let s =
            Setup::for_load(app(), ProcessorModel::transmeta5400(), 2, 0.5).expect("feasible load");
        let mut rng = StdRng::seed_from_u64(7);
        let real = s.sample(&ExecTimeModel::paper_defaults(), &mut rng);
        let empty = FaultSet::empty(s.graph.len());
        for scheme in Scheme::ALL {
            let clean = s.run(scheme, &real).expect("run succeeds");
            let faulted = s
                .simulator(false)
                .run_observed(s.policy(scheme).as_mut(), &real, None, Some(&empty), None)
                .expect("run succeeds");
            assert_eq!(clean.finish_time, faulted.finish_time, "{}", scheme.name());
            assert_eq!(
                clean.total_energy(),
                faulted.total_energy(),
                "{}",
                scheme.name()
            );
            assert!(faulted.faults.is_clean());
        }
    }

    #[test]
    fn builder_style_overrides() {
        let mut s = Setup::with_deadline_and_overheads(
            app(),
            ProcessorModel::xscale(),
            2,
            40.0,
            Overheads::none(),
        )
        .expect("feasible deadline");
        s.idle_fraction = 0.1;
        assert_eq!(s.overheads, Overheads::none());
        assert_eq!(s.sim_config(false).idle_fraction, 0.1);
    }
}
