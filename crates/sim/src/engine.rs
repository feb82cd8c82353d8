//! The execution engine: dispatches one realization of an AND/OR
//! application on `m` DVS processors under a speed policy.

// Per-node state vectors are allocated to `g.len()` at construction and
// indexed by `NodeId`s the validated graph itself hands out, so indexing
// cannot go out of bounds here; `.get()` chains would only obscure the
// dispatch algebra.
#![allow(clippy::indexing_slicing)]

use crate::error::SimError;
use crate::fault::{DeadlineStatus, FaultReport, FaultSet};
use crate::policy::{DispatchCtx, Policy};
use crate::realization::Realization;
use crate::trace::trace_from_events;
use andor_graph::{AndOrGraph, NodeId, SectionGraph, SectionId};
use dvfs_power::{EnergyMeter, OperatingPoint, Overheads, ProcessorModel};
use pas_obs::{FaultKind, Observer, SimEvent};
use serde::{Deserialize, Serialize};

/// The engine's internal event tap: fans each [`SimEvent`] out to the
/// caller's observer (if any), the trace-recording log (if
/// [`SimConfig::record_trace`]) and — in debug builds — a
/// [`pas_obs::SectionedLedger`] that cross-checks the meters at run end,
/// both globally and per program section.
///
/// Zero overhead when disabled: in release builds with no observer and
/// no trace recording, [`Emitter::active`] is `false` and the engine
/// never constructs an event.
struct Emitter<'o> {
    obs: Option<&'o mut dyn Observer>,
    log: Option<Vec<SimEvent>>,
    #[cfg(debug_assertions)]
    ledger: pas_obs::SectionedLedger,
}

impl<'o> Emitter<'o> {
    fn new(obs: Option<&'o mut dyn Observer>, record: bool) -> Self {
        Self {
            obs,
            log: record.then(Vec::new),
            #[cfg(debug_assertions)]
            ledger: pas_obs::SectionedLedger::new(),
        }
    }

    #[inline]
    fn active(&self) -> bool {
        cfg!(debug_assertions) || self.obs.is_some() || self.log.is_some()
    }

    fn emit(&mut self, ev: SimEvent) {
        #[cfg(debug_assertions)]
        self.ledger.on_event(&ev);
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.on_event(&ev);
        }
        if let Some(log) = self.log.as_mut() {
            log.push(ev);
        }
    }
}

/// The canonical dispatch order: for every program section, its computation
/// and AND nodes in the order the off-line phase fixed (list scheduling
/// with a heuristic such as longest-task-first). The on-line phase must
/// dispatch in exactly this order to preserve the deadline guarantee
/// (paper §3.2: "we will maintain the same execution order of tasks in the
/// on-line phase to meet the timing constraints").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DispatchOrder {
    /// `per_section[s.index()]` lists section `s`'s nodes in execution
    /// order.
    pub per_section: Vec<Vec<NodeId>>,
}

impl DispatchOrder {
    /// A dependency-respecting default order (deterministic topological
    /// order within each section). The real schedulers in `pas-core`
    /// compute an LTF list-scheduling order instead; this helper keeps the
    /// engine testable standalone and is adequate for the NPM baseline.
    pub fn topological(_g: &AndOrGraph, sections: &SectionGraph) -> Self {
        // Sections already store their nodes in deterministic topological
        // order (see `SectionGraph::build`).
        Self {
            per_section: sections
                .sections()
                .iter()
                .map(|s| s.nodes.clone())
                .collect(),
        }
    }

    /// The rule an order must keep to run on `g`: it names only
    /// computation and AND nodes of `g` (an OR node fires when its
    /// section drains; it is not dispatched), each at most once. The
    /// engine keeps each section's drain and the run's finish time as
    /// running maxima over the completions it records, which equal the
    /// maxima over the nodes only when every node completes once.
    /// `Err` names the first offending entry, in section order.
    pub fn check(&self, g: &AndOrGraph) -> Result<(), SimError> {
        let mut seen = vec![false; g.len()];
        for (sid, order) in self.per_section.iter().enumerate() {
            for &n in order {
                let detail = if n.index() >= g.len() {
                    format!(
                        "section {sid} dispatches node {}, but the graph has {} nodes",
                        n.index(),
                        g.len()
                    )
                } else if g.node(n).kind.is_or() {
                    format!(
                        "section {sid} dispatches OR node '{}'; OR nodes fire when \
                         their section drains",
                        g.node(n).name
                    )
                } else if std::mem::replace(&mut seen[n.index()], true) {
                    format!(
                        "section {sid} dispatches node '{}' a second time",
                        g.node(n).name
                    )
                } else {
                    continue;
                };
                return Err(SimError::BadDispatchOrder { detail });
            }
        }
        Ok(())
    }
}

/// One entry of the compiled dispatch order: what the engine needs about
/// a dispatched node, read from the graph once.
#[derive(Debug, Clone, Copy)]
struct Step {
    node: NodeId,
    /// `false` for an AND synchronization node (zero time, no processor).
    computation: bool,
    wcet: f64,
    /// The node's predecessors, as a range of [`DispatchTable::preds`].
    preds: (usize, usize),
}

/// The OR node a program section synchronizes into.
#[derive(Debug, Clone, Copy)]
struct Exit {
    or: NodeId,
    /// The OR's predecessors, as a range of [`DispatchTable::preds`].
    preds: (usize, usize),
    /// The OR has no successors: the application ends when it fires.
    terminal: bool,
}

/// A program section's run of steps and its exit.
#[derive(Debug, Clone, Copy)]
struct SectionSteps {
    /// The section's steps, as a range of [`DispatchTable::steps`].
    steps: (usize, usize),
    exit: Option<Exit>,
}

/// The dispatch order compiled against the graph and its sections: one
/// flat step array, one flat predecessor array and one entry per
/// section, built in O(nodes + edges) by [`Simulator::new`]. The run loop
/// reads nothing else about the graph.
#[derive(Debug)]
struct DispatchTable {
    steps: Vec<Step>,
    preds: Vec<NodeId>,
    sections: Vec<SectionSteps>,
}

impl DispatchTable {
    fn compile(
        g: &AndOrGraph,
        sections: &SectionGraph,
        order: &DispatchOrder,
    ) -> Result<Self, SimError> {
        order.check(g)?;
        let n_steps: usize = order.per_section.iter().map(Vec::len).sum();
        let exits = sections.sections().iter().filter_map(|s| s.exit_or);
        let n_preds: usize = order
            .per_section
            .iter()
            .flatten()
            .copied()
            .chain(exits)
            .map(|n| g.node(n).preds.len())
            .sum();
        let mut table = Self {
            steps: Vec::with_capacity(n_steps),
            preds: Vec::with_capacity(n_preds),
            sections: Vec::with_capacity(sections.len()),
        };
        for (section, nodes) in sections.sections().iter().zip(&order.per_section) {
            let first = table.steps.len();
            for &node in nodes {
                let n = g.node(node);
                let preds = table.push_preds(&n.preds);
                table.steps.push(Step {
                    node,
                    computation: n.kind.is_computation(),
                    wcet: n.kind.wcet(),
                    preds,
                });
            }
            let steps = (first, table.steps.len());
            let exit = section.exit_or.map(|or| Exit {
                or,
                preds: table.push_preds(&g.node(or).preds),
                terminal: g.node(or).succs.is_empty(),
            });
            table.sections.push(SectionSteps { steps, exit });
        }
        Ok(table)
    }

    fn push_preds(&mut self, preds: &[NodeId]) -> (usize, usize) {
        let first = self.preds.len();
        self.preds.extend_from_slice(preds);
        (first, self.preds.len())
    }
}

/// Engine configuration for one experiment setting.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of identical processors.
    pub num_procs: usize,
    /// Application deadline `D` (ms).
    pub deadline: f64,
    /// Idle power as a fraction of maximum power.
    pub idle_fraction: f64,
    /// Static (leakage) power drawn *while active* (busy or in a voltage
    /// transition), as a fraction of maximum power. The paper's model is
    /// pure dynamic power (`0.0`, the default); see `dvfs_power::leakage`
    /// for the extension.
    pub static_fraction: f64,
    /// Speed-management overheads.
    pub overheads: Overheads,
    /// Record a full schedule trace (slower; for tests and debugging).
    pub record_trace: bool,
}

impl SimConfig {
    /// A convenience constructor with the paper's idle fraction and
    /// overhead defaults.
    pub fn new(num_procs: usize, deadline: f64) -> Self {
        Self {
            num_procs,
            deadline,
            idle_fraction: dvfs_power::DEFAULT_IDLE_FRACTION,
            static_fraction: 0.0,
            overheads: Overheads::paper_defaults(),
            record_trace: false,
        }
    }
}

/// One executed task in the schedule trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// The task.
    pub node: NodeId,
    /// Processor index it ran on.
    pub proc: usize,
    /// Dispatch time (ms) — includes subsequent overhead windows.
    pub start: f64,
    /// Completion time (ms).
    pub end: f64,
    /// Normalized speed it executed at.
    pub speed: f64,
}

/// The outcome of one simulated run. Per-processor state (energy meters,
/// final operating points, per-section energy) stays in the
/// [`RunScratch`] the run executed into.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Time the application finished (ms).
    pub finish_time: f64,
    /// The deadline the run was scheduled against (ms).
    pub deadline: f64,
    /// True if the application finished after its deadline. Kept for
    /// compatibility; [`RunResult::status`] carries the margin as well.
    pub missed_deadline: bool,
    /// Whether the deadline was met, and by how much.
    pub status: DeadlineStatus,
    /// Faults injected, detected and recovered during the run. All-zero
    /// for fault-free runs.
    pub faults: FaultReport,
    /// Energy aggregated over all processors.
    pub energy: EnergyMeter,
    /// Schedule trace, if [`SimConfig::record_trace`] was set.
    pub trace: Option<Vec<TraceEntry>>,
}

impl RunResult {
    /// Total normalized energy of the run (the figures' y-axis numerator
    /// before NPM normalization).
    pub fn total_energy(&self) -> f64 {
        self.energy.total_energy()
    }
}

/// Reusable per-run mutable state: everything [`Simulator::run_into`]
/// writes during one realization, allocated once and reset on every run.
///
/// `run` and `run_observed` allocate a fresh scratch per call; the batch
/// engine ([`crate::batch`]), the frame stream ([`crate::stream`]) and
/// the experiments runner keep one scratch and reuse it across
/// realizations, which removes every per-run allocation from the hot
/// loop. After a run the scratch holds that run's per-processor meters
/// and final operating points, plus the per-program-section energy
/// accumulators the batch distribution summaries are built from.
#[derive(Debug, Default)]
pub struct RunScratch {
    /// Completion time per node (`None` until the node finishes).
    finish: Vec<Option<f64>>,
    /// Per-processor energy accounting.
    meters: Vec<EnergyMeter>,
    /// Per-processor clocks: the time each processor becomes available.
    avail: Vec<f64>,
    /// Per-processor operating points.
    point: Vec<OperatingPoint>,
    /// Energy charged while executing inside each program section,
    /// indexed by [`SectionId::index`]. The final idle fill out to the
    /// horizon is attributed to the section that was current when the
    /// application ended (mirroring the sectioned ledger's
    /// "energy belongs to the slice entered first" convention).
    section_energy: Vec<f64>,
}

impl RunScratch {
    /// An empty scratch; sized lazily by the first run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-processor energy meters of the last run.
    pub fn meters(&self) -> &[EnergyMeter] {
        &self.meters
    }

    /// Operating point each processor ended the last run at.
    pub fn final_points(&self) -> &[OperatingPoint] {
        &self.point
    }

    /// Energy charged per program section during the last run (busy,
    /// overheads, stalls and the trailing idle fill; see the determinism
    /// contract in `docs/simulator.md`).
    pub fn section_energy(&self) -> &[f64] {
        &self.section_energy
    }

    /// Sizes and clears every vector for a new run.
    fn prepare(
        &mut self,
        g_len: usize,
        m: usize,
        n_sections: usize,
        initial: Option<&[OperatingPoint]>,
        max_point: OperatingPoint,
    ) -> Result<(), SimError> {
        if let Some(points) = initial {
            if points.len() != m {
                return Err(SimError::InitialPointCount {
                    expected: m,
                    got: points.len(),
                });
            }
        }
        self.finish.clear();
        self.finish.resize(g_len, None);
        self.meters.clear();
        self.meters.resize(m, EnergyMeter::new());
        self.avail.clear();
        self.avail.resize(m, 0.0);
        self.point.clear();
        match initial {
            Some(points) => self.point.extend_from_slice(points),
            None => self.point.resize(m, max_point),
        }
        self.section_energy.clear();
        self.section_energy.resize(n_sections, 0.0);
        Ok(())
    }
}

/// The multi-processor execution engine.
///
/// Holds everything invariant across Monte-Carlo iterations, the
/// dispatch order compiled into a step table among it; call
/// [`Simulator::run_into`] (or one of its two one-off forms,
/// [`Simulator::run`] and [`Simulator::run_observed`]) once per
/// `(policy, realization)` pair.
pub struct Simulator<'a> {
    g: &'a AndOrGraph,
    sections: &'a SectionGraph,
    model: &'a ProcessorModel,
    cfg: SimConfig,
    /// The compiled order, or why the order breaks
    /// [`DispatchOrder::check`] (every run returns that error).
    table: Result<DispatchTable, SimError>,
}

impl<'a> Simulator<'a> {
    /// Creates an engine over one application/platform configuration and
    /// compiles `order` into its step table: O(nodes + edges) time and
    /// four allocations, whatever the section count.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.num_procs == 0` or the dispatch order does not cover
    /// every section. These are construction-time programming errors, not
    /// data-dependent run failures, so they stay asserts; everything that
    /// depends on the realization or dispatch order contents surfaces as
    /// [`SimError`] from [`Simulator::run_into`] instead (an order that
    /// breaks [`DispatchOrder::check`] fails every run).
    pub fn new(
        g: &'a AndOrGraph,
        sections: &'a SectionGraph,
        order: &DispatchOrder,
        model: &'a ProcessorModel,
        cfg: SimConfig,
    ) -> Self {
        assert!(cfg.num_procs > 0, "at least one processor required");
        assert_eq!(
            order.per_section.len(),
            sections.len(),
            "dispatch order must cover every section"
        );
        Self {
            g,
            sections,
            model,
            cfg,
            table: DispatchTable::compile(g, sections, order),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The application graph the engine executes.
    pub fn graph(&self) -> &'a AndOrGraph {
        self.g
    }

    /// The program-section decomposition of the graph.
    pub fn sections(&self) -> &'a SectionGraph {
        self.sections
    }

    /// Executes one realization under `policy`, with every processor
    /// starting at the maximum operating point, no faults and no observer.
    pub fn run(&self, policy: &mut dyn Policy, real: &Realization) -> Result<RunResult, SimError> {
        self.run_observed(policy, real, None, None, None)
    }

    /// [`Simulator::run_into`] with a fresh [`RunScratch`]: the one-off
    /// form that takes every option.
    pub fn run_observed(
        &self,
        policy: &mut dyn Policy,
        real: &Realization,
        initial: Option<&[OperatingPoint]>,
        faults: Option<&FaultSet>,
        observer: Option<&mut dyn Observer>,
    ) -> Result<RunResult, SimError> {
        self.run_into(
            &mut RunScratch::new(),
            policy,
            real,
            initial,
            faults,
            observer,
        )
    }

    /// The engine: executes one realization under `policy` into a
    /// caller-provided [`RunScratch`], which afterwards holds the run's
    /// per-processor meters, final operating points and per-section
    /// energy accumulators. Reusing one scratch across runs changes no
    /// result bit (the determinism contract in `docs/simulator.md`).
    ///
    /// `initial` starts each processor at a given operating point (DVS
    /// state carried over from a previous frame instance) instead of the
    /// maximum one.
    ///
    /// `faults` injects a fault set (see [`crate::fault`]). Detection and
    /// containment: when a task's measured execution time exceeds the
    /// worst-case budget at the speed the policy reserved
    /// (`wcet / speed`), the engine counts a detected overrun, escalates
    /// the affected processor to the maximum operating point, and
    /// suspends the policy's slack-claiming — every subsequent dispatch
    /// runs at `f_max` — until the current program section's exit OR
    /// fires. The energy premium of recovery (escalation transitions plus
    /// running contained tasks above the requested point) is tallied in
    /// [`RunResult::faults`].
    ///
    /// `observer` receives every schedule action as a typed [`SimEvent`]
    /// (see `pas-obs`). Event emission is purely additive: the schedule
    /// and energy numbers are bit-identical with and without an observer.
    ///
    /// The run reads the graph's structure only through the step table
    /// [`Simulator::new`] compiled (node names only go into errors). In
    /// release builds with no trace recording it allocates nothing once
    /// the scratch has grown.
    pub fn run_into(
        &self,
        scratch: &mut RunScratch,
        policy: &mut dyn Policy,
        real: &Realization,
        initial: Option<&[OperatingPoint]>,
        faults: Option<&FaultSet>,
        observer: Option<&mut dyn Observer>,
    ) -> Result<RunResult, SimError> {
        let table = self.table.as_ref().map_err(Clone::clone)?;
        let m = self.cfg.num_procs;
        scratch.prepare(
            self.g.len(),
            m,
            self.sections.len(),
            initial,
            self.model.max_point(),
        )?;
        let RunScratch {
            finish,
            meters,
            avail,
            point,
            section_energy,
        } = scratch;
        let mut em = Emitter::new(observer, self.cfg.record_trace);
        let mut last_dispatch = 0.0_f64;
        let mut report = FaultReport::default();
        // Containment: set on overrun detection, cleared when the current
        // section's exit OR fires. While set, every dispatch is forced to
        // the maximum operating point regardless of the policy's decision.
        let mut contained = false;
        let max_point = self.model.max_point();

        policy.peek_realization(real)?;
        policy.begin_run();
        if em.active() {
            if let Some(spec) = policy.speculation() {
                em.emit(SimEvent::SpeculationUpdate {
                    t: 0.0,
                    spec_speed: spec,
                });
            }
        }

        // Running maxima of the completions recorded: the current
        // section's drain and the application's finish time.
        // `DispatchOrder::check` guarantees each node completes once.
        let mut finish_time = 0.0_f64;
        let mut cur: SectionId = self.sections.root();
        loop {
            let section = table.sections[cur.index()];
            let mut drain = 0.0_f64;
            for step in &table.steps[section.steps.0..section.steps.1] {
                let node = step.node;
                let mut ready = 0.0_f64;
                for &p in &table.preds[step.preds.0..step.preds.1] {
                    let f = finish[p.index()].ok_or_else(|| SimError::DependencyViolation {
                        node: self.g.node(node).name.clone(),
                        pred: self.g.node(p).name.clone(),
                    })?;
                    ready = ready.max(f);
                }
                if !step.computation {
                    // AND synchronization node: dummy, zero time, handled by
                    // whichever processor is cycling through the scheduler.
                    let t = ready.max(last_dispatch);
                    last_dispatch = t;
                    finish[node.index()] = Some(t);
                    drain = drain.max(t);
                    finish_time = finish_time.max(t);
                    continue;
                }
                // Earliest-available processor takes the next expected task.
                let (p, &p_avail) = avail
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.total_cmp(b.1))
                    .expect("num_procs > 0 is asserted at construction");
                let start = ready.max(last_dispatch).max(p_avail);
                last_dispatch = start;

                let ctx = DispatchCtx {
                    now: start,
                    current_point: point[p],
                    wcet: step.wcet,
                };
                let decision = policy.speed_for(node, &ctx);
                let rho = self.cfg.static_fraction;
                let pre_point = point[p];
                let mut t = start;
                // Transient stall: the processor hangs (pipeline drained,
                // drawing idle power) before it begins dispatching the task.
                let stall = faults.and_then(|f| f.stall(node.index()));
                if let Some(stall) = stall {
                    meters[p].add_idle(self.cfg.idle_fraction, stall);
                    section_energy[cur.index()] += self.cfg.idle_fraction * stall;
                    t += stall;
                    report.stalls_injected += 1;
                }
                let mut pmp_ms = 0.0;
                if decision.ran_pmp {
                    let dt = self
                        .cfg
                        .overheads
                        .compute_time_ms(point[p].speed, self.model.max_freq_mhz());
                    meters[p].add_busy(point[p].power + rho, dt);
                    section_energy[cur.index()] += (point[p].power + rho) * dt;
                    t += dt;
                    pmp_ms = dt;
                }
                // While contained, the policy's slack-claiming is suspended:
                // the engine overrides its decision with the maximum point.
                let requested = decision.point;
                let target = if contained { max_point } else { requested };
                // (begin time, latency, dynamic energy, failed) of a
                // commanded transition, for event emission below.
                let mut transition: Option<(f64, f64, f64, bool)> = None;
                if (target.speed - point[p].speed).abs() > 1e-12 {
                    let dt = self.cfg.overheads.transition_time_ms;
                    meters[p].add_transition(point[p].power.max(target.power) + rho, dt);
                    section_energy[cur.index()] += (point[p].power.max(target.power) + rho) * dt;
                    let failed = faults.is_some_and(|f| f.speed_fail(node.index()));
                    transition = Some((t, dt, point[p].power.max(target.power) * dt, failed));
                    t += dt;
                    if failed {
                        // Speed-change failure: the transition's time and
                        // energy are paid, but the operating point silently
                        // clamps to the old level.
                        report.speed_failures_injected += 1;
                    } else {
                        point[p] = target;
                    }
                }
                let mut actual = real.actual[node.index()];
                let overrun = faults.and_then(|f| f.overrun(node.index()));
                if let Some(factor) = overrun {
                    actual = ctx.wcet * factor;
                    report.overruns_injected += 1;
                }
                let exec_point = point[p];
                let exec = actual / exec_point.speed;
                meters[p].add_busy(exec_point.power + rho, exec);
                section_energy[cur.index()] += (exec_point.power + rho) * exec;
                // Premium of running above the point the policy asked for,
                // attributed to recovery. The report keeps its historical
                // target-based formula; the event carries the premium
                // actually charged (they differ only when an injected
                // speed failure also clamped the containment escalation).
                let mut premium = 0.0;
                if contained && (target.speed - requested.speed).abs() > 1e-12 {
                    report.recovery_energy += (target.power - requested.power).max(0.0) * exec;
                    premium = (exec_point.power - requested.power).max(0.0) * exec;
                }
                let end = t + exec;
                avail[p] = end;
                finish[node.index()] = Some(end);
                drain = drain.max(end);
                finish_time = finish_time.max(end);
                // Overrun detection at task completion: the task ran past
                // the worst-case budget the policy reserved at the speed it
                // believed the processor was running. Covers injected WCET
                // overruns and speed failures slow enough to breach the
                // reservation. Only armed when a fault set is supplied —
                // fault-free runs are bit-for-bit identical to the
                // pre-fault-layer engine.
                let mut detected = false;
                // (dynamic power, latency) of a recovery escalation.
                let mut escalation: Option<(f64, f64)> = None;
                if faults.is_some() && exec > ctx.wcet / target.speed + 1e-9 {
                    report.overruns_detected += 1;
                    detected = true;
                    contained = true;
                    if (max_point.speed - point[p].speed).abs() > 1e-12 {
                        // Escalate the affected processor to f_max; the
                        // transition happens after the task completes and
                        // delays the processor's next availability.
                        let dt = self.cfg.overheads.transition_time_ms;
                        let power = point[p].power.max(max_point.power) + rho;
                        meters[p].add_transition(power, dt);
                        section_energy[cur.index()] += power * dt;
                        report.recovery_energy += power * dt;
                        avail[p] = end + dt;
                        escalation = Some((point[p].power.max(max_point.power), dt));
                        point[p] = max_point;
                        report.recoveries += 1;
                    }
                }
                if em.active() {
                    em.emit(SimEvent::TaskDispatch {
                        t: start,
                        node,
                        proc: p,
                        wcet: ctx.wcet,
                        speed: pre_point.speed,
                        pmp_ms,
                        pmp_energy: pre_point.power * pmp_ms,
                        pmp_leakage: rho * pmp_ms,
                    });
                    if let Some(ms) = stall {
                        em.emit(SimEvent::FaultInjected {
                            t: start,
                            node,
                            proc: p,
                            kind: FaultKind::Stall { ms },
                        });
                        em.emit(SimEvent::IdleStart { t: start, proc: p });
                        em.emit(SimEvent::IdleEnd {
                            t: start + ms,
                            proc: p,
                            duration_ms: ms,
                            energy: self.cfg.idle_fraction * ms,
                        });
                    }
                    if let Some((begin, dt, dyn_energy, failed)) = transition {
                        if failed {
                            em.emit(SimEvent::FaultInjected {
                                t: begin,
                                node,
                                proc: p,
                                kind: FaultKind::SpeedFailure,
                            });
                        }
                        em.emit(SimEvent::SpeedChange {
                            t: begin,
                            proc: p,
                            from_speed: pre_point.speed,
                            to_speed: target.speed,
                            duration_ms: dt,
                            energy: dyn_energy,
                            leakage: rho * dt,
                            failed,
                        });
                    }
                    if let Some(factor) = overrun {
                        em.emit(SimEvent::FaultInjected {
                            t: start,
                            node,
                            proc: p,
                            kind: FaultKind::Overrun { factor },
                        });
                    }
                    if exec_point.speed < 1.0 - 1e-12 {
                        em.emit(SimEvent::SlackReclaimed {
                            t: start,
                            node,
                            proc: p,
                            reclaimed_ms: ctx.wcet / exec_point.speed - ctx.wcet,
                        });
                    }
                    em.emit(SimEvent::TaskComplete {
                        t: end,
                        node,
                        proc: p,
                        start,
                        exec_ms: exec,
                        speed: exec_point.speed,
                        energy: exec_point.power * exec,
                        leakage: rho * exec,
                        recovery_premium: premium,
                    });
                    if detected {
                        em.emit(SimEvent::FaultDetected {
                            t: end,
                            node,
                            proc: p,
                        });
                    }
                    if let Some((dyn_power, dt)) = escalation {
                        em.emit(SimEvent::FaultRecovered {
                            t: end,
                            proc: p,
                            energy: dyn_power * dt,
                            leakage: rho * dt,
                        });
                    }
                }
            }

            // Section drained: fire its exit OR (all processors synchronize
            // here), then continue with the selected branch's section.
            let Some(exit) = section.exit else {
                break;
            };
            let or = exit.or;
            let preds_done = table.preds[exit.preds.0..exit.preds.1]
                .iter()
                .filter_map(|p| finish[p.index()])
                .fold(0.0_f64, f64::max);
            let fire = drain.max(preds_done);
            finish[or.index()] = Some(fire);
            finish_time = finish_time.max(fire);
            // The section boundary re-synchronizes the schedule; containment
            // (if any) ends here and the policy resumes slack-claiming.
            contained = false;

            if exit.terminal {
                break; // terminal OR: application ends at the sync point
            }
            let k = real
                .scenario
                .choice_for(or)
                .ok_or_else(|| SimError::UnresolvedOr {
                    or: self.g.node(or).name.clone(),
                })?;
            policy.on_or_fired(or, k, fire);
            if em.active() {
                em.emit(SimEvent::OrBranchTaken {
                    t: fire,
                    or,
                    branch: k,
                });
                if let Some(spec) = policy.speculation() {
                    em.emit(SimEvent::SpeculationUpdate {
                        t: fire,
                        spec_speed: spec,
                    });
                }
            }
            cur = self.sections.branch_section(or, k).ok_or_else(|| {
                SimError::MissingBranchSection {
                    or: self.g.node(or).name.clone(),
                    branch: k,
                }
            })?;
        }

        // Idle energy accrues until the deadline (the system stays powered
        // for the whole frame), or until the actual finish on an overrun.
        // Idle time already metered (transient stalls) is not re-charged.
        let horizon = finish_time.max(self.cfg.deadline);
        let mut energy = EnergyMeter::new();
        for (p, meter) in meters.iter_mut().enumerate() {
            let idle = horizon - meter.busy_time() - meter.transition_time() - meter.idle_time();
            meter.add_idle(self.cfg.idle_fraction, idle.max(0.0));
            section_energy[cur.index()] += self.cfg.idle_fraction * idle.max(0.0);
            // One aggregate idle window per processor, mirroring the
            // meter's lump (dispatch gaps + the tail out to the horizon).
            // Stall windows were evented when metered.
            if em.active() && idle > 0.0 {
                em.emit(SimEvent::IdleStart {
                    t: horizon - idle,
                    proc: p,
                });
                em.emit(SimEvent::IdleEnd {
                    t: horizon,
                    proc: p,
                    duration_ms: idle,
                    energy: self.cfg.idle_fraction * idle,
                });
            }
            energy.merge(meter);
        }
        // The ledger invariants: every debug-build run cross-checks the
        // event-attributed energy against the meters, and the per-section
        // slices against the global totals.
        #[cfg(debug_assertions)]
        {
            if let Err(mismatch) = em.ledger.verify(energy.total_energy()) {
                panic!(
                    "energy-ledger invariant violated under policy {}: {mismatch}",
                    policy.name()
                );
            }
        }
        let trace = em.log.map(|events| trace_from_events(&events));
        Ok(RunResult {
            finish_time,
            deadline: self.cfg.deadline,
            missed_deadline: finish_time > self.cfg.deadline * (1.0 + 1e-9) + 1e-9,
            status: DeadlineStatus::classify(finish_time, self.cfg.deadline),
            faults: report,
            energy,
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::policy::{MaxSpeed, SpeedDecision};
    use andor_graph::{GraphBuilder, Scenario, Segment};

    /// Fixed-speed test policy on the continuous model.
    struct Fixed {
        speed: f64,
    }

    impl Policy for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn speed_for(&mut self, _t: NodeId, _c: &DispatchCtx) -> SpeedDecision {
            SpeedDecision {
                point: OperatingPoint {
                    speed: self.speed,
                    power: self.speed.powi(3),
                },
                ran_pmp: true,
            }
        }
    }

    fn single_task() -> (AndOrGraph, SectionGraph) {
        let mut b = GraphBuilder::new();
        b.task("T", 10.0, 10.0);
        let g = b.build().expect("single task builds");
        let sg = SectionGraph::build(&g).expect("single task sections");
        (g, sg)
    }

    fn cfg(m: usize, d: f64) -> SimConfig {
        SimConfig {
            num_procs: m,
            deadline: d,
            idle_fraction: 0.05,
            static_fraction: 0.0,
            overheads: Overheads::none(),
            record_trace: true,
        }
    }

    fn wcet_real(g: &AndOrGraph) -> Realization {
        Realization::worst_case(g, Scenario { choices: vec![] })
    }

    /// Runs `real` under `faults`, returning the scratch it ran into.
    fn faulted(
        sim: &Simulator<'_>,
        policy: &mut dyn Policy,
        real: &Realization,
        faults: &FaultSet,
    ) -> (RunResult, RunScratch) {
        let mut scratch = RunScratch::new();
        let res = sim
            .run_into(&mut scratch, policy, real, None, Some(faults), None)
            .expect("run succeeds");
        (res, scratch)
    }

    #[test]
    fn single_task_at_full_speed() {
        let (g, sg) = single_task();
        let order = DispatchOrder::topological(&g, &sg);
        let model = ProcessorModel::continuous(0.1).expect("continuous model");
        let sim = Simulator::new(&g, &sg, &order, &model, cfg(1, 20.0));
        let res = sim
            .run(&mut MaxSpeed, &wcet_real(&g))
            .expect("run succeeds");
        assert!((res.finish_time - 10.0).abs() < 1e-12);
        assert!(!res.missed_deadline);
        assert_eq!(res.status, DeadlineStatus::Met { slack: 10.0 });
        assert!(res.faults.is_clean());
        // busy 10 at power 1, idle (20-10) at 0.05.
        assert!((res.energy.busy_energy() - 10.0).abs() < 1e-12);
        assert!((res.energy.idle_energy() - 0.5).abs() < 1e-12);
        let tr = res.trace.expect("trace recorded");
        assert_eq!(tr.len(), 1);
        assert_eq!(tr[0].proc, 0);
    }

    #[test]
    fn half_speed_quarters_busy_energy() {
        let (g, sg) = single_task();
        let order = DispatchOrder::topological(&g, &sg);
        let model = ProcessorModel::continuous(0.1).expect("continuous model");
        let sim = Simulator::new(&g, &sg, &order, &model, cfg(1, 20.0));
        let res = sim
            .run(&mut Fixed { speed: 0.5 }, &wcet_real(&g))
            .expect("run succeeds");
        assert!((res.finish_time - 20.0).abs() < 1e-12);
        assert!(!res.missed_deadline);
        // 20 ms at power 0.125 = 2.5 = a quarter of the 10.0 at full speed.
        assert!((res.energy.busy_energy() - 2.5).abs() < 1e-12);
        assert_eq!(res.energy.speed_changes(), 1);
    }

    #[test]
    fn deadline_miss_detected() {
        let (g, sg) = single_task();
        let order = DispatchOrder::topological(&g, &sg);
        let model = ProcessorModel::continuous(0.1).expect("continuous model");
        let sim = Simulator::new(&g, &sg, &order, &model, cfg(1, 5.0));
        let res = sim
            .run(&mut MaxSpeed, &wcet_real(&g))
            .expect("run succeeds");
        assert!(res.missed_deadline);
        assert!(!res.status.met());
        assert!((res.status.missed_by() - 5.0).abs() < 1e-12);
        assert!((res.finish_time - 10.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_tasks_use_both_processors() {
        let app = Segment::par([Segment::task("X", 6.0, 6.0), Segment::task("Y", 4.0, 4.0)]);
        let g = app.lower().expect("app lowers");
        let sg = SectionGraph::build(&g).expect("sections build");
        let order = DispatchOrder::topological(&g, &sg);
        let model = ProcessorModel::continuous(0.1).expect("continuous model");
        let sim = Simulator::new(&g, &sg, &order, &model, cfg(2, 10.0));
        let res = sim
            .run(&mut MaxSpeed, &wcet_real(&g))
            .expect("run succeeds");
        assert!((res.finish_time - 6.0).abs() < 1e-12);
        let tr = res.trace.expect("trace recorded");
        let procs: std::collections::HashSet<usize> = tr.iter().map(|e| e.proc).collect();
        assert_eq!(procs.len(), 2, "both processors used");
    }

    #[test]
    fn dispatch_order_serializes_starts() {
        // Three independent tasks, one processor: starts must be ordered.
        let app = Segment::par([
            Segment::task("A", 3.0, 3.0),
            Segment::task("B", 2.0, 2.0),
            Segment::task("C", 1.0, 1.0),
        ]);
        let g = app.lower().expect("app lowers");
        let sg = SectionGraph::build(&g).expect("sections build");
        let order = DispatchOrder::topological(&g, &sg);
        let model = ProcessorModel::continuous(0.1).expect("continuous model");
        let sim = Simulator::new(&g, &sg, &order, &model, cfg(1, 20.0));
        let res = sim
            .run(&mut MaxSpeed, &wcet_real(&g))
            .expect("run succeeds");
        let tr = res.trace.expect("trace recorded");
        for w in tr.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
        assert!((res.finish_time - 6.0).abs() < 1e-12);
    }

    #[test]
    fn or_branch_selection_follows_realization() {
        let app = Segment::seq([
            Segment::task("A", 2.0, 2.0),
            Segment::branch([
                (0.5, Segment::task("B", 5.0, 5.0)),
                (0.5, Segment::task("C", 3.0, 3.0)),
            ]),
        ]);
        let g = app.lower().expect("app lowers");
        let sg = SectionGraph::build(&g).expect("sections build");
        let order = DispatchOrder::topological(&g, &sg);
        let model = ProcessorModel::continuous(0.1).expect("continuous model");
        let sim = Simulator::new(&g, &sg, &order, &model, cfg(1, 20.0));
        let or_node = g
            .iter()
            .find(|(_, n)| n.kind.is_or() && n.succs.len() == 2)
            .expect("fixture has a two-way OR")
            .0;
        for (k, expect) in [(0usize, 7.0), (1usize, 5.0)] {
            let real = Realization::worst_case(
                &g,
                Scenario {
                    choices: vec![(or_node, k)],
                },
            );
            let res = sim.run(&mut MaxSpeed, &real).expect("run succeeds");
            assert!(
                (res.finish_time - expect).abs() < 1e-12,
                "branch {k}: finish={}",
                res.finish_time
            );
        }
    }

    #[test]
    fn unresolved_or_is_a_typed_error() {
        let app = Segment::seq([
            Segment::task("A", 2.0, 2.0),
            Segment::branch([
                (0.5, Segment::task("B", 5.0, 5.0)),
                (0.5, Segment::task("C", 3.0, 3.0)),
            ]),
        ]);
        let g = app.lower().expect("app lowers");
        let sg = SectionGraph::build(&g).expect("sections build");
        let order = DispatchOrder::topological(&g, &sg);
        let model = ProcessorModel::continuous(0.1).expect("continuous model");
        let sim = Simulator::new(&g, &sg, &order, &model, cfg(1, 20.0));
        // Worst-case realization with *no* OR choices recorded.
        let real = Realization::worst_case(&g, Scenario { choices: vec![] });
        let err = sim.run(&mut MaxSpeed, &real).expect_err("must fail");
        assert!(matches!(err, SimError::UnresolvedOr { .. }), "{err}");
    }

    #[test]
    fn wrong_initial_point_count_is_a_typed_error() {
        let (g, sg) = single_task();
        let order = DispatchOrder::topological(&g, &sg);
        let model = ProcessorModel::continuous(0.1).expect("continuous model");
        let sim = Simulator::new(&g, &sg, &order, &model, cfg(2, 20.0));
        let err = sim
            .run_observed(
                &mut MaxSpeed,
                &wcet_real(&g),
                Some(&[model.max_point()]),
                None,
                None,
            )
            .expect_err("must fail");
        assert_eq!(
            err,
            SimError::InitialPointCount {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn dependency_violation_is_a_typed_error() {
        // Two chained tasks dispatched in the wrong order.
        let mut b = GraphBuilder::new();
        let a = b.task("A", 2.0, 2.0);
        let c = b.task("B", 2.0, 2.0);
        b.edge(a, c).expect("edge is valid");
        let g = b.build().expect("graph builds");
        let sg = SectionGraph::build(&g).expect("sections build");
        let order = DispatchOrder {
            per_section: vec![vec![c, a]],
        };
        let model = ProcessorModel::continuous(0.1).expect("continuous model");
        let sim = Simulator::new(&g, &sg, &order, &model, cfg(1, 20.0));
        let err = sim
            .run(&mut MaxSpeed, &wcet_real(&g))
            .expect_err("must fail");
        assert!(matches!(err, SimError::DependencyViolation { .. }), "{err}");
        assert!(err.to_string().contains("'B'"), "{err}");
    }

    #[test]
    fn or_fires_when_its_whole_section_drains() {
        // Root section {A, X}: only A feeds the OR; X feeds B across it (an
        // ancestor cross-edge). The OR still fires when X, the section's
        // last node, completes.
        let mut b = GraphBuilder::new();
        let a = b.task("A", 2.0, 2.0);
        let x = b.task("X", 5.0, 5.0);
        let or = b.or("O");
        let t_b = b.task("B", 1.0, 1.0);
        b.edge(a, or).expect("edge is valid");
        b.or_branch(or, t_b, 1.0).expect("branch is valid");
        b.edge(x, t_b).expect("edge is valid");
        let g = b.build().expect("graph builds");
        let sg = SectionGraph::build(&g).expect("sections build");
        let order = DispatchOrder::topological(&g, &sg);
        let model = ProcessorModel::continuous(0.1).expect("continuous model");
        let sim = Simulator::new(&g, &sg, &order, &model, cfg(2, 20.0));

        /// Full speed, recording when each OR fires.
        struct Fires(Vec<f64>);
        impl Policy for Fires {
            fn name(&self) -> &str {
                "fires"
            }
            fn speed_for(&mut self, t: NodeId, c: &DispatchCtx) -> SpeedDecision {
                MaxSpeed.speed_for(t, c)
            }
            fn on_or_fired(&mut self, _or: NodeId, _branch: usize, now: f64) {
                self.0.push(now);
            }
        }
        let mut fires = Fires(Vec::new());
        let real = Realization::worst_case(
            &g,
            Scenario {
                choices: vec![(or, 0)],
            },
        );
        let res = sim.run(&mut fires, &real).expect("run succeeds");
        assert_eq!(fires.0, [5.0]);
        assert_eq!(res.finish_time, 6.0);
    }

    #[test]
    fn orders_the_engine_cannot_run_are_refused_before_they_run() {
        // A -> OR -> B: the OR fires when the root section drains.
        let app = Segment::seq([
            Segment::task("A", 2.0, 2.0),
            Segment::branch([(1.0, Segment::task("B", 3.0, 3.0))]),
        ]);
        let g = app.lower().expect("app lowers");
        let sg = SectionGraph::build(&g).expect("sections build");
        let model = ProcessorModel::continuous(0.1).expect("continuous model");
        let named = |name: &str| {
            g.iter()
                .find(|(_, n)| n.name == name)
                .expect("fixture names its tasks")
                .0
        };
        let (a, b) = (named("A"), named("B"));
        let or = g
            .iter()
            .find(|(_, n)| n.kind.is_or() && !n.succs.is_empty())
            .expect("fixture has a branching OR")
            .0;
        let real = Realization::worst_case(
            &g,
            Scenario {
                choices: vec![(or, 0)],
            },
        );
        let good = DispatchOrder::topological(&g, &sg);
        assert_eq!(good.check(&g), Ok(()));
        let root = sg.root().index();
        let branch = 1 - root;
        let edited = |edit: &dyn Fn(&mut Vec<Vec<NodeId>>)| {
            let mut order = good.clone();
            edit(&mut order.per_section);
            order
        };
        for (order, detail) in [
            // A node listed twice, in one section and across two.
            (
                edited(&|o| o[branch].push(b)),
                format!("section {branch} dispatches node 'B' a second time"),
            ),
            (
                edited(&|o| o[branch].insert(0, a)),
                format!("section {branch} dispatches node 'A' a second time"),
            ),
            (
                edited(&|o| o[branch].insert(0, or)),
                format!(
                    "section {branch} dispatches OR node '{}'; OR nodes fire when their \
                     section drains",
                    g.node(or).name
                ),
            ),
            (
                edited(&|o| o[root].push(NodeId(99))),
                format!(
                    "section {root} dispatches node 99, but the graph has {} nodes",
                    g.len()
                ),
            ),
        ] {
            let want = SimError::BadDispatchOrder { detail };
            assert_eq!(order.check(&g), Err(want.clone()));
            let sim = Simulator::new(&g, &sg, &order, &model, cfg(1, 20.0));
            let mut scratch = RunScratch::new();
            for _ in 0..2 {
                let err = sim
                    .run_into(&mut scratch, &mut MaxSpeed, &real, None, None, None)
                    .expect_err("refused");
                assert_eq!(err, want);
            }
            assert!(scratch.meters().is_empty(), "nothing ran");
        }
        let sim = Simulator::new(&g, &sg, &good, &model, cfg(1, 20.0));
        let res = sim.run(&mut MaxSpeed, &real).expect("run succeeds");
        assert_eq!(res.finish_time, 5.0);
    }

    #[test]
    fn speed_change_overhead_charged() {
        let (g, sg) = single_task();
        let order = DispatchOrder::topological(&g, &sg);
        let model = ProcessorModel::continuous(0.1).expect("continuous model");
        let mut config = cfg(1, 40.0);
        config.overheads = Overheads::new(700.0, 0.5).expect("valid overheads");
        let sim = Simulator::new(&g, &sg, &order, &model, config);
        let res = sim
            .run(&mut Fixed { speed: 0.5 }, &wcet_real(&g))
            .expect("run succeeds");
        // compute overhead at current (full) speed: 700 cycles / 1 GHz =
        // 0.0007 ms; transition 0.5 ms; execution 20 ms.
        let expect = 0.0007 + 0.5 + 20.0;
        assert!(
            (res.finish_time - expect).abs() < 1e-9,
            "finish={}",
            res.finish_time
        );
        assert_eq!(res.energy.speed_changes(), 1);
        assert!((res.energy.transition_time() - 0.5).abs() < 1e-12);
        // Transition charged at the higher of the two endpoint powers
        // (leaving full power: 1.0).
        assert!((res.energy.transition_energy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn no_transition_when_speed_unchanged() {
        let (g, sg) = single_task();
        let order = DispatchOrder::topological(&g, &sg);
        let model = ProcessorModel::continuous(0.1).expect("continuous model");
        let mut config = cfg(1, 40.0);
        config.overheads = Overheads::new(300.0, 0.5).expect("valid overheads");
        let sim = Simulator::new(&g, &sg, &order, &model, config);
        let res = sim
            .run(&mut Fixed { speed: 1.0 }, &wcet_real(&g))
            .expect("run succeeds");
        assert_eq!(res.energy.speed_changes(), 0);
        assert!((res.energy.transition_time()).abs() < 1e-12);
    }

    #[test]
    fn idle_horizon_is_deadline_when_early() {
        let (g, sg) = single_task();
        let order = DispatchOrder::topological(&g, &sg);
        let model = ProcessorModel::continuous(0.1).expect("continuous model");
        let sim = Simulator::new(&g, &sg, &order, &model, cfg(2, 50.0));
        let res = sim
            .run(&mut MaxSpeed, &wcet_real(&g))
            .expect("run succeeds");
        // proc 0: 40 idle; proc 1: 50 idle. Both at 0.05.
        assert!((res.energy.idle_energy() - 0.05 * (40.0 + 50.0)).abs() < 1e-9);
    }

    #[test]
    fn terminal_or_ends_application() {
        // A -> OR (terminal, no successors).
        let mut b = GraphBuilder::new();
        let a = b.task("A", 3.0, 3.0);
        let o = b.or("end");
        b.edge(a, o).expect("edge is valid");
        let g = b.build().expect("graph builds");
        let sg = SectionGraph::build(&g).expect("sections build");
        let order = DispatchOrder::topological(&g, &sg);
        let model = ProcessorModel::continuous(0.1).expect("continuous model");
        let sim = Simulator::new(&g, &sg, &order, &model, cfg(1, 10.0));
        let res = sim
            .run(&mut MaxSpeed, &wcet_real(&g))
            .expect("run succeeds");
        assert!((res.finish_time - 3.0).abs() < 1e-12);
    }

    #[test]
    fn and_nodes_cost_nothing() {
        let app = Segment::seq([
            Segment::task("A", 2.0, 2.0),
            Segment::par([Segment::task("X", 3.0, 3.0), Segment::task("Y", 3.0, 3.0)]),
            Segment::task("Z", 1.0, 1.0),
        ]);
        let g = app.lower().expect("app lowers");
        let sg = SectionGraph::build(&g).expect("sections build");
        let order = DispatchOrder::topological(&g, &sg);
        let model = ProcessorModel::continuous(0.1).expect("continuous model");
        let sim = Simulator::new(&g, &sg, &order, &model, cfg(2, 20.0));
        let res = sim
            .run(&mut MaxSpeed, &wcet_real(&g))
            .expect("run succeeds");
        // 2 (A) + 3 (X||Y) + 1 (Z): AND forks/joins add zero time.
        assert!((res.finish_time - 6.0).abs() < 1e-12);
        assert!((res.energy.busy_time() - 9.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dispatch order must cover every section")]
    fn mismatched_order_panics() {
        let (g, sg) = single_task();
        let order = DispatchOrder {
            per_section: vec![],
        };
        let model = ProcessorModel::continuous(0.1).expect("continuous model");
        let _ = Simulator::new(&g, &sg, &order, &model, cfg(1, 10.0));
    }

    // ---- fault injection -------------------------------------------------

    #[test]
    fn empty_fault_set_matches_fault_free_run() {
        let (g, sg) = single_task();
        let order = DispatchOrder::topological(&g, &sg);
        let model = ProcessorModel::continuous(0.1).expect("continuous model");
        let sim = Simulator::new(&g, &sg, &order, &model, cfg(1, 20.0));
        let real = wcet_real(&g);
        let base = sim.run(&mut MaxSpeed, &real).expect("run succeeds");
        let (faulted, _) = faulted(&sim, &mut MaxSpeed, &real, &FaultSet::empty(g.len()));
        assert_eq!(base.finish_time, faulted.finish_time);
        assert_eq!(base.total_energy(), faulted.total_energy());
        assert!(faulted.faults.is_clean());
    }

    #[test]
    fn injected_overrun_stretches_execution_and_is_detected() {
        let (g, sg) = single_task();
        let order = DispatchOrder::topological(&g, &sg);
        let model = ProcessorModel::continuous(0.1).expect("continuous model");
        let sim = Simulator::new(&g, &sg, &order, &model, cfg(1, 20.0));
        let plan = FaultPlan::overruns(1.0, 1.5, 7);
        let faults = plan.realize(&g, 0);
        let (res, _) = faulted(&sim, &mut MaxSpeed, &wcet_real(&g), &faults);
        // WCET 10 * factor 1.5 at full speed = 15 ms.
        assert!(
            (res.finish_time - 15.0).abs() < 1e-12,
            "{}",
            res.finish_time
        );
        assert_eq!(res.faults.overruns_injected, 1);
        assert_eq!(res.faults.overruns_detected, 1);
        // Already at f_max: containment engages but no escalation needed.
        assert_eq!(res.faults.recoveries, 0);
        assert!(res.status.met());
    }

    #[test]
    fn overrun_on_slow_processor_escalates_to_max() {
        // Two chained tasks at half speed; the first overruns, so the
        // second must be forced to full speed by containment.
        let mut b = GraphBuilder::new();
        let a = b.task("A", 4.0, 4.0);
        let c = b.task("B", 4.0, 4.0);
        b.edge(a, c).expect("edge is valid");
        let g = b.build().expect("graph builds");
        let sg = SectionGraph::build(&g).expect("sections build");
        let order = DispatchOrder::topological(&g, &sg);
        let model = ProcessorModel::continuous(0.1).expect("continuous model");
        let sim = Simulator::new(&g, &sg, &order, &model, cfg(1, 30.0));
        let plan = FaultPlan {
            overrun_prob: 1.0,
            overrun_factor: 2.0,
            ..FaultPlan::none()
        };
        let faults = plan.realize(&g, 0);
        let (res, _) = faulted(&sim, &mut Fixed { speed: 0.5 }, &wcet_real(&g), &faults);
        assert_eq!(res.faults.overruns_injected, 2);
        assert!(res.faults.overruns_detected >= 1);
        assert_eq!(res.faults.recoveries, 1, "escalated away from half speed");
        assert!(res.faults.recovery_energy > 0.0);
        // After escalation the second task runs at f_max: 8 ms (A at half
        // speed, overrun: 4*2/0.5 = 16) + 8 (B overrun at full speed).
        assert!((res.finish_time - 24.0).abs() < 1e-9, "{}", res.finish_time);
        let tr = res.trace.expect("trace recorded");
        assert!((tr[1].speed - 1.0).abs() < 1e-12, "contained task at f_max");
    }

    #[test]
    fn containment_resets_at_section_boundary() {
        // Section 1 overruns; after the OR fires, the policy's requested
        // speed applies again in the branch section.
        let app = Segment::seq([
            Segment::task("A", 4.0, 4.0),
            Segment::branch([(1.0, Segment::task("B", 4.0, 4.0))]),
        ]);
        let g = app.lower().expect("app lowers");
        let sg = SectionGraph::build(&g).expect("sections build");
        let order = DispatchOrder::topological(&g, &sg);
        let model = ProcessorModel::continuous(0.1).expect("continuous model");
        let sim = Simulator::new(&g, &sg, &order, &model, cfg(1, 60.0));
        let a = g
            .iter()
            .find(|(_, n)| n.name == "A")
            .expect("fixture has task A")
            .0;
        let or_node = g
            .iter()
            .find(|(_, n)| n.kind.is_or() && !n.succs.is_empty())
            .expect("fixture has a branching OR")
            .0;
        let real = Realization::worst_case(
            &g,
            Scenario {
                choices: vec![(or_node, 0)],
            },
        );
        // Every computation node overruns. A's overrun is detected in
        // section 1 and engages containment; the OR boundary must clear it,
        // so B is *dispatched* at the policy's requested half speed again
        // (B's own overrun is then detected after it completes).
        let faults = FaultPlan::overruns(1.0, 2.0, 1).realize(&g, 0);
        let (res, _) = faulted(&sim, &mut Fixed { speed: 0.5 }, &real, &faults);
        let tr = res.trace.as_ref().expect("trace recorded");
        let b_entry = tr.iter().find(|e| e.node != a).expect("B executed");
        assert!(
            (b_entry.speed - 0.5).abs() < 1e-12,
            "containment cleared at section boundary; B ran at requested speed, got {}",
            b_entry.speed
        );
    }

    #[test]
    fn speed_failure_clamps_to_old_point_but_charges_transition() {
        let (g, sg) = single_task();
        let order = DispatchOrder::topological(&g, &sg);
        let model = ProcessorModel::continuous(0.1).expect("continuous model");
        let mut config = cfg(1, 40.0);
        config.overheads = Overheads::new(0.0, 0.5).expect("valid overheads");
        let sim = Simulator::new(&g, &sg, &order, &model, config);
        let plan = FaultPlan {
            speed_fail_prob: 1.0,
            ..FaultPlan::none()
        };
        let faults = plan.realize(&g, 0);
        let (res, scratch) = faulted(&sim, &mut Fixed { speed: 0.5 }, &wcet_real(&g), &faults);
        assert_eq!(res.faults.speed_failures_injected, 1);
        // The point clamped to full speed, so execution took 10 ms (not
        // 20), plus the 0.5 ms transition that was still paid.
        assert!((res.finish_time - 10.5).abs() < 1e-9, "{}", res.finish_time);
        assert!((res.energy.transition_time() - 0.5).abs() < 1e-12);
        assert!((scratch.final_points()[0].speed - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stall_delays_start_and_draws_idle_power() {
        let (g, sg) = single_task();
        let order = DispatchOrder::topological(&g, &sg);
        let model = ProcessorModel::continuous(0.1).expect("continuous model");
        let sim = Simulator::new(&g, &sg, &order, &model, cfg(1, 20.0));
        let plan = FaultPlan {
            stall_prob: 1.0,
            stall_ms: 3.0,
            ..FaultPlan::none()
        };
        let faults = plan.realize(&g, 0);
        let (res, _) = faulted(&sim, &mut MaxSpeed, &wcet_real(&g), &faults);
        assert_eq!(res.faults.stalls_injected, 1);
        assert!(
            (res.finish_time - 13.0).abs() < 1e-12,
            "{}",
            res.finish_time
        );
        // Idle: 3 ms stall + 7 ms tail to the deadline, at 0.05.
        assert!((res.energy.idle_energy() - 0.05 * 10.0).abs() < 1e-9);
    }

    #[test]
    fn missed_deadline_reports_margin_instead_of_panicking() {
        let (g, sg) = single_task();
        let order = DispatchOrder::topological(&g, &sg);
        let model = ProcessorModel::continuous(0.1).expect("continuous model");
        let sim = Simulator::new(&g, &sg, &order, &model, cfg(1, 12.0));
        let plan = FaultPlan::overruns(1.0, 2.0, 3);
        let faults = plan.realize(&g, 0);
        let (res, _) = faulted(&sim, &mut MaxSpeed, &wcet_real(&g), &faults);
        assert!(res.missed_deadline);
        assert_eq!(res.status, DeadlineStatus::Missed { by: 8.0 });
        // Idle horizon extends to the late finish, never negative idle.
        assert!(res.energy.idle_energy().abs() < 1e-12);
    }
}
