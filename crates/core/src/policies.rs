//! The on-line phase: the paper's six speed-selection schemes.
//!
//! All dynamic schemes share one safety rule: a task's speed is never set
//! below the *GSS-guaranteed* speed — the speed at which the task, started
//! now, still finishes by its shifted-canonical estimated end time
//! (`EET_i = LST_i + c_i`). The speculative schemes only ever *raise* that
//! floor toward a statistically better single speed, so Theorem 1's
//! deadline guarantee extends to every scheme (paper §4.1: "the SS
//! algorithms never set a speed below the speed determined by `GSS`").
//!
//! Overheads are reserved out of the claimed slack before slowing down:
//! the speed-computation time at the current speed plus two voltage
//! transitions (one to slow down now, one to speed back up later).

use crate::offline::OfflinePlan;
use andor_graph::NodeId;
use dvfs_power::{OperatingPoint, Overheads, ProcessorModel};
use mp_sim::{DispatchCtx, MaxSpeed, Policy, SpeedDecision};
use serde::{Deserialize, Serialize};

/// The scheme identifiers of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheme {
    /// No power management — the normalization baseline.
    Npm,
    /// Static power management: one speed from static slack.
    Spm,
    /// Greedy slack sharing (the paper's extended Figure-2 algorithm).
    Gss,
    /// Static speculation, single speed.
    Ss1,
    /// Static speculation, two speeds.
    Ss2,
    /// Adaptive speculation at each OR node.
    As,
}

impl Scheme {
    /// All schemes, in the paper's plotting order.
    pub const ALL: [Scheme; 6] = [
        Scheme::Npm,
        Scheme::Spm,
        Scheme::Gss,
        Scheme::Ss1,
        Scheme::Ss2,
        Scheme::As,
    ];

    /// The power-managed schemes (everything but the NPM baseline).
    pub const MANAGED: [Scheme; 5] = [
        Scheme::Spm,
        Scheme::Gss,
        Scheme::Ss1,
        Scheme::Ss2,
        Scheme::As,
    ];

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Npm => "NPM",
            Scheme::Spm => "SPM",
            Scheme::Gss => "GSS",
            Scheme::Ss1 => "SS(1)",
            Scheme::Ss2 => "SS(2)",
            Scheme::As => "AS",
        }
    }

    /// Parses a scheme name in any case: `npm`, `spm`, `gss`, `ss1` or
    /// `ss(1)`, `ss2` or `ss(2)`, `as`. Every [`Scheme::name`] parses
    /// back to its scheme. Returns `None` for anything else.
    pub fn parse(s: &str) -> Option<Scheme> {
        Some(match s.to_ascii_lowercase().as_str() {
            "npm" => Scheme::Npm,
            "spm" => Scheme::Spm,
            "gss" => Scheme::Gss,
            "ss1" | "ss(1)" => Scheme::Ss1,
            "ss2" | "ss(2)" => Scheme::Ss2,
            "as" => Scheme::As,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The scheme-specific parameters the on-line phase derives from a plan —
/// the quantities Theorem 1's "never below the GSS speed" argument and the
/// SS(2) switch-window condition are stated over. [`SchemeParams::derive`]
/// is the one place each scheme's formulas are written; [`SchemePolicy`]
/// runs them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SchemeParams {
    /// NPM carries no parameters (always full speed).
    Npm,
    /// SPM: the single static operating speed `Tw / (D − t_trans)`,
    /// quantized up.
    Spm {
        /// Normalized static speed every task runs at.
        static_speed: f64,
    },
    /// GSS derives everything per dispatch from the latest start times.
    Gss,
    /// SS(1): the single speculative floor `Ta / D`, quantized up.
    Ss1 {
        /// Normalized speculative speed floor.
        spec_speed: f64,
    },
    /// SS(2): the level pair bracketing `Ta / D` and the switch time
    /// `θ = (s₂·D − Tᵃ) / (s₂ − s₁)`, clamped into `[0, D]`.
    Ss2 {
        /// The lower level `s₁`.
        low: f64,
        /// The upper level `s₂`.
        high: f64,
        /// The switch time θ in ms.
        switch_time: f64,
    },
    /// AS: the initial (unquantized) speculation `Ta / D`; the per-OR
    /// re-speculation table is the plan's `branch_avg`.
    As {
        /// Initial speculative speed before any OR fires.
        initial_spec: f64,
    },
}

impl SchemeParams {
    /// Derives a scheme's parameters from `plan` on `model` under
    /// `overheads`: what its policy runs with, and the independent
    /// re-derivation `pas check` compares a stored artifact against.
    pub fn derive(
        scheme: Scheme,
        plan: &OfflinePlan,
        model: &ProcessorModel,
        overheads: Overheads,
    ) -> Self {
        match scheme {
            Scheme::Npm => SchemeParams::Npm,
            Scheme::Gss => SchemeParams::Gss,
            Scheme::Spm => {
                // One voltage transition (to enter the static speed) is
                // reserved out of the deadline.
                let effective =
                    (plan.deadline - overheads.transition_time_ms).max(f64::MIN_POSITIVE);
                SchemeParams::Spm {
                    static_speed: model.quantize_up(plan.worst_total / effective).speed,
                }
            }
            Scheme::Ss1 => SchemeParams::Ss1 {
                spec_speed: model.quantize_up(average_speed(plan)).speed,
            },
            Scheme::Ss2 => {
                let (low, high, theta) = Self::ss2_switch(plan, model);
                SchemeParams::Ss2 {
                    low,
                    high,
                    switch_time: theta.unwrap_or(0.0).clamp(0.0, plan.deadline),
                }
            }
            Scheme::As => SchemeParams::As {
                initial_spec: average_speed(plan),
            },
        }
    }

    /// SS(2)'s level pair `(s₁, s₂)` around `min(Tᵃ/D, 1)` and its
    /// *unclamped* switch time `θ = (s₂·D − Tᵃ) / (s₂ − s₁)`, at which
    /// the average-case work completes exactly at the deadline
    /// (`θ·s₁ + (D − θ)·s₂ = Tᵃ`); `None` when the levels coincide.
    /// [`SchemeParams::derive`] clamps θ into `[0, D]`; `pas check` warns
    /// when it falls outside (PAS0108).
    pub fn ss2_switch(plan: &OfflinePlan, model: &ProcessorModel) -> (f64, f64, Option<f64>) {
        let ideal = average_speed(plan).min(1.0);
        let high = model.quantize_up(ideal).speed;
        let low = level_at_or_below(model, ideal).unwrap_or(high);
        // Average work measured in full-speed ms.
        let theta = ((high - low).abs() >= 1e-12)
            .then(|| (high * plan.deadline - plan.avg_total) / (high - low));
        (low, high, theta)
    }

    /// The lowest normalized speed any task can execute at under these
    /// parameters: the scheme's speculative/static floor, or the
    /// platform's `S_min` for the purely dynamic schemes. Every operating
    /// point the on-line phase selects is at least this fast (quantization
    /// only rounds *up*), so static analyses may divide by it to bound
    /// execution times from above.
    pub fn speed_floor(&self, model: &ProcessorModel) -> f64 {
        match self {
            SchemeParams::Npm => 1.0,
            SchemeParams::Spm { static_speed } => *static_speed,
            SchemeParams::Gss | SchemeParams::As { .. } => model.min_speed(),
            SchemeParams::Ss1 { spec_speed } => spec_speed.max(model.min_speed()),
            SchemeParams::Ss2 { low, .. } => low.max(model.min_speed()),
        }
    }

    /// The scheme these parameters belong to.
    pub fn scheme(&self) -> Scheme {
        match self {
            SchemeParams::Npm => Scheme::Npm,
            SchemeParams::Spm { .. } => Scheme::Spm,
            SchemeParams::Gss => Scheme::Gss,
            SchemeParams::Ss1 { .. } => Scheme::Ss1,
            SchemeParams::Ss2 { .. } => Scheme::Ss2,
            SchemeParams::As { .. } => Scheme::As,
        }
    }
}

/// `Tᵃ / D`: the single speed at which the average-case work ends exactly
/// at the deadline.
fn average_speed(plan: &OfflinePlan) -> f64 {
    plan.avg_total / plan.deadline
}

/// Shared deadline-guarantee computation (the GSS speed).
struct Guarantee<'a> {
    plan: &'a OfflinePlan,
    model: &'a ProcessorModel,
    overheads: Overheads,
    /// The model's [`ProcessorModel::discrete_points`], slowest first, or
    /// `None` on the continuous model.
    levels: Option<Vec<OperatingPoint>>,
}

impl<'a> Guarantee<'a> {
    fn new(plan: &'a OfflinePlan, model: &'a ProcessorModel, overheads: Overheads) -> Self {
        Self {
            plan,
            model,
            overheads,
            levels: model.discrete_points(),
        }
    }

    /// The unquantized speed that keeps the Theorem-1 guarantee for `task`
    /// dispatched under `ctx`: stretch its WCET over the window ending at
    /// `LST + c`, minus the reserved overhead time.
    fn gss_desired(&self, task: NodeId, ctx: &DispatchCtx) -> f64 {
        let lst =
            self.plan.lst[task.index()].expect("dispatched computation nodes always carry an LST");
        let slack = (lst - ctx.now).max(0.0);
        let reserve = self
            .overheads
            .reservation_ms(ctx.current_point.speed, self.model.max_freq_mhz());
        let avail = ctx.wcet + slack - reserve;
        if avail <= 0.0 {
            // Degenerate: not even full speed recovers the overhead window;
            // run flat out.
            f64::INFINITY
        } else {
            ctx.wcet / avail
        }
    }

    /// [`ProcessorModel::quantize_up`], bit for bit: `discrete_points` is
    /// its exact image, so the first point at least `desired - 1e-12`
    /// fast (else the fastest) is the level it picks, without the
    /// per-level divisions. A linear scan: binary search measured slower
    /// on tables of 5 and 16 levels.
    fn quantize(&self, desired: f64) -> OperatingPoint {
        match self.levels.as_deref() {
            Some(points @ [.., fastest]) => *points
                .iter()
                .find(|p| p.speed >= desired - 1e-12)
                .unwrap_or(fastest),
            _ => self.model.quantize_up(desired),
        }
    }
}

/// Every scheme's policy: the parameters [`SchemeParams::derive`] wrote,
/// run by one rule.
///
/// - NPM runs at full speed ([`MaxSpeed`]).
/// - SPM runs every task at its static point and pays no per-task PMP
///   cost.
/// - GSS (the paper's extended Figure-2 algorithm) gives each task all
///   the slack up to its latest start time. Slack sharing across
///   processors is implicit in the engine's global dispatch order.
/// - SS(1), SS(2) and AS raise the GSS speed to a speculative one: SS(1)'s
///   single speed; SS(2)'s `s₁` before the switch time θ and `s₂` after;
///   AS's `Tᵃ_rem / (D − t)`, re-speculated after every OR node from the
///   statistical remaining work of the chosen branch.
pub struct SchemePolicy<'a> {
    guar: Guarantee<'a>,
    params: SchemeParams,
    /// SPM's static operating point; unread by the other schemes.
    static_point: OperatingPoint,
    /// AS's current (unquantized) speculative speed.
    spec: f64,
}

impl<'a> SchemePolicy<'a> {
    /// Builds `scheme`'s policy for a plan/platform pair.
    pub fn new(
        scheme: Scheme,
        plan: &'a OfflinePlan,
        model: &'a ProcessorModel,
        overheads: Overheads,
    ) -> Self {
        let guar = Guarantee::new(plan, model, overheads);
        let params = SchemeParams::derive(scheme, plan, model, overheads);
        let (static_point, spec) = match params {
            SchemeParams::Spm { static_speed } => (guar.quantize(static_speed), 0.0),
            SchemeParams::As { initial_spec } => (model.max_point(), initial_spec),
            _ => (model.max_point(), 0.0),
        };
        Self {
            guar,
            params,
            static_point,
            spec,
        }
    }
}

impl Policy for SchemePolicy<'_> {
    fn name(&self) -> &str {
        self.params.scheme().name()
    }

    fn begin_run(&mut self) {
        if let SchemeParams::As { initial_spec } = self.params {
            self.spec = initial_spec;
        }
    }

    fn on_or_fired(&mut self, or: NodeId, branch: usize, now: f64) {
        if !matches!(self.params, SchemeParams::As { .. }) {
            return;
        }
        let plan = self.guar.plan;
        if let Some(&ta_rem) = plan.branch_avg.get(&(or, branch)) {
            let remaining = (plan.deadline - now).max(f64::MIN_POSITIVE);
            self.spec = ta_rem / remaining;
        }
    }

    fn speed_for(&mut self, task: NodeId, ctx: &DispatchCtx) -> SpeedDecision {
        let spec = match self.params {
            SchemeParams::Npm => return MaxSpeed.speed_for(task, ctx),
            SchemeParams::Spm { .. } => {
                return SpeedDecision {
                    point: self.static_point,
                    ran_pmp: false,
                }
            }
            SchemeParams::Gss => None,
            SchemeParams::Ss1 { spec_speed } => Some(spec_speed),
            SchemeParams::Ss2 {
                low,
                high,
                switch_time,
            } => Some(if ctx.now < switch_time { low } else { high }),
            SchemeParams::As { .. } => Some(self.spec),
        };
        let gss = self.guar.gss_desired(task, ctx);
        SpeedDecision {
            point: self.guar.quantize(spec.map_or(gss, |s| gss.max(s))),
            ran_pmp: true,
        }
    }

    fn speculation(&self) -> Option<f64> {
        match self.params {
            SchemeParams::Ss1 { spec_speed } => Some(spec_speed),
            SchemeParams::As { .. } => Some(self.spec),
            _ => None,
        }
    }
}

/// Wraps any policy with an energy-efficiency floor: the wrapped policy's
/// speed is raised to at least `floor` (typically
/// [`dvfs_power::efficient_floor`]). With non-negligible static power,
/// running *below* the floor both takes longer and costs more energy —
/// the classic critical-speed correction to pure-dynamic DVS (see
/// `dvfs_power::leakage`).
///
/// Deadline safety is inherited: raising speeds can only finish earlier.
pub struct EnergyFloorPolicy<P> {
    inner: P,
    floor: f64,
    /// `floor` quantized up on the model, once.
    floor_point: OperatingPoint,
    name: String,
}

impl<P: Policy> EnergyFloorPolicy<P> {
    /// Wraps `inner`, flooring every decision at `floor` (normalized
    /// speed), quantized on `model`.
    pub fn new(inner: P, floor: f64, model: &ProcessorModel) -> Self {
        let name = format!("{}+floor", inner.name());
        Self {
            inner,
            floor,
            floor_point: model.quantize_up(floor),
            name,
        }
    }

    /// The active floor speed.
    pub fn floor(&self) -> f64 {
        self.floor
    }
}

impl<P: Policy> Policy for EnergyFloorPolicy<P> {
    fn name(&self) -> &str {
        &self.name
    }

    fn begin_run(&mut self) {
        self.inner.begin_run();
    }

    fn on_or_fired(&mut self, or: NodeId, branch: usize, now: f64) {
        self.inner.on_or_fired(or, branch, now);
    }

    fn speed_for(&mut self, task: NodeId, ctx: &DispatchCtx) -> SpeedDecision {
        let d = self.inner.speed_for(task, ctx);
        if d.point.speed >= self.floor - 1e-12 {
            return d;
        }
        SpeedDecision {
            point: self.floor_point,
            ran_pmp: d.ran_pmp,
        }
    }

    fn speculation(&self) -> Option<f64> {
        self.inner.speculation()
    }
}

/// The fastest level no faster than `s` (or `None` when `s` is below the
/// minimum level). For the continuous model this is `s` itself clamped to
/// the speed range.
fn level_at_or_below(model: &ProcessorModel, s: f64) -> Option<f64> {
    match model.levels() {
        Some(levels) => {
            let f_max = model.max_freq_mhz();
            levels
                .iter()
                .rev()
                .map(|l| l.freq_mhz / f_max)
                .find(|ls| *ls <= s + 1e-12)
        }
        None => {
            if s < model.min_speed() {
                None
            } else {
                Some(s.min(1.0))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use andor_graph::{SectionGraph, Segment};
    use mp_sim::{Realization, SimConfig, Simulator};

    #[test]
    fn scheme_names_parse_back() {
        for s in Scheme::ALL {
            assert_eq!(Scheme::parse(s.name()), Some(s));
        }
        for (alias, s) in [
            ("ss1", Scheme::Ss1),
            ("Ss(1)", Scheme::Ss1),
            ("SS2", Scheme::Ss2),
            ("ss(2)", Scheme::Ss2),
            ("As", Scheme::As),
            ("gSs", Scheme::Gss),
        ] {
            assert_eq!(Scheme::parse(alias), Some(s), "{alias}");
        }
        for bad in ["oracle", "Oracle", "ss3", "ss 1", ""] {
            assert_eq!(Scheme::parse(bad), None, "{bad}");
        }
    }

    #[test]
    fn level_table_quantizes_bit_for_bit_like_the_model() {
        use dvfs_power::SpeedLevel;
        let custom = ProcessorModel::from_levels(
            "custom",
            vec![
                SpeedLevel::new(125.0, 0.7),
                SpeedLevel::new(300.0, 0.95),
                SpeedLevel::new(333.3, 1.1),
                SpeedLevel::new(900.0, 1.3),
                SpeedLevel::new(1100.0, 1.45),
            ],
        )
        .expect("valid custom table");
        let fx = fixture(&chain(1, 10.0, 5.0), 1, 20.0, ProcessorModel::xscale());
        for model in [
            ProcessorModel::transmeta5400(),
            ProcessorModel::xscale(),
            custom,
            ProcessorModel::resolve("continuous:0.2").expect("continuous model"),
        ] {
            let guar = Guarantee::new(&fx.plan, &model, Overheads::none());
            let mut desired: Vec<f64> = (0..=2400).map(|i| f64::from(i) * 5e-4).collect();
            for p in model.discrete_points().unwrap_or_default() {
                desired.extend([p.speed, p.speed - 1e-12, p.speed + 1e-12]);
                desired.extend([p.speed - 2e-12, p.speed + 2e-12]);
            }
            desired.extend([
                0.0,
                -0.0,
                -1.0,
                model.min_speed() * 0.5,
                1.0 + 1e-12,
                1.5,
                1e300,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
            ]);
            for d in desired {
                let (got, want) = (guar.quantize(d), model.quantize_up(d));
                assert_eq!(
                    (got.speed.to_bits(), got.power.to_bits()),
                    (want.speed.to_bits(), want.power.to_bits()),
                    "{}: desired {d:e}",
                    model.name()
                );
            }
        }
    }

    fn chain(n: usize, wcet: f64, acet: f64) -> Segment {
        Segment::seq((0..n).map(|i| Segment::task(format!("t{i}"), wcet, acet)))
    }

    struct Fixture {
        g: andor_graph::AndOrGraph,
        sg: SectionGraph,
        plan: OfflinePlan,
        model: ProcessorModel,
    }

    fn fixture(app: &Segment, m: usize, d: f64, model: ProcessorModel) -> Fixture {
        let g = app.lower().unwrap();
        let sg = SectionGraph::build(&g).unwrap();
        let plan = OfflinePlan::build(&g, &sg, m, d).unwrap();
        Fixture { g, sg, plan, model }
    }

    fn run_worst(fx: &Fixture, scheme: Scheme, overheads: Overheads) -> mp_sim::RunResult {
        let cfg = SimConfig {
            num_procs: fx.plan.num_procs,
            deadline: fx.plan.deadline,
            idle_fraction: 0.05,
            static_fraction: 0.0,
            overheads,
            record_trace: true,
        };
        let sim = Simulator::new(&fx.g, &fx.sg, &fx.plan.dispatch, &fx.model, cfg);
        let mut policy = SchemePolicy::new(scheme, &fx.plan, &fx.model, overheads);
        let real = Realization::worst_case(
            &fx.g,
            fx.sg
                .enumerate_scenarios(&fx.g)
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .map(|(s, _)| s)
                .unwrap(),
        );
        sim.run(&mut policy, &real).expect("run succeeds")
    }

    #[test]
    fn gss_stretches_single_task_to_deadline() {
        let fx = fixture(
            &chain(1, 10.0, 5.0),
            1,
            20.0,
            ProcessorModel::continuous(0.05).unwrap(),
        );
        let res = run_worst(&fx, Scheme::Gss, Overheads::none());
        assert!(!res.missed_deadline);
        assert!((res.finish_time - 20.0).abs() < 1e-9, "{}", res.finish_time);
        // Energy: 20 ms at 0.5³ = 2.5 vs NPM's 10 busy.
        assert!((res.energy.busy_energy() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn gss_greedy_gives_first_task_all_slack() {
        // Two tasks of 5 each, D=15: first runs at 5/(5+5)=0.5, consuming
        // all static slack; the second must run at full speed.
        let fx = fixture(
            &chain(2, 5.0, 5.0),
            1,
            15.0,
            ProcessorModel::continuous(0.05).unwrap(),
        );
        let res = run_worst(&fx, Scheme::Gss, Overheads::none());
        let tr = res.trace.as_ref().unwrap();
        assert!((tr[0].speed - 0.5).abs() < 1e-12);
        assert!((tr[1].speed - 1.0).abs() < 1e-12);
        assert!(!res.missed_deadline);
        assert!((res.finish_time - 15.0).abs() < 1e-9);
    }

    #[test]
    fn gss_quantizes_up_on_discrete_levels() {
        // Desired 0.5 on XScale → 600 MHz (0.6).
        let fx = fixture(&chain(1, 10.0, 5.0), 1, 20.0, ProcessorModel::xscale());
        let res = run_worst(&fx, Scheme::Gss, Overheads::none());
        let tr = res.trace.as_ref().unwrap();
        assert!((tr[0].speed - 0.6).abs() < 1e-12);
        assert!(!res.missed_deadline);
    }

    #[test]
    fn spm_uses_static_slack_only() {
        let fx = fixture(
            &chain(2, 5.0, 1.0),
            1,
            20.0,
            ProcessorModel::continuous(0.05).unwrap(),
        );
        // Tw = 10, D = 20 → static speed 0.5 regardless of task behavior.
        assert_eq!(
            SchemeParams::derive(Scheme::Spm, &fx.plan, &fx.model, Overheads::none()),
            SchemeParams::Spm { static_speed: 0.5 }
        );
        let mut spm = SchemePolicy::new(Scheme::Spm, &fx.plan, &fx.model, Overheads::none());
        let ctx = DispatchCtx {
            now: 3.0,
            current_point: fx.model.max_point(),
            wcet: 5.0,
        };
        let d = spm.speed_for(NodeId(0), &ctx);
        assert!(!d.ran_pmp);
        assert!((d.point.speed - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ss1_floors_at_speculative_speed() {
        // Tw=10, Ta=4, D=20 → spec = 0.2. The first task's GSS desired is
        // 5/(5+10) = 1/3 (its LST is 10), so GSS wins on the first dispatch.
        let fx = fixture(
            &chain(2, 5.0, 2.0),
            1,
            20.0,
            ProcessorModel::continuous(0.05).unwrap(),
        );
        let ss1 = SchemePolicy::new(Scheme::Ss1, &fx.plan, &fx.model, Overheads::none());
        assert!((ss1.speculation().unwrap() - 0.2).abs() < 1e-12);
        let res = run_worst(&fx, Scheme::Ss1, Overheads::none());
        assert!(!res.missed_deadline);
        let tr = res.trace.as_ref().unwrap();
        // GSS desired dominates the 0.2 speculation on every dispatch here.
        assert!((tr[0].speed - 1.0 / 3.0).abs() < 1e-12, "{}", tr[0].speed);
    }

    #[test]
    fn ss1_speculation_beats_greedy_when_later_tasks_abound() {
        // On coarse levels the speculative floor spreads slack; compare the
        // per-task speeds: SS(1) should avoid GSS's slow-then-fast pattern.
        let fx = fixture(&chain(4, 5.0, 4.0), 1, 40.0, ProcessorModel::xscale());
        let gss = run_worst(&fx, Scheme::Gss, Overheads::none());
        let ss1 = run_worst(&fx, Scheme::Ss1, Overheads::none());
        assert!(!gss.missed_deadline && !ss1.missed_deadline);
        let gss_speeds: Vec<f64> = gss
            .trace
            .as_ref()
            .unwrap()
            .iter()
            .map(|e| e.speed)
            .collect();
        let ss1_speeds: Vec<f64> = ss1
            .trace
            .as_ref()
            .unwrap()
            .iter()
            .map(|e| e.speed)
            .collect();
        // GSS's first task is slower than SS(1)'s (greedy takes all slack).
        assert!(gss_speeds[0] <= ss1_speeds[0] + 1e-12);
        // SS(1) speeds never drop below its speculative floor.
        let spec = SchemePolicy::new(Scheme::Ss1, &fx.plan, &fx.model, Overheads::none())
            .speculation()
            .unwrap();
        for s in &ss1_speeds {
            assert!(*s >= spec - 1e-12);
        }
    }

    fn ss2_parameters(fx: &Fixture) -> (f64, f64, f64) {
        match SchemeParams::derive(Scheme::Ss2, &fx.plan, &fx.model, Overheads::none()) {
            SchemeParams::Ss2 {
                low,
                high,
                switch_time,
            } => (low, high, switch_time),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn ss2_parameters_bracket_ideal_and_average_work_fits() {
        // Ta = 18, D = 40 → ideal 0.45 on XScale: s1 = 0.4, s2 = 0.6,
        // θ = (0.6·40 − 18)/(0.6 − 0.4) = 30.
        let fx = fixture(&chain(4, 5.0, 4.5), 1, 40.0, ProcessorModel::xscale());
        let (s1, s2, theta) = ss2_parameters(&fx);
        assert!((s1 - 0.4).abs() < 1e-12, "s1={s1}");
        assert!((s2 - 0.6).abs() < 1e-12, "s2={s2}");
        assert!((theta - 30.0).abs() < 1e-9, "theta={theta}");
        // θ·s1 + (D−θ)·s2 = Ta.
        assert!((theta * s1 + (40.0 - theta) * s2 - 18.0).abs() < 1e-9);
    }

    #[test]
    fn ss2_degenerates_to_single_speed_on_level_match() {
        // Ideal exactly at a level: Ta/D = 0.6 → s1 = s2 = 0.6, θ = 0.
        let fx = fixture(&chain(4, 5.0, 3.0), 1, 20.0, ProcessorModel::xscale());
        let (s1, s2, theta) = ss2_parameters(&fx);
        assert!((s1 - 0.6).abs() < 1e-12);
        assert!((s2 - 0.6).abs() < 1e-12);
        assert_eq!(theta, 0.0);
    }

    #[test]
    fn as_respeculates_after_or() {
        let app = Segment::seq([
            Segment::task("A", 4.0, 2.0),
            Segment::branch([
                (0.5, Segment::task("B", 8.0, 6.0)),
                (0.5, Segment::task("C", 2.0, 1.0)),
            ]),
        ]);
        let fx = fixture(&app, 1, 24.0, ProcessorModel::continuous(0.05).unwrap());
        let mut as_pol = SchemePolicy::new(Scheme::As, &fx.plan, &fx.model, Overheads::none());
        as_pol.begin_run();
        let initial = as_pol.speculation().unwrap();
        assert!((initial - fx.plan.avg_total / 24.0).abs() < 1e-12);
        let or =
            fx.g.iter()
                .find(|(_, n)| n.kind.is_or() && n.succs.len() == 2)
                .unwrap()
                .0;
        as_pol.on_or_fired(or, 0, 10.0);
        // Remaining avg for branch 0 is 6 (B's acet), 14 ms left.
        assert!((as_pol.speculation().unwrap() - 6.0 / 14.0).abs() < 1e-12);
        as_pol.begin_run();
        assert!((as_pol.speculation().unwrap() - initial).abs() < 1e-12);
    }

    #[test]
    fn all_schemes_meet_deadline_at_worst_case() {
        let app = Segment::seq([
            Segment::task("A", 6.0, 3.0),
            Segment::par([Segment::task("B", 5.0, 2.0), Segment::task("C", 7.0, 3.0)]),
            Segment::branch([
                (0.4, Segment::task("D", 9.0, 4.0)),
                (0.6, Segment::task("E", 3.0, 2.0)),
            ]),
        ]);
        for model in [
            ProcessorModel::transmeta5400(),
            ProcessorModel::xscale(),
            ProcessorModel::continuous(0.1).unwrap(),
        ] {
            let fx = fixture(&app, 2, 30.0, model);
            for scheme in Scheme::ALL {
                let res = run_worst(&fx, scheme, Overheads::paper_defaults());
                assert!(
                    !res.missed_deadline,
                    "{} missed: finish {} > {}",
                    scheme.name(),
                    res.finish_time,
                    res.deadline
                );
            }
        }
    }

    #[test]
    fn level_at_or_below_picks_correctly() {
        let xs = ProcessorModel::xscale();
        assert!((level_at_or_below(&xs, 0.55).unwrap() - 0.4).abs() < 1e-12);
        assert!((level_at_or_below(&xs, 0.6).unwrap() - 0.6).abs() < 1e-12);
        assert_eq!(level_at_or_below(&xs, 0.1), None);
        let cont = ProcessorModel::continuous(0.2).unwrap();
        assert!((level_at_or_below(&cont, 0.5).unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(level_at_or_below(&cont, 0.1), None);
    }

    #[test]
    fn energy_floor_raises_slow_decisions() {
        let fx = fixture(
            &chain(1, 10.0, 5.0),
            1,
            40.0,
            ProcessorModel::continuous(0.05).unwrap(),
        );
        // GSS alone would pick 10/40 = 0.25; floor it at 0.5.
        let inner = SchemePolicy::new(Scheme::Gss, &fx.plan, &fx.model, Overheads::none());
        let mut floored = EnergyFloorPolicy::new(inner, 0.5, &fx.model);
        assert_eq!(floored.name(), "GSS+floor");
        assert_eq!(floored.floor(), 0.5);
        let ctx = DispatchCtx {
            now: 0.0,
            current_point: fx.model.max_point(),
            wcet: 10.0,
        };
        let d = floored.speed_for(NodeId(0), &ctx);
        assert!((d.point.speed - 0.5).abs() < 1e-12, "{}", d.point.speed);
        // A fast decision passes through unchanged.
        let ctx_late = DispatchCtx {
            now: 39.0,
            current_point: fx.model.max_point(),
            wcet: 10.0,
        };
        let d = floored.speed_for(NodeId(0), &ctx_late);
        assert_eq!(d.point.speed, 1.0);
    }

    #[test]
    fn floored_policy_still_meets_deadlines_with_leakage() {
        use mp_sim::Realization;
        let fx = fixture(&chain(3, 5.0, 2.0), 2, 30.0, ProcessorModel::xscale());
        let floor = dvfs_power::efficient_floor(&fx.model, 0.3);
        assert!(floor > fx.model.min_speed(), "leakage raises the floor");
        let inner = SchemePolicy::new(Scheme::Gss, &fx.plan, &fx.model, Overheads::none());
        let mut policy = EnergyFloorPolicy::new(inner, floor, &fx.model);
        let cfg = SimConfig {
            num_procs: 2,
            deadline: 30.0,
            idle_fraction: 0.05,
            static_fraction: 0.3,
            overheads: Overheads::none(),
            record_trace: false,
        };
        let sim = Simulator::new(&fx.g, &fx.sg, &fx.plan.dispatch, &fx.model, cfg);
        let scen = fx
            .sg
            .enumerate_scenarios(&fx.g)
            .next()
            .map(|(s, _)| s)
            .unwrap();
        let res = sim
            .run(&mut policy, &Realization::worst_case(&fx.g, scen))
            .expect("run succeeds");
        assert!(!res.missed_deadline);
    }

    #[test]
    fn params_and_policies_name_their_scheme() {
        let app = Segment::seq([
            Segment::task("A", 6.0, 3.0),
            Segment::branch([
                (0.4, Segment::task("D", 9.0, 4.0)),
                (0.6, Segment::task("E", 3.0, 2.0)),
            ]),
        ]);
        for model in [
            ProcessorModel::transmeta5400(),
            ProcessorModel::xscale(),
            ProcessorModel::continuous(0.2).unwrap(),
        ] {
            let fx = fixture(&app, 2, 30.0, model);
            let overheads = Overheads::paper_defaults();
            for scheme in Scheme::ALL {
                let params = SchemeParams::derive(scheme, &fx.plan, &fx.model, overheads);
                assert_eq!(params.scheme(), scheme);
                let policy = SchemePolicy::new(scheme, &fx.plan, &fx.model, overheads);
                assert_eq!(policy.name(), scheme.name());
            }
        }
    }

    #[test]
    fn spm_point_is_the_models_quantized_static_speed() {
        // SPM keeps only its speed; the point it runs at is re-quantized
        // from it, bit for bit the point `quantize_up` gave.
        let ctx = |model: &ProcessorModel| DispatchCtx {
            now: 0.0,
            current_point: model.max_point(),
            wcet: 1.0,
        };
        for model in [
            ProcessorModel::transmeta5400(),
            ProcessorModel::xscale(),
            ProcessorModel::continuous(0.2).unwrap(),
        ] {
            for d in [10.5, 11.0, 12.5, 14.0, 17.0, 20.0, 33.0, 100.0] {
                let fx = fixture(&chain(2, 5.0, 2.0), 1, d, model.clone());
                let overheads = Overheads::paper_defaults();
                let mut spm = SchemePolicy::new(Scheme::Spm, &fx.plan, &fx.model, overheads);
                let effective = fx.plan.deadline - overheads.transition_time_ms;
                let want = model.quantize_up(fx.plan.worst_total / effective);
                let got = spm.speed_for(NodeId(0), &ctx(&model)).point;
                assert_eq!(
                    (got.speed.to_bits(), got.power.to_bits()),
                    (want.speed.to_bits(), want.power.to_bits()),
                    "{} at D = {d}",
                    model.name()
                );
            }
        }
    }

    #[test]
    fn scheme_metadata() {
        assert_eq!(Scheme::ALL.len(), 6);
        assert_eq!(Scheme::MANAGED.len(), 5);
        assert_eq!(Scheme::Gss.to_string(), "GSS");
        assert_eq!(Scheme::Ss2.name(), "SS(2)");
    }
}
