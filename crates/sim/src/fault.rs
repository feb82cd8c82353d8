//! Seeded, deterministic fault injection.
//!
//! A [`FaultPlan`] describes *how often* things go wrong; realizing it
//! against a graph yields a [`FaultSet`] that pins *which* nodes go wrong
//! in one run. Faults are drawn per node — never per dispatch event — so
//! the set is identical regardless of the order in which the engine
//! happens to visit nodes, and two schemes fed the same `FaultSet` face
//! exactly the same adversity (the paired Monte-Carlo design extends to
//! faults).
//!
//! Three fault classes are modeled:
//!
//! * **Execution-time overrun** — the task's actual execution time
//!   exceeds its WCET by a configurable factor (a broken WCET bound, the
//!   case the paper's schemes explicitly do *not* budget for).
//! * **Speed-change failure** — a commanded DVS transition silently
//!   clamps to the old operating point: the transition delay and energy
//!   are still paid, but the processor keeps running at its previous
//!   speed.
//! * **Transient stall** — the processor hangs for a fixed duration
//!   before starting the task (e.g. an SEU-triggered pipeline flush and
//!   replay), drawing idle power.

use crate::error::SimError;
use andor_graph::AndOrGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One range a [`FaultPlan`] breaks. The message names the field and its
/// value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPlanError {
    /// A fault probability (field name, value) outside `[0, 1]`.
    Probability(&'static str, f64),
    /// An overrun factor below 1 or not finite.
    OverrunFactor(f64),
    /// A negative or non-finite stall duration.
    StallMs(f64),
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::Probability(field, p) => {
                write!(f, "{field} = {p} is not a probability in [0, 1]")
            }
            FaultPlanError::OverrunFactor(v) => {
                write!(f, "overrun_factor = {v} must be finite and >= 1")
            }
            FaultPlanError::StallMs(v) => write!(f, "stall_ms = {v} must be finite and >= 0"),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// Stochastic fault model: per-node probabilities plus a seed.
///
/// All probabilities are independent per computation node; synchronization
/// (dummy) nodes never fault. The plan is pure data — serialize it next to
/// the experiment config to make a faulty run reproducible.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Probability that a computation node overruns its WCET.
    pub overrun_prob: f64,
    /// Multiplier applied to the WCET when a node overruns (`>= 1`).
    /// The node's actual execution time becomes `wcet * overrun_factor`.
    pub overrun_factor: f64,
    /// Probability that a speed change commanded at a node's dispatch
    /// silently fails (operating point stays at the old level).
    pub speed_fail_prob: f64,
    /// Probability that the processor stalls before executing a node.
    pub stall_prob: f64,
    /// Duration of one transient stall, in milliseconds.
    pub stall_ms: f64,
    /// Base seed; mixed with the run index in [`FaultPlan::realize`].
    pub seed: u64,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a CLI/config default).
    pub fn none() -> Self {
        FaultPlan {
            overrun_prob: 0.0,
            overrun_factor: 1.0,
            speed_fail_prob: 0.0,
            stall_prob: 0.0,
            stall_ms: 0.0,
            seed: 0,
        }
    }

    /// Overruns only — the sweep axis of experiment E5.
    pub fn overruns(prob: f64, factor: f64, seed: u64) -> Self {
        FaultPlan {
            overrun_prob: prob,
            overrun_factor: factor,
            ..FaultPlan::none()
        }
        .with_seed(seed)
    }

    /// Returns the plan with a different base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// True when no fault class has positive probability.
    pub fn is_none(&self) -> bool {
        self.overrun_prob <= 0.0 && self.speed_fail_prob <= 0.0 && self.stall_prob <= 0.0
    }

    /// Every range the plan breaks, in field order: probabilities in
    /// `[0, 1]` (PAS0201), `overrun_factor >= 1` (PAS0202), `stall_ms >= 0`
    /// (PAS0203), everything finite. Empty for a valid plan.
    pub fn errors(&self) -> Vec<FaultPlanError> {
        let mut errors = Vec::new();
        for (field, p) in [
            ("overrun_prob", self.overrun_prob),
            ("speed_fail_prob", self.speed_fail_prob),
            ("stall_prob", self.stall_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                errors.push(FaultPlanError::Probability(field, p));
            }
        }
        if !self.overrun_factor.is_finite() || self.overrun_factor < 1.0 {
            errors.push(FaultPlanError::OverrunFactor(self.overrun_factor));
        }
        if !self.stall_ms.is_finite() || self.stall_ms < 0.0 {
            errors.push(FaultPlanError::StallMs(self.stall_ms));
        }
        errors
    }

    /// The first of [`FaultPlan::errors`], as a [`SimError`].
    pub fn validate(&self) -> Result<(), SimError> {
        match self.errors().first() {
            Some(e) => Err(SimError::BadFaultPlan {
                detail: e.to_string(),
            }),
            None => Ok(()),
        }
    }

    /// Draws the concrete faults for one run.
    ///
    /// Deterministic in `(plan, graph size, run_index)`: the RNG is seeded
    /// from `seed` mixed with `run_index`, and one fixed-size block of
    /// draws is consumed per node in index order, so the outcome does not
    /// depend on dispatch order or on which other fault classes are
    /// enabled.
    pub fn realize(&self, g: &AndOrGraph, run_index: u64) -> FaultSet {
        let mut set = FaultSet::empty(0);
        self.realize_into(g, run_index, &mut set);
        set
    }

    /// [`FaultPlan::realize`] into `set`, reusing its storage: the
    /// result equals a fresh `realize` whatever `set` held before.
    pub fn realize_into(&self, g: &AndOrGraph, run_index: u64, set: &mut FaultSet) {
        let mut rng = StdRng::seed_from_u64(
            self.seed
                ^ run_index
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(1),
        );
        // Every slot is overwritten below, so resizing is all the reset.
        let n = g.len();
        set.overrun.resize(n, None);
        set.speed_fail.resize(n, false);
        set.stall.resize(n, None);
        let slots = set
            .overrun
            .iter_mut()
            .zip(&mut set.speed_fail)
            .zip(&mut set.stall);
        for (node, ((overrun, speed_fail), stall)) in g.nodes().iter().zip(slots) {
            // Always consume three uniform draws per node, so toggling one
            // fault class never reshuffles the others.
            let u_over: f64 = rng.gen_range(0.0..1.0);
            let u_speed: f64 = rng.gen_range(0.0..1.0);
            let u_stall: f64 = rng.gen_range(0.0..1.0);
            let comp = node.kind.is_computation();
            *overrun = (comp && u_over < self.overrun_prob).then_some(self.overrun_factor);
            *speed_fail = comp && u_speed < self.speed_fail_prob;
            *stall =
                (comp && u_stall < self.stall_prob && self.stall_ms > 0.0).then_some(self.stall_ms);
        }
    }
}

/// One run's concrete faults, indexed by node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSet {
    /// `Some(factor)` if the node overruns: actual time becomes
    /// `wcet * factor`.
    overrun: Vec<Option<f64>>,
    /// True if the speed change commanded at this node's dispatch fails.
    speed_fail: Vec<bool>,
    /// `Some(duration_ms)` if the processor stalls before this node.
    stall: Vec<Option<f64>>,
}

impl FaultSet {
    /// A set with no faults, sized for a graph with `n` nodes.
    pub fn empty(n: usize) -> Self {
        FaultSet {
            overrun: vec![None; n],
            speed_fail: vec![false; n],
            stall: vec![None; n],
        }
    }

    /// Overrun factor for `node`, if it overruns.
    pub fn overrun(&self, node: usize) -> Option<f64> {
        self.overrun.get(node).copied().flatten()
    }

    /// Whether the speed change at `node`'s dispatch fails.
    pub fn speed_fail(&self, node: usize) -> bool {
        self.speed_fail.get(node).copied().unwrap_or(false)
    }

    /// Stall duration before `node`, if the processor stalls.
    pub fn stall(&self, node: usize) -> Option<f64> {
        self.stall.get(node).copied().flatten()
    }

    /// True when the set injects nothing.
    pub fn is_empty(&self) -> bool {
        self.overrun.iter().all(Option::is_none)
            && self.speed_fail.iter().all(|&b| !b)
            && self.stall.iter().all(Option::is_none)
    }

    /// Number of nodes that fault in any class.
    pub fn injected(&self) -> usize {
        (0..self.overrun.len())
            .filter(|&i| self.overrun(i).is_some() || self.speed_fail(i) || self.stall(i).is_some())
            .count()
    }
}

/// What the engine observed and did about faults in one run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultReport {
    /// WCET overruns injected on dispatched nodes.
    pub overruns_injected: u64,
    /// Speed-change failures injected (only counted when a change was
    /// actually commanded and clamped).
    pub speed_failures_injected: u64,
    /// Transient stalls injected on dispatched nodes.
    pub stalls_injected: u64,
    /// Budget overruns the engine detected at task completion (covers
    /// injected overruns and speed failures slow enough to breach the
    /// policy's reservation).
    pub overruns_detected: u64,
    /// Recovery escalations performed (processor forced to `f_max`).
    pub recoveries: u64,
    /// Extra energy (mJ) attributable to recovery: escalation
    /// transitions plus the premium of running contained tasks at
    /// `f_max` instead of the policy's requested point.
    pub recovery_energy: f64,
}

impl FaultReport {
    /// Total faults injected across all classes.
    pub fn total_injected(&self) -> u64 {
        self.overruns_injected + self.speed_failures_injected + self.stalls_injected
    }

    /// True when nothing was injected and nothing was detected.
    pub fn is_clean(&self) -> bool {
        self.total_injected() == 0 && self.overruns_detected == 0 && self.recoveries == 0
    }

    /// Accumulates another report (for aggregating across replications).
    pub fn absorb(&mut self, other: &FaultReport) {
        self.overruns_injected += other.overruns_injected;
        self.speed_failures_injected += other.speed_failures_injected;
        self.stalls_injected += other.stalls_injected;
        self.overruns_detected += other.overruns_detected;
        self.recoveries += other.recoveries;
        self.recovery_energy += other.recovery_energy;
    }
}

/// Whether a run met its deadline, and by how much.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DeadlineStatus {
    /// Finished at or before the deadline with this much slack (ms).
    Met {
        /// `deadline - finish_time`, non-negative.
        slack: f64,
    },
    /// Finished late by this much (ms).
    Missed {
        /// `finish_time - deadline`, positive.
        by: f64,
    },
}

impl DeadlineStatus {
    /// Classifies a finish time against a deadline. Uses the same
    /// tolerance as the engine's historical `missed_deadline` flag so the
    /// two never disagree.
    pub fn classify(finish_time: f64, deadline: f64) -> Self {
        if finish_time > deadline * (1.0 + 1e-9) + 1e-9 {
            DeadlineStatus::Missed {
                by: finish_time - deadline,
            }
        } else {
            DeadlineStatus::Met {
                slack: (deadline - finish_time).max(0.0),
            }
        }
    }

    /// True when the deadline was met.
    pub fn met(&self) -> bool {
        matches!(self, DeadlineStatus::Met { .. })
    }

    /// Milliseconds late; zero when the deadline was met.
    pub fn missed_by(&self) -> f64 {
        match self {
            DeadlineStatus::Met { .. } => 0.0,
            DeadlineStatus::Missed { by } => *by,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use andor_graph::GraphBuilder;

    fn chain(n: usize) -> AndOrGraph {
        let mut b = GraphBuilder::new();
        let mut prev = None;
        for i in 0..n {
            let t = b.task(format!("t{i}"), 10.0, 6.0);
            if let Some(p) = prev {
                b.edge(p, t).expect("chain edge is valid");
            }
            prev = Some(t);
        }
        b.build().expect("chain builds")
    }

    #[test]
    fn realize_is_deterministic_and_order_free() {
        let g = chain(64);
        let plan = FaultPlan {
            overrun_prob: 0.3,
            overrun_factor: 1.5,
            speed_fail_prob: 0.2,
            stall_prob: 0.1,
            stall_ms: 2.0,
            seed: 42,
        };
        let a = plan.realize(&g, 7);
        let b = plan.realize(&g, 7);
        assert_eq!(a, b);
        let c = plan.realize(&g, 8);
        assert_ne!(a, c, "different run index must draw different faults");
    }

    #[test]
    fn realize_into_a_reused_set_equals_a_fresh_realize() {
        let plan = FaultPlan {
            overrun_prob: 0.9,
            overrun_factor: 1.5,
            speed_fail_prob: 0.9,
            stall_prob: 0.9,
            stall_ms: 2.0,
            seed: 42,
        };
        // A fork of `n` tasks between two AND nodes, which never fault.
        let fork = |n: usize| {
            let mut b = GraphBuilder::new();
            let (f, j) = (b.and("F"), b.and("J"));
            for i in 0..n {
                let t = b.task(format!("t{i}"), 10.0, 6.0);
                b.edge(f, t).expect("fork edge is valid");
                b.edge(t, j).expect("join edge is valid");
            }
            b.build().expect("fork builds")
        };
        let mut set = FaultSet::empty(0);
        // Grow, shrink and grow again, over slots that switch between
        // tasks and AND nodes, so stale entries would show.
        for (g, run) in [
            (chain(64), 7),
            (fork(8), 8),
            (chain(128), 9),
            (chain(1), 10),
            (fork(70), 7),
        ] {
            plan.realize_into(&g, run, &mut set);
            assert_eq!(set, plan.realize(&g, run), "{} nodes, run {run}", g.len());
        }
    }

    #[test]
    fn disabling_one_class_leaves_others_unchanged() {
        let g = chain(128);
        let full = FaultPlan {
            overrun_prob: 0.4,
            overrun_factor: 2.0,
            speed_fail_prob: 0.4,
            stall_prob: 0.4,
            stall_ms: 1.0,
            seed: 9,
        };
        let only_overruns = FaultPlan {
            speed_fail_prob: 0.0,
            stall_prob: 0.0,
            ..full.clone()
        };
        let a = full.realize(&g, 0);
        let b = only_overruns.realize(&g, 0);
        for i in 0..g.len() {
            assert_eq!(a.overrun(i), b.overrun(i), "node {i}");
        }
        assert!(b.speed_fail == vec![false; g.len()]);
    }

    #[test]
    fn zero_probability_plan_is_empty() {
        let g = chain(32);
        let set = FaultPlan::none().realize(&g, 3);
        assert!(set.is_empty());
        assert_eq!(set.injected(), 0);
        assert!(FaultPlan::none().is_none());
    }

    #[test]
    fn probability_one_faults_every_computation_node() {
        let g = chain(16);
        let plan = FaultPlan {
            overrun_prob: 1.0,
            overrun_factor: 1.25,
            speed_fail_prob: 1.0,
            stall_prob: 1.0,
            stall_ms: 0.5,
            seed: 1,
        };
        let set = plan.realize(&g, 0);
        for i in 0..g.len() {
            assert_eq!(set.overrun(i), Some(1.25));
            assert!(set.speed_fail(i));
            assert_eq!(set.stall(i), Some(0.5));
        }
        assert_eq!(set.injected(), g.len());
    }

    #[test]
    fn validate_rejects_bad_ranges() {
        let mut p = FaultPlan::none();
        p.overrun_prob = 1.5;
        assert!(matches!(p.validate(), Err(SimError::BadFaultPlan { .. })));
        let mut p = FaultPlan::none();
        p.overrun_factor = 0.5;
        assert!(p.validate().is_err());
        let mut p = FaultPlan::none();
        p.stall_ms = -1.0;
        assert!(p.validate().is_err());
        assert!(FaultPlan::overruns(0.1, 2.0, 5).validate().is_ok());
    }

    #[test]
    fn deadline_status_roundtrip() {
        let met = DeadlineStatus::classify(90.0, 100.0);
        assert!(met.met());
        assert_eq!(met.missed_by(), 0.0);
        assert_eq!(met, DeadlineStatus::Met { slack: 10.0 });

        let missed = DeadlineStatus::classify(104.0, 100.0);
        assert!(!missed.met());
        assert!((missed.missed_by() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn report_absorb_accumulates() {
        let mut a = FaultReport {
            overruns_injected: 1,
            recovery_energy: 2.0,
            ..FaultReport::default()
        };
        let b = FaultReport {
            overruns_injected: 2,
            recoveries: 1,
            recovery_energy: 0.5,
            ..FaultReport::default()
        };
        a.absorb(&b);
        assert_eq!(a.overruns_injected, 3);
        assert_eq!(a.recoveries, 1);
        assert!((a.recovery_energy - 2.5).abs() < 1e-12);
        assert!(!a.is_clean());
        assert!(FaultReport::default().is_clean());
    }
}
