//! The speed-policy interface between the engine and the scheduling schemes.

use crate::error::SimError;
use crate::realization::Realization;
use andor_graph::NodeId;
use dvfs_power::OperatingPoint;

/// Context handed to a policy when a computation task is dispatched.
#[derive(Debug, Clone, Copy)]
pub struct DispatchCtx {
    /// Current simulation time (ms) — the task's dispatch instant.
    pub now: f64,
    /// The operating point the chosen processor is currently set to.
    pub current_point: OperatingPoint,
    /// The task's worst-case execution time at maximum speed (ms).
    pub wcet: f64,
}

/// A policy's answer for one dispatch.
#[derive(Debug, Clone, Copy)]
pub struct SpeedDecision {
    /// The operating point to execute the task at.
    pub point: OperatingPoint,
    /// Whether the policy executed power-management-point code to make this
    /// decision. If `true`, the engine charges the speed-computation
    /// overhead (NPM never pays it; the dynamic schemes pay it per task).
    pub ran_pmp: bool,
}

/// A per-task speed selection scheme (the paper's NPM/SPM/GSS/SS/AS live
/// behind this trait in `pas-core`).
///
/// Policies are stateful: the speculative schemes track the remaining-work
/// estimate; [`Policy::begin_run`] resets state between Monte-Carlo
/// iterations, and [`Policy::on_or_fired`] lets the adaptive scheme
/// re-speculate after each OR synchronization node.
pub trait Policy {
    /// Short display name, e.g. `"GSS"`.
    fn name(&self) -> &str;

    /// Shows the policy the realization a run is about to execute. Called
    /// once per run, just before [`Policy::begin_run`]. On-line schemes
    /// must not look; only the clairvoyant oracle (`pas-core`) does, to
    /// measure the realization's full-speed makespan.
    ///
    /// # Errors
    ///
    /// A [`SimError`] from that measurement; the run fails with it.
    fn peek_realization(&mut self, _real: &Realization) -> Result<(), SimError> {
        Ok(())
    }

    /// Resets any per-run state. Called once before each simulation run.
    fn begin_run(&mut self) {}

    /// Chooses the operating point for `task` dispatched under `ctx`.
    fn speed_for(&mut self, task: NodeId, ctx: &DispatchCtx) -> SpeedDecision;

    /// Notification that OR node `or` fired at `now` selecting `branch`.
    fn on_or_fired(&mut self, _or: NodeId, _branch: usize, _now: f64) {}

    /// The normalized speed a speculative policy currently assumes for
    /// future work (`None` for non-speculative policies). Purely
    /// observational: the engine reads it after [`Policy::begin_run`] and
    /// after each [`Policy::on_or_fired`] to emit `SpeculationUpdate`
    /// events; it never feeds back into scheduling.
    fn speculation(&self) -> Option<f64> {
        None
    }
}

/// The no-power-management baseline: every task at maximum speed, no PMP
/// code, no speed changes. Figures normalize against this scheme.
#[derive(Debug, Clone, Default)]
pub struct MaxSpeed;

impl Policy for MaxSpeed {
    fn name(&self) -> &str {
        "NPM"
    }

    fn speed_for(&mut self, _task: NodeId, _ctx: &DispatchCtx) -> SpeedDecision {
        SpeedDecision {
            point: OperatingPoint {
                speed: 1.0,
                power: 1.0,
            },
            ran_pmp: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_speed_is_stateless_full_speed() {
        let mut p = MaxSpeed;
        assert_eq!(p.name(), "NPM");
        let ctx = DispatchCtx {
            now: 0.0,
            current_point: OperatingPoint {
                speed: 0.5,
                power: 0.2,
            },
            wcet: 3.0,
        };
        let d = p.speed_for(NodeId(0), &ctx);
        assert_eq!(d.point.speed, 1.0);
        assert_eq!(d.point.power, 1.0);
        assert!(!d.ran_pmp);
        // Default hooks are no-ops.
        p.peek_realization(&Realization::default())
            .expect("the default peek never fails");
        p.begin_run();
        p.on_or_fired(NodeId(1), 0, 5.0);
    }
}
