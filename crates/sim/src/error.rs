//! Typed simulation errors.
//!
//! The engine used to panic on malformed inputs (dispatch orders that
//! violate dependencies, realizations that leave an OR unresolved). Those
//! conditions are reachable from user-supplied workload files, so they
//! surface as [`SimError`] values and propagate up through the harness
//! and CLI instead.

use std::fmt;

/// Why a simulation run could not be carried out.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The dispatch order schedules a node before one of its
    /// predecessors has finished.
    DependencyViolation {
        /// The node that was dispatched too early.
        node: String,
        /// The predecessor that had not finished.
        pred: String,
    },
    /// The dispatch order breaks [`crate::DispatchOrder::check`]: it
    /// names a node outside the graph, an OR node, or a node twice.
    BadDispatchOrder {
        /// The offending entry.
        detail: String,
    },
    /// A run was given the wrong number of `initial` operating points.
    InitialPointCount {
        /// One point per processor.
        expected: usize,
        /// What the caller supplied.
        got: usize,
    },
    /// The realization does not resolve a reachable OR node's choice.
    UnresolvedOr {
        /// Name of the OR node with no recorded branch decision.
        or: String,
    },
    /// An OR branch has no program section (graph/plan mismatch, e.g. a
    /// plan deserialized against a different application).
    MissingBranchSection {
        /// Name of the OR node.
        or: String,
        /// The branch index with no section.
        branch: usize,
    },
    /// The event-driven interpreter ran out of events with work left —
    /// the dispatch order and the graph disagree.
    Stalled,
    /// A fault plan failed validation (probability outside `[0, 1]`,
    /// overrun factor below 1, negative stall duration, ...).
    BadFaultPlan {
        /// What was wrong.
        detail: String,
    },
    /// A trace analysis was asked a malformed question (zero processors,
    /// non-positive horizon, mismatched input lengths, ...).
    BadTraceQuery {
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::DependencyViolation { node, pred } => write!(
                f,
                "dispatch order violates dependencies: '{node}' dispatched before \
                 predecessor '{pred}' finished"
            ),
            SimError::BadDispatchOrder { detail } => write!(f, "invalid dispatch order: {detail}"),
            SimError::InitialPointCount { expected, got } => write!(
                f,
                "expected {expected} initial operating points (one per processor), got {got}"
            ),
            SimError::UnresolvedOr { or } => {
                write!(f, "realization does not resolve OR node '{or}'")
            }
            SimError::MissingBranchSection { or, branch } => {
                write!(f, "OR node '{or}' branch {branch} has no program section")
            }
            SimError::Stalled => {
                write!(f, "simulation stalled: no events pending but work remains")
            }
            SimError::BadFaultPlan { detail } => write!(f, "invalid fault plan: {detail}"),
            SimError::BadTraceQuery { detail } => write!(f, "invalid trace query: {detail}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offenders() {
        let e = SimError::DependencyViolation {
            node: "B".into(),
            pred: "A".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("'B'") && msg.contains("'A'"), "{msg}");
        assert!(SimError::Stalled.to_string().contains("stalled"));
        let e = SimError::BadFaultPlan {
            detail: "overrun_prob = 2".into(),
        };
        assert!(e.to_string().contains("overrun_prob"), "{e}");
    }
}
