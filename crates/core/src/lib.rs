#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! Power-aware scheduling of AND/OR applications on multiprocessors —
//! the primary contribution of Zhu et al., ICPP'02.
//!
//! The crate implements both phases of the paper's scheduler:
//!
//! **Off-line phase** ([`offline`]): for each program section, a *canonical
//! schedule* is generated with longest-task-first (LTF) list scheduling,
//! every task assuming its worst-case execution time at maximum speed. From
//! the canonical schedules the phase derives
//!
//! * the global dispatch order the on-line phase must preserve,
//! * the application's worst/average finish times (`Tw`, `Ta`) stored at the
//!   initial power management point,
//! * per-OR-branch worst/average remaining times (`Tw_k`, `Ta_k`) stored at
//!   the PMPs before each OR node, and
//! * each task's *latest start time* (`LST_i`) — the canonical schedules
//!   shifted right so the worst case finishes exactly at the deadline
//!   (recursively across embedded OR nodes).
//!
//! If the worst path cannot meet the deadline the phase fails
//! ([`PlanError::Infeasible`]).
//!
//! **On-line phase** ([`policies`]): six speed-selection schemes, each
//! defined by its [`SchemeParams`] and run by one [`SchemePolicy`] behind
//! the engine's [`mp_sim::Policy`] trait:
//!
//! | scheme | description |
//! |--------|-------------|
//! | NPM    | no power management (baseline) |
//! | SPM    | one static speed from static slack only |
//! | GSS    | greedy slack sharing — the paper's Figure-2 algorithm |
//! | SS(1)  | static speculation, single speed floor `Ta/D` |
//! | SS(2)  | static speculation, two speeds around the ideal `Ta/D` |
//! | AS     | adaptive speculation after every OR node |
//!
//! Every dynamic scheme lower-bounds its speculative speed by the
//! GSS-guaranteed speed, so Theorem 1's deadline guarantee carries over.
//! Speed-change and speed-computation overheads are *reserved out of the
//! claimed slack* before slowing down, keeping the guarantee valid with
//! overheads enabled.
//!
//! [`harness::Setup`] bundles graph + plan + platform into a ready-to-run
//! experiment configuration.

pub mod artifact;
pub mod digest;
pub mod exhaustive;
pub mod harness;
pub mod offline;
pub mod oracle;
pub mod policies;

pub use artifact::{PlanArtifact, PLAN_SCHEMA_VERSION};
pub use digest::sha256_hex;
pub use exhaustive::{optimal_assignment, AssignmentPolicy, OptimalAssignment};
pub use harness::{pmp_reserve, Setup, SetupError};
pub use offline::{BranchTable, CanonicalPlan, OfflineError, OfflinePlan, PlanError, MAX_PROCS};
pub use oracle::OraclePolicy;
pub use policies::{EnergyFloorPolicy, Scheme, SchemeParams, SchemePolicy};
