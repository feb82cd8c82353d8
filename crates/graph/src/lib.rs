#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! The extended AND/OR application model of Zhu et al., ICPP'02 §2.1.
//!
//! A real-time application is a DAG `G = (V, E)` whose vertices are of three
//! kinds:
//!
//! * **computation nodes** — real tasks with a worst-case execution time
//!   (WCET, `c_i`) and an average-case execution time (ACET, `a_i`), both
//!   expressed at maximum processor speed;
//! * **AND synchronization nodes** — dummy tasks that depend on *all* their
//!   predecessors and release *all* their successors (parallel fork/join);
//! * **OR synchronization nodes** — dummy tasks that depend on *one* of their
//!   predecessors and release exactly *one* of their successors, selected at
//!   run time with a known a-priori probability per branch (control flow).
//!
//! The paper's structural simplification — "an OR node cannot be processed
//! concurrently with other paths; all the processors synchronize at an OR
//! node" — is enforced by [`AndOrGraph::validate`]: OR nodes partition the
//! graph into *program sections* (see [`sections`]) that execute one at a
//! time, which is precisely what the offline phase of the scheduler needs to
//! build its per-section canonical schedules.
//!
//! The crate provides:
//!
//! * a flat, validated graph representation ([`AndOrGraph`], [`GraphBuilder`]);
//! * program-section decomposition ([`sections::SectionGraph`]);
//! * execution-scenario enumeration and probabilistic sampling
//!   ([`scenario`]) — a *scenario* resolves every reachable OR decision;
//! * a hierarchical construction API ([`structure::Segment`]) with loop
//!   expansion, which lowers series/parallel/branch/loop program structure to
//!   a flat graph that is valid by construction;
//! * serde (JSON) round-tripping of graphs.
//!
//! Time unit: milliseconds at maximum speed, consistently with `dvfs-power`.

pub mod analysis;
pub mod dot;
pub mod graph;
pub mod node;
pub mod scenario;
pub mod sections;
pub mod structure;

pub use analysis::{app_profile, scenario_profile, AppProfile, ScenarioProfile};
pub use dot::to_dot;
pub use graph::{AndOrGraph, GraphBuilder, GraphError, OR_PROB_TOLERANCE};
pub use node::{Node, NodeId, NodeKind};
pub use scenario::{Scenario, ScenarioIter};
pub use sections::{Section, SectionGraph, SectionId};
pub use structure::Segment;
