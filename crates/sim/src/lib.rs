#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::indexing_slicing))]

//! Deterministic multi-processor execution engine for AND/OR applications.
//!
//! This crate substitutes the simulator the authors of Zhu et al., ICPP'02
//! used for their evaluation (never released). It reproduces the on-line
//! semantics of the paper's Figure 2 exactly, as a deterministic
//! discrete-event simulation rather than a threaded runtime:
//!
//! * a single global ready queue ordered by the *canonical execution order*
//!   computed off-line; processors dispatch strictly in that order
//!   (a processor whose head-of-queue task is not the next expected one
//!   sleeps and is signalled when the expected task becomes ready);
//! * AND/OR synchronization nodes are dummy tasks with zero execution time;
//!   OR nodes fire only when their whole program section has drained ("all
//!   the processors synchronize at an OR node") and then select one branch;
//! * per-dispatch speed decisions are delegated to a [`Policy`] — the six
//!   schemes of the paper live in the `pas-core` crate; this crate only
//!   ships the trivial [`MaxSpeed`] baseline (NPM);
//! * speed-computation and voltage-transition overheads are charged in both
//!   time and energy, idle processors burn the configured fraction of
//!   maximum power, and every run produces per-processor
//!   [`dvfs_power::EnergyMeter`]s plus an optional schedule trace.
//!
//! Determinism: a run is a pure function of the *realization* (OR choices +
//! actual execution times, drawn once per Monte-Carlo iteration by
//! [`Realization::sample`]) and the policy. Comparing schemes on the same
//! realization gives the paired design the paper's figures rely on.

pub mod batch;
pub mod engine;
pub mod error;
pub mod fault;
pub mod literal;
pub mod policy;
pub mod realization;
pub mod stream;
pub mod trace;

pub use batch::{
    realization_seed, run_batch, run_paired, BatchConfig, BatchDistribution, BatchOutput, Lane,
    MetricDistribution, RunColumns,
};
pub use engine::{DispatchOrder, RunResult, RunScratch, SimConfig, Simulator, TraceEntry};
pub use error::SimError;
pub use fault::{DeadlineStatus, FaultPlan, FaultPlanError, FaultReport, FaultSet};
pub use literal::{run_literal, LiteralResult};
pub use policy::{DispatchCtx, MaxSpeed, Policy, SpeedDecision};
pub use realization::{DrawTable, ExecDraw, ExecTimeModel, Realization};
pub use stream::{run_stream, StreamResult};
pub use trace::trace_from_events;
// The observability layer the engine streams into (see `run_into`).
pub use pas_obs::{
    ChromeSink, EnergyLedger, EventLog, Fanout, Filtered, JsonlSink, MetricsRegistry, Observer,
    RingLog, SectionKey, SectionSlice, SectionedLedger, SimEvent,
};
