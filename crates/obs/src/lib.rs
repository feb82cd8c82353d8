#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # pas-obs — observability for the AND/OR scheduling stack
//!
//! The engine in `mp-sim` computes energy and timing as end-of-run
//! aggregates; this crate makes the *path* to those aggregates visible.
//! It defines:
//!
//! * [`SimEvent`] — a typed event stream covering every schedule action
//!   the engine takes (dispatches, completions, speed changes, slack
//!   reclamation, OR branching, speculation updates, fault
//!   injection/detection/recovery, idle windows). Every event that costs
//!   energy carries its exact attribution, split into dynamic and leakage
//!   components, so downstream accounting is pure summation.
//! * [`Observer`] — the sink trait the engine feeds. Wiring is
//!   zero-overhead when disabled: without an observer (and outside debug
//!   builds) the engine skips event construction entirely.
//! * [`EventLog`] — the trivial record-everything observer.
//! * [`MetricsRegistry`] — counters, gauges and time-weighted histograms
//!   derived from the stream (speed-change counts, slack-reclamation
//!   totals, per-processor busy/idle time, fault tallies).
//! * [`EnergyLedger`] — attributes every joule to
//!   {busy, idle, speed-change overhead, leakage, fault recovery} and
//!   checks the total against `RunResult::total_energy()` to within
//!   1e-9 relative error. The engine enforces this invariant on every
//!   debug-build run.
//! * [`SectionedLedger`] — the same attribution sliced per program
//!   section / OR branch taken, segmented by the
//!   [`SimEvent::OrBranchTaken`] boundaries in the stream; slices sum to
//!   the global total within the same tolerance.
//! * [`export`] — the JSONL parser and the task-label fallback shared
//!   by the exporters; the writers are the streaming sinks below and
//!   [`MetricsRegistry::to_csv`].
//! * [`profile`] — a span-based wall-clock profiler for the offline
//!   phase (`pas plan --profile`), with its own Chrome-trace exporter.
//! * [`log`] — a process-global structured JSONL logger (levels,
//!   correlation ids, bounded in-memory ring) behind the same
//!   disabled-by-default gate as the profiler; `pas serve --log` wires
//!   it.
//! * streaming sinks ([`JsonlSink`], [`ChromeSink`], [`RingLog`],
//!   [`Fanout`], [`Filtered`]) — incremental consumers with O(1) event
//!   memory, for runs too long to buffer — all sharing the bounded
//!   [`Window`] ring. [`JsonlSink`] and [`ChromeSink`] are the only
//!   JSONL and Chrome trace-event writers; a buffered log is exported
//!   by replaying it into one.
//!
//! The crate is deliberately independent of the engine: events are plain
//! data, so exporters and accounting can run in-process (streaming) or
//! after the fact from a serialized log.
//!
//! # Examples
//!
//! Events are plain data — any [`Observer`] can be driven by hand, and
//! the derived views (registry, ledger) are pure summation over the
//! stream:
//!
//! ```
//! use andor_graph::NodeId;
//! use pas_obs::{EnergyLedger, MetricsRegistry, Observer, SimEvent};
//!
//! let events = [
//!     SimEvent::TaskDispatch {
//!         t: 0.0, node: NodeId(0), proc: 0, wcet: 8.0, speed: 1.0,
//!         pmp_ms: 0.0, pmp_energy: 0.0, pmp_leakage: 0.0,
//!     },
//!     SimEvent::TaskComplete {
//!         t: 5.0, node: NodeId(0), proc: 0, start: 0.0, exec_ms: 5.0,
//!         speed: 1.0, energy: 5.0, leakage: 0.0, recovery_premium: 0.0,
//!     },
//! ];
//! let mut registry = MetricsRegistry::new();
//! let mut ledger = EnergyLedger::new();
//! for e in &events {
//!     registry.on_event(e);
//!     ledger.on_event(e);
//! }
//! assert_eq!(registry.counter("tasks.dispatched"), 1);
//! assert_eq!(ledger.total(), 5.0);
//! assert!(ledger.verify(5.0).is_ok());
//! ```
//!
//! Round-tripping a stream through the JSONL sink:
//!
//! ```
//! use pas_obs::{export, JsonlSink, Observer};
//! # use andor_graph::NodeId;
//! # use pas_obs::SimEvent;
//! # let events = vec![SimEvent::SlackReclaimed {
//! #     t: 0.0, node: NodeId(0), proc: 0, reclaimed_ms: 2.0,
//! # }];
//! let mut sink = JsonlSink::new(Vec::new());
//! for e in &events {
//!     sink.on_event(e);
//! }
//! let text = String::from_utf8(sink.finish().unwrap()).unwrap();
//! assert_eq!(export::from_jsonl(&text).unwrap(), events);
//! ```

mod event;
mod ledger;
mod metrics;
mod observer;
mod sink;

pub mod export;
pub mod log;
pub mod profile;

pub use event::{EventKind, FaultKind, SimEvent};
pub use ledger::{EnergyLedger, LedgerMismatch, SectionKey, SectionSlice, SectionedLedger};
pub use metrics::{MetricsRegistry, TimeWeightedHist};
pub use observer::{EventLog, NullObserver, Observer};
pub use sink::{ChromeSink, Fanout, Filtered, JsonlSink, RingLog, Window};

/// Relative tolerance of the ledger-vs-meter invariant: the ledger total
/// must match the engine's `total_energy()` to within `LEDGER_TOLERANCE *
/// max(1, |total|)` (the two sum the same terms in different orders, so
/// only rounding noise may separate them).
pub const LEDGER_TOLERANCE: f64 = 1e-9;
