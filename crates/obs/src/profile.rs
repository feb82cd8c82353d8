//! A span-based wall-clock profiler for the offline phase.
//!
//! The simulator's event stream answers "where does the *energy* go";
//! this module answers "where does the *millisecond* go" for the code
//! that runs before any simulation: OR-path enumeration, canonical
//! schedule construction, speed assignment, plan serialization and the
//! PAS04xx re-derivation. It is the scoreboard the sharding work on the
//! ROADMAP reports against.
//!
//! Design constraints, in order:
//!
//! * **Near-zero cost when disabled.** [`span`] is a single relaxed
//!   atomic load returning an inert guard; no clock is read, no string
//!   is built (labels are closures, evaluated only when enabled).
//! * **No output perturbation.** The profiler is a pure side channel:
//!   enabling it must never change a `PlanArtifact` byte or a golden
//!   trace (enforced by property tests at the workspace root).
//! * **Thread-safe.** Spans nest per thread (a thread-local depth
//!   counter) and finished spans land in one global buffer tagged with
//!   a stable per-thread index, so future rayon sharding reports
//!   per-shard spans without API changes.
//!
//! Usage:
//!
//! ```
//! use pas_obs::profile;
//!
//! profile::enable();
//! {
//!     let _outer = profile::span("offline.build");
//!     let _inner = profile::span_with("offline.canonical_schedule", || "ltf".to_string());
//!     // ... timed work ...
//! }
//! let spans = profile::take();
//! profile::disable();
//! assert_eq!(spans.len(), 2);
//! let rendered = profile::render_tree(&spans);
//! assert!(rendered.contains("offline.build"));
//! ```

use crate::export::{duration_event, obj, thread_metadata};
use serde::Value;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The stable span-name catalog. Every span the workspace emits uses one
/// of these names, and `docs/observability.md` documents each exactly
/// once (enforced by `tests/docs_sync.rs`).
pub mod names {
    /// Root span of `pas plan`: everything between argument validation
    /// and the rendered answer.
    pub const CLI_PLAN: &str = "cli.plan";
    /// Root span of `pas check`: diagnostics plus plan verification.
    pub const CLI_CHECK: &str = "cli.check";
    /// `Setup` construction for one (workload, platform, deadline or
    /// load) point: the section decomposition and the offline plan.
    pub const OFFLINE_SETUP: &str = "offline.setup";
    /// One offline plan build end to end (`OfflinePlan::build_with_pmp_reserve`
    /// or `OfflinePlan::build_for_load`).
    pub const OFFLINE_BUILD: &str = "offline.build";
    /// Round 1: per-section canonical LTF schedules (worst + average).
    pub const OFFLINE_CANONICAL: &str = "offline.canonical_schedule";
    /// The reverse recursion filling `worst_after` / `branch_worst`.
    pub const OFFLINE_REMAINING: &str = "offline.remaining_times";
    /// Round 2: the latest-start-time shift.
    pub const OFFLINE_LST: &str = "offline.lst_shift";
    /// Theorem-1 OR-path enumeration over execution scenarios.
    pub const OFFLINE_ENUMERATE: &str = "offline.enumerate_paths";
    /// Policy instantiation against a finished plan (one per scheme);
    /// hoisted out of Monte-Carlo realization loops so it is counted
    /// once in the offline breakdown, not per run.
    pub const OFFLINE_POLICIES: &str = "offline.policies";
    /// Per-scheme speed-assignment parameter derivation.
    pub const ARTIFACT_SPEEDS: &str = "artifact.speed_assignment";
    /// `PlanArtifact` JSON serialization.
    pub const ARTIFACT_SERIALIZE: &str = "artifact.serialize";
    /// SHA-256 content digest of the serialized artifact.
    pub const ARTIFACT_DIGEST: &str = "artifact.digest";
    /// The full PAS04xx plan re-derivation and comparison in
    /// `pas-analyze`.
    pub const CHECK_VERIFY_PLAN: &str = "check.verify_plan";
    /// The PAS06xx symbolic energy/timing bounds derivation
    /// (`pas check --bounds`), all six schemes over one workload.
    pub const CHECK_BOUNDS: &str = "check.bounds";
    /// `pas serve` request lifecycle: raw-line parse and request-id
    /// minting at ingest.
    pub const REQ_INGEST: &str = "req.ingest";
    /// `pas serve` request lifecycle: time spent queued before a worker
    /// picked the job up.
    pub const REQ_QUEUE_WAIT: &str = "req.queue_wait";
    /// `pas serve` request lifecycle: parameter validation and workload
    /// ingest inside the handler.
    pub const REQ_VALIDATE: &str = "req.validate";
    /// `pas serve` request lifecycle: the content-addressed plan-cache
    /// probe.
    pub const REQ_CACHE_LOOKUP: &str = "req.cache_lookup";
    /// `pas serve` request lifecycle: handler execution (plan derivation,
    /// simulation, or debug fault).
    pub const REQ_EXEC: &str = "req.exec";
    /// `pas serve` request lifecycle: response envelope construction and
    /// reply delivery.
    pub const REQ_RESPOND: &str = "req.respond";

    /// Every span name the workspace emits.
    pub const ALL: &[&str] = &[
        CLI_PLAN,
        CLI_CHECK,
        OFFLINE_SETUP,
        OFFLINE_BUILD,
        OFFLINE_CANONICAL,
        OFFLINE_REMAINING,
        OFFLINE_LST,
        OFFLINE_ENUMERATE,
        OFFLINE_POLICIES,
        ARTIFACT_SPEEDS,
        ARTIFACT_SERIALIZE,
        ARTIFACT_DIGEST,
        CHECK_VERIFY_PLAN,
        CHECK_BOUNDS,
        REQ_INGEST,
        REQ_QUEUE_WAIT,
        REQ_VALIDATE,
        REQ_CACHE_LOOKUP,
        REQ_EXEC,
        REQ_RESPOND,
    ];
}

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name, from [`names`].
    pub name: &'static str,
    /// Optional free-form label (scheme name, workload, ...).
    pub detail: Option<String>,
    /// Stable per-thread index (0 is the first thread that profiled).
    pub thread: usize,
    /// Nesting depth at open time (0 = top level on its thread).
    pub depth: usize,
    /// Start offset in milliseconds since the profiler epoch.
    pub start_ms: f64,
    /// Wall-clock duration in milliseconds.
    pub dur_ms: f64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);
static RECORDS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static DEPTH: Cell<usize> = const { Cell::new(0) };
    static THREAD_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn thread_index() -> usize {
    THREAD_INDEX.with(|idx| match idx.get() {
        Some(i) => i,
        None => {
            let i = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            idx.set(Some(i));
            i
        }
    })
}

/// Turns span recording on (and pins the epoch on first use).
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::Release);
}

/// Turns span recording off. Already-collected spans stay until
/// [`take`]n.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Whether spans are currently being recorded.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Claims the profiler for one session. The profiler is process-global
/// (`enable`/`take` see every thread), so two concurrent users — say a
/// test harness running profiled commands in parallel — would steal
/// each other's spans. Hold the returned guard across the whole
/// `enable()` … `take()` window to serialize sessions; single-session
/// processes may skip it.
pub fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    static SESSION: Mutex<()> = Mutex::new(());
    SESSION
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Drains every finished span collected so far, ordered by
/// `(thread, start)` so nesting can be rebuilt.
pub fn take() -> Vec<SpanRecord> {
    let mut records = std::mem::take(
        &mut *RECORDS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    );
    records.sort_by(|a, b| {
        a.thread
            .cmp(&b.thread)
            .then(a.start_ms.total_cmp(&b.start_ms))
            .then(a.depth.cmp(&b.depth))
    });
    records
}

/// Opens a span named `name`. The span closes (and is recorded) when
/// the returned guard drops. When profiling is disabled this is one
/// atomic load and returns an inert guard.
pub fn span(name: &'static str) -> SpanGuard {
    open(name, None)
}

/// Opens a span with a lazily-built label — `detail` runs only when
/// profiling is enabled, so hot paths pay nothing for rich labels.
pub fn span_with<F: FnOnce() -> String>(name: &'static str, detail: F) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { active: None };
    }
    open_enabled(name, Some(detail()))
}

fn open(name: &'static str, detail: Option<String>) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { active: None };
    }
    open_enabled(name, detail)
}

fn open_enabled(name: &'static str, detail: Option<String>) -> SpanGuard {
    let depth = DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth + 1);
        depth
    });
    SpanGuard {
        active: Some(ActiveSpan {
            name,
            detail,
            thread: thread_index(),
            depth,
            start_ms: epoch().elapsed().as_secs_f64() * 1e3,
            opened: Instant::now(),
        }),
    }
}

struct ActiveSpan {
    name: &'static str,
    detail: Option<String>,
    thread: usize,
    depth: usize,
    start_ms: f64,
    opened: Instant,
}

/// RAII guard returned by [`span`]: records the span on drop.
#[must_use = "a span measures nothing unless the guard lives across the work"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let dur_ms = active.opened.elapsed().as_secs_f64() * 1e3;
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        RECORDS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(SpanRecord {
                name: active.name,
                detail: active.detail,
                thread: active.thread,
                depth: active.depth,
                start_ms: active.start_ms,
                dur_ms,
            });
    }
}

/// A span with its children, rebuilt from the flat record list.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The span itself.
    pub record: SpanRecord,
    /// Spans opened while this one was open, on the same thread.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// The sum of the direct children's durations (ms).
    pub fn child_ms(&self) -> f64 {
        self.children.iter().map(|c| c.record.dur_ms).sum()
    }
}

/// Rebuilds the per-thread span forest from [`take`]'s flat list.
/// Records must be ordered by `(thread, start)` — [`take`] guarantees
/// this.
pub fn tree(records: &[SpanRecord]) -> Vec<SpanNode> {
    let mut roots: Vec<SpanNode> = Vec::new();
    let mut stack: Vec<SpanNode> = Vec::new();
    let mut thread = usize::MAX;
    fn unwind(stack: &mut Vec<SpanNode>, roots: &mut Vec<SpanNode>, to_depth: usize) {
        while stack.len() > to_depth {
            let done = stack.pop().expect("non-empty stack");
            match stack.last_mut() {
                Some(parent) => parent.children.push(done),
                None => roots.push(done),
            }
        }
    }
    for rec in records {
        if rec.thread != thread {
            unwind(&mut stack, &mut roots, 0);
            thread = rec.thread;
        }
        unwind(&mut stack, &mut roots, rec.depth);
        stack.push(SpanNode {
            record: rec.clone(),
            children: Vec::new(),
        });
    }
    unwind(&mut stack, &mut roots, 0);
    roots
}

/// Renders the span forest as an indented text summary — one line per
/// span with its duration and, for parents, the share covered by
/// children.
pub fn render_tree(records: &[SpanRecord]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    fn render(out: &mut String, node: &SpanNode, indent: usize) {
        let label = match &node.record.detail {
            Some(d) => format!("{} [{d}]", node.record.name),
            None => node.record.name.to_string(),
        };
        let pad = "  ".repeat(indent);
        let _ = write!(
            out,
            "{pad}{label:<width$} {:>10.3} ms",
            node.record.dur_ms,
            width = 44usize.saturating_sub(pad.len())
        );
        if !node.children.is_empty() {
            let _ = write!(out, "  (children {:.3} ms)", node.child_ms());
        }
        let _ = writeln!(out);
        for child in &node.children {
            render(out, child, indent + 1);
        }
    }
    for root in tree(records) {
        render(&mut out, &root, 0);
    }
    out
}

/// Renders spans as Chrome trace-event JSON (duration events, one lane
/// per profiled thread), loadable in Perfetto next to the simulator's
/// own traces. Built from the same trace-event objects as
/// [`crate::ChromeSink`]: `ts`/`dur` in microseconds, `pid` 0,
/// `displayTimeUnit` ms.
pub fn chrome_trace(records: &[SpanRecord]) -> String {
    let mut events = Vec::new();
    let threads: std::collections::BTreeSet<usize> = records.iter().map(|r| r.thread).collect();
    for t in threads {
        events.push(thread_metadata(t, format!("offline {t}")));
    }
    for rec in records {
        let mut args = vec![("depth", Value::UInt(rec.depth as u64))];
        if let Some(d) = &rec.detail {
            args.push(("detail", Value::Str(d.clone())));
        }
        events.push(duration_event(
            rec.name.to_string(),
            "offline",
            rec.start_ms,
            rec.dur_ms,
            rec.thread,
            args,
        ));
    }
    let doc = obj(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::Str("ms".to_string())),
    ]);
    serde_json::to_string(&doc).expect("span trace serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    // The profiler is global state: serialize the tests that toggle it
    // and filter drained spans to the current thread.
    fn locked() -> std::sync::MutexGuard<'static, ()> {
        exclusive()
    }

    fn my_spans() -> Vec<SpanRecord> {
        let me = thread_index();
        take().into_iter().filter(|r| r.thread == me).collect()
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _lock = locked();
        disable();
        let _ = my_spans();
        {
            let _g = span(names::OFFLINE_BUILD);
        }
        assert!(my_spans().is_empty());
    }

    #[test]
    fn spans_nest_and_rebuild_as_a_tree() {
        let _lock = locked();
        enable();
        let _ = my_spans();
        {
            let _root = span(names::OFFLINE_BUILD);
            {
                let _c1 = span(names::OFFLINE_CANONICAL);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            {
                let _c2 = span_with(names::OFFLINE_LST, || "round 2".to_string());
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let spans = my_spans();
        disable();
        assert_eq!(spans.len(), 3);
        let forest = tree(&spans);
        assert_eq!(forest.len(), 1);
        let root = &forest[0];
        assert_eq!(root.record.name, names::OFFLINE_BUILD);
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[1].record.detail.as_deref(), Some("round 2"));
        // The root covers its children: children fit inside the root's
        // wall time, and (with only timed work inside) account for most
        // of it.
        assert!(root.record.dur_ms >= root.child_ms() - 1e-6);
        assert!(
            root.record.dur_ms - root.child_ms() < 50.0,
            "root {} ms vs children {} ms",
            root.record.dur_ms,
            root.child_ms()
        );
        let rendered = render_tree(&spans);
        assert!(rendered.contains("offline.build"), "{rendered}");
        assert!(
            rendered.contains("  offline.canonical_schedule"),
            "{rendered}"
        );
        assert!(rendered.contains("(children"), "{rendered}");
    }

    #[test]
    fn chrome_export_is_valid_trace_json() {
        let _lock = locked();
        enable();
        let _ = my_spans();
        {
            let _g = span_with(names::OFFLINE_ENUMERATE, || "16 paths".to_string());
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let spans = my_spans();
        disable();
        let doc = chrome_trace(&spans);
        let v: Value = serde_json::from_str(&doc).expect("parses");
        let events = v
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents");
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(Value::as_str) == Some("M")));
        let x = events
            .iter()
            .find(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .expect("duration event");
        assert_eq!(
            x.get("name").and_then(Value::as_str),
            Some(names::OFFLINE_ENUMERATE)
        );
        assert!(x.get("ts").and_then(Value::as_f64).is_some());
        assert!(x.get("dur").and_then(Value::as_f64).unwrap_or(-1.0) >= 0.0);
        assert_eq!(
            x.get("args")
                .and_then(|a| a.get("detail"))
                .and_then(Value::as_str),
            Some("16 paths")
        );
    }

    #[test]
    fn every_catalog_name_is_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for name in names::ALL {
            assert!(seen.insert(*name), "duplicate span name {name}");
        }
    }
}
