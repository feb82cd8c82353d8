//! The per-request record.
//!
//! Every pooled request gets one [`Record`] at ingest, and each lifecycle
//! point writes it once: the front end stamps ingest and enqueue, the
//! worker dispatch and handler return, `handle_plan` the plan-cache
//! outcome, and — when traced (`"trace": true` or `--trace-out DIR`) —
//! the handler its spans (`req.validate`, `req.cache_lookup`, and on a
//! cache miss the offline catalog names, so a request trace joins
//! against `pas plan --profile`). How the request ended travels back as
//! an [`Outcome`]. At respond, `Telemetry::finish` closes the record and
//! derives the rest from it once, the `req.ingest|queue_wait|exec|respond`
//! spans included; a stamp that arrives after that changes nothing.

use crate::proto::{error_response, ok_response, panic_response, shed_response, timeout_response};
use crate::proto::{object, Rejection, ReqKind, Request};
use pas_obs::profile::{names, SpanRecord};
use serde::Value;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// The hint sent with shed responses (ms).
const RETRY_AFTER_MS: u64 = 50;

/// A lifecycle point that stamps the record: line parsed into a pooled
/// request, job about to be queued, picked up by a worker, handler
/// returned (panicked or not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Ingest,
    Enqueue,
    Dispatch,
    Return,
}

/// How a pooled request ended: the handler's body or refusal, a shed at
/// this queue depth (`PAS0504`), an expired deadline of this many ms
/// (`PAS0505`), or a contained panic with its message (`PAS0506`).
#[derive(Debug)]
pub enum Outcome {
    Ok(Value),
    Error(Rejection),
    Shed(usize),
    Timeout(u64),
    Panic(String),
}

impl Outcome {
    /// The reply's `status`, which names its `serve.responses.*` counter.
    pub fn status(&self) -> &'static str {
        match self {
            Outcome::Ok(_) => "ok",
            Outcome::Error(_) => "error",
            Outcome::Shed(_) => "shed",
            Outcome::Timeout(_) => "timeout",
            Outcome::Panic(_) => "panic",
        }
    }

    /// The single-line reply for request `id` of `kind`.
    pub fn render(self, id: &str, kind: ReqKind) -> String {
        match self {
            Outcome::Ok(body) => ok_response(id, kind, body),
            Outcome::Error(rej) => error_response(id, &rej),
            Outcome::Shed(depth) => shed_response(id, RETRY_AFTER_MS, depth),
            Outcome::Timeout(ms) => timeout_response(id, ms),
            Outcome::Panic(detail) => panic_response(id, &detail),
        }
    }
}

/// What the lifecycle points wrote — a stamp per [`Stage`], the
/// plan-cache outcome (`true` on a hit) and, when traced, the handler's
/// spans. `finish` takes it once.
#[derive(Debug, Default)]
pub struct Marks {
    pub ingested: Option<Instant>,
    pub enqueued: Option<Instant>,
    pub dispatched: Option<Instant>,
    pub returned: Option<Instant>,
    pub cache_hit: Option<bool>,
    pub spans: Vec<SpanRecord>,
    closed: bool,
}

/// One pooled request's lifecycle, shared by the front end and the
/// worker: its id, kind and raw line (embedded verbatim in crash reports
/// so the offending input is reproducible), whether it echoes its
/// timeline and whether it collects spans at all, the arrival instant
/// (t = 0 of every span), and the marks.
#[derive(Debug)]
pub struct Record {
    pub id: String,
    pub kind: ReqKind,
    pub raw: String,
    pub echo: bool,
    pub traced: bool,
    pub arrived: Instant,
    marks: Mutex<Marks>,
}

impl Record {
    /// The record of `req`, whose line `raw` arrived at `arrived`.
    pub fn new(req: &Request, raw: &str, arrived: Instant, traced: bool) -> Self {
        Record {
            id: req.id.clone(),
            kind: req.kind,
            raw: raw.to_string(),
            echo: req.trace,
            traced,
            arrived,
            marks: Mutex::new(Marks::default()),
        }
    }

    fn marks(&self) -> MutexGuard<'_, Marks> {
        self.marks.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Stamps `stage` now; `false` (and no stamp) once `close` ran.
    pub fn stamp(&self, stage: Stage) -> bool {
        let now = Some(Instant::now());
        let mut m = self.marks();
        if m.closed {
            return false;
        }
        match stage {
            Stage::Ingest => m.ingested = now,
            Stage::Enqueue => m.enqueued = now,
            Stage::Dispatch => m.dispatched = now,
            Stage::Return => m.returned = now,
        }
        true
    }

    /// Notes the plan-cache outcome.
    pub fn cached(&self, hit: bool) {
        self.marks().cache_hit = Some(hit);
    }

    /// Opens a span named `name` starting now, when the request is
    /// traced. Bind the result (`let _s = rec.span(...)`) so the guard
    /// lives across the work.
    pub fn span(&self, name: &'static str) -> Option<SpanGuard<'_>> {
        self.traced.then(|| SpanGuard {
            record: self,
            name,
            opened: Instant::now(),
        })
    }

    /// The span `name` from `from` to `to`, on the record's clock.
    pub fn span_between(&self, name: &'static str, from: Instant, to: Instant) -> SpanRecord {
        SpanRecord {
            name,
            detail: None,
            thread: 0,
            depth: 0,
            start_ms: from.saturating_duration_since(self.arrived).as_secs_f64() * 1e3,
            dur_ms: to.saturating_duration_since(from).as_secs_f64() * 1e3,
        }
    }

    /// Takes the marks and refuses every later stamp.
    pub fn close(&self) -> Marks {
        let mut m = self.marks();
        let marks = std::mem::take(&mut *m);
        m.closed = true;
        marks
    }

    /// Every span of the closed `marks`, ordered by start: the handler's,
    /// `req.ingest`, `req.queue_wait` and `req.exec` where both ends were
    /// stamped, and `req.respond` over `respond`.
    pub fn timeline(&self, marks: Marks, respond: (Instant, Instant)) -> Vec<SpanRecord> {
        let mut spans = marks.spans;
        let lifecycle = [
            (names::REQ_INGEST, Some(self.arrived), marks.ingested),
            (names::REQ_QUEUE_WAIT, marks.enqueued, marks.dispatched),
            (names::REQ_EXEC, marks.dispatched, marks.returned),
            (names::REQ_RESPOND, Some(respond.0), Some(respond.1)),
        ];
        for (name, from, to) in lifecycle {
            if let (Some(from), Some(to)) = (from, to) {
                spans.push(self.span_between(name, from, to));
            }
        }
        spans.sort_by(|a, b| a.start_ms.total_cmp(&b.start_ms));
        spans
    }
}

/// RAII guard returned by [`Record::span`]: records the span on drop.
#[must_use = "a span measures nothing unless the guard lives across the work"]
pub struct SpanGuard<'a> {
    record: &'a Record,
    name: &'static str,
    opened: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let span = self
            .record
            .span_between(self.name, self.opened, Instant::now());
        self.record.marks().spans.push(span);
    }
}

/// The timeline echoed in traced responses: one `{name, start_ms,
/// dur_ms}` object per span.
pub fn timeline_value(spans: &[SpanRecord]) -> Value {
    let span = |s: &SpanRecord| {
        object(vec![
            ("name", Value::Str(s.name.to_string())),
            ("start_ms", Value::Float(s.start_ms)),
            ("dur_ms", Value::Float(s.dur_ms)),
        ])
    };
    Value::Array(spans.iter().map(span).collect())
}

/// Reduces a request id to a filesystem-safe stem for `--trace-out` and
/// crash-report file names: `[A-Za-z0-9._-]` pass through, everything
/// else becomes `_`.
pub fn sanitize_id(id: &str) -> String {
    let mut out: String = id
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.is_empty() {
        out.push('_');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(traced: bool) -> Record {
        let req = crate::proto::parse_request(r#"{"id":"r","kind":"run"}"#).expect("parses");
        Record::new(&req, "", Instant::now(), traced)
    }

    #[test]
    fn spans_record_and_sort_by_start() {
        let rec = record(true);
        {
            let _v = rec.span(names::REQ_VALIDATE);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        rec.stamp(Stage::Ingest);
        let now = Instant::now();
        let spans = rec.timeline(rec.close(), (now, now));
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, names::REQ_INGEST);
        assert_eq!(spans[1].name, names::REQ_VALIDATE);
        assert_eq!(spans[2].name, names::REQ_RESPOND);
        assert!(spans[0].dur_ms >= spans[1].dur_ms);
        assert!(record(false).span(names::REQ_VALIDATE).is_none());
    }

    #[test]
    fn stamps_after_close_change_nothing() {
        let rec = record(false);
        assert!(rec.stamp(Stage::Dispatch));
        rec.cached(true);
        let marks = rec.close();
        assert!(marks.dispatched.is_some() && marks.returned.is_none());
        assert_eq!(marks.cache_hit, Some(true));
        assert!(!rec.stamp(Stage::Return));
        assert!(rec.close().returned.is_none());
    }

    #[test]
    fn value_and_chrome_renderings_carry_every_span() {
        let rec = record(true);
        {
            let _e = rec.span(names::REQ_EXEC);
        }
        let spans = rec.close().spans;
        let v = timeline_value(&spans);
        let arr = v.as_array().expect("array");
        assert_eq!(arr.len(), 1);
        assert_eq!(
            arr[0].get("name").and_then(Value::as_str),
            Some(names::REQ_EXEC)
        );
        assert!(arr[0].get("dur_ms").and_then(Value::as_f64).is_some());
        let doc = pas_obs::profile::chrome_trace(&spans);
        let parsed: Value = serde_json::from_str(&doc).expect("valid chrome trace");
        assert!(parsed.get("traceEvents").is_some());
    }

    #[test]
    fn ids_sanitize_to_safe_stems() {
        assert_eq!(sanitize_id("auto-000001"), "auto-000001");
        assert_eq!(sanitize_id("a/b:c"), "a_b_c");
        assert_eq!(sanitize_id(""), "_");
    }
}
