//! Streaming sinks: incremental exporters and bounded live aggregates.
//!
//! The [`crate::EventLog`] observer buffers the whole run; everything in
//! this module instead consumes each [`SimEvent`] as it is emitted and
//! keeps O(1) event memory. The two file sinks are the crate's only
//! event writers: to export a buffered log, replay it into one.
//!
//! * [`JsonlSink`] writes one JSON line per event straight into any
//!   [`std::io::Write`]; [`crate::export::from_jsonl`] reads it back.
//! * [`ChromeSink`] streams a Chrome trace-event document, emitting each
//!   renderable event the moment it arrives and the per-processor lane
//!   metadata at [`ChromeSink::finish`].
//! * [`RingLog`] is the bounded ring/windowed aggregator behind live
//!   summaries: the last `capacity` events plus running per-kind counts.
//! * [`Fanout`] and [`Filtered`] compose observers, so one run can feed a
//!   file sink, a metrics registry and a ledger simultaneously with the
//!   CLI's kind/processor filters applied only where wanted.
//!
//! I/O errors inside `on_event` (which cannot return them) are latched and
//! surfaced by `finish()`; after the first error a sink stops writing.
//! The latch keeps the *first* error only, annotated with the 1-based
//! stream position of the event that failed — later failures (including
//! flush errors at `finish`) never overwrite it, so the surfaced error
//! always names the point where the output actually diverged. A latched
//! sink inside a [`Fanout`] goes quiet without disturbing its siblings:
//! healthy sinks keep streaming every event.

use crate::event::{EventKind, SimEvent};
use crate::export::{chrome_event, thread_metadata};
use crate::observer::Observer;
use andor_graph::NodeId;
use serde::Value;
use std::collections::VecDeque;
use std::io::{self, Write};

/// First-error latch shared by the streaming sinks: records the first
/// I/O failure with the stream position it happened at and ignores every
/// later one.
#[derive(Debug, Default)]
struct ErrorLatch {
    err: Option<io::Error>,
}

impl ErrorLatch {
    /// True once an error has been latched (the sink should go quiet).
    fn is_latched(&self) -> bool {
        self.err.is_some()
    }

    /// Latches `e` with context, unless an earlier error already won.
    /// `event_no` is the 1-based position of the event whose write
    /// failed.
    fn latch(&mut self, event_no: u64, e: io::Error) {
        if self.err.is_none() {
            self.err = Some(io::Error::new(
                e.kind(),
                format!("streaming event #{event_no}: {e}"),
            ));
        }
    }

    /// Takes the latched error, if any.
    fn take(&mut self) -> Option<io::Error> {
        self.err.take()
    }
}

/// Streams events as JSON Lines into a writer, one line per event, in
/// emission order. The inverse of [`crate::export::from_jsonl`].
///
/// Fed by the engine, it writes the same bytes as when it replays the
/// run's buffered [`crate::EventLog`] (the parity is property-tested).
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    w: W,
    written: u64,
    err: ErrorLatch,
}

impl<W: Write> JsonlSink<W> {
    /// A sink over `w`. Nothing is written until the first event.
    pub fn new(w: W) -> Self {
        Self {
            w,
            written: 0,
            err: ErrorLatch::default(),
        }
    }

    /// Events successfully written so far.
    pub fn events_written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the writer, or the first latched I/O error
    /// (annotated with the stream position of the event whose write
    /// failed).
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        self.w.flush()?;
        Ok(self.w)
    }
}

impl<W: Write> Observer for JsonlSink<W> {
    fn on_event(&mut self, event: &SimEvent) {
        if self.err.is_latched() {
            return;
        }
        let line = serde_json::to_string(event).expect("events serialize");
        match self
            .w
            .write_all(line.as_bytes())
            .and_then(|()| self.w.write_all(b"\n"))
        {
            Ok(()) => self.written += 1,
            Err(e) => self.err.latch(self.written + 1, e),
        }
    }
}

/// Streams a Chrome trace-event document into a writer.
///
/// The document loads in Perfetto or `chrome://tracing`. Each renderable
/// event is converted (task executions and idle windows become duration
/// events on one lane per processor, speed changes counter tracks,
/// branch/speculation/fault events instants) and written as it arrives;
/// [`ChromeSink::finish`] appends the per-processor `thread_name`
/// metadata (legal anywhere in the trace-event format) and closes the
/// document. `name_of` labels tasks (pass the graph's node names, or
/// [`crate::export::node_label`]).
pub struct ChromeSink<W: Write, F: Fn(NodeId) -> String> {
    w: W,
    name_of: F,
    started: bool,
    any: bool,
    procs: usize,
    written: u64,
    err: ErrorLatch,
}

impl<W: Write, F: Fn(NodeId) -> String> ChromeSink<W, F> {
    /// A sink over `w`. Nothing is written until the first event (or
    /// `finish`, which always produces a valid document).
    pub fn new(w: W, name_of: F) -> Self {
        Self {
            w,
            name_of,
            started: false,
            any: false,
            procs: 0,
            written: 0,
            err: ErrorLatch::default(),
        }
    }

    /// Trace-event objects successfully written so far (excluding the
    /// metadata written by `finish`).
    pub fn events_written(&self) -> u64 {
        self.written
    }

    fn write_value(&mut self, v: &Value) -> io::Result<()> {
        if !self.started {
            self.w.write_all(b"{\"traceEvents\":[")?;
            self.started = true;
        }
        if self.any {
            self.w.write_all(b",")?;
        }
        let body = serde_json::to_string(v).expect("trace objects serialize");
        self.w.write_all(body.as_bytes())?;
        self.any = true;
        Ok(())
    }

    /// Writes the lane metadata and the document tail, flushes, and
    /// returns the writer (or the first latched I/O error).
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        for p in 0..self.procs {
            let meta = thread_metadata(p, format!("cpu {p}"));
            self.write_value(&meta)?;
        }
        if !self.started {
            self.w.write_all(b"{\"traceEvents\":[")?;
        }
        self.w.write_all(b"],\"displayTimeUnit\":\"ms\"}")?;
        self.w.flush()?;
        Ok(self.w)
    }
}

impl<W: Write, F: Fn(NodeId) -> String> Observer for ChromeSink<W, F> {
    fn on_event(&mut self, event: &SimEvent) {
        if self.err.is_latched() {
            return;
        }
        if let Some(p) = event.proc() {
            self.procs = self.procs.max(p + 1);
        }
        if let Some(v) = chrome_event(event, &self.name_of) {
            match self.write_value(&v) {
                Ok(()) => self.written += 1,
                Err(e) => self.err.latch(self.written + 1, e),
            }
        }
    }
}

/// A fixed-capacity sliding window over any stream of items: the last
/// `capacity` items verbatim, plus a running count of everything ever
/// pushed. This is the allocation-bounded core shared by [`RingLog`]
/// (simulation events), the structured logger's in-memory tail
/// ([`crate::log`]) and `pas serve`'s flight recorder — memory stays
/// O(capacity) however long the stream.
#[derive(Debug, Clone)]
pub struct Window<T> {
    cap: usize,
    buf: VecDeque<T>,
    seen: u64,
}

impl<T> Window<T> {
    /// A window holding at most `capacity` items (at least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            cap: capacity.max(1),
            buf: VecDeque::with_capacity(capacity.clamp(1, 4096)),
            seen: 0,
        }
    }

    /// The configured window size.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Items currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no item was pushed yet.
    pub fn is_empty(&self) -> bool {
        self.seen == 0
    }

    /// Total items pushed over the whole stream.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The highest buffer occupancy reached — `min(seen, capacity)`.
    pub fn peak_occupancy(&self) -> usize {
        (self.seen.min(self.cap as u64)) as usize
    }

    /// Pushes an item, evicting the oldest when the window is full.
    pub fn push(&mut self, item: T) {
        self.seen += 1;
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(item);
    }

    /// The retained items, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }
}

/// A bounded window over the stream: the last `capacity` events verbatim,
/// plus running per-kind counts and the latest event time over the
/// *whole* stream. This is the live-summary aggregate for streaming runs
/// — a [`Window`] of events plus the per-kind tallies.
#[derive(Debug, Clone)]
pub struct RingLog {
    win: Window<SimEvent>,
    counts: Vec<u64>,
    end_time: f64,
}

impl RingLog {
    /// A ring holding at most `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            win: Window::new(capacity),
            counts: vec![0; EventKind::ALL.len()],
            end_time: 0.0,
        }
    }

    /// The configured window size.
    pub fn capacity(&self) -> usize {
        self.win.capacity()
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.win.len()
    }

    /// True when no event was seen yet.
    pub fn is_empty(&self) -> bool {
        self.win.is_empty()
    }

    /// Total events seen over the whole stream.
    pub fn seen(&self) -> u64 {
        self.win.seen()
    }

    /// The highest buffer occupancy reached — `min(seen, capacity)`, the
    /// peak event memory of a streaming consumer, as recorded in the
    /// bench baselines (`results/baselines/`).
    pub fn peak_occupancy(&self) -> usize {
        self.win.peak_occupancy()
    }

    /// Count of `kind` over the whole stream (not just the window).
    pub fn count(&self, kind: EventKind) -> u64 {
        let idx = EventKind::ALL.iter().position(|k| *k == kind);
        idx.map_or(0, |i| self.counts[i])
    }

    /// Latest event time seen.
    pub fn end_time(&self) -> f64 {
        self.end_time
    }

    /// The retained window, oldest first.
    pub fn window(&self) -> impl Iterator<Item = &SimEvent> {
        self.win.iter()
    }
}

impl Observer for RingLog {
    fn on_event(&mut self, event: &SimEvent) {
        self.end_time = self.end_time.max(event.time());
        if let Some(i) = EventKind::ALL.iter().position(|k| *k == event.kind()) {
            self.counts[i] += 1;
        }
        self.win.push(event.clone());
    }
}

/// Fans each event out to several observers, in order.
#[derive(Default)]
pub struct Fanout<'a> {
    sinks: Vec<&'a mut dyn Observer>,
}

impl<'a> Fanout<'a> {
    /// An empty fanout.
    pub fn new() -> Self {
        Self { sinks: Vec::new() }
    }

    /// Adds a sink (builder style).
    pub fn with(mut self, sink: &'a mut dyn Observer) -> Self {
        self.sinks.push(sink);
        self
    }
}

impl Observer for Fanout<'_> {
    fn on_event(&mut self, event: &SimEvent) {
        for s in &mut self.sinks {
            s.on_event(event);
        }
    }
}

/// Forwards only events passing a kind/processor filter, counting both
/// sides — the CLI's `--kinds`/`--proc` narrowing for streaming exports.
#[derive(Debug)]
pub struct Filtered<O: Observer> {
    inner: O,
    kinds: Option<Vec<EventKind>>,
    proc: Option<usize>,
    seen: u64,
    passed: u64,
}

impl<O: Observer> Filtered<O> {
    /// Wraps `inner`; `None` filters pass everything.
    pub fn new(inner: O, kinds: Option<Vec<EventKind>>, proc: Option<usize>) -> Self {
        Self {
            inner,
            kinds,
            proc,
            seen: 0,
            passed: 0,
        }
    }

    /// Events observed (before filtering).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Events forwarded to the inner sink.
    pub fn passed(&self) -> u64 {
        self.passed
    }

    /// Unwraps the inner sink.
    pub fn into_inner(self) -> O {
        self.inner
    }
}

impl<O: Observer> Observer for Filtered<O> {
    fn on_event(&mut self, event: &SimEvent) {
        self.seen += 1;
        let kind_ok = self
            .kinds
            .as_ref()
            .is_none_or(|ks| ks.contains(&event.kind()));
        let proc_ok = self.proc.is_none_or(|p| event.proc() == Some(p));
        if kind_ok && proc_ok {
            self.passed += 1;
            self.inner.on_event(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FaultKind;
    use crate::export::{from_jsonl, node_label};
    use crate::metrics::MetricsRegistry;
    use crate::observer::EventLog;

    /// Events on two processors that render as every Chrome phase
    /// (duration, counter, instant), plus a dispatch and a slack
    /// reclamation, which the Chrome rendering elides.
    fn sample_events() -> Vec<SimEvent> {
        vec![
            SimEvent::TaskDispatch {
                t: 0.0,
                node: NodeId(0),
                proc: 0,
                wcet: 10.0,
                speed: 1.0,
                pmp_ms: 0.0,
                pmp_energy: 0.0,
                pmp_leakage: 0.0,
            },
            SimEvent::SpeedChange {
                t: 0.0,
                proc: 0,
                from_speed: 1.0,
                to_speed: 0.5,
                duration_ms: 0.1,
                energy: 0.1,
                leakage: 0.0,
                failed: false,
            },
            SimEvent::SlackReclaimed {
                t: 0.0,
                node: NodeId(0),
                proc: 0,
                reclaimed_ms: 10.0,
            },
            SimEvent::TaskComplete {
                t: 20.1,
                node: NodeId(0),
                proc: 0,
                start: 0.0,
                exec_ms: 20.0,
                speed: 0.5,
                energy: 2.5,
                leakage: 0.0,
                recovery_premium: 0.0,
            },
            SimEvent::OrBranchTaken {
                t: 20.1,
                or: NodeId(1),
                branch: 0,
            },
            SimEvent::FaultInjected {
                t: 20.1,
                node: NodeId(2),
                proc: 1,
                kind: FaultKind::Overrun { factor: 1.5 },
            },
            SimEvent::IdleEnd {
                t: 26.0,
                proc: 1,
                duration_ms: 5.9,
                energy: 0.295,
            },
        ]
    }

    #[test]
    fn jsonl_sink_round_trips_through_from_jsonl() {
        let events = sample_events();
        let mut sink = JsonlSink::new(Vec::new());
        for ev in &events {
            sink.on_event(ev);
        }
        assert_eq!(sink.events_written(), events.len() as u64);
        let dump = String::from_utf8(sink.finish().expect("no I/O error on Vec")).unwrap();
        assert_eq!(dump.lines().count(), events.len());
        assert_eq!(from_jsonl(&dump).expect("jsonl parses"), events);
    }

    #[test]
    fn chrome_sink_renders_every_kind() {
        let events = sample_events();
        let mut sink = ChromeSink::new(Vec::new(), node_label);
        for ev in &events {
            sink.on_event(ev);
        }
        // Metadata is not counted: X, X, C, i, i rendered; the dispatch
        // and slack events are elided.
        assert_eq!(sink.events_written(), 5);
        let doc = String::from_utf8(sink.finish().expect("finishes")).unwrap();
        let value: Value = serde_json::from_str(&doc).expect("chrome trace parses as JSON");
        let list = value
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        let phases: Vec<&str> = list
            .iter()
            .map(|e| {
                e.get("ph")
                    .and_then(Value::as_str)
                    .expect("every entry has ph")
            })
            .collect();
        // Emission order, then one lane name per processor at the end.
        assert_eq!(phases, ["C", "X", "i", "i", "X", "M", "M"], "{doc}");
        for entry in list {
            // Metadata events carry no ts; all others must.
            if entry.get("ph").and_then(Value::as_str) != Some("M") {
                assert!(entry.get("ts").and_then(Value::as_f64).is_some(), "{doc}");
            }
        }
        assert!(doc.contains("\"n0\""), "{doc}");
        assert!(doc.contains("\"cpu 1\""), "{doc}");
        // ts is microseconds: the 20.1 ms task becomes a ~20100 us span.
        let task_dur = list
            .iter()
            .find(|e| e.get("cat").and_then(Value::as_str) == Some("task"))
            .and_then(|e| e.get("dur"))
            .and_then(Value::as_f64)
            .expect("task duration event");
        assert!((task_dur - 20_100.0).abs() < 1e-6, "{task_dur}");
    }

    #[test]
    fn chrome_sink_with_no_events_is_still_valid_json() {
        let sink = ChromeSink::new(Vec::new(), node_label);
        let out = String::from_utf8(sink.finish().expect("finishes")).unwrap();
        let doc: Value = serde_json::from_str(&out).expect("valid JSON");
        assert_eq!(
            doc.get("traceEvents")
                .and_then(Value::as_array)
                .map(<[_]>::len),
            Some(0)
        );
    }

    #[test]
    fn ring_log_is_bounded_but_counts_everything() {
        let mut ring = RingLog::new(2);
        for ev in sample_events() {
            ring.on_event(&ev);
        }
        assert_eq!(ring.seen(), 7);
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.peak_occupancy(), 2);
        assert_eq!(ring.count(EventKind::TaskDispatch), 1);
        assert_eq!(ring.count(EventKind::IdleEnd), 1);
        assert!((ring.end_time() - 26.0).abs() < 1e-12);
        // Only the two newest events remain in the window.
        let kinds: Vec<EventKind> = ring.window().map(SimEvent::kind).collect();
        assert_eq!(kinds, vec![EventKind::FaultInjected, EventKind::IdleEnd]);
    }

    #[test]
    fn window_evicts_oldest_but_counts_everything() {
        let mut w = Window::new(3);
        assert!(w.is_empty());
        for i in 0..5u32 {
            w.push(i);
        }
        assert_eq!(w.seen(), 5);
        assert_eq!(w.len(), 3);
        assert_eq!(w.capacity(), 3);
        assert_eq!(w.peak_occupancy(), 3);
        assert_eq!(w.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
        // Degenerate capacity still holds one item.
        let mut one = Window::new(0);
        one.push('a');
        one.push('b');
        assert_eq!(one.capacity(), 1);
        assert_eq!(one.iter().copied().collect::<Vec<_>>(), vec!['b']);
    }

    #[test]
    fn fanout_and_filter_compose() {
        let mut log = EventLog::new();
        let mut registry = MetricsRegistry::new();
        let mut filtered = Filtered::new(
            EventLog::new(),
            Some(vec![EventKind::TaskComplete]),
            Some(0),
        );
        {
            let mut fan = Fanout::new()
                .with(&mut log)
                .with(&mut registry)
                .with(&mut filtered);
            for ev in sample_events() {
                fan.on_event(&ev);
            }
        }
        assert_eq!(log.len(), 7);
        assert_eq!(filtered.seen(), 7);
        assert_eq!(filtered.passed(), 1);
        assert_eq!(filtered.into_inner().len(), 1);
        let csv = registry.to_csv();
        assert!(csv.contains("tasks.dispatched,counter,1"), "{csv}");
        assert!(csv.contains("slack_reclaimed_ms.total,gauge,10"), "{csv}");
    }

    /// A fallible-writer test double: every write call consults a script
    /// of planned failures `(call_no, message)` — call numbers are
    /// 1-based over `write` invocations — and succeeds otherwise.
    /// Successful bytes are retained so partial output stays inspectable.
    #[derive(Debug)]
    struct FlakyWriter {
        calls: u32,
        failures: Vec<(u32, &'static str)>,
        ok_bytes: Vec<u8>,
    }

    impl FlakyWriter {
        fn failing_at(failures: Vec<(u32, &'static str)>) -> Self {
            Self {
                calls: 0,
                failures,
                ok_bytes: Vec::new(),
            }
        }
    }

    impl Write for FlakyWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if let Some((_, msg)) = self.failures.iter().find(|(n, _)| *n == self.calls) {
                Err(io::Error::other(*msg))
            } else {
                self.ok_bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_latches_write_errors() {
        // One event = one line write + one newline write; failing from
        // call 3 on kills event #2.
        let mut sink = JsonlSink::new(FlakyWriter::failing_at(vec![
            (3, "disk full"),
            (4, "disk full"),
            (5, "disk full"),
        ]));
        for ev in sample_events() {
            sink.on_event(&ev);
        }
        assert_eq!(sink.events_written(), 1);
        assert!(sink.finish().is_err());
    }

    #[test]
    fn latch_reports_the_first_error_with_context() {
        // Two distinct transient failures: only the FIRST must surface,
        // annotated with the stream position of the event that failed.
        let mut sink = JsonlSink::new(FlakyWriter::failing_at(vec![
            (3, "transient EIO"),
            (5, "disk full"),
        ]));
        for ev in sample_events() {
            sink.on_event(&ev);
        }
        // Event 1 streamed (calls 1+2); event 2's line write (call 3)
        // latched; the later events were dropped without touching the
        // writer again.
        assert_eq!(sink.events_written(), 1);
        let err = sink.finish().expect_err("latched");
        let msg = err.to_string();
        assert!(msg.contains("event #2"), "context names the event: {msg}");
        assert!(msg.contains("transient EIO"), "first error wins: {msg}");
        assert!(!msg.contains("disk full"), "later error suppressed: {msg}");
    }

    #[test]
    fn chrome_sink_latch_reports_first_error_with_context() {
        // Call 1 writes the document head, call 2 the first trace
        // object; failing call 2 kills trace object #1.
        let mut sink = ChromeSink::new(
            FlakyWriter::failing_at(vec![(2, "quota exceeded")]),
            node_label,
        );
        for ev in sample_events() {
            sink.on_event(&ev);
        }
        assert_eq!(sink.events_written(), 0);
        let err = sink.finish().expect_err("latched");
        let msg = err.to_string();
        assert!(msg.contains("event #1"), "{msg}");
        assert!(msg.contains("quota exceeded"), "{msg}");
    }

    #[test]
    fn fanout_keeps_healthy_sinks_streaming_when_a_sibling_latches() {
        let events = sample_events();
        let mut broken = JsonlSink::new(FlakyWriter::failing_at(vec![(1, "gone")]));
        let mut healthy = JsonlSink::new(Vec::new());
        {
            let mut fan = Fanout::new().with(&mut broken).with(&mut healthy);
            for ev in &events {
                fan.on_event(ev);
            }
        }
        // The broken sibling latched on its very first write...
        assert_eq!(broken.events_written(), 0);
        assert!(broken.finish().is_err());
        // ...while the healthy sink streamed the entire run unharmed.
        assert_eq!(healthy.events_written(), events.len() as u64);
        let bytes = healthy.finish().expect("no I/O error on Vec");
        let dump = String::from_utf8(bytes).unwrap();
        assert_eq!(from_jsonl(&dump).expect("jsonl parses"), events);
    }
}
