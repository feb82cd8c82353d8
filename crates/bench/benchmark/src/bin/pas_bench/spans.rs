//! In-memory spans for the traced run, written out as a Chrome trace.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (name, start, end, parent). Nothing is written until the run ends, so
//! recording costs one `Instant::now()` and one push per boundary.

use serde::Value;
use std::time::Instant;

struct Span {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

/// A stack-structured span recorder: a span's parent is the innermost
/// span still open when it begins.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: impl Into<String>) {
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.into(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let end_us = self.now_us();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_us = end_us;
        }
    }

    /// Records a finished span, nested in the innermost open one.
    pub fn record(&mut self, name: impl Into<String>, start: Instant, end: Instant) {
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name: name.into(),
            start_us: us(start),
            end_us: us(end),
            parent: self.open.last().copied(),
        });
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Self) -> T) -> T {
        self.begin(name);
        let out = f(self);
        self.end();
        out
    }

    /// Chrome trace-event JSON (`ph: "X"` complete events, one thread),
    /// loadable in Perfetto or `chrome://tracing`.
    pub fn chrome_trace(&self) -> String {
        let events: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s
                    .parent
                    .map_or(Value::Null, |p| Value::Str(self.spans[p].name.clone()));
                Value::Object(vec![
                    ("name".to_string(), Value::Str(s.name.clone())),
                    ("ph".to_string(), Value::Str("X".to_string())),
                    ("ts".to_string(), Value::Float(s.start_us)),
                    ("dur".to_string(), Value::Float(s.end_us - s.start_us)),
                    ("pid".to_string(), Value::UInt(1)),
                    ("tid".to_string(), Value::UInt(1)),
                    (
                        "args".to_string(),
                        Value::Object(vec![("parent".to_string(), parent)]),
                    ),
                ])
            })
            .collect();
        let doc = Value::Object(vec![("traceEvents".to_string(), Value::Array(events))]);
        serde_json::to_string(&doc).expect("span values are finite")
    }
}
