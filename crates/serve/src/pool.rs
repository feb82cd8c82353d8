//! The fault-isolated worker pool behind the service.
//!
//! A fixed set of worker threads drains the bounded queue. Each job runs
//! under [`std::panic::catch_unwind`], so a panicking handler produces a
//! structured `PAS0506` response and the worker keeps serving — the
//! daemon never dies with a request. Cancellation is cooperative: the
//! submitter flips the job's `cancelled` flag on deadline expiry, and
//! workers skip cancelled jobs still sitting in the queue.

use crate::flight::FlightRecorder;
use crate::proto::{error_response, ok_response, panic_response, Rejection, ReqKind, Request};
use crate::queue::{Bounded, PushError};
use crate::reqtrace::{Timeline, TimelineSpan};
use crate::telemetry::{LatencyStore, SeriesKey};
use pas_obs::profile::names;
use pas_obs::{log, MetricsRegistry};
use serde::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-request execution context handed to the handler: the cooperative
/// cancellation flag plus the request's trace timeline, when one is
/// active.
#[derive(Clone)]
pub struct JobCtx {
    /// Set by the submitter when the request's deadline expires; workers
    /// and handlers poll it and abandon work cooperatively.
    pub cancelled: Arc<AtomicBool>,
    /// The request's span timeline (`"trace": true` or `--trace-out`);
    /// `None` when the request is untraced.
    pub timeline: Option<Arc<Timeline>>,
}

impl JobCtx {
    /// A context with a fresh cancellation flag and no timeline — the
    /// common untraced case (and the test default).
    pub fn detached() -> Self {
        JobCtx {
            cancelled: Arc::new(AtomicBool::new(false)),
            timeline: None,
        }
    }

    /// Opens a timeline span, when a timeline is active. Bind the result
    /// (`let _s = ctx.span(...)`) so the guard lives across the work.
    pub fn span(&self, name: &'static str) -> Option<TimelineSpan<'_>> {
        self.timeline.as_deref().map(|tl| tl.span(name))
    }
}

/// One unit of queued work: the parsed request, its execution context,
/// and the channel the single-line response goes back on.
pub struct Job {
    /// The validated request.
    pub req: Request,
    /// The raw request line as received — embedded verbatim in crash
    /// reports so the offending input is reproducible.
    pub raw: String,
    /// Cancellation flag + optional trace timeline.
    pub ctx: JobCtx,
    /// Where the response line is delivered. A closed receiver (the
    /// submitter already timed out) is not an error.
    pub reply: mpsc::Sender<String>,
    /// When the job was pushed onto the queue; the dequeuing worker
    /// records the difference as `serve.latency.<kind>.queue`.
    pub enqueued: Instant,
}

/// Why a submission was refused at the queue boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — shed with retry-after (`PAS0504`).
    QueueFull {
        /// Depth at refusal time, for the shed response.
        depth: usize,
    },
    /// The pool is draining for shutdown.
    ShuttingDown,
}

/// The handler a worker runs for each job. Returns the response body on
/// success or a structured [`Rejection`]; panics are contained by the
/// pool.
pub type Handler = Arc<dyn Fn(&Request, &JobCtx) -> Result<Value, Rejection> + Send + Sync>;

/// A fixed pool of workers over a bounded queue.
pub struct WorkerPool {
    queue: Arc<Bounded<Job>>,
    busy: Arc<AtomicUsize>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawns `workers` threads draining a queue of capacity `queue_cap`.
    /// Panic containment and cancellation skips are tallied into
    /// `metrics` (`serve.panics`, `serve.worker_recoveries`,
    /// `serve.cancelled_in_queue`, `serve.responses.*`); queue-wait and
    /// execution latencies are recorded into `latencies`; lifecycle
    /// events (dispatch, panic) land in `flight`, which dumps a crash
    /// report on `PAS0506`.
    pub fn new(
        workers: usize,
        queue_cap: usize,
        metrics: Arc<Mutex<MetricsRegistry>>,
        latencies: Arc<LatencyStore>,
        flight: Arc<FlightRecorder>,
        handler: Handler,
    ) -> Self {
        let queue = Arc::new(Bounded::new(queue_cap));
        let busy = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for i in 0..workers.max(1) {
            let queue = Arc::clone(&queue);
            let busy = Arc::clone(&busy);
            let metrics = Arc::clone(&metrics);
            let latencies = Arc::clone(&latencies);
            let flight = Arc::clone(&flight);
            let handler = Arc::clone(&handler);
            let h = std::thread::Builder::new()
                .name(format!("pas-serve-worker-{i}"))
                .spawn(move || worker_loop(&queue, &busy, &metrics, &latencies, &flight, &handler))
                .unwrap_or_else(|e| panic!("spawning worker {i}: {e}"));
            handles.push(h);
        }
        WorkerPool {
            queue,
            busy,
            handles: Mutex::new(handles),
        }
    }

    /// Enqueues a job, returning the queue depth after the push.
    pub fn submit(&self, job: Job) -> Result<usize, SubmitError> {
        self.queue.try_push(job).map_err(|e| match e {
            PushError::Full(depth) => SubmitError::QueueFull { depth },
            PushError::Closed => SubmitError::ShuttingDown,
        })
    }

    /// Current queue depth (the `serve.queue_depth` gauge).
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Workers currently executing a job.
    pub fn busy_workers(&self) -> usize {
        self.busy.load(Ordering::SeqCst)
    }

    /// Closes the queue and waits for in-flight work to drain, up to
    /// `deadline`. Returns the number of workers abandoned mid-job (0 on
    /// a clean drain); abandoned threads are detached, not killed.
    pub fn shutdown(&self, deadline: Duration) -> usize {
        self.queue.close();
        let t0 = Instant::now();
        while t0.elapsed() < deadline {
            if self.busy.load(Ordering::SeqCst) == 0 && self.queue.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let abandoned = self.busy.load(Ordering::SeqCst);
        if abandoned == 0 {
            let handles =
                std::mem::take(&mut *self.handles.lock().unwrap_or_else(|e| e.into_inner()));
            for h in handles {
                let _ = h.join();
            }
        }
        abandoned
    }
}

/// Records one latency observation, tallying `serve.latency.overflow`
/// when the sample fell beyond the histogram range (it still lands,
/// clamped, in the top bin — but no longer silently).
fn record_latency(
    latencies: &LatencyStore,
    metrics: &Mutex<MetricsRegistry>,
    key: SeriesKey,
    ms: f64,
) {
    if latencies.record(key, ms) {
        let mut m = metrics.lock().unwrap_or_else(|e| e.into_inner());
        m.inc("serve.latency.overflow", 1);
    }
}

fn worker_loop(
    queue: &Bounded<Job>,
    busy: &AtomicUsize,
    metrics: &Mutex<MetricsRegistry>,
    latencies: &LatencyStore,
    flight: &FlightRecorder,
    handler: &Handler,
) {
    while let Some(job) = queue.pop() {
        if job.ctx.cancelled.load(Ordering::SeqCst) {
            // The submitter already answered with PAS0505; don't burn a
            // worker on a response nobody is waiting for.
            let mut m = metrics.lock().unwrap_or_else(|e| e.into_inner());
            m.inc("serve.cancelled_in_queue", 1);
            continue;
        }
        let kind = job.req.kind.name();
        let _corr = log::with_corr(&job.req.id);
        flight.record("dispatch", &job.req.id, kind);
        if let Some(tl) = job.ctx.timeline.as_deref() {
            tl.record_since(names::REQ_QUEUE_WAIT, job.enqueued);
        }
        record_latency(
            latencies,
            metrics,
            SeriesKey::new(kind, "queue"),
            job.enqueued.elapsed().as_secs_f64() * 1e3,
        );
        busy.fetch_add(1, Ordering::SeqCst);
        let exec_span = job.ctx.span(names::REQ_EXEC);
        let exec_t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| (handler)(&job.req, &job.ctx)));
        let exec_ms = exec_t0.elapsed().as_secs_f64() * 1e3;
        drop(exec_span);
        busy.fetch_sub(1, Ordering::SeqCst);
        record_latency(latencies, metrics, SeriesKey::new(kind, "exec"), exec_ms);
        if job.req.kind == ReqKind::Plan {
            // The plan body carries its cache outcome; split the exec
            // series so hit (cache fetch) and miss (full re-derivation)
            // latencies don't average into one meaningless number.
            if let Ok(Ok(body)) = &outcome {
                if let Some(Value::Bool(cached)) = body.get("cached") {
                    let split = if *cached { "hit" } else { "miss" };
                    record_latency(
                        latencies,
                        metrics,
                        SeriesKey::with_cache(kind, "exec", split),
                        exec_ms,
                    );
                }
            }
        }
        let (line, counter) = match outcome {
            Ok(Ok(body)) => (
                ok_response(&job.req.id, job.req.kind, body),
                "serve.responses.ok",
            ),
            Ok(Err(rej)) => (error_response(&job.req.id, &rej), "serve.responses.error"),
            Err(payload) => {
                let detail = panic_detail(payload.as_ref());
                {
                    let mut m = metrics.lock().unwrap_or_else(|e| e.into_inner());
                    m.inc("serve.panics", 1);
                    // catch_unwind recovers the worker in place — the
                    // same accounting slot a respawn would fill.
                    m.inc("serve.worker_recoveries", 1);
                }
                log::emit(
                    log::Level::Error,
                    "serve.pool",
                    "worker panic contained",
                    vec![
                        ("kind", Value::Str(kind.to_string())),
                        ("detail", Value::Str(detail.clone())),
                    ],
                );
                flight.record("panic", &job.req.id, &detail);
                if flight
                    .dump("PAS0506", &job.req.id, &job.raw, metrics)
                    .is_some()
                {
                    let mut m = metrics.lock().unwrap_or_else(|e| e.into_inner());
                    m.inc("serve.crash_reports", 1);
                }
                (
                    panic_response(&job.req.id, &detail),
                    "serve.responses.panic",
                )
            }
        };
        {
            let mut m = metrics.lock().unwrap_or_else(|e| e.into_inner());
            m.inc(counter, 1);
        }
        // A dropped receiver means the submitter gave up (deadline); the
        // work is wasted but the worker is fine.
        let _ = job.reply.send(line);
    }
}

fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{parse_request, ReqKind};
    use serde::Value;

    fn pool_with(handler: Handler) -> (WorkerPool, Arc<Mutex<MetricsRegistry>>) {
        let metrics = Arc::new(Mutex::new(MetricsRegistry::new()));
        let latencies = Arc::new(LatencyStore::new());
        let flight = Arc::new(FlightRecorder::new(64, None));
        let pool = WorkerPool::new(2, 8, Arc::clone(&metrics), latencies, flight, handler);
        (pool, metrics)
    }

    fn job_for(line: &str) -> (Job, mpsc::Receiver<String>) {
        let req = parse_request(line).expect("request parses");
        let (tx, rx) = mpsc::channel();
        (
            Job {
                req,
                raw: line.to_string(),
                ctx: JobCtx::detached(),
                reply: tx,
                enqueued: Instant::now(),
            },
            rx,
        )
    }

    #[test]
    fn ok_and_error_and_panic_all_answer() {
        let handler: Handler = Arc::new(|req, _| match req.kind {
            ReqKind::DebugPanic => panic!("kaboom"),
            ReqKind::DebugFail => Err(Rejection::bad_param("nope")),
            _ => Ok(Value::Null),
        });
        let (pool, metrics) = pool_with(handler);

        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let (j1, r1) = job_for(r#"{"id":"ok","kind":"run"}"#);
        let (j2, r2) = job_for(r#"{"id":"bad","kind":"debug-fail"}"#);
        let (j3, r3) = job_for(r#"{"id":"boom","kind":"debug-panic"}"#);
        pool.submit(j1).expect("submit");
        pool.submit(j2).expect("submit");
        pool.submit(j3).expect("submit");
        let t = Duration::from_secs(5);
        let a = r1.recv_timeout(t).expect("ok reply");
        let b = r2.recv_timeout(t).expect("error reply");
        let c = r3.recv_timeout(t).expect("panic reply");
        std::panic::set_hook(prev);

        assert!(a.contains("\"status\":\"ok\""), "{a}");
        assert!(b.contains("PAS0503"), "{b}");
        assert!(c.contains("PAS0506") && c.contains("kaboom"), "{c}");
        let m = metrics.lock().expect("metrics");
        assert_eq!(m.counter("serve.panics"), 1);
        assert_eq!(m.counter("serve.worker_recoveries"), 1);
        assert_eq!(m.counter("serve.responses.ok"), 1);
        assert_eq!(m.counter("serve.responses.error"), 1);
        assert_eq!(m.counter("serve.responses.panic"), 1);
        assert_eq!(pool.shutdown(Duration::from_secs(5)), 0);
    }

    #[test]
    fn workers_record_queue_and_exec_latencies() {
        let handler: Handler = Arc::new(|_, _| Ok(Value::Null));
        let metrics = Arc::new(Mutex::new(MetricsRegistry::new()));
        let latencies = Arc::new(LatencyStore::new());
        let flight = Arc::new(FlightRecorder::new(64, None));
        let pool = WorkerPool::new(1, 8, metrics, Arc::clone(&latencies), flight, handler);
        let (job, rx) = job_for(r#"{"id":"l","kind":"run"}"#);
        pool.submit(job).expect("submit");
        rx.recv_timeout(Duration::from_secs(5)).expect("reply");
        assert_eq!(pool.shutdown(Duration::from_secs(5)), 0);
        let snaps = latencies.snapshot();
        for stage in ["queue", "exec"] {
            let (_, s) = snaps
                .iter()
                .find(|(k, _)| *k == SeriesKey::new("run", stage))
                .expect("series exists");
            assert_eq!(s.count, 1, "{stage}");
        }
    }

    #[test]
    fn cancelled_jobs_are_skipped_in_queue() {
        let handler: Handler = Arc::new(|_, _| Ok(Value::Null));
        let (pool, metrics) = pool_with(handler);
        let (job, rx) = job_for(r#"{"id":"late","kind":"run"}"#);
        job.ctx.cancelled.store(true, Ordering::SeqCst);
        pool.submit(job).expect("submit");
        assert!(rx.recv_timeout(Duration::from_millis(300)).is_err());
        assert_eq!(pool.shutdown(Duration::from_secs(5)), 0);
        let m = metrics.lock().expect("metrics");
        assert_eq!(m.counter("serve.cancelled_in_queue"), 1);
        assert_eq!(m.counter("serve.responses.ok"), 0);
    }

    #[test]
    fn shed_when_queue_full() {
        // One worker parked on a slow job + capacity-1 queue: the third
        // submission must shed, not block or queue unboundedly.
        let handler: Handler = Arc::new(|req, ctx| {
            if req.kind == ReqKind::DebugSleep {
                while !ctx.cancelled.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            Ok(Value::Null)
        });
        let metrics = Arc::new(Mutex::new(MetricsRegistry::new()));
        let latencies = Arc::new(LatencyStore::new());
        let flight = Arc::new(FlightRecorder::new(64, None));
        let pool = WorkerPool::new(1, 1, Arc::clone(&metrics), latencies, flight, handler);
        let (j1, _r1) = job_for(r#"{"id":"slow","kind":"debug-sleep","sleep_ms":1000}"#);
        let stop = Arc::clone(&j1.ctx.cancelled);
        pool.submit(j1).expect("submit slow");
        // Wait for the worker to pick the slow job up.
        let t0 = Instant::now();
        while pool.busy_workers() == 0 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(2));
        }
        let (j2, _r2) = job_for(r#"{"id":"q","kind":"run"}"#);
        pool.submit(j2).expect("fills queue");
        let (j3, _r3) = job_for(r#"{"id":"shed","kind":"run"}"#);
        assert_eq!(
            pool.submit(j3).expect_err("must shed"),
            SubmitError::QueueFull { depth: 1 }
        );
        stop.store(true, Ordering::SeqCst);
        assert_eq!(pool.shutdown(Duration::from_secs(5)), 0);
    }
}
