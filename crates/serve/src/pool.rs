//! The fault-isolated worker pool behind the service.
//!
//! A fixed set of worker threads drains the bounded queue. Each job runs
//! under [`std::panic::catch_unwind`], so a panicking handler becomes an
//! [`Outcome::Panic`] and the worker keeps serving — the daemon never
//! dies with a request. A worker marks the job's [`Record`] at dispatch
//! and at handler return and sends the outcome back; the front end
//! answers it and accounts for it. Cancellation is cooperative: the
//! submitter flips the job's `cancelled` flag on deadline expiry, and
//! workers skip cancelled jobs still sitting in the queue.

use crate::proto::{Rejection, Request};
use crate::queue::{Bounded, PushError};
use crate::reqtrace::{Outcome, Record, SpanGuard, Stage};
use crate::telemetry::Telemetry;
use pas_obs::log;
use serde::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-request execution context handed to the handler: the cooperative
/// cancellation flag plus the request's record.
#[derive(Clone)]
pub struct JobCtx {
    /// Set by the submitter when the request's deadline expires; workers
    /// and handlers poll it and abandon work cooperatively.
    pub cancelled: Arc<AtomicBool>,
    /// The request's record: stamps, cache outcome and, when traced,
    /// the handler's spans.
    pub record: Arc<Record>,
}

impl JobCtx {
    /// Opens a span on the record, when the request is traced. Bind the
    /// result (`let _s = ctx.span(...)`) so the guard lives across the
    /// work.
    pub fn span(&self, name: &'static str) -> Option<SpanGuard<'_>> {
        self.record.span(name)
    }
}

/// One unit of queued work: the parsed request, its execution context,
/// and the channel its outcome goes back on.
pub struct Job {
    /// The validated request.
    pub req: Request,
    /// Cancellation flag + record.
    pub ctx: JobCtx,
    /// Where the outcome is delivered. A closed receiver (the submitter
    /// already timed out) is not an error.
    pub reply: mpsc::Sender<Outcome>,
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
    /// Workers mark dispatch on `tel` and count the cancelled jobs they
    /// skip (`serve.cancelled_in_queue`).
    pub fn new(workers: usize, queue_cap: usize, tel: Arc<Telemetry>, handler: Handler) -> Self {
        let queue = Arc::new(Bounded::new(queue_cap));
        let busy = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for i in 0..workers.max(1) {
            let queue = Arc::clone(&queue);
            let busy = Arc::clone(&busy);
            let tel = Arc::clone(&tel);
            let handler = Arc::clone(&handler);
            let h = std::thread::Builder::new()
                .name(format!("pas-serve-worker-{i}"))
                .spawn(move || worker_loop(&queue, &busy, &tel, &handler))
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

fn worker_loop(queue: &Bounded<Job>, busy: &AtomicUsize, tel: &Telemetry, handler: &Handler) {
    while let Some(job) = queue.pop() {
        if job.ctx.cancelled.load(Ordering::SeqCst) {
            // The submitter already answered with PAS0505; don't burn a
            // worker on a response nobody is waiting for.
            tel.count("serve.cancelled_in_queue");
            continue;
        }
        let rec = &job.ctx.record;
        let _corr = log::with_corr(&rec.id);
        tel.mark(rec, Stage::Dispatch);
        busy.fetch_add(1, Ordering::SeqCst);
        let outcome = match catch_unwind(AssertUnwindSafe(|| (handler)(&job.req, &job.ctx))) {
            Ok(Ok(body)) => Outcome::Ok(body),
            Ok(Err(rej)) => Outcome::Error(rej),
            Err(payload) => Outcome::Panic(panic_detail(payload.as_ref())),
        };
        tel.mark(rec, Stage::Return);
        busy.fetch_sub(1, Ordering::SeqCst);
        // A dropped receiver means the submitter gave up (deadline); the
        // work is wasted but the worker is fine.
        let _ = job.reply.send(outcome);
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
impl JobCtx {
    /// A context with a fresh cancellation flag and an untraced record
    /// (the handler tests' default).
    pub fn detached() -> Self {
        JobCtx {
            cancelled: Arc::new(AtomicBool::new(false)),
            record: Arc::new(Record::new(
                &crate::proto::parse_request(r#"{"kind":"run"}"#).expect("parses"),
                "",
                Instant::now(),
                false,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{parse_request, ReqKind};
    use crate::service::ServeConfig;
    use crate::telemetry::SeriesKey;
    use serde::Value;

    fn pool_with(handler: Handler) -> (WorkerPool, Arc<Telemetry>) {
        let tel = Arc::new(Telemetry::new(&ServeConfig::default()));
        let pool = WorkerPool::new(2, 8, Arc::clone(&tel), handler);
        (pool, tel)
    }

    fn job_for(line: &str) -> (Job, mpsc::Receiver<Outcome>) {
        let req = parse_request(line).expect("request parses");
        let (tx, rx) = mpsc::channel();
        let record = Record::new(&req, line, Instant::now(), false);
        let ctx = JobCtx {
            cancelled: Arc::new(AtomicBool::new(false)),
            record: Arc::new(record),
        };
        ctx.record.stamp(Stage::Enqueue);
        (
            Job {
                req,
                ctx,
                reply: tx,
            },
            rx,
        )
    }

    /// Submits `job` and answers it the way the front end does.
    fn answer(
        pool: &WorkerPool,
        tel: &Telemetry,
        (job, rx): (Job, mpsc::Receiver<Outcome>),
    ) -> String {
        let rec = Arc::clone(&job.ctx.record);
        pool.submit(job).expect("submit");
        let outcome = rx.recv_timeout(Duration::from_secs(5)).expect("reply");
        tel.finish(&rec, outcome, pool.queue_depth())
    }

    #[test]
    fn ok_and_error_and_panic_all_answer() {
        let handler: Handler = Arc::new(|req, _| match req.kind {
            ReqKind::DebugPanic => panic!("kaboom"),
            ReqKind::DebugFail => Err(Rejection::bad_param("nope")),
            _ => Ok(Value::Null),
        });
        let (pool, tel) = pool_with(handler);

        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let a = answer(&pool, &tel, job_for(r#"{"id":"ok","kind":"run"}"#));
        let b = answer(&pool, &tel, job_for(r#"{"id":"bad","kind":"debug-fail"}"#));
        let c = answer(
            &pool,
            &tel,
            job_for(r#"{"id":"boom","kind":"debug-panic"}"#),
        );
        std::panic::set_hook(prev);

        assert!(a.contains("\"status\":\"ok\""), "{a}");
        assert!(b.contains("PAS0503"), "{b}");
        assert!(c.contains("PAS0506") && c.contains("kaboom"), "{c}");
        let m = tel.registry();
        assert_eq!(m.counter("serve.panics"), 1);
        assert_eq!(m.counter("serve.worker_recoveries"), 1);
        assert_eq!(m.counter("serve.responses.ok"), 1);
        assert_eq!(m.counter("serve.responses.error"), 1);
        assert_eq!(m.counter("serve.responses.panic"), 1);
        drop(m);
        assert_eq!(pool.shutdown(Duration::from_secs(5)), 0);
    }

    #[test]
    fn workers_record_queue_and_exec_latencies() {
        let handler: Handler = Arc::new(|_, _| Ok(Value::Null));
        let tel = Arc::new(Telemetry::new(&ServeConfig::default()));
        let pool = WorkerPool::new(1, 8, Arc::clone(&tel), handler);
        answer(&pool, &tel, job_for(r#"{"id":"l","kind":"run"}"#));
        assert_eq!(pool.shutdown(Duration::from_secs(5)), 0);
        let snaps = tel.latencies.snapshot();
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
        let (pool, tel) = pool_with(handler);
        let (job, rx) = job_for(r#"{"id":"late","kind":"run"}"#);
        job.ctx.cancelled.store(true, Ordering::SeqCst);
        pool.submit(job).expect("submit");
        assert!(rx.recv_timeout(Duration::from_millis(300)).is_err());
        assert_eq!(pool.shutdown(Duration::from_secs(5)), 0);
        let m = tel.registry();
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
        let tel = Arc::new(Telemetry::new(&ServeConfig::default()));
        let pool = WorkerPool::new(1, 1, tel, handler);
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
