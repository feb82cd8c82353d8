//! `serve-mix`: `pas serve` as a separate, unpinned child process, driven
//! by one client process over two closed-loop TCP connections (each caller
//! sends its next request only after the reply to the previous one). One
//! op is one request. The seeded mix:
//!
//! - 60% plan-hit: ATR, 6 processors, load 0.4/0.5/0.6/0.7 (cached);
//! - 10% plan-miss: a load used once, `0.3 + i·1e-6`, which forces a
//!   derivation, an insert and, once the cache is full, an LRU eviction;
//! - 25% `run`, 5% `montecarlo` with a batch of 4096.

use crate::record::Metric;
use crate::spans::Spans;
use crate::sys::{self, Affinity};
use crate::{mc, offline, stats, Outcome};
use andor_graph::AndOrGraph;
use mp_sim::{realization_seed, ExecTimeModel};
use pas_core::{PlanArtifact, Scheme, Setup};
use pas_experiments::figures::Platform;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Closed-loop load connections (one client thread each).
const CONNECTIONS: u64 = 2;
/// Daemon spawns in the set-up measurement; the last one serves the run.
const SETUP_REPS: usize = 5;
/// The ATR instance the paper's figures use (`figures::atr_app`).
const ATR_SEED: u64 = 0xA72;
const PROCS: usize = 6;
const HOT_LOADS: [f64; 4] = [0.4, 0.5, 0.6, 0.7];
const RUN_LOAD: f64 = 0.5;
const MC_BATCH: usize = 4096;
/// No reply within this long counts as a failed request.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    PlanHit,
    PlanMiss,
    Run,
    Montecarlo,
}

const KINDS: [(Kind, &str); 4] = [
    (Kind::PlanHit, "plan_hit"),
    (Kind::PlanMiss, "plan_miss"),
    (Kind::Run, "run"),
    (Kind::Montecarlo, "montecarlo"),
];

/// One request of the mix, with what the reply is checked against.
#[derive(Clone)]
struct Req {
    kind: Kind,
    load: f64,
    scheme: Scheme,
    seed: u64,
    line: String,
}

impl Req {
    fn new(kind: Kind, id: &str, load: f64, scheme: Scheme, seed: u64) -> Self {
        let (wire_kind, extra) = match kind {
            Kind::PlanHit | Kind::PlanMiss => ("plan", String::new()),
            Kind::Run => ("run", String::new()),
            Kind::Montecarlo => ("montecarlo", format!(",\"batch\":{MC_BATCH}")),
        };
        let slug = crate::catalog::slug(scheme);
        let line = format!(
            "{{\"id\":\"{id}\",\"kind\":\"{wire_kind}\",\"workload\":\"atr\",\"platform\":\"transmeta\",\
             \"procs\":{PROCS},\"load\":{load:?},\"scheme\":\"{slug}\",\"seed\":{seed}{extra}}}"
        );
        Self {
            kind,
            load,
            scheme,
            seed,
            line,
        }
    }
}

/// The seeded request stream of one connection.
struct Mix {
    rng: StdRng,
    conn: u64,
    sent: u64,
    misses: u64,
}

impl Mix {
    fn new(seed: u64, conn: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(realization_seed(seed, conn)),
            conn,
            sent: 0,
            misses: 0,
        }
    }

    fn next(&mut self) -> Req {
        let id = format!("c{}-{}", self.conn, self.sent);
        self.sent += 1;
        let u: f64 = self.rng.gen_range(0.0..1.0);
        let scheme = Scheme::ALL[self.rng.gen_range(0..Scheme::ALL.len())];
        let seed = self.rng.gen_range(0..u64::from(u32::MAX));
        if u < 0.6 {
            let load = HOT_LOADS[self.rng.gen_range(0..HOT_LOADS.len())];
            Req::new(Kind::PlanHit, &id, load, Scheme::Gss, ATR_SEED)
        } else if u < 0.7 {
            // Loads never repeat across connections or runs of one daemon.
            let i = self.misses * CONNECTIONS + self.conn;
            self.misses += 1;
            let load = (300_000 + i) as f64 / 1e6;
            Req::new(Kind::PlanMiss, &id, load, Scheme::Gss, ATR_SEED)
        } else if u < 0.95 {
            Req::new(Kind::Run, &id, RUN_LOAD, scheme, seed)
        } else {
            Req::new(Kind::Montecarlo, &id, RUN_LOAD, scheme, seed)
        }
    }
}

/// One connection to the daemon.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: &str, patience: Duration) -> Result<Self, String> {
        let t0 = Instant::now();
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(e) if t0.elapsed() > patience => {
                    return Err(format!("connecting to {addr}: {e}"))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Self {
            writer: stream,
            reader,
        })
    }

    /// Sends one request line and waits for its reply line.
    fn call(&mut self, line: &str) -> Result<String, String> {
        let mut msg = String::with_capacity(line.len() + 1);
        msg.push_str(line);
        msg.push('\n');
        self.writer
            .write_all(msg.as_bytes())
            .map_err(|e| format!("sending: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Ok(reply),
            Err(e) => Err(format!("receiving: {e}")),
        }
    }

    /// `call`, then the reply's body if its status is `ok`.
    fn call_ok(&mut self, line: &str) -> Result<Value, String> {
        match self.request(line) {
            Reply::Ok(body) => Ok(body),
            Reply::Refused(e) | Reply::Broken(e) => Err(e),
        }
    }

    fn request(&mut self, line: &str) -> Reply {
        let reply = match self.call(line) {
            Ok(r) => r,
            Err(e) => return Reply::Broken(e),
        };
        let v: Value = match serde_json::from_str(&reply) {
            Ok(v) => v,
            Err(e) => return Reply::Refused(format!("unparseable reply: {e}")),
        };
        match v.get("status").and_then(Value::as_str) {
            Some("ok") => Reply::Ok(v.get("body").cloned().unwrap_or(Value::Null)),
            other => Reply::Refused(format!("status {other:?}: {}", reply.trim())),
        }
    }
}

enum Reply {
    /// `status: "ok"`, with the body.
    Ok(Value),
    /// Any other status, or a reply that does not parse.
    Refused(String),
    /// The connection failed; it must be reopened.
    Broken(String),
}

/// The daemon child process: `pas serve` through `pas_cli::run`, the entry
/// point the `pas` binary calls. Killed and reaped if dropped while running.
struct Daemon {
    child: Child,
    addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A started daemon, its control connection, and how long it took.
struct Started {
    daemon: Daemon,
    control: Conn,
    /// Spawn until the first `ok` status reply.
    ready: Duration,
    /// TCP connect until that reply (the accept loop polls every 50 ms).
    connect: Duration,
}

impl Daemon {
    fn start() -> Result<Started, String> {
        let addr = format!("127.0.0.1:{}", sys::free_port()?);
        let exe = std::env::current_exe().map_err(|e| format!("locating pas_bench: {e}"))?;
        let t0 = Instant::now();
        let child = Command::new(exe)
            .args([
                "daemon",
                "--listen",
                &addr,
                "--workers",
                "2",
                "--queue",
                "64",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        let daemon = Daemon { child, addr };
        let mut control = Conn::connect(&daemon.addr, Duration::from_secs(20))?;
        let connected = Instant::now();
        control.call_ok(r#"{"id":"ready","kind":"status"}"#)?;
        Ok(Started {
            daemon,
            control,
            ready: t0.elapsed(),
            connect: connected.elapsed(),
        })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to drain and waits for it to exit.
    fn shutdown(mut self, control: &mut Conn) -> Result<(), String> {
        control.call_ok(r#"{"id":"bye","kind":"shutdown"}"#)?;
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(20) {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                Err(e) => return Err(format!("waiting for the daemon: {e}")),
            }
        }
        Err("daemon did not exit within 20 s of shutdown".to_string())
    }
}

/// One request of a measured window and what came back.
struct Done {
    req: Req,
    start: Instant,
    end: Instant,
    reply: Result<Value, String>,
}

impl Done {
    /// Client-side latency; a failed or refused request counts as +∞.
    fn latency_ms(&self) -> f64 {
        match self.reply {
            Ok(_) => (self.end - self.start).as_secs_f64() * 1e3,
            Err(_) => f64::INFINITY,
        }
    }
}

/// Runs the closed-loop clients for `duration`, one thread per connection.
fn window(
    addr: &str,
    conns: &mut [Conn],
    mixes: &mut [Mix],
    duration: Duration,
) -> Result<Vec<Done>, String> {
    let results: Vec<Result<Vec<Done>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(mixes.iter_mut())
            .map(|(conn, mix)| {
                s.spawn(move || {
                    let deadline = Instant::now() + duration;
                    let mut done = Vec::new();
                    while Instant::now() < deadline {
                        let req = mix.next();
                        let start = Instant::now();
                        let reply = conn.request(&req.line);
                        let end = Instant::now();
                        let reply = match reply {
                            Reply::Ok(body) => Ok(body),
                            Reply::Refused(e) => Err(e),
                            Reply::Broken(e) => {
                                *conn = Conn::connect(addr, Duration::from_secs(5))?;
                                Err(e)
                            }
                        };
                        done.push(Done {
                            req,
                            start,
                            end,
                            reply,
                        });
                    }
                    Ok(done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    Ok(all)
}

/// Fewest requests in one sample, so its median has ten beyond it.
const MIN_SAMPLE_REQUESTS: usize = 20;

/// The end-to-end metrics of a window. Requests are not repeated, so
/// where the in-process workloads keep each input at its fastest, this
/// splits the window by send time into samples of at least one second and
/// [`MIN_SAMPLE_REQUESTS`], and keeps the least disturbed sample: the
/// highest `ops_per_s` (`ok` replies per second of client time, where the
/// connections' waits add up to `CONNECTIONS` seconds per second, so the
/// value is not quantised to whole requests) and the lowest median
/// latency. `op_p90_ms` is over the whole window.
fn window_metrics(done: &[Done]) -> Result<Vec<Metric>, String> {
    let mut sorted: Vec<&Done> = done.iter().collect();
    sorted.sort_by_key(|d| d.start);
    let (mut samples, mut current) = (Vec::new(), Vec::<&Done>::new());
    for d in sorted {
        if current.len() >= MIN_SAMPLE_REQUESTS
            && d.start - current[0].start >= Duration::from_secs(1)
        {
            samples.push(std::mem::take(&mut current));
        }
        current.push(d);
    }
    if current.len() >= MIN_SAMPLE_REQUESTS {
        samples.push(current);
    }
    let rates: Vec<f64> = samples
        .iter()
        .map(|s| {
            let ok = s.iter().filter(|d| d.reply.is_ok()).count();
            let busy: f64 = s.iter().map(|d| (d.end - d.start).as_secs_f64()).sum();
            ok as f64 * CONNECTIONS as f64 / busy
        })
        .collect();
    let p50s = samples
        .iter()
        .map(|s| stats::percentile(&s.iter().map(|d| d.latency_ms()).collect::<Vec<_>>(), 0.5))
        .collect::<Result<Vec<_>, _>>()?;
    let highest = rates.iter().copied().reduce(f64::max).ok_or("no samples")?;
    let all: Vec<f64> = done.iter().map(Done::latency_ms).collect();
    let mut out = vec![
        Metric::value("ops_per_s", highest).spread(&rates),
        Metric::lowest("op_p50_ms", &p50s)?,
    ];
    // Informational: left out when a short run has too few requests.
    out.extend(Metric::percentile("op_p90_ms", &all, 0.9).ok());
    Ok(out)
}

fn atr(seed: u64) -> Result<AndOrGraph, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    workloads::AtrParams::default()
        .build_jittered(&mut rng)
        .map_err(|e| e.to_string())?
        .lower()
        .map_err(|e| e.to_string())
}

fn setup(seed: u64, load: f64) -> Result<Setup, String> {
    Setup::for_load(atr(seed)?, Platform::Transmeta.model(), PROCS, load).map_err(|e| e.to_string())
}

/// The digest `pas serve` must return for a plan request, derived here.
fn plan_digest(req: &Req) -> Result<String, String> {
    PlanArtifact::from_setup(&setup(req.seed, req.load)?, req.scheme, "atr", "transmeta").digest()
}

fn field(v: &Value, path: &[&str]) -> Option<Value> {
    path.iter().try_fold(v.clone(), |v, k| v.get(k).cloned())
}

fn same_f64(v: &Value, path: &[&str], want: f64) -> bool {
    field(v, path)
        .and_then(|x| x.as_f64())
        .is_some_and(|got| got.to_bits() == want.to_bits())
}

/// Checks every `ok` reply against the same computation done in-process:
/// plan digests, `run` results and `montecarlo` summaries, bit for bit.
fn verify(done: &[Done], hot: &[(f64, String)]) -> Result<(), String> {
    let etm = ExecTimeModel::paper_defaults();
    for d in done {
        let Ok(body) = &d.reply else { continue };
        let req = &d.req;
        let ok = match req.kind {
            Kind::PlanHit | Kind::PlanMiss => {
                let want = match hot.iter().find(|(l, _)| l.to_bits() == req.load.to_bits()) {
                    Some((_, digest)) => digest.clone(),
                    None => plan_digest(req)?,
                };
                body.get("digest").and_then(Value::as_str) == Some(want.as_str())
            }
            Kind::Run => {
                let s = setup(req.seed, RUN_LOAD)?;
                let real = s.sample(&etm, &mut StdRng::seed_from_u64(req.seed));
                let res = s.run(req.scheme, &real).map_err(|e| e.to_string())?;
                !res.missed_deadline
                    && same_f64(body, &["finish_ms"], res.finish_time)
                    && same_f64(body, &["total_energy"], res.total_energy())
            }
            Kind::Montecarlo => {
                let case = mc::Case {
                    setup: setup(req.seed, RUN_LOAD)?,
                    faults: None,
                    platform: Platform::Transmeta,
                    load: RUN_LOAD,
                };
                let (_, dist) = case.batch(req.scheme, req.seed, MC_BATCH)?;
                same_f64(body, &["energy", "mean"], dist.energy().summary().mean())
                    && field(body, &["miss", "count"]).and_then(|c| c.as_u64())
                        == Some(dist.misses())
            }
        };
        if !ok {
            return Err(format!("reply to {} does not match: {body:?}", req.line));
        }
    }
    Ok(())
}

/// Everything one serve-mix run measured.
struct Session {
    setup_s: Metric,
    connect_ms: f64,
    /// The untraced window, then (traced runs only) the traced one.
    windows: Vec<Vec<Done>>,
    peak_rss_mb: f64,
    status: Value,
}

fn session(seed: u64, seconds: u64, windows: usize) -> Result<Session, String> {
    let mut ready = Vec::new();
    let mut connect = Vec::new();
    let mut started = None;
    for rep in 0..SETUP_REPS {
        let mut s = Daemon::start()?;
        ready.push(s.ready.as_secs_f64());
        connect.push(s.connect.as_secs_f64() * 1e3);
        if rep + 1 < SETUP_REPS {
            s.daemon.shutdown(&mut s.control)?;
        } else {
            started = Some(s);
        }
    }
    let Started {
        daemon,
        mut control,
        ..
    } = started.ok_or("no daemon started")?;

    let hot: Vec<(f64, String)> = HOT_LOADS
        .iter()
        .map(|&load| {
            let req = Req::new(Kind::PlanHit, "warm", load, Scheme::Gss, ATR_SEED);
            control.call_ok(&req.line)?;
            Ok((load, plan_digest(&req)?))
        })
        .collect::<Result<_, String>>()?;
    let mut conns = (0..CONNECTIONS)
        .map(|_| Conn::connect(&daemon.addr, Duration::from_secs(5)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut mixes: Vec<Mix> = (0..CONNECTIONS).map(|c| Mix::new(seed, c)).collect();
    window(&daemon.addr, &mut conns, &mut mixes, Duration::from_secs(1))?;
    let mut measured = Vec::new();
    for _ in 0..windows {
        measured.push(window(
            &daemon.addr,
            &mut conns,
            &mut mixes,
            Duration::from_secs(seconds),
        )?);
    }
    let status = control.call_ok(r#"{"id":"status","kind":"status"}"#)?;
    let peak_rss_mb = sys::peak_rss_mb(Some(daemon.pid()))?;
    drop(conns);
    daemon.shutdown(&mut control)?;
    for w in &measured {
        verify(w, &hot)?;
    }
    Ok(Session {
        setup_s: Metric::median("setup_s", &ready)?,
        connect_ms: stats::median(&connect).unwrap_or(0.0),
        windows: measured,
        peak_rss_mb,
        status,
    })
}

fn failed(done: &[Done]) -> u64 {
    done.iter().filter(|d| d.reply.is_err()).count() as u64
}

pub fn run(seed: u64, seconds: u64) -> Result<Outcome, String> {
    let s = session(seed, seconds, 1)?;
    let done = &s.windows[0];
    let mut metrics = vec![s.setup_s];
    metrics.extend(window_metrics(done)?);
    metrics.push(Metric::value("peak_rss_mb", s.peak_rss_mb));
    let mut out = Outcome::new(metrics, done.len() as u64);
    out.failed = failed(done);
    Ok(out)
}

pub fn trace(seed: u64, seconds: u64, spans: &mut Spans) -> Result<Outcome, String> {
    let s = spans.scope("serve session", |_| session(seed, seconds, 2))?;
    let (plain, traced) = (&s.windows[0], &s.windows[1]);
    spans.scope("e2e", |sp| {
        for d in traced {
            let name = KINDS
                .iter()
                .find(|k| k.0 == d.req.kind)
                .map_or("?", |k| k.1);
            sp.record(format!("request {name}"), d.start, d.end);
        }
    });
    let rate = |done: &[Done]| -> Result<f64, String> { Ok(window_metrics(done)?[0].value) };
    let mut metrics = vec![mc::overhead(rate(plain)?, rate(traced)?)];

    // Both windows feed the per-kind latencies: the rarest kind needs the
    // samples.
    let mut client_p50 = Vec::new();
    for (kind, name) in KINDS {
        let lat: Vec<f64> = plain
            .iter()
            .chain(traced)
            .filter(|d| d.req.kind == kind)
            .map(Done::latency_ms)
            .collect();
        let m = Metric::percentile(&format!("serve.{name}_p50_ms"), &lat, 0.5)?;
        client_p50.push(m.value);
        metrics.push(m);
    }
    let latency = |key: &str| {
        field(&s.status, &["latency", key, "p50_ms"])
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    };
    for kind in ["plan", "run", "montecarlo"] {
        metrics.push(Metric::value(
            &format!("serve.server_total_p50_ms.{kind}"),
            latency(&format!("serve.latency.{kind}.total")),
        ));
        metrics.push(Metric::value(
            &format!("serve.server_queue_p50_ms.{kind}"),
            latency(&format!("serve.latency.{kind}.queue")),
        ));
    }
    for (cache, name) in [("hit", "plan_hit"), ("miss", "plan_miss")] {
        metrics.push(Metric::value(
            &format!("serve.server_exec_p50_ms.{name}"),
            latency(&format!("serve.latency.plan.exec.{cache}")),
        ));
    }
    let counter = |name: &str| {
        field(&s.status, &["counters", name])
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    };
    metrics.extend([
        Metric::value(
            "serve.wire_p50_ms",
            client_p50[0] - latency("serve.latency.plan.total"),
        ),
        Metric::value(
            "serve.cache_hit_rate",
            field(&s.status, &["cache", "hit_rate"])
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0),
        ),
        Metric::value("serve.shed", counter("serve.shed")),
        Metric::value("serve.timeouts", counter("serve.timeouts")),
        Metric::value("serve.connect_ms", s.connect_ms),
    ]);

    // The montecarlo request's engine work, layer by layer, in-process.
    let pin = Affinity::pin_to_one_cpu()?;
    let case = mc::Case {
        setup: setup(ATR_SEED, RUN_LOAD)?,
        faults: None,
        platform: Platform::Transmeta,
        load: RUN_LOAD,
    };
    metrics.extend(mc::batch_layers(
        &case,
        realization_seed(seed, 0),
        MC_BATCH,
        &pin,
        spans,
    )?);
    metrics.extend(offline::case_layers(&case, spans)?);
    let mut out = Outcome::new(metrics, (plain.len() + traced.len()) as u64);
    out.failed = failed(plain) + failed(traced);
    Ok(out)
}
