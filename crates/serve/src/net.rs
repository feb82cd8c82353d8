//! Transport front-ends: TCP, Unix socket and a watched drop directory.
//!
//! All three funnel into [`Service::handle_line`]. Listeners run
//! nonblocking accept loops so they can notice `SIGTERM`/`SIGINT` (or an
//! in-band `shutdown` request) promptly; the daemon then stops
//! accepting, drains in-flight work under the configured deadline and
//! exits 0.

use crate::proto::Rejection;
use crate::service::{ServeConfig, Service};
use pas_analyze::Code;
use pas_obs::log;
use serde::Value;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Where the daemon listens. At least one endpoint must be set.
#[derive(Debug, Clone, Default)]
pub struct Endpoints {
    /// TCP listen address, e.g. `127.0.0.1:7453`.
    pub tcp: Option<String>,
    /// Unix-domain socket path (Unix only).
    pub unix: Option<String>,
    /// Drop directory: `*.json` request files are answered with
    /// `<stem>.response.json` siblings.
    pub watch: Option<String>,
}

static TERM_REQUESTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term_signal(_sig: i32) {
    TERM_REQUESTED.store(true, Ordering::SeqCst);
}

/// Installs `SIGTERM`/`SIGINT` handlers that flip the drain flag. Uses
/// libc's `signal(2)` directly (std already links it on Unix); a no-op
/// elsewhere.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    {
        // SAFETY: `signal` is async-signal-safe to install, and the
        // handler only stores to an atomic (async-signal-safe).
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_term_signal as *const () as usize);
            signal(SIGINT, on_term_signal as *const () as usize);
        }
    }
}

/// True once a termination signal arrived (test hook: resettable).
pub fn term_requested() -> bool {
    TERM_REQUESTED.load(Ordering::SeqCst)
}

/// Clears the signal flag (tests only; the daemon never un-terms).
pub fn reset_term_flag() {
    TERM_REQUESTED.store(false, Ordering::SeqCst);
}

fn should_stop(svc: &Service, stopping: &AtomicBool) -> bool {
    stopping.load(Ordering::SeqCst) || term_requested() || svc.is_shutdown_requested()
}

/// The longest request line a connection buffers: 16 MiB, well above the
/// largest inline graph served. A longer line is refused with `PAS0501`
/// and the connection closes.
const MAX_LINE: usize = 16 << 20;

/// Writes one reply line: the reply, then its newline. `false` when the
/// peer is gone.
fn reply<W: Write>(stream: &mut W, resp: &str) -> bool {
    stream.write_all(resp.as_bytes()).is_ok()
        && stream.write_all(b"\n").is_ok()
        && stream.flush().is_ok()
}

/// Serves one connection: newline-delimited requests in, one response
/// line per request out. Each read is scanned once for newlines, and a
/// line past [`MAX_LINE`] is refused. Short read timeouts keep the loop
/// responsive to shutdown.
fn serve_conn<S: Read + Write>(mut stream: S, svc: &Service, stopping: &AtomicBool) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if should_stop(svc, stopping) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(n) => {
                // Bytes before `from` hold no newline.
                let mut from = buf.len();
                buf.extend_from_slice(chunk.get(..n).unwrap_or(&[]));
                while let Some(pos) = buf
                    .get(from..)
                    .and_then(|b| b.iter().position(|c| *c == b'\n'))
                {
                    let line: Vec<u8> = buf.drain(..=from + pos).collect();
                    from = 0;
                    let line = String::from_utf8_lossy(&line);
                    let line = line.trim();
                    if !line.is_empty() && !reply(&mut stream, &svc.handle_line(line)) {
                        return;
                    }
                }
                if buf.len() > MAX_LINE {
                    let msg = format!("request line longer than {MAX_LINE} bytes");
                    reply(
                        &mut stream,
                        &svc.refuse(&Rejection::new(Code::Pas0501, msg)),
                    );
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => return,
        }
    }
}

fn tcp_listener_loop(listener: TcpListener, svc: Arc<Service>, stopping: Arc<AtomicBool>) {
    let _ = listener.set_nonblocking(true);
    while !should_stop(&svc, &stopping) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
                let svc = Arc::clone(&svc);
                let stopping = Arc::clone(&stopping);
                std::thread::spawn(move || serve_conn(stream, &svc, &stopping));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

#[cfg(unix)]
fn unix_listener_loop(
    listener: std::os::unix::net::UnixListener,
    svc: Arc<Service>,
    stopping: Arc<AtomicBool>,
) {
    let _ = listener.set_nonblocking(true);
    while !should_stop(&svc, &stopping) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
                let svc = Arc::clone(&svc);
                let stopping = Arc::clone(&stopping);
                std::thread::spawn(move || serve_conn(stream, &svc, &stopping));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// One pass over the drop directory: each `*.json` file (that is not a
/// response) is consumed and answered with `<stem>.response.json`,
/// written atomically via a temp-file rename.
fn watch_pass(dir: &Path, svc: &Service) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    let mut requests: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.extension().and_then(|e| e.to_str()) == Some("json")
                && !p
                    .file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.ends_with(".response.json"))
        })
        .collect();
    requests.sort();
    for path in requests {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => continue, // mid-write; next pass gets it
        };
        // Consume first so a crash mid-handling cannot loop forever on
        // the same poisoned file.
        if std::fs::remove_file(&path).is_err() {
            continue;
        }
        let line = text.lines().find(|l| !l.trim().is_empty()).unwrap_or("");
        let resp = svc.handle_line(line.trim());
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("request");
        let out = dir.join(format!("{stem}.response.json"));
        let tmp = dir.join(format!(".{stem}.response.json.tmp"));
        if std::fs::write(&tmp, format!("{resp}\n")).is_ok() {
            let _ = std::fs::rename(&tmp, &out);
        }
    }
}

fn watcher_loop(dir: PathBuf, svc: Arc<Service>, stopping: Arc<AtomicBool>) {
    while !should_stop(&svc, &stopping) {
        watch_pass(&dir, &svc);
        std::thread::sleep(Duration::from_millis(200));
    }
    // One final pass so requests dropped just before shutdown still get
    // answered (likely with a drain refusal) rather than ignored.
    watch_pass(&dir, &svc);
}

/// Runs the daemon until a signal or in-band `shutdown` request, then
/// drains and returns a one-line summary. Errors are configuration
/// problems (nothing to listen on, bind failures).
pub fn run_server(cfg: ServeConfig, eps: &Endpoints) -> Result<String, String> {
    if eps.tcp.is_none() && eps.unix.is_none() && eps.watch.is_none() {
        return Err("pas serve: no endpoint; give --listen, --socket or --watch".to_string());
    }
    install_signal_handlers();
    let svc = Arc::new(Service::start(cfg));
    let stopping = Arc::new(AtomicBool::new(false));
    let mut joins = Vec::new();

    if let Some(addr) = &eps.tcp {
        let listener =
            TcpListener::bind(addr).map_err(|e| format!("pas serve: binding {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| addr.clone());
        log::emit(
            log::Level::Info,
            "serve.net",
            "listening",
            vec![
                ("transport", Value::Str("tcp".to_string())),
                ("addr", Value::Str(local.clone())),
            ],
        );
        let svc = Arc::clone(&svc);
        let stopping = Arc::clone(&stopping);
        joins.push(std::thread::spawn(move || {
            tcp_listener_loop(listener, svc, stopping)
        }));
    }
    #[cfg(unix)]
    if let Some(path) = &eps.unix {
        let _ = std::fs::remove_file(path); // stale socket from a crash
        let listener = std::os::unix::net::UnixListener::bind(path)
            .map_err(|e| format!("pas serve: binding {path}: {e}"))?;
        log::emit(
            log::Level::Info,
            "serve.net",
            "listening",
            vec![
                ("transport", Value::Str("unix".to_string())),
                ("addr", Value::Str(path.clone())),
            ],
        );
        let svc = Arc::clone(&svc);
        let stopping = Arc::clone(&stopping);
        joins.push(std::thread::spawn(move || {
            unix_listener_loop(listener, svc, stopping)
        }));
    }
    #[cfg(not(unix))]
    if eps.unix.is_some() {
        return Err("pas serve: --socket is only supported on Unix".to_string());
    }
    if let Some(dir) = &eps.watch {
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("pas serve: creating watch dir {}: {e}", dir.display()))?;
        log::emit(
            log::Level::Info,
            "serve.net",
            "watching",
            vec![("dir", Value::Str(dir.display().to_string()))],
        );
        let svc = Arc::clone(&svc);
        let stopping = Arc::clone(&stopping);
        joins.push(std::thread::spawn(move || watcher_loop(dir, svc, stopping)));
    }

    while !term_requested() && !svc.is_shutdown_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    stopping.store(true, Ordering::SeqCst);
    for j in joins {
        let _ = j.join();
    }
    let abandoned = svc.shutdown();
    if let Some(path) = &eps.unix {
        let _ = std::fs::remove_file(path);
    }
    let summary = format!(
        "pas serve: drained; requests={} ok={} errors={} shed={} timeouts={} panics={} abandoned={}",
        svc.counter("serve.requests"),
        svc.counter("serve.responses.ok"),
        svc.counter("serve.responses.error"),
        svc.counter("serve.shed"),
        svc.counter("serve.timeouts"),
        svc.counter("serve.panics"),
        abandoned,
    );
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;

    fn start_tcp_service() -> (Arc<Service>, std::net::SocketAddr, Arc<AtomicBool>) {
        let svc = Arc::new(Service::start(ServeConfig {
            workers: 2,
            queue_cap: 8,
            debug_faults: true,
            ..ServeConfig::default()
        }));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let stopping = Arc::new(AtomicBool::new(false));
        {
            let svc = Arc::clone(&svc);
            let stopping = Arc::clone(&stopping);
            std::thread::spawn(move || tcp_listener_loop(listener, svc, stopping));
        }
        (svc, addr, stopping)
    }

    #[test]
    fn tcp_round_trip_including_malformed_lines() {
        reset_term_flag();
        let (svc, addr, stopping) = start_tcp_service();
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut stream = stream;

        stream
            .write_all(b"{\"id\":\"a\",\"kind\":\"run\",\"workload\":\"synthetic\"}\nnot json\n")
            .expect("write");
        let mut l1 = String::new();
        reader.read_line(&mut l1).expect("ok line");
        assert!(l1.contains("\"status\":\"ok\""), "{l1}");
        let mut l2 = String::new();
        reader.read_line(&mut l2).expect("error line");
        assert!(l2.contains("PAS0501"), "{l2}");

        stopping.store(true, Ordering::SeqCst);
        assert_eq!(svc.shutdown(), 0);
    }

    /// An in-memory connection: reads hand out `input` in the given
    /// pieces, then (when `endless`) `x` bytes forever; writes collect.
    struct Mem {
        input: Vec<Vec<u8>>,
        endless: bool,
        served: usize,
        out: Vec<u8>,
    }

    impl Read for Mem {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let piece = if self.input.is_empty() {
                if !self.endless {
                    return Ok(0);
                }
                vec![b'x'; buf.len()]
            } else {
                self.input.remove(0)
            };
            buf[..piece.len()].copy_from_slice(&piece);
            self.served += piece.len();
            Ok(piece.len())
        }
    }

    impl Write for Mem {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.out.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn quiet_service() -> Service {
        Service::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
    }

    #[test]
    fn a_line_split_over_many_reads_is_answered_once() {
        reset_term_flag();
        let svc = quiet_service();
        let text = b"{\"id\":\"a\",\"kind\":\"status\"}\n\n{\"id\":\"b\",\"kind\":\"status\"}\n";
        // One byte per read, then the whole text in a single read.
        let mut input: Vec<Vec<u8>> = text.iter().map(|b| vec![*b]).collect();
        input.push(text.to_vec());
        let mut mem = Mem {
            input,
            endless: false,
            served: 0,
            out: Vec::new(),
        };
        serve_conn(&mut mem, &svc, &AtomicBool::new(false));
        let out = String::from_utf8(mem.out).expect("utf-8 replies");
        let ids: Vec<&str> = out
            .lines()
            .map(|l| if l.contains("\"id\":\"a\"") { "a" } else { "b" })
            .collect();
        assert_eq!(ids, ["a", "b", "a", "b"], "{out}");
        assert!(
            out.lines().all(|l| l.contains("\"status\":\"ok\"")),
            "{out}"
        );
        assert_eq!(svc.counter("serve.requests"), 4);
        assert_eq!(svc.shutdown(), 0);
    }

    #[test]
    fn an_endless_line_is_refused_with_bounded_memory() {
        reset_term_flag();
        let svc = quiet_service();
        let mut mem = Mem {
            input: vec![b"{\"id\":\"ok\",\"kind\":\"status\"}\n{\"id\":".to_vec()],
            endless: true,
            served: 0,
            out: Vec::new(),
        };
        serve_conn(&mut mem, &svc, &AtomicBool::new(false));
        // The connection stopped reading one chunk past the cap.
        assert!(mem.served <= MAX_LINE + 2 * 4096, "{}", mem.served);
        let out = String::from_utf8(mem.out).expect("utf-8 replies");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        assert!(lines[0].contains("\"status\":\"ok\""), "{out}");
        assert!(
            lines[1].contains("PAS0501") && lines[1].contains("auto-"),
            "{out}"
        );
        // Counted like any parse rejection.
        assert_eq!(svc.counter("serve.requests"), 2);
        assert_eq!(svc.counter("serve.responses.error"), 1);
        assert_eq!(svc.counter("serve.request_ids.generated"), 1);
        assert_eq!(svc.shutdown(), 0);
    }

    #[test]
    fn drop_directory_requests_get_response_files() {
        reset_term_flag();
        let dir = std::env::temp_dir().join(format!("pas-serve-watch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let svc = Arc::new(Service::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        }));
        std::fs::write(
            dir.join("req1.json"),
            "{\"id\":\"d1\",\"kind\":\"status\"}\n",
        )
        .expect("drop request");
        watch_pass(&dir, &svc);
        let resp = std::fs::read_to_string(dir.join("req1.response.json")).expect("response file");
        assert!(resp.contains("\"status\":\"ok\""), "{resp}");
        assert!(!dir.join("req1.json").exists(), "request file is consumed");
        assert_eq!(svc.shutdown(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
