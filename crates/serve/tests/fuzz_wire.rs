//! Seeded fuzzing of the `pas serve` wire.
//!
//! Request lines with fuzzed fields, one test per request kind, and
//! byte-mutated lines go through `Service::handle_line`. Each must get one
//! single-line JSON response with a `status`, and none may be a contained
//! panic (`PAS0506`): a malformed or extreme request is the client's
//! error (`PAS0501`–`PAS0503`) or the work's (`PAS0505`, `PAS0508`), never
//! a crash the worker pool has to catch.
//!
//! `batch` is drawn small or invalid, never large and valid: a request's
//! work grows with it by design, up to its cap of 65,536. `procs` is drawn
//! huge too, since any count above `pas_core::MAX_PROCS` is an error.

use pas_serve::{parse_request, ServeConfig, Service};
use serde::Value;
use std::path::PathBuf;

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }
}

/// A three-task chain, as `pas export` writes a graph.
const TINY_GRAPH: &str = r#"{"nodes":[
    {"name":"A","kind":{"Computation":{"wcet":4.0,"acet":2.0}},"preds":[],"succs":[1]},
    {"name":"B","kind":{"Computation":{"wcet":3.0,"acet":2.0}},"preds":[0],"succs":[2]},
    {"name":"C","kind":{"Computation":{"wcet":2.0,"acet":1.0}},"preds":[1],"succs":[]}]}"#;

/// Inline `graph` values: the chain, then malformed and ill-formed
/// graphs (empty, a dangling edge, a negative WCET, an OR node that is its
/// own predecessor).
const GRAPHS: &[&str] = &[
    TINY_GRAPH,
    "{}",
    "[]",
    "3",
    r#"{"nodes":[]}"#,
    r#"{"nodes":[{"name":"A","kind":"And","preds":[],"succs":[5]}]}"#,
    r#"{"nodes":[{"name":"A","kind":{"Computation":{"wcet":-1,"acet":2}},
        "preds":[],"succs":[]}]}"#,
    r#"{"nodes":[{"name":"A","kind":{"Or":{"probs":[0.5]}},"preds":[0],"succs":[0]}]}"#,
];

/// Files a request may name as its `workload`, in a directory of the
/// test's own.
struct Files {
    dir: PathBuf,
    tiny: String,
    bad_json: String,
    missing: String,
}

impl Files {
    fn new(name: &str) -> Self {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("fuzz_wire_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create fixture dir");
        let path = |f: &str| dir.join(f).to_string_lossy().into_owned();
        let files = Files {
            tiny: path("tiny.json"),
            bad_json: path("bad.json"),
            missing: path("missing.json"),
            dir,
        };
        std::fs::write(&files.tiny, TINY_GRAPH).expect("write fixture");
        std::fs::write(&files.bad_json, r#"{"nodes": [1, 2"#).expect("write fixture");
        files
    }
}

impl Drop for Files {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn texts(xs: &[&str]) -> Vec<String> {
    xs.iter().map(|s| s.to_string()).collect()
}

/// JSON texts for `field`, valid ones first: the draw takes one of the
/// first `valid` three times in four.
fn values(field: &str, files: &Files) -> (usize, Vec<String>) {
    let quoted = |s: &str| format!("{s:?}");
    let (valid, v): (usize, Vec<String>) = match field {
        "id" => (
            2,
            texts(&["\"r1\"", "\"a-b_c.9\"", "\"\"", "7", "\"bad\\nid\""]),
        ),
        "workload" => (
            4,
            vec![
                quoted("synthetic"),
                quoted("atr"),
                quoted("video"),
                quoted(&files.tiny),
                quoted(&files.bad_json),
                quoted(&files.missing),
                quoted(""),
                "3".into(),
            ],
        ),
        "graph" => (1, texts(GRAPHS)),
        "platform" => (
            3,
            vec![
                quoted("transmeta"),
                quoted("xscale"),
                quoted("continuous:0.1"),
                quoted("continuous:nan"),
                quoted("continuous:-1"),
                quoted("bogus"),
                "5".into(),
            ],
        ),
        "procs" => (
            3,
            texts(&[
                "1",
                "2",
                "3",
                "0",
                "-1",
                "1.5",
                "\"2\"",
                "4097",
                "1000000000000",
                "18446744073709551615",
                "18446744073709551616",
            ]),
        ),
        "load" => (
            3,
            texts(&["0.5", "1", "0.05", "0", "-1", "1.5", "1e308", "\"x\""]),
        ),
        "deadline_ms" => (
            3,
            texts(&[
                "100", "250", "1e308", "0", "-1", "5e-324", "1e-300", "\"x\"",
            ]),
        ),
        "scheme" => (
            6,
            vec![
                quoted("npm"),
                quoted("spm"),
                quoted("gss"),
                quoted("ss1"),
                quoted("ss2"),
                quoted("as"),
                quoted("oracle"),
                quoted("bogus"),
                "3".into(),
            ],
        ),
        "seed" => (
            3,
            texts(&[
                "0",
                "42",
                "18446744073709551615",
                "-1",
                "1.5",
                "18446744073709551616",
                "\"x\"",
            ]),
        ),
        "batch" => (
            3,
            texts(&[
                "1",
                "2",
                "16",
                "0",
                "65537",
                "18446744073709551615",
                "-1",
                "\"x\"",
            ]),
        ),
        "start_index" => (
            3,
            texts(&[
                "0",
                "5",
                "18446744073709551599",
                "18446744073709551615",
                "-1",
                "0.5",
            ]),
        ),
        "timeout_ms" => (
            1,
            texts(&["30000", "0", "-1", "18446744073709551616", "\"x\""]),
        ),
        "revalidate" | "trace" | "fail_build" => (2, texts(&["true", "false", "1", "\"yes\""])),
        other => panic!("no such field: {other}"),
    };
    (valid, v)
}

/// Every field a request may carry; `null` and absence are drawn too.
const FIELDS: &[&str] = &[
    "id",
    "workload",
    "graph",
    "platform",
    "procs",
    "load",
    "deadline_ms",
    "scheme",
    "seed",
    "batch",
    "start_index",
    "timeout_ms",
    "revalidate",
    "trace",
    "fail_build",
];

/// One request line of `kind` with up to six fuzzed fields, some of them
/// repeated (the last one wins).
fn request(kind: &str, files: &Files, rng: &mut Rng) -> String {
    let mut fields = vec![format!("\"kind\":{kind:?}")];
    for _ in 0..rng.below(7) {
        let field = *rng.pick(FIELDS);
        let (valid, vals) = values(field, files);
        let value = match rng.below(12) {
            0 => "null".to_string(),
            1..=8 => vals[rng.below(valid)].clone(),
            _ => rng.pick(&vals).clone(),
        };
        fields.push(format!("{field:?}:{value}"));
    }
    // The kind need not come first.
    let at = rng.below(fields.len());
    fields.swap(0, at);
    format!("{{{}}}", fields.join(","))
}

/// What a correct response to `line` looks like, or what is wrong.
fn check_response(line: &str, resp: &str) -> Result<(), String> {
    if resp.trim_end().contains('\n') {
        return Err(format!("multi-line response to {line}: {resp}"));
    }
    let v: Value =
        serde_json::from_str(resp).map_err(|e| format!("bad JSON ({e}) for {line}: {resp}"))?;
    match v.get("status").and_then(Value::as_str) {
        None => Err(format!("no status for {line}: {resp}")),
        Some("panic") => Err(format!("panic for {line}: {resp}")),
        Some(_) if resp.contains("PAS0506") => Err(format!("PAS0506 for {line}: {resp}")),
        Some(_) => Ok(()),
    }
}

fn service() -> Service {
    Service::start(ServeConfig {
        workers: 2,
        queue_cap: 16,
        default_timeout_ms: 30_000,
        ..ServeConfig::default()
    })
}

/// Sends `cases` fuzzed `kind` requests and fails with every line whose
/// response is wrong.
fn fuzz_kind(kind: &str, seed: u64, cases: usize) {
    let files = Files::new(kind);
    let svc = service();
    let mut rng = Rng(seed);
    let mut wrong = Vec::new();
    let mut ok = 0;
    for _ in 0..cases {
        let line = request(kind, &files, &mut rng);
        let resp = svc.handle_line(&line);
        match check_response(&line, &resp) {
            Ok(()) => ok += resp.contains(r#""status":"ok""#) as usize,
            Err(e) => wrong.push(e),
        }
    }
    assert_eq!(svc.shutdown(), 0, "requests left in flight");
    assert!(
        wrong.is_empty(),
        "{} of {cases}:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
    // The fields must keep reaching the handler, not only the parser.
    assert!(ok * 10 >= cases, "only {ok} of {cases} answered ok");
}

#[test]
fn plan_requests_survive_fuzzed_fields() {
    fuzz_kind("plan", 0x5E7E_0001, 150);
}

#[test]
fn check_requests_survive_fuzzed_fields() {
    fuzz_kind("check", 0x5E7E_0002, 150);
}

#[test]
fn run_requests_survive_fuzzed_fields() {
    fuzz_kind("run", 0x5E7E_0003, 150);
}

#[test]
fn trace_requests_survive_fuzzed_fields() {
    fuzz_kind("trace", 0x5E7E_0004, 150);
}

#[test]
fn montecarlo_requests_survive_fuzzed_fields() {
    fuzz_kind("montecarlo", 0x5E7E_0005, 100);
}

#[test]
fn status_and_metrics_survive_fuzzed_fields() {
    fuzz_kind("status", 0x5E7E_0006, 100);
    fuzz_kind("metrics", 0x5E7E_0007, 100);
}

/// `line` with one to four edits: a character replaced, removed or
/// doubled, a span cut or repeated, a token put in, or the tail cut off.
fn mutate(line: &str, rng: &mut Rng) -> String {
    const TOKENS: &[&str] = &[
        "\"", ":", ",", "{", "}", "[", "]", "\\", "null", "-", "1e999", "-0", "\u{0}", "é",
        "\"kind\"",
    ];
    let mut c: Vec<char> = line.chars().collect();
    for _ in 0..1 + rng.below(4) {
        if c.is_empty() {
            break;
        }
        let i = rng.below(c.len());
        match rng.below(6) {
            0 => c[i] = rng.pick(TOKENS).chars().next().unwrap_or(' '),
            1 => {
                c.remove(i);
            }
            2 => c.insert(i, c[i]),
            3 => {
                let j = (i + 1 + rng.below(8)).min(c.len());
                let span: Vec<char> = c[i..j].to_vec();
                if rng.below(2) == 0 {
                    c.drain(i..j);
                } else {
                    c.splice(j..j, span);
                }
            }
            4 => {
                let t: Vec<char> = rng.pick(TOKENS).chars().collect();
                c.splice(i..i, t);
            }
            _ => c.truncate(i),
        }
    }
    c.into_iter().collect()
}

/// Valid lines of every kind but `shutdown`, for `mutate` to start from.
fn seed_lines(files: &Files) -> Vec<String> {
    vec![
        r#"{"id":"p","kind":"plan","workload":"atr","platform":"xscale","procs":2,"load":0.5,"scheme":"as"}"#.into(),
        r#"{"id":"c","kind":"check","workload":"video","deadline_ms":250}"#.into(),
        r#"{"id":"r","kind":"run","workload":"synthetic","scheme":"ss2","seed":7,"trace":true}"#.into(),
        r#"{"id":"t","kind":"trace","workload":"atr","procs":3,"load":0.9}"#.into(),
        r#"{"id":"m","kind":"montecarlo","workload":"synthetic","batch":8,"start_index":40,"seed":3}"#.into(),
        format!(r#"{{"id":"g","kind":"run","graph":{}}}"#, TINY_GRAPH.replace('\n', "")),
        format!(r#"{{"id":"f","kind":"plan","workload":{:?},"revalidate":true}}"#, files.tiny),
        r#"{"id":"s","kind":"status"}"#.into(),
        r#"{"id":"x","kind":"metrics","timeout_ms":100}"#.into(),
    ]
}

#[test]
fn mutated_lines_get_structured_answers() {
    let files = Files::new("mutated");
    let svc = service();
    let mut rng = Rng(0x5E7E_0008);
    let seeds = seed_lines(&files);
    let mut wrong = Vec::new();
    for _ in 0..400 {
        let seed: &String = rng.pick(&seeds);
        let line = mutate(seed, &mut rng);
        let resp = svc.handle_line(&line);
        if let Err(e) = check_response(&line, &resp) {
            wrong.push(e);
        }
    }
    assert_eq!(svc.shutdown(), 0, "requests left in flight");
    assert!(wrong.is_empty(), "{}:\n{}", wrong.len(), wrong.join("\n"));
}

#[test]
fn parse_request_survives_mutated_lines() {
    let files = Files::new("parse");
    let mut rng = Rng(0x5E7E_0009);
    let seeds = seed_lines(&files);
    let mut wrong = Vec::new();
    for _ in 0..5_000 {
        let seed: &String = rng.pick(&seeds);
        let line = mutate(seed, &mut rng);
        if std::panic::catch_unwind(|| parse_request(&line)).is_err() {
            wrong.push(line);
        }
    }
    assert!(wrong.is_empty(), "{}:\n{}", wrong.len(), wrong.join("\n"));
}
