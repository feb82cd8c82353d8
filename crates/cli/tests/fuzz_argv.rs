//! Seeded fuzzing of `pas`'s command line, one test per sub-command.
//!
//! Each case is an argv drawn from the `USAGE` grammar: the command's own
//! flags most of the time, any other flag or a stray token now and then,
//! values both valid and bad (NaN, inf, 0, negatives, `u64::MAX`, past
//! `u64::MAX`, empty, garbage), flags repeated or left without a value.
//! Every case runs through `pas_cli::run`, in-process. None may panic:
//! `pas` maps `Ok` to exit 0 and `Err` to a message and exit 2, so a
//! panic (exit 101) is the only way out of that contract. An `Err` must
//! also say something.
//!
//! The counts (`--reps`, `--frames`, `--workers`, `--queue`)
//! are drawn small or invalid, never huge: the work and memory of a valid
//! run grow with them by design. `--procs` is drawn huge too, since any
//! count above `pas_core::MAX_PROCS` is an error. `serve` is only parsed,
//! since a valid `serve` command line starts a daemon.

use std::panic::{catch_unwind, AssertUnwindSafe};
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

    fn pick<'a>(&mut self, xs: &'a [String]) -> &'a str {
        &xs[self.below(xs.len())]
    }

    /// A valid value three times in four, when there is a bad one.
    fn value<'a>(&mut self, (valid, bad): &'a (Vec<String>, Vec<String>)) -> &'a str {
        if bad.is_empty() || self.below(4) != 0 {
            self.pick(valid)
        } else {
            self.pick(bad)
        }
    }
}

fn strings(xs: &[&str]) -> Vec<String> {
    xs.iter().map(|s| s.to_string()).collect()
}

/// `(valid, bad)` value pools.
type Pools = (Vec<String>, Vec<String>);

fn pools(valid: &[&str], bad: &[&str]) -> Pools {
    (strings(valid), strings(bad))
}

const BAD_COUNTS: &[&str] = &[
    "0",
    "-1",
    "",
    "x",
    "nan",
    "1e3",
    "2.5",
    " 2",
    "18446744073709551616",
];
const BAD_REALS: &[&str] = &[
    "0", "-0", "-1", "1.5", "nan", "NaN", "inf", "-inf", "1e308", "5e-324", "", "x",
];
const BAD_WORDS: &[&str] = &["18446744073709551616", "-1", "x", "", "1e3"];

/// The files a case may name, in a directory of the test's own.
struct Fixtures {
    dir: PathBuf,
    workload: String,
    tiny: String,
    plan: String,
    fault_plan: String,
    harsh_fault_plan: String,
    bad_json: String,
    missing: String,
}

impl Fixtures {
    fn new(name: &str) -> Self {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("fuzz_argv_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create fixture dir");
        let path = |f: &str| dir.join(f).to_string_lossy().into_owned();
        let fx = Fixtures {
            workload: path("w.json"),
            tiny: path("tiny.json"),
            plan: path("plan.json"),
            fault_plan: path("faults.json"),
            harsh_fault_plan: path("harsh.json"),
            bad_json: path("bad.json"),
            missing: path("missing.json"),
            dir,
        };
        run_ok(&["export", "--app", "synthetic", "--out", &fx.workload]);
        run_ok(&["plan", &fx.workload, "xscale", "--out", &fx.plan]);
        let write = |p: &str, s: &str| std::fs::write(p, s).expect("write fixture");
        write(
            &fx.fault_plan,
            r#"{"overrun_prob":0.2,"overrun_factor":1.5,"speed_fail_prob":0.1,"stall_prob":0.1,"stall_ms":2,"seed":9}"#,
        );
        write(
            &fx.harsh_fault_plan,
            r#"{"overrun_prob":1,"overrun_factor":1e6,"speed_fail_prob":1,"stall_prob":1,"stall_ms":1e6,"seed":18446744073709551615}"#,
        );
        // A three-task chain, small enough for `optimal`'s exhaustive search.
        write(
            &fx.tiny,
            r#"{"nodes":[
                {"name":"A","kind":{"Computation":{"wcet":4.0,"acet":2.0}},"preds":[],"succs":[1]},
                {"name":"B","kind":{"Computation":{"wcet":3.0,"acet":2.0}},"preds":[0],"succs":[2]},
                {"name":"C","kind":{"Computation":{"wcet":2.0,"acet":1.0}},"preds":[1],"succs":[]}
            ]}"#,
        );
        write(&fx.bad_json, r#"{"nodes": [1, 2"#);
        fx
    }

    fn out_path(&self, name: &str) -> String {
        self.dir.join(name).to_string_lossy().into_owned()
    }

    fn apps(&self) -> Pools {
        let mut p = pools(&["synthetic", "atr", "video"], &["bogus", ""]);
        p.0.extend([self.workload.clone(), self.tiny.clone()]);
        p.1.extend([
            self.bad_json.clone(),
            self.missing.clone(),
            self.plan.clone(),
        ]);
        p
    }

    fn fault_plans(&self) -> Pools {
        let valid = vec![self.fault_plan.clone(), self.harsh_fault_plan.clone()];
        let bad = vec![
            self.bad_json.clone(),
            self.missing.clone(),
            self.workload.clone(),
        ];
        (valid, bad)
    }

    fn outs(&self) -> Pools {
        let valid = vec![self.out_path("out.json"), self.out_path("out.jsonl")];
        let bad = vec![
            self.out_path("no-such-dir/out.json"),
            self.dir.to_string_lossy().into_owned(),
            String::new(),
        ];
        (valid, bad)
    }

    /// Positional sources and `--against` references.
    fn sources(&self) -> Vec<String> {
        let mut v = strings(&[
            "atr",
            "synthetic",
            "video",
            "xscale",
            "transmeta",
            "continuous:0.2",
            "bogus",
        ]);
        v.extend([
            self.workload.clone(),
            self.tiny.clone(),
            self.plan.clone(),
            self.fault_plan.clone(),
            self.bad_json.clone(),
            self.missing.clone(),
        ]);
        v
    }

    /// The valid and the bad values `flag` may take.
    fn values(&self, flag: &str) -> Pools {
        match flag {
            "--app" => self.apps(),
            "--model" => pools(
                &["transmeta", "xscale", "continuous:0.1", "continuous:0.5"],
                &[
                    "continuous:0",
                    "continuous:-1",
                    "continuous:nan",
                    "continuous:inf",
                    "continuous:2",
                    "continuous:",
                    "bogus",
                ],
            ),
            // Above `MAX_PROCS` (4096) a processor count is an error.
            "--procs" => {
                let mut p = pools(&["1", "2", "3"], BAD_COUNTS);
                p.1.extend(strings(&["4097", "1000000000000", "18446744073709551615"]));
                p
            }
            "--reps" | "--frames" | "--workers" | "--queue" => pools(&["1", "2", "3"], BAD_COUNTS),
            "--load" | "--alpha" => pools(&["0.5", "1", "0.05", "1e-9", "0.999"], BAD_REALS),
            "--deadline" => pools(&["100", "250", "1e6", "1e308", "30"], BAD_REALS),
            "--seed" | "--proc" | "--timeout-ms" => {
                pools(&["0", "1", "42", "99", "18446744073709551615"], BAD_WORDS)
            }
            "--scheme" => pools(
                &["npm", "spm", "gss", "ss1", "ss2", "as", "oracle", "GSS"],
                &["bogus", ""],
            ),
            "--format" => pools(&["chrome", "jsonl", "csv", "summary"], &["bogus", ""]),
            "--kinds" => pools(
                &[
                    "dispatch",
                    "complete,speed-change",
                    "slack,or-branch,idle-start,idle-end",
                    "fault-injected,fault-detected,fault-recovered",
                ],
                &["dispatch,,complete", ",", "bogus", ""],
            ),
            "--fault-plan" => self.fault_plans(),
            "--out" | "--profile-out" => self.outs(),
            "--against" => (self.sources(), Vec::new()),
            "--log-level" => pools(&["trace", "debug", "info", "warn", "error"], &["bogus"]),
            "--listen" => pools(&["127.0.0.1:0"], &["not-an-address", ""]),
            "--socket" | "--watch" | "--log" | "--crash-dir" | "--trace-out" => (
                vec![self.out_path("serve"), "stderr".into()],
                vec![String::new()],
            ),
            _ => (Vec::new(), Vec::new()),
        }
    }
}

const BOOLEAN_FLAGS: &[&str] = &[
    "--gantt",
    "--carry",
    "--deny-warnings",
    "--fix",
    "--bounds",
    "--profile",
    "--debug-faults",
];

/// Every flag of the `USAGE` grammar.
const ALL_FLAGS: &[&str] = &[
    "--app",
    "--model",
    "--procs",
    "--load",
    "--deadline",
    "--scheme",
    "--seed",
    "--reps",
    "--alpha",
    "--gantt",
    "--out",
    "--fault-plan",
    "--format",
    "--proc",
    "--kinds",
    "--frames",
    "--carry",
    "--deny-warnings",
    "--against",
    "--fix",
    "--bounds",
    "--profile",
    "--profile-out",
    "--listen",
    "--socket",
    "--watch",
    "--workers",
    "--queue",
    "--timeout-ms",
    "--debug-faults",
    "--log",
    "--log-level",
    "--crash-dir",
    "--trace-out",
];

/// The flags `command` reads, and whether it takes positional sources.
fn own_flags(command: &str) -> (&'static [&'static str], bool) {
    const PLATFORM: [&str; 5] = ["--app", "--model", "--procs", "--load", "--deadline"];
    match command {
        "inspect" => (&["--app", "--model", "--alpha"], false),
        "plan" => (
            &[
                "--app",
                "--model",
                "--procs",
                "--load",
                "--deadline",
                "--scheme",
                "--alpha",
                "--out",
                "--profile",
                "--profile-out",
            ],
            true,
        ),
        "run" => (
            &[
                "--app",
                "--model",
                "--procs",
                "--load",
                "--deadline",
                "--scheme",
                "--seed",
                "--alpha",
                "--gantt",
                "--fault-plan",
            ],
            false,
        ),
        "compare" => (
            &[
                "--app",
                "--model",
                "--procs",
                "--load",
                "--deadline",
                "--seed",
                "--reps",
                "--alpha",
                "--fault-plan",
            ],
            false,
        ),
        "dot" => (&["--app", "--alpha"], false),
        "optimal" => (&PLATFORM, false),
        "export" => (&["--app", "--alpha", "--out"], false),
        "trace" => (
            &[
                "--app",
                "--model",
                "--procs",
                "--load",
                "--deadline",
                "--scheme",
                "--seed",
                "--alpha",
                "--fault-plan",
                "--format",
                "--proc",
                "--kinds",
                "--frames",
                "--carry",
                "--out",
            ],
            false,
        ),
        "check" => (
            &[
                "--app",
                "--model",
                "--procs",
                "--load",
                "--deadline",
                "--fault-plan",
                "--against",
                "--deny-warnings",
                "--fix",
                "--bounds",
                "--profile",
                "--profile-out",
            ],
            true,
        ),
        "serve" => (
            &[
                "--listen",
                "--socket",
                "--watch",
                "--workers",
                "--queue",
                "--timeout-ms",
                "--debug-faults",
                "--log",
                "--log-level",
                "--crash-dir",
                "--trace-out",
            ],
            false,
        ),
        other => panic!("no such command: {other}"),
    }
}

/// One argv for `command`: up to seven items after it. Each is a stray
/// token or a flag of any command one time in ten, a positional source
/// one in ten where the command takes them, else one of its own flags.
fn argv(command: &str, fx: &Fixtures, rng: &mut Rng) -> Vec<String> {
    let (own, positional) = own_flags(command);
    let mut argv = vec![command.to_string()];
    // Start `optimal` on a workload its exhaustive search takes, `export`
    // with its output file and `serve` with an endpoint, so that more
    // cases get past the first check.
    match command {
        "optimal" => argv.extend(["--app".into(), fx.tiny.clone()]),
        "export" => argv.extend(["--out".into(), fx.out_path("export.json")]),
        "serve" => argv.extend(strings(&["--listen", "127.0.0.1:0"])),
        _ => {}
    }
    for _ in 0..rng.below(8) {
        let roll = rng.below(10);
        if roll == 0 || (positional && roll == 1) {
            let mut tokens = fx.sources();
            tokens.extend(strings(&["--bogus", "-", "stray"]));
            argv.push(rng.pick(&tokens).to_string());
            continue;
        }
        let flag = if roll == 2 {
            ALL_FLAGS[rng.below(ALL_FLAGS.len())]
        } else {
            own[rng.below(own.len())]
        };
        argv.push(flag.to_string());
        // Now and then a flag that takes a value goes without one. Not a
        // flag that names a file to write: it would take the next token,
        // say `--model`, as a path relative to the working directory.
        let writes = ["--out", "--profile-out"].contains(&flag);
        if BOOLEAN_FLAGS.contains(&flag) || (!writes && rng.below(25) == 0) {
            continue;
        }
        argv.push(rng.value(&fx.values(flag)).to_string());
        // `--against` takes a list of references.
        if flag == "--against" && rng.below(2) == 0 {
            argv.push(rng.pick(&fx.sources()).to_string());
        }
    }
    argv
}

fn run_ok(argv: &[&str]) {
    let v: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    if let Err(e) = pas_cli::run(&v) {
        panic!("fixture command {argv:?} failed: {e}");
    }
}

/// Runs `cases` seeded argvs for `command` and fails with every argv that
/// panicked or answered an empty error, or when fewer than one case in
/// ten succeeded.
fn fuzz(command: &str, seed: u64, cases: usize) {
    let fx = Fixtures::new(command);
    let mut rng = Rng(seed);
    let mut wrong = Vec::new();
    let mut ran = 0;
    for _ in 0..cases {
        let argv = argv(command, &fx, &mut rng);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if command == "serve" {
                pas_cli::Args::parse(&argv).map(|_| String::new())
            } else {
                pas_cli::run(&argv)
            }
        }));
        match outcome {
            Err(_) => wrong.push(format!("panicked: {argv:?}")),
            Ok(Err(e)) if e.trim().is_empty() => wrong.push(format!("empty error: {argv:?}")),
            Ok(Ok(_)) => ran += 1,
            Ok(Err(_)) => {}
        }
    }
    let _ = std::fs::remove_dir_all(&fx.dir);
    assert!(
        wrong.is_empty(),
        "{} of {cases}:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
    // The grammar must keep reaching the commands, not only the parser.
    assert!(ran * 10 >= cases, "only {ran} of {cases} cases ran");
}

#[test]
fn inspect_survives_fuzzed_argv() {
    fuzz("inspect", 0x1A5E_0001, 300);
}

#[test]
fn plan_survives_fuzzed_argv() {
    fuzz("plan", 0x1A5E_0002, 300);
}

#[test]
fn run_survives_fuzzed_argv() {
    fuzz("run", 0x1A5E_0003, 300);
}

#[test]
fn compare_survives_fuzzed_argv() {
    fuzz("compare", 0x1A5E_0004, 200);
}

#[test]
fn dot_survives_fuzzed_argv() {
    fuzz("dot", 0x1A5E_0005, 200);
}

#[test]
fn optimal_survives_fuzzed_argv() {
    fuzz("optimal", 0x1A5E_0006, 200);
}

#[test]
fn export_survives_fuzzed_argv() {
    fuzz("export", 0x1A5E_0007, 200);
}

#[test]
fn trace_survives_fuzzed_argv() {
    fuzz("trace", 0x1A5E_0008, 300);
}

#[test]
fn check_survives_fuzzed_argv() {
    fuzz("check", 0x1A5E_0009, 300);
}

#[test]
fn serve_argv_parses_without_panic() {
    fuzz("serve", 0x1A5E_000A, 1000);
}
