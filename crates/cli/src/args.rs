//! Argument parsing for the `pas` binary.

/// The selected sub-command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Graph and scenario statistics.
    Inspect,
    /// Off-line phase report.
    Plan,
    /// Simulate one realization.
    Run,
    /// Monte-Carlo comparison of all schemes plus the clairvoyant bound.
    Compare,
    /// Graphviz DOT export to stdout.
    Dot,
    /// Exhaustive discrete optimum on a tiny instance (levels^tasks).
    Optimal,
    /// Save a workload's graph as JSON.
    Export,
    /// Simulate one realization and export its event stream (Chrome
    /// trace / JSONL / CSV metrics / text summary).
    Trace,
    /// Static analysis: graph well-formedness, platform/plan validity,
    /// fault-plan sanity and Theorem-1 feasibility, reported as stable
    /// `PAS0xxx` diagnostics.
    Check,
    /// Long-running plan/simulation daemon: newline-delimited JSON over
    /// TCP, a Unix socket, or a watched drop directory, behind a
    /// fault-isolated worker pool with a content-addressed plan cache.
    Serve,
}

/// Which scheme `pas run` simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeArg {
    /// One of the paper's six schemes.
    Scheme(pas_core::Scheme),
    /// The clairvoyant single-speed reference.
    Oracle,
}

/// Fully parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Sub-command.
    pub command: Command,
    /// Workload: `atr`, `synthetic`, or a JSON path.
    pub app: String,
    /// Platform spec: `transmeta`, `xscale`, `continuous:<smin>`.
    pub model: String,
    /// Processor count.
    pub procs: usize,
    /// Target load (mutually exclusive with `deadline`).
    pub load: Option<f64>,
    /// Explicit deadline in ms.
    pub deadline: Option<f64>,
    /// Scheme for `run`.
    pub scheme: SchemeArg,
    /// RNG seed.
    pub seed: u64,
    /// Paired realizations for `compare`.
    pub reps: usize,
    /// Override the workload's α (ACET/WCET ratio).
    pub alpha: Option<f64>,
    /// Render an ASCII Gantt chart after `run`.
    pub gantt: bool,
    /// Output path for `export`.
    pub out: Option<String>,
    /// JSON file with a [`mp_sim::FaultPlan`] to inject during `run` or
    /// `trace`.
    pub fault_plan: Option<String>,
    /// Export format for `trace`: `chrome`, `jsonl`, `csv` or `summary`.
    pub format: String,
    /// Restrict `trace` exports to one processor's events.
    pub proc_filter: Option<usize>,
    /// Comma-separated event-kind filter for `trace` exports (see
    /// `pas_obs::EventKind::name`).
    pub kinds: Option<String>,
    /// Stream this many back-to-back frames through `trace` instead of a
    /// single run.
    pub frames: Option<usize>,
    /// Carry DVS state across streamed frames (with `--frames`).
    pub carry: bool,
    /// `check`/`plan`: positional sources (workload/platform/fault-plan/
    /// plan files or builtin names). Empty means use the defaults
    /// (`--app`/`--model`).
    pub sources: Vec<String>,
    /// `check`: treat warnings as errors.
    pub deny_warnings: bool,
    /// `check`: reference sources a plan artifact is verified against
    /// (workload/platform specs, same classification as positionals).
    pub against: Vec<String>,
    /// `check`: write mechanically repaired workloads next to the input.
    pub fix: bool,
    /// `check`: derive symbolic `[best, worst]` energy/makespan bounds
    /// (`PAS06xx`) for every scheme over each workload/platform pair.
    pub bounds: bool,
    /// `serve`: TCP listen address (`host:port`).
    pub listen: Option<String>,
    /// `serve`: Unix-domain socket path.
    pub socket: Option<String>,
    /// `serve`: drop directory answered with `.response.json` files.
    pub watch: Option<String>,
    /// `serve`: worker threads in the pool.
    pub workers: usize,
    /// `serve`: bounded queue capacity (beyond it, requests shed).
    pub queue: usize,
    /// `serve`: default per-request deadline in ms.
    pub timeout_ms: u64,
    /// `serve`: enable the `debug-*` fault-injection request kinds.
    pub debug_faults: bool,
    /// `serve`: structured JSONL log destination (`stderr` or a path).
    pub log: Option<String>,
    /// `serve`: minimum level for `--log`
    /// (`trace|debug|info|warn|error`; default `info`).
    pub log_level: String,
    /// `serve`: directory for flight-recorder crash reports.
    pub crash_dir: Option<String>,
    /// `serve`: directory for per-request Chrome-trace files.
    pub trace_out: Option<String>,
    /// `plan`/`check`: profile the offline phase and print a span tree.
    pub profile: bool,
    /// `plan`/`check`: write the profile as Chrome trace JSON instead of
    /// printing the span tree (implies `--profile`).
    pub profile_out: Option<String>,
}

impl Args {
    /// Parses an argv slice (without the program name).
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut it = args.iter();
        let command = match it.next().map(String::as_str) {
            Some("inspect") => Command::Inspect,
            Some("plan") => Command::Plan,
            Some("run") => Command::Run,
            Some("compare") => Command::Compare,
            Some("dot") => Command::Dot,
            Some("optimal") => Command::Optimal,
            Some("export") => Command::Export,
            Some("trace") => Command::Trace,
            Some("check") => Command::Check,
            Some("serve") => Command::Serve,
            Some(other) => return Err(format!("unknown command '{other}'")),
            None => return Err("missing command".into()),
        };
        let mut parsed = Args {
            command,
            app: "synthetic".into(),
            model: "transmeta".into(),
            procs: 2,
            load: None,
            deadline: None,
            scheme: SchemeArg::Scheme(pas_core::Scheme::Gss),
            seed: 42,
            reps: 100,
            alpha: None,
            gantt: false,
            out: None,
            fault_plan: None,
            format: "summary".into(),
            proc_filter: None,
            kinds: None,
            frames: None,
            carry: false,
            sources: Vec::new(),
            deny_warnings: false,
            against: Vec::new(),
            fix: false,
            bounds: false,
            listen: None,
            socket: None,
            watch: None,
            workers: 4,
            queue: 64,
            timeout_ms: 10_000,
            debug_faults: false,
            log: None,
            log_level: "info".into(),
            crash_dir: None,
            trace_out: None,
            profile: false,
            profile_out: None,
        };
        let mut in_against = false;
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> Result<&String, String> {
                it.next().ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--app" => parsed.app = value("--app")?.clone(),
                "--model" => parsed.model = value("--model")?.clone(),
                "--procs" => {
                    parsed.procs = parse_num(value("--procs")?, "--procs")?;
                    if parsed.procs == 0 {
                        return Err("--procs must be positive".into());
                    }
                }
                "--load" => {
                    let l: f64 = parse_num(value("--load")?, "--load")?;
                    if pas_core::PlanError::check_load(l).is_err() {
                        return Err("--load must be in (0, 1]".into());
                    }
                    parsed.load = Some(l);
                }
                "--deadline" => {
                    parsed.deadline = Some(parse_num(value("--deadline")?, "--deadline")?)
                }
                "--scheme" => parsed.scheme = parse_scheme(value("--scheme")?)?,
                "--seed" => parsed.seed = parse_num(value("--seed")?, "--seed")?,
                "--reps" => {
                    parsed.reps = parse_num(value("--reps")?, "--reps")?;
                    if parsed.reps == 0 {
                        return Err("--reps must be positive".into());
                    }
                }
                "--alpha" => {
                    let a: f64 = parse_num(value("--alpha")?, "--alpha")?;
                    if !(a > 0.0 && a <= 1.0) {
                        return Err("--alpha must be in (0, 1]".into());
                    }
                    parsed.alpha = Some(a);
                }
                "--gantt" => parsed.gantt = true,
                "--out" => parsed.out = Some(value("--out")?.clone()),
                "--fault-plan" => parsed.fault_plan = Some(value("--fault-plan")?.clone()),
                "--format" => parsed.format = value("--format")?.clone(),
                "--proc" => parsed.proc_filter = Some(parse_num(value("--proc")?, "--proc")?),
                "--kinds" => parsed.kinds = Some(value("--kinds")?.clone()),
                "--frames" => {
                    parsed.frames = Some(parse_num(value("--frames")?, "--frames")?);
                    if parsed.frames == Some(0) {
                        return Err("--frames must be positive".into());
                    }
                }
                "--carry" => parsed.carry = true,
                "--deny-warnings" => parsed.deny_warnings = true,
                "--against" => {
                    if parsed.command != Command::Check {
                        return Err("--against is a `check` flag".into());
                    }
                    let first = value("--against")?.clone();
                    if first.starts_with('-') {
                        return Err("--against needs a value".into());
                    }
                    parsed.against.push(first);
                    in_against = true;
                    continue;
                }
                "--fix" => parsed.fix = true,
                "--bounds" => parsed.bounds = true,
                "--listen" => parsed.listen = Some(value("--listen")?.clone()),
                "--socket" => parsed.socket = Some(value("--socket")?.clone()),
                "--watch" => parsed.watch = Some(value("--watch")?.clone()),
                "--workers" => {
                    parsed.workers = parse_num(value("--workers")?, "--workers")?;
                    if parsed.workers == 0 {
                        return Err("--workers must be positive".into());
                    }
                }
                "--queue" => {
                    parsed.queue = parse_num(value("--queue")?, "--queue")?;
                    if parsed.queue == 0 {
                        return Err("--queue must be positive".into());
                    }
                }
                "--timeout-ms" => {
                    parsed.timeout_ms = parse_num(value("--timeout-ms")?, "--timeout-ms")?;
                    if parsed.timeout_ms == 0 {
                        return Err("--timeout-ms must be positive".into());
                    }
                }
                "--debug-faults" => parsed.debug_faults = true,
                "--log" => parsed.log = Some(value("--log")?.clone()),
                "--log-level" => {
                    let level = value("--log-level")?.clone();
                    if pas_obs::log::Level::parse(&level).is_none() {
                        return Err(format!(
                            "bad value for --log-level: {level} (trace|debug|info|warn|error)"
                        ));
                    }
                    parsed.log_level = level;
                }
                "--crash-dir" => parsed.crash_dir = Some(value("--crash-dir")?.clone()),
                "--trace-out" => parsed.trace_out = Some(value("--trace-out")?.clone()),
                "--profile" => parsed.profile = true,
                "--profile-out" => {
                    parsed.profile_out = Some(value("--profile-out")?.clone());
                    parsed.profile = true;
                }
                other => {
                    // `check` and `plan` take positional sources; every
                    // other command rejects stray tokens. Bare tokens
                    // directly after `--against` extend the reference
                    // list rather than the checked sources.
                    let positional_ok = matches!(parsed.command, Command::Check | Command::Plan);
                    if positional_ok && !other.starts_with('-') {
                        if in_against {
                            parsed.against.push(other.to_string());
                            continue; // Stay in --against until the next flag.
                        }
                        parsed.sources.push(other.to_string());
                    } else {
                        return Err(format!("unknown flag '{other}'"));
                    }
                }
            }
            in_against = false;
        }
        if parsed.load.is_some() && parsed.deadline.is_some() {
            return Err("--load and --deadline are mutually exclusive".into());
        }
        if parsed.carry && parsed.frames.is_none() {
            return Err("--carry requires --frames".into());
        }
        if parsed.command == Command::Serve
            && parsed.listen.is_none()
            && parsed.socket.is_none()
            && parsed.watch.is_none()
        {
            return Err("serve needs at least one of --listen, --socket or --watch".into());
        }
        if parsed.profile && !matches!(parsed.command, Command::Plan | Command::Check) {
            return Err("--profile is a `plan`/`check` flag".into());
        }
        if parsed.bounds && parsed.command != Command::Check {
            return Err("--bounds is a `check` flag".into());
        }
        if parsed.command != Command::Serve {
            if parsed.log.is_some() || parsed.log_level != "info" {
                return Err("--log/--log-level are `serve` flags".into());
            }
            if parsed.crash_dir.is_some() {
                return Err("--crash-dir is a `serve` flag".into());
            }
            if parsed.trace_out.is_some() {
                return Err("--trace-out is a `serve` flag".into());
            }
        }
        Ok(parsed)
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad value for {flag}: {s}"))
}

fn parse_scheme(s: &str) -> Result<SchemeArg, String> {
    if let Some(scheme) = pas_core::Scheme::parse(s) {
        return Ok(SchemeArg::Scheme(scheme));
    }
    match s.to_ascii_lowercase().as_str() {
        "oracle" => Ok(SchemeArg::Oracle),
        other => Err(format!("unknown scheme '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        let v: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        Args::parse(&v)
    }

    #[test]
    fn defaults() {
        let a = parse(&["run"]).unwrap();
        assert_eq!(a.command, Command::Run);
        assert_eq!(a.app, "synthetic");
        assert_eq!(a.procs, 2);
        assert_eq!(a.seed, 42);
        assert!(!a.gantt);
    }

    #[test]
    fn full_flag_set() {
        let a = parse(&[
            "compare",
            "--app",
            "atr",
            "--model",
            "xscale",
            "--procs",
            "4",
            "--load",
            "0.7",
            "--scheme",
            "ss2",
            "--seed",
            "9",
            "--reps",
            "50",
            "--alpha",
            "0.8",
            "--gantt",
            "--out",
            "x.json",
            "--fault-plan",
            "faults.json",
        ])
        .unwrap();
        assert_eq!(a.command, Command::Compare);
        assert_eq!(a.procs, 4);
        assert_eq!(a.load, Some(0.7));
        assert_eq!(a.scheme, SchemeArg::Scheme(pas_core::Scheme::Ss2));
        assert_eq!(a.reps, 50);
        assert_eq!(a.alpha, Some(0.8));
        assert!(a.gantt);
        assert_eq!(a.out.as_deref(), Some("x.json"));
        assert_eq!(a.fault_plan.as_deref(), Some("faults.json"));
    }

    #[test]
    fn load_and_deadline_conflict() {
        assert!(parse(&["plan", "--load", "0.5", "--deadline", "60"]).is_err());
    }

    #[test]
    fn rejects_bad_values() {
        assert!(parse(&["run", "--procs", "0"]).is_err());
        assert!(parse(&["run", "--load", "1.5"]).is_err());
        assert!(parse(&["run", "--alpha", "0"]).is_err());
        assert!(parse(&["run", "--reps", "x"]).is_err());
        assert!(parse(&["run", "--seed"]).is_err());
    }

    #[test]
    fn trace_flags() {
        let a = parse(&[
            "trace",
            "--format",
            "chrome",
            "--proc",
            "1",
            "--kinds",
            "dispatch,complete",
        ])
        .unwrap();
        assert_eq!(a.command, Command::Trace);
        assert_eq!(a.format, "chrome");
        assert_eq!(a.proc_filter, Some(1));
        assert_eq!(a.kinds.as_deref(), Some("dispatch,complete"));
        // The format defaults to the human-readable summary.
        assert_eq!(parse(&["trace"]).unwrap().format, "summary");
    }

    #[test]
    fn stream_flags() {
        let a = parse(&["trace", "--frames", "16", "--carry", "--format", "jsonl"]).unwrap();
        assert_eq!(a.frames, Some(16));
        assert!(a.carry);
        assert!(parse(&["trace", "--frames", "0"]).is_err());
        assert!(parse(&["trace", "--carry"]).is_err());
    }

    #[test]
    fn compare_has_no_metrics_or_batch_flag() {
        for flag in ["--metrics", "--batch"] {
            let err = parse(&["compare", flag, "64"]).unwrap_err();
            assert!(err.contains("unknown flag"), "{err}");
        }
    }

    #[test]
    fn check_flags() {
        let a = parse(&[
            "check",
            "w.json",
            "faults.json",
            "--deny-warnings",
            "--format",
            "json",
        ])
        .unwrap();
        assert_eq!(a.command, Command::Check);
        assert_eq!(
            a.sources,
            vec!["w.json".to_string(), "faults.json".to_string()]
        );
        assert!(a.deny_warnings);
        assert_eq!(a.format, "json");
        assert!(parse(&["check"]).unwrap().sources.is_empty());
        // Positional sources are only accepted by `check`.
        assert!(parse(&["run", "w.json"]).is_err());
    }

    #[test]
    fn against_collects_reference_sources() {
        let a = parse(&[
            "check",
            "p.json",
            "--against",
            "w.json",
            "xscale",
            "--deny-warnings",
        ])
        .unwrap();
        assert_eq!(a.sources, vec!["p.json".to_string()]);
        assert_eq!(a.against, vec!["w.json".to_string(), "xscale".to_string()]);
        assert!(a.deny_warnings);
        // --against needs at least one value and belongs to `check`.
        assert!(parse(&["check", "--against"]).is_err());
        assert!(parse(&["check", "--against", "--deny-warnings"]).is_err());
        assert!(parse(&["run", "--against", "w.json"]).is_err());
    }

    #[test]
    fn plan_takes_positional_sources() {
        let a = parse(&[
            "plan", "w.json", "xscale", "--scheme", "ss2", "--out", "p.json",
        ])
        .unwrap();
        assert_eq!(a.command, Command::Plan);
        assert_eq!(a.sources, vec!["w.json".to_string(), "xscale".to_string()]);
        assert_eq!(a.out.as_deref(), Some("p.json"));
    }

    #[test]
    fn bounds_flag() {
        let a = parse(&["check", "synthetic", "--bounds", "--format", "json"]).unwrap();
        assert!(a.bounds);
        assert_eq!(a.format, "json");
        assert!(!parse(&["check", "synthetic"]).unwrap().bounds);
        // Bounds derivation belongs to `check`.
        assert!(parse(&["run", "--bounds"]).is_err());
        assert!(parse(&["plan", "--bounds"]).is_err());
    }

    #[test]
    fn fix_flag() {
        let a = parse(&["check", "w.json", "--fix"]).unwrap();
        assert!(a.fix);
        assert!(!parse(&["check", "w.json"]).unwrap().fix);
    }

    #[test]
    fn serve_flags() {
        let a = parse(&[
            "serve",
            "--listen",
            "127.0.0.1:7453",
            "--workers",
            "8",
            "--queue",
            "128",
            "--timeout-ms",
            "2500",
            "--debug-faults",
        ])
        .unwrap();
        assert_eq!(a.command, Command::Serve);
        assert_eq!(a.listen.as_deref(), Some("127.0.0.1:7453"));
        assert_eq!(a.workers, 8);
        assert_eq!(a.queue, 128);
        assert_eq!(a.timeout_ms, 2500);
        assert!(a.debug_faults);
        // At least one endpoint is required, and sizes must be positive.
        assert!(parse(&["serve"]).is_err());
        assert!(parse(&["serve", "--listen", "x", "--workers", "0"]).is_err());
        assert!(parse(&["serve", "--listen", "x", "--queue", "0"]).is_err());
        assert!(parse(&["serve", "--listen", "x", "--timeout-ms", "0"]).is_err());
        let b = parse(&["serve", "--watch", "drops/"]).unwrap();
        assert_eq!(b.watch.as_deref(), Some("drops/"));
        assert_eq!(b.workers, 4);
    }

    #[test]
    fn serve_observability_flags() {
        let a = parse(&[
            "serve",
            "--listen",
            "127.0.0.1:7453",
            "--log",
            "serve.log",
            "--log-level",
            "debug",
            "--crash-dir",
            "crashes",
            "--trace-out",
            "traces",
        ])
        .unwrap();
        assert_eq!(a.log.as_deref(), Some("serve.log"));
        assert_eq!(a.log_level, "debug");
        assert_eq!(a.crash_dir.as_deref(), Some("crashes"));
        assert_eq!(a.trace_out.as_deref(), Some("traces"));
        // Level defaults to info and is validated.
        let b = parse(&["serve", "--log", "stderr", "--listen", "x"]).unwrap();
        assert_eq!(b.log_level, "info");
        assert!(parse(&["serve", "--listen", "x", "--log-level", "loud"]).is_err());
        // The observability flags belong to `serve`.
        assert!(parse(&["run", "--log", "stderr"]).is_err());
        assert!(parse(&["plan", "--log-level", "debug"]).is_err());
        assert!(parse(&["run", "--crash-dir", "c"]).is_err());
        assert!(parse(&["trace", "--trace-out", "t"]).is_err());
    }

    #[test]
    fn profile_flags() {
        let a = parse(&["plan", "--profile"]).unwrap();
        assert!(a.profile);
        assert!(a.profile_out.is_none());
        // --profile-out implies --profile.
        let b = parse(&["check", "w.json", "--profile-out", "spans.json"]).unwrap();
        assert!(b.profile);
        assert_eq!(b.profile_out.as_deref(), Some("spans.json"));
        assert!(!parse(&["plan"]).unwrap().profile);
        // Profiling belongs to the offline commands.
        assert!(parse(&["run", "--profile"]).is_err());
        assert!(parse(&["trace", "--profile-out", "x.json"]).is_err());
        assert!(parse(&["plan", "--profile-out"]).is_err());
    }

    #[test]
    fn scheme_aliases() {
        assert_eq!(
            parse(&["run", "--scheme", "SS(1)"]).unwrap().scheme,
            SchemeArg::Scheme(pas_core::Scheme::Ss1)
        );
        assert_eq!(
            parse(&["run", "--scheme", "oracle"]).unwrap().scheme,
            SchemeArg::Oracle
        );
    }
}
