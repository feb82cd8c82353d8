//! `pas_bench`: the repository benchmark.
//!
//! ```text
//! pas_bench run     [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--runs R] [--out FILE]
//! pas_bench compare A.json B.json
//! ```
//!
//! `run` measures every workload (or one) in its own child process and
//! prints each end-to-end metric with its unit, value, the quartiles of
//! the samples behind it and their count, then a one-line JSON summary.
//! `run --trace 1` is the separate traced run: it times each layer from
//! outside, on the same seeds, and writes the spans as a Chrome trace.
//! `--seconds` and `--trace` are part of the invocation `BENCHMARK.json`
//! fixes. Both kinds of run write a result file that `compare` reads. See
//! README.md next to Cargo.toml.

mod catalog;
mod compare;
mod mc;
mod measure;
mod offline;
mod paper;
mod record;
mod serve;
mod spans;
mod stats;
mod sys;

use catalog::{DEFAULT_SEED, END_TO_END, INFORMATIONAL, PER_LAYER, RUN_SECONDS, WORKLOADS};
use record::{Metric, ResultFile, RunRecord};
use std::process::{Command, Stdio};

const USAGE: &str = "usage:
  pas_bench run     [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--runs R] [--out FILE]
  pas_bench compare A.json B.json
workloads: mc-fig5 mc-faults paper-figs offline-large serve-mix";

/// Where result files and Chrome traces go by default.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// What a workload function measured.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn new(metrics: Vec<Metric>, attempted: u64) -> Self {
        Self {
            metrics,
            attempted,
            failed: 0,
        }
    }
}

struct Opts {
    workloads: Vec<String>,
    seed: u64,
    seconds: u64,
    runs: u64,
    trace: bool,
    out: Option<String>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: WORKLOADS.iter().map(|w| w.to_string()).collect(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        runs: 1,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let num = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}"));
                }
                o.workloads = vec![w.clone()];
            }
            "--seed" => o.seed = num(value()?)?,
            "--seconds" => o.seconds = num(value()?)?.max(1),
            "--runs" => o.runs = num(value()?)?.max(1),
            "--trace" => match value()?.as_str() {
                "0" => o.trace = false,
                "1" => o.trace = true,
                v => return Err(format!("--trace takes 0 or 1, not {v}")),
            },
            "--out" => o.out = Some(value()?.clone()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(o)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or(&[]);
    let result = match args.first().map(String::as_str) {
        Some("run") => parse(rest).and_then(|o| run(&o)),
        Some("compare") => compare::main(rest),
        Some("worker") => worker(rest).map(|()| true),
        Some("daemon") => daemon(rest).map(|()| true),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("pas_bench: {e}");
            std::process::exit(2);
        }
    }
}

/// Runs every requested (workload, seed) in its own child process, adding
/// the records to the result file (to its runs, if it exists: that is how
/// runs of a parent and a change made in alternation collect into one
/// file per side). Returns whether every run passed its correctness gates.
fn run(o: &Opts) -> Result<bool, String> {
    let kind = if o.trace { "trace" } else { "run" };
    let out = o.out.clone().unwrap_or_else(|| {
        let scope = match o.workloads.as_slice() {
            [one] => one.as_str(),
            _ => "all",
        };
        format!("{OUT_DIR}/{kind}-{scope}-{}.json", o.seed)
    });
    let mut file = if std::path::Path::new(&out).exists() {
        ResultFile::read(&out)?
    } else {
        ResultFile {
            nproc: sys::nproc() as u64,
            cpu_model: sys::cpu_model(),
            runs: Vec::new(),
        }
    };
    let mut all_correct = true;
    for workload in &o.workloads {
        for r in 0..o.runs {
            let seed = o.seed.wrapping_add(r);
            let rec = spawn_worker(workload, seed, o.seconds, o.trace)?;
            print_run(&rec);
            all_correct &= rec.correct;
            file.runs.push(rec);
            file.write(&out)?;
        }
    }
    eprintln!("wrote {out}");
    if let Some(last) = file.runs.last() {
        println!("{}", last.summary_line());
    }
    Ok(all_correct)
}

fn spawn_worker(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<RunRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating pas_bench: {e}"))?;
    let output = Command::new(exe)
        .args([
            "worker",
            workload,
            &seed.to_string(),
            &seconds.to_string(),
            if trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {workload} worker: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    match serde_json::from_str::<RunRecord>(last) {
        Ok(rec) if output.status.success() => Ok(rec),
        _ => Ok(RunRecord {
            workload: workload.to_string(),
            seed,
            seconds,
            traced: trace,
            correct: false,
            attempted: 0,
            failed: 0,
            failures: vec![format!("worker exited with {}", output.status)],
            metrics: Vec::new(),
        }),
    }
}

fn print_run(rec: &RunRecord) {
    println!(
        "{} seed {} ({} s{}): {}, {} ops attempted, {} failed",
        rec.workload,
        rec.seed,
        rec.seconds,
        if rec.traced { ", traced" } else { "" },
        if rec.correct { "correct" } else { "INCORRECT" },
        rec.attempted,
        rec.failed
    );
    for f in &rec.failures {
        println!("  failure: {f}");
    }
    for m in &rec.metrics {
        let spread = match (m.q1, m.q3) {
            (Some(q1), Some(q3)) => format!("IQR [{q1:.6}, {q3:.6}]"),
            _ => String::new(),
        };
        println!(
            "  {:<40} {:>16.6} {:<12} {:<36} n={}",
            m.name, m.value, m.unit, spread, m.n
        );
    }
}

/// `worker W SEED SECONDS TRACE`: measures one workload in this process
/// and prints its [`RunRecord`] as the last stdout line.
fn worker(args: &[String]) -> Result<(), String> {
    let [workload, seed, seconds, trace] = args else {
        return Err("usage: pas_bench worker WORKLOAD SEED SECONDS 0|1".to_string());
    };
    let seed: u64 = seed.parse().map_err(|_| format!("bad seed {seed}"))?;
    let seconds: u64 = seconds
        .parse()
        .map_err(|_| format!("bad seconds {seconds}"))?;
    let traced = trace == "1";
    sys::settle_allocator();
    let mut spans = spans::Spans::new();
    let result = spans.scope(workload.clone(), |sp| match (workload.as_str(), traced) {
        ("mc-fig5" | "mc-faults", false) => mc::run(workload, seed, seconds),
        ("mc-fig5" | "mc-faults", true) => mc::trace(workload, seed, seconds, sp),
        ("paper-figs", false) => paper::run(seed, seconds),
        ("paper-figs", true) => paper::trace(seed, seconds, sp),
        ("offline-large", false) => offline::run(seed, seconds),
        ("offline-large", true) => offline::trace(seed, seconds, sp),
        ("serve-mix", false) => serve::run(seed, seconds),
        ("serve-mix", true) => serve::trace(seed, seconds, sp),
        (w, _) => Err(format!("unknown workload {w}")),
    });
    let mut rec = RunRecord {
        workload: workload.clone(),
        seed,
        seconds,
        traced,
        correct: false,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
    };
    match result.and_then(|o| complete(o, traced)) {
        Ok(o) => {
            rec.correct = true;
            rec.attempted = o.attempted;
            rec.failed = o.failed;
            rec.metrics = o.metrics;
        }
        Err(e) => rec.failures.push(e),
    }
    if traced {
        let path = format!("{OUT_DIR}/trace-{workload}-{seed}.chrome.json");
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, spans.chrome_trace()))
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    let line = serde_json::to_string(&rec).map_err(|e| format!("encoding the record: {e}"))?;
    println!("{line}");
    Ok(())
}

/// Puts a workload's metrics in catalog order and checks the set: every
/// end-to-end metric (and any informational one) for an untraced run; for
/// a traced run, every per-layer metric, with 0 for layers the workload
/// never executes.
fn complete(mut o: Outcome, traced: bool) -> Result<Outcome, String> {
    let (required, optional): (Vec<&str>, Vec<&str>) = if traced {
        (PER_LAYER.iter().map(|m| m.0).collect(), Vec::new())
    } else {
        (
            END_TO_END.iter().map(|m| m.name).collect(),
            INFORMATIONAL.iter().map(|m| m.0).collect(),
        )
    };
    let known = |name: &str| required.contains(&name) || optional.contains(&name);
    if let Some(extra) = o.metrics.iter().find(|m| !known(&m.name)) {
        return Err(format!("metric {} does not belong to this run", extra.name));
    }
    let mut ordered = Vec::with_capacity(required.len() + optional.len());
    for &name in required.iter().chain(&optional) {
        let mut found = o.metrics.iter().filter(|m| m.name == name);
        match (found.next(), found.next()) {
            (Some(_), Some(_)) => return Err(format!("metric {name} reported twice")),
            (Some(m), None) => ordered.push(m.clone()),
            (None, _) if optional.contains(&name) => {}
            (None, _) if traced => ordered.push(Metric::value(name, 0.0)),
            (None, _) => return Err(format!("end-to-end metric {name} is missing")),
        }
    }
    if let Some(bad) = ordered.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", bad.name));
    }
    o.metrics = ordered;
    Ok(o)
}

/// `daemon ARGS...`: `pas serve ARGS...` in this process, through the same
/// library entry point the `pas` binary uses.
fn daemon(args: &[String]) -> Result<(), String> {
    sys::settle_allocator();
    let mut argv = vec!["serve".to_string()];
    argv.extend_from_slice(args);
    pas_cli::run(&argv).map(drop)
}
