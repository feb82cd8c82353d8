//! Command implementations. Every command returns the text to print, so
//! the whole tool is unit-testable without spawning processes.

use crate::args::{Args, Command, SchemeArg};
use crate::source::{classify, load_fault_plan, load_model, read_app, refuse_errors, Source};
use andor_graph::{app_profile, to_dot, AndOrGraph, SectionGraph};
use dvfs_power::ProcessorModel;
use mp_sim::trace::{lane_stats, power_profile, render_gantt, GanttOptions};
use mp_sim::ExecTimeModel;
use pas_analyze::DeadlineSpec;
use pas_core::{Scheme, Setup, SetupError};
use pas_stats::Summary;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

/// Dispatches a parsed command line.
pub fn execute(args: &Args) -> Result<String, String> {
    if args.fault_plan.is_some() && args.command != Command::Run && args.command != Command::Trace {
        return Err("--fault-plan applies only to `run` and `trace`".into());
    }
    match args.command {
        Command::Inspect => inspect(args),
        Command::Plan => with_profile(args, pas_obs::profile::names::CLI_PLAN, || plan(args)),
        Command::Run => run_one(args),
        Command::Compare => compare(args),
        Command::Dot => dot(args),
        Command::Optimal => optimal(args),
        Command::Export => export(args),
        Command::Trace => trace_cmd(args),
        Command::Check => with_profile(args, pas_obs::profile::names::CLI_CHECK, || {
            crate::check::check_cmd(args)
        }),
        Command::Serve => serve_cmd(args),
    }
}

/// Runs `body` under the span profiler when `--profile` was given: the
/// whole command becomes the root span, and the collected tree is either
/// appended to the command output or written to `--profile-out` as a
/// Chrome trace (open in Perfetto / `chrome://tracing`). Profiling only
/// observes the wall clock — command output and artifacts are
/// byte-identical with it on or off.
fn with_profile(
    args: &Args,
    root: &'static str,
    body: impl FnOnce() -> Result<String, String>,
) -> Result<String, String> {
    use pas_obs::profile;
    if !args.profile {
        return body();
    }
    // Other in-process profiler users (parallel tests) must not drain
    // our spans mid-command.
    let _session = profile::exclusive();
    profile::enable();
    let result = {
        let _root = profile::span(root);
        body()
    };
    profile::disable();
    let spans = profile::take();
    let mut out = result?;
    match &args.profile_out {
        Some(path) => {
            std::fs::write(path, profile::chrome_trace(&spans))
                .map_err(|e| format!("writing {path}: {e}"))?;
            if !out.ends_with('\n') {
                out.push('\n');
            }
            let _ = writeln!(out, "profile: wrote {path} ({} spans)", spans.len());
        }
        None => {
            if !out.ends_with('\n') {
                out.push('\n');
            }
            let _ = writeln!(out, "\nprofile (offline-phase wall clock):");
            out.push_str(&profile::render_tree(&spans));
        }
    }
    Ok(out)
}

/// A command's workload behind the graph rules and, given the platform
/// it runs on, the platform rules: what `pas check` refuses, refused.
fn prechecked(
    args: &Args,
    graph: AndOrGraph,
    model: Option<&ProcessorModel>,
) -> Result<AndOrGraph, String> {
    refuse_errors(&match model {
        Some(m) => pas_analyze::check_inputs(&graph, &args.app, m, &args.model),
        None => pas_analyze::check_graph(&graph, &args.app),
    })?;
    Ok(graph)
}

/// The setup of `plan`, `run`, `trace`, `compare` and `optimal`: `--app`
/// and `--model`, or the graph and platform `pas plan` classified from
/// its sources, [`prechecked`].
fn prechecked_setup(
    args: &Args,
    graph: Option<AndOrGraph>,
    model: Option<ProcessorModel>,
) -> Result<Setup, String> {
    let graph = match graph {
        Some(g) => g,
        None => read_app(args)?,
    };
    let model = match model {
        Some(m) => m,
        None => load_model(&args.model)?,
    };
    let graph = prechecked(args, graph, Some(&model))?;
    setup(args, graph, model)
}

/// Runs the off-line phase for `--deadline` or `--load`.
fn setup(args: &Args, graph: AndOrGraph, model: ProcessorModel) -> Result<Setup, String> {
    let spec = DeadlineSpec::from_flags(args.deadline, args.load);
    spec.setup(graph, model, args.procs).map_err(|e| match e {
        SetupError::Offline(pas_core::OfflineError::Infeasible {
            worst_finish,
            deadline,
        }) => format!(
            "infeasible: the worst case needs {worst_finish:.2} ms but the \
             deadline is {deadline:.2} ms"
        ),
        other => other.to_string(),
    })
}

fn inspect(args: &Args) -> Result<String, String> {
    let graph = prechecked(args, read_app(args)?, None)?;
    let sections = SectionGraph::build(&graph).map_err(|e| format!("section structure: {e}"))?;
    let profile = app_profile(&graph, &sections);
    let mut out = String::new();
    let _ = writeln!(out, "application: {}", args.app);
    let _ = writeln!(
        out,
        "  nodes: {} ({} tasks, {} OR, {} AND/sync)",
        graph.len(),
        graph.num_tasks(),
        graph.num_or_nodes(),
        graph.len() - graph.num_tasks() - graph.num_or_nodes()
    );
    let _ = writeln!(out, "  sections: {}", sections.len());
    let _ = writeln!(out, "  scenarios: {}", profile.scenarios);
    let _ = writeln!(
        out,
        "  work (WCET): expected {:.1} ms, range {:.1}..{:.1} ms",
        profile.expected_wcet, profile.wcet_range.0, profile.wcet_range.1
    );
    let _ = writeln!(
        out,
        "  work (ACET): expected {:.1} ms",
        profile.expected_acet
    );
    let _ = writeln!(
        out,
        "  worst critical path: {:.1} ms (mean parallelism {:.2})",
        profile.worst_critical_path, profile.mean_parallelism
    );
    let _ = writeln!(out, "\nsections (chain order):");
    for (i, section) in sections.sections().iter().enumerate() {
        let names: Vec<&str> = section
            .nodes
            .iter()
            .map(|&n| graph.node(n).name.as_str())
            .take(8)
            .collect();
        let ellipsis = if section.nodes.len() > 8 { ", …" } else { "" };
        let exit = section
            .exit_or
            .map(|o| graph.node(o).name.clone())
            .unwrap_or_else(|| "end".into());
        let _ = writeln!(
            out,
            "  s{i} depth {}: {} node(s) [{}{}] -> {}",
            section.depth,
            section.nodes.len(),
            names.join(", "),
            ellipsis,
            exit
        );
    }
    Ok(out)
}

fn serve_cmd(args: &Args) -> Result<String, String> {
    use pas_obs::log;
    if let Some(dest) = &args.log {
        let level = log::Level::parse(&args.log_level)
            .ok_or_else(|| format!("bad --log-level '{}'", args.log_level))?;
        let sink: Box<dyn std::io::Write + Send> = if dest == "stderr" {
            Box::new(std::io::stderr())
        } else {
            Box::new(
                std::fs::File::create(dest)
                    .map_err(|e| format!("pas serve: opening log {dest}: {e}"))?,
            )
        };
        log::init(Some(sink), level, log::DEFAULT_RING_CAP);
    }
    let cfg = pas_serve::ServeConfig {
        workers: args.workers,
        queue_cap: args.queue,
        default_timeout_ms: args.timeout_ms,
        debug_faults: args.debug_faults,
        crash_dir: args.crash_dir.clone(),
        trace_dir: args.trace_out.clone(),
    };
    let eps = pas_serve::Endpoints {
        tcp: args.listen.clone(),
        unix: args.socket.clone(),
        watch: args.watch.clone(),
    };
    let out = pas_serve::run_server(cfg, &eps).map(|summary| format!("{summary}\n"));
    // Flush and close the log file even when the server exits with a
    // configuration error.
    log::shutdown();
    out
}

fn plan(args: &Args) -> Result<String, String> {
    // Positional sources override the `--app`/`--model` defaults, so the
    // documented invocation `pas plan workload.json xscale --out p.json`
    // works without flag spelling.
    let mut eff = args.clone();
    let (mut graph, mut model) = (None, None);
    for spec in &args.sources {
        match classify(spec, args)? {
            Source::Workload(label, g) => (eff.app, graph) = (label, Some(g)),
            Source::Platform(label, m) => (eff.model, model) = (label, Some(m)),
            Source::Fault(..) | Source::Plan(..) => {
                return Err(format!("{spec}: expected a workload or platform source"))
            }
        }
    }
    let args = &eff;
    let setup = prechecked_setup(args, graph, model)?;
    if let Some(path) = &args.out {
        let scheme = match args.scheme {
            SchemeArg::Scheme(s) => s,
            SchemeArg::Oracle => {
                return Err(
                    "the oracle has no serializable plan (its schedule is per-realization); \
                     pick one of npm|spm|gss|ss1|ss2|as"
                        .into(),
                )
            }
        };
        let artifact = pas_core::PlanArtifact::from_setup(&setup, scheme, &args.app, &args.model);
        let json = artifact
            .to_json()
            .map_err(|e| format!("serializing: {e}"))?;
        let digest = pas_core::PlanArtifact::digest_of(&json);
        std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
        return Ok(format!(
            "wrote {path} (schema v{}, scheme {}, {} nodes, {} sections)\ndigest sha256:{digest}\n",
            pas_core::PLAN_SCHEMA_VERSION,
            scheme.name(),
            setup.graph.len(),
            setup.sections.len()
        ));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "off-line phase — {} processors, deadline {:.2} ms, model {}",
        setup.plan.num_procs,
        setup.plan.deadline,
        setup.model.name()
    );
    let _ = writeln!(
        out,
        "  Tw (worst finish) = {:.2} ms   Ta (average finish) = {:.2} ms",
        setup.plan.worst_total, setup.plan.avg_total
    );
    let _ = writeln!(
        out,
        "  load = {:.3}   static slack = {:.2} ms",
        setup.plan.load(),
        setup.plan.static_slack()
    );
    if let SchemeArg::Scheme(scheme) = args.scheme {
        let artifact = pas_core::PlanArtifact::from_setup(&setup, scheme, &args.app, &args.model);
        let digest = artifact.digest().map_err(|e| format!("digesting: {e}"))?;
        let _ = writeln!(out, "  plan digest ({}) = sha256:{digest}", scheme.name());
    }
    let _ = writeln!(out, "\nPMP statistics (per OR branch):");
    for ((or, k), tw) in &setup.plan.branch_worst {
        let ta = setup.plan.branch_avg[&(*or, *k)];
        let _ = writeln!(
            out,
            "  {} branch {k}: Tw_k = {tw:.2} ms, Ta_k = {ta:.2} ms",
            setup.graph.node(*or).name
        );
    }
    let _ = writeln!(
        out,
        "\ncanonical schedule (per section, worst case at full speed):"
    );
    for (sid, order) in setup.plan.dispatch.per_section.iter().enumerate() {
        if order.is_empty() {
            continue;
        }
        let _ = writeln!(
            out,
            "  section s{sid} (length {:.2} ms):",
            setup.plan.section_worst_len[sid]
        );
        for (&node, &start) in order.iter().zip(&setup.plan.canonical_start_rel[sid]) {
            let n = setup.graph.node(node);
            if !n.kind.is_computation() {
                continue;
            }
            let lst = setup.plan.lst[node.index()].expect("computation node");
            let _ = writeln!(
                out,
                "    {:<22} canonical [{:>7.2}, {:>7.2}]   latest start {:>8.2} ms",
                n.name,
                start,
                start + n.kind.wcet(),
                lst
            );
        }
    }
    Ok(out)
}

/// The policy `--scheme` names.
fn scheme_policy(setup: &Setup, scheme: SchemeArg) -> Box<dyn mp_sim::Policy + '_> {
    match scheme {
        SchemeArg::Scheme(s) => setup.policy(s),
        SchemeArg::Oracle => Box::new(setup.oracle()),
    }
}

fn run_one(args: &Args) -> Result<String, String> {
    let setup = prechecked_setup(args, None, None)?;
    let mut rng = StdRng::seed_from_u64(args.seed);
    let real = setup.sample(&ExecTimeModel::paper_defaults(), &mut rng);
    let fault_plan = match &args.fault_plan {
        Some(path) => Some(load_fault_plan(path)?),
        None => None,
    };
    // The seed doubles as the fault plan's run index, so `--seed` varies
    // the drawn faults alongside the realization.
    let fault_set = fault_plan
        .as_ref()
        .map(|p| p.realize(&setup.graph, args.seed));
    let mut policy = scheme_policy(&setup, args.scheme);
    let res = setup
        .simulator(true)
        .run_observed(policy.as_mut(), &real, None, fault_set.as_ref(), None)
        .map_err(|e| format!("simulation: {e}"))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} on {} ({} processors, seed {})",
        policy.name(),
        setup.model.name(),
        setup.plan.num_procs,
        args.seed
    );
    let status = if res.status.met() {
        "met".to_string()
    } else {
        format!("MISSED by {:.2} ms", res.status.missed_by())
    };
    let _ = writeln!(
        out,
        "finished at {:.2} ms of {:.2} ms — deadline {}",
        res.finish_time, res.deadline, status
    );
    if fault_plan.is_some() {
        let f = res.faults;
        let _ = writeln!(
            out,
            "faults: {} injected ({} overruns, {} speed failures, {} stalls), \
             {} detected, {} recoveries, recovery energy {:.3}",
            f.total_injected(),
            f.overruns_injected,
            f.speed_failures_injected,
            f.stalls_injected,
            f.overruns_detected,
            f.recoveries,
            f.recovery_energy
        );
    }
    let _ = writeln!(
        out,
        "energy {:.3} (busy {:.3}, idle {:.3}, transitions {:.3}), {} speed changes",
        res.total_energy(),
        res.energy.busy_energy(),
        res.energy.idle_energy(),
        res.energy.transition_energy(),
        res.energy.speed_changes()
    );
    let trace = res.trace.as_ref().expect("tracing enabled");
    for lane in lane_stats(
        trace,
        setup.plan.num_procs,
        res.deadline.max(res.finish_time),
    )
    .map_err(|e| format!("trace analysis: {e}"))?
    {
        let _ = writeln!(
            out,
            "  p{}: {} tasks, busy {:.1} ms, utilization {:.0}%, mean speed {:.2}",
            lane.proc,
            lane.tasks,
            lane.busy,
            lane.utilization * 100.0,
            lane.mean_speed
        );
    }
    if args.gantt {
        let _ = writeln!(out);
        let opts = GanttOptions {
            width: 72,
            deadline: Some(res.deadline),
        };
        out.push_str(&render_gantt(
            trace,
            &setup.graph,
            setup.plan.num_procs,
            &opts,
        ));
        // Dynamic-power timeline under the Gantt: mean normalized power
        // per window, rendered as deciles of the theoretical maximum
        // (num_procs · P_max).
        let horizon = res.deadline.max(res.finish_time);
        let powers: Vec<f64> = trace
            .iter()
            .map(|e| setup.model.quantize_up(e.speed).power)
            .collect();
        let profile = power_profile(trace, &powers, 72, horizon)
            .map_err(|e| format!("trace analysis: {e}"))?;
        let row: String = profile
            .iter()
            .map(|p| {
                let decile = (p / setup.plan.num_procs as f64 * 10.0)
                    .round()
                    .clamp(0.0, 9.0) as u8;
                (b'0' + decile) as char
            })
            .collect();
        let _ = writeln!(out, "pw {row}");
    }
    Ok(out)
}

/// `compare`: the paired Monte-Carlo kernel over the six schemes plus the
/// fault-free clairvoyant bound. Realization `i` is seeded with
/// `realization_seed(--seed, i)` and drawn once for *every* lane, so the
/// paired design of the paper's figures carries over to the full
/// distributions (quantiles and tails) reported next to the means.
fn compare(args: &Args) -> Result<String, String> {
    use mp_sim::{batch::SLICE, realization_seed, run_paired, BatchConfig, BatchOutput, Lane};
    let setup = prechecked_setup(args, None, None)?;
    let empty = setup
        .batch_distribution()
        .ok_or("degenerate histogram bounds")?;
    let mut cfg = BatchConfig::new(0, args.seed);
    // Sampled observability: wire an event counter to every 64th
    // realization. Emission is additive, so the numbers are identical to
    // unobserved runs — this only prices the event stream.
    cfg.observe_stride = 64;
    // Four work units per slice, so that each slice still spreads over
    // the cores.
    cfg.chunk = SLICE / 4;
    let lanes = || {
        let mut lanes: Vec<Lane> = Scheme::ALL
            .iter()
            .map(|&scheme| Lane {
                policy: setup.policy(scheme),
                faulted: true,
            })
            .collect();
        lanes.push(Lane {
            policy: Box::new(setup.oracle()),
            faulted: false,
        });
        lanes
    };
    let names: Vec<&str> = Scheme::ALL
        .iter()
        .map(|s| s.name())
        .chain(["Oracle"])
        .collect();
    // Per lane: the distributions, speed changes, and (events, runs) over
    // the observability sample, folded slice by slice.
    let mut dists = vec![empty; names.len()];
    let mut changes = vec![0u64; names.len()];
    let mut sampled = vec![(0u64, 0u64); names.len()];
    let sim = setup.simulator(false);
    let etm = ExecTimeModel::paper_defaults();
    let mut done = 0;
    while done < args.reps {
        cfg.realizations = (args.reps - done).min(SLICE);
        cfg.start_index = done as u64;
        let outs: Vec<BatchOutput> = run_paired(
            &sim,
            &etm,
            None,
            lanes,
            |i| realization_seed(args.seed, i),
            &cfg,
        )
        .map_err(|e| format!("simulation: {e}"))?;
        for (lane, bout) in outs.iter().enumerate() {
            dists[lane].push_output(bout);
            changes[lane] += bout.speed_changes.iter().sum::<u64>();
            sampled[lane].0 += bout.events_sampled;
            sampled[lane].1 += bout.runs_sampled;
        }
        done += cfg.realizations;
    }
    // Scheme::ALL[0] is NPM: the figures' normalization base.
    let npm = dists[0].energy().summary().mean();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} paired realizations on {} ({} processors, load {:.2}), base seed {}",
        args.reps,
        setup.model.name(),
        setup.plan.num_procs,
        setup.plan.load(),
        args.seed
    );
    let _ = writeln!(
        out,
        "{:<8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>11} {:>10} {:>8}",
        "scheme", "mean", "±95% CI", "p50", "p95", "p99", "max", "changes/run", "miss rate", "±95%"
    );
    for ((name, dist), &changes) in names.iter().zip(&dists).zip(&changes) {
        let energy = dist.energy();
        let q = |p: f64| energy.quantile(p).unwrap_or(f64::NAN) / npm;
        let changes = changes as f64 / args.reps as f64;
        let _ = writeln!(
            out,
            "{:<8} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>11.2} {:>10.4} {:>8.4}",
            name,
            energy.summary().mean() / npm,
            energy.summary().ci95() / npm,
            q(0.5),
            q(0.95),
            q(0.99),
            energy.max() / npm,
            changes,
            dist.miss_rate(),
            dist.miss_ci95()
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "makespan distribution (ms, deadline {:.1}):",
        setup.plan.deadline
    );
    let _ = writeln!(
        out,
        "{:<8} {:>8} {:>8} {:>8} {:>8}",
        "scheme", "p50", "p95", "p99", "max"
    );
    for (name, dist) in names.iter().zip(&dists) {
        let q = |p: f64| dist.makespan().quantile(p).unwrap_or(f64::NAN);
        let _ = writeln!(
            out,
            "{:<8} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            name,
            q(0.5),
            q(0.95),
            q(0.99),
            dist.makespan().max()
        );
    }
    // `--scheme` picks the lane whose sections are broken down; the
    // oracle's is the last.
    let focus = match args.scheme {
        SchemeArg::Scheme(s) => Scheme::ALL.iter().position(|&x| x == s).unwrap_or(0),
        SchemeArg::Oracle => Scheme::ALL.len(),
    };
    let sections = dists[focus].sections();
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "per-section energy quantiles ({}, {} sections):",
        names[focus],
        sections.len()
    );
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>8} {:>8}",
        "section", "p50", "p95", "p99"
    );
    for (k, sec) in sections.iter().enumerate() {
        let q = |p: f64| sec.quantile(p).unwrap_or(f64::NAN);
        let _ = writeln!(
            out,
            "S{:<9} {:>8.3} {:>8.3} {:>8.3}",
            k,
            q(0.5),
            q(0.95),
            q(0.99)
        );
    }
    // The schemes' mean; the oracle is a bound, not a scheme.
    let mut events_per_run = Summary::new();
    for &(events, runs) in &sampled[..Scheme::ALL.len()] {
        if runs > 0 {
            events_per_run.add(events as f64 / runs as f64);
        }
    }
    let _ = writeln!(
        out,
        "events/run {:.1} (observer sampled every {}th realization)",
        events_per_run.mean(),
        cfg.observe_stride
    );
    Ok(out)
}

fn optimal(args: &Args) -> Result<String, String> {
    use pas_core::optimal_assignment;
    let setup = prechecked_setup(args, None, None)?;
    let n_tasks = setup.graph.num_tasks();
    let opt = optimal_assignment(
        &setup.graph,
        &setup.sections,
        &setup.plan.dispatch,
        &setup.model,
        &setup.sim_config(false),
        20_000_000,
    )
    .map_err(|e| format!("simulation: {e}"))?
    .ok_or_else(|| {
        format!(
            "search space too large ({n_tasks} tasks × {} levels — exhaustive search is for tiny instances) or model has no discrete levels",
            setup.model.num_levels().map_or(0, |n| n)
        )
    })?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "exhaustive optimum over per-task level assignments ({} assignments evaluated):",
        opt.evaluated
    );
    let mut named: Vec<(String, f64)> = opt
        .points
        .iter()
        .map(|(id, p)| (setup.graph.node(*id).name.clone(), p.speed))
        .collect();
    named.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, speed) in named {
        let _ = writeln!(out, "  {:<22} speed {:.2}", name, speed);
    }
    let _ = writeln!(
        out,
        "worst-case energy {:.3} (deadline {:.1} ms)",
        opt.worst_case_energy, setup.plan.deadline
    );
    // Compare the on-line schemes' worst-case energy on the same instance.
    let _ = writeln!(out, "\nworst-case energy over the optimum:");
    let sim = setup.simulator(false);
    for scheme in Scheme::ALL {
        let mut worst = 0.0_f64;
        for (s, _) in setup.sections.enumerate_scenarios(&setup.graph) {
            let real = mp_sim::Realization::worst_case(&setup.graph, s);
            let energy = sim
                .run(setup.policy(scheme).as_mut(), &real)
                .map_err(|e| format!("simulation: {e}"))?
                .total_energy();
            worst = worst.max(energy);
        }
        let _ = writeln!(
            out,
            "  {:<7} {:.3}x",
            scheme.name(),
            worst / opt.worst_case_energy
        );
    }
    Ok(out)
}

/// What the summary needs to know about a run, regardless of whether it
/// was a single realization or a streamed frame sequence.
struct RunDigest {
    /// Status line(s) printed under the title.
    header: String,
    /// Engine meter total over the whole run/stream.
    total_energy: f64,
    /// Engine meter speed-change count.
    meter_speed_changes: u64,
}

/// Simulates one realization — or, with `--frames N`, a stream of `N`
/// back-to-back frames — under an [`mp_sim::Observer`] and exports the
/// event stream. `--format chrome` and `jsonl` write through streaming
/// sinks: with `--out` the file fills incrementally as the engine emits
/// events, so event memory stays O(1) however long the stream. `csv`
/// emits the derived metrics registry and `summary` (the default) a
/// human-readable digest with the per-category energy ledger and its
/// per-section slices. `--proc` and `--kinds` narrow the chrome/jsonl
/// exports; summary and csv always aggregate the full stream so their
/// totals stay meaningful.
fn trace_cmd(args: &Args) -> Result<String, String> {
    use mp_sim::MetricsRegistry;
    use pas_obs::{
        ChromeSink, EventKind, Fanout, Filtered, JsonlSink, NullObserver, Observer, RingLog,
        SectionedLedger,
    };
    if !matches!(args.format.as_str(), "chrome" | "jsonl" | "csv" | "summary") {
        return Err(format!(
            "unknown trace format '{}' (expected chrome, jsonl, csv or summary)",
            args.format
        ));
    }
    let kind_filter: Option<Vec<EventKind>> = match &args.kinds {
        Some(spec) => Some(
            spec.split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(|s| {
                    EventKind::parse(s).ok_or_else(|| {
                        let known: Vec<&str> = EventKind::ALL.iter().map(|k| k.name()).collect();
                        format!(
                            "unknown event kind '{s}' (expected one of: {})",
                            known.join(", ")
                        )
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
        ),
        None => None,
    };
    let setup = prechecked_setup(args, None, None)?;
    let mut rng = StdRng::seed_from_u64(args.seed);
    let etm = ExecTimeModel::paper_defaults();
    if args.frames.is_some() && args.fault_plan.is_some() {
        return Err("--fault-plan does not combine with --frames (fault draws are per run)".into());
    }
    let fault_plan = match &args.fault_plan {
        Some(path) => Some(load_fault_plan(path)?),
        None => None,
    };
    // Realizations: one per frame when streaming, one otherwise.
    let frames: Option<Vec<mp_sim::Realization>> = args
        .frames
        .map(|n| (0..n).map(|_| setup.sample(&etm, &mut rng)).collect());
    let single: Option<mp_sim::Realization> =
        frames.is_none().then(|| setup.sample(&etm, &mut rng));
    let fault_set = fault_plan
        .as_ref()
        .map(|p| p.realize(&setup.graph, args.seed));
    let mut policy = scheme_policy(&setup, args.scheme);
    let scheme_name = policy.name().to_string();
    // One run shape behind one entry point: everything downstream only
    // sees an observer fed incrementally.
    let mut run_into = |observer: &mut dyn Observer| -> Result<RunDigest, String> {
        if let Some(fs) = &frames {
            let sim = setup.simulator(false);
            let res = mp_sim::run_stream(&sim, policy.as_mut(), fs, args.carry, Some(observer))
                .map_err(|e| format!("simulation: {e}"))?;
            let last = res.frame_finish.last().copied().unwrap_or(0.0);
            Ok(RunDigest {
                header: format!(
                    "{} frames streamed{}, {} deadline misses, last frame finished at \
                     {:.2} ms of {:.2} ms\n",
                    fs.len(),
                    if args.carry {
                        " (DVS state carried over)"
                    } else {
                        ""
                    },
                    res.misses,
                    last,
                    setup.plan.deadline
                ),
                total_energy: res.total_energy(),
                meter_speed_changes: res.speed_changes(),
            })
        } else {
            let real = single.as_ref().expect("single-run realization");
            let res = setup
                .simulator(false)
                .run_observed(
                    policy.as_mut(),
                    real,
                    None,
                    fault_set.as_ref(),
                    Some(observer),
                )
                .map_err(|e| format!("simulation: {e}"))?;
            let status = if res.status.met() {
                "met".to_string()
            } else {
                format!("MISSED by {:.2} ms", res.status.missed_by())
            };
            Ok(RunDigest {
                header: format!(
                    "finished at {:.2} ms of {:.2} ms — deadline {}\n",
                    res.finish_time, res.deadline, status
                ),
                total_energy: res.total_energy(),
                meter_speed_changes: res.energy.speed_changes(),
            })
        }
    };
    let (body, event_count): (String, u64) = match args.format.as_str() {
        // Streaming formats: each event hits the writer the moment the
        // engine emits it, a buffered file with `--out`, memory without.
        "jsonl" | "chrome" => {
            let mut buf = Vec::new();
            let mut file = None;
            let w: &mut dyn std::io::Write = match &args.out {
                Some(path) => file.insert(std::io::BufWriter::new(
                    std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?,
                )),
                None => &mut buf,
            };
            let (passed, finished) = if args.format == "jsonl" {
                let mut sink = Filtered::new(JsonlSink::new(w), kind_filter, args.proc_filter);
                run_into(&mut sink)?;
                (sink.passed(), sink.into_inner().finish())
            } else {
                let name_of = |n: andor_graph::NodeId| setup.graph.node(n).name.clone();
                let sink = ChromeSink::new(w, name_of);
                let mut sink = Filtered::new(sink, kind_filter, args.proc_filter);
                run_into(&mut sink)?;
                (sink.passed(), sink.into_inner().finish())
            };
            let written = finished.and_then(|w| w.flush());
            if let Some(path) = &args.out {
                written.map_err(|e| format!("writing {path}: {e}"))?;
                return Ok(format!("wrote {path} ({passed} events, streamed)\n"));
            }
            written.expect("in-memory sink");
            (String::from_utf8(buf).expect("traces are utf-8"), passed)
        }
        "csv" => {
            let mut reg = MetricsRegistry::new();
            run_into(&mut reg)?;
            let total: u64 = EventKind::ALL
                .iter()
                .map(|k| reg.counter(&format!("events.{}", k.name())))
                .sum();
            (reg.to_csv(), total)
        }
        "summary" => {
            let mut reg = MetricsRegistry::new();
            let mut ledger = SectionedLedger::new();
            let mut ring = RingLog::new(4096);
            let mut filt = Filtered::new(NullObserver, kind_filter, args.proc_filter);
            let digest = {
                let mut fan = Fanout::new()
                    .with(&mut reg)
                    .with(&mut ledger)
                    .with(&mut ring)
                    .with(&mut filt);
                run_into(&mut fan)?
            };
            let mut out = String::new();
            let _ = writeln!(
                out,
                "{} on {} ({} processors, seed {})",
                scheme_name,
                setup.model.name(),
                setup.plan.num_procs,
                args.seed
            );
            out.push_str(&digest.header);
            let _ = writeln!(
                out,
                "events: {} recorded, {} after filters",
                ring.seen(),
                filt.passed()
            );
            for kind in EventKind::ALL {
                let count = reg.counter(&format!("events.{}", kind.name()));
                if count > 0 {
                    let _ = writeln!(out, "  {:<16} {count}", kind.name());
                }
            }
            let _ = writeln!(
                out,
                "live window: peak_ring_occupancy = {} of {} events buffered (bounded ring)",
                ring.peak_occupancy(),
                ring.capacity()
            );
            let _ = writeln!(
                out,
                "speed changes: {} event-derived vs {} engine meter",
                reg.speed_changes(),
                digest.meter_speed_changes
            );
            let _ = writeln!(out, "slack reclaimed: {:.2} ms", reg.slack_reclaimed_ms());
            let _ = writeln!(out, "{ledger}");
            match ledger.verify(digest.total_energy) {
                Ok(()) => {
                    let _ = writeln!(
                        out,
                        "ledger total {:.6} matches engine total_energy {:.6}",
                        ledger.total().total(),
                        digest.total_energy
                    );
                }
                Err(mismatch) => {
                    let _ = writeln!(out, "LEDGER MISMATCH: {mismatch}");
                }
            }
            let passed = filt.passed();
            (out, passed)
        }
        _ => unreachable!("format validated above"),
    };
    match &args.out {
        Some(path) => {
            std::fs::write(path, &body).map_err(|e| format!("writing {path}: {e}"))?;
            Ok(format!("wrote {path} ({event_count} events)\n"))
        }
        None => Ok(body),
    }
}

fn dot(args: &Args) -> Result<String, String> {
    let graph = prechecked(args, read_app(args)?, None)?;
    Ok(to_dot(&graph, &args.app))
}

fn export(args: &Args) -> Result<String, String> {
    let graph = prechecked(args, read_app(args)?, None)?;
    let path = args.out.as_deref().ok_or("export needs --out FILE")?;
    let json = serde_json::to_string_pretty(&graph).map_err(|e| format!("serializing: {e}"))?;
    std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
    Ok(format!(
        "wrote {} ({} nodes, {} tasks)\n",
        path,
        graph.len(),
        graph.num_tasks()
    ))
}
