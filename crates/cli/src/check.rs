//! The `pas check` command: static analysis over workloads, platforms,
//! fault plans and serialized plan artifacts.
//!
//! Sources are positional and classified automatically: builtin workload
//! names (`synthetic`, `atr`, `video`) and platform specs (`transmeta`,
//! `xscale`, `continuous:<smin>`) are recognized directly; JSON files are
//! sniffed by their top-level keys (`schema_version` → plan artifact,
//! `nodes` → workload, `overrun_prob` → fault plan, `kind` → platform).
//! With no sources, the `--app`/`--model` pair is checked — so
//! `pas check` alone vets the default configuration.
//!
//! Plan artifacts (written by `pas plan --out`) are verified against
//! reference inputs: `--against <workload> <platform>` names them
//! explicitly; without it the artifact's recorded workload/platform
//! labels are re-resolved (falling back to `--model` for the platform).
//! The verifier re-derives the whole off-line phase independently and
//! reports any disagreement as a `PAS04xx` diagnostic.
//!
//! `--fix` applies the mechanical graph repairs (duplicate edges,
//! OR-probability renormalization) to every workload *file* source and
//! writes
//! the repaired graph to `<stem>.fixed.json` next to the input.
//!
//! `--bounds` runs the symbolic energy/timing bounds analyzer
//! ([`pas_analyze::analyze_bounds`]) over every workload/platform pair
//! that passed the structural checks: per scheme, a guaranteed
//! `[best, worst]` interval for frame energy and makespan, witness
//! OR-paths for each extreme, and an optimality-gap lower bound,
//! reported as `PAS06xx` diagnostics. When a fault plan is among the
//! sources, its overrun/stall envelope widens the intervals
//! accordingly.

use crate::args::Args;
use crate::source::{classify, load_model, Source};
use andor_graph::AndOrGraph;
use dvfs_power::{Overheads, ProcessorModel};
use mp_sim::FaultPlan;
use pas_analyze::{
    analyze_bounds, check_application, check_fault_plan, check_inputs, BoundsAnalysis,
    BoundsConfig, Code, DeadlineSpec, Diagnostic, FaultEnvelope, Loc, Report,
};
use pas_core::PlanArtifact;

/// Runs `pas check <sources>`. Returns `Ok(report)` when the inputs are
/// accepted and `Err(report)` when they are rejected (nonzero exit), so
/// the diagnostics always reach the user either way.
pub fn check_cmd(args: &Args) -> Result<String, String> {
    let mut report = Report::new();
    let mut workloads: Vec<(String, AndOrGraph)> = Vec::new();
    let mut platforms: Vec<(String, ProcessorModel)> = Vec::new();
    let mut fault_plans: Vec<(String, FaultPlan)> = Vec::new();
    let mut plans: Vec<(String, Box<PlanArtifact>)> = Vec::new();
    // Workload sources that came from files (not builtins) — the only
    // ones `--fix` can write a repaired sibling for.
    let mut fix_candidates: Vec<(String, AndOrGraph)> = Vec::new();

    let specs: Vec<String> = if args.sources.is_empty() {
        vec![args.app.clone()]
    } else {
        args.sources.clone()
    };
    for spec in &specs {
        match classify(spec, args)? {
            Source::Workload(label, g) => {
                if !workloads::BUILTIN_NAMES.contains(&spec.as_str()) {
                    fix_candidates.push((label.clone(), g.clone()));
                }
                workloads.push((label, g));
            }
            Source::Platform(label, m) => platforms.push((label, m)),
            Source::Fault(label, p) => fault_plans.push((label, p)),
            Source::Plan(label, artifact) => plans.push((label, artifact)),
        }
    }
    // `--against` names the reference inputs plan artifacts are verified
    // against; only workloads and platforms make sense there.
    let mut ref_workloads: Vec<(String, AndOrGraph)> = Vec::new();
    let mut ref_platforms: Vec<(String, ProcessorModel)> = Vec::new();
    for spec in &args.against {
        match classify(spec, args)? {
            Source::Workload(label, g) => ref_workloads.push((label, g)),
            Source::Platform(label, m) => ref_platforms.push((label, m)),
            Source::Fault(..) | Source::Plan(..) => {
                return Err(format!(
                    "--against {spec}: expected a workload or platform reference"
                ))
            }
        }
    }
    if !args.against.is_empty() && plans.is_empty() {
        return Err("--against only applies when a plan artifact is among the sources".into());
    }
    // Without an explicit platform source, workloads are checked against
    // the `--model` platform (the same one `run` would use).
    if platforms.is_empty() && !workloads.is_empty() {
        match load_model(&args.model) {
            Ok(m) => platforms.push((args.model.clone(), m)),
            Err(e) => report.push(Diagnostic::new(Code::Pas0101, Loc::whole(&args.model), e)),
        }
    }

    let spec = DeadlineSpec::from_flags(args.deadline, args.load);

    let mut summaries = Vec::new();
    let mut bounds_analyses: Vec<BoundsAnalysis> = Vec::new();
    for (g_label, g) in &workloads {
        for (m_label, model) in &platforms {
            let analysis = check_application(
                g,
                g_label,
                model,
                m_label,
                Overheads::paper_defaults(),
                args.procs,
                spec,
            );
            if let Some(f) = &analysis.feasibility {
                summaries.push(format!(
                    "feasibility: {g_label} on {m_label}: worst case {:.3} ms, deadline {:.3} ms, \
                     static slack {:.3} ms over {} OR-path(s){}",
                    f.worst_case_ms,
                    f.deadline_ms,
                    f.static_slack_ms,
                    f.scenarios_total,
                    if f.exact { "" } else { " (bound)" },
                ));
            }
            let pair_sound = !analysis.report.has_errors();
            report.merge(analysis.report);
            // Bounds need a buildable offline plan, so only pairs that
            // passed the structural checks are analyzed.
            if args.bounds && pair_sound {
                match spec.setup(g.clone(), model.clone(), args.procs) {
                    Ok(setup) => {
                        let cfg = BoundsConfig {
                            fault: fault_plans
                                .first()
                                .and_then(|(_, p)| FaultEnvelope::from_plan(p)),
                            ..BoundsConfig::default()
                        };
                        let ba = analyze_bounds(&setup, &cfg, g_label);
                        summaries.push(format!(
                            "bounds: {g_label} on {m_label}: {} OR-path(s){}, \
                             optimum >= {:.3}",
                            ba.paths,
                            if ba.exact { "" } else { " (DAG join)" },
                            ba.opt_lower_bound,
                        ));
                        for s in &ba.schemes {
                            summaries.push(format!(
                                "bounds: {g_label} on {m_label}: {} energy \
                                 [{:.3}, {:.3}], makespan [{:.3}, {:.3}] ms, gap {:.3}{}",
                                s.scheme,
                                s.energy.lo,
                                s.energy.hi,
                                s.makespan.lo,
                                s.makespan.hi,
                                s.optimality_gap,
                                if s.deadline_safe {
                                    ""
                                } else {
                                    " (deadline at risk)"
                                },
                            ));
                            if !s.witness_hi.is_empty() {
                                summaries.push(format!(
                                    "bounds:   worst path: {}",
                                    s.witness_hi.join(" -> ")
                                ));
                            }
                            if !s.witness_lo.is_empty() && s.witness_lo != s.witness_hi {
                                summaries.push(format!(
                                    "bounds:   best path: {}",
                                    s.witness_lo.join(" -> ")
                                ));
                            }
                        }
                        report.merge(ba.report.clone());
                        bounds_analyses.push(ba);
                    }
                    Err(e) => {
                        summaries.push(format!("bounds: {g_label} on {m_label}: unavailable ({e})"))
                    }
                }
            }
        }
    }
    // Platform-only invocations (no workload source) still get the
    // platform checked on its own.
    if workloads.is_empty() {
        for (m_label, model) in &platforms {
            report.merge(pas_analyze::check_model(model, m_label));
        }
    }
    for (p_label, plan) in &fault_plans {
        let target = workloads.first().map(|(_, g)| g);
        report.merge(check_fault_plan(plan, target, p_label));
    }

    // Plan artifacts: resolve the reference inputs, vet them, then run
    // the independent re-derivation verifier.
    for (p_label, artifact) in &plans {
        // A recorded label that names a source already read resolves to
        // it; any other is classified afresh.
        let known_workload = ref_workloads
            .first()
            .or_else(|| workloads.iter().find(|(l, _)| *l == artifact.workload));
        let (g_label, g) = match known_workload {
            Some((l, g)) => (l.clone(), g.clone()),
            None => match classify(&artifact.workload, args)? {
                Source::Workload(l, g) => (l, g),
                _ => {
                    return Err(format!(
                        "{p_label}: recorded workload '{}' did not resolve to a workload \
                         (name one with --against)",
                        artifact.workload
                    ))
                }
            },
        };
        let known_platform = ref_platforms
            .first()
            .or_else(|| platforms.iter().find(|(l, _)| *l == artifact.platform));
        let (m_label, model) = match known_platform {
            Some((l, m)) => (l.clone(), m.clone()),
            None => match classify(&artifact.platform, args) {
                Ok(Source::Platform(l, m)) => (l, m),
                // The recorded platform label may be a path that no longer
                // exists; fall back to the session's `--model`.
                _ => (args.model.clone(), load_model(&args.model)?),
            },
        };
        let pre = check_inputs(&g, &g_label, &model, &m_label);
        let pre_clean = !pre.has_errors();
        report.merge(pre);
        // Only verify against structurally sound references — otherwise
        // the re-derivation would blame the plan for the workload's sins.
        if pre_clean {
            report.merge(pas_analyze::check_plan(
                artifact, p_label, &g, &g_label, &model,
            ));
            summaries.push(format!(
                "plan {p_label}: scheme {} verified against {g_label} on {m_label} \
                 (schema v{})",
                artifact.scheme.name(),
                artifact.schema_version
            ));
        }
    }

    // `--fix`: write mechanically repaired copies of workload file
    // sources. Runs even when the report rejects — repairing rejected
    // inputs is the point.
    let mut fix_lines: Vec<String> = Vec::new();
    if args.fix {
        if fix_candidates.is_empty() {
            return Err("--fix needs at least one workload JSON file among the sources".into());
        }
        for (path, g) in &fix_candidates {
            let (fixed, applied) = pas_analyze::fix_graph(g)?;
            if applied.is_empty() {
                fix_lines.push(format!("fix: {path}: no fixable diagnostics"));
                continue;
            }
            let out_path = fixed_path(path);
            let json = serde_json::to_string_pretty(&fixed)
                .map_err(|e| format!("serializing {out_path}: {e}"))?;
            std::fs::write(&out_path, json).map_err(|e| format!("writing {out_path}: {e}"))?;
            for line in &applied {
                fix_lines.push(format!("fix: {path}: {line}"));
            }
            fix_lines.push(format!("fix: wrote {out_path}"));
        }
    }

    let rejected = report.rejects(args.deny_warnings);
    let rendered = match args.format.as_str() {
        // With `--bounds` the JSON document gains a top-level "bounds"
        // array (one `BoundsAnalysis` per analyzed workload/platform
        // pair) next to the usual diagnostics under "report".
        "json" if args.bounds => {
            let bounds_json = serde_json::to_string_pretty(&bounds_analyses)
                .map_err(|e| format!("serializing bounds: {e}"))?;
            format!(
                "{{\n\"report\": {},\n\"bounds\": {}\n}}\n",
                report.render_json().trim_end(),
                bounds_json
            )
        }
        "json" => report.render_json(),
        "human" | "summary" => {
            let mut out = report.render_human();
            for l in &fix_lines {
                out.push_str(l);
                out.push('\n');
            }
            if !rejected {
                for s in &summaries {
                    out.push_str(s);
                    out.push('\n');
                }
            }
            out
        }
        other => return Err(format!("unknown check format '{other}' (human|json)")),
    };
    if rejected {
        Err(rendered.trim_end().to_string())
    } else {
        Ok(rendered)
    }
}

/// `w.json` → `w.fixed.json`; non-`.json` paths get `.fixed.json`
/// appended.
fn fixed_path(path: &str) -> String {
    match path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.fixed.json"),
        None => format!("{path}.fixed.json"),
    }
}
