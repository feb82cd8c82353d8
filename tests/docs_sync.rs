//! The user-facing references must track their catalogs: every
//! `PAS0xxx` code appears exactly once in `docs/diagnostics.md` (its
//! table row) with its severity label on the same line, and every
//! profiler span name and pre-seeded service counter appears exactly
//! once in `docs/observability.md` — so adding a code or an instrument
//! without documenting it, or documenting it twice, fails the build.

use pas_andor::analyze::Code;
use std::path::PathBuf;

fn doc(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("docs")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing {} ({e})", path.display()))
}

#[test]
fn every_diagnostic_code_is_documented_exactly_once() {
    let text = doc("diagnostics.md");
    for code in Code::ALL {
        let needle = code.as_str();
        let count = text.matches(needle).count();
        assert_eq!(
            count, 1,
            "{needle} must appear exactly once in docs/diagnostics.md \
             (found {count} occurrences)"
        );
    }
}

#[test]
fn documented_rows_carry_the_catalog_severity() {
    let text = doc("diagnostics.md");
    for code in Code::ALL {
        let line = text
            .lines()
            .find(|l| l.contains(code.as_str()))
            .unwrap_or_else(|| panic!("{} missing from docs/diagnostics.md", code.as_str()));
        let label = code.severity().label();
        assert!(
            line.contains(&format!("| {label} |")),
            "row for {} must carry severity '{label}': {line}",
            code.as_str()
        );
    }
}

#[test]
fn algorithms_doc_covers_symbolic_bounds() {
    let text = doc("algorithms.md");
    assert!(
        text.contains("## Symbolic energy bounds"),
        "docs/algorithms.md must carry the symbolic bounds section"
    );
    // The section must state the three load-bearing pieces of the
    // semantics: the OR join rule, the exact-enumeration threshold with
    // its DAG fallback, and the deadline-cap premise.
    for term in [
        "OR join rule",
        "4096",
        "DAG join",
        "PAS0602",
        "PAS0603",
        "PAS0605",
        "witness",
        "Deadline premise",
    ] {
        assert!(
            text.contains(term),
            "docs/algorithms.md symbolic-bounds section must mention {term}"
        );
    }
    // The threshold named in prose is the one the analyzer uses.
    assert_eq!(pas_andor::analyze::ENUMERATION_THRESHOLD, 4096);
    // And diagnostics.md links into the section.
    assert!(
        doc("diagnostics.md").contains("algorithms.md#symbolic-energy-bounds"),
        "docs/diagnostics.md must link to the symbolic bounds section"
    );
}

#[test]
fn schemas_doc_covers_every_on_disk_contract() {
    let text = doc("schemas.md");
    for section in [
        "Workload",
        "Platform model",
        "Fault plan",
        "Plan artifact",
        "Bench baselines",
        "Metrics CSV",
        "Event stream",
        "Crash report",
    ] {
        assert!(
            text.contains(section),
            "docs/schemas.md must document the {section} format"
        );
    }
    // The plan artifact section must track the current schema version.
    assert!(
        text.contains(&format!("`{}`", pas_andor::core::PLAN_SCHEMA_VERSION)),
        "docs/schemas.md must state the current plan schema version"
    );
    // So must the crash-report section, along with its full key set.
    assert!(
        text.contains(&format!(
            "`pas_serve::CRASH_SCHEMA_VERSION`, currently `{}`",
            pas_serve::CRASH_SCHEMA_VERSION
        )),
        "docs/schemas.md must state the current crash-report schema version"
    );
    for key in [
        "crash_schema",
        "\"trigger\"",
        "\"corr_id\"",
        "\"request\"",
        "\"t_wall_ms\"",
        "\"events\"",
        "\"log_tail\"",
        "\"counters\"",
        "\"gauges\"",
    ] {
        assert!(
            text.contains(key),
            "docs/schemas.md must document the crash-report key {key}"
        );
    }
}

#[test]
fn every_span_name_is_documented_exactly_once() {
    let text = doc("observability.md");
    for name in pas_andor::obs::profile::names::ALL {
        let count = text.matches(name).count();
        assert_eq!(
            count, 1,
            "span `{name}` must appear exactly once in docs/observability.md \
             (found {count} occurrences)"
        );
    }
}

#[test]
fn every_pre_seeded_serve_counter_is_documented_exactly_once() {
    let text = doc("observability.md");
    for name in pas_serve::telemetry::PRE_SEEDED_COUNTERS {
        let count = text.matches(name).count();
        assert_eq!(
            count, 1,
            "counter `{name}` must appear exactly once in docs/observability.md \
             (found {count} occurrences)"
        );
    }
}

#[test]
fn observability_doc_states_the_telemetry_and_exposition_contract() {
    let text = doc("observability.md");
    // The latency surface: every stable kind and stage must be named,
    // as must the cache split and the summary quantiles.
    for kind in pas_serve::telemetry::LATENCY_KINDS {
        assert!(
            text.contains(&format!("`{kind}`")),
            "docs/observability.md must name latency kind {kind}"
        );
    }
    for stage in pas_serve::telemetry::LATENCY_STAGES {
        assert!(
            text.contains(&format!("**{stage}**")),
            "docs/observability.md must define latency stage {stage}"
        );
    }
    for term in [
        "serve.latency.<kind>.<stage>",
        ".hit",
        ".miss",
        "p50_ms",
        "p95_ms",
        "p99_ms",
        "text/plain; version=0.0.4",
        "# TYPE",
        "# HELP",
        "serve_latency_sum",
        "serve_latency_count",
        "quantile",
        "NaN",
        "--profile",
        "--profile-out",
        "chrome://tracing",
        "auto-<seq>",
    ] {
        assert!(
            text.contains(term),
            "docs/observability.md must document {term}"
        );
    }
    // Cross-links both ways: the service doc points at the catalog and
    // the catalog points back at the wire protocol.
    assert!(
        text.contains("service.md"),
        "docs/observability.md must link back to docs/service.md"
    );
    assert!(
        doc("service.md").contains("observability.md"),
        "docs/service.md must link to docs/observability.md"
    );
}

#[test]
fn observability_doc_covers_the_log_and_timeline_surface() {
    let text = doc("observability.md");
    // Every structured-log record field is documented exactly once (its
    // table row), mirroring the span-name and counter gates.
    for field in [
        "`seq`",
        "`t_wall_ms`",
        "`t_mono_ms`",
        "`level`",
        "`target`",
        "`msg`",
        "`corr_id`",
        "`fields`",
    ] {
        let count = text.matches(field).count();
        assert_eq!(
            count, 1,
            "log field {field} must appear exactly once in docs/observability.md \
             (found {count} occurrences)"
        );
    }
    for term in [
        "--log FILE|stderr",
        "--log-level",
        "--trace-out",
        "--crash-dir",
        "\"trace\": true",
        "{name, start_ms, dur_ms}",
        "serve_build_info",
    ] {
        assert!(
            text.contains(term),
            "docs/observability.md must document {term}"
        );
    }
}

#[test]
fn service_doc_covers_the_wire_contract() {
    let text = doc("service.md");
    // Every response status and request kind the daemon speaks must be
    // documented, as must the degradation vocabulary.
    for term in [
        "`ok`",
        "`error`",
        "`shed`",
        "`timeout`",
        "`panic`",
        "retry_after_ms",
        "stale: true",
        "Failure-mode table",
        "newline-delimited JSON",
        "`metrics` body",
        "auto-<seq>",
        "\"trace\": true",
        "`timeline`",
        "--log FILE|stderr",
        "--log-level",
        "--trace-out",
        "--crash-dir",
        "`crashes`",
        "`last_path`",
    ] {
        assert!(text.contains(term), "docs/service.md must document {term}");
    }
    // The service diagnostics live in the PAS05xx range; the doc must
    // reference each one (the full rows live in diagnostics.md).
    for code in Code::ALL {
        let name = code.as_str();
        if name.starts_with("PAS05") {
            assert!(text.contains(name), "docs/service.md must mention {name}");
        }
    }
}

#[test]
fn simulator_doc_keeps_its_contract_sections() {
    let text = doc("simulator.md");
    // Every section of the engine/batch/determinism writeup must exist
    // exactly once — duplicating a heading (or renaming one away) fails.
    for heading in [
        "# The simulation engine",
        "## Engine architecture",
        "### The dispatch loop",
        "### Policy hooks",
        "### Fault containment",
        "## Batched Monte-Carlo engine",
        "### Structure-of-arrays layout",
        "## Determinism contract",
        "### Seeding contract",
        "### Section-energy attribution",
        "## Observability sampling",
        "## Distribution summaries",
    ] {
        let count = text.lines().filter(|l| l.trim_end() == heading).count();
        assert_eq!(
            count, 1,
            "heading `{heading}` must appear exactly once in docs/simulator.md \
             (found {count} occurrences)"
        );
    }
    // The contract's load-bearing vocabulary: the seeding function, the
    // reuse-safety hook, the slicing parameter and the sampling knob.
    for term in [
        "bit-identical",
        "realization_seed",
        "begin_run",
        "start_index",
        "observe_stride",
        "keep_results",
        "tests/batch_parity.rs",
    ] {
        assert!(text.contains(term), "docs/simulator.md must mention {term}");
    }
    // Cross-link graph: the simulator doc points at the observability
    // catalog, the paper mapping and the wire protocol; each of those
    // (plus DESIGN.md) points back.
    for target in ["observability.md", "paper-mapping.md", "service.md"] {
        assert!(
            text.contains(target),
            "docs/simulator.md must link to docs/{target}"
        );
    }
    assert!(
        doc("observability.md").contains("simulator.md"),
        "docs/observability.md must link to docs/simulator.md"
    );
    assert!(
        doc("service.md").contains("simulator.md"),
        "docs/service.md must link to docs/simulator.md"
    );
    let design =
        std::fs::read_to_string(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("DESIGN.md"))
            .expect("DESIGN.md");
    assert!(
        design.contains("docs/simulator.md"),
        "DESIGN.md must link to docs/simulator.md"
    );
}

#[test]
fn paper_mapping_covers_the_distribution_metrics() {
    let text = doc("paper-mapping.md");
    let heading = "## Distribution metrics beyond the paper's means";
    let count = text.lines().filter(|l| l.trim_end() == heading).count();
    assert_eq!(
        count, 1,
        "`{heading}` must appear exactly once in docs/paper-mapping.md"
    );
    // The section must place each distribution metric relative to the
    // paper's mean-only figures and point at the protocol and engine.
    for term in [
        "p50/p95/p99/max",
        "miss rate ± 95% CI",
        "per-section energy quantiles",
        "simulator.md",
        "E7",
    ] {
        assert!(
            text.contains(term),
            "docs/paper-mapping.md distribution section must mention {term}"
        );
    }
    let experiments =
        std::fs::read_to_string(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("EXPERIMENTS.md"))
            .expect("EXPERIMENTS.md");
    assert!(
        experiments.contains("### E7"),
        "EXPERIMENTS.md must carry the E7 batch-sweep protocol"
    );
}

#[test]
fn relative_links_between_docs_resolve() {
    // Every relative markdown link in the docs (and the root documents
    // that index them) must point at a file that exists, so a rename or
    // deletion cannot silently strand readers.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut files = vec![
        root.join("README.md"),
        root.join("DESIGN.md"),
        root.join("EXPERIMENTS.md"),
    ];
    for entry in std::fs::read_dir(root.join("docs")).expect("docs/") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            files.push(path);
        }
    }
    assert!(
        files.len() > 5,
        "link checker found too few docs: {files:?}"
    );
    let mut broken = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|e| panic!("read {} ({e})", file.display()));
        let base = file.parent().expect("doc has a parent dir");
        let mut rest = text.as_str();
        while let Some(open) = rest.find("](") {
            rest = &rest[open + 2..];
            let Some(close) = rest.find(')') else { break };
            let target = &rest[..close];
            rest = &rest[close..];
            if target.is_empty()
                || target.starts_with('#')
                || target.contains("://")
                || target.contains(' ')
                || target.contains('\n')
            {
                continue; // anchor-only, external, or not a real link
            }
            let path_part = target.split('#').next().unwrap_or(target);
            if !base.join(path_part).exists() {
                broken.push(format!("{} -> {target}", file.display()));
            }
        }
    }
    assert!(broken.is_empty(), "broken relative doc links:\n{broken:?}");
}
