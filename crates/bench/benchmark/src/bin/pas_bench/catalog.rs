//! The benchmark's fixed vocabulary: workloads, metrics and their units.
//! `BENCHMARK.json` at the repository root lists the same names; a unit
//! test keeps the two in step.

/// Workload names, in the order `pas_bench run` runs them.
pub const WORKLOADS: [&str; 5] = [
    "mc-fig5",
    "mc-faults",
    "paper-figs",
    "offline-large",
    "serve-mix",
];

/// The seed used when none is given: the experiments' own base seed, so
/// `paper-figs` at this seed reproduces the `fig4`/`fig5`/`fig6` tables.
pub const DEFAULT_SEED: u64 = 0x1CC_2002;

/// Timed seconds of one run: `run_seconds` in `BENCHMARK.json`, and what
/// `run` uses when `--seconds` is not given.
pub const RUN_SECONDS: u64 = 15;

/// One end-to-end metric and its regression bound.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// The share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

/// End-to-end metrics. Every workload reports every one of them; what one
/// "op" is depends on the workload (see README.md). A set-up time may grow
/// by 10% or 0.05 s, whichever is larger; a bound is a share, and 0.05 s
/// is more than a quarter of the set-up time of every workload but
/// `offline-large` (about 0.23 s), so `setup_s` carries 0.25, the largest
/// share `BENCHMARK.json` allows. `ops_per_s` and `op_p50_ms` carry 0.2:
/// on the shared host they were measured on, ten runs of the same code
/// spread by up to 15% of their median and two sets of them differed by
/// up to 13.6%, because the host's speed drifts over minutes, which no
/// run length removes (`runs/README.md`).
pub const END_TO_END: [EndToEnd; 4] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("ops_per_s", "1/s", true, 0.2),
    e2e("op_p50_ms", "ms", false, 0.2),
    e2e("peak_rss_mb", "MB", false, 0.1),
];

/// Reported next to the end-to-end metrics but not in `BENCHMARK.json`:
/// on a machine shared with other load, the op latency tail moves with
/// that load by more than any usable bound.
pub const INFORMATIONAL: [(&str, &str); 1] = [("op_p90_ms", "ms")];

/// Scheme slugs in `Scheme::ALL` order, as used in metric names.
pub const SCHEMES: [&str; 6] = ["npm", "spm", "gss", "ss1", "ss2", "as"];

/// The slug of one scheme.
pub fn slug(scheme: pas_core::Scheme) -> &'static str {
    let i = pas_core::Scheme::ALL
        .iter()
        .position(|&s| s == scheme)
        .expect("Scheme::ALL lists every scheme");
    SCHEMES[i]
}

/// Per-layer metrics of the traced run: `(name, unit)`. A workload that
/// never executes a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("sim.seed_ns", "ns"),
    ("graph.sample_scenario_ns", "ns"),
    ("sim.sample_into_ns", "ns"),
    ("sim.fault_realize_ns", "ns"),
    ("sim.run_into_ns", "ns"),
    ("sim.run_into_ns.npm", "ns"),
    ("sim.run_into_ns.spm", "ns"),
    ("sim.run_into_ns.gss", "ns"),
    ("sim.run_into_ns.ss1", "ns"),
    ("sim.run_into_ns.ss2", "ns"),
    ("sim.run_into_ns.as", "ns"),
    ("sim.run_into_events", "count"),
    ("stats.fold_ns", "ns"),
    ("core.setup_run_ns", "ns"),
    ("sim.batch_ns", "ns"),
    ("sim.batch_residual_ns", "ns"),
    ("sim.observer_cost_ratio", "ratio"),
    ("sim.parallel_scaling", "ratio"),
    ("analysis.check_graph_ms", "ms"),
    ("core.setup_for_load_ms", "ms"),
    ("graph.section_build_ms", "ms"),
    ("analysis.bounds_ms", "ms"),
    ("core.artifact_json_ms", "ms"),
    ("core.artifact_digest_ms", "ms"),
    ("graph.nodes", "count"),
    ("graph.sections", "count"),
    ("analysis.exact_frac", "ratio"),
    ("serve.plan_hit_p50_ms", "ms"),
    ("serve.plan_miss_p50_ms", "ms"),
    ("serve.run_p50_ms", "ms"),
    ("serve.montecarlo_p50_ms", "ms"),
    ("serve.server_total_p50_ms.plan", "ms_quantised"),
    ("serve.server_total_p50_ms.run", "ms_quantised"),
    ("serve.server_total_p50_ms.montecarlo", "ms_quantised"),
    ("serve.server_queue_p50_ms.plan", "ms_quantised"),
    ("serve.server_queue_p50_ms.run", "ms_quantised"),
    ("serve.server_queue_p50_ms.montecarlo", "ms_quantised"),
    ("serve.server_exec_p50_ms.plan_hit", "ms_quantised"),
    ("serve.server_exec_p50_ms.plan_miss", "ms_quantised"),
    ("serve.wire_p50_ms", "ms"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.shed", "count"),
    ("serve.timeouts", "count"),
    ("serve.connect_ms", "ms"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// The unit of a known metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(INFORMATIONAL)
        .chain(PER_LAYER)
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn names(v: &Value, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let v = benchmark_json();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(names(&v, "end_to_end"), e2e);
        for (m, want) in v
            .get("end_to_end")
            .and_then(Value::as_array)
            .expect("list")
            .iter()
            .zip(&END_TO_END)
        {
            let better = m.get("better").and_then(Value::as_str).expect("better");
            assert_eq!(better == "higher", want.higher_is_better, "{}", want.name);
            let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
            assert_eq!(bound, want.bound, "{}", want.name);
        }
        assert_eq!(
            v.get("run_seconds").and_then(Value::as_u64),
            Some(RUN_SECONDS)
        );
        let layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names(&v, "per_layer"), layers);
        let workloads: Vec<String> = v
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    /// The `[profile.release]` table of a manifest, without comments.
    fn release_profile(manifest: &str) -> Vec<String> {
        let text = std::fs::read_to_string(manifest).expect("manifest");
        text.lines()
            .map(str::trim)
            .skip_while(|l| *l != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn release_profile_matches_the_repository() {
        let dir = env!("CARGO_MANIFEST_DIR");
        let own = release_profile(&format!("{dir}/Cargo.toml"));
        assert!(!own.is_empty());
        assert_eq!(own, release_profile(&format!("{dir}/../../../Cargo.toml")));
    }

    #[test]
    fn run_into_rows_cover_every_scheme() {
        for (scheme, slug) in pas_core::Scheme::ALL.iter().zip(SCHEMES) {
            assert_eq!(pas_experiments::traces::slug(scheme.name()), slug);
            assert!(unit_of(&format!("sim.run_into_ns.{slug}")).is_some());
        }
    }
}
