//! Bench baselines: the seeded observed runs at the Figure 4–6
//! operating points must reproduce the committed numbers in
//! `results/baselines/`.
//!
//! Each of the 36 runs (fig4/fig5/fig6 × Transmeta/XScale × the six
//! schemes) simulates one seeded realization under a fan-out of a
//! [`MetricsRegistry`], a [`SectionedLedger`] and a bounded
//! [`RingLog`]. Its deterministic quantities — event count, peak ring
//! occupancy, finish time, energy, speed changes, misses, the
//! per-category ledger and the per-section slices — are compared with
//! `bench_baseline.json` at the file's own relative `tolerance`; any other
//! field in that file (`rev`, `reps`, `wall_ms`, `events_per_sec` in files
//! written by the retired timing loop) is ignored. Each run's metrics CSV
//! must equal its `*.metrics.csv` byte for byte.
//!
//! To regenerate after an *intentional* behaviour change, run:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test bench_baselines
//! ```
//!
//! and review the diff.

use pas_andor::core::{Scheme, Setup};
use pas_andor::experiments::figures::{atr_app, Platform};
use pas_andor::experiments::traces::slug;
use pas_andor::graph::AndOrGraph;
use pas_andor::obs::{EnergyLedger, Fanout, MetricsRegistry, RingLog, SectionedLedger};
use pas_andor::sim::ExecTimeModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// The seed the committed baselines were written with.
const SEED: u64 = 42;

/// Capacity of the bounded event ring: every event is counted, at most
/// this many are held.
const RING_CAPACITY: usize = 512;

/// Relative tolerance written into a regenerated `bench_baseline.json`.
/// The runs are bit-deterministic; it only absorbs float round trips.
const TOLERANCE: f64 = 1e-9;

const BASELINE_FILE: &str = "bench_baseline.json";

/// The golden operating points, all at load 0.5: Figure 4 (ATR, 2
/// processors), Figure 5 (ATR, 6 processors) and Figure 6 (the synthetic
/// application at α = 0.5, 2 processors).
const WORKLOADS: [(&str, usize); 3] = [("fig4", 2), ("fig5", 6), ("fig6", 2)];

#[derive(Debug, Serialize, Deserialize)]
struct Baseline {
    tolerance: f64,
    records: Vec<Record>,
}

/// One (workload, platform, scheme) run.
#[derive(Debug, Serialize, Deserialize)]
struct Record {
    workload: String,
    platform: String,
    scheme: String,
    events: u64,
    peak_ring_occupancy: usize,
    finish_ms: f64,
    energy_mj: f64,
    speed_changes: u64,
    misses: u64,
    ledger: EnergyLedger,
    sections: Vec<Section>,
}

#[derive(Debug, Serialize, Deserialize)]
struct Section {
    section: String,
    ledger: EnergyLedger,
}

impl Record {
    fn key(&self) -> String {
        format!("{}/{}/{}", self.workload, self.platform, self.scheme)
    }

    /// Every compared quantity as `(name, value)`, in a fixed order.
    fn fields(&self) -> Vec<(String, f64)> {
        let mut out = vec![
            ("events".to_string(), self.events as f64),
            (
                "peak_ring_occupancy".to_string(),
                self.peak_ring_occupancy as f64,
            ),
            ("finish_ms".to_string(), self.finish_ms),
            ("energy_mj".to_string(), self.energy_mj),
            ("speed_changes".to_string(), self.speed_changes as f64),
            ("misses".to_string(), self.misses as f64),
        ];
        let ledgers = std::iter::once(("ledger".to_string(), &self.ledger)).chain(
            self.sections
                .iter()
                .map(|s| (format!("section[{}]", s.section), &s.ledger)),
        );
        for (prefix, l) in ledgers {
            for (name, v) in [
                ("busy", l.busy),
                ("idle", l.idle),
                ("speed_overhead", l.speed_overhead),
                ("leakage", l.leakage),
                ("recovery", l.recovery),
            ] {
                out.push((format!("{prefix}.{name}"), v));
            }
        }
        out
    }
}

fn baseline_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join("baselines")
}

fn graph(workload: &str) -> AndOrGraph {
    match workload {
        "fig6" => workloads::synthetic_app_alpha(0.5)
            .expect("alpha 0.5 is valid")
            .lower()
            .expect("synthetic app lowers"),
        _ => atr_app(),
    }
}

/// Runs the golden matrix at `seed`: one record and one
/// `(file name, metrics CSV)` pair per run, in the same order.
fn run_matrix(seed: u64) -> (Vec<Record>, Vec<(String, String)>) {
    let mut records = Vec::new();
    let mut csvs = Vec::new();
    for (workload, procs) in WORKLOADS {
        for platform in [Platform::Transmeta, Platform::XScale] {
            let setup = Setup::for_load(graph(workload), platform.model(), procs, 0.5)
                .expect("golden setup is feasible");
            // One realization shared by every scheme: paired comparison.
            let mut rng = StdRng::seed_from_u64(seed);
            let real = setup.sample(&ExecTimeModel::paper_defaults(), &mut rng);
            let sim = setup.simulator(false);
            for scheme in Scheme::ALL {
                let mut registry = MetricsRegistry::new();
                let mut ledger = SectionedLedger::new();
                let mut ring = RingLog::new(RING_CAPACITY);
                let res = {
                    let mut fan = Fanout::new()
                        .with(&mut registry)
                        .with(&mut ledger)
                        .with(&mut ring);
                    let mut policy = setup.policy(scheme);
                    sim.run_observed(policy.as_mut(), &real, None, None, Some(&mut fan))
                        .expect("golden run succeeds")
                };
                let record = Record {
                    workload: workload.to_string(),
                    platform: slug(platform.name()),
                    scheme: slug(scheme.name()),
                    events: ring.seen(),
                    peak_ring_occupancy: ring.peak_occupancy(),
                    finish_ms: res.finish_time,
                    energy_mj: res.total_energy(),
                    speed_changes: res.energy.speed_changes(),
                    misses: u64::from(res.missed_deadline),
                    ledger: *ledger.total(),
                    sections: ledger
                        .merged()
                        .into_iter()
                        .map(|s| Section {
                            section: s.key.to_string(),
                            ledger: s.ledger,
                        })
                        .collect(),
                };
                ledger.verify(res.total_energy()).unwrap_or_else(|e| {
                    panic!(
                        "{}: sectioned ledger diverged from the engine: {e}",
                        record.key()
                    )
                });
                assert!(
                    record.peak_ring_occupancy <= RING_CAPACITY,
                    "{}: ring held {} events",
                    record.key(),
                    record.peak_ring_occupancy
                );
                let file = format!(
                    "{workload}_{}_{}.metrics.csv",
                    record.platform, record.scheme
                );
                csvs.push((file, registry.to_csv()));
                records.push(record);
            }
        }
    }
    (records, csvs)
}

/// `|a - b|` within `tol` relative to the larger magnitude (absolute
/// below 1).
fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

/// Every way `records` and `csvs` differ from the baselines in `dir`;
/// empty when they match.
fn drifts(records: &[Record], csvs: &[(String, String)], dir: &Path) -> Vec<String> {
    let path = dir.join(BASELINE_FILE);
    let body = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} unreadable: {e}", path.display()));
    let baseline: Baseline =
        serde_json::from_str(&body).unwrap_or_else(|e| panic!("{}: {e:?}", path.display()));
    let tol = baseline.tolerance;
    let mut out = Vec::new();
    if baseline.records.len() != records.len() {
        out.push(format!(
            "{} records vs baseline {}",
            records.len(),
            baseline.records.len()
        ));
    }
    for rec in records {
        let key = rec.key();
        let Some(base) = baseline.records.iter().find(|b| b.key() == key) else {
            out.push(format!("{key}: missing from baseline"));
            continue;
        };
        if rec.sections.len() != base.sections.len() {
            out.push(format!(
                "{key}: {} sections vs baseline {}",
                rec.sections.len(),
                base.sections.len()
            ));
            continue;
        }
        for ((name, c), (base_name, b)) in rec.fields().iter().zip(&base.fields()) {
            if name != base_name {
                out.push(format!("{key}: {name} vs baseline {base_name}"));
            } else if !close(*c, *b, tol) {
                out.push(format!(
                    "{key}: {name} {c} vs baseline {b} (tolerance {tol:e})"
                ));
            }
        }
    }
    for (file, csv) in csvs {
        let path = dir.join(file);
        let base = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{} unreadable: {e}", path.display()));
        if *csv != base {
            out.push(format!("{file}: differs from the committed CSV"));
        }
    }
    out
}

fn write_baselines(records: Vec<Record>, csvs: &[(String, String)], dir: &Path) {
    std::fs::create_dir_all(dir).expect("create baseline dir");
    let baseline = Baseline {
        tolerance: TOLERANCE,
        records,
    };
    let json = serde_json::to_string_pretty(&baseline).expect("baseline serializes");
    std::fs::write(dir.join(BASELINE_FILE), json).expect("write baseline");
    for (file, csv) in csvs {
        std::fs::write(dir.join(file), csv).expect("write metrics CSV");
    }
}

#[test]
fn seeded_runs_match_the_committed_baselines() {
    let dir = baseline_dir();
    let (records, csvs) = run_matrix(SEED);
    assert_eq!(records.len(), 36);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        write_baselines(records, &csvs, &dir);
    } else {
        let found = drifts(&records, &csvs, &dir);
        assert!(
            found.is_empty(),
            "bench baselines drifted ({} deviations) — if intentional, regenerate \
             with UPDATE_GOLDEN=1 and review the diff:\n  {}",
            found.len(),
            found.join("\n  ")
        );
    }

    // The comparison is not vacuous: another seed draws other execution
    // times, which must show in both the records and the CSVs.
    let (records, csvs) = run_matrix(1234);
    let found = drifts(&records, &csvs, &dir);
    assert!(
        found.iter().any(|d| d.contains("energy_mj")),
        "seed 1234 energy drift not reported: {found:?}"
    );
    assert!(
        found.iter().any(|d| d.contains(".metrics.csv")),
        "seed 1234 CSV drift not reported: {found:?}"
    );
}
