//! `figures::section_breakdown` (Extension E2b, `breakdown --per-section`).
//!
//! Each scheme's per-section series must add up to the mean total energy
//! the experiments runner reports on the same seeds, and the markdown the
//! `breakdown` binary prints at 64 replications is pinned by its SHA-256.

use pas_andor::core::{sha256_hex, Setup};
use pas_andor::experiments::figures::{atr_app, section_breakdown, Platform};
use pas_andor::experiments::runner::{evaluate, ExperimentConfig};
use pas_andor::stats::Table;

const REPS: usize = 64;
const LOADS: [f64; 2] = [0.3, 0.7];
const PLATFORMS: [Platform; 2] = [Platform::Transmeta, Platform::XScale];

/// SHA-256 of `breakdown --per-section --markdown --reps 64`: both
/// platforms × loads 0.3/0.7, each table followed by a blank line.
const PINNED: &str = "1068aa4c00b77fd5f928499427663decb9384b4f45a5aa4919a247dcb9b1ec6a";

fn tables() -> Vec<(Platform, f64, Table)> {
    let cfg = ExperimentConfig::quick(REPS);
    PLATFORMS
        .into_iter()
        .flat_map(|p| LOADS.map(|load| (p, load)))
        .map(|(p, load)| (p, load, section_breakdown(p, 2, load, &cfg)))
        .collect()
}

#[test]
fn each_series_sums_to_the_runners_mean_energy() {
    let cfg = ExperimentConfig::quick(REPS);
    for (platform, load, table) in tables() {
        let setup = Setup::for_load(atr_app(), platform.model(), 2, load).expect("feasible");
        assert_eq!(table.x.len(), setup.sections.len());
        let eval = evaluate(&setup, &cfg).expect("runner evaluates");
        assert_eq!(table.series.len(), cfg.schemes.len());
        for stats in &eval.stats {
            let name = stats.scheme.name();
            let series = table.series(name).expect("one series per scheme");
            let sum: f64 = series.values.iter().sum();
            let mean = stats.energy.mean();
            assert!(
                ((sum - mean) / mean).abs() <= 1e-9,
                "{} load {load} {name}: sections sum to {sum}, runner mean {mean}",
                platform.name()
            );
        }
    }
}

#[test]
fn breakdown_markdown_is_pinned() {
    let text: String = tables()
        .iter()
        .map(|(_, _, t)| format!("{}\n", t.to_markdown()))
        .collect();
    assert_eq!(sha256_hex(text.as_bytes()), PINNED, "{text}");
}
