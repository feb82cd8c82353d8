//! Pinned results of the experiments runner.
//!
//! `runner::evaluate_with_faults` feeds every figure and table, so its
//! output is pinned here bit for bit: each digest is the SHA-256 of the
//! bit patterns of every `SchemeStats` field (every `Summary`'s count,
//! mean, variance, min and max, the miss count and the whole fault
//! report) and of the oracle's energy summary. The cases cross the
//! synthetic, ATR and video (on the continuous model) setups with a
//! fault-free run and an overrun+stall plan, each with and without the
//! clairvoyant oracle. Any change to how
//! the runner draws, seeds, runs or folds its replications changes a
//! digest here.

use pas_andor::core::{PlanArtifact, Setup};
use pas_andor::experiments::figures::atr_app;
use pas_andor::experiments::runner::{evaluate_with_faults, EvalResult, ExperimentConfig};
use pas_andor::power::ProcessorModel;
use pas_andor::sim::FaultPlan;
use pas_andor::stats::Summary;
use std::fmt::Write;

const REPS: usize = 64;

/// One digest per (setup, fault plan, oracle) case, in the loop order of
/// [`runner_results_are_pinned`].
const PINNED: [&str; 12] = [
    "fcd81e724864c7ebbc195c33c730be1775a17ec637c98d0884da945d3196138d",
    "58347ba2b100a3bb8a47dceefd1b7791ff761d07221def9fc25ae95160a8b912",
    "e7455a0b85e5d1c465fe78a646d4ca3dcb78e4e59dfc9fecd5cb2c4dcecff961",
    "565082a908fa39fa7fa63be7de965a2f926dc713f7b3efddec211788f5588cd3",
    "961f768ec79c6184a30e2fd925bf7134033230047e8abe2e7c74d6f60af3dd96",
    "73d0c1b30348163b8281b2b3d41c53b5485a54543ee3a3c25ed71b25c4177b76",
    "ace286914f0660fd09b67206620e20d99bab0c81a8afe7354e001ba94c355cb8",
    "55c6c1374140866ac1b0f38d84ff4e44349b83bb7ebcc98bfc3b9878c9a98582",
    "0c967de1e7dc3cef508a79ef41f5225767bbab267b19464ee090d8f62daed2be",
    "9cf0cdc6bd027228c978577b4bf53367ed8eb27298be88b5d8b99801a65f02c3",
    "6808197c681b89f596d483fe727fd40667b50073fdfc1968d2945c18934fc163",
    "6f6790d6b507e39ab8264416625e93f3e2a0215c50a6e0a3c301252a6009aa3f",
];

fn summary(out: &mut String, s: &Summary) {
    let _ = write!(
        out,
        "{} {:x} {:x} {:x} {:x};",
        s.count(),
        s.mean().to_bits(),
        s.variance().to_bits(),
        s.min().to_bits(),
        s.max().to_bits()
    );
}

fn digest(res: &EvalResult) -> String {
    let mut text = String::new();
    for s in &res.stats {
        let _ = write!(text, "{}|", s.scheme.name());
        for sum in [
            &s.energy,
            &s.busy_energy,
            &s.idle_energy,
            &s.transition_energy,
            &s.speed_changes,
            &s.miss_margin,
            &s.recovery_energy,
        ] {
            summary(&mut text, sum);
        }
        let f = &s.faults;
        let _ = writeln!(
            text,
            "{} {} {} {} {} {} {:x}",
            s.deadline_misses,
            f.overruns_injected,
            f.speed_failures_injected,
            f.stalls_injected,
            f.overruns_detected,
            f.recoveries,
            f.recovery_energy.to_bits()
        );
    }
    match &res.oracle_energy {
        Some(o) => summary(&mut text, o),
        None => text.push_str("no oracle"),
    }
    PlanArtifact::digest_of(&text)
}

#[test]
fn runner_results_are_pinned() {
    let synthetic = pas_andor::workloads::synthetic_app()
        .lower()
        .expect("lowers");
    let setups = [
        (
            "synthetic",
            Setup::for_load(synthetic, ProcessorModel::transmeta5400(), 2, 0.5).expect("feasible"),
        ),
        (
            "atr",
            Setup::for_load(atr_app(), ProcessorModel::xscale(), 6, 0.6).expect("feasible"),
        ),
        (
            "video",
            Setup::for_load(
                pas_andor::workloads::builtin("video", None, 0)
                    .expect("built-in")
                    .expect("builds"),
                ProcessorModel::resolve("continuous:0.2").expect("continuous model"),
                3,
                0.7,
            )
            .expect("feasible"),
        ),
    ];
    let plan = FaultPlan {
        overrun_prob: 0.3,
        overrun_factor: 1.5,
        speed_fail_prob: 0.0,
        stall_prob: 0.2,
        stall_ms: 0.5,
        seed: 11,
    };
    let mut pinned = PINNED.iter();
    let mut mismatches = Vec::new();
    for (name, setup) in &setups {
        for faults in [None, Some(&plan)] {
            for include_oracle in [false, true] {
                let cfg = ExperimentConfig {
                    include_oracle,
                    ..ExperimentConfig::quick(REPS)
                };
                let res = evaluate_with_faults(setup, &cfg, faults).expect("evaluation runs");
                if faults.is_some() {
                    assert!(res.total_faults_injected() > 0, "{name}: no fault fired");
                }
                let got = digest(&res);
                let want = pinned.next().expect("one digest per case");
                if got != *want {
                    mismatches.push(format!(
                        "{name} faults={} oracle={include_oracle}: {got} (pinned {want})",
                        faults.is_some()
                    ));
                }
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
