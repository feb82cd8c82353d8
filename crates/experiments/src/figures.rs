//! One function per paper table/figure, plus the future-work ablations.

use crate::runner::{
    evaluate, evaluate_with_faults, replication_seed, EvalResult, ExperimentConfig,
};
use andor_graph::AndOrGraph;
use dvfs_power::{Overheads, ProcessorModel};
use mp_sim::{FaultPlan, SimError};
use pas_core::Setup;
use pas_stats::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;
use workloads::{synthetic_app_alpha, AtrParams};

/// The two processor platforms of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Platform {
    /// Transmeta Crusoe TM5400 (Table 1: 16 levels).
    Transmeta,
    /// Intel XScale (Table 2: 5 levels).
    XScale,
}

impl Platform {
    /// The platform's processor model.
    pub fn model(self) -> ProcessorModel {
        match self {
            Platform::Transmeta => ProcessorModel::transmeta5400(),
            Platform::XScale => ProcessorModel::xscale(),
        }
    }

    /// Figure-caption name.
    pub fn name(self) -> &'static str {
        match self {
            Platform::Transmeta => "Transmeta",
            Platform::XScale => "Intel XScale",
        }
    }
}

/// Output of one sweep: the normalized-energy figure plus the companion
/// speed-change counts (the quantity the speculative schemes are designed
/// to reduce).
#[derive(Debug, Clone)]
pub struct SweepOutput {
    /// Normalized energy vs the x-axis, one series per scheme.
    pub energy: Table,
    /// Mean voltage/speed changes per run vs the x-axis.
    pub speed_changes: Table,
    /// Deadline misses summed over the whole sweep (must be 0).
    pub total_misses: u64,
}

/// Runs `setup_for(x)` for every `x`, evaluating all configured schemes.
pub fn sweep(
    title: &str,
    x_label: &str,
    xs: &[f64],
    cfg: &ExperimentConfig,
    mut setup_for: impl FnMut(f64) -> Setup,
) -> SweepOutput {
    let evals: Vec<EvalResult> = xs
        .iter()
        .map(|&x| evaluate(&setup_for(x), cfg).expect("valid setup simulates"))
        .collect();
    let mut energy = Table::new(title, x_label, xs.to_vec());
    let mut speed_changes = Table::new(
        format!("{title} — speed changes per run"),
        x_label,
        xs.to_vec(),
    );
    for &scheme in &cfg.schemes {
        energy.push_series(
            scheme.name(),
            evals
                .iter()
                .map(|e| e.normalized_energy(scheme).unwrap_or(f64::NAN))
                .collect(),
        );
        speed_changes.push_series(
            scheme.name(),
            evals
                .iter()
                .map(|e| {
                    e.of(scheme)
                        .map(|s| s.speed_changes.mean())
                        .unwrap_or(f64::NAN)
                })
                .collect(),
        );
    }
    SweepOutput {
        energy,
        speed_changes,
        total_misses: evals.iter().map(|e| e.total_misses()).sum(),
    }
}

/// The canonical ATR application instance used by Figures 4 and 5:
/// the default parameters with seeded per-task WCET jitter, α = 0.9
/// ("little slack from task's run-time behavior").
pub fn atr_app() -> AndOrGraph {
    let mut rng = StdRng::seed_from_u64(0xA72);
    AtrParams::default()
        .build_jittered(&mut rng)
        .expect("default ATR parameters are valid")
        .lower()
        .expect("generated ATR app is structurally valid")
}

/// The load x-axis of Figures 4–5.
pub fn load_axis() -> Vec<f64> {
    (1..=10).map(|i| i as f64 / 10.0).collect()
}

/// The α x-axis of Figure 6.
pub fn alpha_axis() -> Vec<f64> {
    (1..=10).map(|i| i as f64 / 10.0).collect()
}

/// **Figure 4/5** — normalized energy vs load for ATR.
/// Figure 4 uses 2 processors; Figure 5 uses 6 (overhead 5 µs in both).
pub fn fig_energy_vs_load(
    platform: Platform,
    num_procs: usize,
    cfg: &ExperimentConfig,
) -> SweepOutput {
    let app = atr_app();
    let title = format!(
        "Energy vs load — ATR, {} processors, {}",
        num_procs,
        platform.name()
    );
    sweep(&title, "load", &load_axis(), cfg, |load| {
        Setup::for_load(app.clone(), platform.model(), num_procs, load)
            .expect("load in (0,1] is feasible by construction")
    })
}

/// **Figure 6** — normalized energy vs α for the synthetic application on
/// 2 processors at load 0.5.
pub fn fig_energy_vs_alpha(platform: Platform, cfg: &ExperimentConfig) -> SweepOutput {
    let title = format!(
        "Energy vs alpha — synthetic app, 2 processors, load 0.5, {}",
        platform.name()
    );
    sweep(&title, "alpha", &alpha_axis(), cfg, |alpha| {
        let app = synthetic_app_alpha(alpha)
            .expect("axis alphas are in (0, 1]")
            .lower()
            .expect("valid");
        Setup::for_load(app, platform.model(), 2, 0.5).expect("feasible")
    })
}

/// **Ablation A1** (paper's future work) — effect of the minimum speed:
/// synthetic tables with 16 levels whose `S_min/S_max` ratio varies.
pub fn ablation_smin(cfg: &ExperimentConfig) -> SweepOutput {
    let ratios: Vec<f64> = vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];
    let app = synthetic_app_alpha(0.6)
        .expect("0.6 is in (0, 1]")
        .lower()
        .expect("valid");
    sweep(
        "Energy vs S_min/S_max — synthetic app, 2 processors, load 0.5, 16 levels",
        "smin_ratio",
        &ratios,
        cfg,
        |ratio| {
            let model = ProcessorModel::synthetic(1000.0, 16, ratio, 0.8, 1.8)
                .expect("valid synthetic table");
            Setup::for_load(app.clone(), model, 2, 0.5).expect("feasible")
        },
    )
}

/// **Ablation A2** (future work) — effect of the number of speed levels
/// between `S_min` and `S_max`.
pub fn ablation_levels(cfg: &ExperimentConfig) -> SweepOutput {
    let counts: Vec<f64> = vec![2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 32.0];
    let app = synthetic_app_alpha(0.6)
        .expect("0.6 is in (0, 1]")
        .lower()
        .expect("valid");
    sweep(
        "Energy vs level count — synthetic app, 2 processors, load 0.5, smin 0.2",
        "levels",
        &counts,
        cfg,
        |n| {
            let model = ProcessorModel::synthetic(1000.0, n as usize, 0.2, 0.8, 1.8)
                .expect("valid synthetic table");
            Setup::for_load(app.clone(), model, 2, 0.5).expect("feasible")
        },
    )
}

/// **Ablation A3** — speed-change overhead sweep (ms per transition).
pub fn ablation_overhead(platform: Platform, cfg: &ExperimentConfig) -> SweepOutput {
    let overheads_ms: Vec<f64> = vec![0.0, 0.005, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0];
    let app = atr_app();
    let title = format!(
        "Energy vs transition overhead — ATR, 2 processors, load 0.7, {}",
        platform.name()
    );
    sweep(&title, "overhead_ms", &overheads_ms, cfg, |oh| {
        Setup::for_load_with_overheads(
            app.clone(),
            platform.model(),
            2,
            0.7,
            Overheads::new(300.0, oh).expect("valid overheads"),
        )
        .expect("feasible")
    })
}

/// **Ablation A4** — processor count sweep at fixed load.
pub fn ablation_procs(platform: Platform, cfg: &ExperimentConfig) -> SweepOutput {
    let procs: Vec<f64> = vec![1.0, 2.0, 4.0, 6.0, 8.0];
    let app = atr_app();
    let title = format!(
        "Energy vs processor count — ATR, load 0.5, {}",
        platform.name()
    );
    sweep(&title, "processors", &procs, cfg, |m| {
        Setup::for_load(app.clone(), platform.model(), m as usize, 0.5).expect("feasible")
    })
}

/// **Extension E3** — the static-power (leakage) ablation: as the static
/// fraction ρ grows, unfloored dynamic schemes keep stretching tasks into
/// leakage-dominated regions; the energy-efficient floor
/// ([`dvfs_power::efficient_floor`]) recovers the loss. Series are
/// normalized to NPM *at the same ρ*.
pub fn ablation_leakage(platform: Platform, cfg: &ExperimentConfig) -> Table {
    use mp_sim::{Policy, RunScratch};
    use pas_core::{EnergyFloorPolicy, Scheme, SchemePolicy};
    use rand::Rng;

    let rhos: Vec<f64> = vec![0.0, 0.05, 0.1, 0.2, 0.3, 0.4];
    let app = workloads::synthetic_app_alpha(0.6)
        .expect("0.6 is in (0, 1]")
        .lower()
        .expect("valid");
    let labels = ["NPM", "SPM", "GSS", "AS", "GSS+floor", "AS+floor"];
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); labels.len()];
    for &rho in &rhos {
        let setup = Setup::for_load(app.clone(), platform.model(), 2, 0.5)
            .expect("feasible")
            .with_static_power(rho);
        let floor = setup.efficient_floor();
        // One engine, scratch and policy set per rho, in `labels` order;
        // the engine resets each policy at every run start.
        let sim = setup.simulator(false);
        let mut scratch = RunScratch::new();
        let mut policies: Vec<Box<dyn Policy + '_>> =
            [Scheme::Npm, Scheme::Spm, Scheme::Gss, Scheme::As]
                .into_iter()
                .map(|scheme| setup.policy(scheme))
                .collect();
        for scheme in [Scheme::Gss, Scheme::As] {
            policies.push(Box::new(EnergyFloorPolicy::new(
                SchemePolicy::new(scheme, &setup.plan, &setup.model, setup.overheads),
                floor,
                &setup.model,
            )));
        }
        let mut totals = vec![0.0_f64; labels.len()];
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.base_seed);
        let draws = setup.draw_table(&cfg.etm);
        for _ in 0..cfg.replications {
            let real = draws.sample(&mut rng);
            for (i, policy) in policies.iter_mut().enumerate() {
                let r = sim
                    .run_into(&mut scratch, policy.as_mut(), &real, None, None, None)
                    .expect("run succeeds");
                assert!(!r.missed_deadline, "{} missed at rho={rho}", labels[i]);
                totals[i] += r.total_energy();
            }
            // Keep the RNG streams aligned regardless of future edits.
            let _: f64 = rng.gen();
        }
        for (i, t) in totals.iter().enumerate() {
            series[i].push(t / totals[0]);
        }
    }
    let mut t = Table::new(
        format!(
            "Energy vs static power fraction — synthetic app, 2 processors, load 0.5, {}",
            platform.name()
        ),
        "rho",
        rhos,
    );
    for (label, values) in labels.iter().zip(series) {
        t.push_series(*label, values);
    }
    t
}

/// **Extension E1** — gap to the clairvoyant single-speed bound
/// (paper §3.3's motivating intuition): mean energy of each scheme divided
/// by the oracle's mean energy, vs load.
pub fn oracle_gap_vs_load(platform: Platform, num_procs: usize, cfg: &ExperimentConfig) -> Table {
    let mut cfg = cfg.clone();
    cfg.include_oracle = true;
    let app = atr_app();
    let xs = load_axis();
    let evals: Vec<EvalResult> = xs
        .iter()
        .map(|&load| {
            let setup =
                Setup::for_load(app.clone(), platform.model(), num_procs, load).expect("feasible");
            evaluate(&setup, &cfg).expect("valid setup simulates")
        })
        .collect();
    let mut t = Table::new(
        format!(
            "Energy over clairvoyant bound vs load — ATR, {} processors, {}",
            num_procs,
            platform.name()
        ),
        "load",
        xs,
    );
    for &scheme in &cfg.schemes {
        t.push_series(
            scheme.name(),
            evals
                .iter()
                .map(|e| e.oracle_gap(scheme).unwrap_or(f64::NAN))
                .collect(),
        );
    }
    t
}

/// **Extension E2** — where does the energy go? Busy/idle/transition
/// decomposition per scheme at one load, each normalized by NPM's total.
pub fn energy_breakdown(
    platform: Platform,
    num_procs: usize,
    load: f64,
    cfg: &ExperimentConfig,
) -> Table {
    let setup = Setup::for_load(atr_app(), platform.model(), num_procs, load).expect("feasible");
    let eval = evaluate(&setup, cfg).expect("valid setup simulates");
    let npm_total = eval
        .of(pas_core::Scheme::Npm)
        .expect("NPM configured")
        .energy
        .mean();
    let mut t = Table::new(
        format!(
            "Energy breakdown — ATR, {} processors, load {}, {} (columns: scheme index in {:?})",
            num_procs,
            load,
            platform.name(),
            cfg.schemes.iter().map(|s| s.name()).collect::<Vec<_>>()
        ),
        "scheme#",
        (1..=cfg.schemes.len()).map(|i| i as f64).collect(),
    );
    t.push_series(
        "busy",
        eval.stats
            .iter()
            .map(|s| s.busy_energy.mean() / npm_total)
            .collect(),
    );
    t.push_series(
        "idle",
        eval.stats
            .iter()
            .map(|s| s.idle_energy.mean() / npm_total)
            .collect(),
    );
    t.push_series(
        "transition",
        eval.stats
            .iter()
            .map(|s| s.transition_energy.mean() / npm_total)
            .collect(),
    );
    t.push_series(
        "total",
        eval.stats
            .iter()
            .map(|s| s.energy.mean() / npm_total)
            .collect(),
    );
    t
}

/// **Extension E2b** — which OR branch is expensive? Mean per-section
/// energy per scheme at one operating point, read from the paired
/// kernel's per-section energy rows ([`mp_sim::BatchOutput::section_row`]),
/// replication `r` seeded as the runner seeds it. The x-axis is the
/// program-section id (chain order, `s0` = root); a section a
/// realization never entered contributes 0 to its mean, so each series
/// sums to that scheme's mean total energy.
pub fn section_breakdown(
    platform: Platform,
    num_procs: usize,
    load: f64,
    cfg: &ExperimentConfig,
) -> Table {
    use mp_sim::{run_paired, BatchConfig, BatchOutput, Lane};

    let setup = Setup::for_load(atr_app(), platform.model(), num_procs, load).expect("feasible");
    let num_sections = setup.sections.len();
    let mut t = Table::new(
        format!(
            "Per-section energy — ATR, {} processors, load {}, {}",
            num_procs,
            load,
            platform.name()
        ),
        "section",
        (0..num_sections).map(|i| i as f64).collect(),
    );
    let lanes = || {
        cfg.schemes
            .iter()
            .map(|&scheme| Lane {
                policy: setup.policy(scheme),
                faulted: true,
            })
            .collect()
    };
    let outs: Vec<BatchOutput> = run_paired(
        &setup.simulator(false),
        &cfg.etm,
        None,
        lanes,
        |r| replication_seed(cfg.base_seed, r),
        &BatchConfig::new(cfg.replications, cfg.base_seed),
    )
    .expect("valid setup simulates");
    for (&scheme, out) in cfg.schemes.iter().zip(&outs) {
        let mut sums = vec![0.0_f64; num_sections];
        for r in 0..out.len() {
            for (sum, e) in sums.iter_mut().zip(out.section_row(r)) {
                *sum += e;
            }
        }
        t.push_series(
            scheme.name(),
            sums.iter().map(|s| s / cfg.replications as f64).collect(),
        );
    }
    t
}

/// **Extension E4** — streaming frames with DVS state carry-over: the
/// paper simulates application instances independently (every frame starts
/// at `f_max`); real hardware keeps its operating point across frames.
/// Reports, per scheme, the mean speed-change count per frame with cold
/// (independent) versus warm (carried) starts, plus warm energy relative
/// to cold.
pub fn stream_carryover(platform: Platform, cfg: &ExperimentConfig) -> Table {
    use pas_core::Scheme;

    const FRAMES: usize = 16;
    let app = atr_app();
    let setup = Setup::for_load(app, platform.model(), 2, 0.6).expect("feasible");
    let schemes = Scheme::ALL;
    let draws = setup.draw_table(&cfg.etm);
    let mut cold_changes = Vec::new();
    let mut warm_changes = Vec::new();
    let mut warm_over_cold_energy = Vec::new();
    let sim = setup.simulator(false);
    for &scheme in &schemes {
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.base_seed);
        let (mut cold_c, mut warm_c, mut cold_e, mut warm_e) = (0.0, 0.0, 0.0, 0.0);
        let reps = cfg.replications.max(1);
        for _ in 0..reps {
            let frames: Vec<mp_sim::Realization> =
                (0..FRAMES).map(|_| draws.sample(&mut rng)).collect();
            let mut policy = setup.policy(scheme);
            let cold = mp_sim::run_stream(&sim, policy.as_mut(), &frames, false, None)
                .expect("stream runs");
            let warm = mp_sim::run_stream(&sim, policy.as_mut(), &frames, true, None)
                .expect("stream runs");
            assert_eq!(cold.misses + warm.misses, 0, "{} missed", scheme.name());
            cold_c += cold.speed_changes() as f64 / FRAMES as f64;
            warm_c += warm.speed_changes() as f64 / FRAMES as f64;
            cold_e += cold.total_energy();
            warm_e += warm.total_energy();
        }
        cold_changes.push(cold_c / reps as f64);
        warm_changes.push(warm_c / reps as f64);
        warm_over_cold_energy.push(warm_e / cold_e);
    }
    let mut t = Table::new(
        format!(
            "Streaming carry-over — ATR, 2 processors, load 0.6, {FRAMES} frames, {}              (columns: scheme index in {:?})",
            platform.name(),
            schemes.iter().map(|s| s.name()).collect::<Vec<_>>()
        ),
        "scheme#",
        (1..=schemes.len()).map(|i| i as f64).collect(),
    );
    t.push_series("cold changes/frame", cold_changes);
    t.push_series("warm changes/frame", warm_changes);
    t.push_series("warm/cold energy", warm_over_cold_energy);
    t
}

/// Output of the fault-injection sweep ([Extension E5](fault_sweep)).
#[derive(Debug, Clone)]
pub struct FaultSweepOutput {
    /// Deadline-miss rate per scheme vs overrun probability.
    pub miss_rate: Table,
    /// Energy normalized to NPM *at the same fault point* vs overrun
    /// probability.
    pub energy: Table,
    /// Mean per-run recovery energy (escalation transitions plus the
    /// containment premium) vs overrun probability.
    pub recovery_energy: Table,
    /// Total faults injected across the whole sweep.
    pub injected: u64,
    /// Total overruns detected across the whole sweep.
    pub detected: u64,
}

/// **Extension E5** — overrun fault injection: execution-time overruns
/// (actual exceeding WCET by `overrun_factor`) are injected with
/// per-task probability `prob` for each `prob` in `probs`. Every scheme
/// sees the identical fault sets on the identical realizations, so
/// miss-rate and energy columns are directly comparable. At
/// `prob = 0.0` the numbers reproduce the fault-free baselines exactly.
///
/// # Errors
///
/// Propagates [`SimError`] from plan validation or any replication.
pub fn fault_sweep(
    platform: Platform,
    overrun_factor: f64,
    probs: &[f64],
    cfg: &ExperimentConfig,
) -> Result<FaultSweepOutput, SimError> {
    let app = atr_app();
    let setup = Setup::for_load(app, platform.model(), 2, 0.6)
        .expect("load 0.6 is feasible by construction");
    let mut evals: Vec<EvalResult> = Vec::with_capacity(probs.len());
    for &prob in probs {
        let plan = FaultPlan::overruns(prob, overrun_factor, cfg.base_seed ^ 0xFA);
        evals.push(evaluate_with_faults(&setup, cfg, Some(&plan))?);
    }
    let title = format!(
        "ATR, 2 processors, load 0.6, overrun factor {}, {}",
        overrun_factor,
        platform.name()
    );
    let mut miss_rate = Table::new(
        format!("Deadline-miss rate vs overrun probability — {title}"),
        "overrun_prob",
        probs.to_vec(),
    );
    let mut energy = Table::new(
        format!("Normalized energy vs overrun probability — {title}"),
        "overrun_prob",
        probs.to_vec(),
    );
    let mut recovery_energy = Table::new(
        format!("Recovery energy per run vs overrun probability — {title}"),
        "overrun_prob",
        probs.to_vec(),
    );
    for &scheme in &cfg.schemes {
        miss_rate.push_series(
            scheme.name(),
            evals
                .iter()
                .map(|e| e.of(scheme).map(|s| s.miss_rate()).unwrap_or(f64::NAN))
                .collect(),
        );
        energy.push_series(
            scheme.name(),
            evals
                .iter()
                .map(|e| e.normalized_energy(scheme).unwrap_or(f64::NAN))
                .collect(),
        );
        recovery_energy.push_series(
            scheme.name(),
            evals
                .iter()
                .map(|e| {
                    e.of(scheme)
                        .map(|s| s.recovery_energy.mean())
                        .unwrap_or(f64::NAN)
                })
                .collect(),
        );
    }
    let injected = evals.iter().map(|e| e.total_faults_injected()).sum();
    let detected = evals
        .iter()
        .flat_map(|e| e.stats.iter())
        .map(|s| s.faults.overruns_detected)
        .sum();
    Ok(FaultSweepOutput {
        miss_rate,
        energy,
        recovery_energy,
        injected,
        detected,
    })
}

/// **Tables 1 and 2** — renders a processor model's voltage/speed table in
/// the paper's layout.
pub fn level_table(model: &ProcessorModel) -> Table {
    let levels = model.levels().expect("discrete model");
    let mut t = Table::new(
        format!("Speed & voltage levels of {}", model.name()),
        "level",
        (1..=levels.len()).map(|i| i as f64).collect(),
    );
    t.push_series("f(MHz)", levels.iter().map(|l| l.freq_mhz).collect());
    t.push_series("V(V)", levels.iter().map(|l| l.voltage).collect());
    t.push_series(
        "norm. speed",
        levels
            .iter()
            .map(|l| l.freq_mhz / model.max_freq_mhz())
            .collect(),
    );
    t.push_series(
        "norm. power",
        levels.iter().map(|l| model.level_power(l)).collect(),
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig::quick(8)
    }

    #[test]
    fn fig4_smoke() {
        let out = fig_energy_vs_load(Platform::XScale, 2, &tiny());
        assert_eq!(out.energy.x.len(), 10);
        assert_eq!(out.energy.series.len(), 6);
        assert_eq!(out.total_misses, 0);
        // NPM normalizes to 1 everywhere.
        for v in &out.energy.series("NPM").expect("NPM series").values {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn fig6_smoke() {
        let out = fig_energy_vs_alpha(Platform::Transmeta, &tiny());
        assert_eq!(out.energy.x.len(), 10);
        assert_eq!(out.total_misses, 0);
    }

    #[test]
    fn ablations_smoke() {
        assert_eq!(ablation_smin(&tiny()).total_misses, 0);
        assert_eq!(ablation_levels(&tiny()).total_misses, 0);
        assert_eq!(ablation_overhead(Platform::XScale, &tiny()).total_misses, 0);
        assert_eq!(ablation_procs(Platform::Transmeta, &tiny()).total_misses, 0);
    }

    #[test]
    fn level_tables_match_paper() {
        let t1 = level_table(&ProcessorModel::transmeta5400());
        assert_eq!(t1.x.len(), 16);
        let t2 = level_table(&ProcessorModel::xscale());
        assert_eq!(t2.x.len(), 5);
        assert_eq!(
            t2.series("f(MHz)").expect("frequency series").values[0],
            150.0
        );
    }

    #[test]
    fn oracle_gap_is_finite_and_npm_gap_large() {
        // On discrete tables schemes may dip slightly below 1 (level
        // mixing beats the rounded-up single speed) — see
        // `pas_core::oracle` — but gaps stay positive and NPM's gap is
        // clearly the largest at moderate load.
        let t = oracle_gap_vs_load(Platform::XScale, 2, &tiny());
        for series in &t.series {
            for v in &series.values {
                assert!(v.is_finite() && *v > 0.3, "{}: gap {v}", series.name);
            }
        }
        let npm = &t.series("NPM").expect("NPM series").values;
        let gss = &t.series("GSS").expect("GSS series").values;
        assert!(npm[4] > gss[4], "NPM gap exceeds GSS gap at load 0.5");
    }

    #[test]
    fn breakdown_components_sum_to_total() {
        let t = energy_breakdown(Platform::Transmeta, 2, 0.5, &tiny());
        let busy = &t.series("busy").expect("busy series").values;
        let idle = &t.series("idle").expect("idle series").values;
        let trans = &t.series("transition").expect("transition series").values;
        let total = &t.series("total").expect("total series").values;
        for i in 0..t.x.len() {
            assert!((busy[i] + idle[i] + trans[i] - total[i]).abs() < 1e-9);
        }
        // NPM (first scheme) normalizes to total 1.
        assert!((total[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn leakage_floor_recovers_energy() {
        let t = ablation_leakage(Platform::Transmeta, &ExperimentConfig::quick(24));
        let gss = &t.series("GSS").expect("GSS series").values;
        let gss_floor = &t.series("GSS+floor").expect("floored series").values;
        // At zero leakage the floor is the minimum speed: identical runs.
        assert!((gss[0] - gss_floor[0]).abs() < 1e-9);
        // At heavy leakage the floor must not hurt, and should help.
        let last = t.x.len() - 1;
        assert!(
            gss_floor[last] <= gss[last] + 1e-9,
            "floor hurt: {} vs {}",
            gss_floor[last],
            gss[last]
        );
        assert!(
            gss_floor[last] < gss[last] - 1e-3,
            "floor should recover energy at rho=0.4: {} vs {}",
            gss_floor[last],
            gss[last]
        );
    }

    #[test]
    fn stream_carryover_never_increases_changes() {
        let t = stream_carryover(Platform::XScale, &ExperimentConfig::quick(4));
        let cold = &t.series("cold changes/frame").expect("cold series").values;
        let warm = &t.series("warm changes/frame").expect("warm series").values;
        for (c, w) in cold.iter().zip(warm) {
            assert!(w <= &(c + 1e-9), "carry-over increased changes: {w} vs {c}");
        }
        // NPM (index 0) has zero changes either way.
        assert_eq!(cold[0], 0.0);
        assert_eq!(warm[0], 0.0);
    }

    #[test]
    fn fault_sweep_zero_prob_reproduces_baseline() {
        let cfg = tiny();
        let out = fault_sweep(Platform::Transmeta, 1.5, &[0.0, 0.3], &cfg).expect("sweep runs");
        // prob 0: no misses, NPM normalization exactly 1.
        for series in &out.miss_rate.series {
            assert_eq!(series.values[0], 0.0, "{} missed at prob 0", series.name);
        }
        let npm = out.energy.series("NPM").expect("NPM series");
        assert!((npm.values[0] - 1.0).abs() < 1e-12);
        // prob 0.3 with factor 1.5 injects and detects overruns.
        assert!(out.injected > 0);
        assert!(out.detected > 0);
        let recovery = out.recovery_energy.series("GSS").expect("GSS series");
        assert_eq!(recovery.values[0], 0.0, "no recovery energy at prob 0");
        assert!(recovery.values[1] > 0.0, "recovery energy at prob 0.3");
    }

    #[test]
    fn atr_app_is_stable() {
        let a = atr_app();
        let b = atr_app();
        assert_eq!(a.len(), b.len());
        for ((_, x), (_, y)) in a.iter().zip(b.iter()) {
            assert_eq!(x.kind.wcet(), y.kind.wcet());
        }
    }
}
