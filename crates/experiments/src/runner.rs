//! The Monte-Carlo experiment harness.

use mp_sim::{
    run_paired, BatchConfig, FaultPlan, FaultReport, Lane, RunColumns, RunResult, RunScratch,
    SimError,
};
use pas_core::{Scheme, Setup};
use pas_stats::Summary;

/// How an experiment point is evaluated.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Monte-Carlo replications per point (the paper uses 1000).
    pub replications: usize,
    /// Base seed; replication `r` uses a seed derived from it, so results
    /// are exactly reproducible.
    pub base_seed: u64,
    /// Schemes to evaluate. Must include [`Scheme::Npm`] if normalized
    /// energies are wanted.
    pub schemes: Vec<Scheme>,
    /// Actual-execution-time model.
    pub etm: mp_sim::ExecTimeModel,
    /// Also evaluate the clairvoyant single-speed bound on every
    /// realization (see [`pas_core::oracle`]).
    pub include_oracle: bool,
}

impl ExperimentConfig {
    /// The paper's defaults: 1000 replications of all six schemes.
    pub fn paper_defaults() -> Self {
        Self {
            replications: 1000,
            base_seed: 0x1CC_2002,
            schemes: Scheme::ALL.to_vec(),
            etm: mp_sim::ExecTimeModel::paper_defaults(),
            include_oracle: false,
        }
    }

    /// A light configuration for smoke tests and benchmarks.
    pub fn quick(replications: usize) -> Self {
        Self {
            replications,
            ..Self::paper_defaults()
        }
    }
}

/// Aggregated results for one scheme at one experiment point.
#[derive(Debug, Clone)]
pub struct SchemeStats {
    /// The scheme.
    pub scheme: Scheme,
    /// Per-run total energy (normalized power units × ms).
    pub energy: Summary,
    /// Per-run busy (execution) energy.
    pub busy_energy: Summary,
    /// Per-run idle energy.
    pub idle_energy: Summary,
    /// Per-run voltage-transition energy.
    pub transition_energy: Summary,
    /// Per-run voltage/speed change counts.
    pub speed_changes: Summary,
    /// Number of runs that missed the deadline (must stay 0 in fault-free
    /// experiments; reported so experiments surface violations instead of
    /// hiding them).
    pub deadline_misses: u64,
    /// How far past the deadline the missed runs finished (ms); empty when
    /// no run missed.
    pub miss_margin: Summary,
    /// Fault-injection counters accumulated over every replication
    /// (all-zero in fault-free experiments).
    pub faults: FaultReport,
    /// Per-run energy spent recovering from detected overruns (escalating
    /// to maximum speed and the containment premium).
    pub recovery_energy: Summary,
}

impl SchemeStats {
    /// Fraction of replications that missed the deadline.
    pub fn miss_rate(&self) -> f64 {
        if self.energy.count() == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.energy.count() as f64
        }
    }
}

/// All schemes' statistics at one experiment point.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// One entry per configured scheme, in configuration order.
    pub stats: Vec<SchemeStats>,
    /// Clairvoyant-bound energy, when requested via
    /// [`ExperimentConfig::include_oracle`].
    pub oracle_energy: Option<Summary>,
}

impl EvalResult {
    /// Statistics for one scheme.
    pub fn of(&self, scheme: Scheme) -> Option<&SchemeStats> {
        self.stats.iter().find(|s| s.scheme == scheme)
    }

    /// Mean energy of `scheme` divided by mean energy of NPM.
    pub fn normalized_energy(&self, scheme: Scheme) -> Option<f64> {
        let npm = self.of(Scheme::Npm)?.energy.mean();
        let e = self.of(scheme)?.energy.mean();
        (npm > 0.0).then(|| e / npm)
    }

    /// Mean energy of `scheme` divided by the clairvoyant bound's mean
    /// energy (≥ 1 in expectation). `None` unless the oracle was included.
    pub fn oracle_gap(&self, scheme: Scheme) -> Option<f64> {
        let oracle = self.oracle_energy.as_ref()?.mean();
        let e = self.of(scheme)?.energy.mean();
        (oracle > 0.0).then(|| e / oracle)
    }

    /// Total deadline misses across all schemes.
    pub fn total_misses(&self) -> u64 {
        self.stats.iter().map(|s| s.deadline_misses).sum()
    }

    /// Total faults injected across all schemes' replications.
    pub fn total_faults_injected(&self) -> u64 {
        self.stats.iter().map(|s| s.faults.total_injected()).sum()
    }
}

/// Evaluates every configured scheme on `cfg.replications` shared
/// realizations of `setup`. Replications run in parallel; the result is
/// independent of thread count because each replication derives its RNG
/// from `base_seed` and the replication index alone.
///
/// # Errors
///
/// Propagates the first [`SimError`] any replication hits (the engine
/// rejecting the setup's dispatch order or realization).
pub fn evaluate(setup: &Setup, cfg: &ExperimentConfig) -> Result<EvalResult, SimError> {
    evaluate_with_faults(setup, cfg, None)
}

/// [`evaluate`], optionally injecting faults from a [`FaultPlan`].
///
/// The replications run on the paired kernel ([`mp_sim::run_paired`]),
/// one lane per scheme plus the oracle's when included. Replication `r`
/// draws from an RNG seeded with `base_seed + r·φ64` (wrapping) and
/// realizes the plan with run index `r`, so every scheme sees the *same*
/// realization and fault set — the paired design extends to faults. The
/// oracle is the fault-free clairvoyant bound of each realization. With
/// `faults: None` (or an all-zero plan) the results are identical to
/// [`evaluate`].
///
/// # Errors
///
/// Returns [`SimError::BadFaultPlan`] if the plan fails validation, or
/// any engine error a replication hits.
pub fn evaluate_with_faults(
    setup: &Setup,
    cfg: &ExperimentConfig,
    faults: Option<&FaultPlan>,
) -> Result<EvalResult, SimError> {
    if let Some(plan) = faults {
        plan.validate()?;
    }
    let lanes = || {
        let mut lanes: Vec<Lane> = cfg
            .schemes
            .iter()
            .map(|&scheme| Lane {
                policy: setup.policy(scheme),
                faulted: true,
            })
            .collect();
        if cfg.include_oracle {
            lanes.push(Lane {
                policy: Box::new(setup.oracle()),
                faulted: false,
            });
        }
        lanes
    };
    // One chunk per core: the result does not depend on the chunking.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut batch = BatchConfig::new(cfg.replications, cfg.base_seed);
    batch.chunk = cfg.replications.div_ceil(threads);
    let mut lanes: Vec<Rows> = run_paired(
        &setup.simulator(false),
        &cfg.etm,
        faults,
        lanes,
        |r| replication_seed(cfg.base_seed, r),
        &batch,
    )?;
    let oracle_energy = cfg.include_oracle.then(|| {
        let Rows(blocks) = lanes.pop().expect("the oracle's lane");
        blocks.into_iter().flatten().map(|row| row.energy).collect()
    });
    let stats = cfg
        .schemes
        .iter()
        .zip(lanes)
        .map(|(&scheme, rows)| rows.fold(scheme))
        .collect();
    Ok(EvalResult {
        stats,
        oracle_energy,
    })
}

/// The RNG seed of replication `r`: `base_seed + r·φ64` (wrapping).
pub(crate) fn replication_seed(base_seed: u64, r: u64) -> u64 {
    base_seed.wrapping_add(r.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// What the runner keeps of one run until it is folded.
struct Row {
    energy: f64,
    busy: f64,
    idle: f64,
    transition: f64,
    changes: u64,
    missed_by: Option<f64>,
    report: FaultReport,
}

/// One lane's runs, one block of rows per chunk, in replication order.
struct Rows(Vec<Vec<Row>>);

impl RunColumns for Rows {
    fn with_capacity(runs: usize, _n_sections: usize, _cfg: &BatchConfig) -> Self {
        Rows(vec![Vec::with_capacity(runs)])
    }

    fn push(&mut self, res: RunResult, _scratch: &RunScratch, _events: Option<u64>) {
        self.0.last_mut().expect("one block per chunk").push(Row {
            energy: res.total_energy(),
            busy: res.energy.busy_energy(),
            idle: res.energy.idle_energy(),
            transition: res.energy.transition_energy(),
            changes: res.energy.speed_changes(),
            missed_by: (!res.status.met()).then(|| res.status.missed_by()),
            report: res.faults,
        });
    }

    fn concat(chunks: Vec<Self>) -> Self {
        Rows(chunks.into_iter().flat_map(|c| c.0).collect())
    }
}

impl Rows {
    /// Folds the rows in replication order (so every summary is
    /// bit-identical whatever the chunking), freeing each block as it goes.
    fn fold(self, scheme: Scheme) -> SchemeStats {
        let mut s = SchemeStats {
            scheme,
            energy: Summary::new(),
            busy_energy: Summary::new(),
            idle_energy: Summary::new(),
            transition_energy: Summary::new(),
            speed_changes: Summary::new(),
            deadline_misses: 0,
            miss_margin: Summary::new(),
            faults: FaultReport::default(),
            recovery_energy: Summary::new(),
        };
        for row in self.0.into_iter().flatten() {
            s.energy.add(row.energy);
            s.busy_energy.add(row.busy);
            s.idle_energy.add(row.idle);
            s.transition_energy.add(row.transition);
            s.speed_changes.add(row.changes as f64);
            if let Some(by) = row.missed_by {
                s.deadline_misses += 1;
                s.miss_margin.add(by);
            }
            s.faults.absorb(&row.report);
            s.recovery_energy.add(row.report.recovery_energy);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvfs_power::ProcessorModel;
    use workloads::synthetic_app;

    fn setup() -> Setup {
        Setup::for_load(
            synthetic_app().lower().expect("fixture app lowers"),
            ProcessorModel::transmeta5400(),
            2,
            0.5,
        )
        .expect("feasible load")
    }

    #[test]
    fn evaluate_produces_stats_for_every_scheme() {
        let res = evaluate(&setup(), &ExperimentConfig::quick(32)).expect("evaluation runs");
        assert_eq!(res.stats.len(), 6);
        for s in &res.stats {
            assert_eq!(s.energy.count(), 32);
            assert_eq!(s.deadline_misses, 0, "{} missed deadlines", s.scheme);
            assert!(s.faults.is_clean(), "{} saw phantom faults", s.scheme);
            assert_eq!(s.miss_rate(), 0.0);
        }
    }

    #[test]
    fn npm_normalization_is_one() {
        let res = evaluate(&setup(), &ExperimentConfig::quick(16)).expect("evaluation runs");
        let norm = res.normalized_energy(Scheme::Npm).expect("NPM configured");
        assert!((norm - 1.0).abs() < 1e-12);
    }

    #[test]
    fn managed_schemes_beat_npm_at_half_load() {
        let res = evaluate(&setup(), &ExperimentConfig::quick(64)).expect("evaluation runs");
        for scheme in Scheme::MANAGED {
            let norm = res.normalized_energy(scheme).expect("scheme configured");
            assert!(norm < 1.0, "{scheme}: {norm}");
        }
    }

    #[test]
    fn results_reproducible_and_seed_sensitive() {
        let s = setup();
        let a = evaluate(&s, &ExperimentConfig::quick(16)).expect("evaluation runs");
        let b = evaluate(&s, &ExperimentConfig::quick(16)).expect("evaluation runs");
        assert_eq!(
            a.of(Scheme::Gss).expect("GSS configured").energy.mean(),
            b.of(Scheme::Gss).expect("GSS configured").energy.mean()
        );
        let mut cfg = ExperimentConfig::quick(16);
        cfg.base_seed = 999;
        let c = evaluate(&s, &cfg).expect("evaluation runs");
        assert_ne!(
            a.of(Scheme::Gss).expect("GSS configured").energy.mean(),
            c.of(Scheme::Gss).expect("GSS configured").energy.mean()
        );
    }

    #[test]
    fn npm_never_changes_speed_gss_does() {
        let res = evaluate(&setup(), &ExperimentConfig::quick(16)).expect("evaluation runs");
        let npm = res.of(Scheme::Npm).expect("NPM configured");
        assert_eq!(npm.speed_changes.mean(), 0.0);
        let gss = res.of(Scheme::Gss).expect("GSS configured");
        assert!(gss.speed_changes.mean() > 0.0);
    }

    #[test]
    fn zero_probability_fault_plan_reproduces_baseline() {
        let s = setup();
        let cfg = ExperimentConfig::quick(16);
        let clean = evaluate(&s, &cfg).expect("evaluation runs");
        let plan = FaultPlan::none();
        let faulted = evaluate_with_faults(&s, &cfg, Some(&plan)).expect("evaluation runs");
        for (a, b) in clean.stats.iter().zip(&faulted.stats) {
            assert_eq!(a.energy.mean(), b.energy.mean(), "{}", a.scheme);
            assert_eq!(a.speed_changes.mean(), b.speed_changes.mean());
            assert!(b.faults.is_clean());
        }
    }

    #[test]
    fn injected_overruns_are_counted_and_recovered() {
        let s = setup();
        let cfg = ExperimentConfig::quick(16);
        let plan = FaultPlan::overruns(0.5, 1.5, 77);
        let res = evaluate_with_faults(&s, &cfg, Some(&plan)).expect("evaluation runs");
        for stats in &res.stats {
            assert!(
                stats.faults.overruns_injected > 0,
                "{} saw no overruns at p=0.5",
                stats.scheme
            );
            assert!(stats.faults.overruns_detected > 0);
            assert_eq!(stats.recovery_energy.count(), 16);
        }
        // Same plan, same replication indices: every scheme sees the same
        // injection counts (the paired design extends to faults).
        let first = res.stats[0].faults.overruns_injected;
        for stats in &res.stats {
            assert_eq!(stats.faults.overruns_injected, first, "{}", stats.scheme);
        }
    }

    #[test]
    fn invalid_fault_plan_is_rejected() {
        let s = setup();
        let plan = FaultPlan {
            overrun_prob: 2.0,
            ..FaultPlan::none()
        };
        let err = evaluate_with_faults(&s, &ExperimentConfig::quick(4), Some(&plan))
            .expect_err("probability 2.0 is invalid");
        assert!(matches!(err, SimError::BadFaultPlan { .. }), "{err}");
    }
}
