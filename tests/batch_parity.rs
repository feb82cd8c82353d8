//! The batched Monte-Carlo engine's determinism contract, pinned at the
//! workspace level: per-seed results of `mp_sim::run_batch` are
//! bit-identical to the sequential engine — across every scheme, both
//! paper platforms, and arbitrary fault plans — and the batch
//! distribution summaries equal a fold over the sequential runs.
//!
//! The contract itself is documented in `docs/simulator.md`; these tests
//! are the enforcement the doc points at.

use pas_andor::core::{Scheme, Setup};
use pas_andor::power::{EnergyMeter, ProcessorModel};
use pas_andor::sim::{
    realization_seed, run_batch, run_paired, BatchConfig, BatchDistribution, BatchOutput,
    DeadlineStatus, ExecTimeModel, FaultPlan, Lane, Policy, Realization, RunResult, RunScratch,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Flattens every field of a [`RunResult`] into bit patterns, so equality
/// means *bit-identical*, not merely approximately equal. `RunResult` has
/// no `PartialEq` on purpose — float comparison policy belongs to the
/// caller — so the tests spell the policy out: exact bits, all fields.
fn fingerprint(r: &RunResult) -> Vec<u64> {
    let mut v = vec![
        r.finish_time.to_bits(),
        r.deadline.to_bits(),
        u64::from(r.missed_deadline),
    ];
    match r.status {
        DeadlineStatus::Met { slack } => {
            v.push(0);
            v.push(slack.to_bits());
        }
        DeadlineStatus::Missed { by } => {
            v.push(1);
            v.push(by.to_bits());
        }
    }
    v.push(r.faults.overruns_injected);
    v.push(r.faults.speed_failures_injected);
    v.push(r.faults.stalls_injected);
    v.push(r.faults.overruns_detected);
    v.push(r.faults.recoveries);
    v.push(r.faults.recovery_energy.to_bits());
    meter(&r.energy, &mut v);
    // Neither engine records a trace here (`record_trace` unset).
    v.push(r.trace.as_ref().map_or(0, |t| t.len() as u64));
    v
}

fn meter(m: &EnergyMeter, out: &mut Vec<u64>) {
    out.push(m.busy_energy().to_bits());
    out.push(m.idle_energy().to_bits());
    out.push(m.transition_energy().to_bits());
    out.push(m.busy_time().to_bits());
    out.push(m.idle_time().to_bits());
    out.push(m.transition_time().to_bits());
    out.push(m.speed_changes());
}

/// The per-processor state a run leaves in its [`RunScratch`] (meters,
/// final operating points, per-section energy), as bit patterns.
fn scratch_fingerprint(s: &RunScratch) -> Vec<u64> {
    let mut v = vec![s.meters().len() as u64];
    for m in s.meters() {
        meter(m, &mut v);
    }
    v.push(s.final_points().len() as u64);
    for p in s.final_points() {
        v.push(p.speed.to_bits());
        v.push(p.power.to_bits());
    }
    v.push(s.section_energy().len() as u64);
    v.extend(s.section_energy().iter().map(|e| e.to_bits()));
    v
}

/// Runs the sequential reference for realization `index`: fresh RNG from
/// the published seeding contract, fresh policy, fresh scratch.
fn sequential_run(
    setup: &Setup,
    scheme: Scheme,
    etm: &ExecTimeModel,
    faults: Option<&FaultPlan>,
    base_seed: u64,
    index: u64,
) -> RunResult {
    let sim = setup.simulator(false);
    let mut rng = StdRng::seed_from_u64(realization_seed(base_seed, index));
    let real = Realization::sample(&setup.graph, &setup.sections, etm, &mut rng);
    let fs = faults.map(|plan| plan.realize(&setup.graph, index));
    let mut policy = setup.policy(scheme);
    sim.run_observed(policy.as_mut(), &real, None, fs.as_ref(), None)
        .expect("sequential run succeeds")
}

/// Every scheme on both paper platforms: batched results are bit-identical
/// to the sequential engine, fault-free.
#[test]
fn batch_is_bit_identical_across_schemes_and_platforms() {
    const RUNS: usize = 12;
    const SEED: u64 = 0xD1CE;
    let etm = ExecTimeModel::paper_defaults();
    for (platform, model) in [
        ("transmeta", ProcessorModel::transmeta5400()),
        ("xscale", ProcessorModel::xscale()),
    ] {
        let app = pas_andor::workloads::synthetic_app()
            .lower()
            .expect("lowers");
        let setup = Setup::for_load(app, model, 2, 0.5).expect("feasible");
        for scheme in Scheme::ALL {
            let sim = setup.simulator(false);
            let mut cfg = BatchConfig::new(RUNS, SEED);
            cfg.chunk = 5; // uneven chunking must not matter
            cfg.keep_results = true;
            let out =
                run_batch(&sim, &etm, None, || setup.policy(scheme), &cfg).expect("batch runs");
            let results = out.results.as_ref().expect("keep_results set");
            assert_eq!(results.len(), RUNS);
            for (i, batched) in results.iter().enumerate() {
                let seq = sequential_run(&setup, scheme, &etm, None, SEED, i as u64);
                assert_eq!(
                    fingerprint(batched),
                    fingerprint(&seq),
                    "{} on {platform}: realization {i} diverged",
                    scheme.name(),
                );
            }
        }
    }
}

/// Reusing one [`RunScratch`] across runs leaves no trace: a sequence of
/// realizations run through one reused scratch matches fresh scratches
/// bit for bit — the result, the meters, the final operating points and
/// the per-section energy. The sequence covers every scheme, a fault plan,
/// a run with carried-in `initial` points, and processor counts that
/// shrink and grow the scratch.
#[test]
fn reused_scratch_matches_fresh_scratch_bit_for_bit() {
    const SEED: u64 = 0x5C4A;
    let etm = ExecTimeModel::paper_defaults();
    let plan = FaultPlan {
        overrun_prob: 0.3,
        overrun_factor: 1.5,
        speed_fail_prob: 0.2,
        stall_prob: 0.2,
        stall_ms: 0.5,
        seed: 5,
    };
    let setups: Vec<Setup> = [4, 2]
        .into_iter()
        .map(|procs| {
            let app = pas_andor::workloads::synthetic_app()
                .lower()
                .expect("lowers");
            Setup::for_load(app, ProcessorModel::xscale(), procs, 0.5).expect("feasible")
        })
        .collect();
    let mut reused = RunScratch::new();
    let (mut index, mut faulted, mut carried) = (0u64, 0, 0);
    for scheme in Scheme::ALL {
        for setup in &setups {
            let sim = setup.simulator(false);
            let initial = vec![setup.model.quantize_up(0.5); setup.plan.num_procs];
            for (faults, initial) in [
                (None, None),
                (Some(&plan), None),
                (None, Some(initial.as_slice())),
            ] {
                let mut rng = StdRng::seed_from_u64(realization_seed(SEED, index));
                let real = Realization::sample(&setup.graph, &setup.sections, &etm, &mut rng);
                let fs = faults.map(|p: &FaultPlan| p.realize(&setup.graph, index));
                let run = |scratch: &mut RunScratch| {
                    sim.run_into(
                        scratch,
                        setup.policy(scheme).as_mut(),
                        &real,
                        initial,
                        fs.as_ref(),
                        None,
                    )
                    .expect("run succeeds")
                };
                let a = run(&mut reused);
                let mut fresh = RunScratch::new();
                let b = run(&mut fresh);
                let what = format!(
                    "{} on {} procs, run {index}",
                    scheme.name(),
                    sim.config().num_procs
                );
                assert_eq!(fingerprint(&a), fingerprint(&b), "{what}: result");
                assert_eq!(
                    scratch_fingerprint(&reused),
                    scratch_fingerprint(&fresh),
                    "{what}: scratch"
                );
                faulted += usize::from(!a.faults.is_clean());
                carried += usize::from(initial.is_some());
                index += 1;
            }
        }
    }
    assert!(faulted > 0, "the fault plan never fired");
    assert_eq!(carried, Scheme::ALL.len() * setups.len());
}

/// Every column of a [`BatchOutput`] as bit patterns, kept results and
/// observability counts included.
fn columns(out: &BatchOutput) -> Vec<u64> {
    let mut v = vec![out.n_sections as u64, out.len() as u64];
    v.extend(out.finish_time.iter().map(|x| x.to_bits()));
    v.extend(out.missed.iter().map(|&m| u64::from(m)));
    v.extend(out.energy.iter().map(|x| x.to_bits()));
    v.extend(&out.speed_changes);
    v.extend(out.section_energy.iter().map(|x| x.to_bits()));
    v.push(out.events_sampled);
    v.push(out.runs_sampled);
    for r in out.results.as_deref().unwrap_or_default() {
        v.extend(fingerprint(r));
    }
    v
}

/// The paired kernel over the six schemes and the oracle equals one
/// single-policy `run_batch` per lane, column for column and bit for bit:
/// drawing each realization once for every lane changes nothing, under a
/// fault plan, uneven chunking, a sliced start and observability sampling.
#[test]
fn paired_lanes_equal_single_policy_batches() {
    const SEED: u64 = 0xBA1D;
    let etm = ExecTimeModel::paper_defaults();
    let plan = FaultPlan {
        overrun_prob: 0.3,
        overrun_factor: 1.5,
        speed_fail_prob: 0.1,
        stall_prob: 0.2,
        stall_ms: 0.5,
        seed: 3,
    };
    let app = pas_andor::workloads::synthetic_app()
        .lower()
        .expect("lowers");
    let setup = Setup::for_load(app, ProcessorModel::xscale(), 2, 0.5).expect("feasible");
    let sim = setup.simulator(false);
    let mut cfg = BatchConfig::new(23, SEED);
    cfg.start_index = 4;
    cfg.chunk = 5;
    cfg.observe_stride = 3;
    cfg.keep_results = true;
    let width = Scheme::ALL.len() + 1;
    let policy = |k: usize| -> Box<dyn Policy + '_> {
        match Scheme::ALL.get(k) {
            Some(&scheme) => setup.policy(scheme),
            None => Box::new(setup.oracle()),
        }
    };
    let lanes = || {
        (0..width)
            .map(|k| Lane {
                policy: policy(k),
                faulted: true,
            })
            .collect()
    };
    let paired: Vec<BatchOutput> = run_paired(
        &sim,
        &etm,
        Some(&plan),
        lanes,
        |i| realization_seed(SEED, i),
        &cfg,
    )
    .expect("paired batch runs");
    assert_eq!(paired.len(), width);
    for (k, lane) in paired.iter().enumerate() {
        let single = run_batch(&sim, &etm, Some(&plan), || policy(k), &cfg).expect("batch runs");
        assert!(single.runs_sampled > 0, "lane {k}: nothing sampled");
        assert!(
            single
                .results
                .iter()
                .flatten()
                .any(|r| !r.faults.is_clean()),
            "lane {k}: the fault plan never fired"
        );
        assert_eq!(columns(lane), columns(&single), "lane {k} diverged");
    }
}

/// Batch distribution summaries equal a fold over the sequential runs:
/// same histogram counts, bit-identical streaming moments, same miss
/// tally — because both fold realizations in index order.
#[test]
fn distributions_equal_a_sequential_fold() {
    const RUNS: usize = 48;
    const SEED: u64 = 0xF01D;
    let etm = ExecTimeModel::paper_defaults();
    let app = pas_andor::workloads::synthetic_app()
        .lower()
        .expect("lowers");
    let setup = Setup::for_load(app, ProcessorModel::transmeta5400(), 2, 0.5).expect("feasible");
    let scheme = Scheme::Gss;
    let sim = setup.simulator(false);
    let cfg = BatchConfig::new(RUNS, SEED);
    let out = run_batch(&sim, &etm, None, || setup.policy(scheme), &cfg).expect("batch runs");

    let e_hi = setup.plan.num_procs as f64 * setup.plan.deadline;
    let t_hi = setup.plan.deadline * 1.5;
    let batch_dist = BatchDistribution::from_output(&out, e_hi, t_hi, 128).expect("dist builds");

    let mut seq_dist =
        BatchDistribution::new(e_hi, t_hi, setup.sections.len(), 128).expect("dist builds");
    for i in 0..RUNS as u64 {
        let r = sequential_run(&setup, scheme, &etm, None, SEED, i);
        // The sequential engine has no per-section column; reuse the
        // batch's row, which the bit-identity test above already ties to
        // the same run.
        seq_dist.push(
            r.total_energy(),
            r.finish_time,
            r.missed_deadline,
            out.section_row(i as usize),
        );
    }
    assert_eq!(batch_dist.runs(), seq_dist.runs());
    assert_eq!(batch_dist.misses(), seq_dist.misses());
    for (a, b) in [
        (batch_dist.energy(), seq_dist.energy()),
        (batch_dist.makespan(), seq_dist.makespan()),
    ] {
        assert_eq!(a.histogram().counts(), b.histogram().counts());
        assert_eq!(a.summary().mean().to_bits(), b.summary().mean().to_bits());
        assert_eq!(a.max().to_bits(), b.max().to_bits());
    }
    for (a, b) in batch_dist.sections().iter().zip(seq_dist.sections()) {
        assert_eq!(a.histogram().counts(), b.histogram().counts());
        assert_eq!(a.summary().mean().to_bits(), b.summary().mean().to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random fault plans cannot break the contract: injected overruns,
    /// speed failures and stalls are realized per global index, so the
    /// batched engine sees exactly the faults the sequential loop would.
    #[test]
    fn batch_matches_sequential_under_random_faults(
        scheme_idx in 0usize..Scheme::ALL.len(),
        xscale in 0usize..2,
        overrun_prob in 0.0f64..0.5,
        overrun_factor in 1.0f64..2.0,
        speed_fail_prob in 0.0f64..0.3,
        stall_prob in 0.0f64..0.3,
        stall_ms in 0.0f64..2.0,
        fault_seed in 0u64..1_000,
        base_seed in 0u64..1_000,
        chunk in 1usize..9,
    ) {
        let scheme = Scheme::ALL[scheme_idx];
        let model = if xscale == 1 {
            ProcessorModel::xscale()
        } else {
            ProcessorModel::transmeta5400()
        };
        let plan = FaultPlan {
            overrun_prob,
            overrun_factor,
            speed_fail_prob,
            stall_prob,
            stall_ms,
            seed: fault_seed,
        };
        plan.validate().expect("generated plan is valid");
        let etm = ExecTimeModel::paper_defaults();
        let app = pas_andor::workloads::synthetic_app().lower().expect("lowers");
        let setup = Setup::for_load(app, model, 2, 0.5).expect("feasible");
        let sim = setup.simulator(false);
        let mut cfg = BatchConfig::new(8, base_seed);
        cfg.chunk = chunk;
        cfg.keep_results = true;
        let out = run_batch(&sim, &etm, Some(&plan), || setup.policy(scheme), &cfg)
            .expect("batch runs");
        let results = out.results.as_ref().expect("keep_results set");
        for (i, batched) in results.iter().enumerate() {
            let seq = sequential_run(&setup, scheme, &etm, Some(&plan), base_seed, i as u64);
            prop_assert_eq!(
                fingerprint(batched),
                fingerprint(&seq),
                "{} realization {} diverged (chunk {})",
                scheme.name(),
                i,
                chunk
            );
        }
    }
}
