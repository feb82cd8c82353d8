//! Integration tests for periodic (streaming) execution across schemes.

use pas_andor::core::{Scheme, Setup};
use pas_andor::power::ProcessorModel;
use pas_andor::sim::{run_stream, ExecTimeModel, Realization};
use pas_andor::workloads::VideoParams;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup() -> Setup {
    let g = VideoParams::default().build().unwrap().lower().unwrap();
    Setup::for_load(g, ProcessorModel::xscale(), 2, 0.6).unwrap()
}

fn frames(setup: &Setup, n: usize, seed: u64) -> Vec<Realization> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| setup.sample(&ExecTimeModel::paper_defaults(), &mut rng))
        .collect()
}

#[test]
fn every_scheme_streams_without_misses() {
    let s = setup();
    let fs = frames(&s, 20, 7);
    for scheme in Scheme::ALL {
        for carry in [false, true] {
            let sim = s.simulator(false);
            let mut policy = s.policy(scheme);
            let out = run_stream(&sim, policy.as_mut(), &fs, carry, None).expect("stream runs");
            assert_eq!(
                out.misses,
                0,
                "{} missed deadlines in stream (carry={carry})",
                scheme.name()
            );
            assert_eq!(out.frame_finish.len(), 20);
            for f in &out.frame_finish {
                assert!(*f <= s.plan.deadline + 1e-9);
            }
        }
    }
}

#[test]
fn cold_stream_equals_independent_runs() {
    let s = setup();
    let fs = frames(&s, 10, 13);
    for scheme in [Scheme::Gss, Scheme::As, Scheme::Spm] {
        let sim = s.simulator(false);
        let mut policy = s.policy(scheme);
        let stream_energy = run_stream(&sim, policy.as_mut(), &fs, false, None)
            .expect("stream runs")
            .total_energy();
        let sum: f64 = fs
            .iter()
            .map(|r| s.run(scheme, r).expect("run succeeds").total_energy())
            .sum();
        assert!(
            (stream_energy - sum).abs() < 1e-6,
            "{}: {} vs {}",
            scheme.name(),
            stream_energy,
            sum
        );
    }
}

#[test]
fn warm_stream_energy_stays_close_to_cold() {
    // Carrying DVS state only changes transition timing/counts; at the
    // paper's µs-scale overheads the energy impact is tiny.
    let s = setup();
    let fs = frames(&s, 30, 99);
    for scheme in Scheme::MANAGED {
        let sim = s.simulator(false);
        let mut policy = s.policy(scheme);
        let cold = run_stream(&sim, policy.as_mut(), &fs, false, None)
            .expect("stream runs")
            .total_energy();
        let warm = run_stream(&sim, policy.as_mut(), &fs, true, None)
            .expect("stream runs")
            .total_energy();
        let rel = (warm - cold).abs() / cold;
        assert!(
            rel < 0.01,
            "{}: warm/cold energy diverged by {:.3}%",
            scheme.name(),
            rel * 100.0
        );
    }
}

#[test]
fn stream_determinism() {
    let s = setup();
    let fs = frames(&s, 8, 5);
    let sim = s.simulator(false);
    let mut p1 = s.policy(Scheme::As);
    let a = run_stream(&sim, p1.as_mut(), &fs, true, None).expect("stream runs");
    let mut p2 = s.policy(Scheme::As);
    let b = run_stream(&sim, p2.as_mut(), &fs, true, None).expect("stream runs");
    assert_eq!(a.total_energy(), b.total_energy());
    assert_eq!(a.frame_finish, b.frame_finish);
    assert_eq!(a.speed_changes(), b.speed_changes());
}
