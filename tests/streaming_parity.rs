//! Streaming-sink parity and per-section attribution invariants.
//!
//! The streaming pipeline is only trustworthy if consuming the event
//! stream incrementally yields *exactly* what buffering it would: the
//! JSONL sink fed by the engine must write byte-for-byte what the same
//! sink writes replaying the buffered log, and the sectioned ledger's
//! slices must partition the engine's meter
//! total — globally and per program section — within the documented
//! 1e-9 tolerance, under every scheme, both paper platforms, and
//! arbitrary fault plans.

use pas_andor::core::{Scheme, Setup};
use pas_andor::obs::{EventLog, Fanout, JsonlSink, Observer, RingLog, SectionedLedger, SimEvent};
use pas_andor::power::ProcessorModel;
use pas_andor::sim::{run_stream, ExecTimeModel, FaultPlan, Realization};
use pas_andor::workloads::RandomAppParams;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn both_platforms() -> [ProcessorModel; 2] {
    [ProcessorModel::transmeta5400(), ProcessorModel::xscale()]
}

/// The JSONL a fresh sink writes replaying a buffered log.
fn replayed_jsonl(events: &[SimEvent]) -> String {
    let mut sink = JsonlSink::new(Vec::new());
    events.iter().for_each(|ev| sink.on_event(ev));
    String::from_utf8(sink.finish().expect("in-memory sink")).expect("utf-8")
}

/// One observed run streaming into `observer`, mirroring `observed_run`
/// in `tests/obs_events.rs` but through the incremental path.
fn run_streaming(
    setup: &Setup,
    scheme: Scheme,
    real: &Realization,
    faults: Option<&pas_andor::sim::FaultSet>,
    observer: &mut dyn Observer,
) -> pas_andor::sim::RunResult {
    let mut policy = setup.policy(scheme);
    setup
        .simulator(false)
        .run_observed(policy.as_mut(), real, None, faults, Some(observer))
        .expect("observed run succeeds")
}

#[test]
fn streamed_jsonl_is_byte_identical_to_replayed_log() {
    for model in both_platforms() {
        let app = pas_andor::experiments::figures::atr_app();
        let setup = Setup::for_load(app, model, 2, 0.5).expect("feasible");
        let mut rng = StdRng::seed_from_u64(11);
        let real = setup.sample(&ExecTimeModel::paper_defaults(), &mut rng);
        for scheme in Scheme::ALL {
            // Buffered: record everything, then replay into a sink.
            let mut log = EventLog::new();
            run_streaming(&setup, scheme, &real, None, &mut log);
            let buffered = replayed_jsonl(log.events());
            // Streamed: every event hits the sink as it is emitted.
            let mut sink = JsonlSink::new(Vec::new());
            run_streaming(&setup, scheme, &real, None, &mut sink);
            let streamed =
                String::from_utf8(sink.finish().expect("in-memory sink")).expect("utf-8");
            assert_eq!(
                streamed,
                buffered,
                "{}: stream/buffer divergence",
                scheme.name()
            );
        }
    }
}

#[test]
fn sectioned_ledger_partitions_energy_for_every_scheme_and_platform() {
    for model in both_platforms() {
        let app = pas_andor::experiments::figures::atr_app();
        let setup = Setup::for_load(app, model, 2, 0.5).expect("feasible");
        let mut rng = StdRng::seed_from_u64(23);
        let real = setup.sample(&ExecTimeModel::paper_defaults(), &mut rng);
        for scheme in Scheme::ALL {
            let mut ledger = SectionedLedger::new();
            let res = run_streaming(&setup, scheme, &real, None, &mut ledger);
            // verify() checks both invariants: total vs engine meter, and
            // slice sum vs total — each within 1e-9 relative tolerance.
            ledger
                .verify(res.total_energy())
                .unwrap_or_else(|m| panic!("{}: {m}", scheme.name()));
            // The ATR app's OR boundaries must actually split the stream.
            assert!(
                ledger.slices().len() > 1,
                "{}: no section boundaries observed",
                scheme.name()
            );
        }
    }
}

#[test]
fn ring_log_bounds_memory_while_counting_a_long_stream() {
    let app = pas_andor::experiments::figures::atr_app();
    let setup = Setup::for_load(app, ProcessorModel::xscale(), 2, 0.5).expect("feasible");
    let mut rng = StdRng::seed_from_u64(5);
    let etm = ExecTimeModel::paper_defaults();
    let frames: Vec<Realization> = (0..50).map(|_| setup.sample(&etm, &mut rng)).collect();
    let sim = setup.simulator(false);
    let mut policy = setup.policy(Scheme::Gss);
    let mut ring = RingLog::new(64);
    let mut ledger = SectionedLedger::new();
    let res = {
        let mut fan = Fanout::new().with(&mut ring).with(&mut ledger);
        run_stream(&sim, policy.as_mut(), &frames, false, Some(&mut fan)).expect("stream runs")
    };
    assert!(ring.seen() > 64, "stream long enough to wrap the ring");
    assert_eq!(ring.len(), 64, "ring stays at capacity");
    assert_eq!(ring.peak_occupancy(), 64);
    // The ledger still accounts for the *whole* stream, not the window.
    ledger
        .verify(res.total_energy())
        .expect("ledger sums over all frames");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// Streamed export parity and the sectioned-ledger partition hold on
    /// arbitrary applications and random fault plans, for all six
    /// schemes — faults inject recovery energy and retry events, which
    /// must land in the correct section slice like everything else.
    #[test]
    fn streaming_invariants_hold_under_random_fault_plans(
        app_seed in 0u64..10_000,
        real_seed in 0u64..10_000,
        xscale in 0u8..2,
        load in 0.3f64..0.8,
        overrun_prob in 0.0f64..0.6,
        overrun_factor in 1.05f64..2.0,
        speed_fail_prob in 0.0f64..0.4,
        stall_prob in 0.0f64..0.3,
        stall_ms in 0.1f64..3.0,
        fault_seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(app_seed);
        let app = RandomAppParams::default().generate(&mut rng).lower().unwrap();
        let model = if xscale == 1 {
            ProcessorModel::xscale()
        } else {
            ProcessorModel::transmeta5400()
        };
        let setup = Setup::for_load(app, model, 2, load).expect("feasible");
        let mut rng = StdRng::seed_from_u64(real_seed);
        let real = setup.sample(&ExecTimeModel::paper_defaults(), &mut rng);
        let plan = FaultPlan {
            overrun_prob,
            overrun_factor,
            speed_fail_prob,
            stall_prob,
            stall_ms,
            seed: fault_seed,
        };
        plan.validate().expect("plan in range");
        let faults = plan.realize(&setup.graph, real_seed);
        for scheme in Scheme::ALL {
            let mut log = EventLog::new();
            run_streaming(&setup, scheme, &real, Some(&faults), &mut log);
            let buffered = replayed_jsonl(log.events());
            let mut sink = JsonlSink::new(Vec::new());
            let mut ledger = SectionedLedger::new();
            let res = {
                let mut fan = Fanout::new().with(&mut sink).with(&mut ledger);
                run_streaming(&setup, scheme, &real, Some(&faults), &mut fan)
            };
            let streamed =
                String::from_utf8(sink.finish().expect("in-memory sink")).expect("utf-8");
            prop_assert_eq!(&streamed, &buffered, "{}: stream/buffer divergence", scheme.name());
            ledger
                .verify(res.total_energy())
                .unwrap_or_else(|m| panic!("{}: {m}", scheme.name()));
        }
    }

    /// Multi-frame parity: streaming N frames through one sink equals
    /// the concatenation of N replayed single-frame logs, and one
    /// ledger accounts for the whole stream.
    #[test]
    fn multi_frame_stream_equals_concatenated_frames(
        real_seed in 0u64..5_000,
        n_frames in 1usize..6,
    ) {
        let app = pas_andor::experiments::figures::atr_app();
        let setup = Setup::for_load(app, ProcessorModel::xscale(), 2, 0.5).expect("feasible");
        let mut rng = StdRng::seed_from_u64(real_seed);
        let etm = ExecTimeModel::paper_defaults();
        let frames: Vec<Realization> =
            (0..n_frames).map(|_| setup.sample(&etm, &mut rng)).collect();
        let sim = setup.simulator(false);
        let mut policy = setup.policy(Scheme::Ss2);
        let mut sink = JsonlSink::new(Vec::new());
        let mut ledger = SectionedLedger::new();
        let res = {
            let mut fan = Fanout::new().with(&mut sink).with(&mut ledger);
            run_stream(&sim, policy.as_mut(), &frames, false, Some(&mut fan))
                .expect("stream runs")
        };
        let mut buffered = String::new();
        for real in &frames {
            let mut log = EventLog::new();
            run_streaming(&setup, Scheme::Ss2, real, None, &mut log);
            buffered.push_str(&replayed_jsonl(log.events()));
        }
        let streamed =
            String::from_utf8(sink.finish().expect("in-memory sink")).expect("utf-8");
        prop_assert_eq!(streamed, buffered);
        ledger.verify(res.total_energy()).expect("stream-wide ledger");
    }
}
