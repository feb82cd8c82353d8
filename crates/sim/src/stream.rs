//! Periodic (streaming) execution: back-to-back frame instances.
//!
//! The paper's motivating application processes a *stream* of frames, one
//! application instance per period. Its evaluation simulates instances
//! independently (every run starts at the maximum operating point); this
//! module additionally supports the realistic alternative where DVS state
//! *carries over* — the first task of frame `k+1` starts at whatever
//! voltage/frequency frame `k` ended on, which saves a transition whenever
//! adjacent frames want similar speeds.
//!
//! Each frame is scheduled against its own period/deadline, exactly like a
//! single engine run; the deadline guarantee applies per frame, so the
//! stream never drifts (frame `k` always completes by its release point
//! plus the period).

use crate::engine::{RunScratch, Simulator};
use crate::error::SimError;
use crate::policy::Policy;
use crate::realization::Realization;
use dvfs_power::{EnergyMeter, OperatingPoint};
use pas_obs::Observer;
use serde::{Deserialize, Serialize};

/// Aggregate outcome of a frame stream.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamResult {
    /// Frame-local finish time of each instance (ms within its period).
    pub frame_finish: Vec<f64>,
    /// Number of frames that missed their deadline (must stay 0 for the
    /// guaranteed schemes).
    pub misses: u64,
    /// Energy aggregated over all frames and processors.
    pub energy: EnergyMeter,
}

impl StreamResult {
    /// Total energy over the stream.
    pub fn total_energy(&self) -> f64 {
        self.energy.total_energy()
    }

    /// Voltage/speed changes over the stream.
    pub fn speed_changes(&self) -> u64 {
        self.energy.speed_changes()
    }
}

/// Runs one realization per frame, optionally carrying each processor's
/// operating point into the next frame, and optionally streaming every
/// frame's schedule actions to `observer` as typed
/// [`pas_obs::SimEvent`]s. All frames run through one reused
/// [`RunScratch`].
///
/// With `carry_state == false` every frame starts at the maximum operating
/// point — the paper's independent-instances assumption. With `true`, the
/// final operating points of each run seed the next, modelling hardware
/// whose DVS setting persists across frames.
///
/// The observer sees each event the moment the engine emits it, across
/// all frames, so a sink such as `pas_obs::JsonlSink` can export an
/// arbitrarily long stream in O(1) event memory (no per-frame `EventLog`
/// is ever built). Event times are frame-local — each frame restarts its
/// clock at its release point, and the `OrBranchTaken` boundaries keep
/// per-section accounting segmentable across frames.
///
/// # Errors
///
/// Returns the first [`SimError`] any frame's run produces (a dispatch
/// order or realization inconsistent with the graph).
pub fn run_stream(
    sim: &Simulator<'_>,
    policy: &mut dyn Policy,
    frames: &[Realization],
    carry_state: bool,
    mut observer: Option<&mut dyn Observer>,
) -> Result<StreamResult, SimError> {
    let mut frame_finish = Vec::with_capacity(frames.len());
    let mut misses = 0u64;
    let mut energy = EnergyMeter::new();
    let mut scratch = RunScratch::new();
    let mut carried: Vec<OperatingPoint> = Vec::new();
    for real in frames {
        // Reborrow rather than move so the observer survives the loop. The
        // explicit cast keeps the reborrow's lifetime local to this
        // iteration (a plain `as_deref_mut()` pins it to the outer `'_`).
        let obs = observer.as_mut().map(|o| &mut **o as &mut dyn Observer);
        let initial = (!carried.is_empty()).then_some(carried.as_slice());
        let res = sim.run_into(&mut scratch, policy, real, initial, None, obs)?;
        frame_finish.push(res.finish_time);
        misses += res.missed_deadline as u64;
        energy.merge(&res.energy);
        if carry_state {
            carried.clear();
            carried.extend_from_slice(scratch.final_points());
        }
    }
    Ok(StreamResult {
        frame_finish,
        misses,
        energy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DispatchOrder, SimConfig};
    use crate::policy::{DispatchCtx, MaxSpeed, SpeedDecision};
    use crate::realization::ExecTimeModel;
    use andor_graph::{NodeId, SectionGraph, Segment};
    use dvfs_power::{Overheads, ProcessorModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn app() -> (andor_graph::AndOrGraph, SectionGraph) {
        let g = Segment::seq([
            Segment::task("A", 4.0, 2.0),
            Segment::branch([
                (0.5, Segment::task("B", 6.0, 3.0)),
                (0.5, Segment::task("C", 2.0, 1.0)),
            ]),
        ])
        .lower()
        .expect("fixture lowers");
        let sg = SectionGraph::build(&g).expect("fixture sections");
        (g, sg)
    }

    /// A constant-speed policy on a discrete table, to make carried state
    /// observable (the second frame needs no transition).
    struct HalfSpeed {
        model: ProcessorModel,
    }

    impl Policy for HalfSpeed {
        fn name(&self) -> &str {
            "half"
        }
        fn speed_for(&mut self, _t: NodeId, _c: &DispatchCtx) -> SpeedDecision {
            SpeedDecision {
                point: self.model.quantize_up(0.5),
                ran_pmp: false,
            }
        }
    }

    fn frames(g: &andor_graph::AndOrGraph, sg: &SectionGraph, n: usize) -> Vec<Realization> {
        let mut rng = StdRng::seed_from_u64(11);
        (0..n)
            .map(|_| Realization::sample(g, sg, &ExecTimeModel::paper_defaults(), &mut rng))
            .collect()
    }

    fn cfg(d: f64) -> SimConfig {
        SimConfig {
            num_procs: 1,
            deadline: d,
            idle_fraction: 0.05,
            static_fraction: 0.0,
            overheads: Overheads::new(0.0, 0.1).expect("valid overheads"),
            record_trace: false,
        }
    }

    #[test]
    fn carry_state_saves_transitions() {
        let (g, sg) = app();
        let order = DispatchOrder::topological(&g, &sg);
        let model = ProcessorModel::xscale();
        let sim = Simulator::new(&g, &sg, &order, &model, cfg(40.0));
        let fs = frames(&g, &sg, 8);
        let mut policy = HalfSpeed {
            model: model.clone(),
        };
        let cold = run_stream(&sim, &mut policy, &fs, false, None).expect("stream runs");
        let warm = run_stream(&sim, &mut policy, &fs, true, None).expect("stream runs");
        // Cold: one down-transition per frame. Warm: only the first frame
        // transitions; later frames inherit the 0.6 level.
        assert_eq!(cold.speed_changes(), 8);
        assert_eq!(warm.speed_changes(), 1);
        assert!(warm.total_energy() < cold.total_energy());
        assert_eq!(cold.misses, 0);
        assert_eq!(warm.misses, 0);
        assert_eq!(warm.frame_finish.len(), 8);
    }

    #[test]
    fn npm_stream_is_state_invariant() {
        // NPM never leaves the max point, so carrying state is a no-op.
        let (g, sg) = app();
        let order = DispatchOrder::topological(&g, &sg);
        let model = ProcessorModel::xscale();
        let sim = Simulator::new(&g, &sg, &order, &model, cfg(40.0));
        let fs = frames(&g, &sg, 5);
        let cold = run_stream(&sim, &mut MaxSpeed, &fs, false, None).expect("stream runs");
        let warm = run_stream(&sim, &mut MaxSpeed, &fs, true, None).expect("stream runs");
        assert_eq!(cold.total_energy(), warm.total_energy());
        assert_eq!(cold.speed_changes(), 0);
    }

    #[test]
    fn observed_stream_feeds_every_frame_incrementally() {
        use pas_obs::{JsonlSink, SectionedLedger};

        let (g, sg) = app();
        let order = DispatchOrder::topological(&g, &sg);
        let model = ProcessorModel::xscale();
        let sim = Simulator::new(&g, &sg, &order, &model, cfg(40.0));
        let fs = frames(&g, &sg, 4);
        // One JSONL sink + sectioned ledger over the whole stream.
        let mut sink = JsonlSink::new(Vec::new());
        let mut ledger = SectionedLedger::new();
        let res = {
            let mut fan = pas_obs::Fanout::new().with(&mut sink).with(&mut ledger);
            run_stream(&sim, &mut MaxSpeed, &fs, false, Some(&mut fan)).expect("stream runs")
        };
        // The stream total is exactly the event-attributed total, and the
        // per-section slices still partition it.
        ledger
            .verify(res.total_energy())
            .expect("ledger sums over all frames");
        // The streamed dump equals a sink replaying the per-frame
        // buffered logs in order (same engine, same realizations).
        let mut replay = JsonlSink::new(Vec::new());
        for real in &fs {
            let mut log = pas_obs::EventLog::new();
            sim.run_observed(&mut MaxSpeed, real, None, None, Some(&mut log))
                .expect("run succeeds");
            log.events().iter().for_each(|ev| replay.on_event(ev));
        }
        let streamed = sink.finish().expect("vec sink");
        assert_eq!(streamed, replay.finish().expect("vec sink"));
        // One OrBranchTaken per frame -> root + 4 branch slices.
        assert_eq!(ledger.slices().len(), 1 + fs.len());
    }

    #[test]
    fn stream_energy_is_sum_of_frames() {
        let (g, sg) = app();
        let order = DispatchOrder::topological(&g, &sg);
        let model = ProcessorModel::xscale();
        let sim = Simulator::new(&g, &sg, &order, &model, cfg(40.0));
        let fs = frames(&g, &sg, 4);
        let total = run_stream(&sim, &mut MaxSpeed, &fs, false, None)
            .expect("stream runs")
            .total_energy();
        let manual: f64 = fs
            .iter()
            .map(|r| {
                sim.run(&mut MaxSpeed, r)
                    .expect("run succeeds")
                    .total_energy()
            })
            .sum();
        assert!((total - manual).abs() < 1e-9);
    }
}
