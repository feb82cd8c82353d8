//! A *literal* interpreter of the paper's Figure-2 algorithm.
//!
//! [`Simulator`](crate::Simulator) computes the schedule with closed-form
//! max/plus dispatch expressions. This module implements the same
//! semantics the way the paper presents them — processor agents around a
//! shared ready queue:
//!
//! * a global Ready-Q ordered by canonical execution order;
//! * a next-expected-order counter (`NEO`); a processor whose head-of-queue
//!   task is not the next expected one goes to sleep (`wait()`) and is
//!   signalled when the expected task becomes ready;
//! * unfinished-predecessor counters (`UP`) decremented on completion;
//! * dummy AND nodes handled instantly; OR nodes firing at section drain
//!   and enqueueing the selected branch;
//!
//! driven by an explicit event queue. It exists for *differential
//! testing*: `tests/differential.rs` checks that this agent-level
//! simulation and the fast engine produce identical schedules, which
//! validates the engine's algebraic shortcuts against the paper's own
//! formulation. It is O(n log n) with much larger constants — use the fast
//! engine for experiments.

// Same invariant as the fast engine: per-node vectors (`UP` counters,
// ready flags, section populations) are sized to `g.len()` up front and
// indexed by validated `NodeId`s, so indexing cannot go out of bounds.
#![allow(clippy::indexing_slicing)]

use crate::engine::{DispatchOrder, SimConfig};
use crate::error::SimError;
use crate::policy::{DispatchCtx, Policy};
use crate::realization::Realization;
use andor_graph::{AndOrGraph, NodeId, SectionGraph, SectionId};
use dvfs_power::{EnergyMeter, OperatingPoint, ProcessorModel};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Outcome of a literal run (subset of the fast engine's result — enough
/// for differential comparison).
#[derive(Debug, Clone)]
pub struct LiteralResult {
    /// Application finish time (ms).
    pub finish_time: f64,
    /// Aggregated energy.
    pub energy: EnergyMeter,
    /// Dispatch log: `(node, proc, start)` in dispatch order.
    pub dispatches: Vec<(NodeId, usize, f64)>,
}

/// Time-ordered event. Ties break deterministically by the discriminant
/// order below, then payload.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// A node finished executing.
    Finished(NodeId),
    /// A processor finished its task and returns to the scheduler loop.
    ProcIdle(usize),
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Timed {
    time: f64,
    seq: u64,
    event: Event,
}

impl Eq for Timed {}

impl Ord for Timed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Timed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Runs one realization through the agent-level Figure-2 interpreter.
///
/// # Errors
///
/// Returns a [`SimError`] when the realization leaves a reachable OR
/// unresolved, an OR branch has no section, or the interpreter stalls
/// (dispatch order inconsistent with the graph).
pub fn run_literal(
    g: &AndOrGraph,
    sections: &SectionGraph,
    order: &DispatchOrder,
    model: &ProcessorModel,
    cfg: &SimConfig,
    policy: &mut dyn Policy,
    real: &Realization,
) -> Result<LiteralResult, SimError> {
    let m = cfg.num_procs;
    assert!(m > 0);
    policy.peek_realization(real)?;
    policy.begin_run();

    let mut finish: Vec<Option<f64>> = vec![None; g.len()];
    let mut meters = vec![EnergyMeter::new(); m];
    let mut point: Vec<OperatingPoint> = vec![model.max_point(); m];
    // Idle bookkeeping: processors waiting at the queue, ordered by how
    // long they have been idle (then index) — the paper's `wait()` set.
    let mut idle_since: Vec<Option<f64>> = vec![Some(0.0); m];

    // Per-section dispatch state.
    let mut cur: SectionId = sections.root();
    // Index into the current section's order (the paper's NEO counter).
    let mut neo: usize;
    let mut section_left; // unfinished nodes in the current section
                          // Ready flags: node is ready when all its in-scope preds finished.
    let mut up: Vec<usize> = vec![usize::MAX; g.len()];
    let mut ready_q: VecDeque<NodeId> = VecDeque::new();

    let mut events: BinaryHeap<Reverse<Timed>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut now = 0.0_f64;
    let mut dispatches = Vec::new();

    // Activates a section: initializes UP counters for its nodes (counting
    // only predecessors that have not already finished) and enqueues the
    // initially ready ones in canonical order.
    macro_rules! activate_section {
        ($sec:expr) => {{
            let list = &order.per_section[$sec.index()];
            section_left = list.len();
            neo = 0;
            ready_q.clear();
            for &n in list {
                let pending = g
                    .node(n)
                    .preds
                    .iter()
                    .filter(|p| finish[p.index()].is_none())
                    .count();
                up[n.index()] = pending;
            }
            for &n in list {
                if up[n.index()] == 0 {
                    ready_q.push_back(n);
                }
            }
        }};
    }

    activate_section!(cur);

    loop {
        // Dispatch loop: idle processors (longest-idle first) repeatedly
        // examine the queue head, exactly like Figure 2's steps 1–5.
        #[allow(clippy::while_let_loop)] // multiple distinct break reasons below
        loop {
            // Step 1-2: the head must exist and be the next expected task.
            let Some(&head) = ready_q.front() else { break };
            let expected = order.per_section[cur.index()].get(neo).copied();
            if expected != Some(head) {
                // Not the next expected order: processors sleep (step 3).
                break;
            }
            if !g.node(head).kind.is_computation() {
                // Dummy AND node: handled instantly by the scheduler pass
                // (steps 6); costs no processor time.
                ready_q.pop_front();
                neo += 1;
                finish[head.index()] = Some(now);
                section_left -= 1;
                dispatches.push((head, usize::MAX, now));
                push_successors(
                    g,
                    head,
                    &mut up,
                    &finish,
                    &order.per_section[cur.index()],
                    &mut ready_q,
                );
                continue;
            }
            // A computation task needs an idle processor.
            let Some(p) = idle_since
                .iter()
                .enumerate()
                .filter_map(|(i, t)| t.map(|t| (t, i)))
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                .map(|(_, i)| i)
            else {
                break; // everyone busy: wait for a completion event
            };
            // Step 4-5: dequeue, compute the new speed, execute.
            ready_q.pop_front();
            neo += 1;
            idle_since[p] = None;
            let ctx = DispatchCtx {
                now,
                current_point: point[p],
                wcet: g.node(head).kind.wcet(),
            };
            let decision = policy.speed_for(head, &ctx);
            let rho = cfg.static_fraction;
            let mut t = now;
            if decision.ran_pmp {
                let dt = cfg
                    .overheads
                    .compute_time_ms(point[p].speed, model.max_freq_mhz());
                meters[p].add_busy(point[p].power + rho, dt);
                t += dt;
            }
            if (decision.point.speed - point[p].speed).abs() > 1e-12 {
                let dt = cfg.overheads.transition_time_ms;
                meters[p].add_transition(point[p].power.max(decision.point.power) + rho, dt);
                t += dt;
                point[p] = decision.point;
            }
            let exec = real.actual[head.index()] / point[p].speed;
            meters[p].add_busy(point[p].power + rho, exec);
            let end = t + exec;
            dispatches.push((head, p, now));
            seq += 1;
            events.push(Reverse(Timed {
                time: end,
                seq,
                event: Event::Finished(head),
            }));
            seq += 1;
            events.push(Reverse(Timed {
                time: end,
                seq,
                event: Event::ProcIdle(p),
            }));
        }

        // Section drained? Fire the OR and activate the chosen branch.
        if section_left == 0 {
            let Some(or) = sections.section(cur).exit_or else {
                break;
            };
            finish[or.index()] = Some(now);
            if g.node(or).succs.is_empty() {
                break;
            }
            let k = real
                .scenario
                .choice_for(or)
                .ok_or_else(|| SimError::UnresolvedOr {
                    or: g.node(or).name.clone(),
                })?;
            policy.on_or_fired(or, k, now);
            cur = sections
                .branch_section(or, k)
                .ok_or_else(|| SimError::MissingBranchSection {
                    or: g.node(or).name.clone(),
                    branch: k,
                })?;
            activate_section!(cur);
            continue;
        }

        // Advance time to the next event.
        let Some(Reverse(ev)) = events.pop() else {
            return Err(SimError::Stalled);
        };
        now = ev.time;
        match ev.event {
            Event::Finished(n) => {
                finish[n.index()] = Some(now);
                section_left -= 1;
                push_successors(
                    g,
                    n,
                    &mut up,
                    &finish,
                    &order.per_section[cur.index()],
                    &mut ready_q,
                );
            }
            Event::ProcIdle(p) => {
                idle_since[p] = Some(now);
            }
        }
    }

    let finish_time = finish.iter().filter_map(|f| *f).fold(0.0_f64, f64::max);
    let horizon = finish_time.max(cfg.deadline);
    let mut energy = EnergyMeter::new();
    for meter in &mut meters {
        let idle = horizon - meter.busy_time() - meter.transition_time();
        meter.add_idle(cfg.idle_fraction, idle.max(0.0));
        energy.merge(meter);
    }
    Ok(LiteralResult {
        finish_time,
        energy,
        dispatches,
    })
}

/// Decrements `UP` for the in-section successors of `n` and enqueues the
/// newly ready ones in canonical order (the queue stays sorted because the
/// scheduler only ever consumes the next expected order).
fn push_successors(
    g: &AndOrGraph,
    n: NodeId,
    up: &mut [usize],
    finish: &[Option<f64>],
    section_order: &[NodeId],
    ready_q: &mut VecDeque<NodeId>,
) {
    let _ = finish;
    for &s in &g.node(n).succs {
        if g.node(s).kind.is_or() {
            continue; // OR firing is handled at section drain
        }
        if up[s.index()] == usize::MAX {
            continue; // not in an activated section yet
        }
        if up[s.index()] == 0 {
            continue;
        }
        up[s.index()] -= 1;
        if up[s.index()] == 0 {
            // Insert in canonical-order position.
            let pos_of = |x: NodeId| {
                section_order
                    .iter()
                    .position(|&y| y == x)
                    .unwrap_or(usize::MAX)
            };
            let rank = pos_of(s);
            let at = ready_q
                .iter()
                .position(|&q| pos_of(q) > rank)
                .unwrap_or(ready_q.len());
            ready_q.insert(at, s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use crate::policy::MaxSpeed;
    use crate::realization::ExecTimeModel;
    use andor_graph::Segment;
    use dvfs_power::Overheads;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg(m: usize, d: f64) -> SimConfig {
        SimConfig {
            num_procs: m,
            deadline: d,
            idle_fraction: 0.05,
            static_fraction: 0.0,
            overheads: Overheads::none(),
            record_trace: false,
        }
    }

    #[test]
    fn literal_matches_engine_on_fixture() {
        let g = Segment::seq([
            Segment::task("A", 4.0, 2.0),
            Segment::par([
                Segment::task("B", 6.0, 3.0),
                Segment::task("C", 2.0, 1.0),
                Segment::task("D", 5.0, 2.0),
            ]),
            Segment::branch([
                (0.5, Segment::task("E", 7.0, 4.0)),
                (0.5, Segment::task("F", 3.0, 2.0)),
            ]),
        ])
        .lower()
        .expect("fixture lowers");
        let sg = SectionGraph::build(&g).expect("fixture sections");
        let order = DispatchOrder::topological(&g, &sg);
        let model = ProcessorModel::xscale();
        let config = cfg(2, 100.0);
        let sim = Simulator::new(&g, &sg, &order, &model, config);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let real = Realization::sample(&g, &sg, &ExecTimeModel::paper_defaults(), &mut rng);
            let fast = sim.run(&mut MaxSpeed, &real).expect("engine run succeeds");
            let lit = run_literal(&g, &sg, &order, &model, &config, &mut MaxSpeed, &real)
                .expect("literal run succeeds");
            assert!(
                (fast.finish_time - lit.finish_time).abs() < 1e-9,
                "finish: {} vs {}",
                fast.finish_time,
                lit.finish_time
            );
            assert!(
                (fast.total_energy() - lit.energy.total_energy()).abs() < 1e-9,
                "energy: {} vs {}",
                fast.total_energy(),
                lit.energy.total_energy()
            );
        }
    }
}
