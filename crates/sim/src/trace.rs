//! Schedule-trace analysis and rendering.
//!
//! A [`RunResult`](crate::RunResult) with tracing enabled carries the full
//! schedule. This module turns it into things humans and tests consume:
//! per-processor utilization statistics, a power profile, and an ASCII
//! Gantt chart for terminal inspection (the `pas-cli` tool and the
//! examples use it to *show* slack reclamation happening).

use crate::engine::TraceEntry;
use crate::error::SimError;
use andor_graph::AndOrGraph;
use pas_obs::SimEvent;
use std::fmt::Write as _;

/// Projects a recorded event stream down to the classic schedule trace:
/// one [`TraceEntry`] per `TaskComplete`, in emission (= dispatch)
/// order. This is the *only* way the engine builds
/// [`RunResult::trace`](crate::RunResult) — the event stream is the
/// single source of truth for schedules.
pub fn trace_from_events(events: &[SimEvent]) -> Vec<TraceEntry> {
    events
        .iter()
        .filter_map(|ev| match ev {
            SimEvent::TaskComplete {
                t,
                node,
                proc,
                start,
                speed,
                ..
            } => Some(TraceEntry {
                node: *node,
                proc: *proc,
                start: *start,
                end: *t,
                speed: *speed,
            }),
            _ => None,
        })
        .collect()
}

/// Aggregate statistics of one processor's lane in a schedule trace.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneStats {
    /// Processor index.
    pub proc: usize,
    /// Number of tasks executed.
    pub tasks: usize,
    /// Total busy time (ms), including per-dispatch overhead windows.
    pub busy: f64,
    /// Busy time divided by the horizon.
    pub utilization: f64,
    /// Time-weighted mean normalized speed while busy (0 if never busy).
    pub mean_speed: f64,
}

/// Computes per-processor statistics over `horizon` ms.
///
/// # Errors
///
/// Returns [`SimError::BadTraceQuery`] if `num_procs` is zero or
/// `horizon` is not positive — both reachable from user-supplied CLI
/// arguments, so they are typed errors, not panics.
pub fn lane_stats(
    trace: &[TraceEntry],
    num_procs: usize,
    horizon: f64,
) -> Result<Vec<LaneStats>, SimError> {
    if num_procs == 0 {
        return Err(SimError::BadTraceQuery {
            detail: "lane_stats needs at least one processor".into(),
        });
    }
    if horizon <= 0.0 || horizon.is_nan() {
        return Err(SimError::BadTraceQuery {
            detail: format!("lane_stats horizon must be positive, got {horizon}"),
        });
    }
    Ok((0..num_procs)
        .map(|p| {
            let mut busy = 0.0;
            let mut weighted_speed = 0.0;
            let mut tasks = 0;
            for e in trace.iter().filter(|e| e.proc == p) {
                let dt = e.end - e.start;
                busy += dt;
                weighted_speed += e.speed * dt;
                tasks += 1;
            }
            LaneStats {
                proc: p,
                tasks,
                busy,
                utilization: busy / horizon,
                mean_speed: if busy > 0.0 {
                    weighted_speed / busy
                } else {
                    0.0
                },
            }
        })
        .collect())
}

/// Total dynamic power drawn by all processors over time, integrated into
/// `bins` equal windows covering `[0, horizon]` — each entry is the mean
/// normalized power (0 = all idle-gated, `num_procs` = everything flat
/// out) in that window. Idle and static power are *not* included (they
/// are constants; this profiles the schedule's dynamic shape).
///
/// # Errors
///
/// Returns [`SimError::BadTraceQuery`] if `bins == 0`, `horizon <= 0`,
/// or `powers` does not supply one value per trace entry.
pub fn power_profile(
    trace: &[TraceEntry],
    powers: &[f64],
    bins: usize,
    horizon: f64,
) -> Result<Vec<f64>, SimError> {
    if bins == 0 {
        return Err(SimError::BadTraceQuery {
            detail: "power_profile needs at least one bin".into(),
        });
    }
    if horizon <= 0.0 || horizon.is_nan() {
        return Err(SimError::BadTraceQuery {
            detail: format!("power_profile horizon must be positive, got {horizon}"),
        });
    }
    if trace.len() != powers.len() {
        return Err(SimError::BadTraceQuery {
            detail: format!(
                "power_profile needs one power value per trace entry \
                 ({} entries, {} powers)",
                trace.len(),
                powers.len()
            ),
        });
    }
    let width = horizon / bins as f64;
    let mut out = vec![0.0_f64; bins];
    for (e, &p) in trace.iter().zip(powers) {
        // Distribute this execution interval's energy over the bins it
        // overlaps.
        let (a, b) = (e.start.max(0.0), e.end.min(horizon));
        if b <= a {
            continue;
        }
        let first = (a / width) as usize;
        let last = ((b / width) as usize).min(bins - 1);
        for (bin, slot) in out.iter_mut().enumerate().take(last + 1).skip(first) {
            let lo = bin as f64 * width;
            let hi = lo + width;
            let overlap = (b.min(hi) - a.max(lo)).max(0.0);
            *slot += p * overlap;
        }
    }
    for slot in &mut out {
        *slot /= width;
    }
    Ok(out)
}

/// Options for [`render_gantt`].
#[derive(Debug, Clone, Copy)]
pub struct GanttOptions {
    /// Total character width of the time axis.
    pub width: usize,
    /// Render the deadline marker at this time, if any.
    pub deadline: Option<f64>,
}

impl Default for GanttOptions {
    fn default() -> Self {
        Self {
            width: 72,
            deadline: None,
        }
    }
}

/// Renders an ASCII Gantt chart of the trace, one lane per processor.
///
/// Each task paints its first name character across its execution window;
/// a digit row underneath every lane shows the speed decile (`9` ≈ full
/// speed, `1` ≈ 10%). The deadline, when given, is marked with `|`.
///
/// ```text
/// p0 AAAAAAAABBBBBBBB....CCCC      |
///    99999999444444440000555500000
/// ```
pub fn render_gantt(
    trace: &[TraceEntry],
    g: &AndOrGraph,
    num_procs: usize,
    opts: &GanttOptions,
) -> String {
    let end = trace
        .iter()
        .map(|e| e.end)
        .fold(opts.deadline.unwrap_or(0.0), f64::max);
    if end <= 0.0 || opts.width == 0 {
        return String::new();
    }
    let scale = opts.width as f64 / end;
    let col = |t: f64| ((t * scale) as usize).min(opts.width.saturating_sub(1));

    let mut out = String::new();
    for p in 0..num_procs {
        let mut name_row = vec![b'.'; opts.width];
        let mut speed_row = vec![b' '; opts.width];
        for e in trace.iter().filter(|e| e.proc == p) {
            let (a, b) = (col(e.start), col(e.end).max(col(e.start)));
            let ch = g
                .node(e.node)
                .name
                .chars()
                .next()
                .filter(char::is_ascii)
                .unwrap_or('#') as u8;
            let decile = (e.speed * 10.0).round().clamp(0.0, 9.0) as u8;
            for c in a..=b.min(opts.width.saturating_sub(1)) {
                if let (Some(n), Some(s)) = (name_row.get_mut(c), speed_row.get_mut(c)) {
                    *n = ch;
                    *s = b'0' + decile;
                }
            }
        }
        if let Some(d) = opts.deadline {
            if let Some(cell) = name_row.get_mut(col(d)) {
                *cell = b'|';
            }
        }
        let _ = writeln!(out, "p{p} {}", String::from_utf8(name_row).expect("ascii"));
        let _ = writeln!(out, "   {}", String::from_utf8(speed_row).expect("ascii"));
    }
    let _ = writeln!(out, "   0{:>w$.1} ms", end, w = opts.width - 1);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use andor_graph::{GraphBuilder, NodeId};

    fn graph2() -> AndOrGraph {
        let mut b = GraphBuilder::new();
        b.task("alpha", 4.0, 2.0);
        b.task("beta", 6.0, 3.0);
        b.build().unwrap()
    }

    fn trace2() -> Vec<TraceEntry> {
        vec![
            TraceEntry {
                node: NodeId(0),
                proc: 0,
                start: 0.0,
                end: 4.0,
                speed: 1.0,
            },
            TraceEntry {
                node: NodeId(1),
                proc: 1,
                start: 0.0,
                end: 12.0,
                speed: 0.5,
            },
        ]
    }

    #[test]
    fn lane_stats_compute_utilization_and_speed() {
        let stats = lane_stats(&trace2(), 2, 20.0).expect("valid query");
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].tasks, 1);
        assert!((stats[0].busy - 4.0).abs() < 1e-12);
        assert!((stats[0].utilization - 0.2).abs() < 1e-12);
        assert!((stats[0].mean_speed - 1.0).abs() < 1e-12);
        assert!((stats[1].utilization - 0.6).abs() < 1e-12);
        assert!((stats[1].mean_speed - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_lane_has_zero_stats() {
        let stats = lane_stats(&trace2(), 3, 20.0).expect("valid query");
        assert_eq!(stats[2].tasks, 0);
        assert_eq!(stats[2].mean_speed, 0.0);
        assert_eq!(stats[2].utilization, 0.0);
    }

    #[test]
    fn gantt_paints_names_and_deadline() {
        let g = graph2();
        let opts = GanttOptions {
            width: 40,
            deadline: Some(16.0),
        };
        let art = render_gantt(&trace2(), &g, 2, &opts);
        let lines: Vec<&str> = art.lines().collect();
        // Two lanes (2 rows each) plus the axis line.
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("p0"));
        assert!(lines[0].contains('a'), "task initial painted: {art}");
        assert!(lines[2].contains('b'));
        assert!(lines[0].contains('|'), "deadline marker: {art}");
        // Speed rows use deciles.
        assert!(lines[1].contains('9') || lines[1].contains("10"));
        assert!(lines[3].contains('5'));
    }

    #[test]
    fn gantt_handles_empty_trace() {
        let g = graph2();
        assert_eq!(
            render_gantt(&[], &g, 2, &GanttOptions::default()),
            String::new()
        );
    }

    #[test]
    fn lane_stats_rejects_bad_queries_with_typed_errors() {
        let err = lane_stats(&[], 0, 1.0).unwrap_err();
        assert!(matches!(err, SimError::BadTraceQuery { .. }), "{err}");
        let err = lane_stats(&[], 2, 0.0).unwrap_err();
        assert!(err.to_string().contains("horizon"), "{err}");
        let err = lane_stats(&[], 2, f64::NAN).unwrap_err();
        assert!(matches!(err, SimError::BadTraceQuery { .. }), "{err}");
    }

    #[test]
    fn power_profile_rejects_bad_queries_with_typed_errors() {
        let err = power_profile(&[], &[], 0, 10.0).unwrap_err();
        assert!(err.to_string().contains("bin"), "{err}");
        let err = power_profile(&[], &[], 4, -1.0).unwrap_err();
        assert!(err.to_string().contains("horizon"), "{err}");
        let err = power_profile(&trace2(), &[1.0], 4, 10.0).unwrap_err();
        assert!(err.to_string().contains("per trace entry"), "{err}");
    }

    #[test]
    fn trace_from_events_projects_task_completions() {
        let events = vec![
            pas_obs::SimEvent::TaskDispatch {
                t: 0.0,
                node: NodeId(0),
                proc: 0,
                wcet: 4.0,
                speed: 1.0,
                pmp_ms: 0.0,
                pmp_energy: 0.0,
                pmp_leakage: 0.0,
            },
            pas_obs::SimEvent::TaskComplete {
                t: 4.0,
                node: NodeId(0),
                proc: 0,
                start: 0.0,
                exec_ms: 4.0,
                speed: 1.0,
                energy: 4.0,
                leakage: 0.0,
                recovery_premium: 0.0,
            },
            pas_obs::SimEvent::IdleStart { t: 4.0, proc: 0 },
            pas_obs::SimEvent::TaskComplete {
                t: 12.0,
                node: NodeId(1),
                proc: 1,
                start: 0.0,
                exec_ms: 12.0,
                speed: 0.5,
                energy: 1.5,
                leakage: 0.0,
                recovery_premium: 0.0,
            },
        ];
        let trace = trace_from_events(&events);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].node, NodeId(0));
        assert_eq!(trace[1].proc, 1);
        assert!((trace[1].end - 12.0).abs() < 1e-12);
        assert!((trace[1].speed - 0.5).abs() < 1e-12);
    }

    #[test]
    fn power_profile_integrates_energy() {
        // Task at power 1.0 over [0,4], task at power 0.125 over [0,12];
        // horizon 20, 4 bins of 5 ms.
        let t = trace2();
        let powers = vec![1.0, 0.125];
        let profile = power_profile(&t, &powers, 4, 20.0).expect("valid query");
        // Bin 0 [0,5): 4 ms at 1.0 + 5 ms at 0.125 → (4 + 0.625)/5.
        assert!((profile[0] - 4.625 / 5.0).abs() < 1e-12);
        // Bin 1 [5,10): 5 ms at 0.125.
        assert!((profile[1] - 0.125).abs() < 1e-12);
        // Bin 2 [10,15): 2 ms at 0.125.
        assert!((profile[2] - 0.25 / 5.0).abs() < 1e-12);
        assert_eq!(profile[3], 0.0);
        // Total integral equals total busy energy.
        let integral: f64 = profile.iter().map(|p| p * 5.0).sum();
        assert!((integral - (4.0 + 1.5)).abs() < 1e-12);
    }

    #[test]
    fn power_profile_clips_to_horizon() {
        let t = vec![TraceEntry {
            node: NodeId(0),
            proc: 0,
            start: 8.0,
            end: 30.0,
            speed: 1.0,
        }];
        let profile = power_profile(&t, &[1.0], 2, 10.0).expect("valid query");
        assert_eq!(profile[0], 0.0);
        assert!((profile[1] - 2.0 / 5.0).abs() < 1e-12);
    }
}
