//! Shared pieces of the event exporters: the JSONL parser, the fallback
//! task label, and the Chrome trace-event object builders behind
//! [`crate::ChromeSink`] and [`crate::profile::chrome_trace`]. The
//! writers themselves are the streaming sinks ([`crate::JsonlSink`],
//! [`crate::ChromeSink`]) and [`crate::MetricsRegistry::to_csv`].

use crate::event::{FaultKind, SimEvent};
use andor_graph::NodeId;
use serde::Value;

/// Parses a JSON Lines dump (as written by [`crate::JsonlSink`]) back
/// into events; blank lines are skipped.
pub fn from_jsonl(s: &str) -> Result<Vec<SimEvent>, serde_json::Error> {
    s.lines()
        .filter(|line| !line.trim().is_empty())
        .map(serde_json::from_str)
        .collect()
}

/// The fallback task label when no graph is at hand: `n<index>`.
pub fn node_label(node: NodeId) -> String {
    format!("n{}", node.0)
}

pub(crate) fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn ms_to_us(t: f64) -> Value {
    Value::Float(t * 1000.0)
}

/// A duration (`X`) event on lane `tid`.
pub(crate) fn duration_event(
    name: String,
    cat: &str,
    start_ms: f64,
    dur_ms: f64,
    tid: usize,
    args: Vec<(&str, Value)>,
) -> Value {
    obj(vec![
        ("name", Value::Str(name)),
        ("cat", Value::Str(cat.to_string())),
        ("ph", Value::Str("X".to_string())),
        ("ts", ms_to_us(start_ms)),
        ("dur", ms_to_us(dur_ms)),
        ("pid", Value::UInt(0)),
        ("tid", Value::UInt(tid as u64)),
        ("args", obj(args)),
    ])
}

fn instant_event(name: String, cat: &str, t_ms: f64, proc: Option<usize>) -> Value {
    obj(vec![
        ("name", Value::Str(name)),
        ("cat", Value::Str(cat.to_string())),
        ("ph", Value::Str("i".to_string())),
        ("ts", ms_to_us(t_ms)),
        ("pid", Value::UInt(0)),
        ("tid", Value::UInt(proc.unwrap_or(0) as u64)),
        (
            "s",
            Value::Str(if proc.is_some() { "t" } else { "g" }.to_string()),
        ),
    ])
}

fn counter_event(name: String, t_ms: f64, key: &str, value: f64) -> Value {
    obj(vec![
        ("name", Value::Str(name)),
        ("ph", Value::Str("C".to_string())),
        ("ts", ms_to_us(t_ms)),
        ("pid", Value::UInt(0)),
        ("args", obj(vec![(key, Value::Float(value))])),
    ])
}

/// The `thread_name` metadata event naming lane `tid`.
pub(crate) fn thread_metadata(tid: usize, label: String) -> Value {
    obj(vec![
        ("name", Value::Str("thread_name".to_string())),
        ("ph", Value::Str("M".to_string())),
        ("pid", Value::UInt(0)),
        ("tid", Value::UInt(tid as u64)),
        ("args", obj(vec![("name", Value::Str(label))])),
    ])
}

/// Converts one event into its Chrome trace-event object, or `None` for
/// kinds the Chrome rendering elides (dispatches, slack reclamation, idle
/// starts — their information is carried by the matching completion/idle
/// window). Task executions and idle windows become duration ("X")
/// events on one lane per processor, speed changes become counter ("C")
/// tracks, and branch/speculation/fault events become instants.
pub(crate) fn chrome_event<F: Fn(NodeId) -> String + ?Sized>(
    ev: &SimEvent,
    name_of: &F,
) -> Option<Value> {
    match ev {
        SimEvent::TaskComplete {
            t,
            node,
            proc,
            start,
            speed,
            energy,
            leakage,
            ..
        } => Some(duration_event(
            name_of(*node),
            "task",
            *start,
            t - start,
            *proc,
            vec![
                ("speed", Value::Float(*speed)),
                ("energy", Value::Float(energy + leakage)),
            ],
        )),
        SimEvent::IdleEnd {
            t,
            proc,
            duration_ms,
            energy,
        } => Some(duration_event(
            "idle".to_string(),
            "idle",
            t - duration_ms,
            *duration_ms,
            *proc,
            vec![("energy", Value::Float(*energy))],
        )),
        SimEvent::SpeedChange {
            t, proc, to_speed, ..
        } => Some(counter_event(
            format!("speed.p{proc}"),
            *t,
            "speed",
            *to_speed,
        )),
        SimEvent::OrBranchTaken { t, or, branch } => Some(instant_event(
            format!("{} -> branch {branch}", name_of(*or)),
            "branch",
            *t,
            None,
        )),
        SimEvent::SpeculationUpdate { t, spec_speed } => Some(counter_event(
            "speculation".to_string(),
            *t,
            "spec_speed",
            *spec_speed,
        )),
        SimEvent::FaultInjected {
            t,
            node,
            proc,
            kind,
        } => {
            let label = match kind {
                FaultKind::Overrun { factor } => {
                    format!("fault: overrun x{factor} @ {}", name_of(*node))
                }
                FaultKind::SpeedFailure => {
                    format!("fault: speed failure @ {}", name_of(*node))
                }
                FaultKind::Stall { ms } => {
                    format!("fault: stall {ms}ms @ {}", name_of(*node))
                }
            };
            Some(instant_event(label, "fault", *t, Some(*proc)))
        }
        SimEvent::FaultDetected { t, node, proc } => Some(instant_event(
            format!("overrun detected @ {}", name_of(*node)),
            "fault",
            *t,
            Some(*proc),
        )),
        SimEvent::FaultRecovered { t, proc, .. } => Some(instant_event(
            "recovery: escalate to f_max".to_string(),
            "fault",
            *t,
            Some(*proc),
        )),
        SimEvent::TaskDispatch { .. }
        | SimEvent::SlackReclaimed { .. }
        | SimEvent::IdleStart { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JsonlSink, Observer};

    #[test]
    fn jsonl_skips_blank_lines_and_rejects_garbage() {
        let events = vec![
            SimEvent::SlackReclaimed {
                t: 0.0,
                node: NodeId(0),
                proc: 0,
                reclaimed_ms: 2.0,
            },
            SimEvent::OrBranchTaken {
                t: 1.5,
                or: NodeId(1),
                branch: 0,
            },
        ];
        let mut sink = JsonlSink::new(Vec::new());
        for ev in &events {
            sink.on_event(ev);
        }
        let dump = String::from_utf8(sink.finish().expect("no I/O error on Vec")).unwrap();
        let padded = format!("\n{dump}\n\n");
        assert_eq!(from_jsonl(&padded).expect("blank lines ok"), events);
        assert!(from_jsonl("{not json}").is_err());
    }
}
