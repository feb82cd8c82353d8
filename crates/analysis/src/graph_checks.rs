//! Graph well-formedness checks (`PAS00xx`).
//!
//! These mirror `AndOrGraph::validate` and `SectionGraph::build` but
//! differ in two ways that matter for a front-end: they *collect every
//! problem* instead of failing on the first, and they operate defensively
//! on the raw node array so that a graph deserialized from hostile JSON
//! (serde bypasses validation) can be inspected without panicking.

use crate::diag::{Code, Diagnostic, Loc, Report};
use andor_graph::{AndOrGraph, Node, NodeId, NodeKind, SectionGraph};
use std::collections::VecDeque;

/// Relative tolerance for OR branch-probability sums (matches the
/// validator in `andor-graph`).
pub const OR_PROB_TOLERANCE: f64 = 1e-6;

fn node_label(i: usize, node: &Node) -> String {
    format!("n{i} ('{}')", node.name)
}

fn loc(src: &str, i: usize) -> Loc {
    Loc::at(src, format!("nodes[{i}]"))
}

/// Runs every graph check against `g`, labelling diagnostics with `src`
/// (a file path or builtin workload name).
pub fn check_graph(g: &AndOrGraph, src: &str) -> Report {
    let mut r = Report::new();
    let nodes = g.nodes();
    let n = nodes.len();
    if n == 0 {
        r.push(Diagnostic::new(
            Code::Pas0001,
            Loc::whole(src),
            "graph has no nodes",
        ));
        return r;
    }

    // Pass 1: per-node local checks. `topo_safe` stays true only while the
    // adjacency lists are a consistent, loop-free edge set — the
    // precondition for the topology passes below.
    let mut topo_safe = true;
    for (i, node) in nodes.iter().enumerate() {
        check_adjacency(&mut r, src, nodes, i, node, &mut topo_safe);
        check_kind(&mut r, src, i, node);
        if n > 1 && node.preds.is_empty() && node.succs.is_empty() {
            r.push(Diagnostic::new(
                Code::Pas0013,
                loc(src, i),
                format!(
                    "node {} is isolated (no predecessors or successors)",
                    node_label(i, node)
                ),
            ));
        }
    }

    if topo_safe {
        check_topology(&mut r, src, nodes);
    }

    // Section-structure consistency (the paper's OR-seriality restriction)
    // is only meaningful once everything above is clean: `SectionGraph`
    // assumes a validated graph.
    if !r.has_errors() {
        if let Err(e) = SectionGraph::build(g) {
            r.push(Diagnostic::new(
                Code::Pas0011,
                Loc::whole(src),
                e.to_string(),
            ));
        }
    }
    r
}

/// Dangling endpoints (PAS0002), asymmetric adjacency (PAS0003), self
/// loops (PAS0004), duplicate edges (PAS0005).
fn check_adjacency(
    r: &mut Report,
    src: &str,
    nodes: &[Node],
    i: usize,
    node: &Node,
    topo_safe: &mut bool,
) {
    let n = nodes.len();
    let me = NodeId(i as u32);
    for (j, &s) in node.succs.iter().enumerate() {
        if s.index() >= n {
            r.push(Diagnostic::new(
                Code::Pas0002,
                loc(src, i),
                format!(
                    "node {} lists successor {s}, but the graph has only {n} nodes",
                    node_label(i, node)
                ),
            ));
            *topo_safe = false;
            continue;
        }
        if s == me {
            r.push(Diagnostic::new(
                Code::Pas0004,
                loc(src, i),
                format!("self loop on {}", node_label(i, node)),
            ));
            *topo_safe = false;
            continue;
        }
        // An earlier equal entry is in range and no self loop either.
        if node.succs.iter().take(j).any(|&e| e == s) {
            r.push(Diagnostic::new(
                Code::Pas0005,
                loc(src, i),
                format!("duplicate edge {me} -> {s}"),
            ));
            *topo_safe = false;
        }
        let other = nodes.get(s.index());
        if other.is_some_and(|o| !o.preds.contains(&me)) {
            r.push(Diagnostic::new(
                Code::Pas0003,
                loc(src, i),
                format!("edge {me} -> {s} is asymmetric: {s} does not list {me} as a predecessor"),
            ));
            *topo_safe = false;
        }
    }
    for &p in &node.preds {
        if p.index() >= n {
            r.push(Diagnostic::new(
                Code::Pas0002,
                loc(src, i),
                format!(
                    "node {} lists predecessor {p}, but the graph has only {n} nodes",
                    node_label(i, node)
                ),
            ));
            *topo_safe = false;
            continue;
        }
        let other = nodes.get(p.index());
        if p != me && other.is_some_and(|o| !o.succs.contains(&me)) {
            r.push(Diagnostic::new(
                Code::Pas0003,
                loc(src, i),
                format!(
                    "node {} lists predecessor {p}, but {p} does not list {me} as a successor",
                    node_label(i, node)
                ),
            ));
            *topo_safe = false;
        }
    }
}

/// Execution-time (PAS0006) and OR-probability (PAS0007/0008/0009) checks.
fn check_kind(r: &mut Report, src: &str, i: usize, node: &Node) {
    match &node.kind {
        NodeKind::Computation { wcet, acet } => {
            let ok = wcet.is_finite() && acet.is_finite() && *acet > 0.0 && *acet <= *wcet;
            if !ok {
                r.push(Diagnostic::new(
                    Code::Pas0006,
                    loc(src, i),
                    format!(
                        "node {}: execution times must satisfy 0 < acet <= wcet and be finite \
                         (wcet = {wcet}, acet = {acet})",
                        node_label(i, node)
                    ),
                ));
            }
        }
        NodeKind::And => {}
        NodeKind::Or { probs } => {
            if probs.len() != node.succs.len() {
                r.push(Diagnostic::new(
                    Code::Pas0007,
                    loc(src, i),
                    format!(
                        "OR node {} has {} branch probabilities for {} successors",
                        node_label(i, node),
                        probs.len(),
                        node.succs.len()
                    ),
                ));
            }
            let mut all_in_range = true;
            for (k, &p) in probs.iter().enumerate() {
                if !(p.is_finite() && p > 0.0 && p <= 1.0) {
                    all_in_range = false;
                    r.push(Diagnostic::new(
                        Code::Pas0008,
                        loc(src, i),
                        format!(
                            "OR node {} branch {k}: probability {p} is outside (0, 1]",
                            node_label(i, node)
                        ),
                    ));
                }
            }
            if all_in_range && !probs.is_empty() {
                let sum: f64 = probs.iter().sum();
                if (sum - 1.0).abs() > OR_PROB_TOLERANCE {
                    r.push(Diagnostic::new(
                        Code::Pas0009,
                        loc(src, i),
                        format!(
                            "OR node {}: branch probabilities sum to {sum:.6}, expected 1 \
                             (tolerance {OR_PROB_TOLERANCE})",
                            node_label(i, node)
                        ),
                    ));
                }
            }
        }
    }
}

/// Cycle detection (PAS0010) and source-reachability (PAS0012) via Kahn's
/// algorithm. Only called with consistent adjacency lists.
fn check_topology(r: &mut Report, src: &str, nodes: &[Node]) {
    let n = nodes.len();
    let mut indeg: Vec<usize> = nodes.iter().map(|node| node.preds.len()).collect();
    let mut queue: VecDeque<usize> = indeg
        .iter()
        .enumerate()
        .filter(|(_, d)| **d == 0)
        .map(|(i, _)| i)
        .collect();
    let mut processed = vec![false; n];
    let mut count = 0usize;
    while let Some(i) = queue.pop_front() {
        if let Some(p) = processed.get_mut(i) {
            *p = true;
        }
        count += 1;
        if let Some(node) = nodes.get(i) {
            for &s in &node.succs {
                if let Some(d) = indeg.get_mut(s.index()) {
                    *d -= 1;
                    if *d == 0 {
                        queue.push_back(s.index());
                    }
                }
            }
        }
    }
    if count == n {
        return;
    }
    let stuck = n - count;
    let example = processed.iter().position(|&done| !done).unwrap_or(0);
    let name = nodes.get(example).map(|n| n.name.as_str()).unwrap_or("?");
    r.push(Diagnostic::new(
        Code::Pas0010,
        Loc::whole(src),
        format!(
            "graph contains a cycle ({stuck} node(s) cannot be topologically ordered, \
             e.g. n{example} ('{name}'))"
        ),
    ));
    // Forward BFS from the true sources: cycle members with no path from
    // any source are additionally unreachable (they would never become
    // ready even if the cycle were broken downstream).
    let mut reachable = vec![false; n];
    let mut bfs: VecDeque<usize> = nodes
        .iter()
        .enumerate()
        .filter(|(_, node)| node.preds.is_empty())
        .map(|(i, _)| i)
        .collect();
    for &i in &bfs {
        if let Some(x) = reachable.get_mut(i) {
            *x = true;
        }
    }
    while let Some(i) = bfs.pop_front() {
        if let Some(node) = nodes.get(i) {
            for &s in &node.succs {
                if let Some(x) = reachable.get_mut(s.index()) {
                    if !*x {
                        *x = true;
                        bfs.push_back(s.index());
                    }
                }
            }
        }
    }
    for (i, node) in nodes.iter().enumerate() {
        if !reachable.get(i).copied().unwrap_or(true) {
            r.push(Diagnostic::new(
                Code::Pas0012,
                loc(src, i),
                format!(
                    "node {} is unreachable from every source node",
                    node_label(i, node)
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use andor_graph::Segment;

    fn codes(r: &Report) -> Vec<&'static str> {
        r.diagnostics.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn valid_graph_is_clean() {
        let g = Segment::seq([
            Segment::task("A", 4.0, 2.0),
            Segment::branch([
                (0.3, Segment::task("B", 5.0, 3.0)),
                (0.7, Segment::task("C", 4.0, 2.0)),
            ]),
        ])
        .lower()
        .expect("valid segment lowers");
        let r = check_graph(&g, "test");
        assert!(r.is_clean(), "{}", r.render_human());
    }

    #[test]
    fn bad_probability_sum_detected() {
        // Deserialize a hand-written graph whose OR probs sum to 0.9 —
        // serde bypasses validation, exactly the path `pas check` guards.
        let json = r#"{"nodes": [
            {"name": "A", "kind": {"Computation": {"wcet": 4.0, "acet": 2.0}},
             "preds": [], "succs": [1]},
            {"name": "O", "kind": {"Or": {"probs": [0.3, 0.6]}},
             "preds": [0], "succs": [2, 3]},
            {"name": "B", "kind": {"Computation": {"wcet": 5.0, "acet": 3.0}},
             "preds": [1], "succs": []},
            {"name": "C", "kind": {"Computation": {"wcet": 4.0, "acet": 2.0}},
             "preds": [1], "succs": []}
        ]}"#;
        let g: AndOrGraph = serde_json::from_str(json).expect("parses");
        let r = check_graph(&g, "t.json");
        assert_eq!(codes(&r), vec!["PAS0009"]);
        assert!(r.diagnostics[0].message.contains("sum to 0.900000"));
    }

    #[test]
    fn cycle_and_unreachable_detected() {
        let json = r#"{"nodes": [
            {"name": "A", "kind": {"Computation": {"wcet": 4.0, "acet": 2.0}},
             "preds": [], "succs": []},
            {"name": "B", "kind": {"Computation": {"wcet": 5.0, "acet": 3.0}},
             "preds": [2], "succs": [2]},
            {"name": "C", "kind": {"Computation": {"wcet": 4.0, "acet": 2.0}},
             "preds": [1], "succs": [1]}
        ]}"#;
        let g: AndOrGraph = serde_json::from_str(json).expect("parses");
        let r = check_graph(&g, "t.json");
        // A is also isolated (a warning); the cycle B <-> C is an error
        // and its members are unreachable from the only source.
        assert_eq!(codes(&r), vec!["PAS0013", "PAS0010", "PAS0012", "PAS0012"]);
    }

    #[test]
    fn dangling_edge_masks_topology_checks() {
        let json = r#"{"nodes": [
            {"name": "A", "kind": {"Computation": {"wcet": 4.0, "acet": 2.0}},
             "preds": [], "succs": [7]}
        ]}"#;
        let g: AndOrGraph = serde_json::from_str(json).expect("parses");
        let r = check_graph(&g, "t.json");
        assert_eq!(codes(&r), vec!["PAS0002"]);
    }

    #[test]
    fn empty_graph_detected() {
        let g: AndOrGraph = serde_json::from_str(r#"{"nodes": []}"#).expect("parses");
        assert_eq!(codes(&check_graph(&g, "t.json")), vec!["PAS0001"]);
    }
}
