//! Graph well-formedness checks (`PAS00xx`).
//!
//! The rules are [`AndOrGraph::errors`]'s, in `andor-graph`; this module
//! names each [`GraphError`] with its code, location and message, and
//! adds the two lints that reject nothing: isolated nodes (PAS0013) and,
//! once a cycle is found, nodes no source reaches (PAS0012).

use crate::diag::{Code, Diagnostic, Loc, Report};
use andor_graph::{AndOrGraph, GraphError, Node, NodeId, NodeKind, OR_PROB_TOLERANCE};

fn node_label(i: usize, node: &Node) -> String {
    format!("n{i} ('{}')", node.name)
}

fn loc(src: &str, i: usize) -> Loc {
    Loc::at(src, format!("nodes[{i}]"))
}

/// Runs every graph check against `g`, labelling diagnostics with `src`
/// (a file path or builtin workload name).
pub fn check_graph(g: &AndOrGraph, src: &str) -> Report {
    let nodes = g.nodes();
    let mut r = Report::new();
    let mut errors = g
        .errors()
        .into_iter()
        .map(|e| diagnostic(&e, nodes, src))
        .peekable();
    // Each node's errors, then its lint; then the whole-graph errors.
    for (i, node) in nodes.iter().enumerate() {
        while let Some((_, d)) = errors.next_if(|(at, _)| *at == Some(i)) {
            r.push(d);
        }
        if nodes.len() > 1 && node.preds.is_empty() && node.succs.is_empty() {
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
    for (_, d) in errors {
        let cycle = d.code == Code::Pas0010;
        r.push(d);
        if cycle {
            unreachable_lints(&mut r, src, nodes);
        }
    }
    r
}

/// The diagnostic of one graph-rule violation, with the index of the
/// node it is reported at (`None` for the whole graph).
fn diagnostic(e: &GraphError, nodes: &[Node], src: &str) -> (Option<usize>, Diagnostic) {
    let n = nodes.len();
    let node = |id: &NodeId| nodes.get(id.index());
    let label =
        |id: &NodeId| node(id).map_or_else(|| id.to_string(), |x| node_label(id.index(), x));
    let or_probs = |id: &NodeId| match node(id).map(|x| &x.kind) {
        Some(NodeKind::Or { probs }) => &probs[..],
        _ => &[],
    };
    let (code, at, message) = match e {
        GraphError::Empty => (Code::Pas0001, None, "graph has no nodes".to_string()),
        GraphError::UnknownNode(_) => (Code::Pas0002, None, e.to_string()),
        GraphError::DanglingSuccessor(a, b) => (
            Code::Pas0002,
            Some(a),
            format!(
                "node {} lists successor {b}, but the graph has only {n} nodes",
                label(a)
            ),
        ),
        GraphError::DanglingPredecessor(a, b) => (
            Code::Pas0002,
            Some(a),
            format!(
                "node {} lists predecessor {b}, but the graph has only {n} nodes",
                label(a)
            ),
        ),
        GraphError::AsymmetricSuccessor(a, b) => (
            Code::Pas0003,
            Some(a),
            format!("edge {a} -> {b} is asymmetric: {b} does not list {a} as a predecessor"),
        ),
        GraphError::AsymmetricPredecessor(a, b) => (
            Code::Pas0003,
            Some(a),
            format!(
                "node {} lists predecessor {b}, but {b} does not list {a} as a successor",
                label(a)
            ),
        ),
        GraphError::SelfLoop(a) => (Code::Pas0004, Some(a), format!("self loop on {}", label(a))),
        GraphError::DuplicateEdge(a, _) => (Code::Pas0005, Some(a), e.to_string()),
        GraphError::BadExecutionTimes { node: a } => {
            let (wcet, acet) =
                node(a).map_or((f64::NAN, f64::NAN), |x| (x.kind.wcet(), x.kind.acet()));
            let message = format!(
                "node {}: execution times must satisfy 0 < acet <= wcet and be finite \
                 (wcet = {wcet}, acet = {acet})",
                label(a)
            );
            (Code::Pas0006, Some(a), message)
        }
        GraphError::OrArity(a) => {
            let succs = node(a).map_or(0, |x| x.succs.len());
            let message = format!(
                "OR node {} has {} branch probabilities for {succs} successors",
                label(a),
                or_probs(a).len()
            );
            (Code::Pas0007, Some(a), message)
        }
        GraphError::BadOrProbabilities { node: a } => (Code::Pas0008, Some(a), e.to_string()),
        GraphError::OrProbabilityRange(a, k) => {
            let p = or_probs(a).get(*k).copied().unwrap_or(f64::NAN);
            let message = format!(
                "OR node {} branch {k}: probability {p} is outside (0, 1]",
                label(a)
            );
            (Code::Pas0008, Some(a), message)
        }
        GraphError::OrProbabilitySum(a, sum) => (
            Code::Pas0009,
            Some(a),
            format!(
                "OR node {}: branch probabilities sum to {sum:.6}, expected 1 \
                 (tolerance {OR_PROB_TOLERANCE})",
                label(a)
            ),
        ),
        GraphError::Cycle(stuck, example) => (
            Code::Pas0010,
            None,
            format!(
                "graph contains a cycle ({stuck} node(s) cannot be topologically ordered, \
                 e.g. {})",
                label(example)
            ),
        ),
        GraphError::SectionStructure { .. } => (Code::Pas0011, None, e.to_string()),
    };
    let at = at.map(|id| id.index());
    let loc = at.map_or_else(|| Loc::whole(src), |i| loc(src, i));
    (at, Diagnostic::new(code, loc, message))
}

/// PAS0012: nodes no source reaches. Cycle members with no path from any
/// source would never become ready even if the cycle were broken
/// downstream.
fn unreachable_lints(r: &mut Report, src: &str, nodes: &[Node]) {
    let mut reachable: Vec<bool> = nodes.iter().map(|node| node.preds.is_empty()).collect();
    let mut todo: Vec<usize> = (0..nodes.len())
        .filter(|&i| reachable.get(i) == Some(&true))
        .collect();
    while let Some(i) = todo.pop() {
        for s in nodes.get(i).map_or(&[][..], |node| &node.succs) {
            if let Some(x) = reachable.get_mut(s.index()).filter(|x| !**x) {
                *x = true;
                todo.push(s.index());
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
