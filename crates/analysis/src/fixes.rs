//! Auto-repair for the mechanical graph diagnostics (`pas check --fix`).
//!
//! Only defects with one obviously-correct repair are fixed:
//!
//! * duplicate edges (`PAS0005`) are dropped, keeping the first
//!   occurrence — for OR nodes the duplicate branch's probability is
//!   merged into the surviving branch so the distribution's mass is
//!   preserved;
//! * OR branch probabilities that are individually valid but do not sum
//!   to 1 (`PAS0009`) are renormalized by dividing through by the sum.
//!
//! Everything else (cycles, dangling endpoints, bad execution times…)
//! has no canonical repair and is left for the user. The repaired graph
//! is rebuilt through the same serde path `pas check` loads files with,
//! so a "fixed" graph is exactly what re-reading the written file yields.

use andor_graph::{AndOrGraph, Node, NodeKind, OR_PROB_TOLERANCE};
use serde::Serialize;

/// Applies the mechanical repairs to `g`. Returns the repaired graph and
/// one human-readable line per fix applied; an empty list means the graph
/// was already clean with respect to the fixable diagnostics (the
/// returned graph is then identical to the input).
pub fn fix_graph(g: &AndOrGraph) -> Result<(AndOrGraph, Vec<String>), String> {
    let mut nodes: Vec<Node> = g.nodes().to_vec();
    let mut fixes = Vec::new();

    for (i, node) in nodes.iter_mut().enumerate() {
        dedupe_edges(i, node, &mut fixes);
    }
    for (i, node) in nodes.iter_mut().enumerate() {
        normalize_probs(i, node, &mut fixes);
    }

    // Rebuild through serde — the same path `pas check` loads files with —
    // so the repaired graph is byte-for-byte what re-reading the written
    // file would produce.
    #[derive(Serialize)]
    struct Wire {
        nodes: Vec<Node>,
    }
    let json = serde_json::to_string(&Wire { nodes })
        .map_err(|e| format!("serializing repaired graph: {e}"))?;
    let fixed: AndOrGraph =
        serde_json::from_str(&json).map_err(|e| format!("rebuilding repaired graph: {e}"))?;
    Ok((fixed, fixes))
}

/// Drops duplicate entries from `succs` and `preds`, merging OR branch
/// probabilities of dropped duplicate successors into the survivor.
fn dedupe_edges(i: usize, node: &mut Node, fixes: &mut Vec<String>) {
    // Successors first: for OR nodes the probability vector is parallel
    // to `succs`, so both must be filtered in lockstep.
    let probs = match &node.kind {
        NodeKind::Or { probs } if probs.len() == node.succs.len() => Some(probs.clone()),
        _ => None,
    };
    let mut kept = Vec::with_capacity(node.succs.len());
    let mut kept_probs: Vec<f64> = Vec::new();
    for (k, &s) in node.succs.iter().enumerate() {
        match kept.iter().position(|&seen| seen == s) {
            None => {
                kept.push(s);
                if let Some(p) = &probs {
                    kept_probs.push(p.get(k).copied().unwrap_or(0.0));
                }
            }
            Some(first) => {
                if let (Some(p), Some(slot)) = (&probs, kept_probs.get_mut(first)) {
                    *slot += p.get(k).copied().unwrap_or(0.0);
                }
                fixes.push(format!(
                    "n{i} ('{}'): dropped duplicate edge to n{}{}",
                    node.name,
                    s.index(),
                    if probs.is_some() {
                        " (probability merged into the surviving branch)"
                    } else {
                        ""
                    }
                ));
            }
        }
    }
    if kept.len() < node.succs.len() {
        node.succs = kept;
        if probs.is_some() {
            if let NodeKind::Or { probs } = &mut node.kind {
                *probs = kept_probs;
            }
        }
    }
    // Predecessors: plain dedupe, first occurrence wins. The dropped
    // duplicate corresponds to the successor-side duplicate already
    // reported above, so no extra fix line.
    let mut seen = Vec::with_capacity(node.preds.len());
    node.preds.retain(|&p| {
        if seen.contains(&p) {
            false
        } else {
            seen.push(p);
            true
        }
    });
}

/// Renormalizes an OR node's branch probabilities when they are
/// individually valid but sum away from 1.
fn normalize_probs(i: usize, node: &mut Node, fixes: &mut Vec<String>) {
    let NodeKind::Or { probs } = &mut node.kind else {
        return;
    };
    if probs.is_empty() || probs.len() != node.succs.len() {
        return; // Arity mismatch (PAS0007) has no mechanical repair.
    }
    if !probs.iter().all(|p| p.is_finite() && *p > 0.0) {
        return; // Out-of-range probabilities (PAS0008) are not fixable.
    }
    let sum: f64 = probs.iter().sum();
    if !(sum.is_finite() && sum > 0.0) || (sum - 1.0).abs() <= OR_PROB_TOLERANCE {
        return;
    }
    for p in probs.iter_mut() {
        *p /= sum;
    }
    fixes.push(format!(
        "n{i} ('{}'): renormalized OR branch probabilities (sum was {sum:.6})",
        node.name
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Code;
    use crate::graph_checks::check_graph;

    fn graph(json: &str) -> AndOrGraph {
        serde_json::from_str(json).expect("test graph parses")
    }

    /// A, then OR over B/C with probabilities summing to 0.8.
    const BAD_PROBS: &str = r#"{"nodes": [
        {"name": "A", "kind": {"Computation": {"wcet": 2.0, "acet": 1.0}}, "preds": [], "succs": [1]},
        {"name": "or", "kind": {"Or": {"probs": [0.5, 0.3]}}, "preds": [0], "succs": [2, 3]},
        {"name": "B", "kind": {"Computation": {"wcet": 3.0, "acet": 1.5}}, "preds": [1], "succs": []},
        {"name": "C", "kind": {"Computation": {"wcet": 4.0, "acet": 2.0}}, "preds": [1], "succs": []}
    ]}"#;

    /// A with a duplicated edge to B.
    const DUP_EDGE: &str = r#"{"nodes": [
        {"name": "A", "kind": {"Computation": {"wcet": 2.0, "acet": 1.0}}, "preds": [], "succs": [1, 1]},
        {"name": "B", "kind": {"Computation": {"wcet": 3.0, "acet": 1.5}}, "preds": [0, 0], "succs": []}
    ]}"#;

    #[test]
    fn renormalizes_or_probabilities() {
        let g = graph(BAD_PROBS);
        assert!(check_graph(&g, "t")
            .diagnostics
            .iter()
            .any(|d| d.code == Code::Pas0009));
        let (fixed, fixes) = fix_graph(&g).expect("fix succeeds");
        assert_eq!(fixes.len(), 1, "{fixes:?}");
        assert!(
            fixes.iter().any(|f| f.contains("renormalized")),
            "{fixes:?}"
        );
        let r = check_graph(&fixed, "t");
        assert!(
            !r.diagnostics.iter().any(|d| d.code == Code::Pas0009),
            "{}",
            r.render_human()
        );
        // Relative weights preserved: 0.5/0.8 and 0.3/0.8.
        if let NodeKind::Or { probs } = &fixed.nodes()[1].kind {
            assert!((probs[0] - 0.625).abs() < 1e-12);
            assert!((probs[1] - 0.375).abs() < 1e-12);
        } else {
            panic!("node 1 should stay an OR");
        }
    }

    #[test]
    fn drops_duplicate_edges_both_sides() {
        let g = graph(DUP_EDGE);
        assert!(check_graph(&g, "t")
            .diagnostics
            .iter()
            .any(|d| d.code == Code::Pas0005));
        let (fixed, fixes) = fix_graph(&g).expect("fix succeeds");
        assert!(!fixes.is_empty());
        assert_eq!(fixed.nodes()[0].succs.len(), 1);
        assert_eq!(fixed.nodes()[1].preds.len(), 1);
        let r = check_graph(&fixed, "t");
        assert!(r.is_clean(), "{}", r.render_human());
    }

    #[test]
    fn clean_graph_is_untouched() {
        let g = andor_graph::Segment::seq([
            andor_graph::Segment::task("A", 2.0, 1.0),
            andor_graph::Segment::task("B", 3.0, 2.0),
        ])
        .lower()
        .expect("fixture lowers");
        let before = serde_json::to_string(&g).expect("serializes");
        let (fixed, fixes) = fix_graph(&g).expect("fix succeeds");
        assert!(fixes.is_empty());
        assert_eq!(serde_json::to_string(&fixed).expect("serializes"), before);
    }

    #[test]
    fn duplicate_or_branch_merges_probability() {
        // OR with branches [B, B] at 0.6/0.4: dedupe keeps one branch at
        // probability 1.0.
        let g = graph(
            r#"{"nodes": [
            {"name": "or", "kind": {"Or": {"probs": [0.6, 0.4]}}, "preds": [], "succs": [1, 1]},
            {"name": "B", "kind": {"Computation": {"wcet": 3.0, "acet": 1.5}}, "preds": [0, 0], "succs": []}
        ]}"#,
        );
        let (fixed, fixes) = fix_graph(&g).expect("fix succeeds");
        assert!(!fixes.is_empty());
        if let NodeKind::Or { probs } = &fixed.nodes()[0].kind {
            assert_eq!(probs.len(), 1);
            assert!((probs[0] - 1.0).abs() < 1e-12);
        } else {
            panic!("node 0 should stay an OR");
        }
    }
}
