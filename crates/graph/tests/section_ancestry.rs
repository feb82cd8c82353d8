//! The parent-chain section decomposition against a reference copy of the
//! ancestor-set construction it replaced.
//!
//! `SectionGraph::build` stores each section's guaranteed history as a
//! parent link plus a chain length; the reference below stores it as the
//! explicit set of every ancestor section and intersects those sets at OR
//! merges. On random graphs — structured applications (OR merges with
//! several predecessors, as in Figure 1b), long chains of them, and
//! unstructured DAGs that hit both rejection cases — the two must agree
//! on every section, every ancestry query and every error.

use andor_graph::{
    AndOrGraph, GraphError, Node, NodeId, NodeKind, SectionGraph, SectionId, Segment,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::collections::{BTreeSet, HashMap};

/// One section of the reference decomposition.
struct RefSection {
    entry: andor_graph::sections::SectionEntry,
    nodes: Vec<NodeId>,
    exit_or: Option<NodeId>,
    depth: usize,
    ancestors: BTreeSet<SectionId>,
}

struct Reference {
    sections: Vec<RefSection>,
    node_section: Vec<Option<SectionId>>,
    branch_section: HashMap<(NodeId, usize), SectionId>,
}

/// The ancestor-set construction, kept only as the oracle for this test.
fn reference(g: &AndOrGraph) -> Result<Reference, GraphError> {
    use andor_graph::sections::SectionEntry;
    let mut r = Reference {
        sections: vec![RefSection {
            entry: SectionEntry::Root,
            nodes: Vec::new(),
            exit_or: None,
            depth: 0,
            ancestors: std::iter::once(SectionId(0)).collect(),
        }],
        node_section: vec![None; g.len()],
        branch_section: HashMap::new(),
    };
    let pred_section = |r: &Reference, pred: NodeId, node: NodeId| -> SectionId {
        if g.node(pred).kind.is_or() {
            let k = g
                .node(pred)
                .succs
                .iter()
                .position(|&s| s == node)
                .expect("adjacency is consistent");
            r.branch_section[&(pred, k)]
        } else {
            r.node_section[pred.index()].expect("preds processed first")
        }
    };
    for id in topo_forward(g) {
        let preds = &g.node(id).preds;
        if !g.node(id).kind.is_or() {
            let home = if preds.is_empty() {
                SectionId(0)
            } else {
                let candidates: Vec<SectionId> =
                    preds.iter().map(|&p| pred_section(&r, p, id)).collect();
                let deepest = *candidates
                    .iter()
                    .max_by_key(|s| r.sections[s.index()].ancestors.len())
                    .expect("non-empty");
                for c in &candidates {
                    if !r.sections[deepest.index()].ancestors.contains(c) {
                        return Err(GraphError::SectionStructure {
                            detail: format!(
                                "node '{}' has predecessors on sibling OR branches",
                                g.node(id).name
                            ),
                        });
                    }
                }
                deepest
            };
            r.node_section[id.index()] = Some(home);
            r.sections[home.index()].nodes.push(id);
            continue;
        }
        let exit_sections: BTreeSet<SectionId> = if preds.is_empty() {
            std::iter::once(SectionId(0)).collect()
        } else {
            preds.iter().map(|&p| pred_section(&r, p, id)).collect()
        };
        for &s in &exit_sections {
            match r.sections[s.index()].exit_or {
                None => r.sections[s.index()].exit_or = Some(id),
                Some(existing) if existing == id => {}
                Some(existing) => {
                    return Err(GraphError::SectionStructure {
                        detail: format!(
                            "a section flows into two OR nodes ('{}' and '{}')",
                            g.node(existing).name,
                            g.node(id).name
                        ),
                    });
                }
            }
        }
        let common: BTreeSet<SectionId> = exit_sections
            .iter()
            .map(|s| r.sections[s.index()].ancestors.clone())
            .reduce(|a, b| a.intersection(&b).copied().collect())
            .expect("at least one exit section");
        let depth = exit_sections
            .iter()
            .map(|s| r.sections[s.index()].depth)
            .max()
            .expect("at least one exit section")
            + 1;
        for k in 0..g.node(id).succs.len() {
            let sid = SectionId(r.sections.len() as u32);
            let mut ancestors = common.clone();
            ancestors.insert(sid);
            r.sections.push(RefSection {
                entry: SectionEntry::Branch { or: id, branch: k },
                nodes: Vec::new(),
                exit_or: None,
                depth,
                ancestors,
            });
            r.branch_section.insert((id, k), sid);
        }
    }
    Ok(r)
}

/// Lowest-indexed-ready-first topological order, as the builder uses.
fn topo_forward(g: &AndOrGraph) -> Vec<NodeId> {
    let mut indeg: Vec<usize> = g.nodes().iter().map(|n| n.preds.len()).collect();
    let mut ready: BTreeSet<NodeId> = (0..g.len())
        .filter(|&i| indeg[i] == 0)
        .map(|i| NodeId(i as u32))
        .collect();
    let mut order = Vec::with_capacity(g.len());
    while let Some(id) = ready.pop_first() {
        order.push(id);
        for &s in &g.node(id).succs {
            indeg[s.index()] -= 1;
            if indeg[s.index()] == 0 {
                ready.insert(s);
            }
        }
    }
    order
}

/// Checks the decomposition against the reference; returns the outcome
/// kind for coverage accounting.
fn assert_agrees(g: &AndOrGraph, what: &str) -> Outcome {
    let got = SectionGraph::build(g);
    let want = reference(g);
    let (sg, r) = match (got, want) {
        (Ok(sg), Ok(r)) => (sg, r),
        (Err(e), Err(w)) => {
            assert_eq!(e, w, "{what}: errors differ");
            return if e.to_string().contains("sibling") {
                Outcome::SiblingBranches
            } else {
                Outcome::TwoOrExits
            };
        }
        (got, want) => panic!(
            "{what}: build {:?} but reference {:?}",
            got.map(|_| ()),
            want.map(|_| ())
        ),
    };
    assert_eq!(sg.len(), r.sections.len(), "{what}: section count");
    for (i, (s, w)) in sg.sections().iter().zip(&r.sections).enumerate() {
        assert_eq!(s.entry, w.entry, "{what}: section {i} entry");
        assert_eq!(s.nodes, w.nodes, "{what}: section {i} nodes");
        assert_eq!(s.exit_or, w.exit_or, "{what}: section {i} exit_or");
        assert_eq!(s.depth, w.depth, "{what}: section {i} depth");
    }
    for i in 0..g.len() {
        let n = NodeId(i as u32);
        assert_eq!(sg.section_of(n), r.node_section[i], "{what}: node {i}");
        for k in 0..g.node(n).succs.len() {
            if g.node(n).kind.is_or() {
                assert_eq!(
                    sg.branch_section(n, k),
                    r.branch_section.get(&(n, k)).copied(),
                    "{what}: branch ({i}, {k})"
                );
            }
        }
    }
    let mut merges = false;
    for (b, w) in r.sections.iter().enumerate() {
        for a in 0..r.sections.len() {
            let (a, b) = (SectionId(a as u32), SectionId(b as u32));
            assert_eq!(
                sg.is_ancestor(a, b),
                w.ancestors.contains(&a),
                "{what}: is_ancestor({a:?}, {b:?})"
            );
        }
        if let Some(or) = w.exit_or {
            merges |= g.node(or).preds.len() > 1;
        }
    }
    if merges {
        Outcome::ValidWithMerges
    } else {
        Outcome::Valid
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Outcome {
    Valid,
    ValidWithMerges,
    SiblingBranches,
    TwoOrExits,
}

fn random_segment<R: Rng>(rng: &mut R, depth: u32, allow_branch: bool) -> Segment {
    let task = |rng: &mut R| {
        let wcet = rng.gen_range(1.0..10.0);
        Segment::task("t", wcet, wcet * rng.gen_range(0.3..1.0))
    };
    if depth == 0 {
        return task(rng);
    }
    match rng.gen_range(0..if allow_branch { 4 } else { 3 }) {
        0 => task(rng),
        1 => {
            let n = rng.gen_range(1..=4);
            Segment::seq((0..n).map(|_| random_segment(rng, depth - 1, allow_branch)))
        }
        2 => {
            let n = rng.gen_range(2..=3);
            Segment::par((0..n).map(|_| random_segment(rng, depth - 1, false)))
        }
        _ => {
            let n = rng.gen_range(2..=3);
            let p = 1.0 / n as f64;
            Segment::branch((0..n).map(|_| (p, random_segment(rng, depth - 1, true))))
        }
    }
}

/// A random DAG over raw nodes (edges only from lower to higher index),
/// bypassing the builder's section check so invalid structures reach
/// both constructions.
fn random_dag<R: Rng>(rng: &mut R) -> AndOrGraph {
    #[derive(Serialize)]
    struct Raw {
        nodes: Vec<Node>,
    }
    let n: usize = rng.gen_range(4..40);
    let mut nodes: Vec<Node> = (0..n)
        .map(|i| {
            let kind = match rng.gen_range(0..10) {
                0..=5 => NodeKind::Computation {
                    wcet: 2.0,
                    acet: 1.0,
                },
                6 | 7 => NodeKind::And,
                _ => NodeKind::Or { probs: Vec::new() },
            };
            Node {
                name: format!("v{i}"),
                kind,
                preds: Vec::new(),
                succs: Vec::new(),
            }
        })
        .collect();
    for to in 1..n {
        let k = if rng.gen_bool(0.2) {
            0
        } else {
            rng.gen_range(1..=3)
        };
        for _ in 0..k {
            // Mostly near predecessors, so chains grow deep.
            let lo = to.saturating_sub(6);
            let from = if rng.gen_bool(0.8) {
                rng.gen_range(lo..to)
            } else {
                rng.gen_range(0..to)
            };
            let (f, t) = (NodeId(from as u32), NodeId(to as u32));
            if !nodes[from].succs.contains(&t) {
                nodes[from].succs.push(t);
                nodes[to].preds.push(f);
            }
        }
    }
    for node in &mut nodes {
        let k = node.succs.len();
        if let NodeKind::Or { probs } = &mut node.kind {
            *probs = vec![1.0 / k as f64; k];
        }
    }
    let json = serde_json::to_string(&Raw { nodes }).expect("raw graph serializes");
    serde_json::from_str(&json).expect("raw graph deserializes")
}

#[test]
fn parent_chain_matches_ancestor_sets() {
    let mut seen: HashMap<Outcome, usize> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(0xA7C3);
    for case in 0..150 {
        let g = random_segment(&mut rng, 4, true)
            .lower()
            .expect("structured segments lower");
        *seen
            .entry(assert_agrees(&g, &format!("segment {case}")))
            .or_default() += 1;
    }
    for case in 0..30 {
        // Long chains: deep parent links and LCA walks across many merges.
        let n = rng.gen_range(4..24);
        let g = Segment::seq((0..n).map(|_| random_segment(&mut rng, 4, true)))
            .lower()
            .expect("chained segments lower");
        *seen
            .entry(assert_agrees(&g, &format!("chain {case}")))
            .or_default() += 1;
    }
    for case in 0..600 {
        let g = random_dag(&mut rng);
        *seen
            .entry(assert_agrees(&g, &format!("dag {case}")))
            .or_default() += 1;
    }
    for outcome in [
        Outcome::ValidWithMerges,
        Outcome::SiblingBranches,
        Outcome::TwoOrExits,
    ] {
        assert!(
            seen.get(&outcome).copied().unwrap_or(0) >= 5,
            "too few {outcome:?} cases: {seen:?}"
        );
    }
}
