//! Flat AND/OR graph representation, construction, and validation.

use crate::node::{Node, NodeId, NodeKind};
use serde::{Deserialize, Serialize};

/// Relative tolerance of an OR node's branch-probability sum: the sum
/// must lie within this distance of 1.
pub const OR_PROB_TOLERANCE: f64 = 1e-6;

/// Errors detected while building or validating an AND/OR graph: one
/// variant per graph rule. A node pair `(a, b)` names the node whose list
/// holds the entry first.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// The graph has no nodes.
    Empty,
    /// A [`GraphBuilder`] edge names a node that does not exist.
    UnknownNode(NodeId),
    /// `a` lists successor `b`, which is past the end of the node array.
    DanglingSuccessor(NodeId, NodeId),
    /// `a` lists predecessor `b`, which is past the end of the node array.
    DanglingPredecessor(NodeId, NodeId),
    /// `a` lists successor `b`, but `b` does not list `a` back.
    AsymmetricSuccessor(NodeId, NodeId),
    /// `a` lists predecessor `b`, but `b` does not list `a` back.
    AsymmetricPredecessor(NodeId, NodeId),
    /// A self-loop.
    SelfLoop(NodeId),
    /// A duplicate edge.
    DuplicateEdge(NodeId, NodeId),
    /// A computation node violates `0 < acet <= wcet` (or is non-finite).
    BadExecutionTimes {
        /// Offending node.
        node: NodeId,
    },
    /// A [`GraphBuilder`] OR branch is misused: an out-of-range
    /// probability, a plain edge out of an OR node, or a branch out of a
    /// non-OR node.
    BadOrProbabilities {
        /// Offending node.
        node: NodeId,
    },
    /// An OR node's probability list is not as long as its successor list.
    OrArity(NodeId),
    /// An OR node's branch probability (node, branch index) lies outside
    /// `(0, 1]`.
    OrProbabilityRange(NodeId, usize),
    /// An OR node's branch probabilities sum to this value, more than
    /// [`OR_PROB_TOLERANCE`] away from 1.
    OrProbabilitySum(NodeId, f64),
    /// The graph contains a cycle (the AND/OR model has no back edges;
    /// loops must be expanded, §2.1): this many nodes, the lowest-index
    /// one given, cannot be topologically ordered.
    Cycle(usize, NodeId),
    /// The graph violates the paper's OR-seriality restriction: a program
    /// section flows into more than one OR node, mixes application sinks
    /// with an OR exit, or a node has predecessors on sibling OR branches.
    SectionStructure {
        /// Human-readable description of the violation.
        detail: String,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::Empty => write!(f, "graph has no nodes"),
            GraphError::UnknownNode(n) => write!(f, "unknown node {n}"),
            GraphError::DanglingSuccessor(a, b) => write!(f, "{a} lists missing successor {b}"),
            GraphError::DanglingPredecessor(a, b) => write!(f, "{a} lists missing predecessor {b}"),
            GraphError::AsymmetricSuccessor(a, b) => write!(f, "edge {a} -> {b} is asymmetric"),
            GraphError::AsymmetricPredecessor(a, b) => write!(f, "edge {b} -> {a} is asymmetric"),
            GraphError::SelfLoop(n) => write!(f, "self loop on {n}"),
            GraphError::DuplicateEdge(a, b) => write!(f, "duplicate edge {a} -> {b}"),
            GraphError::BadExecutionTimes { node } => {
                write!(
                    f,
                    "node {node}: execution times must satisfy 0 < acet <= wcet"
                )
            }
            GraphError::BadOrProbabilities { node }
            | GraphError::OrArity(node)
            | GraphError::OrProbabilityRange(node, _)
            | GraphError::OrProbabilitySum(node, _) => {
                write!(f, "OR node {node}: invalid branch probabilities")
            }
            GraphError::Cycle(..) => write!(f, "graph contains a cycle"),
            GraphError::SectionStructure { detail } => {
                write!(f, "OR-seriality violation: {detail}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A validated AND/OR task graph.
///
/// Construct via [`GraphBuilder`] (flat edges) or
/// [`crate::structure::Segment::lower`] (hierarchical). Instances are
/// immutable after construction, so every analysis can cache against them
/// safely.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AndOrGraph {
    nodes: Vec<Node>,
}

impl AndOrGraph {
    /// All nodes, indexable by [`NodeId::index`].
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no nodes (never true for validated graphs).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow one node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Iterator over `(NodeId, &Node)`.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Nodes with no predecessors (the application's root tasks).
    pub fn sources(&self) -> Vec<NodeId> {
        self.iter()
            .filter(|(_, n)| n.preds.is_empty())
            .map(|(id, _)| id)
            .collect()
    }

    /// Nodes with no successors.
    pub fn sinks(&self) -> Vec<NodeId> {
        self.iter()
            .filter(|(_, n)| n.succs.is_empty())
            .map(|(id, _)| id)
            .collect()
    }

    /// The OR branch list of `or`: `(successor, probability)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `or` is not an OR node.
    pub fn or_branches(&self, or: NodeId) -> Vec<(NodeId, f64)> {
        let node = self.node(or);
        match &node.kind {
            NodeKind::Or { probs } => node
                .succs
                .iter()
                .copied()
                .zip(probs.iter().copied())
                .collect(),
            _ => panic!("{or} is not an OR node"),
        }
    }

    /// Sum of WCETs over all computation nodes (an upper bound on total
    /// work in any scenario).
    pub fn total_wcet(&self) -> f64 {
        self.nodes.iter().map(|n| n.kind.wcet()).sum()
    }

    /// Number of computation nodes.
    pub fn num_tasks(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind.is_computation())
            .count()
    }

    /// Number of OR nodes.
    pub fn num_or_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| n.kind.is_or()).count()
    }

    /// Every graph rule this graph breaks, in check order: node by node
    /// its adjacency, then its execution times or OR probabilities; then a
    /// cycle; then, only when nothing above fired, the section structure.
    /// Empty for a valid graph.
    ///
    /// Serde builds graphs without validating them, so this runs on the
    /// raw node slice and never panics: it looks nodes up with `get`, runs
    /// the cycle search only on consistent adjacency lists, and attempts
    /// the section decomposition only on an otherwise clean graph.
    pub fn errors(&self) -> Vec<GraphError> {
        let mut errors = node_errors(&self.nodes);
        if errors.is_empty() {
            if let Err(e) = crate::sections::SectionGraph::build(self) {
                errors.push(e);
            }
        }
        errors
    }

    /// The first of [`AndOrGraph::errors`] (needed after deserialization,
    /// since serde bypasses the builder).
    pub fn validate(&self) -> Result<(), GraphError> {
        match self.errors().into_iter().next() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Incremental constructor for [`AndOrGraph`].
///
/// # Examples
///
/// Figure 1a of the paper (an AND structure):
///
/// ```
/// use andor_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new();
/// let a = b.task("A", 8.0, 5.0);
/// let fork = b.and("A1");
/// let b_ = b.task("B", 5.0, 3.0);
/// let c = b.task("C", 4.0, 2.0);
/// let join = b.and("A2");
/// b.edge(a, fork).unwrap();
/// b.edge(fork, b_).unwrap();
/// b.edge(fork, c).unwrap();
/// b.edge(b_, join).unwrap();
/// b.edge(c, join).unwrap();
/// let g = b.build().unwrap();
/// assert_eq!(g.num_tasks(), 3);
/// ```
#[derive(Debug, Default)]
pub struct GraphBuilder {
    nodes: Vec<Node>,
    or_probs: Vec<Vec<f64>>, // parallel to nodes; only meaningful for OR
}

impl GraphBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, name: String, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            name,
            kind,
            preds: Vec::new(),
            succs: Vec::new(),
        });
        self.or_probs.push(Vec::new());
        id
    }

    /// Adds a computation node.
    pub fn task(&mut self, name: impl Into<String>, wcet: f64, acet: f64) -> NodeId {
        self.push(name.into(), NodeKind::Computation { wcet, acet })
    }

    /// Adds an AND synchronization node.
    pub fn and(&mut self, name: impl Into<String>) -> NodeId {
        self.push(name.into(), NodeKind::And)
    }

    /// Adds an OR synchronization node. Branches are attached with
    /// [`GraphBuilder::or_branch`]; plain [`GraphBuilder::edge`] calls *into*
    /// the OR node define its predecessors.
    pub fn or(&mut self, name: impl Into<String>) -> NodeId {
        self.push(name.into(), NodeKind::Or { probs: Vec::new() })
    }

    /// Adds a dependence edge `from -> to`. For OR `from`, use
    /// [`GraphBuilder::or_branch`] instead so a probability is recorded.
    pub fn edge(&mut self, from: NodeId, to: NodeId) -> Result<(), GraphError> {
        self.check_ids(from, to)?;
        if self.nodes[from.index()].kind.is_or() {
            // An OR successor needs a probability; route through or_branch.
            return Err(GraphError::BadOrProbabilities { node: from });
        }
        self.raw_edge(from, to)
    }

    /// Adds an OR branch `or -> to` taken with probability `prob`.
    pub fn or_branch(&mut self, or: NodeId, to: NodeId, prob: f64) -> Result<(), GraphError> {
        self.check_ids(or, to)?;
        if !self.nodes[or.index()].kind.is_or() {
            return Err(GraphError::BadOrProbabilities { node: or });
        }
        if !(prob > 0.0 && prob <= 1.0 && prob.is_finite()) {
            return Err(GraphError::BadOrProbabilities { node: or });
        }
        self.raw_edge(or, to)?;
        self.or_probs[or.index()].push(prob);
        Ok(())
    }

    fn check_ids(&self, a: NodeId, b: NodeId) -> Result<(), GraphError> {
        for id in [a, b] {
            if id.index() >= self.nodes.len() {
                return Err(GraphError::UnknownNode(id));
            }
        }
        if a == b {
            return Err(GraphError::SelfLoop(a));
        }
        Ok(())
    }

    fn raw_edge(&mut self, from: NodeId, to: NodeId) -> Result<(), GraphError> {
        if self.nodes[from.index()].succs.contains(&to) {
            return Err(GraphError::DuplicateEdge(from, to));
        }
        self.nodes[from.index()].succs.push(to);
        self.nodes[to.index()].preds.push(from);
        Ok(())
    }

    /// True if `id` names an OR node — used by the structural lowering to
    /// route edges out of OR merge nodes through [`GraphBuilder::or_branch`].
    pub fn kind_is_or(&self, id: NodeId) -> bool {
        id.index() < self.nodes.len() && self.nodes[id.index()].kind.is_or()
    }

    /// Finalizes the graph and returns the first of its
    /// [`AndOrGraph::errors`], if any.
    pub fn build(mut self) -> Result<AndOrGraph, GraphError> {
        // Install collected OR probabilities.
        for (node, probs) in self.nodes.iter_mut().zip(self.or_probs) {
            if let NodeKind::Or { probs: p } = &mut node.kind {
                *p = probs;
            }
        }
        let g = AndOrGraph { nodes: self.nodes };
        g.validate()?;
        Ok(g)
    }
}

/// The node rules and the cycle search of [`AndOrGraph::errors`].
fn node_errors(nodes: &[Node]) -> Vec<GraphError> {
    let mut errors = Vec::new();
    if nodes.is_empty() {
        errors.push(GraphError::Empty);
        return errors;
    }
    // True while the adjacency lists are a consistent, loop-free edge set:
    // the precondition of the cycle search.
    let mut consistent = true;
    for (i, node) in nodes.iter().enumerate() {
        let me = NodeId(i as u32);
        let before = errors.len();
        adjacency_errors(nodes, me, node, &mut errors);
        consistent &= errors.len() == before;
        kind_errors(me, node, &mut errors);
    }
    if consistent {
        errors.extend(cycle(nodes));
    }
    errors
}

/// Dangling entries, self loops, duplicate edges and adjacency lists that
/// disagree.
fn adjacency_errors(nodes: &[Node], me: NodeId, node: &Node, errors: &mut Vec<GraphError>) {
    for (j, &succ) in node.succs.iter().enumerate() {
        let Some(other) = nodes.get(succ.index()) else {
            errors.push(GraphError::DanglingSuccessor(me, succ));
            continue;
        };
        if succ == me {
            errors.push(GraphError::SelfLoop(me));
            continue;
        }
        if node.succs.iter().take(j).any(|&e| e == succ) {
            errors.push(GraphError::DuplicateEdge(me, succ));
        }
        if !other.preds.contains(&me) {
            errors.push(GraphError::AsymmetricSuccessor(me, succ));
        }
    }
    for &pred in &node.preds {
        let Some(other) = nodes.get(pred.index()) else {
            errors.push(GraphError::DanglingPredecessor(me, pred));
            continue;
        };
        if pred != me && !other.succs.contains(&me) {
            errors.push(GraphError::AsymmetricPredecessor(me, pred));
        }
    }
}

/// Execution times of a computation node; arity, range and sum of an OR
/// node's branch probabilities.
fn kind_errors(me: NodeId, node: &Node, errors: &mut Vec<GraphError>) {
    match &node.kind {
        NodeKind::Computation { wcet, acet } => {
            if !(wcet.is_finite() && acet.is_finite() && *acet > 0.0 && *acet <= *wcet) {
                errors.push(GraphError::BadExecutionTimes { node: me });
            }
        }
        NodeKind::And => {}
        NodeKind::Or { probs } => {
            if probs.len() != node.succs.len() {
                errors.push(GraphError::OrArity(me));
            }
            let before = errors.len();
            for (branch, &p) in probs.iter().enumerate() {
                if !(p.is_finite() && p > 0.0 && p <= 1.0) {
                    errors.push(GraphError::OrProbabilityRange(me, branch));
                }
            }
            if errors.len() == before && !probs.is_empty() {
                let sum: f64 = probs.iter().sum();
                if (sum - 1.0).abs() > OR_PROB_TOLERANCE {
                    errors.push(GraphError::OrProbabilitySum(me, sum));
                }
            }
        }
    }
}

/// Kahn's algorithm over consistent adjacency lists: `Some(Cycle)` when
/// some node never becomes ready. A node was ordered exactly when its
/// remaining in-degree reached zero.
fn cycle(nodes: &[Node]) -> Option<GraphError> {
    let mut indeg: Vec<usize> = nodes.iter().map(|n| n.preds.len()).collect();
    let mut ready: Vec<usize> = (0..nodes.len()).filter(|&i| indeg[i] == 0).collect();
    while let Some(i) = ready.pop() {
        for s in nodes.get(i).map_or(&[][..], |n| &n.succs) {
            if let Some(d) = indeg.get_mut(s.index()).filter(|d| **d > 0) {
                *d -= 1;
                if *d == 0 {
                    ready.push(s.index());
                }
            }
        }
    }
    let example = indeg.iter().position(|&d| d > 0)?;
    let stuck = indeg.iter().filter(|&&d| d > 0).count();
    Some(GraphError::Cycle(stuck, NodeId(example as u32)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A -> O1 -> {B (30%) | C (70%)}, both -> O2 -> D  (Figure 1b shape).
    pub(crate) fn or_diamond() -> AndOrGraph {
        let mut b = GraphBuilder::new();
        let a = b.task("A", 8.0, 5.0);
        let o1 = b.or("O1");
        let t_b = b.task("B", 5.0, 3.0);
        let t_c = b.task("C", 4.0, 2.0);
        let o2 = b.or("O2");
        let d = b.task("D", 6.0, 4.0);
        b.edge(a, o1).unwrap();
        b.or_branch(o1, t_b, 0.3).unwrap();
        b.or_branch(o1, t_c, 0.7).unwrap();
        b.edge(t_b, o2).unwrap();
        b.edge(t_c, o2).unwrap();
        b.or_branch(o2, d, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builds_or_diamond() {
        let g = or_diamond();
        assert_eq!(g.len(), 6);
        assert_eq!(g.num_tasks(), 4);
        assert_eq!(g.num_or_nodes(), 2);
        assert_eq!(g.sources(), vec![NodeId(0)]);
        assert_eq!(g.sinks(), vec![NodeId(5)]);
    }

    #[test]
    fn or_branches_pairs_probs() {
        let g = or_diamond();
        let br = g.or_branches(NodeId(1));
        assert_eq!(br.len(), 2);
        assert_eq!(br[0], (NodeId(2), 0.3));
        assert_eq!(br[1], (NodeId(3), 0.7));
    }

    #[test]
    #[should_panic(expected = "not an OR node")]
    fn or_branches_panics_on_task() {
        or_diamond().or_branches(NodeId(0));
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(GraphBuilder::new().build().unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn rejects_cycles() {
        let mut b = GraphBuilder::new();
        let x = b.task("x", 1.0, 1.0);
        let y = b.task("y", 1.0, 1.0);
        b.edge(x, y).unwrap();
        b.edge(y, x).unwrap();
        assert_eq!(b.build().unwrap_err(), GraphError::Cycle(2, x));
    }

    #[test]
    fn rejects_self_loop_and_duplicate_edges() {
        let mut b = GraphBuilder::new();
        let x = b.task("x", 1.0, 1.0);
        let y = b.task("y", 1.0, 1.0);
        assert_eq!(b.edge(x, x).unwrap_err(), GraphError::SelfLoop(x));
        b.edge(x, y).unwrap();
        assert_eq!(b.edge(x, y).unwrap_err(), GraphError::DuplicateEdge(x, y));
    }

    #[test]
    fn rejects_bad_execution_times() {
        for (w, a) in [(1.0, 2.0), (1.0, 0.0), (f64::NAN, 1.0), (1.0, -3.0)] {
            let mut b = GraphBuilder::new();
            b.task("x", w, a);
            assert!(matches!(
                b.build().unwrap_err(),
                GraphError::BadExecutionTimes { .. }
            ));
        }
    }

    #[test]
    fn rejects_or_prob_sum_mismatch() {
        let mut b = GraphBuilder::new();
        let a = b.task("a", 1.0, 1.0);
        let o = b.or("o");
        let x = b.task("x", 1.0, 1.0);
        let y = b.task("y", 1.0, 1.0);
        b.edge(a, o).unwrap();
        b.or_branch(o, x, 0.5).unwrap();
        b.or_branch(o, y, 0.3).unwrap(); // sums to 0.8
        assert!(matches!(
            b.build().unwrap_err(),
            GraphError::OrProbabilitySum(node, _) if node == o
        ));
    }

    #[test]
    fn rejects_plain_edge_out_of_or() {
        let mut b = GraphBuilder::new();
        let o = b.or("o");
        let x = b.task("x", 1.0, 1.0);
        assert!(matches!(
            b.edge(o, x).unwrap_err(),
            GraphError::BadOrProbabilities { .. }
        ));
    }

    #[test]
    fn rejects_or_branch_from_task() {
        let mut b = GraphBuilder::new();
        let x = b.task("x", 1.0, 1.0);
        let y = b.task("y", 1.0, 1.0);
        assert!(matches!(
            b.or_branch(x, y, 1.0).unwrap_err(),
            GraphError::BadOrProbabilities { .. }
        ));
    }

    #[test]
    fn rejects_bad_probability_values() {
        let mut b = GraphBuilder::new();
        let o = b.or("o");
        let x = b.task("x", 1.0, 1.0);
        assert!(b.or_branch(o, x, 0.0).is_err());
        assert!(b.or_branch(o, x, 1.5).is_err());
        assert!(b.or_branch(o, x, f64::NAN).is_err());
    }

    #[test]
    fn total_wcet_sums_tasks_only() {
        let g = or_diamond();
        assert!((g.total_wcet() - (8.0 + 5.0 + 4.0 + 6.0)).abs() < 1e-12);
    }

    #[test]
    fn serde_round_trip_revalidates() {
        let g = or_diamond();
        let json = serde_json::to_string(&g).unwrap();
        let back: AndOrGraph = serde_json::from_str(&json).unwrap();
        back.validate().unwrap();
        assert_eq!(back.len(), g.len());
    }

    fn node(name: &str, kind: NodeKind, preds: &[u32], succs: &[u32]) -> Node {
        Node {
            name: name.into(),
            kind,
            preds: preds.iter().map(|&i| NodeId(i)).collect(),
            succs: succs.iter().map(|&i| NodeId(i)).collect(),
        }
    }

    #[test]
    fn errors_collect_every_rule_in_node_order() {
        let task = |w, a| NodeKind::Computation { wcet: w, acet: a };
        let g = AndOrGraph {
            nodes: vec![
                // Dangling successor, duplicate edge to n1, bad times.
                node("a", task(1.0, 2.0), &[], &[9, 1, 1]),
                // Lists n2 as a predecessor that does not list it back.
                node("b", NodeKind::And, &[0, 2], &[]),
                // OR: two probabilities for one successor, one past 1;
                // n0 does not list it as a predecessor.
                node(
                    "o",
                    NodeKind::Or {
                        probs: vec![0.5, 1.5],
                    },
                    &[],
                    &[0],
                ),
            ],
        };
        let n = NodeId;
        assert_eq!(
            g.errors(),
            vec![
                GraphError::DanglingSuccessor(n(0), n(9)),
                GraphError::DuplicateEdge(n(0), n(1)),
                GraphError::BadExecutionTimes { node: n(0) },
                GraphError::AsymmetricPredecessor(n(1), n(2)),
                GraphError::AsymmetricSuccessor(n(2), n(0)),
                GraphError::OrArity(n(2)),
                GraphError::OrProbabilityRange(n(2), 1),
            ]
        );
        assert_eq!(g.validate(), Err(g.errors()[0].clone()));
    }

    #[test]
    fn cycle_search_counts_the_stuck_nodes() {
        let task = NodeKind::Computation {
            wcet: 1.0,
            acet: 1.0,
        };
        let g = AndOrGraph {
            nodes: vec![
                node("a", task.clone(), &[], &[]),
                node("b", task.clone(), &[2], &[2]),
                node("c", task, &[1], &[1]),
            ],
        };
        assert_eq!(g.errors(), vec![GraphError::Cycle(2, NodeId(1))]);
    }

    /// Serde builds graphs unchecked, so any node slice can reach
    /// `errors`: seeded random slices with dangling, duplicate and
    /// one-sided edges, self loops and non-finite numbers must come back
    /// as errors, never as a panic, and `validate` must agree.
    #[test]
    fn hostile_node_slices_do_not_panic() {
        struct Xorshift(u64);
        impl Xorshift {
            fn below(&mut self, bound: u64) -> u64 {
                self.0 ^= self.0 << 13;
                self.0 ^= self.0 >> 7;
                self.0 ^= self.0 << 17;
                self.0 % bound
            }
            fn number(&mut self) -> f64 {
                let pool = [1.0, 0.5, 0.0, -1.0, 2.0, f64::NAN, f64::INFINITY];
                pool[self.below(pool.len() as u64) as usize]
            }
            fn ids(&mut self) -> Vec<NodeId> {
                (0..self.below(4))
                    .map(|_| NodeId(self.below(9) as u32))
                    .collect()
            }
        }
        let mut rng = Xorshift(0x9e37_79b9_7f4a_7c15);
        let mut failing = 0;
        for _ in 0..5000 {
            let nodes: Vec<Node> = (0..rng.below(7))
                .map(|i| {
                    let kind = match rng.below(3) {
                        0 => NodeKind::Computation {
                            wcet: rng.number(),
                            acet: rng.number(),
                        },
                        1 => NodeKind::And,
                        _ => NodeKind::Or {
                            probs: (0..rng.below(4)).map(|_| rng.number()).collect(),
                        },
                    };
                    Node {
                        name: format!("n{i}"),
                        kind,
                        preds: rng.ids(),
                        succs: rng.ids(),
                    }
                })
                .collect();
            let g = AndOrGraph { nodes };
            let errors = g.errors();
            assert_eq!(g.validate().err(), errors.first().cloned());
            failing += usize::from(!errors.is_empty());
        }
        assert!(failing > 4000, "{failing} of 5000 slices broke a rule");
    }

    #[test]
    fn unknown_node_in_edge() {
        let mut b = GraphBuilder::new();
        let x = b.task("x", 1.0, 1.0);
        assert_eq!(
            b.edge(x, NodeId(99)).unwrap_err(),
            GraphError::UnknownNode(NodeId(99))
        );
    }
}
