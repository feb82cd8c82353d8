//! Program-section decomposition.
//!
//! The paper's OR-seriality simplification ("all the processors will
//! synchronize at an OR node") means execution proceeds as a *chain* of
//! program sections: the root section runs to completion, its exit OR node
//! fires and selects a branch, the branch's section runs, and so on until a
//! section with no exit OR ends the application. Sections may contain
//! arbitrary AND-parallelism; OR nodes only ever sit *between* sections.
//!
//! [`SectionGraph::build`] computes this decomposition for a validated DAG
//! and rejects graphs where the chain property cannot hold:
//!
//! * a section whose nodes feed two *different* OR nodes (two
//!   synchronization points would race);
//! * a node with predecessors on sibling OR branches (it could never become
//!   ready in scenarios that take the other branch).
//!
//! Cross-section data edges from an *ancestor* section are fine — the
//! ancestor completed before the section started — and merge reconvergence
//! is expressed with multi-predecessor OR nodes, as in Figure 1b of the
//! paper.

use crate::graph::{AndOrGraph, GraphError};
use crate::node::NodeId;
use serde::{Deserialize, Serialize};
use std::{cmp::Reverse, collections::BinaryHeap};

/// Index of a section within a [`SectionGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SectionId(pub u32);

impl SectionId {
    /// The section index as a usize.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// How a section becomes active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SectionEntry {
    /// Active from application start (contains the root tasks).
    Root,
    /// Activated when OR node `or` fires and selects branch `branch`.
    Branch {
        /// The OR node guarding this section.
        or: NodeId,
        /// Index into the OR node's successor/probability lists.
        branch: usize,
    },
}

/// One program section: a maximal OR-free region executed between two
/// synchronization points.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Section {
    /// How the section is entered.
    pub entry: SectionEntry,
    /// The section's computation and AND nodes, in topological order.
    /// May be empty (an OR node directly feeding another OR node).
    pub nodes: Vec<NodeId>,
    /// The OR node the section synchronizes into, or `None` if the
    /// application ends when this section drains.
    pub exit_or: Option<NodeId>,
    /// Distance from the root section along the section chain.
    pub depth: usize,
    /// The nearest section guaranteed to have executed before this one
    /// (`None` for the root). The guaranteed history of a section is its
    /// parent chain up to the root, used to admit ancestor cross-edges.
    parent: Option<SectionId>,
    /// Number of sections on the parent chain (0 for the root).
    chain_len: usize,
}

impl Section {
    /// True if the section has neither tasks nor synchronization nodes of
    /// its own (a direct OR-to-OR hop).
    pub fn is_passthrough(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// The section decomposition of an AND/OR graph.
#[derive(Debug, Clone)]
pub struct SectionGraph {
    sections: Vec<Section>,
    /// Per-node owning section (`None` for OR nodes, which sit between
    /// sections).
    node_section: Vec<Option<SectionId>>,
    /// Per node: the section of branch 0 and the branch count. An OR
    /// node's branch sections have consecutive ids, so branch `k`
    /// activates section `first + k`; other nodes have no branches.
    branches: Vec<(SectionId, u32)>,
}

impl SectionGraph {
    /// Decomposes `g` into program sections, or reports why the graph
    /// violates OR-seriality.
    pub fn build(g: &AndOrGraph) -> Result<Self, GraphError> {
        Builder::new(g).run()
    }

    /// The root section.
    pub fn root(&self) -> SectionId {
        SectionId(0)
    }

    /// All sections; index with [`SectionId::index`].
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Borrow one section.
    pub fn section(&self, id: SectionId) -> &Section {
        &self.sections[id.index()]
    }

    /// The section owning a non-OR node (`None` for OR nodes).
    pub fn section_of(&self, node: NodeId) -> Option<SectionId> {
        self.node_section[node.index()]
    }

    /// The section activated when `or` selects branch `k`; `None` when
    /// `or` is not an OR node of this graph or has no branch `k`.
    pub fn branch_section(&self, or: NodeId, k: usize) -> Option<SectionId> {
        let &(first, n) = self.branches.get(or.index())?;
        (k < n as usize).then(|| SectionId(first.0 + k as u32))
    }

    /// True if `maybe_ancestor` is `section` itself or one of its
    /// guaranteed-predecessor sections.
    pub fn is_ancestor(&self, maybe_ancestor: SectionId, section: SectionId) -> bool {
        is_ancestor(&self.sections, maybe_ancestor, section)
    }

    /// Number of sections.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// Always false for a built decomposition (the root section exists).
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }
}

/// True if `maybe_ancestor` lies on `section`'s parent chain (or is
/// `section` itself). Parent chains shorten by one per step, so the walk
/// stops at `maybe_ancestor`'s chain length.
fn is_ancestor(sections: &[Section], maybe_ancestor: SectionId, section: SectionId) -> bool {
    let target = sections[maybe_ancestor.index()].chain_len;
    let mut cur = section;
    while sections[cur.index()].chain_len > target {
        cur = sections[cur.index()]
            .parent
            .expect("only the root has no parent");
    }
    cur == maybe_ancestor
}

/// The deepest section on both `a`'s and `b`'s parent chains. Every chain
/// ends at the root, so one always exists.
fn common_ancestor(sections: &[Section], mut a: SectionId, mut b: SectionId) -> SectionId {
    let parent = |s: SectionId| {
        sections[s.index()]
            .parent
            .expect("only the root has no parent")
    };
    while sections[a.index()].chain_len > sections[b.index()].chain_len {
        a = parent(a);
    }
    while sections[b.index()].chain_len > sections[a.index()].chain_len {
        b = parent(b);
    }
    while a != b {
        a = parent(a);
        b = parent(b);
    }
    a
}

struct Builder<'g> {
    g: &'g AndOrGraph,
    sections: Vec<Section>,
    node_section: Vec<Option<SectionId>>,
    branches: Vec<(SectionId, u32)>,
}

impl<'g> Builder<'g> {
    fn new(g: &'g AndOrGraph) -> Self {
        Self {
            g,
            sections: Vec::new(),
            node_section: vec![None; g.len()],
            branches: vec![(SectionId(0), 0); g.len()],
        }
    }

    fn run(mut self) -> Result<SectionGraph, GraphError> {
        // Root section is always id 0.
        self.sections.push(Section {
            entry: SectionEntry::Root,
            nodes: Vec::new(),
            exit_or: None,
            depth: 0,
            parent: None,
            chain_len: 0,
        });

        for id in topo_forward(self.g) {
            if self.g.node(id).kind.is_or() {
                self.process_or(id)?;
            } else {
                self.process_plain(id)?;
            }
        }
        Ok(SectionGraph {
            sections: self.sections,
            node_section: self.node_section,
            branches: self.branches,
        })
    }

    /// The section a dependence edge `pred -> node` arrives from.
    fn pred_section(&self, pred: NodeId, node: NodeId) -> SectionId {
        if self.g.node(pred).kind.is_or() {
            let k = self
                .g
                .node(pred)
                .succs
                .iter()
                .position(|&s| s == node)
                .expect("adjacency is consistent");
            SectionId(self.branches[pred.index()].0 .0 + k as u32)
        } else {
            self.node_section[pred.index()].expect("preds processed first (topo order)")
        }
    }

    fn process_plain(&mut self, id: NodeId) -> Result<(), GraphError> {
        let preds = &self.g.node(id).preds;
        let home = if preds.is_empty() {
            SectionId(0)
        } else {
            // The node lives in the deepest candidate; all other candidates
            // must be ancestors of it (already-completed sections).
            let deepest = preds
                .iter()
                .map(|&p| self.pred_section(p, id))
                .max_by_key(|s| self.sections[s.index()].chain_len)
                .expect("non-empty");
            if preds
                .iter()
                .any(|&p| !is_ancestor(&self.sections, self.pred_section(p, id), deepest))
            {
                return Err(GraphError::SectionStructure {
                    detail: format!(
                        "node '{}' has predecessors on sibling OR branches",
                        self.g.node(id).name
                    ),
                });
            }
            deepest
        };
        self.node_section[id.index()] = Some(home);
        self.sections[home.index()].nodes.push(id);
        Ok(())
    }

    fn process_or(&mut self, id: NodeId) -> Result<(), GraphError> {
        // Sections that drain into this OR node, ascending and distinct.
        let preds = &self.g.node(id).preds;
        let mut exit_sections: Vec<SectionId> = if preds.is_empty() {
            // A source OR: the (possibly empty) root section exits into it.
            vec![SectionId(0)]
        } else {
            preds.iter().map(|&p| self.pred_section(p, id)).collect()
        };
        exit_sections.sort_unstable();
        exit_sections.dedup();
        for &s in &exit_sections {
            match self.sections[s.index()].exit_or {
                None => self.sections[s.index()].exit_or = Some(id),
                Some(existing) if existing == id => {}
                Some(existing) => {
                    return Err(GraphError::SectionStructure {
                        detail: format!(
                            "a section flows into two OR nodes ('{}' and '{}')",
                            self.g.node(existing).name,
                            self.g.node(id).name
                        ),
                    });
                }
            }
        }
        // Guaranteed-completed history of any branch taken from this OR:
        // the part of the exit sections' parent chains they all share.
        let parent = exit_sections
            .iter()
            .copied()
            .reduce(|a, b| common_ancestor(&self.sections, a, b))
            .expect("at least one exit section");
        let chain_len = self.sections[parent.index()].chain_len + 1;
        let depth = exit_sections
            .iter()
            .map(|s| self.sections[s.index()].depth)
            .max()
            .expect("at least one exit section")
            + 1;
        let n_branches = self.g.node(id).succs.len();
        self.branches[id.index()] = (SectionId(self.sections.len() as u32), n_branches as u32);
        for k in 0..n_branches {
            self.sections.push(Section {
                entry: SectionEntry::Branch { or: id, branch: k },
                nodes: Vec::new(),
                exit_or: None,
                depth,
                parent: Some(parent),
                chain_len,
            });
        }
        Ok(())
    }
}

/// Deterministic topological order: repeatedly take the lowest-indexed
/// ready node off a min-heap. (The graph's own `topo_order` uses a stack
/// and is only "some" valid order; section construction wants
/// determinism for stable error messages and section numbering.)
fn topo_forward(g: &AndOrGraph) -> Vec<NodeId> {
    let mut indeg: Vec<usize> = g.nodes().iter().map(|n| n.preds.len()).collect();
    let mut ready: BinaryHeap<Reverse<NodeId>> = indeg
        .iter()
        .enumerate()
        .filter(|(_, d)| **d == 0)
        .map(|(i, _)| Reverse(NodeId(i as u32)))
        .collect();
    let mut order = Vec::with_capacity(g.len());
    while let Some(Reverse(id)) = ready.pop() {
        order.push(id);
        for &s in &g.node(id).succs {
            indeg[s.index()] -= 1;
            if indeg[s.index()] == 0 {
                ready.push(Reverse(s));
            }
        }
    }
    debug_assert_eq!(order.len(), g.len(), "graph validated as acyclic");
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    /// A -> O1 -> {B | C} -> O2 -> D
    fn or_diamond() -> AndOrGraph {
        let mut b = GraphBuilder::new();
        let a = b.task("A", 8.0, 5.0);
        let o1 = b.or("O1");
        let t_b = b.task("B", 5.0, 3.0);
        let t_c = b.task("C", 4.0, 2.0);
        let o2 = b.or("O2");
        let d = b.task("D", 6.0, 4.0);
        b.edge(a, o1).expect("edge is valid");
        b.or_branch(o1, t_b, 0.3).expect("branch is valid");
        b.or_branch(o1, t_c, 0.7).expect("branch is valid");
        b.edge(t_b, o2).expect("edge is valid");
        b.edge(t_c, o2).expect("edge is valid");
        b.or_branch(o2, d, 1.0).expect("branch is valid");
        b.build().expect("graph builds")
    }

    #[test]
    fn diamond_decomposes_into_four_sections() {
        let g = or_diamond();
        let sg = SectionGraph::build(&g).expect("sections build");
        // root {A}, branch(O1,0) {B}, branch(O1,1) {C}, branch(O2,0) {D}
        assert_eq!(sg.len(), 4);
        let root = sg.section(sg.root());
        assert_eq!(root.entry, SectionEntry::Root);
        assert_eq!(root.nodes, vec![NodeId(0)]);
        assert_eq!(root.exit_or, Some(NodeId(1)));
        assert_eq!(root.depth, 0);

        let b0 = sg
            .branch_section(NodeId(1), 0)
            .expect("branch has a section");
        let b1 = sg
            .branch_section(NodeId(1), 1)
            .expect("branch has a section");
        assert_eq!(sg.section(b0).nodes, vec![NodeId(2)]);
        assert_eq!(sg.section(b1).nodes, vec![NodeId(3)]);
        assert_eq!(sg.section(b0).exit_or, Some(NodeId(4)));
        assert_eq!(sg.section(b1).exit_or, Some(NodeId(4)));
        assert_eq!(sg.section(b0).depth, 1);

        let cont = sg
            .branch_section(NodeId(4), 0)
            .expect("branch has a section");
        assert_eq!(sg.section(cont).nodes, vec![NodeId(5)]);
        assert_eq!(sg.section(cont).exit_or, None);
        assert_eq!(sg.section(cont).depth, 2);
    }

    #[test]
    fn ancestors_of_merge_continuation_exclude_branches() {
        let g = or_diamond();
        let sg = SectionGraph::build(&g).expect("sections build");
        let b0 = sg
            .branch_section(NodeId(1), 0)
            .expect("branch has a section");
        let cont = sg
            .branch_section(NodeId(4), 0)
            .expect("branch has a section");
        assert!(sg.is_ancestor(sg.root(), cont));
        assert!(
            !sg.is_ancestor(b0, cont),
            "branch is not guaranteed history"
        );
        assert!(sg.is_ancestor(cont, cont));
    }

    #[test]
    fn section_of_maps_tasks_not_ors() {
        let g = or_diamond();
        let sg = SectionGraph::build(&g).expect("sections build");
        assert_eq!(sg.section_of(NodeId(0)), Some(sg.root()));
        assert_eq!(sg.section_of(NodeId(1)), None); // OR node
    }

    #[test]
    fn and_parallelism_stays_in_one_section() {
        let mut b = GraphBuilder::new();
        let a = b.task("A", 8.0, 5.0);
        let fork = b.and("F");
        let x = b.task("X", 5.0, 3.0);
        let y = b.task("Y", 4.0, 2.0);
        let join = b.and("J");
        b.edge(a, fork).expect("edge is valid");
        b.edge(fork, x).expect("edge is valid");
        b.edge(fork, y).expect("edge is valid");
        b.edge(x, join).expect("edge is valid");
        b.edge(y, join).expect("edge is valid");
        let g = b.build().expect("graph builds");
        let sg = SectionGraph::build(&g).expect("sections build");
        assert_eq!(sg.len(), 1);
        assert_eq!(sg.section(sg.root()).nodes.len(), 5);
        assert_eq!(sg.section(sg.root()).exit_or, None);
    }

    #[test]
    fn cross_edge_from_ancestor_is_allowed() {
        // A -> O1 -> {B | C} -> O2 -> AND(J) with extra data edge A -> J.
        let mut b = GraphBuilder::new();
        let a = b.task("A", 8.0, 5.0);
        let o1 = b.or("O1");
        let t_b = b.task("B", 5.0, 3.0);
        let t_c = b.task("C", 4.0, 2.0);
        let o2 = b.or("O2");
        let j = b.and("J");
        let d = b.task("D", 6.0, 4.0);
        b.edge(a, o1).expect("edge is valid");
        b.or_branch(o1, t_b, 0.3).expect("branch is valid");
        b.or_branch(o1, t_c, 0.7).expect("branch is valid");
        b.edge(t_b, o2).expect("edge is valid");
        b.edge(t_c, o2).expect("edge is valid");
        b.or_branch(o2, j, 1.0).expect("branch is valid");
        b.edge(a, j).expect("edge is valid"); // ancestor cross edge
        b.edge(j, d).expect("edge is valid");
        let g = b.build().expect("graph builds");
        let sg = SectionGraph::build(&g).expect("sections build");
        let cont = sg
            .branch_section(NodeId(4), 0)
            .expect("branch has a section");
        assert_eq!(sg.section(cont).nodes, vec![NodeId(5), NodeId(6)]);
    }

    #[test]
    fn sibling_branch_cross_edge_rejected() {
        // B (on branch 0) feeding J (on branch 1) can never be ready when
        // branch 1 is taken.
        let mut b = GraphBuilder::new();
        let a = b.task("A", 8.0, 5.0);
        let o1 = b.or("O1");
        let t_b = b.task("B", 5.0, 3.0);
        let t_c = b.task("C", 4.0, 2.0);
        let j = b.and("J");
        b.edge(a, o1).expect("edge is valid");
        b.or_branch(o1, t_b, 0.3).expect("branch is valid");
        b.or_branch(o1, t_c, 0.7).expect("branch is valid");
        b.edge(t_c, j).expect("edge is valid");
        b.edge(t_b, j).expect("edge is valid"); // sibling cross edge
        let err = b.build().expect_err("structure violation is rejected");
        assert!(matches!(err, GraphError::SectionStructure { .. }), "{err}");
    }

    #[test]
    fn two_or_exits_from_one_section_rejected() {
        // A fork leading to two different OR nodes: two simultaneous
        // synchronization points.
        let mut b = GraphBuilder::new();
        let fork = b.and("F");
        let x = b.task("X", 5.0, 3.0);
        let y = b.task("Y", 4.0, 2.0);
        let o1 = b.or("O1");
        let o2 = b.or("O2");
        let p = b.task("P", 1.0, 1.0);
        let q = b.task("Q", 1.0, 1.0);
        b.edge(fork, x).expect("edge is valid");
        b.edge(fork, y).expect("edge is valid");
        b.edge(x, o1).expect("edge is valid");
        b.edge(y, o2).expect("edge is valid");
        b.or_branch(o1, p, 1.0).expect("branch is valid");
        b.or_branch(o2, q, 1.0).expect("branch is valid");
        let err = b.build().expect_err("structure violation is rejected");
        assert!(matches!(err, GraphError::SectionStructure { .. }), "{err}");
    }

    #[test]
    fn or_to_or_passthrough_section() {
        // O1 branch 1 goes directly to O2: empty pass-through section.
        let mut b = GraphBuilder::new();
        let a = b.task("A", 8.0, 5.0);
        let o1 = b.or("O1");
        let t_b = b.task("B", 5.0, 3.0);
        let o2 = b.or("O2");
        let d = b.task("D", 6.0, 4.0);
        b.edge(a, o1).expect("edge is valid");
        b.or_branch(o1, t_b, 0.4).expect("branch is valid");
        b.or_branch(o1, o2, 0.6).expect("branch is valid");
        b.edge(t_b, o2).expect("edge is valid");
        b.or_branch(o2, d, 1.0).expect("branch is valid");
        let g = b.build().expect("graph builds");
        let sg = SectionGraph::build(&g).expect("sections build");
        let skip = sg
            .branch_section(NodeId(1), 1)
            .expect("branch has a section");
        assert!(sg.section(skip).is_passthrough());
        assert_eq!(sg.section(skip).exit_or, Some(NodeId(3)));
    }

    #[test]
    fn nested_or_depths_increase() {
        // A -> O1 -> { B -> O2 -> {C | D} | E }
        let mut b = GraphBuilder::new();
        let a = b.task("A", 2.0, 1.0);
        let o1 = b.or("O1");
        let tb = b.task("B", 2.0, 1.0);
        let o2 = b.or("O2");
        let tc = b.task("C", 2.0, 1.0);
        let td = b.task("D", 2.0, 1.0);
        let te = b.task("E", 2.0, 1.0);
        b.edge(a, o1).expect("edge is valid");
        b.or_branch(o1, tb, 0.5).expect("branch is valid");
        b.or_branch(o1, te, 0.5).expect("branch is valid");
        b.edge(tb, o2).expect("edge is valid");
        b.or_branch(o2, tc, 0.5).expect("branch is valid");
        b.or_branch(o2, td, 0.5).expect("branch is valid");
        let g = b.build().expect("graph builds");
        let sg = SectionGraph::build(&g).expect("sections build");
        let s_b = sg.branch_section(o1, 0).expect("branch has a section");
        let s_c = sg.branch_section(o2, 0).expect("branch has a section");
        assert_eq!(sg.section(s_b).depth, 1);
        assert_eq!(sg.section(s_c).depth, 2);
        // E's section never sees O2's sections as ancestors.
        let s_e = sg.branch_section(o1, 1).expect("branch has a section");
        assert!(!sg.is_ancestor(s_c, s_e));
    }

    #[test]
    fn multiple_root_tasks_share_root_section() {
        let mut b = GraphBuilder::new();
        let x = b.task("X", 1.0, 0.5);
        let y = b.task("Y", 2.0, 1.0);
        let j = b.and("J");
        b.edge(x, j).expect("edge is valid");
        b.edge(y, j).expect("edge is valid");
        let g = b.build().expect("graph builds");
        let sg = SectionGraph::build(&g).expect("sections build");
        assert_eq!(sg.len(), 1);
        assert_eq!(sg.section(sg.root()).nodes.len(), 3);
    }
}
