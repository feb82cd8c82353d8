//! Execution scenarios: resolutions of every OR decision along one run.
//!
//! Because sections execute serially (see [`crate::sections`]), a run of the
//! application is fully described by the ordered list of `(OR node, branch)`
//! choices it makes. This module enumerates all scenarios with their
//! probabilities (for offline statistics such as the average-case remaining
//! work at each power management point) and samples a scenario from the
//! branch probabilities (what the runtime does, one OR at a time).

use crate::graph::AndOrGraph;
use crate::node::{NodeId, NodeKind};
use crate::sections::{SectionGraph, SectionId};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One resolved run: the OR choices in execution order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Scenario {
    /// `(or_node, branch_index)` pairs in the order the OR nodes fire.
    pub choices: Vec<(NodeId, usize)>,
}

impl Scenario {
    /// The branch chosen at `or`, if this scenario reaches it.
    pub fn choice_for(&self, or: NodeId) -> Option<usize> {
        self.choices.iter().find(|(o, _)| *o == or).map(|(_, k)| *k)
    }
}

/// Iterator type returned by [`SectionGraph::enumerate_scenarios`]
/// (eagerly materialized; scenario counts in this domain are small).
pub type ScenarioIter = std::vec::IntoIter<(Scenario, f64)>;

impl SectionGraph {
    /// The chain of sections executed under `scenario`, starting at the
    /// root section.
    pub fn chain(&self, g: &AndOrGraph, scenario: &Scenario) -> Vec<SectionId> {
        let mut out = vec![self.root()];
        let mut cur = self.root();
        while let Some(or) = self.section(cur).exit_or {
            let Some(k) = scenario.choice_for(or) else {
                break;
            };
            if g.node(or).succs.is_empty() {
                break;
            }
            cur = self
                .branch_section(or, k)
                .expect("choice indexes a real branch");
            out.push(cur);
        }
        out
    }

    /// All nodes executed under `scenario`: every task/AND node of each
    /// chained section plus the OR nodes traversed, in chain order.
    pub fn active_nodes(&self, g: &AndOrGraph, scenario: &Scenario) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = self.root();
        loop {
            out.extend_from_slice(&self.section(cur).nodes);
            let Some(or) = self.section(cur).exit_or else {
                break;
            };
            out.push(or);
            let Some(k) = scenario.choice_for(or) else {
                break;
            };
            if g.node(or).succs.is_empty() {
                break;
            }
            cur = self
                .branch_section(or, k)
                .expect("choice indexes a real branch");
        }
        out
    }

    /// Enumerates every scenario with its probability. Probabilities sum
    /// to 1 (within float tolerance).
    ///
    /// The number of scenarios is the product of branch counts along the
    /// section chain; AND/OR applications in this domain have at most a few
    /// thousand. A debug assertion guards against pathological blow-ups.
    pub fn enumerate_scenarios(&self, g: &AndOrGraph) -> ScenarioIter {
        let mut out = Vec::new();
        let mut prefix = Vec::new();
        self.enumerate_from(g, self.root(), 1.0, &mut prefix, &mut out);
        debug_assert!(out.len() <= 1 << 22, "scenario explosion");
        out.into_iter()
    }

    fn enumerate_from(
        &self,
        g: &AndOrGraph,
        section: SectionId,
        prob: f64,
        prefix: &mut Vec<(NodeId, usize)>,
        out: &mut Vec<(Scenario, f64)>,
    ) {
        let Some(or) = self.section(section).exit_or else {
            out.push((
                Scenario {
                    choices: prefix.clone(),
                },
                prob,
            ));
            return;
        };
        let branches = g.or_branches(or);
        if branches.is_empty() {
            // Terminal OR: application ends at the synchronization point.
            out.push((
                Scenario {
                    choices: prefix.clone(),
                },
                prob,
            ));
            return;
        }
        for (k, (_, p)) in branches.iter().enumerate() {
            prefix.push((or, k));
            let next = self
                .branch_section(or, k)
                .expect("branch sections exist for every OR successor");
            self.enumerate_from(g, next, prob * p, prefix, out);
            prefix.pop();
        }
    }

    /// Samples one scenario by walking the chain and drawing each OR branch
    /// from its probabilities — the same distribution the simulator sees.
    pub fn sample_scenario<R: Rng + ?Sized>(&self, g: &AndOrGraph, rng: &mut R) -> Scenario {
        let mut scenario = Scenario::default();
        self.sample_scenario_into(g, &mut scenario, rng);
        scenario
    }

    /// [`SectionGraph::sample_scenario`] into a reused scenario: clears and
    /// refills `scenario.choices` with exactly the same draws, reading each
    /// OR node's successor and probability slices in place, so a
    /// Monte-Carlo loop allocates nothing once the buffer has grown.
    ///
    /// # Panics
    ///
    /// Panics if a section's exit node is not an OR node (impossible for a
    /// decomposition built from `g`).
    pub fn sample_scenario_into<R: Rng + ?Sized>(
        &self,
        g: &AndOrGraph,
        scenario: &mut Scenario,
        rng: &mut R,
    ) {
        scenario.choices.clear();
        let mut cur = self.root();
        while let Some(or) = self.section(cur).exit_or {
            let node = g.node(or);
            let NodeKind::Or { probs } = &node.kind else {
                panic!("{or} is not an OR node");
            };
            // `or_branches` zips the two lists, so the shorter one counts.
            let n = node.succs.len().min(probs.len());
            if n == 0 {
                break;
            }
            let k = pick_branch(&probs[..n], rng);
            scenario.choices.push((or, k));
            cur = self
                .branch_section(or, k)
                .expect("branch sections exist for every OR successor");
        }
    }
}

/// Draws a branch index proportionally to the given (non-empty)
/// probabilities: one uniform, walked down the cumulative sum; rounding
/// leftovers fall to the last branch.
fn pick_branch<R: Rng + ?Sized>(probs: &[f64], rng: &mut R) -> usize {
    debug_assert!(!probs.is_empty());
    let mut u: f64 = rng.gen();
    for (k, p) in probs.iter().enumerate() {
        if u < *p {
            return k;
        }
        u -= p;
    }
    probs.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A -> O1 -> {B 30% | C 70%} -> O2 -> D
    fn or_diamond() -> AndOrGraph {
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
    fn enumerates_both_paths_with_probabilities() {
        let g = or_diamond();
        let sg = SectionGraph::build(&g).unwrap();
        let scenarios: Vec<_> = sg.enumerate_scenarios(&g).collect();
        assert_eq!(scenarios.len(), 2);
        let total: f64 = scenarios.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let probs: Vec<f64> = scenarios.iter().map(|(_, p)| *p).collect();
        assert!(probs.contains(&0.3) && probs.contains(&0.7));
    }

    #[test]
    fn active_nodes_follow_choice() {
        let g = or_diamond();
        let sg = SectionGraph::build(&g).unwrap();
        let scenarios: Vec<_> = sg.enumerate_scenarios(&g).collect();
        let (s30, _) = scenarios
            .iter()
            .find(|(_, p)| (*p - 0.3).abs() < 1e-12)
            .unwrap();
        let nodes = sg.active_nodes(&g, s30);
        // A, O1, B, O2, D — and definitely not C.
        assert!(nodes.contains(&NodeId(0)));
        assert!(nodes.contains(&NodeId(2)));
        assert!(!nodes.contains(&NodeId(3)));
        assert!(nodes.contains(&NodeId(5)));
    }

    #[test]
    fn chain_lengths_match_choices() {
        let g = or_diamond();
        let sg = SectionGraph::build(&g).unwrap();
        let scenarios: Vec<_> = sg.enumerate_scenarios(&g).collect();
        for (s, _) in &scenarios {
            // root, branch, continuation.
            assert_eq!(sg.chain(&g, s).len(), 3);
        }
    }

    #[test]
    fn sampling_matches_probabilities() {
        let g = or_diamond();
        let sg = SectionGraph::build(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let n = 100_000;
        let mut count_b = 0usize;
        for _ in 0..n {
            let s = sg.sample_scenario(&g, &mut rng);
            if s.choice_for(NodeId(1)) == Some(0) {
                count_b += 1;
            }
        }
        let frac = count_b as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.01, "frac={frac}");
    }

    #[test]
    fn sampling_into_a_reused_scenario_matches_sampling_fresh() {
        let g = or_diamond();
        let sg = SectionGraph::build(&g).unwrap();
        // Start from a stale, longer buffer: it must be fully replaced.
        let mut reused = Scenario {
            choices: vec![(NodeId(9), 3); 5],
        };
        for seed in 0..200 {
            // Reference: the allocating walk over `or_branches` pairs.
            let mut ref_rng = StdRng::seed_from_u64(seed);
            let mut choices = Vec::new();
            let mut cur = sg.root();
            while let Some(or) = sg.section(cur).exit_or {
                let branches = g.or_branches(or);
                let mut u: f64 = ref_rng.gen();
                let k = branches
                    .iter()
                    .position(|(_, p)| {
                        let hit = u < *p;
                        u -= p;
                        hit
                    })
                    .unwrap_or(branches.len() - 1);
                choices.push((or, k));
                cur = sg.branch_section(or, k).unwrap();
            }
            let mut fresh_rng = StdRng::seed_from_u64(seed);
            let mut into_rng = StdRng::seed_from_u64(seed);
            let fresh = sg.sample_scenario(&g, &mut fresh_rng);
            sg.sample_scenario_into(&g, &mut reused, &mut into_rng);
            assert_eq!(fresh.choices, choices, "seed {seed}");
            assert_eq!(reused, fresh, "seed {seed}");
            let next = ref_rng.next_u64();
            assert_eq!(fresh_rng.next_u64(), next, "seed {seed}");
            assert_eq!(into_rng.next_u64(), next, "seed {seed}");
        }
    }

    #[test]
    fn nested_ors_multiply_scenarios() {
        // A -> O1 -> { B -> O2 -> {C | D} | E }: 3 scenarios.
        let mut b = GraphBuilder::new();
        let a = b.task("A", 2.0, 1.0);
        let o1 = b.or("O1");
        let tb = b.task("B", 2.0, 1.0);
        let o2 = b.or("O2");
        let tc = b.task("C", 2.0, 1.0);
        let td = b.task("D", 2.0, 1.0);
        let te = b.task("E", 2.0, 1.0);
        b.edge(a, o1).unwrap();
        b.or_branch(o1, tb, 0.5).unwrap();
        b.or_branch(o1, te, 0.5).unwrap();
        b.edge(tb, o2).unwrap();
        b.or_branch(o2, tc, 0.4).unwrap();
        b.or_branch(o2, td, 0.6).unwrap();
        let g = b.build().unwrap();
        let sg = SectionGraph::build(&g).unwrap();
        let scenarios: Vec<_> = sg.enumerate_scenarios(&g).collect();
        assert_eq!(scenarios.len(), 3);
        let total: f64 = scenarios.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(scenarios
            .iter()
            .any(|(_, p)| (*p - 0.5 * 0.4).abs() < 1e-12));
    }

    #[test]
    fn no_or_graph_has_single_scenario() {
        let mut b = GraphBuilder::new();
        b.task("solo", 3.0, 2.0);
        let g = b.build().unwrap();
        let sg = SectionGraph::build(&g).unwrap();
        let scenarios: Vec<_> = sg.enumerate_scenarios(&g).collect();
        assert_eq!(scenarios.len(), 1);
        assert!(scenarios[0].0.choices.is_empty());
        assert_eq!(scenarios[0].1, 1.0);
    }

    #[test]
    fn sample_branch_is_exhaustive_under_rounding() {
        // Probabilities that sum to slightly under 1.0 still return a valid
        // index for u drawn near 1.
        let probs = [0.3333333; 3];
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let k = pick_branch(&probs, &mut rng);
            assert!(k < 3);
        }
    }

    #[test]
    fn serde_round_trip() {
        let s = Scenario {
            choices: vec![(NodeId(1), 0), (NodeId(4), 2)],
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
