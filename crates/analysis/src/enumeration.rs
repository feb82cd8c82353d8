//! Shared Theorem-1 OR-path enumeration.
//!
//! Three analysis passes reason over the same path set — the feasibility
//! verifier (`PAS03xx`), the plan-artifact verifier (`PAS04xx`) and the
//! symbolic bounds pass (`PAS06xx`). This module is their single source
//! of truth for
//!
//! * counting OR-paths *without* enumerating them (a memoized recursion
//!   over the section DAG, saturating at `u64::MAX`), so every client
//!   makes the enumerate-vs-fallback decision against the same
//!   [`ENUMERATION_THRESHOLD`];
//! * walking every path (scenario, probability, section chain) below the
//!   threshold;
//! * summing a per-section table along a chain (the canonical "chain
//!   sum" every symbolic quantity reduces to);
//! * rendering a scenario's OR choices as a human-readable witness.

use andor_graph::{AndOrGraph, Scenario, SectionGraph, SectionId};

/// Maximum number of OR-paths enumerated exactly; above this every
/// client falls back to a conservative recursive bound and notes the
/// downgrade (`PAS0303` for the verifiers, `PAS0602` for bounds).
pub const ENUMERATION_THRESHOLD: u64 = 4096;

/// Counts OR-paths without enumerating them: a recursion over the
/// section chain memoized per OR node, saturating at `u64::MAX`.
pub(crate) fn count_scenarios(g: &AndOrGraph, sections: &SectionGraph) -> u64 {
    count_from(g, sections, sections.root(), &mut vec![None; g.len()])
}

/// OR-paths from the start of section `s`; `memo` holds the count of
/// each exit OR, indexed by node.
fn count_from(
    g: &AndOrGraph,
    sections: &SectionGraph,
    s: SectionId,
    memo: &mut [Option<u64>],
) -> u64 {
    let Some(or) = sections.section(s).exit_or else {
        return 1;
    };
    if let Some(&Some(c)) = memo.get(or.index()) {
        return c;
    }
    let n_branches = g.node(or).succs.len();
    // A terminal OR (no branches) ends the application: one path.
    let mut count = u64::from(n_branches == 0);
    for k in 0..n_branches {
        let below = sections
            .branch_section(or, k)
            .map_or(1, |b| count_from(g, sections, b, memo));
        count = count.saturating_add(below);
    }
    if let Some(slot) = memo.get_mut(or.index()) {
        *slot = Some(count);
    }
    count
}

/// Visits every OR-path: the resolved scenario, its probability, and the
/// chain of sections it executes. Callers must have checked
/// [`count_scenarios`] against [`ENUMERATION_THRESHOLD`] first.
pub(crate) fn for_each_path<F>(g: &AndOrGraph, sections: &SectionGraph, mut f: F)
where
    F: FnMut(&Scenario, f64, &[SectionId]),
{
    for (scenario, p) in sections.enumerate_scenarios(g) {
        let chain = sections.chain(g, &scenario);
        f(&scenario, p, &chain);
    }
}

/// Sums a per-section table (indexed by [`SectionId::index`]) along a
/// chain; missing entries contribute zero.
pub(crate) fn chain_sum(chain: &[SectionId], table: &[f64]) -> f64 {
    chain
        .iter()
        .map(|s| table.get(s.index()).copied().unwrap_or(0.0))
        .sum()
}

/// Renders a scenario's OR choices for humans
/// (`"n3 ('detect') -> branch 1"` per entry).
pub(crate) fn witness(g: &AndOrGraph, scenario: &Scenario) -> Vec<String> {
    scenario
        .choices
        .iter()
        .map(|&(or, k)| format!("{or} ('{}') -> branch {k}", g.node(or).name))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use andor_graph::Segment;

    fn app() -> AndOrGraph {
        Segment::seq([
            Segment::task("A", 8.0, 5.0),
            Segment::branch([
                (0.3, Segment::task("B", 5.0, 3.0)),
                (0.7, Segment::task("C", 4.0, 2.0)),
            ]),
        ])
        .lower()
        .expect("valid segment lowers")
    }

    #[test]
    fn scenario_count_matches_enumeration() {
        let g = app();
        let sections = SectionGraph::build(&g).expect("sections build");
        assert_eq!(
            count_scenarios(&g, &sections),
            sections.enumerate_scenarios(&g).count() as u64
        );
    }

    #[test]
    fn paths_cover_the_probability_mass() {
        let g = app();
        let sections = SectionGraph::build(&g).expect("sections build");
        let mut total = 0.0;
        let mut paths = 0;
        for_each_path(&g, &sections, |_, p, chain| {
            total += p;
            paths += 1;
            assert!(!chain.is_empty());
        });
        assert_eq!(paths, 2);
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn witness_names_the_branch() {
        let g = app();
        let sections = SectionGraph::build(&g).expect("sections build");
        let mut seen = Vec::new();
        for_each_path(&g, &sections, |scenario, _, _| {
            seen.push(witness(&g, scenario));
        });
        assert!(seen
            .iter()
            .any(|w| w.len() == 1 && w[0].contains("branch 0")));
        assert!(seen
            .iter()
            .any(|w| w.len() == 1 && w[0].contains("branch 1")));
    }

    #[test]
    fn chain_sum_ignores_missing_entries() {
        let g = app();
        let sections = SectionGraph::build(&g).expect("sections build");
        let table = vec![1.0]; // Shorter than the section count.
        for_each_path(&g, &sections, |_, _, chain| {
            assert_eq!(chain_sum(chain, &table), 1.0);
        });
    }
}
