//! The dense `(OR, branch)` → section table of `SectionGraph` on random
//! graphs, small ones and chains above `ENUMERATION_THRESHOLD`:
//!
//! * `branch_section(or, k)` agrees with every section's `entry`, and the
//!   branch sections of one OR are consecutive;
//! * it answers `None` for a branch index past the OR's count, for a node
//!   that is not an OR, and for a `NodeId` past the graph;
//! * a plan built for one graph and checked against another still ends
//!   in a typed `Setup::from_plan` error or a `PAS04xx` finding of the
//!   plan verifier (`pas check PLAN --against ...`), never a panic.

use pas_andor::analyze::{check_plan, Severity, ENUMERATION_THRESHOLD};
use pas_andor::core::{PlanArtifact, Scheme, Setup};
use pas_andor::graph::sections::SectionEntry;
use pas_andor::graph::{AndOrGraph, NodeId, SectionGraph, SectionId};
use pas_andor::power::ProcessorModel;
use pas_andor::workloads::RandomAppParams;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn params() -> RandomAppParams {
    RandomAppParams {
        max_depth: 5,
        ..RandomAppParams::default()
    }
}

/// One random application (`segments == 1`) or a chain of them.
fn graph(seed: u64, segments: usize) -> AndOrGraph {
    let seg = if segments == 1 {
        params().generate(&mut StdRng::seed_from_u64(seed))
    } else {
        params().chained(seed, segments)
    };
    seg.lower().expect("random applications lower")
}

/// OR-paths counted from the sections' entries alone, not through
/// `branch_section`, saturating. A branch section is created after every
/// section that exits into its OR, so a reverse scan finishes an OR's
/// branches before it reaches the sections that lead into it.
fn paths(g: &AndOrGraph, sg: &SectionGraph) -> u64 {
    let mut below = vec![0u64; g.len()];
    let mut count = 1;
    for s in sg.sections().iter().rev() {
        count = match s.exit_or {
            Some(or) if !g.node(or).succs.is_empty() => below[or.index()],
            _ => 1,
        };
        if let SectionEntry::Branch { or, .. } = s.entry {
            below[or.index()] = below[or.index()].saturating_add(count);
        }
    }
    count
}

/// Checks every `branch_section` answer against the section entries and
/// the out-of-range cases; returns the graph's OR-path count.
fn assert_table_agrees(g: &AndOrGraph, what: &str) -> u64 {
    let sg = SectionGraph::build(g).expect("random applications decompose");
    let mut branch_sections = 0;
    for (i, s) in sg.sections().iter().enumerate() {
        if let SectionEntry::Branch { or, branch } = s.entry {
            branch_sections += 1;
            assert_eq!(
                sg.branch_section(or, branch),
                Some(SectionId(i as u32)),
                "{what}: section {i} enters from ({or}, {branch})"
            );
        }
    }
    let mut or_branches = 0;
    for (id, node) in g.iter() {
        let n = node.succs.len();
        if node.kind.is_or() {
            or_branches += n;
            let first = sg.branch_section(id, 0);
            for k in 0..n {
                let sid = sg
                    .branch_section(id, k)
                    .expect("every branch has a section");
                assert_eq!(
                    sg.section(sid).entry,
                    SectionEntry::Branch { or: id, branch: k },
                    "{what}: ({id}, {k})"
                );
                assert_eq!(
                    sid.index(),
                    first.expect("branch 0 exists").index() + k,
                    "{what}: ({id}, {k}) is not consecutive"
                );
            }
            for k in [n, n + 1, u32::MAX as usize, usize::MAX] {
                assert_eq!(sg.branch_section(id, k), None, "{what}: ({id}, {k})");
            }
        } else {
            for k in [0, 1, n, usize::MAX] {
                assert_eq!(sg.branch_section(id, k), None, "{what}: non-OR {id}");
            }
        }
    }
    assert_eq!(
        branch_sections, or_branches,
        "{what}: one section per branch"
    );
    for past in [g.len(), g.len() + 1, u32::MAX as usize] {
        for k in [0, 1, usize::MAX] {
            assert_eq!(
                sg.branch_section(NodeId(past as u32), k),
                None,
                "{what}: node {past}"
            );
        }
    }
    paths(g, &sg)
}

/// A plan for `a` checked against `b`: `Setup::from_plan` returns a value
/// (a typed error, or a setup when the shapes happen to match), and when
/// the graphs differ the plan verifier reports a `PAS04xx` error.
fn assert_cross_check(a: &AndOrGraph, b: &AndOrGraph, scheme: Scheme, what: &str) {
    let model = ProcessorModel::xscale();
    let setup = Setup::for_load(a.clone(), model.clone(), 2, 0.6).expect("load 0.6 is feasible");
    let artifact = PlanArtifact::from_setup(&setup, scheme, "a", "xscale");
    let attached = Setup::from_plan(
        b.clone(),
        model.clone(),
        setup.plan.clone(),
        setup.overheads,
    );
    let report = check_plan(&artifact, "plan.json", b, "b", &model);
    let same = serde_json::to_string(a).expect("graph prints")
        == serde_json::to_string(b).expect("graph prints");
    if same {
        assert!(attached.is_ok(), "{what}: the plan fits its own graph");
        assert!(!report.has_errors(), "{what}: {}", report.render_human());
        return;
    }
    let pas04 = report
        .diagnostics
        .iter()
        .any(|d| d.severity == Severity::Error && d.code.as_str().starts_with("PAS04"));
    assert!(
        pas04,
        "{what}: a foreign plan passes the verifier: {}",
        report.render_human()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One application or a chain of up to 24 of them.
    #[test]
    fn branch_sections_agree_with_section_entries(seed in 0u64..1_000_000, segments in 1usize..25) {
        let g = graph(seed, segments);
        let paths = assert_table_agrees(&g, &format!("seed {seed} x{segments}"));
        if paths <= ENUMERATION_THRESHOLD {
            let sg = SectionGraph::build(&g).expect("random applications decompose");
            prop_assert_eq!(paths, sg.enumerate_scenarios(&g).count() as u64);
        }
    }

    /// Plans checked against the graph of another seed, or of the same
    /// seed with one segment more or less.
    #[test]
    fn a_plan_for_another_graph_is_rejected_without_panic(
        seed in 0u64..1_000_000,
        other in 0u64..1_000_000,
        segments in 1usize..8,
        scheme in 0usize..6,
    ) {
        let scheme = Scheme::ALL[scheme];
        let a = graph(seed, segments);
        for (b, label) in [
            (graph(other, segments), "other seed"),
            (graph(seed, segments + 1), "one segment more"),
            (graph(seed, segments.saturating_sub(1).max(1)), "one segment fewer"),
        ] {
            assert_cross_check(&a, &b, scheme, &format!("seed {seed} x{segments} vs {label}"));
        }
    }
}

/// The chains the plan digests are pinned on, all above the enumeration
/// threshold: the table must agree there too.
#[test]
fn chains_above_the_enumeration_threshold() {
    for (seed, segments) in [(5, 6), (7, 8), (0, 16), (3, 24)] {
        let what = format!("chain {seed} x{segments}");
        let paths = assert_table_agrees(&graph(seed, segments), &what);
        assert!(paths > ENUMERATION_THRESHOLD, "{what}: {paths} OR-paths");
    }
    assert_cross_check(&graph(5, 6), &graph(7, 8), Scheme::As, "chain 5x6 vs 7x8");
}
