//! The off-line phase: canonical schedules, execution orders, latest start
//! times, and the per-PMP worst/average remaining-time statistics.
//!
//! The phase runs in two steps. [`CanonicalPlan::build`] does all the work
//! that does not depend on the deadline: each section's LTF canonical
//! schedule with its WCET and ACET replays, then the remaining-time
//! recursion that yields `Tw` and `Ta`. [`CanonicalPlan::with_deadline`]
//! tests feasibility and shifts the schedules into latest start times.
//! A caller that derives the deadline from `Tw` (a target load, see
//! [`OfflinePlan::build_for_load`]) runs the first step once.

use andor_graph::{AndOrGraph, NodeId, SectionGraph, SectionId};
use mp_sim::DispatchOrder;
use pas_obs::profile;
use serde::{Deserialize, Serialize};

/// Why the off-line phase rejected a problem instance.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The longest path of the canonical schedule misses the deadline; no
    /// on-line scheme can save it (paper §3.2: "If Tʷ > D, the algorithm
    /// fails to guarantee the deadline").
    Infeasible {
        /// Worst-case canonical finish time of the longest path.
        worst_finish: f64,
        /// The requested deadline.
        deadline: f64,
    },
    /// The deadline must be positive and finite.
    BadDeadline(f64),
    /// A target load must lie in `(0, 1]`.
    BadLoad(f64),
    /// At least one processor is required.
    NoProcessors,
    /// More processors than [`MAX_PROCS`].
    TooManyProcessors(usize),
    /// An OR branch has no program section — the section graph and the
    /// application graph disagree (e.g. a plan built against a different
    /// application).
    MissingBranchSection {
        /// Name of the OR node.
        or: String,
        /// The branch index with no section.
        branch: usize,
    },
    /// A deserialized plan does not fit the application it is being
    /// attached to (table lengths disagree with the graph or its section
    /// decomposition).
    PlanGraphMismatch {
        /// What disagreed, in human terms.
        detail: String,
    },
}

/// Former name of [`PlanError`], kept as an alias for downstream code.
pub type OfflineError = PlanError;

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Infeasible {
                worst_finish,
                deadline,
            } => write!(
                f,
                "infeasible: worst-case finish {worst_finish} exceeds deadline {deadline}"
            ),
            PlanError::BadDeadline(d) => write!(f, "bad deadline {d}"),
            PlanError::BadLoad(l) => write!(f, "bad load {l}: must be in (0, 1]"),
            PlanError::NoProcessors => write!(f, "at least one processor required"),
            PlanError::TooManyProcessors(n) => {
                write!(f, "{n} processors exceed the maximum of {MAX_PROCS}")
            }
            PlanError::MissingBranchSection { or, branch } => {
                write!(f, "OR node '{or}' branch {branch} has no program section")
            }
            PlanError::PlanGraphMismatch { detail } => {
                write!(f, "plan does not match the application: {detail}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Everything the on-line phase needs, computed once per
/// (application, processor count, deadline) triple.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OfflinePlan {
    /// Deadline the plan was built for (ms).
    pub deadline: f64,
    /// Number of processors the canonical schedules assume.
    pub num_procs: usize,
    /// Canonical dispatch order (LTF list scheduling) per section.
    pub dispatch: DispatchOrder,
    /// Latest start time per node (indexed by `NodeId::index`); `None`
    /// for OR nodes, which carry no execution of their own.
    pub lst: Vec<Option<f64>>,
    /// `Tw` — worst-case canonical finish time along the longest path.
    pub worst_total: f64,
    /// `Ta` — average-case finish time, weighted over OR branch
    /// probabilities.
    pub avg_total: f64,
    /// `Tw_k` per `(or, branch)`: worst remaining time from the PMP after
    /// the OR selects branch `k` to the end of the application.
    /// Serialized as its `[[or, k], Tw_k]` entry list, sorted by
    /// `(or, branch)` (tuple keys are not JSON object keys).
    pub branch_worst: BranchTable,
    /// `Ta_k` per `(or, branch)`: average remaining time analogously.
    pub branch_avg: BranchTable,
    /// Canonical start time of each node *relative to its section start*
    /// in the worst-case canonical schedule, parallel to
    /// `dispatch.per_section` (for tooling: canonical Gantt rendering,
    /// schedule inspection).
    pub canonical_start_rel: Vec<Vec<f64>>,
    /// Canonical section length at WCET (indexed by `SectionId::index`).
    pub section_worst_len: Vec<f64>,
    /// Canonical section length replayed with ACETs.
    pub section_avg_len: Vec<f64>,
    /// Worst remaining time *after* each section completes (over its exit
    /// OR's alternatives; 0 when the application ends with the section).
    pub worst_after: Vec<f64>,
}

impl OfflinePlan {
    /// Runs the full off-line phase with no per-task PMP reservation
    /// (appropriate when overheads are disabled).
    pub fn build(
        g: &AndOrGraph,
        sections: &SectionGraph,
        num_procs: usize,
        deadline: f64,
    ) -> Result<Self, PlanError> {
        Self::build_with_pmp_reserve(g, sections, num_procs, deadline, 0.0)
    }

    /// Runs the full off-line phase, inflating every computation node's
    /// canonical duration by `pmp_reserve_ms` — an upper bound on the
    /// power-management-point computation time (the PMP code runs before
    /// *every* task in the dynamic schemes, even when it decides to stay
    /// at full speed, so the canonical worst case must include it for the
    /// deadline guarantee to survive overheads; cf. the paper's §5 and
    /// the overhead treatment in the authors' companion paper).
    pub fn build_with_pmp_reserve(
        g: &AndOrGraph,
        sections: &SectionGraph,
        num_procs: usize,
        deadline: f64,
        pmp_reserve_ms: f64,
    ) -> Result<Self, PlanError> {
        let _build_span = profile::span(profile::names::OFFLINE_BUILD);
        PlanError::check_procs(num_procs)?;
        PlanError::check_deadline(deadline)?;
        CanonicalPlan::build(g, sections, num_procs, pmp_reserve_ms)?.with_deadline(deadline)
    }

    /// Runs the full off-line phase for a target *load* (the paper's
    /// x-axis): the canonical pass once, then the deadline step at
    /// `D = Tw / load`. The plan equals [`OfflinePlan::build_with_pmp_reserve`]
    /// at that deadline, bit for bit.
    pub fn build_for_load(
        g: &AndOrGraph,
        sections: &SectionGraph,
        num_procs: usize,
        load: f64,
        pmp_reserve_ms: f64,
    ) -> Result<Self, PlanError> {
        let _build_span = profile::span(profile::names::OFFLINE_BUILD);
        PlanError::check_load(load)?;
        let canonical = CanonicalPlan::build(g, sections, num_procs, pmp_reserve_ms)?;
        let deadline = canonical.worst_total / load;
        canonical.with_deadline(deadline)
    }

    /// Static slack available before the application starts: `D − Tw`.
    pub fn static_slack(&self) -> f64 {
        self.deadline - self.worst_total
    }

    /// Load of this plan in the paper's sense: canonical longest-path
    /// length over the deadline.
    pub fn load(&self) -> f64 {
        self.worst_total / self.deadline
    }
}

/// A per-`(or, branch)` table: entries sorted by key, found by binary
/// search. It prints as the `[key, value]` list a `HashMap` of the same
/// entries prints and reads entries in any order, the last of equal keys
/// winning.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchTable(Vec<BranchEntry>);

type BranchEntry = ((NodeId, usize), f64);

impl BranchTable {
    /// The value of branch `key = (or, k)`, if the table has one.
    pub fn get(&self, key: &(NodeId, usize)) -> Option<&f64> {
        let i = self.0.binary_search_by_key(key, |&(k, _)| k).ok()?;
        Some(&self.0[i].1)
    }

    /// The keys in order.
    pub fn keys(&self) -> impl Iterator<Item = &(NodeId, usize)> {
        self.0.iter().map(|(k, _)| k)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl FromIterator<BranchEntry> for BranchTable {
    fn from_iter<I: IntoIterator<Item = BranchEntry>>(iter: I) -> Self {
        // Reversed, then sorted stably: `dedup` keeps the last of equal keys.
        let mut entries: Vec<_> = iter.into_iter().collect();
        entries.reverse();
        entries.sort_by_key(|&(k, _)| k);
        entries.dedup_by_key(|&mut (k, _)| k);
        BranchTable(entries)
    }
}

impl<'a> IntoIterator for &'a BranchTable {
    type Item = (&'a (NodeId, usize), &'a f64);
    type IntoIter =
        std::iter::Map<std::slice::Iter<'a, BranchEntry>, fn(&'a BranchEntry) -> Self::Item>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter().map(|(k, v)| (k, v))
    }
}

impl std::ops::Index<&(NodeId, usize)> for BranchTable {
    type Output = f64;
    fn index(&self, key: &(NodeId, usize)) -> &f64 {
        self.get(key).expect("no entry for the branch")
    }
}

impl Serialize for BranchTable {
    fn serialize<S: serde::Serializer>(&self, s: &mut S) {
        // A `(key, value)` tuple prints as a map entry's `[key, value]`.
        self.0.serialize(s);
    }
}

impl Deserialize for BranchTable {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(serde::map_from_value(v)?.into_iter().collect())
    }
}

/// The largest processor count the off-line phase accepts. The plan and
/// the engine hold state per processor, so a count taken unchecked from a
/// command line or a request (`u64::MAX`, `10^12`) would overflow the
/// allocation or exhaust memory, which aborts the process.
pub const MAX_PROCS: usize = 4096;

impl PlanError {
    /// The processor-count rule (PAS0106): at least one processor and at
    /// most [`MAX_PROCS`].
    pub fn check_procs(num_procs: usize) -> Result<(), PlanError> {
        match num_procs {
            0 => Err(PlanError::NoProcessors),
            n if n > MAX_PROCS => Err(PlanError::TooManyProcessors(n)),
            _ => Ok(()),
        }
    }

    /// The load rule (PAS0107): in `(0, 1]`.
    pub fn check_load(load: f64) -> Result<(), PlanError> {
        if load > 0.0 && load <= 1.0 {
            Ok(())
        } else {
            Err(PlanError::BadLoad(load))
        }
    }

    /// The plan-fits-application rule (PAS0402): a plan's tables cover
    /// `g`'s nodes and the sections of its decomposition, and its
    /// dispatch order keeps [`DispatchOrder::check`]. A deserialized plan
    /// must pass it before it runs; `Err` is a
    /// [`PlanError::PlanGraphMismatch`] naming the first disagreement.
    pub fn check_fit(
        plan: &OfflinePlan,
        g: &AndOrGraph,
        sections: &SectionGraph,
    ) -> Result<(), PlanError> {
        let mismatch = |detail: String| Err(PlanError::PlanGraphMismatch { detail });
        if plan.lst.len() != g.len() {
            return mismatch(format!(
                "plan has {} latest-start entries but the graph has {} nodes",
                plan.lst.len(),
                g.len()
            ));
        }
        let n_sections = sections.len();
        if plan.dispatch.per_section.len() != n_sections {
            return mismatch(format!(
                "plan dispatches {} section(s) but the graph decomposes into {}",
                plan.dispatch.per_section.len(),
                n_sections
            ));
        }
        for (name, len) in [
            ("canonical_start_rel", plan.canonical_start_rel.len()),
            ("section_worst_len", plan.section_worst_len.len()),
            ("section_avg_len", plan.section_avg_len.len()),
            ("worst_after", plan.worst_after.len()),
        ] {
            if len != n_sections {
                return mismatch(format!(
                    "plan table '{name}' covers {len} section(s), expected {n_sections}"
                ));
            }
        }
        for (sid, (order, starts)) in plan
            .dispatch
            .per_section
            .iter()
            .zip(&plan.canonical_start_rel)
            .enumerate()
        {
            if order.len() != starts.len() {
                return mismatch(format!(
                    "section {sid} dispatches {} node(s) but records {} canonical start(s)",
                    order.len(),
                    starts.len()
                ));
            }
        }
        plan.dispatch.check(g).or_else(|e| mismatch(e.to_string()))
    }

    /// The deadline rule (PAS0107): finite and positive.
    pub fn check_deadline(deadline: f64) -> Result<(), PlanError> {
        if deadline.is_finite() && deadline > 0.0 {
            Ok(())
        } else {
            Err(PlanError::BadDeadline(deadline))
        }
    }
}

/// The deadline-independent half of the off-line phase for one
/// (application, processor count, PMP reservation) triple: everything in
/// an [`OfflinePlan`] except the deadline and the latest start times, in
/// the fields of the same names.
#[derive(Debug, Clone)]
pub struct CanonicalPlan {
    num_procs: usize,
    dispatch: DispatchOrder,
    worst_total: f64,
    avg_total: f64,
    branch_worst: BranchTable,
    branch_avg: BranchTable,
    canonical_start_rel: Vec<Vec<f64>>,
    section_worst_len: Vec<f64>,
    section_avg_len: Vec<f64>,
    worst_after: Vec<f64>,
    /// Node count of the application: the length of the LST table.
    num_nodes: usize,
}

impl CanonicalPlan {
    /// Round 1 (the canonical LTF schedule of every section at WCET and
    /// full speed, replayed with ACETs) and the remaining-time recursion
    /// over the section chain. Every computation node's duration is
    /// inflated by `pmp_reserve_ms` (see
    /// [`OfflinePlan::build_with_pmp_reserve`]).
    pub fn build(
        g: &AndOrGraph,
        sections: &SectionGraph,
        num_procs: usize,
        pmp_reserve_ms: f64,
    ) -> Result<Self, PlanError> {
        PlanError::check_procs(num_procs)?;

        // Round 1: canonical LTF schedule per section (WCET, full speed)
        // plus an average-case replay of the same order.
        let n_sections = sections.len();
        let canonical_span = profile::span_with(profile::names::OFFLINE_CANONICAL, || {
            format!("{n_sections} sections")
        });
        let mut scratch = SectionScratch::new(g.len());
        let mut per_section = Vec::with_capacity(n_sections);
        let mut canonical_start_rel = Vec::with_capacity(n_sections);
        let mut section_worst_len = Vec::with_capacity(n_sections);
        let mut section_avg_len = Vec::with_capacity(n_sections);
        for section in sections.sections() {
            let nodes = &section.nodes;
            scratch.enter(nodes);
            let order = ltf_order(g, nodes, num_procs, &mut scratch);
            let worst = replay(
                g,
                &order,
                num_procs,
                DurationKind::Wcet,
                pmp_reserve_ms,
                &mut scratch,
            );
            let avg = replay(
                g,
                &order,
                num_procs,
                DurationKind::Acet,
                pmp_reserve_ms,
                &mut scratch,
            );
            scratch.leave(nodes);
            per_section.push(order);
            canonical_start_rel.push(worst.start_rel);
            section_worst_len.push(worst.makespan);
            section_avg_len.push(avg.makespan);
        }
        drop(canonical_span);

        // Remaining-time recursion over the section chain. Sections are
        // created in topological order of the chain (entry OR processed
        // before its branch sections), so a reverse scan sees every
        // continuation before the sections that lead to it.
        let _remaining_span = profile::span(profile::names::OFFLINE_REMAINING);
        let mut worst_after = vec![0.0_f64; n_sections];
        let mut avg_after = vec![0.0_f64; n_sections];
        let mut branch_worst = Vec::new();
        let mut branch_avg = Vec::new();
        for sid in (0..n_sections).rev() {
            let section = sections.section(SectionId(sid as u32));
            let Some(or) = section.exit_or else {
                continue; // application ends here: zero remaining
            };
            let branches = g.or_branches(or);
            let mut w = 0.0_f64;
            let mut a = 0.0_f64;
            for (k, (_, p)) in branches.iter().enumerate() {
                let b = sections
                    .branch_section(or, k)
                    .ok_or_else(|| PlanError::MissingBranchSection {
                        or: g.node(or).name.clone(),
                        branch: k,
                    })?
                    .index();
                let bw = section_worst_len[b] + worst_after[b];
                let ba = section_avg_len[b] + avg_after[b];
                branch_worst.push(((or, k), bw));
                branch_avg.push(((or, k), ba));
                w = w.max(bw);
                a += p * ba;
            }
            worst_after[sid] = w;
            avg_after[sid] = a;
        }

        let root = sections.root().index();
        Ok(CanonicalPlan {
            num_procs,
            dispatch: DispatchOrder { per_section },
            worst_total: section_worst_len[root] + worst_after[root],
            avg_total: section_avg_len[root] + avg_after[root],
            branch_worst: branch_worst.into_iter().collect(),
            branch_avg: branch_avg.into_iter().collect(),
            canonical_start_rel,
            section_worst_len,
            section_avg_len,
            worst_after,
            num_nodes: g.len(),
        })
    }

    /// `Tw` — worst-case canonical finish time along the longest path.
    pub fn worst_total(&self) -> f64 {
        self.worst_total
    }

    /// Canonical section length at WCET (indexed by `SectionId::index`).
    pub fn section_worst_len(&self) -> &[f64] {
        &self.section_worst_len
    }

    /// The deadline step: rejects a deadline the canonical worst case
    /// misses, then Round 2 — shifts every section's canonical schedule
    /// into latest start times.
    pub fn with_deadline(self, deadline: f64) -> Result<OfflinePlan, PlanError> {
        PlanError::check_deadline(deadline)?;
        if self.worst_total > deadline * (1.0 + 1e-12) {
            return Err(PlanError::Infeasible {
                worst_finish: self.worst_total,
                deadline,
            });
        }

        // Round 2: shift — latest start times. For task i in section s:
        // LST_i = D − [(Lʷ(s) − start_rel_i) + worst_after(s)].
        let _lst_span = profile::span(profile::names::OFFLINE_LST);
        let mut lst = vec![None; self.num_nodes];
        for (sid, (order, starts)) in self
            .dispatch
            .per_section
            .iter()
            .zip(&self.canonical_start_rel)
            .enumerate()
        {
            let lw = self.section_worst_len[sid];
            for (&node, &start_rel) in order.iter().zip(starts) {
                lst[node.index()] = Some(deadline - ((lw - start_rel) + self.worst_after[sid]));
            }
        }

        Ok(OfflinePlan {
            deadline,
            num_procs: self.num_procs,
            dispatch: self.dispatch,
            lst,
            worst_total: self.worst_total,
            avg_total: self.avg_total,
            branch_worst: self.branch_worst,
            branch_avg: self.branch_avg,
            canonical_start_rel: self.canonical_start_rel,
            section_worst_len: self.section_worst_len,
            section_avg_len: self.section_avg_len,
            worst_after: self.worst_after,
        })
    }
}

enum DurationKind {
    Wcet,
    Acet,
}

impl DurationKind {
    /// Node duration plus the PMP reservation (computation nodes only —
    /// dummy synchronization nodes run no power-management code).
    fn of(&self, g: &AndOrGraph, n: NodeId, pmp_reserve_ms: f64) -> f64 {
        let kind = &g.node(n).kind;
        let base = match self {
            DurationKind::Wcet => kind.wcet(),
            DurationKind::Acet => kind.acet(),
        };
        if kind.is_computation() {
            base + pmp_reserve_ms
        } else {
            base
        }
    }
}

/// Working arrays for scheduling one section at a time, allocated once
/// per build. `local` maps a node to its position in the current
/// section's node list (`None` outside it); the other arrays are indexed
/// by that position.
struct SectionScratch {
    local: Vec<Option<u32>>,
    indeg: Vec<u32>,
    ready_at: Vec<f64>,
    finish: Vec<f64>,
}

impl SectionScratch {
    fn new(num_nodes: usize) -> Self {
        Self {
            local: vec![None; num_nodes],
            indeg: Vec::new(),
            ready_at: Vec::new(),
            finish: Vec::new(),
        }
    }

    fn enter(&mut self, nodes: &[NodeId]) {
        for (i, n) in nodes.iter().enumerate() {
            self.local[n.index()] = Some(i as u32);
        }
    }

    fn leave(&mut self, nodes: &[NodeId]) {
        for n in nodes {
            self.local[n.index()] = None;
        }
    }
}

/// Longest-task-first list scheduling of one section's nodes on
/// `num_procs` processors: returns the dispatch order. `scratch` must
/// have entered `nodes`.
///
/// Classic event-driven list scheduling: whenever a processor is free the
/// longest *ready* task (by WCET, ties by node id for determinism) is
/// dispatched. Synchronization (AND) nodes have zero length and flow
/// through the same queue, exactly as the paper treats dummy tasks.
fn ltf_order(
    g: &AndOrGraph,
    nodes: &[NodeId],
    num_procs: usize,
    scratch: &mut SectionScratch,
) -> Vec<NodeId> {
    let SectionScratch {
        local,
        indeg,
        ready_at,
        ..
    } = scratch;
    let local_of = |n: NodeId| local[n.index()].map(|i| i as usize);
    indeg.clear();
    indeg.extend(nodes.iter().map(|&n| {
        g.node(n)
            .preds
            .iter()
            .filter(|&&p| local_of(p).is_some())
            .count() as u32
    }));
    ready_at.clear();
    ready_at.resize(nodes.len(), 0.0);
    // Ready pool: (wcet, id) — popped longest-first.
    let mut ready: Vec<NodeId> = nodes
        .iter()
        .zip(indeg.iter())
        .filter(|(_, &d)| d == 0)
        .map(|(&n, _)| n)
        .collect();
    sort_ltf(g, &mut ready);

    let mut avail = vec![0.0_f64; num_procs];
    let mut order = Vec::with_capacity(nodes.len());
    // Tasks whose ready time is in the future, as local indices.
    let mut pending: Vec<usize> = Vec::new();

    let mut now = 0.0_f64;
    while order.len() < nodes.len() {
        // Promote pending tasks that became ready by `now`.
        let mut promoted = false;
        pending.retain(|&i| {
            if ready_at[i] <= now + 1e-12 {
                ready.push(nodes[i]);
                promoted = true;
                false
            } else {
                true
            }
        });
        if promoted {
            sort_ltf(g, &mut ready);
        }

        if let Some(&n) = ready.first() {
            // Dispatch the longest ready task on the earliest-free
            // processor at `now` if one is free; otherwise advance time.
            let (p, &p_avail) = avail
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .expect("num_procs > 0 checked before scheduling");
            if p_avail <= now + 1e-12 {
                ready.remove(0);
                let start = now.max(ready_at[local_of(n).expect("ready node is local")]);
                let end = start + g.node(n).kind.wcet();
                avail[p] = end;
                order.push(n);
                for &s in &g.node(n).succs {
                    let Some(i) = local_of(s) else { continue };
                    indeg[i] -= 1;
                    ready_at[i] = ready_at[i].max(end);
                    if indeg[i] == 0 {
                        if end <= now + 1e-12 {
                            ready.push(s);
                            sort_ltf(g, &mut ready);
                        } else {
                            pending.push(i);
                        }
                    }
                }
                continue;
            }
        }
        // Advance to the next event: earliest processor completion or
        // earliest pending readiness.
        let next_proc = avail
            .iter()
            .copied()
            .filter(|&t| t > now + 1e-12)
            .fold(f64::INFINITY, f64::min);
        let next_ready = pending
            .iter()
            .map(|&i| ready_at[i])
            .filter(|&t| t > now + 1e-12)
            .fold(f64::INFINITY, f64::min);
        let next = next_proc.min(next_ready);
        debug_assert!(next.is_finite(), "list scheduler stalled");
        now = next;
    }
    order
}

fn sort_ltf(g: &AndOrGraph, ready: &mut [NodeId]) {
    ready.sort_by(|&a, &b| {
        g.node(b)
            .kind
            .wcet()
            .total_cmp(&g.node(a).kind.wcet())
            .then(a.cmp(&b))
    });
}

struct ReplayOut {
    /// Start time of each node relative to the section start, parallel to
    /// the dispatch order.
    start_rel: Vec<f64>,
    /// Section completion time.
    makespan: f64,
}

/// Replays a dispatch order with the engine's exact semantics (dispatch
/// serialization + earliest-available processor) and the chosen duration
/// kind. The worst-case replay *is* the canonical schedule: the on-line
/// engine at full speed with WCETs reproduces it step for step, which is
/// what makes the latest start times safe. `scratch` must have entered
/// the section's nodes.
fn replay(
    g: &AndOrGraph,
    order: &[NodeId],
    num_procs: usize,
    kind: DurationKind,
    pmp_reserve_ms: f64,
    scratch: &mut SectionScratch,
) -> ReplayOut {
    let SectionScratch { local, finish, .. } = scratch;
    finish.clear();
    finish.resize(order.len(), 0.0);
    let mut avail = vec![0.0_f64; num_procs];
    let mut last_dispatch = 0.0_f64;
    let mut start_rel = Vec::with_capacity(order.len());
    let mut makespan = 0.0_f64;
    for &node in order {
        let ready = g
            .node(node)
            .preds
            .iter()
            .filter_map(|p| local[p.index()].map(|i| finish[i as usize]))
            .fold(0.0_f64, f64::max);
        let dur = kind.of(g, node, pmp_reserve_ms);
        let start = if g.node(node).kind.is_computation() {
            let (p, &p_avail) = avail
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .expect("num_procs > 0 checked before scheduling");
            let s = ready.max(last_dispatch).max(p_avail);
            avail[p] = s + dur;
            s
        } else {
            ready.max(last_dispatch)
        };
        last_dispatch = start;
        let end = start + dur;
        finish[local[node.index()].expect("replayed node is local") as usize] = end;
        makespan = makespan.max(end);
        start_rel.push(start);
    }
    ReplayOut {
        start_rel,
        makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use andor_graph::{GraphBuilder, Segment};

    fn plan_of(app: &Segment, m: usize, d: f64) -> (AndOrGraph, SectionGraph, OfflinePlan) {
        let g = app.lower().expect("fixture lowers");
        let sg = SectionGraph::build(&g).expect("fixture sections");
        let plan = OfflinePlan::build(&g, &sg, m, d).expect("plan builds");
        (g, sg, plan)
    }

    #[test]
    fn single_chain_tw_is_sum() {
        let app = Segment::seq([
            Segment::task("A", 3.0, 1.0),
            Segment::task("B", 4.0, 2.0),
            Segment::task("C", 5.0, 2.5),
        ]);
        let (_, _, plan) = plan_of(&app, 1, 20.0);
        assert!((plan.worst_total - 12.0).abs() < 1e-12);
        assert!((plan.avg_total - 5.5).abs() < 1e-12);
        assert!((plan.static_slack() - 8.0).abs() < 1e-12);
        assert!((plan.load() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn parallel_tasks_two_procs_makespan_is_max() {
        let app = Segment::par([Segment::task("X", 6.0, 3.0), Segment::task("Y", 4.0, 2.0)]);
        let (_, _, plan) = plan_of(&app, 2, 10.0);
        assert!((plan.worst_total - 6.0).abs() < 1e-12);
        assert!((plan.avg_total - 3.0).abs() < 1e-12);
    }

    #[test]
    fn ltf_prefers_longest_first() {
        // Three tasks on two processors: LTF dispatches 6 then 5 then 2 →
        // makespan 7 (2 rides behind 5). Shortest-first would give 8.
        let app = Segment::par([
            Segment::task("S", 2.0, 1.0),
            Segment::task("M", 5.0, 2.0),
            Segment::task("L", 6.0, 3.0),
        ]);
        let (g, _, plan) = plan_of(&app, 2, 20.0);
        assert!((plan.worst_total - 7.0).abs() < 1e-12);
        // Dispatch order within the root section: fork, L, M, S, join.
        let order = &plan.dispatch.per_section[0];
        let names: Vec<&str> = order.iter().map(|&n| g.node(n).name.as_str()).collect();
        let l = names.iter().position(|n| *n == "L").expect("L in order");
        let m = names.iter().position(|n| *n == "M").expect("M in order");
        let s = names.iter().position(|n| *n == "S").expect("S in order");
        assert!(l < m && m < s);
    }

    #[test]
    fn or_branches_worst_takes_max_avg_takes_weighted() {
        let app = Segment::seq([
            Segment::task("A", 2.0, 1.0),
            Segment::branch([
                (0.25, Segment::task("B", 8.0, 4.0)),
                (0.75, Segment::task("C", 4.0, 2.0)),
            ]),
        ]);
        let (_, _, plan) = plan_of(&app, 1, 20.0);
        assert!((plan.worst_total - 10.0).abs() < 1e-12, "2 + max(8,4)");
        assert!(
            (plan.avg_total - (1.0 + 0.25 * 4.0 + 0.75 * 2.0)).abs() < 1e-12,
            "1 + weighted branch avg, got {}",
            plan.avg_total
        );
    }

    #[test]
    fn branch_pmp_stats_recorded() {
        let app = Segment::seq([
            Segment::task("A", 2.0, 1.0),
            Segment::branch([
                (0.5, Segment::task("B", 8.0, 4.0)),
                (0.5, Segment::task("C", 4.0, 2.0)),
            ]),
            Segment::task("D", 3.0, 1.5),
        ]);
        let (g, _, plan) = plan_of(&app, 1, 30.0);
        let or = g
            .iter()
            .find(|(_, n)| n.kind.is_or() && n.succs.len() == 2)
            .expect("fixture has a two-way OR")
            .0;
        // Branch 0 (B): 8 + 3 (D) remaining worst; branch 1 (C): 4 + 3.
        assert!((plan.branch_worst[&(or, 0)] - 11.0).abs() < 1e-12);
        assert!((plan.branch_worst[&(or, 1)] - 7.0).abs() < 1e-12);
        assert!((plan.branch_avg[&(or, 0)] - 5.5).abs() < 1e-12);
        assert!((plan.branch_avg[&(or, 1)] - 3.5).abs() < 1e-12);
    }

    #[test]
    fn lst_shifts_schedule_to_deadline() {
        // One chain, D = 20, Tw = 12: whole schedule shifts right by 8.
        let app = Segment::seq([
            Segment::task("A", 3.0, 1.0),
            Segment::task("B", 4.0, 2.0),
            Segment::task("C", 5.0, 2.5),
        ]);
        let (g, _, plan) = plan_of(&app, 1, 20.0);
        let by_name = |name: &str| {
            g.iter()
                .find(|(_, n)| n.name == name)
                .and_then(|(id, _)| plan.lst[id.index()])
                .expect("task has an LST")
        };
        assert!((by_name("A") - 8.0).abs() < 1e-12);
        assert!((by_name("B") - 11.0).abs() < 1e-12);
        assert!((by_name("C") - 15.0).abs() < 1e-12);
        // Last task's LST + wcet = deadline exactly.
        assert!((by_name("C") + 5.0 - 20.0).abs() < 1e-12);
    }

    #[test]
    fn lst_accounts_for_worst_continuation() {
        // A, then branch (B:8 | C:4). A's LST must assume the 8-branch.
        let app = Segment::seq([
            Segment::task("A", 2.0, 1.0),
            Segment::branch([
                (0.5, Segment::task("B", 8.0, 4.0)),
                (0.5, Segment::task("C", 4.0, 2.0)),
            ]),
        ]);
        let (g, _, plan) = plan_of(&app, 1, 20.0);
        let a = g.iter().find(|(_, n)| n.name == "A").expect("task A").0;
        // Remaining worst at A's start: 2 + 8 = 10 → LST = 10.
        assert!((plan.lst[a.index()].expect("A has an LST") - 10.0).abs() < 1e-12);
        let c = g.iter().find(|(_, n)| n.name == "C").expect("task C").0;
        // C's own path: remaining worst at C's start is just C (4) →
        // LST = 16, even though the B path would have left only 12.
        assert!((plan.lst[c.index()].expect("C has an LST") - 16.0).abs() < 1e-12);
    }

    #[test]
    fn infeasible_deadline_rejected() {
        let app = Segment::task("A", 10.0, 5.0);
        let g = app.lower().expect("fixture lowers");
        let sg = SectionGraph::build(&g).expect("fixture sections");
        let err = OfflinePlan::build(&g, &sg, 1, 9.0).expect_err("must be infeasible");
        assert!(matches!(err, PlanError::Infeasible { .. }));
    }

    #[test]
    fn processor_count_is_capped() {
        let app = Segment::task("A", 1.0, 0.5);
        let g = app.lower().expect("fixture lowers");
        let sg = SectionGraph::build(&g).expect("fixture sections");
        assert!(OfflinePlan::build(&g, &sg, MAX_PROCS, 10.0).is_ok());
        for n in [MAX_PROCS + 1, 1 << 40, usize::MAX] {
            assert_eq!(
                OfflinePlan::build(&g, &sg, n, 10.0).expect_err("too many"),
                PlanError::TooManyProcessors(n)
            );
            assert_eq!(
                OfflinePlan::build_for_load(&g, &sg, n, 0.5, 0.0).expect_err("too many"),
                PlanError::TooManyProcessors(n)
            );
        }
    }

    #[test]
    fn bad_parameters_rejected() {
        let app = Segment::task("A", 1.0, 0.5);
        let g = app.lower().expect("fixture lowers");
        let sg = SectionGraph::build(&g).expect("fixture sections");
        assert_eq!(
            OfflinePlan::build(&g, &sg, 0, 10.0).expect_err("no processors"),
            PlanError::NoProcessors
        );
        assert!(matches!(
            OfflinePlan::build(&g, &sg, 1, f64::NAN).expect_err("NaN deadline"),
            PlanError::BadDeadline(_)
        ));
        assert!(matches!(
            OfflinePlan::build(&g, &sg, 1, -1.0).expect_err("negative deadline"),
            PlanError::BadDeadline(_)
        ));
    }

    #[test]
    fn exact_deadline_is_feasible() {
        let app = Segment::task("A", 10.0, 5.0);
        let g = app.lower().expect("fixture lowers");
        let sg = SectionGraph::build(&g).expect("fixture sections");
        let plan = OfflinePlan::build(&g, &sg, 1, 10.0).expect("plan builds");
        assert!((plan.static_slack()).abs() < 1e-12);
    }

    #[test]
    fn dependent_tasks_respect_precedence_in_order() {
        // Diamond of tasks: A -> (B, C) -> D via AND nodes. B,C parallel.
        let mut b = GraphBuilder::new();
        let a = b.task("A", 2.0, 1.0);
        let x = b.task("B", 3.0, 1.5);
        let y = b.task("C", 5.0, 2.5);
        let d = b.task("D", 1.0, 0.5);
        b.edge(a, x).expect("edge is valid");
        b.edge(a, y).expect("edge is valid");
        b.edge(x, d).expect("edge is valid");
        b.edge(y, d).expect("edge is valid");
        let g = b.build().expect("diamond builds");
        let sg = SectionGraph::build(&g).expect("diamond sections");
        let plan = OfflinePlan::build(&g, &sg, 2, 10.0).expect("plan builds");
        // 2 + 5 + 1 = 8 on two processors.
        assert!((plan.worst_total - 8.0).abs() < 1e-12);
        let order = &plan.dispatch.per_section[0];
        let pos = |id: NodeId| order.iter().position(|&n| n == id).expect("node in order");
        assert!(pos(a) < pos(x) && pos(a) < pos(y) && pos(y) < pos(d));
        // LTF dispatches C (5) before B (3) once both are ready.
        assert!(pos(y) < pos(x));
    }

    #[test]
    fn nested_or_remaining_times_recursive() {
        // A -> O1 -> { B -> O2 -> {C(6)|D(2)} | E(3) }
        let app = Segment::seq([
            Segment::task("A", 1.0, 1.0),
            Segment::branch([
                (
                    0.5,
                    Segment::seq([
                        Segment::task("B", 1.0, 1.0),
                        Segment::branch([
                            (0.5, Segment::task("C", 6.0, 6.0)),
                            (0.5, Segment::task("D", 2.0, 2.0)),
                        ]),
                    ]),
                ),
                (0.5, Segment::task("E", 3.0, 3.0)),
            ]),
        ]);
        let (_, _, plan) = plan_of(&app, 1, 20.0);
        // Worst: 1 + max(1+max(6,2), 3) = 8.
        assert!((plan.worst_total - 8.0).abs() < 1e-12);
        // Avg: 1 + 0.5·(1 + 0.5·6 + 0.5·2) + 0.5·3 = 1 + 2.5 + 1.5 = 5.
        assert!((plan.avg_total - 5.0).abs() < 1e-12);
    }

    #[test]
    fn canonical_starts_follow_dispatch_order() {
        let app = Segment::par([
            Segment::task("L", 6.0, 3.0),
            Segment::task("M", 5.0, 2.0),
            Segment::task("S", 2.0, 1.0),
        ]);
        let (_, _, plan) = plan_of(&app, 2, 20.0);
        let starts = &plan.canonical_start_rel[0];
        // Starts are non-decreasing along the dispatch order, and the
        // section makespan bounds every start.
        for w in starts.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        for s in starts {
            assert!(*s <= plan.section_worst_len[0] + 1e-12);
        }
    }

    #[test]
    fn plan_serde_round_trip() {
        let app = Segment::seq([Segment::task("A", 2.0, 1.0), Segment::task("B", 3.0, 2.0)]);
        let (_, _, plan) = plan_of(&app, 1, 10.0);
        let json = serde_json::to_string(&plan).expect("plan serializes");
        let back: OfflinePlan = serde_json::from_str(&json).expect("plan deserializes");
        assert_eq!(back.num_procs, 1);
        assert!((back.worst_total - plan.worst_total).abs() < 1e-12);
    }
}
