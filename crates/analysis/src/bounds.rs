//! Symbolic energy & timing bounds (`PAS06xx`): an abstract-interpretation
//! pass over OR-paths and speed assignments.
//!
//! For each of the paper's six schemes the pass derives a *guaranteed*
//! interval `[best, worst]` for frame energy and makespan — guaranteed in
//! the sense that every execution the simulation engine can produce for
//! the same [`Setup`] (any OR-path, any per-task execution time within the
//! realization model, any admissible quantized speed choice, optionally
//! any fault realization inside a [`FaultEnvelope`]) lands inside the
//! interval.
//!
//! # Abstract domain
//!
//! The state is a per-section vector of interval quantities
//! (`SectionCost`): task count, remaining work `[w_lo, w_hi]`, and the
//! pre-folded energy corners of `w·g(s)` over the scheme's *admissible
//! speed set* (the quantized levels — or continuous range — the on-line
//! policy can actually select, floored at the scheme's speculative/static
//! floor from [`SchemeParams::speed_floor`]). Below
//! [`ENUMERATION_THRESHOLD`] OR-paths the pass folds the state exactly
//! along every Theorem-1 path and joins at the terminal OR with an
//! interval hull, keeping the witness path for each extreme; above it, a
//! memoized min/max recursion over the section DAG joins at every OR node
//! (component-wise hull), trading witnesses for scalability (`PAS0602`).
//!
//! # Energy model
//!
//! The engine's metered energy decomposes exactly as
//!
//! ```text
//! E = ι·m·H + Σ_exec w·g(s) + Σ_pmp base·g(s_cur) + Σ_trans Δt·(maxP+ρ−ι) + X
//! ```
//!
//! with `g(s) = (P(s)+ρ−ι)/s`, horizon `H = max(finish, D)`, `base` the
//! full-speed PMP compute time, and `X ≥ 0` a small clamp excess that only
//! appears under faults (bounded by `ι·(m·Δt + n·stall)`). Each term is
//! bounded over its admissible corners independently; stalls net out
//! against horizon idle. The deadline cap on fault-free worst-case
//! makespan encodes Theorem 1 plus [`Setup`]'s construction invariant
//! (plans are only built when the canonical worst path fits the
//! deadline); under a fault envelope the cap is dropped and `PAS0605`
//! warns when the bound exceeds the deadline.
//!
//! The reported `opt_lower_bound` is a scheme-independent lower bound on
//! the energy of *any* deadline-meeting engine schedule of the worst-case
//! work, from the lower convex hull of the platform's `(1/s, g(s))`
//! points under the time budget `m·D` — the optimality-gap anchor for
//! each scheme's worst case (`PAS0604`).

use crate::diag::{Code, Diagnostic, Loc, Report};
use crate::enumeration::{self, count_scenarios, ENUMERATION_THRESHOLD};
use andor_graph::{AndOrGraph, SectionGraph, SectionId};
use dvfs_power::OperatingPoint;
use mp_sim::FaultPlan;
use pas_core::{Scheme, SchemeParams, Setup};
use serde::Serialize;

/// A closed interval `[lo, hi]` of a physical quantity (energy in
/// full-speed·ms units, or time in ms).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Interval {
    /// Guaranteed lower bound.
    pub lo: f64,
    /// Guaranteed upper bound.
    pub hi: f64,
}

impl Interval {
    /// The degenerate `[0, 0]` interval.
    pub const ZERO: Interval = Interval { lo: 0.0, hi: 0.0 };

    /// The interval `[lo, hi]`.
    pub fn new(lo: f64, hi: f64) -> Self {
        Interval { lo, hi }
    }

    /// True when `x` lies inside the interval up to a relative tolerance
    /// scaled by the interval's magnitude.
    pub fn contains(&self, x: f64, tol: f64) -> bool {
        let slack = tol * (1.0 + self.lo.abs().max(self.hi.abs()));
        x >= self.lo - slack && x <= self.hi + slack
    }

    /// The interval width `hi − lo`.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    fn hull(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
        }
    }

    /// Finite and ordered up to floating-point slop.
    fn well_formed(&self) -> bool {
        let slack = 1e-9 * (1.0 + self.lo.abs().max(self.hi.abs()));
        self.lo.is_finite() && self.hi.is_finite() && self.lo <= self.hi + slack
    }

    /// Clamps away sub-tolerance floating-point inversion for output.
    fn normalized(self) -> Interval {
        Interval {
            lo: self.lo,
            hi: self.hi.max(self.lo),
        }
    }
}

/// The worst-case fault behavior the bounds account for: every task may
/// overrun to `wcet·overrun_factor`, stall for `stall_ms`, drop a speed
/// change, and trigger fault containment (escalation to full speed).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultEnvelope {
    /// WCET multiplier an overrunning task can reach (`>= 1`).
    pub overrun_factor: f64,
    /// Longest single pre-dispatch stall, in ms.
    pub stall_ms: f64,
}

impl FaultEnvelope {
    /// The envelope implied by a fault plan's *support* (probabilities
    /// only gate whether a fault is possible at all), or `None` when the
    /// plan injects nothing.
    pub fn from_plan(plan: &FaultPlan) -> Option<Self> {
        if plan.overrun_prob <= 0.0 && plan.stall_prob <= 0.0 && plan.speed_fail_prob <= 0.0 {
            return None;
        }
        Some(FaultEnvelope {
            overrun_factor: if plan.overrun_prob > 0.0 {
                plan.overrun_factor.max(1.0)
            } else {
                1.0
            },
            stall_ms: if plan.stall_prob > 0.0 {
                plan.stall_ms.max(0.0)
            } else {
                0.0
            },
        })
    }
}

/// Configuration of the bounds pass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BoundsConfig {
    /// Lower execution-time floor as a fraction of WCET — must match the
    /// simulation's [`mp_sim::ExecTimeModel::floor_fraction`] for the
    /// lower bounds to cover its samples (the effective per-task floor is
    /// `min(fraction·wcet, acet)`, as in the sampler).
    pub min_exec_fraction: f64,
    /// Worst-case fault behavior to include, or `None` for fault-free
    /// bounds.
    pub fault: Option<FaultEnvelope>,
}

impl Default for BoundsConfig {
    fn default() -> Self {
        BoundsConfig {
            min_exec_fraction: 0.01,
            fault: None,
        }
    }
}

/// Interval-valued decomposition of frame energy into the meter
/// categories of [`mp_sim::RunResult`]. `busy`/`idle`/`speed_overhead`
/// bound the engine's busy/idle/transition meters; `leakage` (the static
/// `ρ` share of active time) and `recovery` (the fault-containment
/// premium) are overlays, not partition members, so the five intervals
/// need not sum to the total.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct EnergySplit {
    /// Execution plus PMP computation energy.
    pub busy: Interval,
    /// Idle (and stall) energy at the idle-power fraction.
    pub idle: Interval,
    /// Voltage/frequency transition energy.
    pub speed_overhead: Interval,
    /// Static-power share of busy and transition time (`ρ`-scaled).
    pub leakage: Interval,
    /// Fault-containment recovery premium (zero without a fault
    /// envelope).
    pub recovery: Interval,
}

/// Guaranteed bounds for one scheme.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SchemeBounds {
    /// Scheme display name (`"NPM"`, `"SS(2)"`, ...).
    pub scheme: String,
    /// Frame energy interval (full-speed·ms units, as the simulator
    /// meters it).
    pub energy: Interval,
    /// Frame makespan interval in ms.
    pub makespan: Interval,
    /// Energy decomposition by meter category.
    pub split: EnergySplit,
    /// OR-path witnessing the energy lower bound (empty when the graph
    /// has no OR choices, or in DAG-fallback mode).
    pub witness_lo: Vec<String>,
    /// OR-path witnessing the energy upper bound.
    pub witness_hi: Vec<String>,
    /// `energy.hi − opt_lower_bound`: how far the scheme's guaranteed
    /// worst case sits above the theoretical minimum.
    pub optimality_gap: f64,
    /// False when the worst-case makespan exceeds the deadline (only
    /// possible under a fault envelope; `PAS0605`).
    pub deadline_safe: bool,
}

/// The result of [`analyze_bounds`] over one [`Setup`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BoundsAnalysis {
    /// The `PAS06xx` diagnostics the pass emitted.
    pub report: Report,
    /// Frame deadline in ms.
    pub deadline: f64,
    /// Processor count.
    pub num_procs: usize,
    /// Number of Theorem-1 OR-paths (saturating).
    pub paths: u64,
    /// True when every path was enumerated exactly; false when the DAG
    /// fallback was used (`PAS0602`).
    pub exact: bool,
    /// Scheme-independent lower bound on the energy of any
    /// deadline-meeting schedule of the worst-case work.
    pub opt_lower_bound: f64,
    /// Per-scheme bounds, in [`Scheme::ALL`] order.
    pub schemes: Vec<SchemeBounds>,
}

// ---------------------------------------------------------------------------
// Shared derivation context.
// ---------------------------------------------------------------------------

/// Everything scheme-independent the assembly needs, precomputed once.
struct Ctx {
    m_f: f64,
    d: f64,
    /// The engine's no-miss acceptance threshold `D·(1+1e-9)+1e-9`.
    cap: f64,
    iota: f64,
    rho: f64,
    /// One voltage-transition time, ms.
    dt: f64,
    /// Full-speed PMP compute time, ms (`base/s_cur` at speed `s_cur`).
    base: f64,
    faulty: bool,
    factor: f64,
    stall_hi: f64,
    min_frac: f64,
    /// Platform-wide `(τ = 1/s, g(s))` points (discrete), or `None` for
    /// the continuous model.
    tau_g: Option<Vec<(f64, f64)>>,
    /// Continuous model's minimum speed (unused for discrete).
    cont_min_speed: f64,
    /// Global minimum of `g` over the whole platform range.
    g_all_min: f64,
    /// Minimum power over the whole platform range.
    p_all_min: f64,
}

impl Ctx {
    fn new(setup: &Setup, cfg: &BoundsConfig) -> Ctx {
        let model = &setup.model;
        let iota = setup.idle_fraction;
        let rho = setup.static_fraction;
        let d = setup.plan.deadline;
        let all_points = platform_points(setup, rho, iota);
        let gh_all = GH::over(&all_points, rho, iota);
        let p_all_min = all_points
            .iter()
            .map(|p| p.power)
            .fold(f64::INFINITY, f64::min)
            .min(1.0);
        let tau_g = model.discrete_points().map(|pts| {
            pts.iter()
                .map(|p| {
                    let s = p.speed.max(1e-12);
                    (1.0 / s, (p.power + rho - iota) / s)
                })
                .collect()
        });
        Ctx {
            m_f: setup.plan.num_procs as f64,
            d,
            cap: d * (1.0 + 1e-9) + 1e-9,
            iota,
            rho,
            dt: setup.overheads.transition_time_ms,
            base: setup.overheads.compute_time_ms(1.0, model.max_freq_mhz()),
            faulty: cfg.fault.is_some(),
            factor: cfg.fault.map(|f| f.overrun_factor.max(1.0)).unwrap_or(1.0),
            stall_hi: cfg.fault.map(|f| f.stall_ms.max(0.0)).unwrap_or(0.0),
            min_frac: cfg.min_exec_fraction.clamp(0.0, 1.0),
            tau_g,
            cont_min_speed: model.min_speed(),
            g_all_min: gh_all.g_min,
            p_all_min,
        }
    }

    /// Minimum achievable mean `g` over speed mixtures whose mean
    /// execution-time dilation `τ = 1/s` stays within `budget` — the
    /// lower convex hull of the platform's `(τ, g)` points, evaluated at
    /// the time budget (LP optimum is a mixture of at most two points).
    fn min_mean_g(&self, budget: f64) -> f64 {
        let full = 1.0 + self.rho - self.iota; // g at s = 1 (τ = 1).
        if budget <= 1.0 {
            return full;
        }
        match &self.tau_g {
            Some(pts) => {
                let mut c = f64::INFINITY;
                for (i, &(ti, gi)) in pts.iter().enumerate() {
                    if ti <= budget + 1e-12 {
                        c = c.min(gi);
                    }
                    for &(tj, gj) in pts.iter().skip(i + 1) {
                        let ((ta, ga), (tb, gb)) = if ti <= tj {
                            ((ti, gi), (tj, gj))
                        } else {
                            ((tj, gj), (ti, gi))
                        };
                        if ta <= budget && budget <= tb && tb > ta {
                            let lam = (tb - budget) / (tb - ta);
                            c = c.min(lam * ga + (1.0 - lam) * gb);
                        }
                    }
                }
                if c.is_finite() {
                    c
                } else {
                    full
                }
            }
            None => {
                // g(τ) = 1/τ² + (ρ−ι)·τ is convex on τ ≥ 1, so the
                // mixture optimum is deterministic: minimize over the
                // admissible range's endpoints and interior critical
                // point.
                let tau_max = (1.0 / self.cont_min_speed.max(1e-12)).max(1.0);
                let hi = budget.min(tau_max).max(1.0);
                let gk = self.rho - self.iota;
                let g_of = |t: f64| 1.0 / (t * t) + gk * t;
                let mut c = g_of(1.0).min(g_of(hi));
                if gk < 0.0 {
                    let crit = (2.0 / -gk).cbrt();
                    if crit > 1.0 && crit < hi {
                        c = c.min(g_of(crit));
                    }
                }
                c
            }
        }
    }

    /// Lower bound on any deadline-meeting engine schedule's energy for
    /// worst-case (fault-free) work `w_wcet` over `n` tasks.
    fn opt_lb(&self, w_wcet: f64, n: f64) -> f64 {
        let overheads = n * (self.base * self.g_all_min).min(0.0)
            + n * (self.dt * (self.p_all_min + self.rho - self.iota)).min(0.0);
        if w_wcet <= 0.0 {
            return self.iota * self.m_f * self.d + overheads;
        }
        let budget = self.m_f * self.d * (1.0 + 1e-9) / w_wcet;
        self.iota * self.m_f * self.d + w_wcet * self.min_mean_g(budget) + overheads
    }
}

/// Extremes of `g(s) = (P+ρ−ι)/s` and `h(s) = (P+ρ)/s` over a point set.
#[derive(Debug, Clone, Copy)]
struct GH {
    g_min: f64,
    g_max: f64,
    h_min: f64,
    h_max: f64,
}

impl GH {
    fn over(points: &[OperatingPoint], rho: f64, iota: f64) -> GH {
        let mut r = GH {
            g_min: f64::INFINITY,
            g_max: f64::NEG_INFINITY,
            h_min: f64::INFINITY,
            h_max: f64::NEG_INFINITY,
        };
        for p in points {
            let s = p.speed.max(1e-12);
            let g = (p.power + rho - iota) / s;
            let h = (p.power + rho) / s;
            r.g_min = r.g_min.min(g);
            r.g_max = r.g_max.max(g);
            r.h_min = r.h_min.min(h);
            r.h_max = r.h_max.max(h);
        }
        r
    }
}

/// The platform's full admissible point set plus the interior critical
/// speeds of `g`/`h` for the continuous model (extrema candidates).
fn platform_points(setup: &Setup, rho: f64, iota: f64) -> Vec<OperatingPoint> {
    range_points(setup, setup.model.min_speed(), rho, iota)
}

/// Points reachable at or above `floor`: every discrete level in range,
/// or the continuous endpoints plus interior critical speeds.
fn range_points(setup: &Setup, floor: f64, rho: f64, iota: f64) -> Vec<OperatingPoint> {
    let model = &setup.model;
    if let Some(all) = model.discrete_points() {
        let pts: Vec<OperatingPoint> = all
            .into_iter()
            .filter(|p| p.speed >= floor - 1e-9)
            .collect();
        if pts.is_empty() {
            vec![model.max_point()]
        } else {
            pts
        }
    } else {
        // g' = 2s − (ρ−ι)/s² vanishes at s³ = (ρ−ι)/2 (only when ρ > ι);
        // h' at s³ = ρ/2. Both g and h are convex in s on (0, 1], so
        // endpoints + interior critical points carry the extremes.
        let mut speeds = vec![floor, 1.0];
        if rho > iota {
            speeds.push(((rho - iota) / 2.0).cbrt());
        }
        if rho > 0.0 {
            speeds.push((rho / 2.0).cbrt());
        }
        speeds
            .into_iter()
            .map(|s| model.quantize_up(s.clamp(floor, 1.0)))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Per-scheme admissible-speed abstraction.
// ---------------------------------------------------------------------------

/// How often a scheme pays voltage transitions.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TransKind {
    /// Never changes speed (NPM).
    Never,
    /// One transition per processor that runs a task (SPM).
    Static,
    /// Up to one per dispatch (the dynamic schemes).
    PerDispatch,
}

/// A scheme's admissible-speed abstraction.
struct SchemeShape {
    scheme: Scheme,
    runs_pmp: bool,
    /// Lowest speed any execution can happen at (`SchemeParams::speed_floor`).
    floor: f64,
    /// `g`/`h` extremes over the admissible execution points.
    exec: GH,
    /// Same, over the points a PMP computation can be charged at
    /// (admissible ∪ the initial/containment full-speed point).
    pmp: GH,
    /// Minimum power among reachable points (transition pair floor).
    p_floor: f64,
    trans: TransKind,
}

impl SchemeShape {
    fn build(scheme: Scheme, setup: &Setup, ctx: &Ctx) -> SchemeShape {
        let params = SchemeParams::derive(scheme, &setup.plan, &setup.model, setup.overheads);
        let floor = params
            .speed_floor(&setup.model)
            .clamp(setup.model.min_speed(), 1.0);
        let (mut points, runs_pmp, trans) = match scheme {
            Scheme::Npm => (vec![setup.model.max_point()], false, TransKind::Never),
            Scheme::Spm => (
                vec![setup.model.quantize_up(floor)],
                false,
                TransKind::Static,
            ),
            Scheme::Gss | Scheme::Ss1 | Scheme::Ss2 | Scheme::As => (
                range_points(setup, floor, ctx.rho, ctx.iota),
                true,
                TransKind::PerDispatch,
            ),
        };
        // Under faults, containment and dropped speed changes can execute
        // work at the initial full-speed point regardless of the scheme.
        if ctx.faulty && !points.iter().any(|p| p.speed >= 1.0 - 1e-12) {
            points.push(setup.model.max_point());
        }
        let exec = GH::over(&points, ctx.rho, ctx.iota);
        let mut reach = points;
        if !reach.iter().any(|p| p.speed >= 1.0 - 1e-12) {
            reach.push(setup.model.max_point());
        }
        let pmp = GH::over(&reach, ctx.rho, ctx.iota);
        let p_floor = reach
            .iter()
            .map(|p| p.power)
            .fold(f64::INFINITY, f64::min)
            .min(1.0);
        SchemeShape {
            scheme,
            runs_pmp,
            floor,
            exec,
            pmp,
            p_floor,
            trans,
        }
    }

    /// `[count_lo, count_hi]` of charged voltage transitions for a path
    /// with `n` tasks.
    fn trans_counts(&self, n_lo: f64, n_hi: f64, ctx: &Ctx) -> (f64, f64) {
        match self.trans {
            TransKind::Never => (0.0, 0.0),
            TransKind::Static => {
                if self.floor >= 1.0 - 1e-12 {
                    (0.0, 0.0)
                } else if ctx.faulty {
                    // Dropped speed changes can force a re-transition on
                    // every dispatch, and containment adds one escalation
                    // per detection.
                    (n_lo.min(1.0), 2.0 * n_hi)
                } else {
                    // One transition per processor that runs a task; the
                    // very first dispatch always pays one.
                    (n_lo.min(1.0), n_hi.min(ctx.m_f))
                }
            }
            TransKind::PerDispatch => {
                if ctx.faulty {
                    (0.0, 2.0 * n_hi)
                } else {
                    (0.0, n_hi)
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Per-section abstract state.
// ---------------------------------------------------------------------------

/// The abstract state of one section under one scheme: additive interval
/// quantities, pre-folded over the scheme's admissible speed corners.
#[derive(Debug, Clone, Copy, Default)]
struct SectionCost {
    /// Computation-task count.
    n: f64,
    /// Σ per-task minimum work (realization floor).
    w_lo: f64,
    /// Σ per-task maximum work (`wcet·overrun_factor`).
    w_hi: f64,
    /// Σ wcet (fault-free worst work, for the optimality anchor).
    wcet: f64,
    /// Largest single minimum work (serial makespan floor).
    max_w_lo: f64,
    /// Σ per-task lower/upper corners of the identity term `w·g(s)`.
    busy_lo: f64,
    busy_hi: f64,
    /// Σ per-task lower/upper corners of the meter term `w·h(s)`.
    mbusy_lo: f64,
    mbusy_hi: f64,
    /// Σ `w_hi / floor`: worst execution time (serialized bound).
    exec_hi: f64,
}

impl SectionCost {
    /// Chain composition: sums, except the serial floor which is a max.
    fn plus(&self, o: &SectionCost) -> SectionCost {
        SectionCost {
            n: self.n + o.n,
            w_lo: self.w_lo + o.w_lo,
            w_hi: self.w_hi + o.w_hi,
            wcet: self.wcet + o.wcet,
            max_w_lo: self.max_w_lo.max(o.max_w_lo),
            busy_lo: self.busy_lo + o.busy_lo,
            busy_hi: self.busy_hi + o.busy_hi,
            mbusy_lo: self.mbusy_lo + o.mbusy_lo,
            mbusy_hi: self.mbusy_hi + o.mbusy_hi,
            exec_hi: self.exec_hi + o.exec_hi,
        }
    }

    /// Component-wise OR-join toward the lower extreme.
    fn join_min(&self, o: &SectionCost) -> SectionCost {
        SectionCost {
            n: self.n.min(o.n),
            w_lo: self.w_lo.min(o.w_lo),
            w_hi: self.w_hi.min(o.w_hi),
            wcet: self.wcet.min(o.wcet),
            max_w_lo: self.max_w_lo.min(o.max_w_lo),
            busy_lo: self.busy_lo.min(o.busy_lo),
            busy_hi: self.busy_hi.min(o.busy_hi),
            mbusy_lo: self.mbusy_lo.min(o.mbusy_lo),
            mbusy_hi: self.mbusy_hi.min(o.mbusy_hi),
            exec_hi: self.exec_hi.min(o.exec_hi),
        }
    }

    /// Component-wise OR-join toward the upper extreme.
    fn join_max(&self, o: &SectionCost) -> SectionCost {
        SectionCost {
            n: self.n.max(o.n),
            w_lo: self.w_lo.max(o.w_lo),
            w_hi: self.w_hi.max(o.w_hi),
            wcet: self.wcet.max(o.wcet),
            max_w_lo: self.max_w_lo.max(o.max_w_lo),
            busy_lo: self.busy_lo.max(o.busy_lo),
            busy_hi: self.busy_hi.max(o.busy_hi),
            mbusy_lo: self.mbusy_lo.max(o.mbusy_lo),
            mbusy_hi: self.mbusy_hi.max(o.mbusy_hi),
            exec_hi: self.exec_hi.max(o.exec_hi),
        }
    }
}

/// Abstract state of every section under one scheme.
fn section_costs(
    g: &AndOrGraph,
    sections: &SectionGraph,
    shape: &SchemeShape,
    ctx: &Ctx,
) -> Vec<SectionCost> {
    sections
        .sections()
        .iter()
        .map(|sec| {
            let mut c = SectionCost::default();
            for &node in &sec.nodes {
                let kind = &g.node(node).kind;
                if !kind.is_computation() {
                    continue;
                }
                let wcet = kind.wcet();
                let acet = kind.acet();
                // Mirrors the realization sampler's clamp.
                let w_lo = (ctx.min_frac * wcet).min(acet).max(wcet * 1e-12).min(wcet);
                let w_hi = wcet * ctx.factor;
                c.n += 1.0;
                c.w_lo += w_lo;
                c.w_hi += w_hi;
                c.wcet += wcet;
                c.max_w_lo = c.max_w_lo.max(w_lo);
                // Corner of w·g over w ∈ [w_lo, w_hi], s ∈ admissible.
                c.busy_lo += if shape.exec.g_min >= 0.0 {
                    w_lo * shape.exec.g_min
                } else {
                    w_hi * shape.exec.g_min
                };
                c.busy_hi += if shape.exec.g_max >= 0.0 {
                    w_hi * shape.exec.g_max
                } else {
                    w_lo * shape.exec.g_max
                };
                // h ≥ 0 always, so the w corners are fixed.
                c.mbusy_lo += w_lo * shape.exec.h_min;
                c.mbusy_hi += w_hi * shape.exec.h_max;
                c.exec_hi += w_hi / shape.floor;
            }
            c
        })
        .collect()
}

fn chain_total(chain: &[SectionId], costs: &[SectionCost]) -> SectionCost {
    chain.iter().fold(SectionCost::default(), |acc, s| {
        match costs.get(s.index()) {
            Some(c) => acc.plus(c),
            None => acc,
        }
    })
}

// ---------------------------------------------------------------------------
// Assembly: abstract totals → one path's bounds.
// ---------------------------------------------------------------------------

/// Assembled bounds for one path (or one DAG-joined extreme pair).
struct PathBounds {
    energy: Interval,
    makespan: Interval,
    split: EnergySplit,
}

/// Assembles interval bounds from a lower-extreme and an upper-extreme
/// abstract total. Exact mode passes the same total twice; the DAG
/// fallback passes the component-wise joins.
fn assemble(lo_t: &SectionCost, hi_t: &SectionCost, sh: &SchemeShape, ctx: &Ctx) -> PathBounds {
    let m = ctx.m_f;
    let (c_lo, c_hi) = sh.trans_counts(lo_t.n, hi_t.n, ctx);
    let pmp_n_lo = if sh.runs_pmp { lo_t.n } else { 0.0 };
    let pmp_n_hi = if sh.runs_pmp { hi_t.n } else { 0.0 };
    let pmp_t_hi = pmp_n_hi * ctx.base / sh.floor;

    // Makespan: total work over m processors from below; the serialized
    // sum of every charged window from above, capped at the engine's
    // no-miss threshold when fault-free (Theorem 1 + Setup feasibility).
    let mk_lo = (lo_t.w_lo / m).max(lo_t.max_w_lo);
    let serial = hi_t.n * ctx.stall_hi + pmp_t_hi + c_hi * ctx.dt + hi_t.exec_hi;
    let mk_hi = if ctx.faulty {
        serial
    } else {
        serial.min(ctx.cap)
    };
    let h_lo = mk_lo.max(ctx.d);
    let h_hi = mk_hi.max(ctx.d);

    // Identity terms.
    let pmp_e_lo = ctx.base
        * sh.pmp.g_min
        * if sh.pmp.g_min < 0.0 {
            pmp_n_hi
        } else {
            pmp_n_lo
        };
    let pmp_e_hi = ctx.base
        * sh.pmp.g_max
        * if sh.pmp.g_max > 0.0 {
            pmp_n_hi
        } else {
            pmp_n_lo
        };
    let te_lo = ctx.dt * (sh.p_floor + ctx.rho - ctx.iota);
    let te_hi = ctx.dt * (1.0 + ctx.rho - ctx.iota);
    let trans_lo = if te_lo >= 0.0 {
        c_lo * te_lo
    } else {
        c_hi * te_lo
    };
    let trans_hi = if te_hi >= 0.0 {
        c_hi * te_hi
    } else {
        c_lo * te_hi
    };
    // Charged windows can spill past the horizon only under faults
    // (trailing escalations, overlapping stall accounting).
    let excess_hi = if ctx.faulty {
        ctx.iota * (m * ctx.dt + hi_t.n * ctx.stall_hi)
    } else {
        0.0
    };
    let energy = Interval {
        lo: ctx.iota * m * h_lo + lo_t.busy_lo + pmp_e_lo + trans_lo,
        hi: ctx.iota * m * h_hi + hi_t.busy_hi + pmp_e_hi + trans_hi + excess_hi,
    };

    // Meter split.
    let busy_t_hi = hi_t.exec_hi + pmp_t_hi;
    let split = EnergySplit {
        busy: Interval {
            lo: lo_t.mbusy_lo + pmp_n_lo * ctx.base * sh.pmp.h_min,
            hi: hi_t.mbusy_hi + pmp_n_hi * ctx.base * sh.pmp.h_max,
        },
        idle: Interval {
            lo: (ctx.iota * (m * h_lo - busy_t_hi - c_hi * ctx.dt)).max(0.0),
            hi: ctx.iota * m * h_hi + excess_hi,
        },
        speed_overhead: Interval {
            lo: c_lo * ctx.dt * (sh.p_floor + ctx.rho),
            hi: c_hi * ctx.dt * (1.0 + ctx.rho),
        },
        leakage: Interval {
            lo: ctx.rho * lo_t.w_lo,
            hi: ctx.rho * (busy_t_hi + c_hi * ctx.dt),
        },
        recovery: if ctx.faulty {
            Interval {
                lo: 0.0,
                hi: hi_t.exec_hi + hi_t.n * ctx.dt,
            }
        } else {
            Interval::ZERO
        },
    };
    PathBounds {
        energy,
        makespan: Interval {
            lo: mk_lo,
            hi: mk_hi,
        },
        split,
    }
}

// ---------------------------------------------------------------------------
// Join machinery.
// ---------------------------------------------------------------------------

/// Running hull over paths for one scheme, with energy witnesses.
struct SchemeAcc {
    bounds: Option<PathBounds>,
    witness_lo: Vec<String>,
    witness_hi: Vec<String>,
}

impl SchemeAcc {
    fn new() -> SchemeAcc {
        SchemeAcc {
            bounds: None,
            witness_lo: Vec::new(),
            witness_hi: Vec::new(),
        }
    }

    fn merge(&mut self, pb: PathBounds, witness: &[String]) {
        match &mut self.bounds {
            None => {
                self.witness_lo = witness.to_vec();
                self.witness_hi = witness.to_vec();
                self.bounds = Some(pb);
            }
            Some(acc) => {
                if pb.energy.lo < acc.energy.lo {
                    self.witness_lo = witness.to_vec();
                }
                if pb.energy.hi > acc.energy.hi {
                    self.witness_hi = witness.to_vec();
                }
                acc.energy = acc.energy.hull(pb.energy);
                acc.makespan = acc.makespan.hull(pb.makespan);
                acc.split.busy = acc.split.busy.hull(pb.split.busy);
                acc.split.idle = acc.split.idle.hull(pb.split.idle);
                acc.split.speed_overhead = acc.split.speed_overhead.hull(pb.split.speed_overhead);
                acc.split.leakage = acc.split.leakage.hull(pb.split.leakage);
                acc.split.recovery = acc.split.recovery.hull(pb.split.recovery);
            }
        }
    }
}

/// Component-wise min/max of the chain-composed cost over every OR-path,
/// by memoized recursion over the section DAG (the abstract OR-join).
fn dag_extremes(
    g: &AndOrGraph,
    sections: &SectionGraph,
    costs: &[SectionCost],
) -> (SectionCost, SectionCost) {
    let mut memo = vec![None; g.len()];
    from_section(g, sections, costs, sections.root(), &mut memo)
}

/// The extremes from the start of section `s`; `memo` holds the join
/// over each exit OR's branches, indexed by node.
fn from_section(
    g: &AndOrGraph,
    sections: &SectionGraph,
    costs: &[SectionCost],
    s: SectionId,
    memo: &mut [Option<(SectionCost, SectionCost)>],
) -> (SectionCost, SectionCost) {
    let own = costs.get(s.index()).copied().unwrap_or_default();
    let Some(or) = sections.section(s).exit_or else {
        return (own, own);
    };
    let (suffix_min, suffix_max) = if let Some(&Some(joined)) = memo.get(or.index()) {
        joined
    } else {
        let mut joined: Option<(SectionCost, SectionCost)> = None;
        for k in 0..g.node(or).succs.len() {
            let below = sections
                .branch_section(or, k)
                .map_or_else(Default::default, |b| {
                    from_section(g, sections, costs, b, memo)
                });
            joined = Some(match joined {
                None => below,
                Some((lo, hi)) => (lo.join_min(&below.0), hi.join_max(&below.1)),
            });
        }
        let joined = joined.unwrap_or_default();
        if let Some(slot) = memo.get_mut(or.index()) {
            *slot = Some(joined);
        }
        joined
    };
    (own.plus(&suffix_min), own.plus(&suffix_max))
}

// ---------------------------------------------------------------------------
// Entry point.
// ---------------------------------------------------------------------------

/// Derives guaranteed energy/makespan intervals for every scheme over one
/// [`Setup`], emitting `PAS06xx` diagnostics against source label `src`.
pub fn analyze_bounds(setup: &Setup, cfg: &BoundsConfig, src: &str) -> BoundsAnalysis {
    let _span = pas_obs::profile::span(pas_obs::profile::names::CHECK_BOUNDS);
    let g = &setup.graph;
    let sections = &setup.sections;
    let mut report = Report::default();
    let ctx = Ctx::new(setup, cfg);
    let paths = count_scenarios(g, sections);
    let exact = paths <= ENUMERATION_THRESHOLD;

    let shapes: Vec<SchemeShape> = Scheme::ALL
        .iter()
        .map(|&s| SchemeShape::build(s, setup, &ctx))
        .collect();
    let costs: Vec<Vec<SectionCost>> = shapes
        .iter()
        .map(|sh| section_costs(g, sections, sh, &ctx))
        .collect();

    let mut accs: Vec<SchemeAcc> = shapes.iter().map(|_| SchemeAcc::new()).collect();
    let mut opt_lb = f64::INFINITY;

    if exact {
        enumeration::for_each_path(g, sections, |scenario, _p, chain| {
            let witness = enumeration::witness(g, scenario);
            for (shape, (table, acc)) in shapes.iter().zip(costs.iter().zip(accs.iter_mut())) {
                let tot = chain_total(chain, table);
                acc.merge(assemble(&tot, &tot, shape, &ctx), &witness);
            }
            // The optimality anchor is scheme-independent; fold it from
            // the first scheme's table (work fields are shared).
            if let Some(table) = costs.first() {
                let tot = chain_total(chain, table);
                opt_lb = opt_lb.min(ctx.opt_lb(tot.wcet, tot.n));
            }
        });
    } else {
        report.push(Diagnostic::new(
            Code::Pas0602,
            Loc::whole(src),
            format!(
                "graph has {paths} OR-paths (> {ENUMERATION_THRESHOLD}); bounds joined over the \
                 section DAG without per-path witnesses"
            ),
        ));
        let extremes: Vec<(SectionCost, SectionCost)> = costs
            .iter()
            .map(|table| dag_extremes(g, sections, table))
            .collect();
        for (shape, ((lo_t, hi_t), acc)) in shapes.iter().zip(extremes.iter().zip(accs.iter_mut()))
        {
            acc.merge(assemble(lo_t, hi_t, shape, &ctx), &[]);
        }
        // The optimality anchor reuses the first scheme's walk.
        if let Some(&(lo_t, hi_t)) = extremes.first() {
            // The mean-g hull is monotone in the time budget, so the
            // bilinear minimum over the work/budget box sits at a corner.
            let c_a = ctx.min_mean_g(ctx.m_f * ctx.d * (1.0 + 1e-9) / lo_t.wcet.max(1e-300));
            let c_b = ctx.min_mean_g(ctx.m_f * ctx.d * (1.0 + 1e-9) / hi_t.wcet.max(1e-300));
            let busy_lb = (lo_t.wcet * c_a)
                .min(lo_t.wcet * c_b)
                .min(hi_t.wcet * c_a)
                .min(hi_t.wcet * c_b);
            opt_lb = ctx.iota * ctx.m_f * ctx.d
                + busy_lb
                + hi_t.n * (ctx.base * ctx.g_all_min).min(0.0)
                + hi_t.n * (ctx.dt * (ctx.p_all_min + ctx.rho - ctx.iota)).min(0.0);
        }
    }
    if !opt_lb.is_finite() {
        opt_lb = ctx.iota * ctx.m_f * ctx.d;
    }

    let mut schemes = Vec::with_capacity(shapes.len());
    for (shape, acc) in shapes.iter().zip(accs) {
        let pb = match acc.bounds {
            Some(pb) => pb,
            // No path at all (degenerate graph): everything is zero work.
            None => assemble(
                &SectionCost::default(),
                &SectionCost::default(),
                shape,
                &ctx,
            ),
        };
        let name = shape.scheme.name().to_string();
        for (what, iv) in [
            ("energy", &pb.energy),
            ("makespan", &pb.makespan),
            ("busy", &pb.split.busy),
            ("idle", &pb.split.idle),
            ("speed-overhead", &pb.split.speed_overhead),
            ("leakage", &pb.split.leakage),
            ("recovery", &pb.split.recovery),
        ] {
            if !iv.well_formed() {
                report.push(Diagnostic::new(
                    Code::Pas0601,
                    Loc::whole(src),
                    format!(
                        "{name}: derived {what} interval [{}, {}] fails the soundness self-check",
                        iv.lo, iv.hi
                    ),
                ));
            }
        }
        let deadline_safe = pb.makespan.hi <= ctx.cap;
        if ctx.faulty && !deadline_safe {
            report.push(Diagnostic::new(
                Code::Pas0605,
                Loc::whole(src),
                format!(
                    "{name}: worst-case makespan {:.3} ms exceeds the {:.3} ms deadline under \
                     the fault envelope",
                    pb.makespan.hi, ctx.d
                ),
            ));
        }
        report.push(Diagnostic::new(
            Code::Pas0603,
            Loc::whole(src),
            format!(
                "{name}: frame energy in [{:.4}, {:.4}], makespan in [{:.4}, {:.4}] ms",
                pb.energy.lo, pb.energy.hi, pb.makespan.lo, pb.makespan.hi
            ),
        ));
        schemes.push(SchemeBounds {
            scheme: name,
            energy: pb.energy.normalized(),
            makespan: pb.makespan.normalized(),
            split: EnergySplit {
                busy: pb.split.busy.normalized(),
                idle: pb.split.idle.normalized(),
                speed_overhead: pb.split.speed_overhead.normalized(),
                leakage: pb.split.leakage.normalized(),
                recovery: pb.split.recovery.normalized(),
            },
            witness_lo: acc.witness_lo,
            witness_hi: acc.witness_hi,
            optimality_gap: pb.energy.hi - opt_lb,
            deadline_safe,
        });
    }

    if let Some(best) = schemes
        .iter()
        .min_by(|a, b| a.optimality_gap.total_cmp(&b.optimality_gap))
    {
        report.push(Diagnostic::new(
            Code::Pas0604,
            Loc::whole(src),
            format!(
                "theoretical minimum frame energy >= {:.4}; smallest worst-case gap {:.4} ({})",
                opt_lb, best.optimality_gap, best.scheme
            ),
        ));
    }

    BoundsAnalysis {
        report,
        deadline: setup.plan.deadline,
        num_procs: setup.plan.num_procs,
        paths,
        exact,
        opt_lower_bound: opt_lb,
        schemes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use andor_graph::Segment;
    use dvfs_power::{Overheads, ProcessorModel};

    fn setup_for(app: &Segment, model: ProcessorModel, m: usize, d: f64) -> Setup {
        let g = app.lower().expect("valid segment lowers");
        Setup::with_deadline_and_overheads(g, model, m, d, Overheads::none())
            .expect("feasible setup")
    }

    fn two_task_chain() -> Segment {
        Segment::seq([Segment::task("A", 10.0, 5.0), Segment::task("B", 6.0, 3.0)])
    }

    #[test]
    fn interval_basics() {
        let iv = Interval::new(1.0, 3.0);
        assert!(iv.contains(2.0, 0.0));
        assert!(iv.contains(1.0, 1e-9));
        assert!(!iv.contains(3.5, 1e-9));
        assert_eq!(iv.width(), 2.0);
        assert_eq!(iv.hull(Interval::new(0.0, 2.0)), Interval::new(0.0, 3.0));
        assert!(Interval::new(1.0, 0.0 + 1.0 - 1e-12).well_formed());
        assert!(!Interval::new(1.0, 0.5).well_formed());
        assert!(!Interval::new(f64::NAN, 1.0).well_formed());
    }

    #[test]
    fn fault_envelope_from_plan_support() {
        assert_eq!(FaultEnvelope::from_plan(&FaultPlan::none()), None);
        let mut p = FaultPlan::none();
        p.overrun_prob = 0.1;
        p.overrun_factor = 1.5;
        let env = FaultEnvelope::from_plan(&p).expect("active");
        assert_eq!(env.overrun_factor, 1.5);
        assert_eq!(env.stall_ms, 0.0);
        let mut p = FaultPlan::none();
        p.speed_fail_prob = 0.2;
        let env = FaultEnvelope::from_plan(&p).expect("active");
        assert_eq!(env.overrun_factor, 1.0);
    }

    #[test]
    fn npm_interval_is_tight_on_a_serial_chain() {
        // 1 processor, no overheads, D > ΣWCET: NPM runs at full speed, so
        // E = ι·D + Σw·(1−ι) and makespan = Σw exactly at both corners.
        let s = setup_for(
            &two_task_chain(),
            ProcessorModel::continuous(0.05).expect("valid"),
            1,
            40.0,
        );
        let b = analyze_bounds(&s, &BoundsConfig::default(), "test");
        assert!(b.exact);
        assert_eq!(b.paths, 1);
        let npm = b.schemes.first().expect("NPM first");
        assert_eq!(npm.scheme, "NPM");
        let iota = s.idle_fraction;
        let w_lo = 0.1 + 0.06; // 1% of each WCET (below both ACETs).
        let w_hi = 16.0;
        let e_lo = iota * 40.0 + w_lo * (1.0 - iota);
        let e_hi = iota * 40.0 + w_hi * (1.0 - iota);
        assert!((npm.energy.lo - e_lo).abs() < 1e-9, "{:?}", npm.energy);
        assert!((npm.energy.hi - e_hi).abs() < 1e-9, "{:?}", npm.energy);
        assert!((npm.makespan.hi - w_hi).abs() < 1e-9, "{:?}", npm.makespan);
        assert!(npm.deadline_safe);
    }

    #[test]
    fn bounds_nest_fault_free_inside_faulty() {
        let s = setup_for(&two_task_chain(), ProcessorModel::xscale(), 2, 30.0);
        let ff = analyze_bounds(&s, &BoundsConfig::default(), "test");
        let faulty = analyze_bounds(
            &s,
            &BoundsConfig {
                min_exec_fraction: 0.01,
                fault: Some(FaultEnvelope {
                    overrun_factor: 2.0,
                    stall_ms: 1.0,
                }),
            },
            "test",
        );
        for (a, b) in ff.schemes.iter().zip(faulty.schemes.iter()) {
            assert!(b.energy.hi >= a.energy.hi - 1e-9, "{}", a.scheme);
            assert!(b.makespan.hi >= a.makespan.hi - 1e-9, "{}", a.scheme);
            assert!(b.energy.lo <= a.energy.lo + 1e-9, "{}", a.scheme);
        }
    }

    #[test]
    fn optimality_gap_is_nonnegative_and_anchored() {
        for model in [
            ProcessorModel::transmeta5400(),
            ProcessorModel::xscale(),
            ProcessorModel::continuous(0.1).expect("valid"),
        ] {
            let s = setup_for(&two_task_chain(), model, 2, 30.0);
            let b = analyze_bounds(&s, &BoundsConfig::default(), "test");
            for sb in &b.schemes {
                assert!(
                    sb.optimality_gap >= -1e-6,
                    "{}: gap {}",
                    sb.scheme,
                    sb.optimality_gap
                );
                assert!(
                    (sb.energy.hi - b.opt_lower_bound - sb.optimality_gap).abs() < 1e-9,
                    "{}",
                    sb.scheme
                );
            }
        }
    }

    #[test]
    fn or_paths_produce_witnesses_and_hulls() {
        let app = Segment::seq([
            Segment::task("A", 4.0, 2.0),
            Segment::branch([
                (0.5, Segment::task("B", 12.0, 6.0)),
                (0.5, Segment::task("C", 2.0, 1.0)),
            ]),
        ]);
        let s = setup_for(&app, ProcessorModel::xscale(), 1, 30.0);
        let b = analyze_bounds(&s, &BoundsConfig::default(), "test");
        assert!(b.exact);
        assert_eq!(b.paths, 2);
        let npm = b.schemes.first().expect("NPM");
        // The heavy branch witnesses the energy maximum; the light one the
        // minimum.
        assert!(npm.witness_hi.iter().any(|w| w.contains("branch 0")));
        assert!(npm.witness_lo.iter().any(|w| w.contains("branch 1")));
        assert!(npm.energy.lo < npm.energy.hi);
        assert!(b.report.diagnostics.iter().any(|d| d.code == Code::Pas0603));
        assert!(b.report.diagnostics.iter().all(|d| d.code != Code::Pas0601));
    }

    #[test]
    fn path_explosion_falls_back_to_dag_join() {
        // 13 sequential binary ORs → 2^13 = 8192 paths > 4096.
        let mut parts = Vec::new();
        for i in 0..13 {
            parts.push(Segment::branch([
                (0.5, Segment::task(format!("a{i}"), 2.0, 1.0)),
                (0.5, Segment::task(format!("b{i}"), 1.0, 0.5)),
            ]));
        }
        let s = setup_for(&Segment::seq(parts), ProcessorModel::xscale(), 2, 60.0);
        let b = analyze_bounds(&s, &BoundsConfig::default(), "test");
        assert!(!b.exact);
        assert_eq!(b.paths, 8192);
        assert!(b.report.diagnostics.iter().any(|d| d.code == Code::Pas0602));
        for sb in &b.schemes {
            assert!(sb.witness_lo.is_empty() && sb.witness_hi.is_empty());
            assert!(sb.energy.lo <= sb.energy.hi);
            assert!(sb.makespan.lo <= sb.makespan.hi);
        }
        // The DAG join is conservative: it must contain the all-heavy and
        // all-light chains' work.
        let npm = b.schemes.first().expect("NPM");
        assert!(npm.makespan.hi >= 13.0 * 2.0 - 1e-9);
    }

    #[test]
    fn faulty_makespan_warns_past_deadline() {
        let s = setup_for(&two_task_chain(), ProcessorModel::xscale(), 1, 17.0);
        let b = analyze_bounds(
            &s,
            &BoundsConfig {
                min_exec_fraction: 0.01,
                fault: Some(FaultEnvelope {
                    overrun_factor: 3.0,
                    stall_ms: 0.0,
                }),
            },
            "test",
        );
        let npm = b.schemes.first().expect("NPM");
        assert!(!npm.deadline_safe);
        assert!(b.report.diagnostics.iter().any(|d| d.code == Code::Pas0605));
    }

    #[test]
    fn min_mean_g_respects_the_time_budget() {
        let s = setup_for(&two_task_chain(), ProcessorModel::xscale(), 1, 32.0);
        let ctx = Ctx::new(&s, &BoundsConfig::default());
        // No budget to slow down: must pay the full-speed g.
        let full = 1.0 + ctx.rho - ctx.iota;
        assert!((ctx.min_mean_g(1.0) - full).abs() < 1e-12);
        // A generous budget reaches the platform-wide minimum g.
        assert!(ctx.min_mean_g(1e6) <= ctx.g_all_min + 1e-12);
        // Monotone non-increasing in the budget.
        let mut last = f64::INFINITY;
        for b in [1.0, 1.2, 1.5, 2.0, 3.0, 10.0] {
            let c = ctx.min_mean_g(b);
            assert!(c <= last + 1e-12);
            last = c;
        }
    }
}
