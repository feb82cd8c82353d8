#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! Workload generators for the ICPP'02 evaluation.
//!
//! Three families:
//!
//! * [`atr`] — the automated target recognition (ATR) application the paper
//!   motivates: the number of regions of interest (ROIs) detected in a
//!   frame varies substantially, so a frame's work is an OR structure over
//!   the ROI count, and each ROI is compared against all templates in
//!   parallel. The paper's exact task graph was "not shown due to space
//!   limitation"; this is a parameterized reconstruction (see DESIGN.md §5).
//! * [`synthetic`] — the synthetic application of the paper's Figure 3
//!   (tasks A–L, four OR nodes, four AND nodes, a probabilistic loop),
//!   reconstructed from the legible figure attributes.
//! * [`video`] — an MPEG-style decoder pipeline: per-frame work depends on
//!   the frame type (I/P/B) chosen by the encoder, a second realistic
//!   OR-structured workload from the paper's application domain.
//! * [`random`] — random structured AND/OR applications for property-based
//!   testing and ablations.
//!
//! [`transform`] adjusts a workload's α (the ratio of average-case over
//! worst-case execution time — the x-axis of the paper's Figure 6).
//!
//! [`builtin`] resolves the named workloads ([`BUILTIN_NAMES`]) that the
//! `pas` CLI and `pas serve` accept.

pub mod atr;
pub mod random;
pub mod synthetic;
pub mod transform;
pub mod video;

pub use atr::AtrParams;
pub use random::RandomAppParams;
pub use synthetic::{synthetic_app, synthetic_app_alpha};
pub use transform::{with_alpha, with_alpha_jitter};
pub use video::VideoParams;

use andor_graph::AndOrGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The names [`builtin`] resolves.
pub const BUILTIN_NAMES: [&str; 3] = ["synthetic", "video", "atr"];

/// Builds a built-in workload by name, lowered to a graph: `synthetic`
/// (Figure 3), `video` (the MPEG-style decoder) or `atr` (its WCETs
/// jittered by an RNG seeded with `seed`). `alpha` replaces the
/// workload's ACET/WCET ratio; `None` keeps its default.
///
/// Returns `None` if `name` is not one of [`BUILTIN_NAMES`], and
/// `Some(Err)` if it is but the workload cannot be built (an `alpha`
/// outside `(0, 1]`); the error starts with the workload's name.
pub fn builtin(name: &str, alpha: Option<f64>, seed: u64) -> Option<Result<AndOrGraph, String>> {
    Some(match name {
        "synthetic" => alpha
            .map_or_else(|| Ok(synthetic_app()), synthetic_app_alpha)
            .and_then(|seg| seg.lower().map_err(|e| e.to_string()))
            .map_err(|e| format!("synthetic app: {e}")),
        "video" => VideoParams {
            alpha: alpha.unwrap_or(VideoParams::default().alpha),
            ..VideoParams::default()
        }
        .build()
        .map_err(|e| format!("video params: {e}"))
        .and_then(|seg| seg.lower().map_err(|e| format!("video app: {e}"))),
        "atr" => AtrParams {
            alpha: alpha.unwrap_or(AtrParams::default().alpha),
            ..AtrParams::default()
        }
        .build_jittered(&mut StdRng::seed_from_u64(seed))
        .map_err(|e| format!("atr params: {e}"))
        .and_then(|seg| seg.lower().map_err(|e| format!("atr app: {e}"))),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(name: &str, alpha: Option<f64>, seed: u64) -> AndOrGraph {
        builtin(name, alpha, seed)
            .expect("a built-in name")
            .expect("builds")
    }

    #[test]
    fn every_builtin_builds_and_validates() {
        for name in BUILTIN_NAMES {
            for (alpha, seed) in [(None, 42), (Some(0.3), 7), (Some(1.0), 1)] {
                let g = build(name, alpha, seed);
                assert_eq!(g.errors(), Vec::new(), "{name} {alpha:?} {seed}");
            }
        }
    }

    #[test]
    fn alpha_reaches_every_computation_node() {
        for name in BUILTIN_NAMES {
            let g = build(name, Some(0.4), 42);
            for (_, n) in g.iter() {
                if n.kind.is_computation() {
                    assert!(
                        (n.kind.acet() - 0.4 * n.kind.wcet()).abs() < 1e-9,
                        "{name}: {}",
                        n.name
                    );
                }
            }
        }
    }

    #[test]
    fn only_the_atr_graph_depends_on_the_seed() {
        let wcets = |name, seed| -> Vec<f64> {
            let g = build(name, None, seed);
            g.iter().map(|(_, n)| n.kind.wcet()).collect()
        };
        assert_ne!(wcets("atr", 1), wcets("atr", 2));
        assert_eq!(wcets("atr", 1), wcets("atr", 1));
        assert_eq!(wcets("synthetic", 1), wcets("synthetic", 2));
        assert_eq!(wcets("video", 1), wcets("video", 2));
    }

    #[test]
    fn unknown_names_and_bad_alphas() {
        assert!(builtin("xscale", None, 0).is_none());
        assert!(builtin("ATR", None, 0).is_none());
        for name in BUILTIN_NAMES {
            let err = builtin(name, Some(1.5), 0)
                .expect("a built-in name")
                .expect_err("alpha outside (0, 1]");
            assert!(err.starts_with(name), "{err}");
        }
    }
}
