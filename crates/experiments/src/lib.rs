#![warn(missing_docs)]

//! Regenerates every table and figure of the ICPP'02 evaluation.
//!
//! * [`runner`] — the Monte-Carlo harness: each data point is the mean of N
//!   (default 1000) seeded runs; all schemes are evaluated on *identical*
//!   realizations (paired design), and replications run in parallel on
//!   the paired batch kernel, [`mp_sim::run_paired`].
//! * [`figures`] — one function per paper table/figure plus the ablations
//!   the paper lists as future work. Each returns [`pas_stats::Table`]s
//!   ready for text/markdown/CSV rendering.
//! * [`cli`] — the binaries' one front end: the argument parser and
//!   [`cli::render`], which renders each of the 14 artifacts from one
//!   definition for both its own binary and `all`.
//!
//! Normalization follows the paper: each scheme's mean energy is divided by
//! the mean energy of NPM (no power management) measured on the same
//! realizations.

pub mod cli;
pub mod figures;
pub mod runner;
pub mod traces;

pub use figures::Platform;
pub use runner::{evaluate, EvalResult, ExperimentConfig, SchemeStats};
