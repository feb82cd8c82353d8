#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! DVFS processor power models for the power-aware scheduling workspace.
//!
//! Implements the power/energy side of Zhu et al., ICPP'02 §2.3:
//!
//! * dynamic power `P = C_ef · V² · f` — the dominant term on a DVS
//!   processor; slowing down (and dropping voltage accordingly) reduces power
//!   cubically and task energy quadratically while stretching execution
//!   linearly;
//! * the two concrete voltage/frequency tables of the evaluation —
//!   **Table 1** (Transmeta Crusoe TM5400, 16 levels, 200–700 MHz) and
//!   **Table 2** (Intel XScale, 5 levels, 150–1000 MHz) — neither of which is
//!   linear in `f` vs `V`, which is exactly why the paper's discrete-level
//!   effects appear;
//! * an idealized continuous model (`P ∝ s³`) for ablations;
//! * synthetic level tables for the paper's stated future-work experiments
//!   (varying `S_min/S_max` and the number of levels);
//! * speed-change and speed-computation overheads (§5);
//! * idle power (5% of maximum by default) and an energy accounting meter.
//!
//! Speeds are *normalized*: `s = f / f_max ∈ (0, 1]`. Powers are normalized to
//! the maximum operating point (`P(f_max, V_max) = 1`), so energies computed
//! here divide out `C_ef` and can be compared directly against the
//! no-power-management (NPM) baseline, as the paper's figures do.
//!
//! Time unit convention: **milliseconds** everywhere in this workspace. Task
//! worst-case execution times are a few ms (the paper's synthetic task unit),
//! frequencies are in MHz, so `cycles = f_mhz · 1000 · t_ms`.

pub mod energy;
pub mod leakage;
pub mod model;
pub mod overhead;

pub use energy::EnergyMeter;
pub use leakage::{critical_speed_cubic, efficient_floor, energy_per_work};
pub use model::{ModelError, OperatingPoint, ProcessorModel, SpeedLevel};
pub use overhead::{BadOverhead, Overheads};

/// Default idle power as a fraction of maximum power (paper §5: "an idle
/// processor consumes 5% of the maximal power level").
pub const DEFAULT_IDLE_FRACTION: f64 = 0.05;
