//! Speed-management overheads (paper §5).
//!
//! Two overheads are charged by the simulator:
//!
//! 1. **Speed computation** — running the power-management-point code that
//!    computes the new speed. The paper measured ~300 cycles on
//!    SimpleScalar; we charge `cycles / (s · f_max)` of wall time at the
//!    processor's *current* speed `s`.
//! 2. **Voltage/speed transition** — the hardware latency of actually
//!    changing the operating point. The paper assumes a constant per change
//!    (5 µs in Figure 5) and notes current hardware needs tens to hundreds of
//!    microseconds; it is a parameter here and is swept in ablation A3.

use serde::{Deserialize, Serialize};

/// An [`Overheads`] field that is negative or not finite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BadOverhead {
    /// The field's name.
    pub field: &'static str,
    /// Its value.
    pub value: f64,
}

impl std::fmt::Display for BadOverhead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let BadOverhead { field, value } = self;
        write!(f, "{field} = {value} must be finite and non-negative")
    }
}

impl std::error::Error for BadOverhead {}

/// Overhead parameters, in the workspace's canonical units
/// (milliseconds / MHz).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Overheads {
    /// Cycles needed to compute a new speed at a power management point.
    pub speed_compute_cycles: f64,
    /// Wall-clock time of one voltage/speed transition, in ms.
    pub transition_time_ms: f64,
}

impl Overheads {
    /// The paper's defaults: 300 cycles to compute a speed, 5 µs per
    /// voltage/speed change.
    pub const fn paper_defaults() -> Self {
        Self {
            speed_compute_cycles: 300.0,
            transition_time_ms: 0.005,
        }
    }

    /// Zero overhead (for the idealized comparisons and unit tests).
    pub const fn none() -> Self {
        Self {
            speed_compute_cycles: 0.0,
            transition_time_ms: 0.0,
        }
    }

    /// Creates a custom overhead configuration. Returns `None` on negative
    /// or non-finite values.
    pub fn new(speed_compute_cycles: f64, transition_time_ms: f64) -> Option<Self> {
        let o = Self {
            speed_compute_cycles,
            transition_time_ms,
        };
        o.errors().is_empty().then_some(o)
    }

    /// Every field that is negative or not finite (PAS0105), in field
    /// order; empty for valid overheads.
    pub fn errors(&self) -> Vec<BadOverhead> {
        [
            ("speed_compute_cycles", self.speed_compute_cycles),
            ("transition_time_ms", self.transition_time_ms),
        ]
        .into_iter()
        .filter(|(_, value)| !(value.is_finite() && *value >= 0.0))
        .map(|(field, value)| BadOverhead { field, value })
        .collect()
    }

    /// Wall-clock time (ms) to run the speed-computation code at normalized
    /// speed `speed` on a processor whose maximum frequency is `f_max_mhz`.
    ///
    /// `f_max_mhz` MHz means `f_max_mhz · 1000` cycles per ms at full speed.
    pub fn compute_time_ms(&self, speed: f64, f_max_mhz: f64) -> f64 {
        if self.speed_compute_cycles == 0.0 {
            return 0.0;
        }
        debug_assert!(speed > 0.0 && f_max_mhz > 0.0);
        self.speed_compute_cycles / (speed * f_max_mhz * 1000.0)
    }

    /// Total time (ms) a task dispatch must reserve before lowering the
    /// speed: computing the new speed plus (possibly) two transitions — one
    /// to slow down now and one to speed back up for a later task whose
    /// guaranteed schedule assumed full speed.
    ///
    /// This is the conservative reservation that preserves Theorem 1 under
    /// overheads, following the treatment in the authors' companion paper.
    pub fn reservation_ms(&self, current_speed: f64, f_max_mhz: f64) -> f64 {
        self.compute_time_ms(current_speed, f_max_mhz) + 2.0 * self.transition_time_ms
    }
}

impl Default for Overheads {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section5() {
        let o = Overheads::paper_defaults();
        assert_eq!(o.speed_compute_cycles, 300.0);
        assert_eq!(o.transition_time_ms, 0.005);
    }

    #[test]
    fn compute_time_scales_with_speed() {
        let o = Overheads::paper_defaults();
        // 300 cycles at 700 MHz full speed: 300 / 700e3 ms.
        let full = o.compute_time_ms(1.0, 700.0);
        assert!((full - 300.0 / 700_000.0).abs() < 1e-15);
        // Half speed doubles the time.
        let half = o.compute_time_ms(0.5, 700.0);
        assert!((half - 2.0 * full).abs() < 1e-15);
    }

    #[test]
    fn zero_overhead_is_free() {
        let o = Overheads::none();
        assert_eq!(o.compute_time_ms(0.5, 700.0), 0.0);
        assert_eq!(o.reservation_ms(0.5, 700.0), 0.0);
    }

    #[test]
    fn reservation_includes_two_transitions() {
        let o = Overheads::new(0.0, 0.01).unwrap();
        assert!((o.reservation_ms(1.0, 700.0) - 0.02).abs() < 1e-15);
    }

    #[test]
    fn new_rejects_negative_and_nonfinite() {
        assert!(Overheads::new(-1.0, 0.0).is_none());
        assert!(Overheads::new(0.0, -1.0).is_none());
        assert!(Overheads::new(f64::NAN, 0.0).is_none());
        assert!(Overheads::new(0.0, f64::INFINITY).is_none());
    }
}
