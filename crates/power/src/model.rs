//! Processor speed/voltage models: discrete level tables and the ideal
//! continuous model.

use serde::{Deserialize, Serialize};

/// One voltage/frequency operating level of a DVS processor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpeedLevel {
    /// Clock frequency in MHz.
    pub freq_mhz: f64,
    /// Supply voltage in volts.
    pub voltage: f64,
}

impl SpeedLevel {
    /// Creates a level.
    pub const fn new(freq_mhz: f64, voltage: f64) -> Self {
        Self { freq_mhz, voltage }
    }
}

/// A resolved operating point: normalized speed plus normalized power.
///
/// `speed = f/f_max`; `power = (V/V_max)² · (f/f_max)` so the maximum level
/// has `power == 1`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// Normalized speed in `(0, 1]`.
    pub speed: f64,
    /// Normalized dynamic power in `(0, 1]`.
    pub power: f64,
}

/// One rule a processor model breaks. The message names the offending
/// values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelError {
    /// A discrete model with no levels.
    EmptyTable,
    /// A level (index, level) whose frequency or voltage is not finite
    /// and positive.
    BadLevel(usize, SpeedLevel),
    /// Levels `i` and `i + 1` (given as `i`, then both levels) out of
    /// order: frequencies must strictly increase and voltages must not
    /// decrease.
    NotMonotone(usize, SpeedLevel, SpeedLevel),
    /// A continuous model's minimum speed outside `(0, 1]`.
    BadMinSpeed(f64),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::EmptyTable => write!(f, "discrete model has an empty speed-level table"),
            ModelError::BadLevel(i, l) => write!(
                f,
                "level {i}: frequency and voltage must be finite and positive \
                 (freq_mhz = {}, voltage = {})",
                l.freq_mhz, l.voltage
            ),
            ModelError::NotMonotone(i, lo, hi) => write!(
                f,
                "levels {i} -> {}: frequencies must strictly increase and voltages must \
                 not decrease ({} MHz @ {} V, then {} MHz @ {} V)",
                i + 1,
                lo.freq_mhz,
                lo.voltage,
                hi.freq_mhz,
                hi.voltage
            ),
            ModelError::BadMinSpeed(s) => {
                write!(f, "continuous model: min_speed {s} must be in (0, 1]")
            }
        }
    }
}

impl std::error::Error for ModelError {}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum ModelKind {
    /// Discrete voltage/frequency table, sorted ascending by frequency.
    Discrete { levels: Vec<SpeedLevel> },
    /// Idealized continuous DVS: any speed in `[min_speed, 1]`, `P = s³`
    /// (supply voltage assumed proportional to frequency).
    Continuous { min_speed: f64 },
}

/// A processor's DVS capability: which speeds it can run at and at what
/// power.
///
/// # Examples
///
/// ```
/// use dvfs_power::ProcessorModel;
///
/// let tm = ProcessorModel::transmeta5400();
/// assert_eq!(tm.num_levels(), Some(16));
/// // Requesting 50% speed rounds *up* to the next available level.
/// let op = tm.quantize_up(0.5);
/// assert!(op.speed >= 0.5);
/// assert!(op.power <= 1.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProcessorModel {
    name: String,
    kind: ModelKind,
}

impl ProcessorModel {
    /// **Table 1** — Transmeta Crusoe TM5400: 16 voltage/speed settings
    /// between 200 MHz (1.10 V) and 700 MHz (1.65 V).
    ///
    /// The paper's printed table is unreadable in the available scan; the 16
    /// levels here interpolate the publicly documented LongRun anchor points
    /// (200/1.10, 300/1.20, 400/1.225, 500/1.35, 600/1.50, 700/1.65) on an
    /// evenly spaced 33⅓ MHz frequency grid, preserving the endpoints and the
    /// non-linear f–V relationship the paper highlights.
    pub fn transmeta5400() -> Self {
        const TABLE: [(f64, f64); 16] = [
            (200.0, 1.100),
            (233.0, 1.133),
            (266.0, 1.166),
            (300.0, 1.200),
            (333.0, 1.208),
            (366.0, 1.217),
            (400.0, 1.225),
            (433.0, 1.267),
            (466.0, 1.308),
            (500.0, 1.350),
            (533.0, 1.400),
            (566.0, 1.450),
            (600.0, 1.500),
            (633.0, 1.550),
            (666.0, 1.600),
            (700.0, 1.650),
        ];
        Self::from_levels(
            "Transmeta TM5400",
            TABLE.iter().map(|&(f, v)| SpeedLevel::new(f, v)).collect(),
        )
        .expect("static table is valid")
    }

    /// **Table 2** — Intel XScale: 5 voltage/speed settings, 150–1000 MHz.
    ///
    /// Fewer levels with wider gaps than the Transmeta model; the paper's
    /// XScale curves show sharp jumps whenever a scheme's desired speed
    /// crosses a level boundary.
    pub fn xscale() -> Self {
        const TABLE: [(f64, f64); 5] = [
            (150.0, 0.75),
            (400.0, 1.00),
            (600.0, 1.30),
            (800.0, 1.60),
            (1000.0, 1.80),
        ];
        Self::from_levels(
            "Intel XScale",
            TABLE.iter().map(|&(f, v)| SpeedLevel::new(f, v)).collect(),
        )
        .expect("static table is valid")
    }

    /// Idealized continuous model: any normalized speed in
    /// `[min_speed, 1]`, power `s³` (voltage proportional to frequency).
    ///
    /// Returns `None` unless `0 < min_speed <= 1`.
    pub fn continuous(min_speed: f64) -> Option<Self> {
        let m = Self {
            name: format!("Continuous(smin={min_speed})"),
            kind: ModelKind::Continuous { min_speed },
        };
        m.errors().is_empty().then_some(m)
    }

    /// The platform-spec grammar [`ProcessorModel::from_spec`] accepts.
    pub const SPEC_GRAMMAR: &'static str = "transmeta|xscale|continuous:<smin>";

    /// Resolves a platform spec: `transmeta` (Table 1), `xscale` (Table 2)
    /// or `continuous:<smin>`.
    ///
    /// Returns `None` if `spec` is not in that grammar, and `Some(Err)` if
    /// it is but `<smin>` is not a number in `(0, 1]`.
    pub fn from_spec(spec: &str) -> Option<Result<Self, String>> {
        match spec {
            "transmeta" => Some(Ok(Self::transmeta5400())),
            "xscale" => Some(Ok(Self::xscale())),
            _ => {
                let smin = spec.strip_prefix("continuous:")?;
                Some(
                    smin.parse()
                        .ok()
                        .and_then(Self::continuous)
                        .ok_or_else(|| format!("bad continuous smin '{smin}': not in (0, 1]")),
                )
            }
        }
    }

    /// Resolves a platform spec like [`ProcessorModel::from_spec`], naming
    /// the grammar when `spec` is not in it.
    pub fn resolve(spec: &str) -> Result<Self, String> {
        Self::from_spec(spec).unwrap_or_else(|| {
            Err(format!(
                "unknown platform '{spec}' ({})",
                Self::SPEC_GRAMMAR
            ))
        })
    }

    /// Builds a model from an explicit level table.
    ///
    /// Returns `None` if the table breaks a rule of
    /// [`ProcessorModel::errors`]: it is empty, a frequency or voltage is
    /// not finite and positive, or frequencies do not strictly increase
    /// with non-decreasing voltages (real tables are monotone).
    pub fn from_levels(name: impl Into<String>, levels: Vec<SpeedLevel>) -> Option<Self> {
        let m = Self {
            name: name.into(),
            kind: ModelKind::Discrete { levels },
        };
        m.errors().is_empty().then_some(m)
    }

    /// Synthetic evenly spaced table for the `S_min`/level-count ablations
    /// (the paper's stated future work): `n_levels` frequencies from
    /// `smin_ratio·f_max` to `f_max`, voltages interpolated linearly from
    /// `v_min` to `v_max`.
    ///
    /// Returns `None` if `n_levels == 0`, the ratio is outside `(0, 1]`, or
    /// `n_levels > 1` with `smin_ratio == 1`.
    pub fn synthetic(
        f_max_mhz: f64,
        n_levels: usize,
        smin_ratio: f64,
        v_min: f64,
        v_max: f64,
    ) -> Option<Self> {
        if n_levels == 0
            || !(smin_ratio > 0.0 && smin_ratio <= 1.0)
            || f_max_mhz <= 0.0
            || v_min <= 0.0
            || v_max < v_min
        {
            return None;
        }
        if n_levels > 1 && smin_ratio == 1.0 {
            return None;
        }
        let levels: Vec<SpeedLevel> = (0..n_levels)
            .map(|i| {
                let t = if n_levels == 1 {
                    1.0
                } else {
                    i as f64 / (n_levels - 1) as f64
                };
                let f = f_max_mhz * (smin_ratio + (1.0 - smin_ratio) * t);
                let v = v_min + (v_max - v_min) * t;
                SpeedLevel::new(f, v)
            })
            .collect();
        Self::from_levels(
            format!("Synthetic({n_levels} levels, smin={smin_ratio})"),
            levels,
        )
    }

    /// Human-readable model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Maximum frequency in MHz (1000·cycles per ms at full speed).
    pub fn max_freq_mhz(&self) -> f64 {
        match &self.kind {
            ModelKind::Discrete { levels } => levels.last().expect("non-empty").freq_mhz,
            // The continuous model is frequency-agnostic; pick 1 GHz so cycle
            //-denominated overheads still resolve to sensible times.
            ModelKind::Continuous { .. } => 1000.0,
        }
    }

    /// Minimum normalized speed the processor can run at (the paper's
    /// `S_min`); tasks can never run slower than this.
    pub fn min_speed(&self) -> f64 {
        match &self.kind {
            ModelKind::Discrete { levels } => {
                levels.first().expect("non-empty").freq_mhz / self.max_freq_mhz()
            }
            ModelKind::Continuous { min_speed } => *min_speed,
        }
    }

    /// Number of discrete levels, or `None` for the continuous model.
    pub fn num_levels(&self) -> Option<usize> {
        match &self.kind {
            ModelKind::Discrete { levels } => Some(levels.len()),
            ModelKind::Continuous { .. } => None,
        }
    }

    /// Every rule the model breaks (PAS0102/PAS0103); empty for a valid
    /// model. A continuous model needs `0 < min_speed <= 1`; a level table
    /// must be non-empty, each level finite and positive, and then each
    /// pair ordered. The constructors only build valid models; serde
    /// builds models unchecked, so a deserialized one needs this first.
    pub fn errors(&self) -> Vec<ModelError> {
        let levels = match &self.kind {
            ModelKind::Continuous { min_speed } if *min_speed > 0.0 && *min_speed <= 1.0 => {
                return Vec::new()
            }
            ModelKind::Continuous { min_speed } => {
                return vec![ModelError::BadMinSpeed(*min_speed)]
            }
            ModelKind::Discrete { levels } if levels.is_empty() => {
                return vec![ModelError::EmptyTable]
            }
            ModelKind::Discrete { levels } => levels,
        };
        let mut errors = Vec::new();
        for (i, &l) in levels.iter().enumerate() {
            let positive = |x: f64| x.is_finite() && x > 0.0;
            if !(positive(l.freq_mhz) && positive(l.voltage)) {
                errors.push(ModelError::BadLevel(i, l));
            }
        }
        for (i, w) in levels.windows(2).enumerate() {
            if let [lo, hi] = *w {
                if lo.freq_mhz >= hi.freq_mhz || lo.voltage > hi.voltage {
                    errors.push(ModelError::NotMonotone(i, lo, hi));
                }
            }
        }
        errors
    }

    /// The discrete level table, or `None` for the continuous model.
    pub fn levels(&self) -> Option<&[SpeedLevel]> {
        match &self.kind {
            ModelKind::Discrete { levels } => Some(levels),
            ModelKind::Continuous { .. } => None,
        }
    }

    /// Normalized power of a *discrete* level:
    /// `(V/V_max)² · (f/f_max)`.
    pub fn level_power(&self, level: &SpeedLevel) -> f64 {
        match &self.kind {
            ModelKind::Discrete { levels } => {
                let top = levels.last().expect("non-empty");
                (level.voltage / top.voltage).powi(2) * (level.freq_mhz / top.freq_mhz)
            }
            ModelKind::Continuous { .. } => {
                let s = level.freq_mhz / self.max_freq_mhz();
                s.powi(3)
            }
        }
    }

    /// Maps a desired normalized speed to the cheapest operating point that
    /// is *at least* that fast (deadline safety requires rounding up).
    ///
    /// Requests below the minimum level clamp to the minimum level — this is
    /// the `S_min` effect responsible for several of the paper's findings.
    /// Requests above 1 clamp to the maximum level.
    pub fn quantize_up(&self, desired_speed: f64) -> OperatingPoint {
        match &self.kind {
            ModelKind::Discrete { levels } => {
                let f_max = self.max_freq_mhz();
                let level = levels
                    .iter()
                    .find(|l| l.freq_mhz / f_max >= desired_speed - 1e-12)
                    .unwrap_or_else(|| levels.last().expect("non-empty"));
                OperatingPoint {
                    speed: level.freq_mhz / f_max,
                    power: self.level_power(level),
                }
            }
            ModelKind::Continuous { min_speed } => {
                let s = desired_speed.clamp(*min_speed, 1.0);
                OperatingPoint {
                    speed: s,
                    power: s.powi(3),
                }
            }
        }
    }

    /// The maximum operating point (`speed == 1`, `power == 1`).
    pub fn max_point(&self) -> OperatingPoint {
        OperatingPoint {
            speed: 1.0,
            power: 1.0,
        }
    }

    /// Every operating point a *discrete* model can run at, slowest first,
    /// or `None` for the continuous model. This is the exact image of
    /// [`Self::quantize_up`] — static analyses enumerate it to bound
    /// quantities over all reachable speeds.
    pub fn discrete_points(&self) -> Option<Vec<OperatingPoint>> {
        let f_max = self.max_freq_mhz();
        self.levels().map(|levels| {
            levels
                .iter()
                .map(|l| OperatingPoint {
                    speed: l.freq_mhz / f_max,
                    power: self.level_power(l),
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmeta_matches_paper_table1_shape() {
        let m = ProcessorModel::transmeta5400();
        assert_eq!(m.num_levels(), Some(16));
        let levels = m.levels().unwrap();
        assert_eq!(levels[0].freq_mhz, 200.0);
        assert_eq!(levels[0].voltage, 1.10);
        assert_eq!(levels[15].freq_mhz, 700.0);
        assert_eq!(levels[15].voltage, 1.65);
        assert!((m.min_speed() - 200.0 / 700.0).abs() < 1e-12);
    }

    #[test]
    fn xscale_matches_paper_table2() {
        let m = ProcessorModel::xscale();
        let levels = m.levels().unwrap();
        assert_eq!(levels.len(), 5);
        let expect = [
            (150.0, 0.75),
            (400.0, 1.00),
            (600.0, 1.30),
            (800.0, 1.60),
            (1000.0, 1.80),
        ];
        for (l, (f, v)) in levels.iter().zip(expect) {
            assert_eq!(l.freq_mhz, f);
            assert_eq!(l.voltage, v);
        }
        assert!((m.min_speed() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn tables_are_monotone_and_nonlinear() {
        for m in [ProcessorModel::transmeta5400(), ProcessorModel::xscale()] {
            let levels = m.levels().unwrap();
            for w in levels.windows(2) {
                assert!(w[0].freq_mhz < w[1].freq_mhz);
                assert!(w[0].voltage <= w[1].voltage);
            }
            // Non-linear f-V relation (the paper stresses this): the ratio
            // V/f is not constant across the table.
            let r0 = levels[0].voltage / levels[0].freq_mhz;
            let rn = levels[levels.len() - 1].voltage / levels[levels.len() - 1].freq_mhz;
            assert!((r0 - rn).abs() > 1e-6);
        }
    }

    #[test]
    fn quantize_rounds_up() {
        let m = ProcessorModel::xscale();
        // 0.55 of 1000 MHz = 550 MHz -> 600 MHz level.
        let op = m.quantize_up(0.55);
        assert!((op.speed - 0.6).abs() < 1e-12);
        // Exactly at a level stays there.
        let op = m.quantize_up(0.6);
        assert!((op.speed - 0.6).abs() < 1e-12);
    }

    #[test]
    fn quantize_clamps_to_min_and_max() {
        let m = ProcessorModel::xscale();
        let lo = m.quantize_up(0.01);
        assert!((lo.speed - 0.15).abs() < 1e-12);
        let hi = m.quantize_up(7.0);
        assert!((hi.speed - 1.0).abs() < 1e-12);
        assert!((hi.power - 1.0).abs() < 1e-12);
    }

    #[test]
    fn power_is_monotone_in_level() {
        for m in [ProcessorModel::transmeta5400(), ProcessorModel::xscale()] {
            let levels = m.levels().unwrap();
            let powers: Vec<f64> = levels.iter().map(|l| m.level_power(l)).collect();
            for w in powers.windows(2) {
                assert!(w[0] < w[1]);
            }
            assert!((powers.last().unwrap() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn halving_speed_saves_quadratic_energy_continuous() {
        // Paper §2.3 worked example: half speed in double time consumes 1/4
        // of the energy (with V ∝ f).
        let m = ProcessorModel::continuous(0.1).unwrap();
        let full = m.quantize_up(1.0);
        let half = m.quantize_up(0.5);
        let e_full = full.power * 1.0; // c time units at full speed
        let e_half = half.power * 2.0; // 2c time units at half speed
        assert!((e_half / e_full - 0.25).abs() < 1e-12);
    }

    #[test]
    fn continuous_clamps_to_min_speed() {
        let m = ProcessorModel::continuous(0.4).unwrap();
        let op = m.quantize_up(0.2);
        assert_eq!(op.speed, 0.4);
        let op = m.quantize_up(0.7);
        assert_eq!(op.speed, 0.7);
        assert!((op.power - 0.343).abs() < 1e-12);
    }

    #[test]
    fn continuous_rejects_bad_min() {
        assert!(ProcessorModel::continuous(0.0).is_none());
        assert!(ProcessorModel::continuous(1.5).is_none());
    }

    #[test]
    fn from_spec_parses_the_platform_grammar() {
        let ok = |spec| ProcessorModel::from_spec(spec).unwrap().unwrap();
        assert_eq!(ok("transmeta").num_levels(), Some(16));
        assert_eq!(ok("xscale").num_levels(), Some(5));
        assert_eq!(ok("continuous:0.25").min_speed(), 0.25);
        for bad in ["continuous:0", "continuous:1.5", "continuous:x"] {
            assert!(ProcessorModel::from_spec(bad).unwrap().is_err(), "{bad}");
        }
        for other in ["pentium", "Transmeta", "continuous", "graph.json"] {
            assert!(ProcessorModel::from_spec(other).is_none(), "{other}");
        }
    }

    #[test]
    fn resolve_names_the_grammar() {
        assert_eq!(
            ProcessorModel::resolve("xscale").unwrap().num_levels(),
            Some(5)
        );
        assert_eq!(
            ProcessorModel::resolve("pentium").unwrap_err(),
            "unknown platform 'pentium' (transmeta|xscale|continuous:<smin>)"
        );
        assert_eq!(
            ProcessorModel::resolve("continuous:2").unwrap_err(),
            "bad continuous smin '2': not in (0, 1]"
        );
    }

    #[test]
    fn from_levels_validates() {
        assert!(ProcessorModel::from_levels("e", vec![]).is_none());
        // Non-increasing frequency.
        assert!(ProcessorModel::from_levels(
            "bad",
            vec![SpeedLevel::new(500.0, 1.0), SpeedLevel::new(400.0, 1.2)]
        )
        .is_none());
        // Decreasing voltage.
        assert!(ProcessorModel::from_levels(
            "bad",
            vec![SpeedLevel::new(400.0, 1.2), SpeedLevel::new(500.0, 1.0)]
        )
        .is_none());
        // Non-positive entries.
        assert!(ProcessorModel::from_levels("bad", vec![SpeedLevel::new(0.0, 1.0)]).is_none());
    }

    #[test]
    fn from_levels_refuses_non_finite_levels() {
        for bad in [f64::NAN, f64::INFINITY] {
            for level in [SpeedLevel::new(bad, 1.0), SpeedLevel::new(500.0, bad)] {
                let table = vec![SpeedLevel::new(200.0, 0.9), level];
                assert!(
                    ProcessorModel::from_levels("bad", table).is_none(),
                    "{level:?}"
                );
                assert!(ProcessorModel::from_levels("bad", vec![level]).is_none());
            }
        }
    }

    #[test]
    fn errors_name_every_broken_level_rule() {
        let m = |json: &str| -> ProcessorModel { serde_json::from_str(json).expect("parses") };
        assert!(ProcessorModel::transmeta5400().errors().is_empty());
        assert!(ProcessorModel::xscale().errors().is_empty());
        let empty = m(r#"{"name": "e", "kind": {"Discrete": {"levels": []}}}"#);
        assert_eq!(empty.errors(), vec![ModelError::EmptyTable]);
        let lo = SpeedLevel::new(400.0, -1.0);
        let hi = SpeedLevel::new(300.0, 1.0);
        let table = m(r#"{"name": "t", "kind": {"Discrete": {"levels": [
            {"freq_mhz": 400.0, "voltage": -1.0}, {"freq_mhz": 300.0, "voltage": 1.0}]}}}"#);
        assert_eq!(
            table.errors(),
            vec![
                ModelError::BadLevel(0, lo),
                ModelError::NotMonotone(0, lo, hi)
            ]
        );
        let smin = m(r#"{"name": "c", "kind": {"Continuous": {"min_speed": 1.5}}}"#);
        assert_eq!(smin.errors(), vec![ModelError::BadMinSpeed(1.5)]);
    }

    #[test]
    fn synthetic_table_spans_requested_range() {
        let m = ProcessorModel::synthetic(1000.0, 5, 0.2, 0.8, 1.8).unwrap();
        let levels = m.levels().unwrap();
        assert_eq!(levels.len(), 5);
        assert!((levels[0].freq_mhz - 200.0).abs() < 1e-9);
        assert!((levels[4].freq_mhz - 1000.0).abs() < 1e-9);
        assert!((m.min_speed() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn synthetic_single_level_is_fmax() {
        let m = ProcessorModel::synthetic(500.0, 1, 1.0, 1.0, 1.0).unwrap();
        assert_eq!(m.num_levels(), Some(1));
        assert_eq!(m.min_speed(), 1.0);
    }

    #[test]
    fn synthetic_rejects_degenerate() {
        assert!(ProcessorModel::synthetic(500.0, 0, 0.5, 1.0, 1.5).is_none());
        assert!(ProcessorModel::synthetic(500.0, 4, 0.0, 1.0, 1.5).is_none());
        assert!(ProcessorModel::synthetic(500.0, 4, 1.0, 1.0, 1.5).is_none());
        assert!(ProcessorModel::synthetic(-1.0, 4, 0.5, 1.0, 1.5).is_none());
    }

    #[test]
    fn serde_round_trip() {
        let m = ProcessorModel::transmeta5400();
        let json = serde_json::to_string(&m).unwrap();
        let back: ProcessorModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back.num_levels(), Some(16));
        assert_eq!(back.name(), "Transmeta TM5400");
    }
}
