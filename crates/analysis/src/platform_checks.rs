//! Platform and run-parameter checks (`PAS01xx`).

use crate::diag::{Code, Diagnostic, Loc, Report};
use dvfs_power::{Overheads, ProcessorModel};

/// Checks a processor model: level-table validity (PAS0102), monotone
/// ordering (PAS0103), and — when the model claims a published name —
/// agreement with the built-in Transmeta/XScale tables (PAS0104).
///
/// Models built through [`ProcessorModel`]'s constructors always pass;
/// the checks exist for models deserialized from JSON, which serde
/// accepts unvalidated.
pub fn check_model(model: &ProcessorModel, src: &str) -> Report {
    let mut r = Report::new();
    match model.levels() {
        Some(levels) => {
            if levels.is_empty() {
                r.push(Diagnostic::new(
                    Code::Pas0102,
                    Loc::whole(src),
                    "discrete model has an empty speed-level table",
                ));
                return r;
            }
            for (i, l) in levels.iter().enumerate() {
                let ok = l.freq_mhz.is_finite()
                    && l.freq_mhz > 0.0
                    && l.voltage.is_finite()
                    && l.voltage > 0.0;
                if !ok {
                    r.push(Diagnostic::new(
                        Code::Pas0102,
                        Loc::at(src, format!("levels[{i}]")),
                        format!(
                            "level {i}: frequency and voltage must be finite and positive \
                             (freq_mhz = {}, voltage = {})",
                            l.freq_mhz, l.voltage
                        ),
                    ));
                }
            }
            for (i, w) in levels.windows(2).enumerate() {
                if let [a, b] = w {
                    if a.freq_mhz >= b.freq_mhz || a.voltage > b.voltage {
                        r.push(Diagnostic::new(
                            Code::Pas0103,
                            Loc::at(src, format!("levels[{i}]")),
                            format!(
                                "levels {i} -> {}: frequencies must strictly increase and \
                                 voltages must not decrease \
                                 ({} MHz @ {} V, then {} MHz @ {} V)",
                                i + 1,
                                a.freq_mhz,
                                a.voltage,
                                b.freq_mhz,
                                b.voltage
                            ),
                        ));
                    }
                }
            }
            if !r.has_errors() {
                check_published_table(model, src, &mut r);
            }
        }
        None => {
            let smin = model.min_speed();
            if !(smin.is_finite() && smin > 0.0 && smin <= 1.0) {
                r.push(Diagnostic::new(
                    Code::Pas0102,
                    Loc::whole(src),
                    format!("continuous model: min_speed {smin} must be in (0, 1]"),
                ));
            }
        }
    }
    r
}

/// PAS0104: a model that *claims* a published name must match the
/// published table, or experiments silently stop being comparable to the
/// paper's.
fn check_published_table(model: &ProcessorModel, src: &str, r: &mut Report) {
    let reference = match model.name() {
        n if n == ProcessorModel::transmeta5400().name() => ProcessorModel::transmeta5400(),
        n if n == ProcessorModel::xscale().name() => ProcessorModel::xscale(),
        _ => return,
    };
    let (Some(got), Some(want)) = (model.levels(), reference.levels()) else {
        return;
    };
    let same = got.len() == want.len()
        && got.iter().zip(want.iter()).all(|(a, b)| {
            (a.freq_mhz - b.freq_mhz).abs() < 1e-9 && (a.voltage - b.voltage).abs() < 1e-9
        });
    if !same {
        r.push(Diagnostic::new(
            Code::Pas0104,
            Loc::whole(src),
            format!(
                "model is named '{}' but its level table deviates from the published table",
                model.name()
            ),
        ));
    }
}

/// Checks overhead parameters (PAS0105).
pub fn check_overheads(o: &Overheads, src: &str) -> Report {
    let mut r = Report::new();
    for (field, v) in [
        ("speed_compute_cycles", o.speed_compute_cycles),
        ("transition_time_ms", o.transition_time_ms),
    ] {
        if !(v.is_finite() && v >= 0.0) {
            r.push(Diagnostic::new(
                Code::Pas0105,
                Loc::at(src, field),
                format!("{field} = {v} must be finite and non-negative"),
            ));
        }
    }
    r
}

/// Checks the processor count (PAS0106) and, when given explicitly, the
/// deadline (PAS0107).
pub fn check_run_params(num_procs: usize, deadline: Option<f64>, src: &str) -> Report {
    let mut r = Report::new();
    if num_procs == 0 {
        r.push(Diagnostic::new(
            Code::Pas0106,
            Loc::at(src, "procs"),
            "processor count must be positive",
        ));
    } else if num_procs > pas_core::MAX_PROCS {
        r.push(Diagnostic::new(
            Code::Pas0106,
            Loc::at(src, "procs"),
            format!(
                "processor count {num_procs} exceeds the maximum of {}",
                pas_core::MAX_PROCS
            ),
        ));
    }
    if let Some(d) = deadline {
        if !(d.is_finite() && d > 0.0) {
            r.push(Diagnostic::new(
                Code::Pas0107,
                Loc::at(src, "deadline"),
                format!("deadline {d} ms must be finite and positive"),
            ));
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_models_are_clean() {
        assert!(check_model(&ProcessorModel::transmeta5400(), "transmeta").is_clean());
        assert!(check_model(&ProcessorModel::xscale(), "xscale").is_clean());
        let c = ProcessorModel::continuous(0.1).expect("valid smin");
        assert!(check_model(&c, "continuous:0.1").is_clean());
    }

    #[test]
    fn non_monotone_table_detected() {
        // serde accepts what the constructor would reject.
        let json = r#"{"name": "custom", "kind": {"Discrete": {"levels": [
            {"freq_mhz": 400.0, "voltage": 1.2},
            {"freq_mhz": 300.0, "voltage": 1.0}
        ]}}}"#;
        let m: ProcessorModel = serde_json::from_str(json).expect("parses");
        let r = check_model(&m, "m.json");
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].code, Code::Pas0103);
    }

    #[test]
    fn impostor_published_table_warned() {
        let json = r#"{"name": "Intel XScale", "kind": {"Discrete": {"levels": [
            {"freq_mhz": 150.0, "voltage": 0.75},
            {"freq_mhz": 1000.0, "voltage": 1.8}
        ]}}}"#;
        let m: ProcessorModel = serde_json::from_str(json).expect("parses");
        let r = check_model(&m, "m.json");
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].code, Code::Pas0104);
        assert!(!r.has_errors());
    }

    #[test]
    fn bad_params_detected() {
        let r = check_run_params(0, Some(-3.0), "cli");
        let codes: Vec<_> = r.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec![Code::Pas0106, Code::Pas0107]);
        assert!(check_run_params(2, Some(40.0), "cli").is_clean());
    }

    #[test]
    fn too_many_procs_is_pas0106() {
        let max = pas_core::MAX_PROCS;
        assert!(check_run_params(max, None, "cli").is_clean());
        for n in [max + 1, usize::MAX] {
            let r = check_run_params(n, None, "cli");
            let codes: Vec<_> = r.diagnostics.iter().map(|d| d.code).collect();
            assert_eq!(codes, vec![Code::Pas0106], "{n}");
            assert!(r.has_errors());
        }
    }
}
