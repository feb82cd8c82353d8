//! Platform and run-parameter checks (`PAS01xx`).

use crate::diag::{Code, Diagnostic, Loc, Report};
use crate::feasibility::plan_error;
use dvfs_power::{ModelError, Overheads, ProcessorModel};
use pas_core::PlanError;

/// Checks a processor model: the level-table rules of
/// [`ProcessorModel::errors`] (PAS0102/PAS0103) and — when the model
/// claims a published name — agreement with the built-in
/// Transmeta/XScale tables (PAS0104).
///
/// Models built through [`ProcessorModel`]'s constructors always pass;
/// the checks exist for models deserialized from JSON, which serde
/// accepts unvalidated.
pub fn check_model(model: &ProcessorModel, src: &str) -> Report {
    let mut r = Report::new();
    for e in model.errors() {
        let (code, loc) = match e {
            ModelError::EmptyTable | ModelError::BadMinSpeed(_) => (Code::Pas0102, Loc::whole(src)),
            ModelError::BadLevel(i, _) => (Code::Pas0102, Loc::at(src, format!("levels[{i}]"))),
            ModelError::NotMonotone(i, ..) => (Code::Pas0103, Loc::at(src, format!("levels[{i}]"))),
        };
        r.push(Diagnostic::new(code, loc, e.to_string()));
    }
    if !r.has_errors() {
        check_published_table(model, src, &mut r);
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

/// Checks overhead parameters: the rules of [`Overheads::errors`]
/// (PAS0105).
pub fn check_overheads(o: &Overheads, src: &str) -> Report {
    let mut r = Report::new();
    for e in o.errors() {
        r.push(Diagnostic::new(
            Code::Pas0105,
            Loc::at(src, e.field),
            e.to_string(),
        ));
    }
    r
}

/// Checks the processor count (PAS0106) and, when given explicitly, the
/// deadline (PAS0107): the rules of [`PlanError::check_procs`] and
/// [`PlanError::check_deadline`].
pub fn check_run_params(num_procs: usize, deadline: Option<f64>, src: &str) -> Report {
    let mut r = Report::new();
    let deadline = deadline.map_or(Ok(()), PlanError::check_deadline);
    for e in [PlanError::check_procs(num_procs), deadline] {
        if let Err(e) = e {
            r.push(plan_error(e, src));
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
