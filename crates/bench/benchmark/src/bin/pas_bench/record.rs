//! What a run reports: metrics, run records and result files.

use crate::catalog;
use crate::stats;
use serde::{Deserialize, Serialize, Value};

/// One metric value with the spread it was taken from.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// The reported value (a median, a fastest time, a percentile or a
    /// count).
    pub value: f64,
    /// First and third quartiles of the samples behind `value`, when it
    /// was taken from several.
    pub q1: Option<f64>,
    pub q3: Option<f64>,
    /// Samples behind the value.
    pub n: u64,
}

impl Metric {
    /// A single measured value.
    pub fn value(name: &str, value: f64) -> Self {
        Self {
            name: name.to_string(),
            unit: unit(name),
            value,
            q1: None,
            q3: None,
            n: 1,
        }
    }

    /// The same value, with the quartiles and count of the samples it was
    /// taken from.
    pub fn spread(self, samples: &[f64]) -> Self {
        let (q1, q3) = stats::quartiles(samples).unzip();
        Self {
            q1,
            q3,
            n: samples.len() as u64,
            ..self
        }
    }

    /// The median of `samples`.
    pub fn median(name: &str, samples: &[f64]) -> Result<Self, String> {
        let value = stats::median(samples)
            .ok_or_else(|| format!("{name}: no samples to take a median of"))?;
        Ok(Self::value(name, value).spread(samples))
    }

    /// The lowest of `samples`.
    pub fn lowest(name: &str, samples: &[f64]) -> Result<Self, String> {
        let value = samples
            .iter()
            .copied()
            .reduce(f64::min)
            .ok_or_else(|| format!("{name}: no samples"))?;
        Ok(Self::value(name, value).spread(samples))
    }

    /// The nearest-rank `q`-percentile of `samples` (refused with fewer
    /// than ten samples beyond it).
    pub fn percentile(name: &str, samples: &[f64], q: f64) -> Result<Self, String> {
        let value = stats::percentile(samples, q).map_err(|e| format!("{name}: {e}"))?;
        Ok(Self::value(name, value).spread(samples))
    }
}

fn unit(name: &str) -> String {
    catalog::unit_of(name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
        .to_string()
}

/// One workload run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Every correctness gate passed.
    pub correct: bool,
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed (engine or pipeline errors, non-`ok` serve
    /// replies).
    pub failed: u64,
    /// Why a gate failed, if one did.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl RunRecord {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The one-line summary the benchmark prints last: exactly `correct`,
    /// `attempted`, `failed` and `metrics` (name → value and unit; the
    /// informational metrics stay out).
    pub fn summary_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .filter(|m| !catalog::INFORMATIONAL.iter().any(|i| i.0 == m.name))
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Float(m.value)),
                        ("unit".to_string(), Value::Str(m.unit.clone())),
                    ]),
                )
            })
            .collect();
        let doc = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::UInt(self.attempted)),
            ("failed".to_string(), Value::UInt(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&doc).expect("metric values are finite")
    }
}

/// A result file: the machine it ran on and every run made.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResultFile {
    pub nproc: u64,
    pub cpu_model: String,
    pub runs: Vec<RunRecord>,
}

impl ResultFile {
    pub fn read(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))
    }

    pub fn write(&self, path: &str) -> Result<(), String> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        let text = serde_json::to_string_pretty(self).map_err(|e| format!("{path}: {e}"))?;
        // Written whole and renamed into place: later runs read the file
        // back, so an interrupted write must not leave half of it.
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, text + "\n").map_err(|e| format!("writing {tmp}: {e}"))?;
        std::fs::rename(&tmp, path).map_err(|e| format!("renaming {tmp}: {e}"))
    }
}
