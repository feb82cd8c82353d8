//! Reference-trace emission behind the binaries' `--emit-trace DIR` flag.
//!
//! Sweeps aggregate thousands of runs into a handful of numbers; when a
//! point looks wrong, the first question is always "what did one run
//! actually do?". This module answers it by re-running each scheme once
//! on the figure's representative configuration (ATR, 2 processors,
//! load 0.5) straight into a [`ChromeSink`], one Perfetto-loadable
//! Chrome trace-event file per scheme.

use crate::figures::{atr_app, Platform};
use mp_sim::ExecTimeModel;
use pas_core::{Scheme, Setup};
use pas_obs::ChromeSink;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;

/// Lower-cases a display name into a file-name-safe slug (`SS(1)` →
/// `ss1`, `Intel XScale` → `intel-xscale`). Shared with the bench
/// baselines test and `pas_bench`, so baseline file names and benchmark
/// rows match the reference-trace names.
pub fn slug(name: &str) -> String {
    let mut out = String::new();
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if c.is_whitespace() && !out.ends_with('-') {
            out.push('-');
        }
    }
    out
}

/// Runs every scheme once on ATR (2 processors, load 0.5, the Figure 4
/// operating point) and writes `<dir>/<platform>_<scheme>.trace.json`
/// Chrome traces, with the lane metadata at the end of each file.
/// Returns the written paths.
pub fn write_reference_traces(
    dir: &Path,
    platform: Platform,
    seed: u64,
) -> Result<Vec<String>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let setup =
        Setup::for_load(atr_app(), platform.model(), 2, 0.5).map_err(|e| format!("setup: {e}"))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let real = setup.sample(&ExecTimeModel::paper_defaults(), &mut rng);
    let mut written = Vec::new();
    for scheme in Scheme::ALL {
        let path = dir.join(format!(
            "{}_{}.trace.json",
            slug(platform.name()),
            slug(scheme.name())
        ));
        let write_err = |e| format!("writing {}: {e}", path.display());
        let file = File::create(&path).map_err(write_err)?;
        let mut sink = ChromeSink::new(BufWriter::new(file), |n| setup.graph.node(n).name.clone());
        let mut policy = setup.policy(scheme);
        setup
            .simulator(false)
            .run_observed(policy.as_mut(), &real, None, None, Some(&mut sink))
            .map_err(|e| format!("simulation ({}): {e}", scheme.name()))?;
        sink.finish().map_err(write_err)?;
        written.push(path.display().to_string());
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_are_file_name_safe() {
        assert_eq!(slug("SS(1)"), "ss1");
        assert_eq!(slug("Intel XScale"), "intel-xscale");
        assert_eq!(slug("AS"), "as");
    }

    #[test]
    fn writes_one_trace_per_scheme() {
        let dir = std::env::temp_dir().join("pas_experiments_test_traces");
        let _ = std::fs::remove_dir_all(&dir);
        let written = write_reference_traces(&dir, Platform::XScale, 42).expect("traces written");
        assert_eq!(written.len(), Scheme::ALL.len());
        for path in &written {
            let body = std::fs::read_to_string(path).expect("readable");
            let doc: serde::Value = serde_json::from_str(&body).expect("valid JSON");
            assert!(doc.get("traceEvents").is_some(), "{path}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
