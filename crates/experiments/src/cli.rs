//! The experiment binaries' one front end: argument parsing and one
//! renderer per artifact, shared by `all` and the per-artifact binaries.
//!
//! Every binary accepts:
//!
//! * `--reps N` — Monte-Carlo replications per point (default 1000, the
//!   paper's setting);
//! * `--seed S` — base seed (default the paper-config seed);
//! * `--markdown` — print GitHub-flavored markdown instead of aligned text.
//!
//! The other flags apply to some binaries only; the rest refuse them
//! (exit 2) rather than ignore them:
//!
//! * `--csv PATH` / `--svg PATH` — the sweeps (`fig4`–`fig6`,
//!   `ablation_smin|levels|overhead|procs`) also write the energy table as
//!   CSV / an SVG chart. An artifact with one sweep per platform writes
//!   `<stem>_<platform>.<ext>` per platform;
//! * `--emit-trace DIR` — `fig4`–`fig6` and `all` write one Chrome
//!   trace-event file per scheme (a single representative run) into `DIR`
//!   for Perfetto inspection;
//! * `--per-section` — `breakdown` attributes energy per program section;
//! * `--factors F1,F2,...` — `fault_sweep` and `all` sweep these overrun
//!   factors (default `1.25,1.5,2.0`);
//! * `--outdir DIR` — where `all` writes its files (default `results`).

use crate::figures::{
    ablation_leakage, ablation_levels, ablation_overhead, ablation_procs, ablation_smin,
    energy_breakdown, fault_sweep, fig_energy_vs_alpha, fig_energy_vs_load, level_table,
    oracle_gap_vs_load, section_breakdown, stream_carryover, Platform, SweepOutput,
};
use crate::runner::ExperimentConfig;
use crate::traces::slug;
use dvfs_power::ProcessorModel;
use pas_stats::Table;
use std::path::Path;

/// Every artifact, in the order `all` writes them; each is also a binary.
pub const ARTIFACTS: [&str; 14] = [
    "table1",
    "table2",
    "fig4",
    "fig5",
    "fig6",
    "ablation_smin",
    "ablation_levels",
    "ablation_overhead",
    "ablation_procs",
    "ablation_leakage",
    "oracle_gap",
    "breakdown",
    "stream",
    "fault_sweep",
];

/// The sweep artifacts, built from [`SweepOutput`]s: the ones that honour
/// `--csv` and `--svg`.
const SWEEPS: &[&str] = &[
    "fig4",
    "fig5",
    "fig6",
    "ablation_smin",
    "ablation_levels",
    "ablation_overhead",
    "ablation_procs",
];

/// The binaries that honour `--emit-trace`.
const TRACED: &[&str] = &["fig4", "fig5", "fig6", "all"];

const PLATFORMS: [Platform; 2] = [Platform::Transmeta, Platform::XScale];

/// Parsed common options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Experiment configuration (replications, seed, schemes).
    pub cfg: ExperimentConfig,
    /// CSV output path, if requested.
    pub csv: Option<String>,
    /// SVG output path, if requested.
    pub svg: Option<String>,
    /// Render markdown instead of plain text.
    pub markdown: bool,
    /// Directory for per-scheme reference Chrome traces, if requested.
    pub emit_trace: Option<String>,
    /// Per-section attribution (honored by `breakdown`).
    pub per_section: bool,
    /// Overrun factors for `fault_sweep`, if given (default
    /// `1.25,1.5,2.0`).
    pub factors: Option<Vec<f64>>,
    /// Output directory for `all`, if given (default `results`).
    pub outdir: Option<String>,
}

impl Options {
    /// Parses `std::env::args`-style arguments (the first element is the
    /// program name and is skipped). Unknown flags abort with a message.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut o = Self {
            cfg: ExperimentConfig::paper_defaults(),
            csv: None,
            svg: None,
            markdown: false,
            emit_trace: None,
            per_section: false,
            factors: None,
            outdir: None,
        };
        let mut it = args.into_iter().skip(1);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--reps" => {
                    let v = it.next().ok_or("--reps needs a value")?;
                    o.cfg.replications = v.parse().map_err(|_| format!("bad --reps value: {v}"))?;
                }
                "--seed" => {
                    let v = it.next().ok_or("--seed needs a value")?;
                    o.cfg.base_seed = v.parse().map_err(|_| format!("bad --seed value: {v}"))?;
                }
                "--csv" => o.csv = Some(it.next().ok_or("--csv needs a path")?),
                "--svg" => o.svg = Some(it.next().ok_or("--svg needs a path")?),
                "--markdown" => o.markdown = true,
                "--emit-trace" => {
                    o.emit_trace = Some(it.next().ok_or("--emit-trace needs a directory")?);
                }
                "--per-section" => o.per_section = true,
                "--factors" => {
                    let spec = it
                        .next()
                        .ok_or("--factors needs a comma-separated list of values")?;
                    let factors = spec
                        .split(',')
                        .map(|t| t.trim().parse::<f64>())
                        .collect::<Result<Vec<f64>, _>>();
                    match factors {
                        Ok(v) if !v.is_empty() => o.factors = Some(v),
                        _ => return Err(format!("bad --factors value: {spec}")),
                    }
                }
                "--outdir" => o.outdir = Some(it.next().ok_or("--outdir needs a directory")?),
                "--help" | "-h" => {
                    return Err(
                        "usage: <bin> [--reps N] [--seed S] [--markdown] [--csv PATH] \
                         [--svg PATH] [--emit-trace DIR] [--per-section] [--factors F1,F2,...] \
                         [--outdir DIR]"
                            .into(),
                    )
                }
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        if o.cfg.replications == 0 {
            return Err("--reps must be positive".into());
        }
        Ok(o)
    }

    /// Parses the real process arguments for binary `name`, exiting with
    /// a message (status 2) on a bad argument or a flag `name` would
    /// ignore.
    pub fn from_env(name: &str) -> Self {
        match Self::parse(std::env::args()).and_then(|o| o.refuse_ignored(name).map(|()| o)) {
            Ok(o) => o,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// Refuses a flag that binary `name` would not honour, naming the
    /// binaries that do.
    fn refuse_ignored(&self, name: &str) -> Result<(), String> {
        let scoped: [(&str, bool, &[&str]); 6] = [
            ("--csv", self.csv.is_some(), SWEEPS),
            ("--svg", self.svg.is_some(), SWEEPS),
            ("--emit-trace", self.emit_trace.is_some(), TRACED),
            ("--per-section", self.per_section, &["breakdown"]),
            ("--factors", self.factors.is_some(), &["fault_sweep", "all"]),
            ("--outdir", self.outdir.is_some(), &["all"]),
        ];
        match scoped
            .iter()
            .find(|(_, given, takers)| *given && !takers.contains(&name))
        {
            Some((flag, _, takers)) => Err(format!(
                "{name} does not take {flag}; it applies to: {}",
                takers.join(", ")
            )),
            None => Ok(()),
        }
    }

    /// Honors `--emit-trace DIR`: writes one reference Chrome trace per
    /// scheme for each platform. A no-op when the flag was absent.
    pub fn emit_reference_traces(&self) -> Result<(), String> {
        let Some(dir) = &self.emit_trace else {
            return Ok(());
        };
        for platform in PLATFORMS {
            let paths =
                crate::traces::write_reference_traces(Path::new(dir), platform, self.cfg.base_seed)
                    .map_err(|e| format!("failed to emit traces: {e}"))?;
            for path in paths {
                eprintln!("wrote {path}");
            }
        }
        Ok(())
    }
}

/// Renders artifact `name` (one of [`ARTIFACTS`]) exactly as its binary
/// prints it: aligned text, or markdown under `--markdown`. Writes the
/// `--csv`/`--svg` files along the way.
///
/// # Errors
///
/// An unknown name, a deadline miss in a fault-free sweep (a correct
/// configuration never misses), a failed fault sweep or an unwritable
/// output file.
pub fn render(name: &str, opts: &Options) -> Result<String, String> {
    let cfg = &opts.cfg;
    match name {
        "table1" => {
            return Ok(tables(
                &[&level_table(&ProcessorModel::transmeta5400())],
                opts,
            ))
        }
        "table2" => return Ok(tables(&[&level_table(&ProcessorModel::xscale())], opts)),
        "ablation_smin" => return sweep(&ablation_smin(cfg), None, opts),
        "ablation_levels" => return sweep(&ablation_levels(cfg), None, opts),
        _ => {}
    }
    let mut out = String::new();
    for platform in PLATFORMS {
        let p = Some(platform);
        // Each block is followed by a blank line.
        let blocks = match name {
            "fig4" => vec![sweep(&fig_energy_vs_load(platform, 2, cfg), p, opts)?],
            "fig5" => vec![sweep(&fig_energy_vs_load(platform, 6, cfg), p, opts)?],
            "fig6" => vec![sweep(&fig_energy_vs_alpha(platform, cfg), p, opts)?],
            "ablation_overhead" => vec![sweep(&ablation_overhead(platform, cfg), p, opts)?],
            "ablation_procs" => vec![sweep(&ablation_procs(platform, cfg), p, opts)?],
            "ablation_leakage" => vec![tables(&[&ablation_leakage(platform, cfg)], opts)],
            "oracle_gap" => vec![tables(&[&oracle_gap_vs_load(platform, 2, cfg)], opts)],
            "stream" => vec![tables(&[&stream_carryover(platform, cfg)], opts)],
            "breakdown" => [0.3, 0.7]
                .iter()
                .map(|&load| {
                    let t = if opts.per_section {
                        section_breakdown(platform, 2, load, cfg)
                    } else {
                        energy_breakdown(platform, 2, load, cfg)
                    };
                    tables(&[&t], opts)
                })
                .collect(),
            "fault_sweep" => {
                let probs = [0.0, 0.01, 0.02, 0.05, 0.1, 0.2];
                let factors = opts.factors.as_deref().unwrap_or(&[1.25, 1.5, 2.0]);
                let mut blocks = Vec::with_capacity(factors.len());
                for &factor in factors {
                    let f = fault_sweep(platform, factor, &probs, cfg)
                        .map_err(|e| format!("fault sweep failed: {e}"))?;
                    blocks.push(format!(
                        "{}faults injected: {}, overruns detected: {}\n",
                        tables(&[&f.miss_rate, &f.energy, &f.recovery_energy], opts),
                        f.injected,
                        f.detected
                    ));
                }
                blocks
            }
            other => return Err(format!("unknown artifact: {other}")),
        };
        for block in blocks {
            out.push_str(&block);
            out.push('\n');
        }
    }
    Ok(out)
}

/// Renders `ts` in markdown, or as aligned text with a blank line between
/// tables.
fn tables(ts: &[&Table], opts: &Options) -> String {
    let (render, sep): (fn(&Table) -> String, _) = if opts.markdown {
        (Table::to_markdown, "")
    } else {
        (Table::to_text, "\n")
    };
    ts.iter().map(|t| render(t)).collect::<Vec<_>>().join(sep)
}

/// Renders a fault-free sweep, refusing one with a deadline miss, and
/// writes its energy table to `--csv`/`--svg`. `platform` names the sweep
/// when the artifact renders one per platform; its files then carry the
/// platform's slug (`x.csv` → `x_transmeta.csv`).
fn sweep(out: &SweepOutput, platform: Option<Platform>, opts: &Options) -> Result<String, String> {
    if out.total_misses > 0 {
        return Err(format!(
            "{} deadline misses in a fault-free sweep",
            out.total_misses
        ));
    }
    let write = |path: &String, body: String| {
        let path = match platform {
            Some(p) => per_platform(path, p),
            None => path.clone(),
        };
        std::fs::write(&path, body).map_err(|e| format!("failed to write {path}: {e}"))?;
        eprintln!("wrote {path}");
        Ok::<(), String>(())
    };
    if let Some(path) = &opts.csv {
        write(path, out.energy.to_csv())?;
    }
    if let Some(path) = &opts.svg {
        write(path, pas_stats::to_svg(&out.energy, 720, 440))?;
    }
    Ok(tables(&[&out.energy, &out.speed_changes], opts))
}

/// `dir/x.csv` → `dir/x_<platform slug>.csv`.
fn per_platform(path: &str, platform: Platform) -> String {
    let p = Path::new(path);
    let stem = p.file_stem().unwrap_or_default().to_string_lossy();
    let name = match p.extension() {
        Some(ext) => format!("{stem}_{}.{}", slug(platform.name()), ext.to_string_lossy()),
        None => format!("{stem}_{}", slug(platform.name())),
    };
    p.with_file_name(name).to_string_lossy().into_owned()
}

/// Ends the process with status 1 and the message on an error.
pub fn exit_on_error(result: Result<(), String>) {
    if let Err(msg) = result {
        eprintln!("{msg}");
        std::process::exit(1);
    }
}

/// The whole `main` of the per-artifact binary `name`: parse the options,
/// print [`render`], and emit the reference traces where `name` takes
/// `--emit-trace`.
pub fn main(name: &str) {
    let opts = Options::from_env(name);
    exit_on_error(render(name, &opts).and_then(|out| {
        print!("{out}");
        opts.emit_reference_traces()
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        std::iter::once("prog".to_string())
            .chain(s.iter().map(|s| s.to_string()))
            .collect()
    }

    #[test]
    fn defaults_match_paper() {
        let o = Options::parse(args(&[])).unwrap();
        assert_eq!(o.cfg.replications, 1000);
        assert!(o.csv.is_none());
        assert!(!o.markdown);
    }

    #[test]
    fn parses_all_flags() {
        let o = Options::parse(args(&[
            "--reps",
            "50",
            "--seed",
            "7",
            "--csv",
            "/tmp/x.csv",
            "--svg",
            "/tmp/x.svg",
            "--markdown",
            "--emit-trace",
            "/tmp/traces",
            "--per-section",
            "--factors",
            "1.5, 2",
            "--outdir",
            "/tmp/out",
        ]))
        .unwrap();
        assert_eq!(o.cfg.replications, 50);
        assert_eq!(o.cfg.base_seed, 7);
        assert_eq!(o.csv.as_deref(), Some("/tmp/x.csv"));
        assert_eq!(o.svg.as_deref(), Some("/tmp/x.svg"));
        assert!(o.markdown);
        assert_eq!(o.emit_trace.as_deref(), Some("/tmp/traces"));
        assert!(o.per_section);
        assert_eq!(o.factors.as_deref(), Some(&[1.5, 2.0][..]));
        assert_eq!(o.outdir.as_deref(), Some("/tmp/out"));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Options::parse(args(&["--reps"])).is_err());
        assert!(Options::parse(args(&["--reps", "zero"])).is_err());
        assert!(Options::parse(args(&["--reps", "0"])).is_err());
        assert!(Options::parse(args(&["--bogus"])).is_err());
        assert!(Options::parse(args(&["--emit-trace"])).is_err());
        assert!(Options::parse(args(&["--factors"])).is_err());
        assert!(Options::parse(args(&["--factors", "1.5,x"])).is_err());
        assert!(Options::parse(args(&["--outdir"])).is_err());
    }
}
