//! Regenerates the complete evaluation — every paper table/figure, every
//! ablation, every extension — writing one markdown file per artifact into
//! `--outdir` (default `results/`). Each `<name>.md` holds exactly what
//! `<name> --markdown` prints.
//!
//! `cargo run --release -p pas-experiments --bin all -- --reps 1000`

use pas_experiments::cli::{exit_on_error, render, Options, ARTIFACTS};

fn main() {
    let mut opts = Options::from_env("all");
    opts.markdown = true;
    let outdir = opts.outdir.clone().unwrap_or_else(|| "results".into());
    exit_on_error(write_all(&opts, &outdir));
    println!("done: the full evaluation is in {outdir}/");
}

fn write_all(opts: &Options, outdir: &str) -> Result<(), String> {
    std::fs::create_dir_all(outdir).map_err(|e| format!("failed to create {outdir}: {e}"))?;
    for name in ARTIFACTS {
        let path = format!("{outdir}/{name}.md");
        std::fs::write(&path, render(name, opts)?)
            .map_err(|e| format!("failed to write {path}: {e}"))?;
        println!("wrote {path}");
    }
    // With --emit-trace DIR, also drop per-scheme reference Chrome traces.
    opts.emit_reference_traces()
}
