//! Extension E2: busy/idle/transition energy decomposition per scheme.
//! With `--per-section`, E2b instead: per-program-section attribution
//! from the engine's per-section energy rows (which OR branch is
//! expensive?).

use pas_experiments::cli::Options;
use pas_experiments::figures::{energy_breakdown, section_breakdown};
use pas_experiments::Platform;

fn main() {
    let opts = Options::from_env();
    for platform in [Platform::Transmeta, Platform::XScale] {
        for load in [0.3, 0.7] {
            let t = if opts.per_section {
                section_breakdown(platform, 2, load, &opts.cfg)
            } else {
                energy_breakdown(platform, 2, load, &opts.cfg)
            };
            if opts.markdown {
                print!("{}", t.to_markdown());
            } else {
                print!("{}", t.to_text());
            }
            println!();
        }
    }
}
