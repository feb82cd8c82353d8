//! Ablation A1 (the paper's stated future work): the effect of the
//! minimum-speed ratio S_min/S_max on each scheme's energy.

fn main() {
    pas_experiments::cli::main("ablation_smin");
}
