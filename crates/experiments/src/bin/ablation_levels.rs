//! Ablation A2 (the paper's stated future work): the effect of the number
//! of discrete speed levels between S_min and S_max.

fn main() {
    pas_experiments::cli::main("ablation_levels");
}
