//! Extension E3: the static-power (leakage) ablation — how much energy the
//! critical-speed floor recovers as leakage grows.

fn main() {
    pas_experiments::cli::main("ablation_leakage");
}
