//! Ablation A3: sweep of the voltage/speed transition overhead.

fn main() {
    pas_experiments::cli::main("ablation_overhead");
}
