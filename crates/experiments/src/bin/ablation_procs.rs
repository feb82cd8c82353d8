//! Ablation A4: processor-count sweep at fixed load.

fn main() {
    pas_experiments::cli::main("ablation_procs");
}
