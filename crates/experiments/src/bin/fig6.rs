//! Figure 6: normalized energy vs α, synthetic application on 2 processors
//! at load 0.5 (a: Transmeta, b: Intel XScale).

fn main() {
    pas_experiments::cli::main("fig6");
}
