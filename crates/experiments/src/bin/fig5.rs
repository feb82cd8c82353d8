//! Figure 5: normalized energy vs load, ATR on 6 processors
//! (a: Transmeta, b: Intel XScale), overhead 5 µs.

fn main() {
    pas_experiments::cli::main("fig5");
}
