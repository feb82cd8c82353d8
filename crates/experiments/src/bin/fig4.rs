//! Figure 4: normalized energy vs load, ATR on 2 processors
//! (a: Transmeta, b: Intel XScale).

fn main() {
    pas_experiments::cli::main("fig4");
}
