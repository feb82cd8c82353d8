//! Prints the paper's Table 2: the Intel XScale voltage/speed levels.

fn main() {
    pas_experiments::cli::main("table2");
}
