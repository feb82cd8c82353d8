//! Prints the paper's Table 1: the Transmeta TM5400 voltage/speed levels.

fn main() {
    pas_experiments::cli::main("table1");
}
