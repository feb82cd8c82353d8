//! Extension E1: each scheme's mean energy relative to the clairvoyant
//! single-speed bound of paper §3.3, vs load.

fn main() {
    pas_experiments::cli::main("oracle_gap");
}
