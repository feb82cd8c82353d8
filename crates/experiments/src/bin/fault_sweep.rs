//! Extension E5 — overrun fault injection: deadline-miss rate and
//! normalized energy per scheme as the per-task overrun probability and
//! overrun factor grow.
//!
//! `cargo run --release -p pas-experiments --bin fault_sweep -- --reps 200`
//!
//! Accepts the common flags plus `--factors F1,F2,...` (overrun factors,
//! default `1.25,1.5,2.0`).

fn main() {
    pas_experiments::cli::main("fault_sweep");
}
