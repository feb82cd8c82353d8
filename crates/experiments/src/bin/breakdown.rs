//! Extension E2: busy/idle/transition energy decomposition per scheme.
//! With `--per-section`, E2b instead: per-program-section attribution
//! from the engine's per-section energy rows (which OR branch is
//! expensive?).

fn main() {
    pas_experiments::cli::main("breakdown");
}
