//! Extension E4: streaming frames with DVS state carried across frame
//! boundaries versus the paper's independent-instances assumption.

fn main() {
    pas_experiments::cli::main("stream");
}
