#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! `pas` — the command-line front end. All logic lives in the library so
//! it can be unit-tested; this binary only wires stdin/stdout.

use std::io::{ErrorKind, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match pas_cli::run(&args) {
        Ok(output) => {
            let mut stdout = std::io::stdout().lock();
            match stdout
                .write_all(output.as_bytes())
                .and_then(|()| stdout.flush())
            {
                Ok(()) => {}
                // The reader went away (`pas trace … | head -1`): nobody
                // is left to read the rest, so end quietly.
                Err(e) if e.kind() == ErrorKind::BrokenPipe => {}
                Err(e) => {
                    eprintln!("error: writing output: {e}");
                    std::process::exit(1);
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            // Rendered diagnostics reports explain themselves; the usage
            // line only helps with argument mistakes.
            if !e.contains("[PAS0") {
                eprintln!();
                eprintln!("{}", pas_cli::USAGE);
            }
            std::process::exit(2);
        }
    }
}
