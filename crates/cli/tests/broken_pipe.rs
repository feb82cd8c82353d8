//! `pas` writing into a pipe whose reader goes away, as in
//! `pas trace --app atr --format jsonl --frames 50 | head -1`: the write
//! fails with `BrokenPipe`, and `pas` must end quietly rather than panic
//! (which prints "panicked" and exits 101). Any other write error ends
//! with a message and exit 1.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

#[test]
fn closed_stdout_ends_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pas"))
        .args([
            "trace", "--app", "atr", "--format", "jsonl", "--frames", "50",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn pas");
    // The trace is about 400 KB, far more than a pipe buffers, so `pas` is
    // still writing when the reader closes after the first line.
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("read the first line");
    assert!(first.starts_with('{'), "first line: {first:?}");
    drop(stdout);

    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let status = child.wait().expect("wait for pas");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_ne!(status.code(), Some(101), "stderr: {stderr}");
    assert!(status.success(), "{status}; stderr: {stderr}");
}

/// Any other write error is reported: one line on stderr and exit 1.
/// `/dev/full` fails every write with `ENOSPC`.
#[test]
#[cfg(target_os = "linux")]
fn failed_write_exits_one_with_a_message() {
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full");
    let out = Command::new(env!("CARGO_BIN_EXE_pas"))
        .args(["dot", "--app", "synthetic"])
        .stdout(full)
        .output()
        .expect("run pas");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.starts_with("error: writing output: "), "{stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
