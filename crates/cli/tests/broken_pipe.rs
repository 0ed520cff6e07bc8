//! `bulk list | head -1` must end quietly, not with a panic out of
//! `println!` ("failed printing to stdout: Broken pipe").
#![cfg(unix)]

use std::process::{Command, Stdio};

/// The reader is gone before `bulk` writes its first line — what `head`
/// does to a slow writer, without the race: `list` prints less than a
/// pipe buffer holds, so closing "after one line" would only sometimes
/// reach a write at all.
#[test]
fn a_closed_stdout_ends_bulk_without_a_panic() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_bulk"))
        .arg("list")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn bulk");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.is_empty(), "bulk list on a closed pipe wrote to stderr:\n{stderr}");
    assert_ne!(out.status.code(), Some(101), "bulk list on a closed pipe panicked");
}
