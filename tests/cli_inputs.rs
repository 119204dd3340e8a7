//! Degenerate `memo-sim` inputs: each is rejected up front with a message
//! on stderr and a failing exit code — never a 0 % MFU cell, a config
//! error reported as a result, a panic, or a silently wrapped length.

use std::process::Command;

/// Run `memo-sim --model 7b` plus `args`; return (exit code, stderr).
fn memo_sim(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_memo-sim"))
        .args(["--model", "7b"])
        .args(args)
        .output()
        .expect("memo-sim must launch");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_rejected(args: &[&str], message: &str) {
    let (code, stderr) = memo_sim(args);
    assert_eq!(code, Some(1), "{args:?} must exit 1, stderr:\n{stderr}");
    assert!(
        stderr.contains(message),
        "{args:?}: stderr should contain {message:?}:\n{stderr}"
    );
}

#[test]
fn zero_sequence_length_is_rejected() {
    assert_rejected(&["--gpus", "8", "--seq", "0"], "bad sequence length '0'");
    assert_rejected(&["--gpus", "8", "--seq", "64k,0k"], "bad sequence length");
}

#[test]
fn zero_gpus_are_rejected() {
    assert_rejected(
        &["--gpus", "0", "--seq", "64k"],
        "--gpus requires a positive integer",
    );
}

#[test]
fn degenerate_sweeps_are_rejected_without_panicking() {
    assert_rejected(&["--gpus", "8", "--sweep", "64k:32k:0"], "positive length");
    assert_rejected(
        &["--gpus", "8", "--sweep", "64k:32k:16k"],
        "END must not be below START",
    );
}

#[test]
fn overflowing_sequence_length_is_rejected() {
    assert_rejected(
        &["--gpus", "8", "--seq", "99999999999999m"],
        "bad sequence length '99999999999999m'",
    );
    assert_rejected(
        &["--gpus", "8", "--sweep", "1k:99999999999999m:1k"],
        "positive length",
    );
}
