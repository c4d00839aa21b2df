//! The `repro` binary rejects bad command lines with a usage error, never a
//! panic: every case below must exit with code 2, print `repro: error:`
//! and print no `panicked`. Each case fails while parsing, before any job
//! runs, and passes `--threads 1` where threads are not what is tested.

use std::path::PathBuf;
use std::process::Command;

/// A scratch file under the test target directory holding `contents`.
fn scratch_file(name: &str, contents: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, contents).expect("write scratch file");
    path
}

/// Run `repro args` and check it failed as a usage error naming `cause`.
fn assert_usage_error(args: &[&str], cause: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawn repro");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: exit status\nstderr: {stderr}");
    assert!(stderr.contains("repro: error:"), "{args:?}: no error line\nstderr: {stderr}");
    assert!(stderr.contains(cause), "{args:?}: error should name {cause:?}\nstderr: {stderr}");
    assert!(
        !stdout.contains("panicked") && !stderr.contains("panicked"),
        "{args:?}: panicked\nstderr: {stderr}"
    );
}

#[test]
fn bad_flags_are_usage_errors() {
    let cases: &[(&[&str], &str)] = &[
        (&["--threads", "1", "table1", "--scale"], "--scale requires a value"),
        (&["--threads", "1", "--scale", "abc", "table1"], "cannot parse \"abc\""),
        (&["--threads", "1", "--scale", "0", "table1"], "--scale: must be finite and > 0"),
        (&["--threads", "1", "--scale", "-1", "table1"], "--scale: must be finite and > 0"),
        (&["--threads", "1", "--scale", "NaN", "table1"], "--scale: must be finite and > 0"),
        (&["--threads", "0", "table1"], "--threads: must be >= 1"),
        (&["--threads", "1", "--bogus", "table1"], "unknown flag --bogus"),
        (&["--threads", "1", "run"], "run takes 1-1 operand(s), got 0"),
    ];
    for (args, cause) in cases {
        assert_usage_error(args, cause);
    }
}

#[test]
fn bad_scenario_files_are_usage_errors() {
    let missing = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("no_such_scenario.toml");
    let garbled = scratch_file("garbled_scenario.toml", "[scenario\nname = = \"x\"\n");
    let deleted_policy = scratch_file(
        "deleted_policy_scenario.toml",
        "[scenario]\nname = \"x\"\nkind = \"grid\"\n[axes]\ntrace = \"ts_0\"\npolicy = \"FIFO\"\n",
    );
    for (path, cause) in [
        (&missing, "cannot read"),
        (&garbled, "line 1:"),
        (&deleted_policy, "unknown policy \"FIFO\""),
    ] {
        assert_usage_error(&["--threads", "1", "run", path.to_str().expect("utf-8 path")], cause);
    }
}
