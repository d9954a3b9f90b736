//! `reproduce` parses its flags against its usage line: a bad value or an
//! unknown argument exits 2 with the usage, never a panic.

use std::process::Command;

fn usage_error(args: &[&str], want: &str) {
    let o = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("spawn reproduce");
    let err = String::from_utf8_lossy(&o.stderr);
    assert_eq!(o.status.code(), Some(2), "{args:?}: {err}");
    assert!(err.contains(want), "{args:?}: {err}");
    assert!(err.contains("usage: "), "{args:?}: {err}");
    assert!(!err.contains("panicked"), "{args:?}: {err}");
}

#[test]
fn reproduce_rejects_bad_input_with_its_usage() {
    usage_error(&["--days", "x"], "--days: cannot parse \"x\"");
    usage_error(&["table3", "--days"], "--days needs a value");
    usage_error(&["table9"], "unknown argument table9 for reproduce");
    usage_error(&["--bogus"], "unknown flag --bogus for reproduce");
}
