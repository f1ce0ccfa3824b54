//! A malformed flag value is a usage error: the CLI names the flag on one
//! stderr line and exits with status 2, never with a panic (status 101).

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mimicnet"))
        .args(args)
        .output()
        .expect("run the mimicnet binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_seed_is_a_usage_error() {
    let (code, stderr) = run(&["train", "--out", "unused.json", "--seed", "x"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("--seed must be an integer, got \"x\""),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn bad_values_name_their_flag() {
    for (args, needle) in [
        (
            &["estimate", "--clusters", "4", "--duration", "soon"][..],
            "--duration must be a number",
        ),
        (
            &["estimate", "--clusters", "4", "--partitions", "-1"][..],
            "--partitions must be a positive integer",
        ),
        (
            &["train", "--out", "unused.json", "--epochs", "1.5"][..],
            "--epochs must be an integer",
        ),
        (
            &["train", "--out", "unused.json", "--hidden", "wide"][..],
            "--hidden must be an integer",
        ),
        (
            &[
                "train",
                "--out",
                "unused.json",
                "--protocol",
                "dctcp",
                "--k",
                "k",
            ][..],
            "--k must be an integer",
        ),
        (
            &["tune", "--scales", "2,four"][..],
            "--scales must be comma-separated integers",
        ),
        (
            &["estimate", "--clusters", "1"][..],
            "--clusters must be an integer of at least 2",
        ),
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}
