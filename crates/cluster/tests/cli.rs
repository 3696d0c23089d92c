//! The `deepnote` CLI rejects zero and out-of-range flag values at the
//! input boundary: each prints `error: bad value for --<flag>: <value>`
//! (or `bad interval`) and exits 1, instead of panicking deep in the
//! stack or running forever.
//!
//! Every child runs under a deadline and is killed when it passes, so a
//! hang fails the test instead of wedging the suite.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::Read;
use std::process::{Command, Stdio};
use std::thread::sleep;
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(10);

/// Runs `deepnote args…`; returns (exit code, stderr), or panics if the
/// child is still running at the deadline.
fn run(args: &[&str]) -> (i32, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_deepnote"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn deepnote");
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait on deepnote") {
            break status;
        }
        if start.elapsed() > DEADLINE {
            child.kill().expect("kill deepnote");
            child.wait().expect("reap deepnote");
            panic!("deepnote {args:?} still running after {DEADLINE:?}");
        }
        sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    (status.code().expect("exited, not signalled"), stderr)
}

#[test]
fn bad_flag_values_exit_1_naming_the_flag() {
    let cases: &[(&str, &str, &str)] = &[
        ("cluster", "seconds", "0"),
        ("cluster", "shards", "0"),
        ("cluster", "clients", "0"),
        ("cluster", "metrics-interval", "0"),
        ("cluster", "metrics-interval", "0ms"),
        ("cluster", "metrics-interval", "0us"),
        ("table1", "seconds", "0"),
        ("table2", "keys", "0"),
        ("table2", "seconds", "0"),
        ("fleet", "drives", "0"),
        ("fleet", "spacing-cm", "-5"),
        ("sweep", "requests", "0"),
        ("sweep", "distance-cm", "-1"),
        ("sweep", "distance-cm", "NaN"),
        ("sweep", "distance-cm", "inf"),
    ];
    for &(cmd, flag, value) in cases {
        let (code, stderr) = run(&[cmd, &format!("--{flag}"), value]);
        let want = if flag == "metrics-interval" {
            format!("error: bad interval: {value} ")
        } else {
            format!("error: bad value for --{flag}: {value}\n")
        };
        assert_eq!(code, 1, "{cmd} --{flag} {value}: stderr {stderr}");
        assert!(
            stderr.starts_with(&want) && stderr.lines().count() == 1,
            "{cmd} --{flag} {value}: stderr {stderr}"
        );
    }
}
