//! The `deepnote` CLI rejects zero, out-of-range and huge flag values at
//! the input boundary: each prints `error: bad value for --<flag>:
//! <value>` (or `bad interval`) and exits 1, instead of panicking deep in
//! the stack, aborting on allocation, or running forever.
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
    const HUGE: &str = "18446744073709551615";
    // (command, flag, value, what stderr says after the value)
    let cases: &[(&str, &str, &str, &str)] = &[
        ("cluster", "seconds", "0", "\n"),
        ("cluster", "shards", "0", "\n"),
        ("cluster", "clients", "0", "\n"),
        ("cluster", "metrics-interval", "0", "(try"),
        ("cluster", "metrics-interval", "0ms", "(try"),
        ("cluster", "metrics-interval", "0us", "(try"),
        ("table1", "seconds", "0", "\n"),
        ("table2", "keys", "0", "\n"),
        ("table2", "seconds", "0", "\n"),
        ("fleet", "drives", "0", "\n"),
        ("fleet", "spacing-cm", "-5", "\n"),
        ("sweep", "requests", "0", "\n"),
        ("sweep", "distance-cm", "-1", "\n"),
        ("sweep", "distance-cm", "NaN", "\n"),
        ("sweep", "distance-cm", "inf", "\n"),
        // Above each flag's ceiling: overflow, allocation abort or a
        // run that never ends, without the bound.
        ("cluster", "seconds", HUGE, " (at most 86400)\n"),
        ("cluster", "seconds", "86401", " (at most 86400)\n"),
        ("cluster", "clients", HUGE, " (at most 1000)\n"),
        ("cluster", "shards", "1001", " (at most 1000)\n"),
        ("cluster", "metrics-interval", "1us", "(at least 10 ms)\n"),
        ("cluster", "metrics-interval", "9ms", "(at least 10 ms)\n"),
        ("table1", "seconds", HUGE, " (at most 200)\n"),
        ("table1", "seconds", "201", " (at most 200)\n"),
        ("table2", "seconds", HUGE, " (at most 600)\n"),
        ("table2", "keys", HUGE, " (at most 1000000)\n"),
        ("fleet", "drives", "100000000000", " (at most 1000)\n"),
        ("sweep", "requests", HUGE, " (at most 1000)\n"),
    ];
    for &(cmd, flag, value, tail) in cases {
        let (code, stderr) = run(&[cmd, &format!("--{flag}"), value]);
        let want = if flag == "metrics-interval" {
            format!("error: bad interval: {value} for --{flag} {tail}")
        } else {
            format!("error: bad value for --{flag}: {value}{tail}")
        };
        assert_eq!(code, 1, "{cmd} --{flag} {value}: stderr {stderr}");
        assert!(
            stderr.starts_with(&want) && stderr.lines().count() == 1,
            "{cmd} --{flag} {value}: stderr {stderr}"
        );
    }
}
