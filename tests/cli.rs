//! The `bgpsim` binary's command line, at parse level only — nothing here
//! generates a topology. Pins the exit-code contract (0 help, 2 usage
//! error) and the message each usage error carries, for all four
//! subcommands of the one table-driven parser.

use std::process::Command;

/// Runs `bgpsim ARGS…`; returns (exit code, stdout, stderr).
fn bgpsim(args: &[&str]) -> (i32, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_bgpsim"))
        .args(args)
        .output()
        .expect("bgpsim runs");
    (
        output.status.code().expect("bgpsim exits"),
        String::from_utf8(output.stdout).expect("utf-8 stdout"),
        String::from_utf8(output.stderr).expect("utf-8 stderr"),
    )
}

#[test]
fn help_list_and_version_exit_zero() {
    for (args, needle) in [
        (&["--help"][..], "USAGE:\n    bgpsim run [FIGURE...]"),
        (&[], "USAGE:\n    bgpsim run [FIGURE...]"),
        (&["run", "--help"], "RUN OPTIONS:"),
        (&["stream", "--help"], "USAGE:\n    bgpsim stream [OPTIONS]"),
        (&["serve", "-h"], "USAGE:\n    bgpsim serve [OPTIONS]"),
        (&["fanout", "--help"], "USAGE:\n    bgpsim fanout --workers"),
        (&["list"], "fig7   detector configurations"),
        (&["--version"], "(manifest schema v1)"),
    ] {
        let (code, stdout, stderr) = bgpsim(args);
        assert_eq!(code, 0, "{args:?}: {stderr}");
        assert!(stdout.contains(needle), "{args:?}: {stdout}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}

#[test]
fn usage_errors_exit_two_with_their_message_and_the_usage_text() {
    for (args, message, usage) in [
        (
            &["frobnicate"][..],
            "unknown subcommand \"frobnicate\"",
            "bgpsim run",
        ),
        (
            &["run", "--bogus"],
            "unknown option \"--bogus\"",
            "RUN OPTIONS:",
        ),
        (
            &["stream", "--bogus"],
            "unknown option \"--bogus\"",
            "bgpsim stream",
        ),
        // `--stride` is `run`'s; the other tables do not know it.
        (
            &["serve", "--stride", "2"],
            "unknown option \"--stride\"",
            "bgpsim serve",
        ),
        (
            &["stream", "fig2"],
            "unknown option \"fig2\"",
            "bgpsim stream",
        ),
        (
            &["run", "fig9"],
            "unknown figure \"fig9\": run `bgpsim list` for valid ids",
            "RUN OPTIONS:",
        ),
        (
            &["run", "fig2", "--seed"],
            "--seed needs a value",
            "RUN OPTIONS:",
        ),
        (
            &["fanout", "--workers"],
            "--workers needs a value",
            "bgpsim fanout",
        ),
        (
            &["run", "fig2", "--jobs", "many"],
            "--jobs expects a number, got \"many\"",
            "RUN OPTIONS:",
        ),
        (
            &["serve", "--cache", "-1"],
            "--cache expects a number, got \"-1\"",
            "bgpsim serve",
        ),
        (
            &["run", "fig2", "--stride", "0"],
            "--stride must be at least 1",
            "RUN OPTIONS:",
        ),
        (
            &["stream", "--events", "0"],
            "--events must be at least 1",
            "bgpsim stream",
        ),
        (
            &["serve", "--http-workers", "0"],
            "--http-workers must be at least 1",
            "bgpsim serve",
        ),
        (
            &["fanout", "--scale", "quick"],
            "--workers must name at least one bgpsim-server URL",
            "bgpsim fanout",
        ),
        (
            &["fanout", "--workers", " , "],
            "worker list must name at least one URL",
            "bgpsim fanout",
        ),
        (
            &["run", "--scale", "quick"],
            "nothing to run: name figures (e.g. `bgpsim run fig2`) or pass --all",
            "RUN OPTIONS:",
        ),
        (
            &["run", "fig2", "--scale", "galactic"],
            "unknown scale preset \"galactic\"",
            "RUN OPTIONS:",
        ),
        (
            &["run", "fig2", "--engine", "stable"],
            "unknown engine \"stable\"",
            "RUN OPTIONS:",
        ),
    ] {
        let (code, stdout, stderr) = bgpsim(args);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
        assert!(
            stderr.starts_with(&format!("error: {message}")),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains(usage), "{args:?}: {stderr}");
    }
}
