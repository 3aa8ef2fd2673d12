//! The `bgpsim` binary's command line. Pins the exit-code contract (0
//! help, 2 usage error) and the message each usage error carries, for all
//! four subcommands of the one table-driven parser, at parse level; and
//! holds `bgpsim serve --help`'s endpoint table to the router and the
//! docs, against one tiny server.

use std::path::Path;
use std::process::Command;

use bgpsim_core::ExperimentConfig;
use bgpsim_fanout::Client;
use bgpsim_server::{spawn, ServerConfig};
use bgpsim_topology::gen::InternetParams;

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

/// Every endpoint `bgpsim serve --help` lists is routed, and every `/v1/…`
/// path README.md and DESIGN.md name is one of them — read with a
/// `job-<n>` segment as `:id` and without its query string, and allowed
/// to stop short of a trailing `:id` (`/v1/results` names the family). A
/// doc that still names a route the server dropped fails here.
#[test]
fn documented_endpoints_are_the_routed_ones() {
    let (code, help, stderr) = bgpsim(&["serve", "--help"]);
    assert_eq!(code, 0, "{stderr}");
    let endpoints: Vec<(&str, &str)> = help
        .lines()
        .skip_while(|line| *line != "ENDPOINTS:")
        .skip(1)
        .take_while(|line| !line.is_empty())
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            let (method, path) = (words.next()?, words.next()?);
            (method.bytes().all(|b| b.is_ascii_uppercase()) && path.starts_with("/v1/"))
                .then_some((method, path))
        })
        .collect();
    assert!(
        endpoints.len() >= 9 && endpoints.contains(&("POST", "/v1/shutdown")),
        "ENDPOINTS table: {endpoints:?}"
    );

    let mut config = ServerConfig::new(
        ExperimentConfig {
            params: InternetParams::tiny(),
            ..ExperimentConfig::quick()
        },
        "custom",
    );
    config.addr = "127.0.0.1:0".to_string();
    let server = spawn(config).expect("server boots");
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    for &(method, path) in &endpoints {
        if (method, path) == ("POST", "/v1/shutdown") {
            continue;
        }
        let path = path.replace(":id", "job-999999");
        let (status, body) = client
            .request(method, &path, "")
            .unwrap_or_else(|e| panic!("{method} {path}: {e}"));
        assert!(
            status != 405 && !body.contains("no route for"),
            "{method} {path} is listed but not routed: {status} {body}"
        );
    }
    drop(client);
    server.stop().expect("clean shutdown");

    let listed: Vec<&str> = endpoints.iter().map(|&(_, path)| path).collect();
    for doc in ["README.md", "DESIGN.md"] {
        let text = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(doc))
            .unwrap_or_else(|e| panic!("{doc}: {e}"));
        for (start, _) in text.match_indices("/v1/") {
            let named: String = text[start..]
                .chars()
                .take_while(|&c| c.is_ascii_alphanumeric() || "/:_-".contains(c))
                .collect();
            let named = named.trim_end_matches([':', '/']);
            let path: Vec<&str> = named
                .split('/')
                .map(|segment| match segment.strip_prefix("job-") {
                    Some(_) => ":id",
                    None => segment,
                })
                .collect();
            let path = path.join("/");
            assert!(
                listed
                    .iter()
                    .any(|&route| route == path || route.starts_with(&format!("{path}/"))),
                "{doc} names {named:?}, which `bgpsim serve --help` does not list"
            );
        }
    }
}
