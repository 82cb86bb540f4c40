//! `--help` is a request, not an error: the binary prints the usage on
//! stdout and exits 0 at the top level and on every verb.

use std::process::Command;

fn er(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_er")).args(args).output().expect("running the er binary")
}

#[test]
fn help_prints_usage_and_exits_zero_on_every_verb() {
    let verbs: [&[&str]; 11] = [
        &[],
        &["generate"],
        &["stats"],
        &["run"],
        &["sweep-filter"],
        &["snapshot"],
        &["snapshot", "build"],
        &["query"],
        &["serve"],
        &["client"],
        &["client", "query"],
    ];
    for verb in verbs {
        let mut args = verb.to_vec();
        args.push("--help");
        let out = er(&args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "er {args:?} exited {:?}", out.status);
        assert!(stdout.contains("USAGE:"), "er {args:?} printed {stdout:?}");
        assert!(out.stderr.is_empty(), "er {args:?} wrote to stderr");
    }
}

#[test]
fn a_bare_invocation_and_unknown_options_still_fail() {
    let bare = er(&[]);
    assert_eq!(bare.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&bare.stderr).contains("USAGE:"));
    let typo = er(&["query", "--snapshot", "x.mbsnap", "--schema", "js"]);
    assert_eq!(typo.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&typo.stderr).contains("unknown option(s): --schema"));
}
