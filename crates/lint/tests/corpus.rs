//! Exact-findings corpus: every snippet in `lint_corpus/` is linted under a
//! fixed workspace-relative path, and the finding set must equal the
//! `//~ <rule>` markers embedded in the snippet, line for line. Unmarked
//! lines double as the known-good cases — a phantom finding anywhere fails
//! the same assertion as a missed one.

use er_lint::{lint_files, lint_source, Finding, LintReport};

const NO_PANIC: &str = include_str!("lint_corpus/no_panic.rs");
const LEGACY_MODEL: &str = include_str!("lint_corpus/legacy_model.rs");
const FLOAT_EQ: &str = include_str!("lint_corpus/float_eq.rs");
const DEFAULT_HASHER: &str = include_str!("lint_corpus/default_hasher.rs");
const ADHOC_LOGGING: &str = include_str!("lint_corpus/adhoc_logging.rs");
const SNAPSHOT_READ: &str = include_str!("lint_corpus/snapshot_read.rs");
const UNORDERED: &str = include_str!("lint_corpus/unordered.rs");
const PANIC_REACH_SERVE: &str = include_str!("lint_corpus/panic_reach_serve.rs");
const PANIC_REACH_MODEL: &str = include_str!("lint_corpus/panic_reach_model.rs");
const CODEC_DRIFT: &str = include_str!("lint_corpus/codec_drift.rs");
const CLEAN_ENGINE: &str = include_str!("lint_corpus/clean_engine.rs");

/// Extracts the `(line, rule)` expectations from `//~ <rule>` markers; a
/// line may carry several markers when several rules fire on it.
fn markers(src: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        for part in line.split("//~").skip(1) {
            let rule = part.split_whitespace().next().unwrap_or("").to_string();
            assert!(!rule.is_empty(), "empty //~ marker on line {}", i + 1);
            out.push((i + 1, rule));
        }
    }
    out.sort();
    out
}

fn found(findings: &[Finding]) -> Vec<(usize, String)> {
    let mut out: Vec<_> = findings.iter().map(|f| (f.line, f.rule.to_string())).collect();
    out.sort();
    out
}

/// Per-file rules: lint `src` as `path` and compare against its markers.
fn check_single(path: &str, src: &str) {
    let findings = lint_source(path, src);
    assert_eq!(found(&findings), markers(src), "per-file findings diverge for {path}");
}

/// Workspace passes: lint a file set together and compare the combined
/// `(file, line, rule)` triples against the union of per-file markers.
fn check_set(inputs: &[(&str, &str)]) -> LintReport {
    let owned: Vec<(String, String)> =
        inputs.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
    let report = lint_files(&owned);
    let mut expect: Vec<(String, usize, String)> = Vec::new();
    for (path, src) in inputs {
        for (line, rule) in markers(src) {
            expect.push((path.to_string(), line, rule));
        }
    }
    expect.sort();
    let mut got: Vec<(String, usize, String)> =
        report.findings.iter().map(|f| (f.file.clone(), f.line, f.rule.to_string())).collect();
    got.sort();
    assert_eq!(got, expect, "workspace findings diverge for {:?}", inputs[0].0);
    report
}

#[test]
fn no_panic_flags_aborts_outside_tests() {
    check_single("crates/core/src/pipeline_helper.rs", NO_PANIC);
}

#[test]
fn er_model_structure_rules() {
    check_single("crates/er-model/src/sample.rs", LEGACY_MODEL);
    // Outside er-model the field rule is off; the cast rule is universal.
    let elsewhere = lint_source("crates/core/src/sample.rs", LEGACY_MODEL);
    assert_eq!(elsewhere.len(), 2);
    assert!(elsewhere.iter().all(|f| f.rule == "id-narrowing-cast"));
}

#[test]
fn float_eq_only_in_weighting_files() {
    check_single("crates/core/src/weight_probe.rs", FLOAT_EQ);
    assert!(lint_source("crates/core/src/pipeline.rs", FLOAT_EQ).is_empty());
}

#[test]
fn default_hasher_only_in_hot_path_crates() {
    check_single("crates/core/src/maps.rs", DEFAULT_HASHER);
    assert!(lint_source("crates/eval/src/maps.rs", DEFAULT_HASHER).is_empty());
}

#[test]
fn adhoc_logging_exempts_sinks_and_binaries() {
    check_single("crates/core/src/progress.rs", ADHOC_LOGGING);
    assert!(lint_source("crates/observe/src/progress.rs", ADHOC_LOGGING).is_empty());
    assert!(lint_source("crates/eval/src/bin/report.rs", ADHOC_LOGGING).is_empty());
}

#[test]
fn snapshot_reads_flagged_in_serve_only() {
    check_single("crates/serve/src/raw.rs", SNAPSHOT_READ);
    assert!(lint_source("crates/io/src/raw.rs", SNAPSHOT_READ).is_empty());
}

#[test]
fn unordered_iteration_sees_through_aliases() {
    check_single("crates/core/src/sweep.rs", UNORDERED);
}

#[test]
fn panic_reachability_walks_from_serve_roots() {
    let report = check_set(&[
        ("crates/serve/src/query.rs", PANIC_REACH_SERVE),
        ("crates/er-model/src/sample_util.rs", PANIC_REACH_MODEL),
    ]);
    // The cross-crate finding carries the call path that reached it.
    let cross = report
        .findings
        .iter()
        .find(|f| f.file.ends_with("sample_util.rs") && f.rule == "panic-reachability")
        .expect("cross-crate reachability finding");
    let note = cross.note.as_deref().expect("reachability findings carry a route");
    assert!(note.contains("unwrap/expect"), "{note}");
    assert!(note.contains("reachable:"), "{note}");
    assert!(note.contains("Engine::best"), "{note}");
    assert!(note.contains("pick_first"), "{note}");
    // The unguarded index names its own entry point.
    let index = report
        .findings
        .iter()
        .find(|f| f.rule == "panic-reachability" && f.file.ends_with("query.rs") && f.line < 20)
        .expect("unguarded-index finding");
    let note = index.note.as_deref().unwrap();
    assert!(note.contains("unguarded index"), "{note}");
    assert!(note.contains("Engine::lookup"), "{note}");
}

#[test]
fn codec_coverage_reports_every_drift_shape() {
    let report = check_set(&[("crates/serve/src/sections.rs", CODEC_DRIFT)]);
    let note = |pred: fn(&str) -> bool| {
        report
            .findings
            .iter()
            .filter_map(|f| f.note.as_deref())
            .find(|n| pred(n))
            .map(str::to_string)
    };
    let mismatch = note(|n| n.contains("SECTION_STATS")).expect("op-mismatch finding");
    assert!(
        mismatch.contains("decode reads [u8 u32] but encode writes [u8 u32 u64]"),
        "{mismatch}"
    );
    let unfinished = note(|n| n.contains("SECTION_LOG")).expect("never-finish finding");
    assert!(unfinished.contains("never calls finish()"), "{unfinished}");
    let orphan = note(|n| n.contains("SECTION_ORPHAN")).expect("orphan finding");
    assert!(orphan.contains("encoded but has no keyed decode segment"), "{orphan}");
    let ghost = note(|n| n.contains("SECTION_GHOST")).expect("ghost finding");
    assert!(ghost.contains("decoded but never encoded"), "{ghost}");
    let narrow = note(|n| n.contains("SECTION_WIDE")).expect("view-style width finding");
    assert!(narrow.contains("decode reads [bytes] but encode writes [seq(u32)]"), "{narrow}");
}

#[test]
fn clean_serve_surface_has_zero_findings() {
    let report = check_set(&[("crates/serve/src/clean_engine.rs", CLEAN_ENGINE)]);
    assert!(report.findings.is_empty());
    assert_eq!(report.suppressed, 0);
}
