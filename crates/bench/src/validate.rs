//! The one validator of the committed JSON documents: every `BENCH_*.json`
//! a JSON bench writes and the `results/lint.json` report of
//! `er-lint --workspace --format json`.
//!
//! Each document kind is one schema table of `Check`s. A document picks
//! its own table — bench documents by their `bench` field, the lint report
//! by `schema == "er-lint/1"` — so a caller never names the kind, and an
//! unknown `bench` value is an error. Every failure message names the
//! offending field by its dotted path (`upsert.apply_p99_us`,
//! `batch[2].threads`), so a drifting emitter fails `scripts/bench.sh` or
//! `scripts/check.sh` with a pointer instead of silently producing a file
//! the perf-trajectory tooling can no longer read.

use mb_observe::json::Json;
use std::path::Path;

/// One rule of a schema table. Paths are dotted, relative to the document
/// (or to the array element, inside [`Check::Rows`]).
#[derive(Clone, Copy)]
enum Check {
    /// A string.
    Str(&'static str),
    /// A non-empty string.
    NonEmpty(&'static str),
    /// A string, when present.
    OptStr(&'static str),
    /// One of the listed strings.
    OneOf(&'static str, &'static [&'static str]),
    /// An unsigned integer.
    Uint(&'static str),
    /// A positive integer.
    Pos(&'static str),
    /// A finite, non-negative number.
    Num(&'static str),
    /// A finite number above zero.
    PosNum(&'static str),
    /// A finite number inside the closed range (an acceptance bar).
    Within(&'static str, f64, f64),
    /// The boolean `true`.
    True(&'static str),
    /// Finite numbers with the first no less than the second (p99 ≥ p50).
    Ge(&'static str, &'static str),
    /// Integers with the first equal to the second plus an offset.
    Eq(&'static str, &'static str, u64),
    /// An array whose every element passes the nested table.
    Rows(&'static str, &'static [Check]),
    /// The array's column `key` is exactly the listed values, row by row
    /// (for example the thread counts `1, 2, 4, 8`).
    Column(&'static str, &'static str, &'static [&'static str]),
}

/// The fields every bench document opens with (the `bench` field itself
/// selects the table); [`crate::write_bench_json`] writes them.
const HEADER: &[Check] =
    &[Check::Str("workload"), Check::Pos("entities"), Check::Pos("detected_cores")];

/// `BENCH_pipeline.json`: one arena row per stage, with allocation counts.
const PIPELINE: &[Check] = &[
    Check::Pos("samples_per_stage"),
    Check::Rows(
        "results",
        &[
            Check::OneOf("impl", &["arena"]),
            Check::Num("mean_ms"),
            Check::Num("median_ms"),
            Check::Num("min_ms"),
            Check::Pos("samples"),
            Check::Uint("allocs"),
        ],
    ),
    Check::Column("results", "stage", &["build", "purge", "filter", "weight", "prune"]),
];

/// `BENCH_query.json`: snapshot load, single-query percentiles, and batch
/// throughput at 1/2/4/8 threads.
const QUERY: &[Check] = &[
    Check::Pos("samples"),
    Check::Pos("snapshot_bytes"),
    Check::Num("load.mean_ms"),
    Check::Num("load.min_ms"),
    Check::Num("load.mb_per_s"),
    Check::Pos("load.samples"),
    Check::Ge("single_query.p99_us", "single_query.p50_us"),
    Check::Pos("single_query.queries"),
    Check::Rows(
        "batch",
        &[
            Check::Pos("threads"),
            Check::Num("mean_ms"),
            Check::Num("min_ms"),
            Check::PosNum("throughput_qps"),
            Check::Pos("samples"),
        ],
    ),
    Check::Column("batch", "threads", &["1", "2", "4", "8"]),
];

/// `BENCH_serve.json`: wire round trips against a live server, one reload
/// per sample round (generation 1 is the boot snapshot), and a server-side
/// request count covering at least every timed query.
const SERVE: &[Check] = &[
    Check::Pos("samples"),
    Check::Ge("round_trip.p99_us", "round_trip.p50_us"),
    Check::PosNum("round_trip.throughput_qps"),
    Check::Pos("round_trip.queries"),
    Check::Num("reload.mean_ms"),
    Check::Num("reload.min_ms"),
    Check::Pos("reload.samples"),
    Check::Num("reload.post_reload_query_us"),
    Check::Eq("reload.samples", "samples", 0),
    Check::Eq("final_generation", "reload.samples", 1),
    Check::Ge("requests_served", "round_trip.queries"),
];

/// `BENCH_delta.json`: a live upsert must be applied and queryable within
/// 1 ms at p50 and be at least 1000× cheaper than the full rebuild path
/// (bundle load → build → persist → reload → first query), and compaction
/// must be bit-identical to a from-scratch build.
const DELTA: &[Check] = &[
    Check::Pos("samples"),
    Check::Pos("upsert.ops"),
    Check::Ge("upsert.apply_p99_us", "upsert.apply_p50_us"),
    Check::Ge("upsert.query_p99_us", "upsert.query_p50_us"),
    Check::Within("upsert.applied_queryable_p50_us", 0.0, 1000.0),
    Check::Ge("upsert.applied_queryable_p99_us", "upsert.applied_queryable_p50_us"),
    Check::Num("compaction.compact_ms"),
    Check::PosNum("compaction.rebuild_ms"),
    Check::Ge("compaction.rebuild_path_ms", "compaction.rebuild_ms"),
    Check::Pos("compaction.ops_folded"),
    Check::True("compaction.bit_identical"),
    Check::Within("speedup_vs_rebuild", 1000.0, f64::INFINITY),
];

/// `BENCH_pruning.json`: scheme × threads wall-time cells.
const PRUNING: &[Check] = &[
    Check::Pos("samples_per_cell"),
    Check::Rows(
        "results",
        &[
            Check::OneOf("bench", &["edge_weighting", "pruning"]),
            Check::Str("scheme"),
            Check::Pos("threads"),
            Check::Num("mean_ms"),
            Check::Num("median_ms"),
            Check::Num("min_ms"),
            Check::Pos("samples"),
        ],
    ),
];

/// The bench tables, keyed by the document's `bench` field.
const BENCHES: [(&str, &[Check]); 5] = [
    ("pipeline_e2e", PIPELINE),
    ("query_latency", QUERY),
    ("serve_throughput", SERVE),
    ("delta_latency", DELTA),
    ("pruning_scaling", PRUNING),
];

const FINDING: &[Check] = &[
    Check::NonEmpty("file"),
    Check::Pos("line"),
    Check::NonEmpty("rule"),
    Check::OneOf("severity", &["error", "warning"]),
    Check::Str("snippet"),
    Check::OptStr("note"),
];

/// `results/lint.json` (schema `er-lint/1`), plus the cross-field
/// [`lint_status`] rule.
const LINT: &[Check] = &[
    Check::Pos("files"),
    Check::Rows("findings", FINDING),
    Check::Rows("over_budget", FINDING),
    Check::Uint("suppressed"),
];

/// `status` must agree with the budget arrays: `clean` exactly when
/// nothing is over budget and no allowlist entry is stale.
fn lint_status(doc: &Json) -> Result<(), String> {
    let stale = doc.get("stale").and_then(Json::as_arr).ok_or("`stale` is not an array")?;
    if let Some(i) = stale.iter().position(|s| s.as_str().is_none()) {
        return Err(format!("`stale[{i}]` is not a string"));
    }
    let over = doc.get("over_budget").and_then(Json::as_arr).map_or(0, <[Json]>::len);
    let expected = if over == 0 && stale.is_empty() { "clean" } else { "violations" };
    let status = doc.get("status").and_then(Json::as_str).ok_or("`status` is not a string")?;
    if status != expected {
        return Err(format!(
            "`status` is `{status}` but over_budget={over}, stale={} imply `{expected}`",
            stale.len()
        ));
    }
    Ok(())
}

/// Checks `doc` against the table it selects and returns the table's name
/// (the `bench` value, or `er-lint/1`).
pub fn validate(doc: &Json) -> Result<&'static str, String> {
    if let Some(bench) = doc.get("bench") {
        let bench = bench.as_str().ok_or("`bench` is not a string")?;
        let (name, table) = BENCHES
            .iter()
            .find(|(name, _)| *name == bench)
            .ok_or_else(|| format!("`bench` is `{bench}`, which no schema table knows"))?;
        run(doc, HEADER, "")?;
        run(doc, table, "")?;
        return Ok(name);
    }
    match doc.get("schema").and_then(Json::as_str) {
        Some("er-lint/1") => {
            run(doc, LINT, "").and_then(|()| lint_status(doc)).map(|()| "er-lint/1")
        }
        _ => Err("neither a `bench` field nor `schema` \"er-lint/1\"".into()),
    }
}

/// Reads, parses and [`validate`]s the document at `path`.
pub fn validate_file(path: &Path) -> Result<&'static str, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    validate(&doc)
}

fn lookup<'d>(doc: &'d Json, path: &str, at: &str) -> Result<&'d Json, String> {
    path.split('.')
        .try_fold(doc, |cur, key| cur.get(key))
        .ok_or_else(|| format!("missing field `{at}{path}`"))
}

/// A finite, non-negative number at `path`.
fn number(doc: &Json, path: &str, at: &str) -> Result<f64, String> {
    lookup(doc, path, at)?
        .as_f64()
        .filter(|v| v.is_finite() && *v >= 0.0)
        .ok_or_else(|| format!("`{at}{path}` is not a finite non-negative number"))
}

fn uint(doc: &Json, path: &str, at: &str) -> Result<u64, String> {
    lookup(doc, path, at)?
        .as_u64()
        .ok_or_else(|| format!("`{at}{path}` is not an unsigned integer"))
}

fn string<'d>(doc: &'d Json, path: &str, at: &str) -> Result<&'d str, String> {
    lookup(doc, path, at)?.as_str().ok_or_else(|| format!("`{at}{path}` is not a string"))
}

fn array<'d>(doc: &'d Json, path: &str, at: &str) -> Result<&'d [Json], String> {
    lookup(doc, path, at)?.as_arr().ok_or_else(|| format!("`{at}{path}` is not an array"))
}

/// Runs `table` over `doc`; `at` prefixes every reported path (the row
/// position inside [`Check::Rows`]).
fn run(doc: &Json, table: &[Check], at: &str) -> Result<(), String> {
    for check in table {
        match *check {
            Check::Str(p) => string(doc, p, at).map(|_| ())?,
            Check::NonEmpty(p) => {
                if string(doc, p, at)?.is_empty() {
                    return Err(format!("`{at}{p}` is empty"));
                }
            }
            Check::OptStr(p) => {
                if doc.get(p).is_some() {
                    string(doc, p, at)?;
                }
            }
            Check::OneOf(p, allowed) => {
                let s = string(doc, p, at)?;
                if !allowed.contains(&s) {
                    return Err(format!("`{at}{p}` is `{s}`, expected one of {allowed:?}"));
                }
            }
            Check::Uint(p) => uint(doc, p, at).map(|_| ())?,
            Check::Pos(p) => {
                if uint(doc, p, at)? == 0 {
                    return Err(format!("`{at}{p}` is 0, expected a positive integer"));
                }
            }
            Check::Num(p) => number(doc, p, at).map(|_| ())?,
            Check::PosNum(p) => {
                if number(doc, p, at)? <= 0.0 {
                    return Err(format!("`{at}{p}` must be positive"));
                }
            }
            Check::Within(p, lo, hi) => {
                let v = number(doc, p, at)?;
                if !(lo..=hi).contains(&v) {
                    return Err(format!("`{at}{p}` is {v}, outside the bar [{lo}, {hi}]"));
                }
            }
            Check::True(p) => {
                if lookup(doc, p, at)? != &Json::Bool(true) {
                    return Err(format!("`{at}{p}` must be true"));
                }
            }
            Check::Ge(hi, lo) => {
                let (h, l) = (number(doc, hi, at)?, number(doc, lo, at)?);
                if h < l {
                    return Err(format!("`{at}{hi}` ({h}) is below `{at}{lo}` ({l})"));
                }
            }
            Check::Eq(p, base, offset) => {
                let (v, b) = (uint(doc, p, at)?, uint(doc, base, at)?);
                if v != b + offset {
                    return Err(format!("`{at}{p}` is {v}, expected `{at}{base}` + {offset}"));
                }
            }
            Check::Rows(p, row) => {
                for (i, r) in array(doc, p, at)?.iter().enumerate() {
                    run(r, row, &format!("{at}{p}[{i}]."))?;
                }
            }
            Check::Column(p, key, expected) => {
                let rows = array(doc, p, at)?;
                if rows.len() != expected.len() {
                    let n = rows.len();
                    return Err(format!("`{at}{p}` has {n} rows, expected {key}s {expected:?}"));
                }
                for (i, (row, want)) in rows.iter().zip(expected).enumerate() {
                    let got = match row.get(key) {
                        Some(Json::Str(s)) => s.clone(),
                        Some(v) => v.render(),
                        None => "missing".into(),
                    };
                    if got != *want {
                        return Err(format!("`{at}{p}[{i}].{key}` is {got}, expected {want}"));
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn root() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    /// Every committed `BENCH_*.json` plus `results/lint.json`.
    fn committed() -> Vec<PathBuf> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(root())
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                let name = p.file_name().unwrap().to_string_lossy();
                name.starts_with("BENCH_") && name.ends_with(".json")
            })
            .collect();
        paths.sort();
        paths.push(root().join("results/lint.json"));
        paths
    }

    /// `BENCH_<stem>.json`, or `results/lint.json` for the stem `lint`.
    fn load(stem: &str) -> Json {
        let path = match stem {
            "lint" => root().join("results/lint.json"),
            _ => root().join(format!("BENCH_{stem}.json")),
        };
        Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    /// Replaces (or, with `None`, removes) the value at a path in the
    /// validator's own notation (`batch[3].threads`).
    fn mutate(doc: &mut Json, path: &str, value: Option<Json>) {
        let (parent, last) = path.rsplit_once('.').unwrap_or(("", path));
        let mut cur = doc;
        for seg in parent.split('.').filter(|s| !s.is_empty()) {
            let (key, index) = match seg.strip_suffix(']').and_then(|s| s.split_once('[')) {
                Some((key, i)) => (key, Some(i.parse::<usize>().unwrap())),
                None => (seg, None),
            };
            let Json::Obj(fields) = cur else { panic!("`{path}`: `{key}` has no object parent") };
            cur = &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1;
            if let Some(i) = index {
                let Json::Arr(items) = cur else { panic!("`{path}`: `{key}` is not an array") };
                cur = &mut items[i];
            }
        }
        let Json::Obj(fields) = cur else { panic!("`{path}` has no object parent") };
        let slot = fields.iter().position(|(k, _)| k == last).unwrap();
        match value {
            Some(v) => fields[slot].1 = v,
            None => drop(fields.remove(slot)),
        }
    }

    #[test]
    fn every_committed_document_passes_and_every_table_is_exercised() {
        let mut seen: Vec<&str> = committed()
            .iter()
            .map(|p| validate_file(p).unwrap_or_else(|e| panic!("{}: {e}", p.display())))
            .collect();
        seen.sort_unstable();
        let mut tables: Vec<&str> = BENCHES.iter().map(|(name, _)| *name).collect();
        tables.push("er-lint/1");
        tables.sort_unstable();
        assert_eq!(seen, tables);
    }

    #[test]
    fn each_carried_over_check_fails_its_mutated_copy_and_names_the_field() {
        let str = |s: &str| Some(Json::Str(s.into()));
        let cases = [
            ("query", "single_query.p50_us", None),
            ("pipeline", "detected_cores", None),
            ("serve", "round_trip.p50_us", Some(Json::Num(f64::INFINITY))),
            ("pruning", "results[0].min_ms", Some(Json::Null)),
            ("query", "single_query.p99_us", Some(Json::Num(0.0))),
            ("query", "batch[3].threads", Some(Json::Uint(16))),
            ("serve", "final_generation", Some(Json::Uint(99))),
            ("serve", "requests_served", Some(Json::Uint(1))),
            ("delta", "upsert.applied_queryable_p50_us", Some(Json::Num(1500.0))),
            ("delta", "speedup_vs_rebuild", Some(Json::Num(999.0))),
            ("delta", "compaction.bit_identical", Some(Json::Bool(false))),
            ("pipeline", "results[0].impl", str("legacy")),
            ("lint", "status", str("violations")),
            ("query", "bench", str("query_latency_v2")),
        ];
        for (stem, path, value) in cases {
            let mut doc = load(stem);
            assert!(validate(&doc).is_ok(), "{stem} must pass before it is mutated");
            mutate(&mut doc, path, value);
            let err = validate(&doc).expect_err(&format!("{stem} with a mutated {path} passed"));
            assert!(err.contains(&format!("`{path}`")), "{stem}: `{err}` does not name `{path}`");
        }
    }

    #[test]
    fn a_document_of_no_known_kind_is_rejected() {
        let err = validate(&Json::parse(r#"{"schema":"er-lint/2"}"#).unwrap()).unwrap_err();
        assert!(err.contains("er-lint/1"), "{err}");
        assert!(validate_file(Path::new("no/such/file.json")).is_err());
    }
}
