//! The one validator for `BENCHMARK.json`.
//!
//! It checks the file's shape — exactly the six top-level keys, the counts,
//! character sets and length limits of every name, unit and path, the
//! bounds — and returns what the file declares, so a run can check that it
//! emits exactly the declared metrics with the declared units.

use mb_observe::json::Json;

/// Largest accepted file.
const MAX_BYTES: usize = 64 * 1024;
/// Largest accepted regression bound.
const MAX_BOUND: f64 = 0.25;

/// A metric as declared.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// What a valid `BENCHMARK.json` declares.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics.
    pub per_layer: Vec<Metric>,
    /// Seconds one run measures.
    pub run_seconds: u64,
}

fn fields(v: &Json) -> Option<&[(String, Json)]> {
    match v {
        Json::Obj(f) => Some(f),
        _ => None,
    }
}

fn exact_keys(v: &Json, keys: &[&str], what: &str, errs: &mut Vec<String>) -> bool {
    let Some(f) = fields(v) else {
        errs.push(format!("{what}: not an object"));
        return false;
    };
    let mut got: Vec<&str> = f.iter().map(|(k, _)| k.as_str()).collect();
    got.sort_unstable();
    let mut want = keys.to_vec();
    want.sort_unstable();
    if got != want {
        errs.push(format!("{what}: keys {got:?}, want exactly {want:?}"));
        return false;
    }
    true
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn is_path(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 200
        && !s.starts_with('/')
        && s.split('/').all(|part| part != "..")
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '/'))
}

fn array<'a>(
    doc: &'a Json,
    key: &str,
    range: std::ops::RangeInclusive<usize>,
    errs: &mut Vec<String>,
) -> &'a [Json] {
    match doc.get(key).and_then(Json::as_arr) {
        Some(a) if range.contains(&a.len()) => a,
        Some(a) => {
            errs.push(format!("{key}: {} entries, want {range:?}", a.len()));
            a
        }
        None => {
            errs.push(format!("{key}: missing or not an array"));
            &[]
        }
    }
}

fn metrics(
    doc: &Json,
    key: &str,
    range: std::ops::RangeInclusive<usize>,
    with_bound: bool,
    names: &mut Vec<String>,
    errs: &mut Vec<String>,
) -> Vec<Metric> {
    let keys: &[&str] =
        if with_bound { &["name", "unit", "better", "bound"] } else { &["name", "unit", "better"] };
    let mut out = Vec::new();
    for (i, m) in array(doc, key, range, errs).iter().enumerate() {
        let what = format!("{key}[{i}]");
        if !exact_keys(m, keys, &what, errs) {
            continue;
        }
        let name = m.get("name").and_then(Json::as_str).unwrap_or_default().to_owned();
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default().to_owned();
        if !is_name(&name) {
            errs.push(format!("{what}: bad name {name:?}"));
        }
        if !is_unit(&unit) {
            errs.push(format!("{what}: bad unit {unit:?}"));
        }
        let higher_is_better = match m.get("better").and_then(Json::as_str) {
            Some("higher") => true,
            Some("lower") => false,
            other => {
                errs.push(format!("{what}: better must be lower or higher, got {other:?}"));
                false
            }
        };
        let bound = if with_bound {
            match m.get("bound").and_then(Json::as_f64) {
                Some(b) if b > 0.0 && b <= MAX_BOUND => Some(b),
                other => {
                    errs.push(format!("{what}: bound {other:?} outside (0, {MAX_BOUND}]"));
                    None
                }
            }
        } else {
            None
        };
        names.push(name.clone());
        out.push(Metric { name, unit, higher_is_better, bound });
    }
    out
}

/// Validates the text of a `BENCHMARK.json`; on failure returns every
/// problem found.
pub fn validate(text: &str) -> Result<Declared, Vec<String>> {
    let mut errs = Vec::new();
    if text.len() > MAX_BYTES {
        errs.push(format!("file is {} bytes, limit {MAX_BYTES}", text.len()));
    }
    let doc = match Json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return Err(vec![format!("not JSON: {e}")]),
    };
    let top = ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"];
    exact_keys(&doc, &top, "BENCHMARK.json", &mut errs);

    let command = array(&doc, "command", 1..=32, &mut errs);
    for (i, arg) in command.iter().enumerate() {
        match arg.as_str() {
            Some(s)
                if s.len() <= 200 && !s.starts_with('/') && !s.split('/').any(|p| p == "..") => {}
            _ => errs.push(format!("command[{i}]: not a relative string of <= 200 characters")),
        }
    }
    for (i, p) in array(&doc, "paths", 1..=16, &mut errs).iter().enumerate() {
        if !p.as_str().is_some_and(is_path) {
            errs.push(format!("paths[{i}]: bad path {p:?}"));
        }
    }
    let run_seconds = match doc.get("run_seconds") {
        Some(Json::Uint(s)) if (1..=60).contains(s) => *s,
        other => {
            errs.push(format!("run_seconds: {other:?} is not a whole number in 1..=60"));
            0
        }
    };

    let mut names: Vec<String> = Vec::new();
    let mut workloads = Vec::new();
    for (i, w) in array(&doc, "workloads", 2..=8, &mut errs).iter().enumerate() {
        let what = format!("workloads[{i}]");
        if !exact_keys(w, &["name", "why"], &what, &mut errs) {
            continue;
        }
        let name = w.get("name").and_then(Json::as_str).unwrap_or_default().to_owned();
        if !is_name(&name) {
            errs.push(format!("{what}: bad name {name:?}"));
        }
        match w.get("why").and_then(Json::as_str) {
            Some(why) if !why.is_empty() && why.len() <= 200 && !why.contains('\n') => {}
            _ => errs.push(format!("{what}: why must be one line of 1..=200 characters")),
        }
        names.push(name.clone());
        workloads.push(name);
    }
    let end_to_end = metrics(&doc, "end_to_end", 1..=16, true, &mut names, &mut errs);
    let per_layer = metrics(&doc, "per_layer", 1..=128, false, &mut names, &mut errs);
    match end_to_end.iter().find(|m| m.name == "setup_s") {
        Some(m) if m.unit == "s" && !m.higher_is_better => {}
        _ => errs.push("end_to_end: needs setup_s with unit s and better lower".to_owned()),
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    for pair in sorted.windows(2) {
        if pair[0] == pair[1] {
            errs.push(format!("name {:?} is used more than once", pair[0]));
        }
    }
    if errs.is_empty() {
        Ok(Declared { workloads, end_to_end, per_layer, run_seconds })
    } else {
        Err(errs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{
      "command": ["cargo", "run"], "paths": ["perfbench"], "run_seconds": 10,
      "workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
      "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
      "per_layer": [{"name": "l.count", "unit": "count", "better": "higher"}]
    }"#;

    #[test]
    fn accepts_a_minimal_file() {
        let d = validate(MINIMAL).expect("minimal file is valid");
        assert_eq!(d.workloads, ["a", "b"]);
        assert_eq!(d.end_to_end[0].bound, Some(0.25));
        assert_eq!(d.run_seconds, 10);
    }

    #[test]
    fn rejects_contract_violations() {
        let bad = [
            MINIMAL.replace("\"run_seconds\": 10", "\"run_seconds\": 61"),
            MINIMAL.replace("0.25}", "0.3}"),
            MINIMAL.replace("\"perfbench\"", "\"../perfbench\""),
            MINIMAL.replace("\"name\": \"b\"", "\"name\": \"a\""),
            MINIMAL.replace("\"why\": \"y\"", "\"why\": \"y\", \"extra\": 1"),
            MINIMAL.replace("setup_s", "set_up"),
            MINIMAL.replace("\"count\"", "\"counts per second!\""),
            MINIMAL.replace("\"higher\"", "\"up\""),
            MINIMAL.replace("\"run_seconds\": 10,", "\"run_seconds\": 10, \"notes\": 1,"),
        ];
        for text in bad {
            assert!(validate(&text).is_err(), "accepted: {text}");
        }
    }

    #[test]
    fn the_repository_benchmark_json_is_valid() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let d = validate(&text).unwrap_or_else(|e| panic!("invalid BENCHMARK.json: {e:#?}"));
        let mut workloads = d.workloads.clone();
        workloads.sort_unstable();
        assert_eq!(workloads, ["batch-d2c", "serve-mixed-d1c", "serve-read-d2c"]);
        for m in crate::END_TO_END.iter().chain(crate::PER_LAYER) {
            let declared = d.end_to_end.iter().chain(&d.per_layer).find(|x| x.name == m.0);
            assert_eq!(declared.map(|x| x.unit.as_str()), Some(m.1), "metric {}", m.0);
        }
        assert_eq!(d.end_to_end.len(), crate::END_TO_END.len());
        assert_eq!(d.per_layer.len(), crate::PER_LAYER.len());
    }
}
