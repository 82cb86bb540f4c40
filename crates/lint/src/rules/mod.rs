//! The rule registry and dispatch.
//!
//! Per-file rules (the seven legacy rules plus `unordered-iteration`) run
//! against one file's [`crate::items::Model`]; workspace passes
//! (`panic-reachability`, `codec-coverage`) run once over the full analyzed
//! set. Every rule is described by a [`RuleInfo`] — `er-lint --explain
//! <rule>` prints it, and the JSON output echoes its severity.
//!
//! # Authoring a rule
//!
//! 1. Add a `RuleInfo` entry to [`RULES`] (name, severity, rationale).
//! 2. Match on the token stream / item model, not on line text: take a
//!    [`crate::items::Model`] and emit findings via [`Ctx::report`]. Code
//!    inside `#[cfg(test)]` regions is already excluded if you honor
//!    [`Ctx::in_test_line`] / token-level `Model::in_test`.
//! 3. Respect suppressions: the driver drops findings covered by a
//!    `// lint:allow(<rule>) <reason>` directive, so rules just report.
//! 4. Pin the rule with corpus fixtures in `tests/lint_corpus/` — one
//!    known-bad snippet per failure mode, one known-good snippet per
//!    designed exemption.

pub mod codec_cov;
pub mod legacy;
pub mod panic_reach;
pub mod unordered;

use crate::items::Model;
use crate::Finding;

/// Metadata for one rule.
pub struct RuleInfo {
    /// Stable rule name, as used in findings, allowlist entries and
    /// `lint:allow` directives.
    pub name: &'static str,
    /// `"error"` (fails the lint when over budget) — reserved for a future
    /// `"warn"` tier.
    pub severity: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// The full rationale printed by `--explain`.
    pub explain: &'static str,
}

/// Every rule the engine knows, in stable order.
pub const RULES: [RuleInfo; 10] = [
    RuleInfo {
        name: "no-panic",
        severity: "error",
        summary: "no unwrap/expect/panic!/unimplemented!/todo! in library code",
        explain: "Million-entity pipelines run for minutes; recoverable conditions must \
                  surface as er_model::error::Result, not aborts. assert!/unreachable! \
                  stating genuine invariants are allowed — the mb-sanitize layer is built \
                  on them. Test code is exempt.",
    },
    RuleInfo {
        name: "default-hasher",
        severity: "error",
        summary: "no std::collections::HashMap/HashSet in hot-path crates",
        explain: "The er-model, mb-core and er-blocking workloads are hashing-bound; \
                  id-keyed maps must use er_model::fxhash (FxHashMap/FxHashSet). SipHash's \
                  DoS resistance buys nothing for integer keys and costs ~2-3x.",
    },
    RuleInfo {
        name: "id-narrowing-cast",
        severity: "error",
        summary: "no bare `as u32/u16/u8` feeding an EntityId/BlockId constructor",
        explain: "A truncating cast into an id constructor silently aliases one entity as \
                  another past 2^32. Use the checked EntityId::from_index / \
                  BlockId::from_index constructors (or try_from) so overflow fails loudly.",
    },
    RuleInfo {
        name: "float-eq",
        severity: "error",
        summary: "no exact ==/!= against float literals in weighting/pruning code",
        explain: "Edge weights come out of accumulation loops whose rounding depends on \
                  sweep order; exact comparison against a literal is a latent \
                  nondeterminism. Use epsilon comparisons or total_cmp. Applies to the \
                  weight/prune/scanner/blast files of mb-core.",
    },
    RuleInfo {
        name: "adhoc-logging",
        severity: "error",
        summary: "no println!/eprintln!/dbg! in library code",
        explain: "Run telemetry flows through the mb-observe observer sinks, which own the \
                  terminal; libraries stay silent and composable. Binaries (src/bin/, \
                  main.rs) and crates/observe itself are exempt.",
    },
    RuleInfo {
        name: "owned-id-vec-field",
        severity: "error",
        summary: "no new Vec<EntityId> struct fields in er-model",
        explain: "Per-block owned member vectors are the layout the CSR arena refactor \
                  eliminated (one heap allocation per block). Member storage belongs in \
                  the arena's single flat pool; reads go through borrowed BlockRef views. \
                  The designed exceptions are budgeted in lint-allowlist.txt.",
    },
    RuleInfo {
        name: "snapshot-unversioned-read",
        severity: "error",
        summary: "no raw from_le_bytes in mb-serve outside the codec Reader",
        explain: "Every byte a snapshot decoder interprets must flow through the \
                  bounds-checked codec::Reader, which is only reachable after the magic + \
                  format-version gate — a future layout can never be misread as the \
                  current one. The Reader's two primitive decoders are the budgeted \
                  exception.",
    },
    RuleInfo {
        name: "unordered-iteration",
        severity: "error",
        summary: "no hash-map/set iteration flowing into ordered outputs unsorted",
        explain: "FxHashMap/FxHashSet iteration order is arbitrary; results that flow \
                  into returned collections, emitted sequences or snapshot sections \
                  without an intervening sort (or BTree collection) silently break the \
                  bit-identical multi-threaded pruning guarantee the 8x5xthreads \
                  equivalence matrix pins. Order-insensitive reductions (sum, count, min, \
                  max, any, all) and chains ending in a sort are fine. Alias-aware: \
                  `use FxHashMap as Cache` is still caught.",
    },
    RuleInfo {
        name: "panic-reachability",
        severity: "error",
        summary: "no panic/unwrap/unguarded-indexing path reachable from mb-serve entry points",
        explain: "The serving layer promises hostile-input safety: QueryEngine and the \
                  snapshot codec must never abort. This pass builds a conservative \
                  name-resolved workspace call graph from the public mb-serve functions \
                  and flags panic!/todo!/unimplemented!, .unwrap()/.expect(), and \
                  slice-indexing without a dominating assert in every reachable function \
                  — upgrading the syntactic no-panic rule to a reachability argument. \
                  Designed aborts are annotated in-source with lint:allow, each with a \
                  stated invariant.",
    },
    RuleInfo {
        name: "codec-coverage",
        severity: "error",
        summary: "every snapshot field written by encode_* has a matching checked decode",
        explain: "Snapshot section encoders (put_u8/u32/u64/bytes/u32_slice, keyed by \
                  SECTION_* constants) and their Reader-based or in-place \
                  (u32_section/bytes_section) decoders are extracted as \
                  primitive op-sequences (loops compress to length-prefixed sequences) \
                  and compared per section: a field written without a matching \
                  bounds-checked read — or decoded at a different width, or a decode \
                  segment that never calls finish() — is section-format drift that would \
                  otherwise only surface in the byte-flip tests.",
    },
];

/// Looks a rule up by name.
pub fn rule_info(name: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == name)
}

/// Shared context handed to per-file rules.
pub struct Ctx<'a> {
    /// Workspace-relative path.
    pub path: &'a str,
    /// Raw source text.
    pub src: &'a str,
    /// The file's item model.
    pub model: &'a Model,
    /// Findings accumulator.
    pub findings: &'a mut Vec<Finding>,
}

impl Ctx<'_> {
    /// Emits a finding at 1-based `line`, snippeting that source line.
    pub fn report(&mut self, rule: &'static str, line: u32, note: Option<String>) {
        self.findings.push(Finding {
            file: self.path.to_string(),
            line: line as usize,
            rule,
            snippet: snippet_of(self.src, line),
            note,
        });
    }

    /// Whether `line` lies in a `#[cfg(test)]` region.
    pub fn in_test_line(&self, line: u32) -> bool {
        self.model.line_in_test(line)
    }
}

/// The trimmed source line at 1-based `line`, capped at 96 chars.
pub fn snippet_of(src: &str, line: u32) -> String {
    src.lines().nth(line.saturating_sub(1) as usize).unwrap_or("").trim().chars().take(96).collect()
}

/// Runs every per-file rule over one modeled file.
pub fn run_file_rules(ctx: &mut Ctx<'_>) {
    legacy::run(ctx);
    unordered::run(ctx);
}
