//! Pieces every workload shares: the run report, the work directory,
//! input generation, and small timing helpers.

use er_datagen::{presets, GeneratedDataset};
use mb_observe::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (passes, requests, writes, compactions).
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// Human-readable description of every wrong output.
    pub problems: Vec<String>,
    /// Run facts printed beside the result: seed, cores, sizes, rates.
    pub meta: Vec<(String, Json)>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// A report for `args`, with every per-layer metric at 0 until the
    /// workload measures it: a layer that did no work in the run reads 0.
    pub fn new(args: &crate::Args) -> Report {
        let metrics = crate::PER_LAYER.iter().map(|(name, _)| (*name, 0.0)).collect();
        let mut r = Report { metrics, ..Report::default() };
        r.note("workload", Json::Str(args.workload.clone()));
        r.note("seed", Json::Uint(args.seed));
        r.note("nproc", Json::Uint(nproc() as u64));
        r.note("seconds", Json::Num(args.seconds));
        r.note("trace", Json::Bool(args.trace));
        r
    }

    /// Records a metric; the name must be one of the declared tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let known = crate::END_TO_END.iter().chain(crate::PER_LAYER).any(|(n, _)| *n == name);
        assert!(known, "metric {name} is not declared");
        self.metrics.insert(name, value);
    }

    /// A recorded metric.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Records a run fact.
    pub fn note(&mut self, key: &str, value: Json) {
        self.meta.push((key.to_owned(), value));
    }

    /// Counts one checked operation, failing it with `problem` if wrong.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(problem());
            }
        }
    }

    /// Records the heap high-water mark since [`rebase_heap`].
    pub fn set_peak_heap(&mut self) {
        self.set("peak_heap_mb", crate::heap::peak_bytes() as f64 / (1024.0 * 1024.0));
    }
}

/// Starts heap tracking afresh: the peak becomes what is live now.
pub fn rebase_heap() {
    crate::heap::rebase();
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// A work directory inside the working directory, removed on drop.
#[derive(Debug)]
pub struct WorkDir {
    root: PathBuf,
}

impl WorkDir {
    /// Creates `.bench_work/<workload>-<seed>-<pid>`.
    pub fn create(workload: &str, seed: u64) -> Result<WorkDir, String> {
        let root =
            Path::new(".bench_work").join(format!("{workload}-{seed}-{}", std::process::id()));
        std::fs::create_dir_all(&root).map_err(|e| format!("creating {}: {e}", root.display()))?;
        Ok(WorkDir { root })
    }

    /// A path inside the directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leaves the parent only if no concurrent run still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Which generated dataset a workload uses.
#[derive(Debug, Clone, Copy)]
pub enum Preset {
    /// The D2C-like movie linkage preset (50,797 profiles).
    D2c,
    /// The D1C-like bibliographic preset (63,869 profiles).
    D1c,
}

/// Generates the preset's dataset from `seed` (input generation is never
/// timed).
pub fn generate(preset: Preset, seed: u64) -> Result<GeneratedDataset, String> {
    let config = match preset {
        Preset::D2c => presets::d2c(seed),
        Preset::D1c => presets::d1c(seed),
    };
    er_datagen::generate(&config).map_err(|e| format!("generating input: {e}"))
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with the elapsed milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, ms_since(start))
}
