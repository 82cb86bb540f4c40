//! `serve-mixed-d1c`: reads beside a live write feed on a served D1C index.
//!
//! One connection reads in a closed loop (uniform entity queries over the
//! original entities). The other is an open-loop write feed at
//! [`WRITE_RATE`]: 70% appends, 20% replacements, 10% deletes of earlier
//! appends. Every [`COMPACT_EVERY`] writes the feed asks the server to
//! compact against a bundle the benchmark keeps merged; the feed waits the
//! compaction out and restarts its schedule after it. Each compacted
//! snapshot must be byte-identical to `Snapshot::build` over the
//! benchmark's own `merge_ops` mirror.

use super::{ReadStream, Served};
use crate::common::{self, Preset, Report};
use crate::loadgen::{lateness, OpenLoop};
use crate::stats;
use crate::trace::{Span, Tracer};
use crate::Args;
use er_datagen::rng::SmallRng;
use er_io::bundle::Bundle;
use er_model::{EntityCollection, EntityId, EntityProfile, GroundTruth};
use mb_observe::json::Json;
use mb_observe::Noop;
use mb_serve::{merge_ops, CandidateRequest, Client, DeltaOp, GenerationCell, QueryEngine};
use mb_serve::{ServerHandle, Snapshot, SnapshotView, APPEND};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Writes per second the feed sends.
pub const WRITE_RATE: f64 = 200.0;
/// Writes between compactions.
pub const COMPACT_EVERY: usize = 600;
/// Most logged ops the traced run replays in process.
const REPLAY_OPS: usize = 1_000;
/// Probe queries the traced run times the engine on.
const PROBES: usize = 256;

/// What the write feed measured and checked.
#[derive(Debug, Default)]
struct WriteStream {
    /// Each write's latency from its due time, µs.
    lat_us: Vec<f64>,
    /// How late each write was sent, ms.
    lag_ms: Vec<f64>,
    /// Client-observed compaction times, ms.
    compact_ms: Vec<f64>,
    /// `merge_ops` over the mirror, ms.
    merge_ms: Vec<f64>,
    /// Writes and compactions attempted.
    attempted: u64,
    /// Wrong or failed writes and compactions.
    problems: Vec<String>,
    /// The ops of the first segment, as applied (ids resolved).
    first_segment: Vec<DeltaOp>,
    /// The feed's spans.
    spans: Vec<Span>,
}

/// The feed's state between compactions.
struct Feed<'a> {
    rng: SmallRng,
    mirror: EntityCollection,
    gt: &'a GroundTruth,
    /// Entities in the last compacted generation.
    base_len: u32,
    /// Appends this segment that are still live.
    appended: Vec<u32>,
    /// URIs of this segment's appends.
    uris: BTreeMap<u32, String>,
    deleted: BTreeSet<u32>,
    ops: Vec<DeltaOp>,
    made: u64,
    seed: u64,
}

impl Feed<'_> {
    fn next_id(&self) -> u32 {
        self.base_len + self.uris.len() as u32
    }

    /// A profile carrying a random original entity's attributes.
    fn donor_profile(&mut self, uri: String) -> EntityProfile {
        let donor = self.rng.gen_below(self.base_len as u64) as u32;
        let mut p = EntityProfile::new(uri);
        for a in self.mirror.profile(EntityId(donor)).attributes() {
            p.add(a.name.clone(), a.value.clone());
        }
        p
    }

    /// Chooses and sends the next write; returns what went wrong, if
    /// anything.
    fn write(&mut self, client: &mut Client, tracer: &mut Tracer, i: u64) -> Result<(), String> {
        let roll = self.rng.gen_below(10);
        if roll == 9 && !self.appended.is_empty() {
            let at = self.rng.gen_below(self.appended.len() as u64) as usize;
            let id = self.appended.swap_remove(at);
            let sent = tracer.span("serve.client.delete", i, || client.delete(id));
            sent.map_err(|e| format!("delete {id}: {e}"))?;
            self.deleted.insert(id);
            self.ops.push(DeltaOp::Delete { id });
        } else if (7..9).contains(&roll) {
            let id = loop {
                let id = self.rng.gen_below(self.next_id() as u64) as u32;
                if !self.deleted.contains(&id) {
                    break id;
                }
            };
            let uri = match self.uris.get(&id) {
                Some(u) => u.clone(),
                None => self.mirror.profile(EntityId(id)).uri().to_owned(),
            };
            let profile = self.donor_profile(uri);
            let sent = tracer.span("serve.client.upsert", i, || client.upsert(id, &profile));
            let (_, got) = sent.map_err(|e| format!("replace {id}: {e}"))?;
            if got != id {
                return Err(format!("replacing {id} answered id {got}"));
            }
            self.ops.push(DeltaOp::Upsert { id, profile });
        } else {
            let want = self.next_id();
            self.made += 1;
            let uri = format!("perfbench-{}-{}", self.seed, self.made);
            let profile = self.donor_profile(uri.clone());
            let sent = tracer.span("serve.client.upsert", i, || client.upsert(APPEND, &profile));
            let (_, id) = sent.map_err(|e| format!("append: {e}"))?;
            if id != want {
                return Err(format!("append resolved to id {id}, expected {want}"));
            }
            self.uris.insert(id, uri);
            self.appended.push(id);
            self.ops.push(DeltaOp::Upsert { id, profile });
        }
        Ok(())
    }

    /// Compacts the server against `bundle`, folds the segment's ops into
    /// the mirror, checks the compacted file against a fresh build of the
    /// mirror, and saves the mirror as the next bundle.
    fn compact(
        &mut self,
        client: &mut Client,
        tracer: &mut Tracer,
        bundle: &Path,
        out: &Path,
        next_bundle: &Path,
        stream: &mut WriteStream,
    ) -> Result<(), String> {
        let (bundle_s, out_s) = (path_str(bundle)?, path_str(out)?);
        let start = Instant::now();
        let compacted =
            tracer.span("serve.client.compact", 0, || client.compact(bundle_s, Some(out_s)));
        compacted.map_err(|e| format!("compaction: {e}"))?;
        stream.compact_ms.push(common::ms_since(start));
        let ops = std::mem::take(&mut self.ops);
        let (merged, merge_ms) = common::timed(|| {
            tracer.span("serve.delta.merge", 0, || merge_ops(&mut self.mirror, &ops))
        });
        merged.map_err(|e| format!("merging the mirror: {e}"))?;
        stream.merge_ms.push(merge_ms);
        if stream.first_segment.is_empty() {
            stream.first_segment = ops;
        }
        let expected = Snapshot::build(&self.mirror, super::snapshot_config())
            .map_err(|e| format!("building the mirror: {e}"))?
            .to_bytes();
        let actual = std::fs::read(out).map_err(|e| format!("reading {}: {e}", out.display()))?;
        if actual != expected {
            return Err(format!(
                "compacted snapshot ({} bytes) differs from a build of the mirror ({} bytes)",
                actual.len(),
                expected.len()
            ));
        }
        let _ = std::fs::remove_file(out);
        er_io::bundle::save(next_bundle, &self.mirror, self.gt)
            .map_err(|e| format!("saving the merged bundle: {e}"))?;
        self.base_len = self.mirror.len() as u32;
        self.appended.clear();
        self.uris.clear();
        self.deleted.clear();
        Ok(())
    }
}

fn path_str(p: &Path) -> Result<&str, String> {
    p.to_str().ok_or_else(|| format!("non-UTF-8 path {}", p.display()))
}

#[allow(clippy::too_many_arguments)]
fn write_loop(
    addr: SocketAddr,
    start: Instant,
    deadline: Instant,
    trace: bool,
    seed: u64,
    mirror: EntityCollection,
    gt: &GroundTruth,
    first_bundle: PathBuf,
    work: &common::WorkDir,
    compact_every: usize,
) -> Result<WriteStream, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("writer: {e}"))?;
    let mut tracer = Tracer::new(trace, Instant::now());
    let base_len = mirror.len() as u32;
    let mut feed = Feed {
        rng: SmallRng::seed_from_u64(seed ^ 0x00D1_C0DE),
        mirror,
        gt,
        base_len,
        appended: Vec::new(),
        uris: BTreeMap::new(),
        deleted: BTreeSet::new(),
        ops: Vec::new(),
        made: 0,
        seed,
    };
    let mut out = WriteStream::default();
    let mut bundle = first_bundle;
    let mut schedule = OpenLoop::new(start, WRITE_RATE);
    let mut in_segment = 0usize;
    let mut compactions = 0usize;
    let mut i = 0u64;
    loop {
        let due = schedule.next_due();
        if due >= deadline {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        schedule.take();
        out.lag_ms.push(lateness(due, Instant::now()).as_secs_f64() * 1e3);
        out.attempted += 1;
        match feed.write(&mut client, &mut tracer, i) {
            Ok(()) => out.lat_us.push(due.elapsed().as_secs_f64() * 1e6),
            Err(e) => {
                out.lat_us.push(f64::INFINITY);
                out.problems.push(e);
            }
        }
        i += 1;
        in_segment += 1;
        if in_segment == compact_every && Instant::now() < deadline {
            compactions += 1;
            let next = work.path(&format!("bundle-{compactions}"));
            let snap = work.path(&format!("compact-{compactions}.mbsnap"));
            out.attempted += 1;
            if let Err(e) = feed.compact(&mut client, &mut tracer, &bundle, &snap, &next, &mut out)
            {
                out.problems.push(e);
                break;
            }
            bundle = next;
            in_segment = 0;
            schedule.reanchor(Instant::now());
        }
    }
    if out.first_segment.is_empty() {
        out.first_segment = std::mem::take(&mut feed.ops);
    }
    out.spans = tracer.spans().to_vec();
    Ok(out)
}

/// Replays logged ops through an in-process generation cell over the
/// starting snapshot, timing each apply and the engine rebuild a
/// connection pays on the generation it publishes.
fn delta_probe(report: &mut Report, snap_path: &Path, ops: &[DeltaOp]) -> Result<(), String> {
    let view = SnapshotView::read_from(snap_path, &mut Noop)
        .map_err(|e| format!("reloading snapshot: {e}"))?;
    let cell = GenerationCell::new(view).map_err(|e| format!("generation cell: {e}"))?;
    let mut apply_us = Vec::new();
    let mut build_us = Vec::new();
    for op in ops.iter().take(REPLAY_OPS) {
        let start = Instant::now();
        let applied = cell.apply(op.clone(), &mut Noop);
        apply_us.push(start.elapsed().as_secs_f64() * 1e6);
        report.check(applied.is_ok(), || format!("in-process replay of {op:?} failed"));
        let generation = cell.load();
        let start = Instant::now();
        let engine = QueryEngine::from_generation(&generation);
        build_us.push(start.elapsed().as_secs_f64() * 1e6);
        black_box(engine);
    }
    report.set("serve.delta.apply_p50_us", stats::percentile_or_zero(&apply_us, 50.0));
    report.set("serve.delta.apply_p99_us", stats::percentile_or_zero(&apply_us, 99.0));
    report.set("serve.engine.build_us", stats::percentile_or_zero(&build_us, 50.0));
    Ok(())
}

/// Counts the feed's writes and compactions, failing the wrong ones.
fn count_writes(report: &mut Report, writes: &WriteStream) {
    report.attempted += writes.attempted - writes.problems.len() as u64;
    for p in &writes.problems {
        report.check(false, || p.clone());
    }
}

/// Records the write path's per-layer figures: the feed's latencies from
/// due time, its lateness, compaction and merge times, the generations it
/// published, and an in-process replay of its first segment.
fn report_write_layers(
    report: &mut Report,
    writes: &WriteStream,
    published: u64,
    snap_path: &Path,
) -> Result<(), String> {
    if !writes.lat_us.is_empty() {
        let w = stats::summarize(&writes.lat_us);
        report.set("loadgen.write_p50_us", w.p50);
        report.set("loadgen.write_p99_us", w.tail);
    }
    report.set("loadgen.write_lag_p99_ms", stats::percentile_or_zero(&writes.lag_ms, 99.0));
    report.set("serve.compact_ms", stats::percentile_or_zero(&writes.compact_ms, 50.0));
    report.set("serve.delta.merge_ms", stats::percentile_or_zero(&writes.merge_ms, 50.0));
    report.set("serve.generation.published", published as f64);
    delta_probe(report, snap_path, &writes.first_segment)
}

/// Seconds the write path is driven on a workload without a write feed.
const PROBE_WRITES: Duration = Duration::from_secs(3);
/// Writes between compactions in that phase.
const PROBE_COMPACT_EVERY: usize = 250;

/// Drives the write path briefly on a workload that leaves it idle: the
/// same feed as this workload's, on `handle`'s server, after that
/// workload's own measured phase.
pub(super) fn write_probe(
    report: &mut Report,
    handle: &ServerHandle,
    bundle: &Bundle,
    bundle_dir: &Path,
    snap_path: &Path,
    work: &common::WorkDir,
    seed: u64,
) -> Result<(), String> {
    let before = handle.generation();
    let start = Instant::now();
    let writes = write_loop(
        handle.local_addr(),
        start,
        start + PROBE_WRITES,
        true,
        seed,
        bundle.collection.clone(),
        &bundle.ground_truth,
        bundle_dir.to_path_buf(),
        work,
        PROBE_COMPACT_EVERY,
    )?;
    count_writes(report, &writes);
    report_write_layers(report, &writes, handle.generation() - before, snap_path)
}

/// Runs the workload.
pub fn run(args: &Args, work: &common::WorkDir) -> Result<Report, String> {
    let mut report = Report::new(args);
    let bundle_dir = work.path("d1c");
    {
        let data = common::generate(Preset::D1c, args.seed)?;
        er_io::bundle::save(&bundle_dir, &data.collection, &data.ground_truth)
            .map_err(|e| format!("saving input bundle: {e}"))?;
    }
    common::rebase_heap();

    let snap_path = work.path("d1c.mbsnap");
    let served: Served = super::setup(&bundle_dir, &snap_path)?;
    super::report_setup(&mut report, &served);
    let n = served.bundle.collection.len();
    report.note("entities", Json::Uint(n as u64));
    report.note("connections", Json::Uint(2));
    report.note("read_loop", Json::Str("closed".into()));
    report.note("write_loop", Json::Str("open".into()));
    report.note("write_rate_per_s", Json::Num(WRITE_RATE));
    report.note("compact_every", Json::Uint(COMPACT_EVERY as u64));

    let addr = served.handle.local_addr();
    let start = Instant::now() + super::READ_WARMUP;
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let mirror = served.bundle.collection.clone();
    let gt = &served.bundle.ground_truth;
    let (reads, writes) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut rng = SmallRng::seed_from_u64(args.seed ^ 0x0EAD);
            let next = move || CandidateRequest::entity(EntityId(rng.gen_below(n as u64) as u32));
            super::read_loop(addr, start, deadline, args.trace, 0, next)
        });
        let writer = scope.spawn(|| {
            write_loop(
                addr,
                start,
                deadline,
                args.trace,
                args.seed,
                mirror,
                gt,
                bundle_dir.clone(),
                work,
                COMPACT_EVERY,
            )
        });
        (
            reader.join().expect("reader thread panicked"),
            writer.join().expect("writer thread panicked"),
        )
    });
    let window_s = args.seconds;
    let (reads, writes): (ReadStream, WriteStream) = (reads?, writes?);
    report.set_peak_heap();
    super::report_reads(&mut report, std::slice::from_ref(&reads), window_s);
    count_writes(&mut report, &writes);
    // Reads must move forward through generations, never back.
    let generations: Vec<u64> = reads.samples.iter().map(|(_, r)| r.generation).collect();
    report.check(generations.windows(2).all(|w| w[0] <= w[1]), || {
        "a reader saw the generation go backwards".to_owned()
    });
    let published = served.handle.generation().saturating_sub(1);
    report.note("writes", Json::Uint(writes.lat_us.len() as u64));
    report.note("compactions", Json::Uint(writes.compact_ms.len() as u64));
    report.note("generations_published", Json::Uint(published));

    if args.trace {
        report_write_layers(&mut report, &writes, published, &snap_path)?;
        let bundle = &served.bundle;
        crate::batch::layer_probe(&mut report, &bundle.collection, &bundle.ground_truth);
        // The reader sends entity queries only; probes built from indexed
        // profiles give the engine's probe path a figure too.
        let probes: Vec<CandidateRequest> = (0..PROBES as u32)
            .map(|id| {
                let id = EntityId(id * (n as u32 / PROBES as u32));
                let is_first = !bundle.collection.is_second(id);
                CandidateRequest::probe(bundle.collection.profile(id).clone(), is_first)
            })
            .collect();
        super::report_read_layers(&mut report, &snap_path, std::slice::from_ref(&reads), &probes)?;
        report.note("spans", Json::Uint((reads.spans.len() + writes.spans.len()) as u64));
    }
    served.handle.shutdown();
    Ok(report)
}
