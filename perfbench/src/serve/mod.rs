//! The served workloads' shared pieces: set-up from a bundle to the first
//! wire answer, the closed-loop reader, and the in-process layer probes the
//! traced run reports.

pub mod mixed;
pub mod read;

use crate::common::{self, Report, SETUP_REPEATS};
use crate::loadgen::ZipfPivots;
use crate::stats;
use crate::trace::{Span, Tracer};
use er_io::bundle::Bundle;
use er_model::EntityId;
use mb_core::{PipelineConfig, PruningScheme, WeightingScheme};
use mb_observe::json::Json;
use mb_observe::Noop;
use mb_serve::protocol::{parse_request, parse_response, request_bytes, response_bytes};
use mb_serve::{CandidateRequest, CandidateResponse, Client, QueryEngine, Server, ServerConfig};
use mb_serve::{ServerHandle, Snapshot, SnapshotView};
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// The served index: JS weighting, CNP retention, Block Filtering at 0.8.
pub fn snapshot_config() -> PipelineConfig {
    PipelineConfig {
        weighting: WeightingScheme::Js,
        pruning: PruningScheme::Cnp,
        filter_ratio: Some(0.8),
        ..PipelineConfig::default()
    }
}

/// Milliseconds each set-up step took (medians over the repeats).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `er_io::bundle::load`.
    pub bundle_load_ms: f64,
    /// `Snapshot::build`.
    pub build_ms: f64,
    /// `Snapshot::write_to`.
    pub write_ms: f64,
    /// `SnapshotView::read_from`.
    pub load_ms: f64,
    /// `Server::start`.
    pub start_ms: f64,
    /// Connect plus the first answered query.
    pub first_answer_ms: f64,
    /// The whole set-up, seconds.
    pub total_s: f64,
}

/// A running server and what set it up.
pub struct Served {
    /// The server.
    pub handle: ServerHandle,
    /// The bundle it was built from, as loaded.
    pub bundle: Bundle,
    /// Snapshot file size.
    pub snapshot_bytes: u64,
    /// Median step times over the set-up repeats.
    pub times: SetupTimes,
}

fn setup_once(
    bundle_dir: &Path,
    snap_path: &Path,
) -> Result<(ServerHandle, Bundle, u64, SetupTimes), String> {
    let start = Instant::now();
    let (bundle, bundle_load_ms) = common::timed(|| er_io::bundle::load(bundle_dir));
    let bundle = bundle.map_err(|e| format!("loading bundle: {e}"))?;
    let (snapshot, build_ms) =
        common::timed(|| Snapshot::build(&bundle.collection, snapshot_config()));
    let snapshot = snapshot.map_err(|e| format!("building snapshot: {e}"))?;
    let (written, write_ms) = common::timed(|| snapshot.write_to(snap_path));
    written.map_err(|e| format!("writing snapshot: {e}"))?;
    drop(snapshot);
    let (view, load_ms) = common::timed(|| SnapshotView::read_from(snap_path, &mut Noop));
    let view = view.map_err(|e| format!("loading snapshot view: {e}"))?;
    let snapshot_bytes = view.file_len() as u64;
    let (handle, start_ms) = common::timed(|| Server::start(view, ServerConfig::default()));
    let handle = handle.map_err(|e| format!("starting server: {e}"))?;
    let first = Instant::now();
    let mut client =
        Client::connect(handle.local_addr()).map_err(|e| format!("connecting: {e}"))?;
    client
        .execute(&CandidateRequest::entity(EntityId(0)))
        .map_err(|e| format!("first query: {e}"))?;
    let first_answer_ms = common::ms_since(first);
    let total_s = start.elapsed().as_secs_f64();
    drop(client);
    let times = SetupTimes {
        bundle_load_ms,
        build_ms,
        write_ms,
        load_ms,
        start_ms,
        first_answer_ms,
        total_s,
    };
    Ok((handle, bundle, snapshot_bytes, times))
}

/// Sets up [`SETUP_REPEATS`] times — bundle load, snapshot build, persist,
/// view load, server start, first answer — and keeps the last server.
pub fn setup(bundle_dir: &Path, snap_path: &Path) -> Result<Served, String> {
    let mut all: Vec<SetupTimes> = Vec::new();
    let mut kept: Option<(ServerHandle, Bundle, u64)> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((handle, ..)) = kept.take() {
            handle.shutdown();
        }
        let (handle, bundle, bytes, times) = setup_once(bundle_dir, snap_path)?;
        all.push(times);
        kept = Some((handle, bundle, bytes));
    }
    let (handle, bundle, snapshot_bytes) = kept.expect("set-up ran at least once");
    let med = |f: fn(&SetupTimes) -> f64| stats::median(&all.iter().map(f).collect::<Vec<_>>());
    let times = SetupTimes {
        bundle_load_ms: med(|t| t.bundle_load_ms),
        build_ms: med(|t| t.build_ms),
        write_ms: med(|t| t.write_ms),
        load_ms: med(|t| t.load_ms),
        start_ms: med(|t| t.start_ms),
        first_answer_ms: med(|t| t.first_answer_ms),
        total_s: med(|t| t.total_s),
    };
    Ok(Served { handle, bundle, snapshot_bytes, times })
}

/// Records the set-up figures, end-to-end and per layer.
pub fn report_setup(report: &mut Report, served: &Served) {
    report.set("setup_s", served.times.total_s);
    report_setup_layers(report, &served.times, served.snapshot_bytes);
}

/// Records the set-up steps as per-layer figures.
fn report_setup_layers(report: &mut Report, t: &SetupTimes, snapshot_bytes: u64) {
    report.set("io.bundle_load_ms", t.bundle_load_ms);
    report.set("serve.snapshot.build_ms", t.build_ms);
    report.set("serve.snapshot.write_ms", t.write_ms);
    report.set("serve.snapshot.load_ms", t.load_ms);
    report.set("serve.snapshot.bytes", snapshot_bytes as f64);
    report.set("serve.server.start_ms", t.start_ms);
    report.note("snapshot_bytes", Json::Uint(snapshot_bytes));
    report.note("setup_first_answer_ms", Json::Num(t.first_answer_ms));
}

/// Keep every this-many-th wire answer for the output check.
const SAMPLE_EVERY: u64 = 16;
/// Most answers kept per reader.
const MAX_SAMPLES: usize = 4_000;
/// Traced runs alternate traced and untraced windows of this length.
const TRACE_WINDOW: Duration = Duration::from_millis(500);
/// Readers run this long before the measuring window opens, so the
/// snapshot's pages and the engines' per-query buffers are warm.
pub const READ_WARMUP: Duration = Duration::from_secs(1);
/// Read figures are taken per window of this length, then their median
/// across windows is reported, so a short burst of outside load moves one
/// window, not the result.
const STATS_WINDOW: Duration = Duration::from_millis(500);

/// What one closed-loop reader measured.
#[derive(Debug, Default)]
pub struct ReadStream {
    /// Round-trip latency of every measured request, µs (failures as
    /// infinity), by [`STATS_WINDOW`] the request started in.
    pub windows: Vec<Vec<f64>>,
    /// Sampled requests with the answers the wire gave.
    pub samples: Vec<(CandidateRequest, CandidateResponse)>,
    /// Requests that failed, with why.
    pub errors: Vec<String>,
    /// Requests completed in traced windows, and those windows' seconds.
    pub traced: (u64, f64),
    /// Requests completed in untraced windows, and those windows' seconds.
    pub untraced: (u64, f64),
    /// The reader's spans.
    pub spans: Vec<Span>,
}

/// Sends `next()`'s requests back to back on one connection until
/// `deadline`, recording those that start after `measure_from`. With
/// `trace`, windows alternate between traced and untraced, so the run
/// measures its own tracing overhead.
pub fn read_loop(
    addr: SocketAddr,
    measure_from: Instant,
    deadline: Instant,
    trace: bool,
    reader: u64,
    mut next: impl FnMut() -> CandidateRequest,
) -> Result<ReadStream, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("reader {reader}: {e}"))?;
    let mut out = ReadStream::default();
    while Instant::now() < measure_from {
        client.execute(&next()).map_err(|e| format!("reader {reader} warm-up: {e}"))?;
    }
    let mut tracer = Tracer::new(false, Instant::now());
    let mut window_start = Instant::now();
    let mut window_ops = 0u64;
    let mut i = 0u64;
    loop {
        let now = Instant::now();
        if trace && (now >= deadline || now - window_start >= TRACE_WINDOW) {
            let secs = (now - window_start).as_secs_f64();
            let slot = if tracer.enabled() { &mut out.traced } else { &mut out.untraced };
            slot.0 += window_ops;
            slot.1 += secs;
            tracer.set_enabled(!tracer.enabled());
            window_start = now;
            window_ops = 0;
        }
        if now >= deadline {
            break;
        }
        let request = next();
        let window = ((now - measure_from).as_secs_f64() / STATS_WINDOW.as_secs_f64()) as usize;
        if out.windows.len() <= window {
            out.windows.resize_with(window + 1, Vec::new);
        }
        let span = tracer.begin("serve.client.execute", reader << 40 | i);
        let start = Instant::now();
        let result = client.execute(&request);
        let us = start.elapsed().as_secs_f64() * 1e6;
        tracer.end(span);
        match result {
            Ok(response) => {
                out.windows[window].push(us);
                if i.is_multiple_of(SAMPLE_EVERY) && out.samples.len() < MAX_SAMPLES {
                    out.samples.push((request, response));
                }
            }
            Err(e) => {
                out.windows[window].push(f64::INFINITY);
                out.errors.push(format!("reader {reader} request {i}: {e}"));
            }
        }
        window_ops += 1;
        i += 1;
    }
    out.spans = tracer.spans().to_vec();
    Ok(out)
}

/// Records the readers' end-to-end figures and failures: throughput,
/// median and tail per [`STATS_WINDOW`] over all readers, then the median
/// of each across the windows of the `window_s`-second run.
pub fn report_reads(report: &mut Report, streams: &[ReadStream], window_s: f64) {
    for s in streams {
        for e in &s.errors {
            report.check(false, || e.clone());
        }
        let done: usize = s.windows.iter().map(Vec::len).sum();
        report.attempted += (done - s.errors.len()) as u64;
    }
    let windows = streams.iter().map(|s| s.windows.len()).max().unwrap_or(0);
    let (mut qps, mut p50, mut tail, mut tail_at) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut all = 0usize;
    for w in 0..windows {
        let lat: Vec<f64> =
            streams.iter().filter_map(|s| s.windows.get(w)).flatten().copied().collect();
        // Partial trailing window: too short to stand beside the others.
        let secs =
            (window_s - w as f64 * STATS_WINDOW.as_secs_f64()).min(STATS_WINDOW.as_secs_f64());
        if lat.is_empty() || secs < STATS_WINDOW.as_secs_f64() / 2.0 {
            continue;
        }
        let sum = stats::summarize(&lat);
        qps.push(lat.len() as f64 / secs);
        p50.push(sum.p50);
        tail.push(sum.tail);
        tail_at.push(sum.tail_at);
        all += lat.len();
    }
    if qps.is_empty() {
        report.check(false, || "no read completed".to_owned());
        return;
    }
    report.set("throughput_per_s", stats::median(&qps));
    report.set("latency_p50_us", stats::median(&p50));
    report.set("latency_tail_us", stats::median(&tail));
    report.note("latency_tail_at", Json::Num(stats::median(&tail_at)));
    report.note("latency_samples", Json::Uint(all as u64));
    report.note("latency_windows", Json::Uint(qps.len() as u64));
    if streams.iter().any(|s| s.traced.1 > 0.0 && s.untraced.1 > 0.0) {
        let (mut t, mut u) = ((0u64, 0.0f64), (0u64, 0.0f64));
        for s in streams {
            t = (t.0 + s.traced.0, t.1 + s.traced.1);
            u = (u.0 + s.untraced.0, u.1 + s.untraced.1);
        }
        let (traced_qps, untraced_qps) = (t.0 as f64 / t.1, u.0 as f64 / u.1);
        report.set("trace.overhead_share", untraced_qps / traced_qps - 1.0);
    }
}

/// Answers must match apart from the generation stamp, which only the
/// server sets.
pub fn same_answer(wire: &CandidateResponse, local: &CandidateResponse) -> bool {
    wire.results == local.results
        && wire.retention == local.retention
        && wire.scheme == local.scheme
}

/// Times the engine on `requests`, in process and on one thread, and
/// records the engine figures; returns the median engine time, µs.
pub fn engine_probe(
    report: &mut Report,
    engine: &mut QueryEngine<'_>,
    requests: &[CandidateRequest],
) -> f64 {
    let mut entity_us = Vec::new();
    let mut probe_us = Vec::new();
    let mut candidates = Vec::new();
    for request in requests {
        let start = Instant::now();
        let response = engine.execute(request, &mut Noop);
        let us = start.elapsed().as_secs_f64() * 1e6;
        let Ok(response) = response else { continue };
        candidates.push(response.first().map_or(0, |s| s.candidates.len()) as f64);
        match request.target() {
            mb_serve::CandidateTarget::Probe { .. } => probe_us.push(us),
            _ => entity_us.push(us),
        }
        black_box(response);
    }
    let all: Vec<f64> = entity_us.iter().chain(&probe_us).copied().collect();
    report.set("serve.engine.execute_p50_us", stats::percentile_or_zero(&entity_us, 50.0));
    report.set("serve.engine.execute_p99_us", stats::percentile_or_zero(&entity_us, 99.0));
    report.set("serve.engine.probe_p50_us", stats::percentile_or_zero(&probe_us, 50.0));
    report.set("serve.engine.candidates_mean", stats::mean_or_zero(&candidates));
    stats::percentile_or_zero(&all, 50.0)
}

/// Times the wire codec on sampled request/answer pairs and records the
/// per-call means.
pub fn codec_probe(report: &mut Report, pairs: &[(CandidateRequest, CandidateResponse)]) {
    if pairs.is_empty() {
        return;
    }
    let req: Vec<Vec<u8>> = pairs.iter().map(|(r, _)| request_bytes(r)).collect();
    let resp: Vec<Vec<u8>> = pairs.iter().map(|(_, r)| response_bytes(r)).collect();
    let n = pairs.len() as f64;
    let per_call_us = |f: &mut dyn FnMut()| {
        let rounds: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64() * 1e6 / n
            })
            .collect();
        stats::median(&rounds)
    };
    let enc_req =
        per_call_us(&mut || pairs.iter().for_each(|(r, _)| drop(black_box(request_bytes(r)))));
    let dec_req = per_call_us(&mut || req.iter().for_each(|b| drop(black_box(parse_request(b)))));
    let enc_resp =
        per_call_us(&mut || pairs.iter().for_each(|(_, r)| drop(black_box(response_bytes(r)))));
    let dec_resp =
        per_call_us(&mut || resp.iter().for_each(|b| drop(black_box(parse_response(b)))));
    report.set("serve.protocol.request_encode_us", enc_req);
    report.set("serve.protocol.request_decode_us", dec_req);
    report.set("serve.protocol.response_encode_us", enc_resp);
    report.set("serve.protocol.response_decode_us", dec_resp);
    report
        .set("serve.protocol.response_bytes", resp.iter().map(|b| b.len() as f64).sum::<f64>() / n);
}

/// Records the read path's per-layer figures after a read phase: the
/// in-process engine and codec on the phase's sampled requests (plus
/// `extra`), the wire round trip, and the round trip's share outside the
/// engine.
pub fn report_read_layers(
    report: &mut Report,
    snap_path: &Path,
    streams: &[ReadStream],
    extra: &[CandidateRequest],
) -> Result<(), String> {
    let view = SnapshotView::read_from(snap_path, &mut Noop)
        .map_err(|e| format!("reloading snapshot: {e}"))?;
    let mut engine = QueryEngine::from_view(&view);
    let pairs: Vec<_> = streams.iter().flat_map(|s| s.samples.iter().cloned()).collect();
    let requests: Vec<_> =
        pairs.iter().map(|(r, _)| r.clone()).chain(extra.iter().cloned()).collect();
    let engine_p50 = engine_probe(report, &mut engine, &requests);
    codec_probe(report, &pairs);
    let rtt: Vec<f64> = streams.iter().flat_map(|s| s.windows.iter().flatten().copied()).collect();
    let rtt_p50 = stats::percentile_or_zero(&rtt, 50.0);
    report.set("serve.client.rtt_p50_us", rtt_p50);
    if rtt_p50 > 0.0 {
        report.set("serve.wire.outside_engine_share", 1.0 - engine_p50 / rtt_p50);
    }
    Ok(())
}

/// How long each phase of [`serve_layers_probe`] drives the server.
const PROBE_PHASE: Duration = Duration::from_secs(3);

/// Drives the serving layers briefly on a workload that leaves them idle —
/// the traced batch run — so its per-layer figures are measured, on its
/// own input: one set-up from the bundle, a read phase on one connection
/// (90% Zipf entity queries, 10% probes built from indexed profiles), and
/// a write phase with compactions.
pub fn serve_layers_probe(
    report: &mut Report,
    bundle_dir: &Path,
    work: &common::WorkDir,
    seed: u64,
) -> Result<(), String> {
    let snap_path = work.path("probe.mbsnap");
    let (handle, bundle, bytes, times) = setup_once(bundle_dir, &snap_path)?;
    report_setup_layers(report, &times, bytes);
    let collection = &bundle.collection;
    let mut pivots = ZipfPivots::new(collection.len(), 1.0, seed ^ 0x9E0B);
    let next = || {
        let id = pivots.next_id();
        if pivots.rng().gen_below(10) == 0 {
            let profile = collection.profile(EntityId(id)).clone();
            CandidateRequest::probe(profile, !collection.is_second(EntityId(id)))
        } else {
            CandidateRequest::entity(EntityId(id))
        }
    };
    let start = Instant::now();
    let reads = read_loop(handle.local_addr(), start, start + PROBE_PHASE, false, 0, next)?;
    for e in &reads.errors {
        report.check(false, || e.clone());
    }
    report_read_layers(report, &snap_path, std::slice::from_ref(&reads), &[])?;
    mixed::write_probe(report, &handle, &bundle, bundle_dir, &snap_path, work, seed)?;
    handle.shutdown();
    Ok(())
}
