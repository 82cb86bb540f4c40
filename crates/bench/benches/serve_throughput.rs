//! Online-serving bench: wire round-trip latency, sustained throughput,
//! and the client-visible reload pause of a live `er serve` instance.
//!
//! The workload is the Dirty d1c-0.1 benchmark frozen into an `mb-serve`
//! snapshot (JS + CNP, Block Filtering at r = 0.8), served on an ephemeral
//! loopback port. Three measurements:
//!
//! * **round trip** — per-entity `CandidateRequest` over the wire
//!   (serialize + frame + TCP + execute + response), µs p50/p99 and
//!   sustained queries/second on one connection.
//! * **reload** — client-visible `MSG_RELOAD` duration (snapshot read +
//!   validation + generation swap), wall-ms. The swap itself happens off
//!   the serving path, so this is the *control-plane* cost, not a serving
//!   stall.
//! * **post-reload query** — the first query after a swap, which pays the
//!   connection handler's engine rebuild over the new generation.
//!
//! Output: `BENCH_serve.json` at the repository root (override with
//! `BENCH_OUT`); `validate_json` checks its shape in
//! `scripts/bench.sh`.

use er_bench::{dirty_workload, sample_count, write_bench_json};
use mb_core::{PipelineConfig, PruningScheme, WeightingScheme};
use mb_observe::json::Json;
use mb_serve::{CandidateRequest, Client, Server, ServerConfig, Snapshot, SnapshotView};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let samples = sample_count();
    let workload = dirty_workload();
    let n = workload.collection.len();
    let config = PipelineConfig {
        weighting: WeightingScheme::Js,
        pruning: PruningScheme::Cnp,
        filter_ratio: Some(0.8),
        ..PipelineConfig::default()
    };
    let snapshot = Snapshot::build(&workload.collection, config)
        .unwrap_or_else(|e| panic!("building snapshot: {e}"));
    let reload_path = std::env::temp_dir().join("er_bench_serve.mbsnap");
    snapshot.write_to(&reload_path).unwrap_or_else(|e| panic!("writing snapshot: {e}"));

    let view = SnapshotView::from_bytes(snapshot.to_bytes())
        .unwrap_or_else(|e| panic!("loading snapshot: {e}"));
    let handle = Server::start(view, ServerConfig::default())
        .unwrap_or_else(|e| panic!("starting server: {e}"));
    let addr = handle.local_addr();
    let mut client = Client::connect(addr).unwrap_or_else(|e| panic!("connecting {addr}: {e}"));
    println!("serve-throughput: {n} entities on {addr}, {samples} samples");

    // Warm up the connection and the engine's scratch state. Requests carry
    // no explicit retention, so the server resolves its snapshot default
    // (CNP top-k) — the same policy the batch pipeline froze in.
    client
        .execute(&CandidateRequest::entity(er_model::EntityId(0)))
        .unwrap_or_else(|e| panic!("warmup query: {e}"));

    // --- wire round-trip latency + throughput -------------------------------
    let mut lat_us: Vec<f64> = Vec::with_capacity(n * samples);
    let sweep = Instant::now();
    for _ in 0..samples {
        for pivot in 0..n as u32 {
            let request = CandidateRequest::entity(er_model::EntityId(pivot));
            let start = Instant::now();
            let response =
                client.execute(&request).unwrap_or_else(|e| panic!("query {pivot}: {e}"));
            black_box(&response);
            lat_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    let qps = lat_us.len() as f64 / sweep.elapsed().as_secs_f64();
    lat_us.sort_unstable_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| lat_us[((lat_us.len() - 1) as f64 * p) as usize];
    let (p50, p99) = (pct(0.50), pct(0.99));
    println!(
        "   round trip: p50 {p50:>8.2} us  p99 {p99:>8.2} us  {qps:>10.0} q/s  ({} queries)",
        lat_us.len()
    );
    let mut round_trip = Json::obj();
    round_trip.push("p50_us", Json::Num(p50));
    round_trip.push("p99_us", Json::Num(p99));
    round_trip.push("throughput_qps", Json::Num(qps));
    round_trip.push("queries", Json::Uint(lat_us.len() as u64));

    // --- reload pause + first post-reload query -----------------------------
    let reload_str = reload_path.to_str().unwrap_or_else(|| panic!("non-UTF-8 temp path"));
    let mut reload_times: Vec<Duration> = Vec::with_capacity(samples);
    let mut post_us: Vec<f64> = Vec::with_capacity(samples);
    for round in 0..samples {
        let start = Instant::now();
        let generation =
            client.reload(reload_str).unwrap_or_else(|e| panic!("reload {round}: {e}"));
        reload_times.push(start.elapsed());
        black_box(generation);
        let request = CandidateRequest::entity(er_model::EntityId(0));
        let start = Instant::now();
        let response =
            client.execute(&request).unwrap_or_else(|e| panic!("post-reload query {round}: {e}"));
        assert_eq!(response.generation, generation, "stale generation after reload");
        post_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    reload_times.sort_unstable();
    post_us.sort_unstable_by(|a, b| a.total_cmp(b));
    let reload_mean = reload_times.iter().sum::<Duration>() / reload_times.len() as u32;
    let post_mean = post_us.iter().sum::<f64>() / post_us.len() as f64;
    println!(
        "       reload: mean {:>8.3} ms  min {:>8.3} ms  post-reload query mean {post_mean:>8.2} us",
        ms(reload_mean),
        ms(reload_times[0])
    );
    let mut reload = Json::obj();
    reload.push("mean_ms", Json::Num(ms(reload_mean)));
    reload.push("min_ms", Json::Num(ms(reload_times[0])));
    reload.push("samples", Json::Uint(reload_times.len() as u64));
    reload.push("post_reload_query_us", Json::Num(post_mean));

    // --- drain and cross-check the server's own request accounting ----------
    let final_generation = client.shutdown().unwrap_or_else(|e| panic!("shutdown: {e}"));
    let report = handle.wait();
    let served = report.counter_total(mb_observe::Counter::RequestsServed);
    println!("     shutdown: generation {final_generation}, {served} requests served");

    let fields = vec![
        ("samples", Json::Uint(samples as u64)),
        ("final_generation", Json::Uint(final_generation)),
        ("requests_served", Json::Uint(served)),
        ("round_trip", round_trip),
        ("reload", reload),
    ];
    let out = write_bench_json("serve_throughput", "d1c-0.1 dirty, filter 0.8, js+cnp", n, fields)
        .unwrap_or_else(|e| panic!("writing BENCH_serve.json: {e}"));
    std::fs::remove_file(&reload_path).ok();
    println!("wrote {out}");
}
