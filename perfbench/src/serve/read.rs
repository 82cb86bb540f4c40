//! `serve-read-d2c`: matchers reading candidates from a served D2C index.
//!
//! Two connections run closed loops — each caller waits for its answer
//! before asking again. 90% of requests are entity queries on Zipf-skewed
//! pivots, 10% are probes built from profiles held out of the index, which
//! exercise tokenize-and-route. A sample of wire answers must equal the
//! in-process engine's answers over the same snapshot file.

use super::{ReadStream, Served};
use crate::common::{self, Preset, Report};
use crate::loadgen::ZipfPivots;
use crate::Args;
use er_model::{EntityCollection, EntityId, EntityProfile, GroundTruth};
use mb_observe::json::Json;
use mb_observe::Noop;
use mb_serve::{CandidateRequest, QueryEngine, SnapshotView};
use std::time::{Duration, Instant};

/// Concurrent reader connections.
const READERS: u64 = 2;
/// Side-2 profiles held out of the index to serve as probes.
const HELD_OUT: usize = 512;
/// Share of requests that are probes, in percent.
const PROBE_PERCENT: u64 = 10;
/// Zipf exponent of the entity pivots.
const ZIPF_S: f64 = 1.0;

/// Splits the last [`HELD_OUT`] side-2 profiles off the collection, with
/// the duplicate pairs that still have both ends indexed.
fn hold_out(
    collection: EntityCollection,
    gt: &GroundTruth,
) -> (EntityCollection, GroundTruth, Vec<EntityProfile>) {
    let split = collection.split();
    let mut profiles = collection.profiles().to_vec();
    let probes = profiles.split_off(profiles.len() - HELD_OUT);
    let kept = profiles.len() as u32;
    let e2 = profiles.split_off(split);
    let gt = GroundTruth::from_pairs(
        gt.pairs().iter().map(|c| (c.a, c.b)).filter(|(a, b)| a.0 < kept && b.0 < kept),
    );
    (EntityCollection::clean_clean(profiles, e2), gt, probes)
}

/// Runs the workload.
pub fn run(args: &Args, work: &common::WorkDir) -> Result<Report, String> {
    let mut report = Report::new(args);
    let bundle_dir = work.path("d2c");
    let probes = {
        let data = common::generate(Preset::D2c, args.seed)?;
        let (collection, gt, probes) = hold_out(data.collection, &data.ground_truth);
        er_io::bundle::save(&bundle_dir, &collection, &gt)
            .map_err(|e| format!("saving input bundle: {e}"))?;
        probes
    };
    common::rebase_heap();

    let snap_path = work.path("d2c.mbsnap");
    let served: Served = super::setup(&bundle_dir, &snap_path)?;
    super::report_setup(&mut report, &served);
    let n = served.bundle.collection.len();
    report.note("entities", Json::Uint(n as u64));
    report.note("probe_profiles", Json::Uint(probes.len() as u64));
    report.note("connections", Json::Uint(READERS));
    report.note("loop", Json::Str("closed".into()));

    let addr = served.handle.local_addr();
    let start = Instant::now() + super::READ_WARMUP;
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let streams: Vec<ReadStream> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..READERS)
            .map(|r| {
                let probes = &probes;
                scope.spawn(move || {
                    let mut pivots = ZipfPivots::new(n, ZIPF_S, args.seed ^ (0x5EED << 8) ^ r);
                    let next = move || {
                        if pivots.rng().gen_below(100) < PROBE_PERCENT {
                            let at = pivots.rng().gen_below(probes.len() as u64) as usize;
                            CandidateRequest::probe(probes[at].clone(), false)
                        } else {
                            CandidateRequest::entity(EntityId(pivots.next_id()))
                        }
                    };
                    super::read_loop(addr, start, deadline, args.trace, r, next)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("reader thread panicked"))
            .collect::<Result<_, _>>()
    })?;
    let window_s = args.seconds;
    report.set_peak_heap();
    super::report_reads(&mut report, &streams, window_s);

    // Output check: sampled wire answers against the in-process engine
    // over the same snapshot file, generation 1 throughout.
    let view = SnapshotView::read_from(&snap_path, &mut Noop)
        .map_err(|e| format!("reloading snapshot: {e}"))?;
    let mut engine = QueryEngine::from_view(&view);
    let samples: Vec<_> = streams.iter().flat_map(|s| s.samples.iter()).collect();
    for (request, wire) in &samples {
        let local = engine.execute(request, &mut Noop);
        let same = local.as_ref().is_ok_and(|l| super::same_answer(wire, l));
        report.check(same && wire.generation == 1, || {
            format!(
                "wire answer to {:?} (generation {}) differs from the in-process engine",
                request.target(),
                wire.generation
            )
        });
    }
    report.note("checked_answers", Json::Uint(samples.len() as u64));

    if args.trace {
        let bundle = &served.bundle;
        crate::batch::layer_probe(&mut report, &bundle.collection, &bundle.ground_truth);
        super::report_read_layers(&mut report, &snap_path, &streams, &[])?;
        let spans: usize = streams.iter().map(|s| s.spans.len()).sum();
        report.note("spans", Json::Uint(spans as u64));
        super::mixed::write_probe(
            &mut report,
            &served.handle,
            bundle,
            &bundle_dir,
            &snap_path,
            work,
            args.seed,
        )?;
    }
    served.handle.shutdown();
    Ok(report)
}
