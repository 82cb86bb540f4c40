//! §6.3's scalability narrative: how OTime grows with dataset size under
//! Optimized vs Original Edge Weighting (the paper's headline: the 16-hour
//! graph processed in 3 — a constant-factor gap that holds at every scale).
//!
//! Sweeps the D1C generator across scales and times one full JS edge sweep
//! per implementation, plus the graph-free workflow for contrast.

use er_eval::datasets::{Dataset, DatasetId};
use er_eval::report::{sci, Table};
use er_eval::timer;
use mb_core::weighting::{optimized, original};
use mb_core::weights::{EdgeWeigher, WeightingScheme};
use mb_core::GraphContext;
use mb_observe::RunReport;

fn main() -> er_model::Result<()> {
    let mut stage_report = RunReport::new("scaling");
    stage_report.set_meta("dataset", DatasetId::D1D.name());
    stage_report.set_meta("workflow", "graph-free (r = 0.55), accumulated over all scales");
    let mut table = Table::new(&[
        "scale",
        "|E|",
        "||B||",
        "|E_B|",
        "optimized",
        "original",
        "reduction",
        "graph-free",
    ]);
    for scale in [0.05, 0.1, 0.2, 0.4, 0.8] {
        let d = Dataset::load_scaled(DatasetId::D1D, scale)?;
        let blocks = d.input_blocks();
        let ctx = GraphContext::new(&blocks, d.collection.split());
        let weigher = EdgeWeigher::new(WeightingScheme::Js, &ctx);

        let mut edges = 0u64;
        let (_, fast) =
            timer::time(|| optimized::for_each_edge(&ctx, &weigher, |_, _, _| edges += 1));
        let (_, slow) = timer::time(|| original::for_each_edge(&ctx, &weigher, |_, _, _| {}));
        let mut n = 0u64;
        let (res, free) = timer::time(|| {
            mb_core::graphfree::graph_free_meta_blocking(
                &blocks,
                d.collection.split(),
                0.55,
                er_eval::threads_from_env(),
                &mut stage_report,
                |_, _| n += 1,
            )
        });
        res?;

        table.row(vec![
            format!("{scale:.2}"),
            sci(d.collection.len() as u64),
            sci(blocks.total_comparisons()),
            sci(edges),
            timer::human(fast),
            timer::human(slow),
            format!("{:.0}%", (1.0 - fast.as_secs_f64() / slow.as_secs_f64().max(1e-12)) * 100.0),
            timer::human(free),
        ]);
    }
    println!("Edge-sweep scaling on D1D across generator scales (JS weights)\n");
    println!("{}", table.render());
    println!("Expected shape: both implementations scale with ||B||; the optimized");
    println!("sweep keeps a constant-factor advantage that grows with BPE, and the");
    println!("graph-free workflow stays an order of magnitude below both.");
    let path = std::path::Path::new("results/scaling.stages.json");
    match stage_report.write_to(path) {
        Ok(()) => println!("\nper-stage breakdown (graph-free runs): {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    Ok(())
}
