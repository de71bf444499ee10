//! The paper's DMA programming rules, demonstrated one by one on a pair
//! of SPEs exchanging data.
//!
//! Every run goes through one shared [`SweepExecutor`], so repeated
//! configurations — rule 2's "wait at the end" is exactly rule 1's
//! 4 KiB point — are answered from the run cache instead of resimulated.
//!
//! ```text
//! cargo run --release --example dma_tuning
//! ```

use std::error::Error;

use cellsim::exec::{RunSpec, SweepExecutor, Workload};
use cellsim::experiments::SweepPoint;
use cellsim::{CellSystem, Placement, SyncPolicy};

const VOLUME: u64 = 1 << 20;

fn exchange(
    exec: &SweepExecutor,
    system: &CellSystem,
    volume: u64,
    elem: u32,
    list: bool,
    sync: SyncPolicy,
) -> Result<f64, Box<dyn Error>> {
    let point = SweepPoint::new(Workload {
        pattern: "couples",
        spes: 2,
        volume,
        elem,
        list,
        sync,
        params: 0,
    })?;
    let spec = RunSpec::new(system, &point, Placement::identity());
    Ok(exec.try_run(vec![spec]).remove(0)?.aggregate_gbps)
}

fn main() -> Result<(), Box<dyn Error>> {
    let system = CellSystem::blade();
    let exec = SweepExecutor::default();
    println!("SPE0 <-> SPE1 exchange, peak 33.6 GB/s. One rule at a time:\n");

    // Rule 1: use large DMA elements (>= 1024 B for DMA-elem).
    println!("rule 1 — transfer size matters (DMA-elem, sync after all):");
    for elem in [128u32, 512, 1024, 4096, 16384] {
        let gbps = exchange(&exec, &system, VOLUME, elem, false, SyncPolicy::AfterAll)?;
        println!("  {elem:>6} B : {gbps:>6.2} GB/s");
    }

    // Rule 2: delay synchronization as long as possible.
    println!("\nrule 2 — delay the tag-group wait (4 KiB elements):");
    for (label, sync) in [
        ("wait every DMA ", SyncPolicy::Every(1)),
        ("wait every 4   ", SyncPolicy::Every(4)),
        ("wait every 16  ", SyncPolicy::Every(16)),
        ("wait at the end", SyncPolicy::AfterAll),
    ] {
        let gbps = exchange(&exec, &system, VOLUME, 4096, false, sync)?;
        println!("  {label} : {gbps:>6.2} GB/s");
    }

    // Rule 3: DMA lists rescue small elements.
    println!("\nrule 3 — DMA lists amortize per-command cost (128 B elements):");
    let e = exchange(&exec, &system, VOLUME / 4, 128, false, SyncPolicy::AfterAll)?;
    let l = exchange(&exec, &system, VOLUME / 4, 128, true, SyncPolicy::AfterAll)?;
    println!("  DMA-elem : {e:>6.2} GB/s");
    println!("  DMA-list : {l:>6.2} GB/s  ({:.1}x)", l / e);

    let stats = exec.stats();
    println!(
        "\nrun cache: {} simulations for {} runs ({} duplicate answered from cache)",
        stats.misses,
        stats.hits + stats.misses,
        stats.hits
    );
    println!(
        "\nPaper §5: \"double buffering, DMA lists and delaying the\n\
         synchronization (DMA wait) as much as possible will always help\n\
         performance. DMA lists are beneficial for data chunks of less\n\
         than 1024 bytes in SPE to SPE communication.\""
    );
    Ok(())
}
