//! Inspect what the fabric actually did: record a run into a trace store
//! and derive a throughput timeline and hop statistics from its events,
//! next to the ring shares the always-on metrics already carry.
//!
//! ```text
//! cargo run --release --example trace_analysis
//! ```

use std::error::Error;

use cellsim::tracestore::{TraceFilter, TraceKind, TraceStore, TraceStoreWriter};
use cellsim::{CellSystem, Placement, SyncPolicy, TransferPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Width of one throughput-timeline bucket, in bus cycles.
const BUCKET_CYCLES: u64 = 10_000;

fn main() -> Result<(), Box<dyn Error>> {
    let system = CellSystem::blade();
    // The paper's most contended pattern: the 8-SPE cycle.
    let mut b = TransferPlan::builder();
    for spe in 0..8 {
        b = b.exchange_with(spe, (spe + 1) % 8, 1 << 20, 16 * 1024, SyncPolicy::AfterAll);
    }
    let plan = b.build()?;
    let mut rng = StdRng::seed_from_u64(99);
    let placement = Placement::random(&mut rng);

    // Stream every packet phase into an in-memory store, then open it
    // for queries exactly as `cellsim-trace` opens a `--run-dir` entry.
    let mut writer = TraceStoreWriter::new(Vec::new());
    let report = system.try_run_with_sink(&placement, &plan, &mut writer)?;
    let (bytes, _) = writer.finalize(report.metrics.events, report.packets)?;
    let store = TraceStore::from_bytes(bytes)?;
    let clock = system.config().clock;

    let (mut hops, mut grants) = (0u64, 0u64);
    let mut buckets: Vec<u64> = Vec::new();
    store.for_each(&TraceFilter::default(), |e| {
        match e.kind {
            TraceKind::Grant => {
                hops += u64::from(e.hops);
                grants += 1;
            }
            TraceKind::Deliver => {
                let idx = usize::try_from(e.at / BUCKET_CYCLES).expect("bucket index fits usize");
                if buckets.len() <= idx {
                    buckets.resize(idx + 1, 0);
                }
                buckets[idx] += u64::from(e.bytes);
            }
            TraceKind::Issue | TraceKind::Mem => {}
        }
        Ok(())
    })?;

    println!("8-SPE cycle under {placement}");
    println!(
        "aggregate {:.1} GB/s over {} cycles, mean path {:.2} hops\n",
        report.aggregate_gbps,
        report.cycles,
        hops as f64 / grants.max(1) as f64
    );

    println!("ring occupancy (bytes granted per data ring):");
    let rings = &report.metrics.rings;
    let total: u64 = rings.iter().map(|r| r.bytes).sum();
    for (ring, stats) in rings.iter().enumerate().filter(|(_, r)| r.bytes > 0) {
        let share = 100.0 * stats.bytes as f64 / total as f64;
        let bar = "#".repeat((share / 2.0) as usize);
        println!("  ring {ring} : {share:>5.1} %  {bar}");
    }

    println!("\nthroughput timeline (10k-cycle buckets):");
    for (i, bytes) in buckets.into_iter().enumerate() {
        let gbps = clock.gbytes_per_sec(bytes, BUCKET_CYCLES);
        let bar = "#".repeat((gbps / 4.0) as usize);
        println!(
            "  t={:>7} : {gbps:>6.1} GB/s  {bar}",
            i as u64 * BUCKET_CYCLES
        );
    }

    // The always-on metrics also say where each SPE's cycles went,
    // straight from the report.
    let m = &report.metrics;
    let stalled: u64 = m.per_spe.iter().map(|s| s.stall_cycles()).sum();
    let busy: u64 = m.per_spe.iter().map(|s| s.busy_cycles).sum();
    println!(
        "\nstall accounting: {busy} busy vs {stalled} stalled SPE-cycles \
         across the run"
    );

    println!(
        "\nThe ramp-up at the start is the MFC queues filling; the\n\
         steady state shows the EIB conflicts this placement causes\n\
         (compare a few seeds — the paper's Figure 16 spread is exactly\n\
         this variation)."
    );
    Ok(())
}
