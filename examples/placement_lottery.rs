//! How much does the logical→physical SPE placement matter?
//!
//! `libspe 1.1` gave the programmer no control over where SPE threads
//! landed on the physical ring, so the paper ran everything ten times and
//! reported the spread. This example replays that lottery for the
//! all-active "cycle" pattern — all 20 draws simulated in parallel on a
//! [`SweepExecutor`] — and prints the best and worst draws.
//!
//! ```text
//! cargo run --release --example placement_lottery
//! ```

use std::error::Error;

use cellsim::exec::{RunSpec, SweepExecutor, Workload};
use cellsim::experiments::SweepPoint;
use cellsim::{CellSystem, Placement};

const VOLUME: u64 = 1 << 20;
const ELEM: u32 = 16 * 1024;
const DRAWS: u64 = 20;

fn main() -> Result<(), Box<dyn Error>> {
    let system = CellSystem::blade();
    let point = SweepPoint::new(Workload::dma_elem("cycle", 8, VOLUME, ELEM))?;

    // Draw k of the lottery is Placement::lottery(seed, k): the same
    // placement no matter how the executor schedules the runs.
    let exec = SweepExecutor::default();
    let placements: Vec<Placement> = (0..DRAWS).map(|k| Placement::lottery(2007, k)).collect();
    let specs = placements
        .iter()
        .map(|&p| RunSpec::new(&system, &point, p))
        .collect();
    let reports = exec
        .try_run(specs)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;

    let mut draws: Vec<(f64, Placement)> = reports
        .iter()
        .map(|r| r.aggregate_gbps)
        .zip(placements)
        .collect();
    draws.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN"));

    println!(
        "cycle of 8 SPEs, {DRAWS} random placements on {} worker(s) (peak 134.4 GB/s):\n",
        exec.jobs()
    );
    for (gbps, p) in &draws {
        println!("  {gbps:>6.2} GB/s   {p}");
    }
    let (worst, best) = (draws[0].0, draws[draws.len() - 1].0);
    println!(
        "\nspread: {:.1} GB/s ({:.0} % of the worst draw)",
        best - worst,
        100.0 * (best - worst) / worst
    );
    println!(
        "\nPaper §5: \"The physical layout of the SPEs has a critical\n\
         impact on performance. However the current API does not allow\n\
         the programmer to select such layout.\""
    );
    Ok(())
}
