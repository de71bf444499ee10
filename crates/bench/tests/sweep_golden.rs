//! The ablations and the fault ladder, pinned bit for bit.
//! `tests/fixtures/ablations_ladder_tiny.txt` holds A1–A4 and the
//! `degraded` figure as text table, CSV and each point's `f64` bits,
//! then the ladder's metrics digest as JSON, all recorded with the
//! ablations' and the ladder's own hand-built plans and spec loops
//! before both moved onto `SweepPoint::new` and `figure_specs`.

use cellsim_bench::all_ablations_with;
use cellsim_core::exec::SweepExecutor;
use cellsim_core::experiments::{figure_degraded_with, ExperimentConfig};
use cellsim_core::report::Figure;
use cellsim_core::CellSystem;

fn pin(out: &mut String, fig: &Figure) {
    out.push_str(&format!("{fig}"));
    out.push_str(&fig.to_csv());
    for s in &fig.series {
        for p in &s.points {
            out.push_str(&format!(
                "{}\t{}\t{:016x}\n",
                s.label,
                p.x,
                p.gbps.to_bits()
            ));
        }
    }
}

#[test]
fn ablations_and_ladder_match_the_golden_bytes() {
    let cfg = ExperimentConfig {
        volume_per_spe: 256 << 10,
        dma_elem_sizes: vec![2048, 16384],
        placements: 2,
        seed: 0xCE11,
    };
    let exec = SweepExecutor::new(2);
    let mut out = String::new();
    for fig in all_ablations_with(&exec, &cfg).unwrap() {
        pin(&mut out, &fig);
    }
    let (fig, table) = figure_degraded_with(&exec, &CellSystem::blade(), &cfg).unwrap();
    pin(&mut out, &fig);
    out.push_str(&table.to_json());
    let golden = include_str!("../../../tests/fixtures/ablations_ladder_tiny.txt");
    assert_eq!(out, golden);
    assert!(exec.take_failures().is_empty());
}
