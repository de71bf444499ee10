//! Reproducibility guarantees: identical inputs give bit-identical
//! results, and the placement lottery is seed-stable.

use cellsim::exec::SweepExecutor;
use cellsim::experiments::{figure12_with, ExperimentConfig};
use cellsim::{CellSystem, Placement, SyncPolicy, TransferPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn plan() -> TransferPlan {
    let mut b = TransferPlan::builder();
    for spe in 0..8 {
        b = b.exchange_with(spe, (spe + 1) % 8, 256 << 10, 4096, SyncPolicy::AfterAll);
    }
    b.build().unwrap()
}

#[test]
fn identical_runs_are_bit_identical() {
    let sys = CellSystem::blade();
    let p = Placement::from_mapping([3, 1, 4, 0, 5, 2, 7, 6]).unwrap();
    let plan = plan();
    let a = sys.try_run(&p, &plan).unwrap();
    let b = sys.try_run(&p, &plan).unwrap();
    assert_eq!(a, b);
}

#[test]
fn fresh_systems_agree() {
    let plan = plan();
    let p = Placement::identity();
    let a = CellSystem::blade().try_run(&p, &plan).unwrap();
    let b = CellSystem::blade().try_run(&p, &plan).unwrap();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.eib, b.eib);
}

#[test]
fn experiments_are_seed_stable() {
    let cfg = ExperimentConfig {
        volume_per_spe: 128 << 10,
        dma_elem_sizes: vec![4096],
        placements: 3,
        seed: 42,
    };
    let sys = CellSystem::blade();
    let a = figure12_with(&SweepExecutor::default(), &sys, &cfg).unwrap();
    let b = figure12_with(&SweepExecutor::default(), &sys, &cfg).unwrap();
    assert_eq!(a, b);
}

#[test]
fn different_seeds_draw_different_placements() {
    let mut r1 = StdRng::seed_from_u64(1);
    let mut r2 = StdRng::seed_from_u64(2);
    let draws1: Vec<Placement> = (0..5).map(|_| Placement::random(&mut r1)).collect();
    let draws2: Vec<Placement> = (0..5).map(|_| Placement::random(&mut r2)).collect();
    assert_ne!(draws1, draws2);
}

#[test]
fn placement_affects_dense_traffic_but_not_volume() {
    let sys = CellSystem::blade();
    let plan = plan();
    let mut rng = StdRng::seed_from_u64(9);
    let results: Vec<_> = (0..6)
        .map(|_| sys.try_run(&Placement::random(&mut rng), &plan).unwrap())
        .collect();
    assert!(results
        .windows(2)
        .all(|w| w[0].total_bytes == w[1].total_bytes));
    let min = results
        .iter()
        .map(|r| r.aggregate_gbps)
        .fold(f64::INFINITY, f64::min);
    let max = results.iter().map(|r| r.aggregate_gbps).fold(0.0, f64::max);
    assert!(max > min, "placements must differentiate dense traffic");
}
