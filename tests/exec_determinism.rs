//! The sweep executor's determinism contract: every figure is
//! byte-identical whether a sweep runs serially, on any number of
//! workers, or entirely from a warm run cache.

use std::sync::Arc;

use cellsim::exec::{RunSpec, SweepExecutor, Workload};
use cellsim::experiments::{
    all_figures_with, figure12_with, figure_metrics_with, ExperimentConfig, FIGURES,
};
use cellsim::report::MetricsTable;
use cellsim::{CellConfig, CellSystem, Placement, SyncPolicy, TransferPlan};
use proptest::prelude::*;

/// Renders every figure exactly as `repro` would print and export it.
fn rendered(
    figs: &(
        Vec<cellsim::report::Figure>,
        Vec<cellsim::report::SpreadFigure>,
    ),
) -> String {
    let mut out = String::new();
    for f in &figs.0 {
        out.push_str(&f.to_string());
        out.push_str(&f.to_csv());
    }
    for f in &figs.1 {
        out.push_str(&f.to_string());
        out.push_str(&f.to_csv());
    }
    out
}

/// Renders every figure's metrics digest exactly as `repro --verbose
/// --metrics` would print and export it.
fn rendered_metrics(exec: &SweepExecutor, sys: &CellSystem, cfg: &ExperimentConfig) -> String {
    let mut out = String::new();
    for row in FIGURES {
        if let Some(summary) = figure_metrics_with(exec, sys, cfg, row.id).unwrap() {
            let table = MetricsTable {
                id: row.id.to_string(),
                summary,
            };
            out.push_str(&table.to_string());
            out.push_str(&table.to_csv());
            out.push_str(&table.to_json());
        }
    }
    out
}

#[test]
fn all_figures_quick_identical_serial_parallel_and_cached() {
    let sys = CellSystem::blade();
    let cfg = ExperimentConfig::quick();

    let serial_exec = SweepExecutor::new(1);
    let serial = rendered(&all_figures_with(&serial_exec, &sys, &cfg).unwrap());

    let parallel_exec = SweepExecutor::new(4);
    let parallel = rendered(&all_figures_with(&parallel_exec, &sys, &cfg).unwrap());
    assert_eq!(
        serial, parallel,
        "--jobs 4 must render byte-identically to --jobs 1"
    );

    // Second pass on the warm executor: answered entirely from the run
    // cache, still byte-identical.
    let before = parallel_exec.stats();
    assert!(before.hits > 0, "figures 10/12/13/15/16 share sweep points");
    let cached = rendered(&all_figures_with(&parallel_exec, &sys, &cfg).unwrap());
    let after = parallel_exec.stats();
    assert_eq!(serial, cached, "cached pass must render byte-identically");
    assert_eq!(
        after.misses, before.misses,
        "warm pass must not simulate anything"
    );
}

#[test]
fn metrics_digests_identical_serial_parallel_and_cached() {
    let sys = CellSystem::blade();
    let cfg = ExperimentConfig::quick();

    let serial_exec = SweepExecutor::new(1);
    let serial = rendered_metrics(&serial_exec, &sys, &cfg);
    assert!(!serial.is_empty(), "fabric figures must produce digests");

    let parallel_exec = SweepExecutor::new(4);
    let parallel = rendered_metrics(&parallel_exec, &sys, &cfg);
    assert_eq!(
        serial, parallel,
        "metrics are counters in the cached report: byte-identical for any job count"
    );

    // Digests re-sweep the figures' own points, so after the figures
    // have run, a digest pass is all cache hits.
    rendered(&all_figures_with(&parallel_exec, &sys, &cfg).unwrap());
    let before = parallel_exec.stats();
    let cached = rendered_metrics(&parallel_exec, &sys, &cfg);
    let after = parallel_exec.stats();
    assert_eq!(serial, cached);
    assert_eq!(
        after.misses, before.misses,
        "a digest after its figure must be answered entirely from the cache"
    );
}

/// A GET+PUT stream on `spes` SPEs at `elem`-byte elements.
fn copy_spec(system: &CellSystem, spes: usize, elem: u32, seed: u64) -> RunSpec {
    let volume = 256 << 10;
    let mut plan = TransferPlan::builder();
    for spe in 0..spes {
        plan = plan.copy_memory(spe, volume, elem, SyncPolicy::AfterAll);
    }
    let workload = Workload {
        pattern: "copy",
        spes: spes as u8,
        volume,
        elem,
        list: false,
        sync: SyncPolicy::AfterAll,
        params: 0,
    };
    let plan = Arc::new(plan.build().expect("valid plan"));
    RunSpec::new(system, workload, Placement::lottery(seed, 0), plan)
}

/// Multi-worker batches start their most expensive runs first. A batch
/// submitted smallest-first — 16 KiB runs, then 128 B runs that cost far
/// more per byte, one of them on a machine that stalls, with repeats —
/// still reports, fails and counts its cache traffic exactly as a
/// serial batch does.
#[test]
fn mixed_batch_submitted_smallest_first_is_job_invariant() {
    let healthy = CellSystem::blade();
    let mut glacial = CellConfig::default();
    glacial.local_bank.access_latency = 100_000_000_000;
    glacial.remote_bank.access_latency = 100_000_000_000;
    let glacial = CellSystem::new(glacial);
    let mut specs = Vec::new();
    for elem in [16384u32, 128] {
        for spes in [1usize, 2, 4] {
            specs.push(copy_spec(&healthy, spes, elem, 7));
        }
    }
    specs.push(copy_spec(&glacial, 2, 128, 7));
    specs.push(copy_spec(&healthy, 4, 128, 7));
    specs.push(copy_spec(&healthy, 1, 16384, 7));

    let outcome = |jobs: usize| {
        let exec = SweepExecutor::new(jobs);
        let results = exec.try_run(specs.clone());
        (results, exec.take_failures(), exec.stats())
    };
    let (serial, serial_failures, serial_stats) = outcome(1);
    assert_eq!(serial_failures.len(), 1, "the glacial run stalls");
    assert_eq!((serial_stats.hits, serial_stats.misses), (2, 7));
    for jobs in [2, 4] {
        let (results, failures, stats) = outcome(jobs);
        assert_eq!(results, serial, "--jobs {jobs} reports");
        assert_eq!(failures, serial_failures, "--jobs {jobs} failures");
        assert_eq!(stats, serial_stats, "--jobs {jobs} cache stats");
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(4))]

    #[test]
    fn figure12_identical_for_any_worker_count(seed in 0u64..1000, jobs in 2usize..8) {
        let sys = CellSystem::blade();
        let cfg = ExperimentConfig {
            volume_per_spe: 128 << 10,
            dma_elem_sizes: vec![1024, 16384],
            placements: 2,
            seed,
        };
        let serial = figure12_with(&SweepExecutor::new(1), &sys, &cfg).unwrap();
        let parallel = figure12_with(&SweepExecutor::new(jobs), &sys, &cfg).unwrap();
        prop_assert_eq!(&serial, &parallel, "seed {} jobs {}", seed, jobs);
        let serial_text: Vec<String> = serial.iter().map(|f| format!("{f}\n{}", f.to_csv())).collect();
        let parallel_text: Vec<String> = parallel.iter().map(|f| format!("{f}\n{}", f.to_csv())).collect();
        prop_assert_eq!(serial_text, parallel_text);
    }
}
