//! The fault subsystem's determinism contract: a seeded [`FaultPlan`]
//! produces bit-identical reports for any worker count and through the
//! run cache, and an *empty* plan is byte-identical to no plan at all —
//! including sharing the healthy machine's cache entries.

use std::sync::Arc;

use cellsim::exec::{RunSpec, SweepExecutor, Workload};
use cellsim::experiments::{figure_degraded_with, ExperimentConfig, SweepPoint};
use cellsim::{CellSystem, DerateWindow, FabricReport, FaultPlan, Placement, RingOutage, Window};
use proptest::prelude::*;

/// A small GET+PUT sweep on `system`: 4 SPEs × two element sizes × three
/// placements (drawn avoiding `mask`).
fn copy_specs(system: &CellSystem, mask: u8) -> Vec<RunSpec> {
    let volume: u64 = 128 << 10;
    let mut specs = Vec::new();
    for elem in [1024u32, 16384] {
        let point = SweepPoint::new(Workload::dma_elem("mem-copy", 4, volume, elem)).unwrap();
        for k in 0..3u64 {
            let placement = Placement::lottery_avoiding(9, k, mask);
            specs.push(RunSpec::new(system, &point, placement));
        }
    }
    specs
}

/// Runs `specs` on `exec`; every point of these sweeps completes.
fn run(exec: &SweepExecutor, specs: Vec<RunSpec>) -> Vec<Arc<FabricReport>> {
    exec.try_run(specs)
        .into_iter()
        .map(|result| result.expect("every point completes"))
        .collect()
}

#[test]
fn empty_plan_is_byte_identical_to_no_plan() {
    let healthy = CellSystem::blade();
    let empty = CellSystem::blade().with_faults(FaultPlan::default());
    assert!(empty.faults().is_none(), "empty plans normalize away");
    assert_eq!(healthy.faults_fingerprint(), 0);
    assert_eq!(empty.faults_fingerprint(), 0);

    // Same reports — and the *same cache entries*: a warm healthy
    // executor answers the empty-plan sweep without simulating.
    let exec = SweepExecutor::new(2);
    let healthy_reports = run(&exec, copy_specs(&healthy, 0));
    let before = exec.stats();
    let empty_reports = run(&exec, copy_specs(&empty, 0));
    assert_eq!(healthy_reports, empty_reports);
    assert_eq!(
        exec.stats().misses,
        before.misses,
        "an empty plan must hit the healthy machine's cache entries"
    );
    for r in &healthy_reports {
        assert!(!r.metrics.faults.any(), "healthy runs carry zero faults");
    }
}

#[test]
fn degraded_figure_identical_serial_parallel_and_cached() {
    let sys = CellSystem::blade();
    let cfg = ExperimentConfig {
        volume_per_spe: 128 << 10,
        dma_elem_sizes: vec![1024, 16384],
        placements: 2,
        seed: 0xCE11,
    };
    let render = |exec: &SweepExecutor| {
        let (fig, table) = figure_degraded_with(exec, &sys, &cfg).unwrap();
        format!(
            "{fig}{}{table}{}{}",
            fig.to_csv(),
            table.to_csv(),
            table.to_json()
        )
    };
    let serial = render(&SweepExecutor::new(1));
    let parallel_exec = SweepExecutor::new(4);
    let parallel = render(&parallel_exec);
    assert_eq!(
        serial, parallel,
        "--jobs 4 must render the degraded ladder byte-identically to --jobs 1"
    );
    let before = parallel_exec.stats();
    let cached = render(&parallel_exec);
    assert_eq!(serial, cached);
    assert_eq!(
        parallel_exec.stats().misses,
        before.misses,
        "a warm pass must answer the whole ladder from the run cache"
    );
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(4))]

    #[test]
    fn any_fault_plan_is_job_count_invariant(
        seed in 0u64..1000,
        nack_ppm in 0u32..100_000,
        capacity in 25u32..100,
        slot_limit in 2u32..9,
        fuse_spe7 in 0u32..2,
        jobs in 2usize..6,
    ) {
        let mut plan = FaultPlan {
            seed,
            ..FaultPlan::default()
        };
        if fuse_spe7 == 1 {
            plan.fused_spes.push(7);
        }
        plan.eib.ring_outages.push(RingOutage {
            ring: 1,
            window: Window { start: 0, cycles: 20_000 },
        });
        plan.eib.derate.push(DerateWindow {
            window: Window { start: 20_000, cycles: 100_000 },
            capacity_percent: capacity,
        });
        plan.local_bank.nack_ppm = nack_ppm;
        plan.remote_bank.nack_ppm = nack_ppm / 2;
        plan.mfc.slot_limit = Some(slot_limit);
        plan.mfc.queue_stalls.push(Window { start: 5_000, cycles: 2_000 });
        plan.validate().expect("generated plan is valid");
        let mask = plan.fused_mask();
        let system = CellSystem::blade().with_faults(plan);

        let serial = run(&SweepExecutor::new(1), copy_specs(&system, mask));
        let parallel = run(&SweepExecutor::new(jobs), copy_specs(&system, mask));
        prop_assert_eq!(&serial, &parallel, "seed {} jobs {}", seed, jobs);

        // And through the cache: a warm second pass is identical without
        // a single fresh simulation.
        let exec = SweepExecutor::new(jobs);
        let first = run(&exec, copy_specs(&system, mask));
        let misses = exec.stats().misses;
        let second = run(&exec, copy_specs(&system, mask));
        prop_assert_eq!(&first, &second);
        prop_assert_eq!(exec.stats().misses, misses);
        prop_assert_eq!(&serial, &first);

        // Retry accounting conserves whenever NACKs fired.
        for r in &serial {
            let f = r.metrics.faults;
            prop_assert_eq!(f.nacks, f.retries + f.retries_exhausted);
        }
    }
}
