//! The program layer on the sweep executor: the K1 kernel roofline is
//! pinned bit for bit and deduplicated in the run cache, and the task
//! runtime keeps its scheduling and accounting invariants.

use cellsim::exec::{CacheStats, SweepExecutor};
use cellsim::experiments::{execute_tasks, figure_roofline_with, kernel_estimate};
use cellsim::workloads::{KernelSpec, Task};
use cellsim::CellSystem;
use proptest::prelude::*;

const SPE_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn k1_kernels() -> Vec<KernelSpec> {
    let mut kernels = KernelSpec::paper_kernels();
    kernels.push(KernelSpec::matrix_multiply(64).in_double_precision());
    kernels
}

/// Every K1 estimate's GFLOP/s and bandwidth as IEEE bits, one line per
/// (kernel, SPE count): the fixture was recorded from the standalone
/// kernel runner that preceded the executor-backed estimates.
#[test]
fn k1_estimates_match_the_golden_bits() {
    let exec = SweepExecutor::new(2);
    let system = CellSystem::blade();
    let mut text = String::new();
    for spec in &k1_kernels() {
        for spes in SPE_COUNTS {
            let e = kernel_estimate(&exec, &system, spec, spes).unwrap();
            text.push_str(&format!(
                "{},{},{:#018x},{:#018x}\n",
                e.name,
                spes,
                e.gflops.to_bits(),
                e.bandwidth_gbps.to_bits()
            ));
        }
    }
    assert_eq!(text, include_str!("fixtures/kernels_roofline_k1.txt"));

    // The figure renders exactly those estimates.
    let fig = figure_roofline_with(&exec, &system);
    for line in text.lines() {
        let fields: Vec<&str> = line.split(',').collect();
        let bits = u64::from_str_radix(&fields[2][2..], 16).unwrap();
        let value = fig.value(fields[0], fields[1]).unwrap();
        assert_eq!(value.to_bits(), bits, "{line}");
    }
}

/// The five K1 kernels stream only two traffic patterns, so their 20
/// estimates are 8 distinct runs.
#[test]
fn k1_simulates_each_distinct_run_once() {
    let exec = SweepExecutor::new(2);
    let _ = figure_roofline_with(&exec, &CellSystem::blade());
    assert_eq!(
        exec.stats(),
        CacheStats {
            hits: 12,
            misses: 8
        }
    );
    assert!(exec.take_failures().is_empty());
}

fn task() -> impl Strategy<Value = Task> {
    (1u64..=8, 0u64..=8, 0u64..200_000u64).prop_map(|(inp, out, kflops)| {
        let mut t = Task::new("t")
            .input(inp * 16 * 1024)
            .flops(kflops as f64 * 1e3);
        if out > 0 {
            t = t.output(out * 16 * 1024);
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever the job, the runtime's makespan is at least each lane's
    /// own busy time and the byte accounting is exact.
    #[test]
    fn makespan_bounds_and_byte_accounting(
        tasks in proptest::collection::vec(task(), 1..24),
        lanes in 1usize..=8,
    ) {
        let exec = SweepExecutor::new(1);
        let report = execute_tasks(&exec, &CellSystem::blade(), lanes, &tasks).unwrap();
        prop_assert_eq!(report.tasks, tasks.len());
        let expected: u64 = tasks.iter().map(Task::total_bytes).sum();
        prop_assert_eq!(report.total_bytes, expected);
        for lane in &report.lanes {
            prop_assert!(report.makespan_cycles >= lane.busy_cycles());
        }
        let assigned: usize = report.lanes.iter().map(|l| l.tasks).sum();
        prop_assert_eq!(assigned, tasks.len());
    }

    /// The least-loaded scheduler never assigns a lane more than one
    /// task more than another when tasks are identical.
    #[test]
    fn uniform_tasks_balance(n in 1usize..40, lanes in 1usize..=8) {
        let exec = SweepExecutor::new(1);
        let tasks: Vec<Task> = (0..n)
            .map(|_| Task::new("u").input(32 << 10).flops(1e4))
            .collect();
        let report = execute_tasks(&exec, &CellSystem::blade(), lanes, &tasks).unwrap();
        let max = report.lanes.iter().map(|l| l.tasks).max().unwrap();
        let min = report.lanes.iter().map(|l| l.tasks).min().unwrap();
        prop_assert!(max - min <= 1, "max={} min={}", max, min);
    }

    /// Makespan never grows when lanes are added.
    #[test]
    fn lanes_never_hurt(n in 2usize..16) {
        let exec = SweepExecutor::new(1);
        let sys = CellSystem::blade();
        let tasks: Vec<Task> = (0..n)
            .map(|_| Task::new("w").input(64 << 10).flops(5e5))
            .collect();
        let two = execute_tasks(&exec, &sys, 2, &tasks).unwrap();
        let eight = execute_tasks(&exec, &sys, 8, &tasks).unwrap();
        prop_assert!(
            eight.makespan_cycles <= two.makespan_cycles * 11 / 10,
            "{} vs {}",
            eight.makespan_cycles,
            two.makespan_cycles
        );
    }
}
