//! Programs on the simulated fabric (the paper's §5 follow-ups): the
//! small-kernel roofline and a CellSs-style task runtime.
//!
//! Both express their DMA traffic as [`RunSpec`]s and submit them to a
//! [`SweepExecutor`] like every figure, so they share its run cache,
//! worker count, run directory and typed failures: a stalled run comes
//! back as [`ProgramError::Run`], never as a panic.
//!
//! * [`kernel_estimate`] streams a [`KernelSpec`]'s traffic (the
//!   canonical `"mem-get"`/`"mem-copy"` workloads) and takes the
//!   roofline minimum of measured bandwidth × intensity and the SPU
//!   compute peak; [`figure_roofline_with`] renders the paper kernels.
//! * [`execute_tasks`] schedules [`Task`]s over SPE lanes (least-loaded
//!   first), runs the whole job's DMA traffic as one plan — so lanes
//!   contend for rings and banks exactly as the paper measures — and
//!   overlaps each lane's compute with its communication (double
//!   buffering).
//!
//! ```
//! use cellsim_core::exec::SweepExecutor;
//! use cellsim_core::experiments::{execute_tasks, kernel_estimate};
//! use cellsim_core::CellSystem;
//! use cellsim_workloads::{KernelSpec, Precision, SpuComputeModel, Task};
//!
//! let system = CellSystem::blade();
//! let exec = SweepExecutor::new(1);
//! let est = kernel_estimate(&exec, &system, &KernelSpec::dot_product(), 4)?;
//! // The scalar product is memory-bound on any number of SPEs.
//! assert!(est.is_memory_bound());
//! assert!(est.gflops < SpuComputeModel::new(system.config().clock).gflops_peak(Precision::Single, 4));
//!
//! // 64 independent tasks, each streaming 64 KiB in and 16 KiB out
//! // with 100 kFLOP of work.
//! let tasks: Vec<Task> = (0..64)
//!     .map(|i| Task::new(format!("t{i}")).input(64 << 10).output(16 << 10).flops(100_000.0))
//!     .collect();
//! let report = execute_tasks(&exec, &system, 4, &tasks)?;
//! assert_eq!(report.tasks, 64);
//! assert!(report.makespan_cycles > 0);
//! # Ok::<(), cellsim_core::experiments::ProgramError>(())
//! ```

use std::fmt;
use std::sync::Arc;

use cellsim_kernel::fnv::Fnv1a;
use cellsim_workloads::{KernelSpec, SpuComputeModel, Task, Traffic};

use crate::exec::{RunError, RunSpec, SweepExecutor, Workload};
use crate::experiments::{group_results, workload_plan, WorkloadError};
use crate::fabric::FabricReport;
use crate::report::{Figure, Point, Series};
use crate::{CellSystem, Placement, SyncPolicy, TransferPlan};

/// Payload bytes each SPE streams to measure a kernel's bandwidth.
const KERNEL_VOLUME_PER_SPE: u64 = 2 << 20;

/// Why a program could not be estimated or executed.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgramError {
    /// SPE (lane) count outside 1..=8.
    BadSpeCount(usize),
    /// The task list was empty.
    NoTasks,
    /// A kernel or task block size violates the quadword rule.
    BadBlockSize {
        /// Offending kernel or task name.
        name: String,
        /// Offending block size.
        bytes: u64,
    },
    /// The program's traffic does not form a valid transfer plan.
    Plan(WorkloadError),
    /// The program's run failed on the executor (stall, panic, timeout).
    Run(RunError),
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::BadSpeCount(n) => write!(f, "SPE count {n} outside 1..=8"),
            ProgramError::NoTasks => write!(f, "no tasks to execute"),
            ProgramError::BadBlockSize { name, bytes } => {
                write!(f, "{name}: block of {bytes} bytes is not a multiple of 16")
            }
            ProgramError::Plan(e) => write!(f, "plan construction failed: {e}"),
            ProgramError::Run(e) => write!(f, "fabric run failed: {e}"),
        }
    }
}

impl std::error::Error for ProgramError {}

fn check_spes(spes: usize) -> Result<(), ProgramError> {
    if (1..=8).contains(&spes) {
        Ok(())
    } else {
        Err(ProgramError::BadSpeCount(spes))
    }
}

fn check_block(name: &str, bytes: u64) -> Result<(), ProgramError> {
    if bytes == 0 || !bytes.is_multiple_of(16) {
        return Err(ProgramError::BadBlockSize {
            name: name.to_string(),
            bytes,
        });
    }
    Ok(())
}

/// Runs one spec on `exec`, passing a failed run on as
/// [`ProgramError::Run`].
fn run_one(exec: &SweepExecutor, spec: RunSpec) -> Result<Arc<FabricReport>, ProgramError> {
    exec.try_run(vec![spec])
        .pop()
        .expect("one result per spec")
        .map_err(ProgramError::Run)
}

/// Which term of the roofline binds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bound {
    /// The fabric cannot feed the SPUs fast enough.
    Memory,
    /// The SPU pipes are the limit.
    Compute,
}

/// A kernel performance estimate for one machine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelEstimate {
    /// Kernel name.
    pub name: String,
    /// Active SPEs.
    pub spes: usize,
    /// Sustained GFLOP/s (the roofline minimum).
    pub gflops: f64,
    /// The measured fabric bandwidth feeding the kernel, GB/s of input
    /// stream.
    pub bandwidth_gbps: f64,
    /// The aggregate SPU compute peak at the kernel's precision, GFLOP/s.
    pub compute_peak_gflops: f64,
    /// Which term binds.
    pub bound: Bound,
}

impl KernelEstimate {
    /// Whether the kernel is starved by the fabric.
    pub fn is_memory_bound(&self) -> bool {
        self.bound == Bound::Memory
    }
}

/// The run measuring `spec`'s bandwidth on `spes` SPEs: every SPE
/// streams [`KERNEL_VOLUME_PER_SPE`] (rounded to whole blocks) through
/// its own region under the identity placement.
fn kernel_run(
    system: &CellSystem,
    spec: &KernelSpec,
    spes: usize,
) -> Result<RunSpec, ProgramError> {
    check_spes(spes)?;
    let elem = spec.block_bytes;
    check_block(&spec.name, u64::from(elem))?;
    let volume = KERNEL_VOLUME_PER_SPE / u64::from(elem) * u64::from(elem);
    let pattern = match spec.traffic {
        Traffic::StreamIn => "mem-get",
        Traffic::StreamInOut => "mem-copy",
    };
    let workload = Workload::dma_elem(pattern, spes as u8, volume, elem);
    let plan = workload_plan(&workload).map_err(ProgramError::Plan)?;
    Ok(RunSpec::new(system, workload, Placement::identity(), plan))
}

/// The roofline of `spec` on `spes` SPEs given its measured traffic.
/// Double buffering is assumed (the paper's rule): communication fully
/// overlaps compute, so sustained performance is
/// `min(bandwidth × intensity, compute peak)`.
fn roofline(
    system: &CellSystem,
    spec: &KernelSpec,
    spes: usize,
    report: &FabricReport,
) -> KernelEstimate {
    let bandwidth_gbps = match spec.traffic {
        Traffic::StreamIn => report.sum_gbps,
        // Copy reports read+write traffic; the useful stream is half.
        Traffic::StreamInOut => report.sum_gbps / 2.0,
    };
    let memory_term = bandwidth_gbps * spec.flops_per_byte;
    let compute_peak_gflops =
        SpuComputeModel::new(system.config().clock).gflops_peak(spec.precision, spes);
    let (gflops, bound) = if memory_term <= compute_peak_gflops {
        (memory_term, Bound::Memory)
    } else {
        (compute_peak_gflops, Bound::Compute)
    };
    KernelEstimate {
        name: spec.name.clone(),
        spes,
        gflops,
        bandwidth_gbps,
        compute_peak_gflops,
        bound,
    }
}

/// The roofline estimate for `spec` on `spes` SPEs, with the kernel's
/// traffic simulated on `exec`.
///
/// # Errors
///
/// [`ProgramError::BadSpeCount`] unless `1 <= spes <= 8`,
/// [`ProgramError::BadBlockSize`] / [`ProgramError::Plan`] for a block
/// size the MFC cannot stream, and [`ProgramError::Run`] when the
/// traffic fails on the fabric.
pub fn kernel_estimate(
    exec: &SweepExecutor,
    system: &CellSystem,
    spec: &KernelSpec,
    spes: usize,
) -> Result<KernelEstimate, ProgramError> {
    let report = run_one(exec, kernel_run(system, spec, spes)?)?;
    Ok(roofline(system, spec, spes, &report))
}

/// Renders the paper kernels (plus DP GEMM) as figure K1, GFLOP/s over
/// 1, 2, 4 and 8 SPEs, swept on `exec` in one batch. Kernels sharing a
/// traffic pattern share their runs in the cache. A failed run is
/// recorded on `exec` and its point renders as a marked (`*`) zero.
pub fn figure_roofline_with(exec: &SweepExecutor, system: &CellSystem) -> Figure {
    let spe_counts = [1usize, 2, 4, 8];
    let mut kernels = KernelSpec::paper_kernels();
    kernels.push(KernelSpec::matrix_multiply(64).in_double_precision());
    let specs = kernels
        .iter()
        .flat_map(|spec| spe_counts.map(|spes| kernel_run(system, spec, spes)))
        .collect::<Result<Vec<_>, _>>()
        .expect("the paper kernels are valid programs");
    let mut groups = group_results(exec.try_run(specs), 1).into_iter();
    let series = kernels
        .iter()
        .map(|spec| Series {
            label: spec.name.clone(),
            points: spe_counts
                .map(|spes| {
                    let runs = groups.next().expect("one result per estimate");
                    let gflops = runs
                        .reports
                        .first()
                        .map_or(0.0, |r| roofline(system, spec, spes, r).gflops);
                    Point {
                        x: runs.mark(format!("{spes}")),
                        gbps: gflops, // GFLOP/s in this figure
                    }
                })
                .to_vec(),
        })
        .collect();
    Figure {
        id: "K1".into(),
        title: "small-kernel roofline (GFLOP/s, not GB/s)".into(),
        x_label: "SPEs".into(),
        series,
    }
}

/// Occupancy of one SPE lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneUsage {
    /// Logical SPE index.
    pub spe: usize,
    /// Tasks executed on this lane.
    pub tasks: usize,
    /// Bus cycles the lane's DMA traffic needed (measured on the fabric,
    /// with all lanes contending).
    pub comm_cycles: u64,
    /// Bus cycles of SPU compute assigned to the lane.
    pub comp_cycles: u64,
}

impl LaneUsage {
    /// With double buffering, the lane finishes when the slower of its
    /// two overlapped activities does.
    pub fn busy_cycles(&self) -> u64 {
        self.comm_cycles.max(self.comp_cycles)
    }

    /// Whether the fabric (rather than the SPU) bounds this lane.
    pub fn is_memory_bound(&self) -> bool {
        self.comm_cycles >= self.comp_cycles
    }
}

/// Outcome of executing a task set.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeReport {
    /// Tasks executed.
    pub tasks: usize,
    /// Active SPE lanes.
    pub lanes: Vec<LaneUsage>,
    /// Predicted completion time in bus cycles (slowest lane).
    pub makespan_cycles: u64,
    /// Sustained useful GFLOP/s over the makespan.
    pub gflops: f64,
    /// Total payload bytes the job moved.
    pub total_bytes: u64,
}

impl RuntimeReport {
    /// Lanes whose DMA traffic, not compute, is the limit.
    pub fn memory_bound_lanes(&self) -> usize {
        self.lanes.iter().filter(|l| l.is_memory_bound()).count()
    }
}

impl fmt::Display for RuntimeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} tasks over {} lanes: makespan {} cycles, {:.2} GFLOP/s",
            self.tasks,
            self.lanes.len(),
            self.makespan_cycles,
            self.gflops
        )?;
        for l in &self.lanes {
            writeln!(
                f,
                "  SPE{} : {:>3} tasks  comm {:>9}  comp {:>9}  bound: {}",
                l.spe,
                l.tasks,
                l.comm_cycles,
                l.comp_cycles,
                if l.is_memory_bound() {
                    "memory"
                } else {
                    "compute"
                }
            )?;
        }
        Ok(())
    }
}

/// Assigns `tasks` to `lanes` SPE lanes (least-loaded first) and
/// predicts the job's execution: the whole job's DMA traffic runs as one
/// `"tasks"` run on `exec`, while each lane's compute overlaps its
/// communication (double buffering).
///
/// # Errors
///
/// [`ProgramError::BadSpeCount`] unless `1 <= lanes <= 8`,
/// [`ProgramError::NoTasks`] / [`ProgramError::BadBlockSize`] for an
/// empty job or invalid block sizes, and [`ProgramError::Run`] when the
/// job's traffic fails on the fabric.
pub fn execute_tasks(
    exec: &SweepExecutor,
    system: &CellSystem,
    lanes: usize,
    tasks: &[Task],
) -> Result<RuntimeReport, ProgramError> {
    check_spes(lanes)?;
    if tasks.is_empty() {
        return Err(ProgramError::NoTasks);
    }
    for t in tasks {
        for &b in t.inputs().iter().chain(t.outputs()) {
            check_block(t.name(), b)?;
        }
    }

    // Least-loaded scheduling; load is the lane's overlapped busy
    // estimate (max of its comm and comp equivalents, in bytes).
    let clock = system.config().clock;
    let compute = SpuComputeModel::new(clock);
    let comm_bytes_per_bus_cycle = 9.5; // the ~10 GB/s single-lane rate
    let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); lanes];
    let mut comm_load = vec![0f64; lanes];
    let mut comp_load = vec![0f64; lanes];
    for (i, t) in tasks.iter().enumerate() {
        let lane = (0..lanes)
            .min_by(|&a, &b| {
                let la = comm_load[a].max(comp_load[a]);
                let lb = comm_load[b].max(comp_load[b]);
                la.partial_cmp(&lb).expect("finite loads")
            })
            .expect("at least one lane");
        assignment[lane].push(i);
        comm_load[lane] += t.total_bytes() as f64;
        let comp_bus =
            clock.cpu_to_bus_cycles(compute.cycles_for(t.precision(), t.flop_count()) as u64);
        comp_load[lane] += comp_bus as f64 * comm_bytes_per_bus_cycle;
    }

    // Build the whole job's DMA traffic. The per-lane block sequence
    // alone determines the plan, so its hash keys the run.
    let mut builder = TransferPlan::builder();
    let mut layout = Fnv1a::new();
    for (lane, task_ids) in assignment.iter().enumerate() {
        layout.update(b"|");
        let mut in_off = 0u64;
        let mut out_off = 0u64;
        for &ti in task_ids {
            let t = &tasks[ti];
            for &b in t.inputs() {
                builder = builder.get_block(lane, TransferPlan::get_region(lane), in_off, b);
                layout.update(b"g");
                layout.update(&b.to_le_bytes());
                in_off += b;
            }
            for &b in t.outputs() {
                builder = builder.put_block(lane, TransferPlan::put_region(lane), out_off, b);
                layout.update(b"p");
                layout.update(&b.to_le_bytes());
                out_off += b;
            }
        }
    }
    let plan = builder
        .build()
        .map_err(|e| ProgramError::Plan(WorkloadError::Plan(e)))?;
    let workload = Workload {
        pattern: "tasks",
        spes: lanes as u8,
        volume: tasks.iter().map(Task::total_bytes).sum(),
        elem: 0,
        list: false,
        sync: SyncPolicy::AfterAll,
        params: layout.finish(),
    };
    let spec = RunSpec::new(system, workload, Placement::identity(), Arc::new(plan));
    let fabric = run_one(exec, spec)?;

    // Per-lane occupancy: measured communication, analytic compute.
    let mut lane_usage = Vec::with_capacity(lanes);
    let mut total_flops = 0.0;
    for (lane, task_ids) in assignment.iter().enumerate() {
        let comp_cpu: f64 = task_ids
            .iter()
            .map(|&ti| {
                let t = &tasks[ti];
                total_flops += t.flop_count();
                compute.cycles_for(t.precision(), t.flop_count())
            })
            .sum();
        lane_usage.push(LaneUsage {
            spe: lane,
            tasks: task_ids.len(),
            comm_cycles: fabric.per_spe_cycles[lane],
            comp_cycles: clock.cpu_to_bus_cycles(comp_cpu.ceil() as u64),
        });
    }
    let makespan_cycles = lane_usage
        .iter()
        .map(LaneUsage::busy_cycles)
        .max()
        .expect("at least one lane");
    let seconds = clock.seconds(makespan_cycles);
    Ok(RuntimeReport {
        tasks: tasks.len(),
        lanes: lane_usage,
        makespan_cycles,
        gflops: if seconds > 0.0 {
            total_flops / seconds / 1e9
        } else {
            0.0
        },
        total_bytes: fabric.total_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::CacheStats;

    fn estimate(sys: &CellSystem, spec: &KernelSpec, spes: usize) -> KernelEstimate {
        kernel_estimate(&SweepExecutor::new(1), sys, spec, spes).unwrap()
    }

    #[test]
    fn dot_product_is_memory_bound_everywhere() {
        let sys = CellSystem::blade();
        for spes in [1, 4, 8] {
            let est = estimate(&sys, &KernelSpec::dot_product(), spes);
            assert!(est.is_memory_bound(), "{spes} SPEs: {est:?}");
            // 0.25 flops/byte x ~10-23 GB/s: single digits of GFLOP/s.
            assert!(est.gflops < 7.0, "{est:?}");
        }
    }

    #[test]
    fn blocked_gemm_is_compute_bound() {
        let est = estimate(&CellSystem::blade(), &KernelSpec::matrix_multiply(64), 8);
        assert_eq!(est.bound, Bound::Compute);
        assert!((est.gflops - 67.2).abs() < 1e-6, "{est:?}");
    }

    #[test]
    fn double_precision_flips_gemm_to_compute_starved() {
        let sys = CellSystem::blade();
        let sp = estimate(&sys, &KernelSpec::matrix_multiply(64), 8);
        let dp = estimate(
            &sys,
            &KernelSpec::matrix_multiply(64).in_double_precision(),
            8,
        );
        // Dongarra's point: DP is ~28x slower, so do the bulk in SP.
        assert!(
            dp.gflops < sp.gflops / 20.0,
            "sp={} dp={}",
            sp.gflops,
            dp.gflops
        );
    }

    #[test]
    fn more_spes_never_reduce_kernel_performance() {
        let sys = CellSystem::blade();
        let triad = KernelSpec::stream_triad();
        let g1 = estimate(&sys, &triad, 1).gflops;
        let g4 = estimate(&sys, &triad, 4).gflops;
        assert!(g4 > g1, "g1={g1} g4={g4}");
    }

    #[test]
    fn estimates_expose_their_terms() {
        let est = estimate(&CellSystem::blade(), &KernelSpec::matrix_vector(), 2);
        assert!(est.bandwidth_gbps > 0.0);
        assert!(est.compute_peak_gflops > 0.0);
        assert!(est.gflops <= est.compute_peak_gflops + 1e-9);
        assert!(est.gflops <= est.bandwidth_gbps * 0.5 + 1e-9);
    }

    #[test]
    fn roofline_figure_covers_all_kernels() {
        let fig = figure_roofline_with(&SweepExecutor::new(2), &CellSystem::blade());
        assert_eq!(fig.series.len(), 5);
        assert!(fig.value("dot product", "8").unwrap() > 0.0);
        // GEMM at 8 SPEs hits the SP compute peak.
        let gemm = fig.value("matrix multiply (b=64)", "8").unwrap();
        assert!((gemm - 67.2).abs() < 1e-6);
    }

    #[test]
    fn kernel_arguments_are_rejected_not_panicked_on() {
        let exec = SweepExecutor::new(1);
        let sys = CellSystem::blade();
        let dot = KernelSpec::dot_product();
        assert_eq!(
            kernel_estimate(&exec, &sys, &dot, 9),
            Err(ProgramError::BadSpeCount(9))
        );
        assert_eq!(
            kernel_estimate(&exec, &sys, &dot, 0),
            Err(ProgramError::BadSpeCount(0))
        );
        let odd = KernelSpec {
            block_bytes: 100,
            ..KernelSpec::dot_product()
        };
        assert!(matches!(
            kernel_estimate(&exec, &sys, &odd, 1),
            Err(ProgramError::BadBlockSize { bytes: 100, .. })
        ));
        let huge = KernelSpec {
            block_bytes: 32 << 10,
            ..KernelSpec::dot_product()
        };
        assert!(matches!(
            kernel_estimate(&exec, &sys, &huge, 1),
            Err(ProgramError::Plan(_))
        ));
        assert_eq!(exec.stats(), CacheStats::default(), "nothing was simulated");
    }

    fn streaming_task(i: usize) -> Task {
        Task::new(format!("s{i}"))
            .input(64 << 10)
            .output(64 << 10)
            .flops(1_000.0)
    }

    fn heavy_task(i: usize) -> Task {
        Task::new(format!("h{i}"))
            .input(16 << 10)
            .flops(50_000_000.0)
    }

    fn execute(lanes: usize, tasks: &[Task]) -> Result<RuntimeReport, ProgramError> {
        execute_tasks(&SweepExecutor::new(1), &CellSystem::blade(), lanes, tasks)
    }

    #[test]
    fn streaming_job_is_memory_bound() {
        let tasks: Vec<Task> = (0..32).map(streaming_task).collect();
        let r = execute(4, &tasks).unwrap();
        assert_eq!(r.tasks, 32);
        assert_eq!(r.memory_bound_lanes(), 4);
        assert_eq!(r.total_bytes, 32 * (128 << 10));
    }

    #[test]
    fn compute_heavy_job_is_compute_bound() {
        let tasks: Vec<Task> = (0..8).map(heavy_task).collect();
        let r = execute(2, &tasks).unwrap();
        assert_eq!(r.memory_bound_lanes(), 0);
        // 8 x 50 MFLOP on 2 SPUs at 8.4 GFLOP/s each.
        assert!(r.gflops > 10.0, "{r}");
    }

    #[test]
    fn more_lanes_shrink_the_makespan() {
        let tasks: Vec<Task> = (0..32).map(streaming_task).collect();
        let one = execute(1, &tasks).unwrap();
        let four = execute(4, &tasks).unwrap();
        assert!(
            four.makespan_cycles < one.makespan_cycles,
            "{} vs {}",
            four.makespan_cycles,
            one.makespan_cycles
        );
    }

    #[test]
    fn scheduler_balances_task_counts() {
        let tasks: Vec<Task> = (0..40).map(streaming_task).collect();
        let r = execute(4, &tasks).unwrap();
        for lane in &r.lanes {
            assert_eq!(lane.tasks, 10, "uniform tasks spread uniformly");
        }
    }

    #[test]
    fn mixed_jobs_put_heavy_tasks_on_emptier_lanes() {
        let mut tasks: Vec<Task> = (0..4).map(heavy_task).collect();
        tasks.extend((0..4).map(streaming_task));
        let r = execute(2, &tasks).unwrap();
        // Both lanes have work.
        assert!(r.lanes.iter().all(|l| l.tasks > 0));
    }

    #[test]
    fn task_errors_are_reported() {
        assert_eq!(execute(2, &[]), Err(ProgramError::NoTasks));
        let bad = Task::new("bad").input(100); // not a multiple of 16
        assert!(matches!(
            execute(2, &[bad]),
            Err(ProgramError::BadBlockSize { bytes: 100, .. })
        ));
        assert_eq!(
            execute(9, &[streaming_task(0)]),
            Err(ProgramError::BadSpeCount(9))
        );
    }

    #[test]
    fn dp_tasks_take_far_longer() {
        let sp = Task::new("sp").input(16 << 10).flops(10_000_000.0);
        let dp = Task::new("dp")
            .input(16 << 10)
            .flops(10_000_000.0)
            .double_precision();
        let rs = execute(1, &[sp]).unwrap();
        let rd = execute(1, &[dp]).unwrap();
        assert!(
            rd.makespan_cycles > 20 * rs.makespan_cycles,
            "{} vs {}",
            rd.makespan_cycles,
            rs.makespan_cycles
        );
    }

    #[test]
    fn equal_layouts_share_a_run_and_different_ones_do_not() {
        let exec = SweepExecutor::new(1);
        let sys = CellSystem::blade();
        let job: Vec<Task> = (0..4).map(streaming_task).collect();
        let renamed: Vec<Task> = (0..4).map(|i| streaming_task(i + 100).flops(9e6)).collect();
        let a = execute_tasks(&exec, &sys, 2, &job).unwrap();
        let b = execute_tasks(&exec, &sys, 2, &renamed).unwrap();
        assert_eq!(exec.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(a.total_bytes, b.total_bytes);
        // Swapping a task's input and output changes the plan, so it
        // must change the key.
        let swapped = [Task::new("x").input(16 << 10).output(32 << 10)];
        let original = [Task::new("x").input(32 << 10).output(16 << 10)];
        execute_tasks(&exec, &sys, 1, &swapped).unwrap();
        execute_tasks(&exec, &sys, 1, &original).unwrap();
        assert_eq!(exec.stats().misses, 3);
    }

    #[test]
    fn lane_usage_overlaps_comm_and_comp() {
        let l = LaneUsage {
            spe: 0,
            tasks: 3,
            comm_cycles: 100,
            comp_cycles: 40,
        };
        assert_eq!(l.busy_cycles(), 100);
        assert!(l.is_memory_bound());
    }

    #[test]
    fn report_counts_and_renders_bounds() {
        let r = RuntimeReport {
            tasks: 10,
            lanes: vec![LaneUsage {
                spe: 0,
                tasks: 10,
                comm_cycles: 1000,
                comp_cycles: 2000,
            }],
            makespan_cycles: 2000,
            gflops: 1.5,
            total_bytes: 4096,
        };
        assert_eq!(r.memory_bound_lanes(), 0);
        assert!(r.to_string().contains("compute"));
    }
}
