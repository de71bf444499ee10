//! The scheduler and executor.

use std::error::Error;
use std::fmt;

use cellsim_core::{CellSystem, Placement, PlanError, RunFailure, TransferPlan};
use cellsim_kernels::SpuComputeModel;

use crate::report::{LaneUsage, RuntimeReport};
use crate::task::Task;

/// Why a job could not be executed.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// The task list was empty.
    NoTasks,
    /// Lane count outside 1..=8.
    BadLaneCount(usize),
    /// A task block size violates the quadword rule.
    BadBlockSize {
        /// Offending task name.
        task: String,
        /// Offending block size.
        bytes: u64,
    },
    /// The generated transfer plan was invalid.
    Plan(PlanError),
    /// The job's DMA traffic stalled the fabric.
    Stall(RunFailure),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::NoTasks => write!(f, "no tasks to execute"),
            RuntimeError::BadLaneCount(n) => write!(f, "lane count {n} outside 1..=8"),
            RuntimeError::BadBlockSize { task, bytes } => {
                write!(
                    f,
                    "task {task}: block of {bytes} bytes is not a multiple of 16"
                )
            }
            RuntimeError::Plan(e) => write!(f, "plan construction failed: {e}"),
            RuntimeError::Stall(e) => write!(f, "fabric run failed: {e}"),
        }
    }
}

impl Error for RuntimeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RuntimeError::Plan(e) => Some(e),
            RuntimeError::Stall(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlanError> for RuntimeError {
    fn from(e: PlanError) -> Self {
        RuntimeError::Plan(e)
    }
}

impl From<RunFailure> for RuntimeError {
    fn from(e: RunFailure) -> Self {
        RuntimeError::Stall(e)
    }
}

/// A CellSs-style streaming runtime over `lanes` SPEs of a simulated
/// machine. See the [crate-level example](crate).
#[derive(Debug)]
pub struct StreamRuntime<'a> {
    system: &'a CellSystem,
    lanes: usize,
    compute: SpuComputeModel,
}

impl<'a> StreamRuntime<'a> {
    /// A runtime using logical SPEs `0..lanes`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= lanes <= 8` (use [`StreamRuntime::try_new`]
    /// for a fallible variant).
    pub fn new(system: &'a CellSystem, lanes: usize) -> StreamRuntime<'a> {
        StreamRuntime::try_new(system, lanes).expect("lane count in 1..=8")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadLaneCount`] outside 1..=8.
    pub fn try_new(
        system: &'a CellSystem,
        lanes: usize,
    ) -> Result<StreamRuntime<'a>, RuntimeError> {
        if !(1..=8).contains(&lanes) {
            return Err(RuntimeError::BadLaneCount(lanes));
        }
        Ok(StreamRuntime {
            system,
            lanes,
            compute: SpuComputeModel::new(system.config().clock),
        })
    }

    /// The number of SPE lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Assigns tasks to lanes (least-loaded first) and predicts the
    /// job's execution: the whole job's DMA traffic runs through the
    /// simulated fabric — so lanes contend for rings and banks exactly
    /// as the paper measures — while each lane's compute overlaps its
    /// communication (double buffering).
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] for an empty job or invalid block
    /// sizes, and [`RuntimeError::Stall`] when the job's traffic stalls
    /// the fabric.
    pub fn execute(&self, tasks: &[Task]) -> Result<RuntimeReport, RuntimeError> {
        if tasks.is_empty() {
            return Err(RuntimeError::NoTasks);
        }
        for t in tasks {
            for &b in t.inputs().iter().chain(t.outputs()) {
                if b == 0 || b % 16 != 0 {
                    return Err(RuntimeError::BadBlockSize {
                        task: t.name().to_string(),
                        bytes: b,
                    });
                }
            }
        }

        // Least-loaded scheduling; load is the lane's overlapped busy
        // estimate (max of its comm and comp equivalents, in bytes).
        let clock = self.system.config().clock;
        let comm_bytes_per_bus_cycle = 9.5; // the ~10 GB/s single-lane rate
        let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); self.lanes];
        let mut comm_load = vec![0f64; self.lanes];
        let mut comp_load = vec![0f64; self.lanes];
        for (i, t) in tasks.iter().enumerate() {
            let lane = (0..self.lanes)
                .min_by(|&a, &b| {
                    let la = comm_load[a].max(comp_load[a]);
                    let lb = comm_load[b].max(comp_load[b]);
                    la.partial_cmp(&lb).expect("finite loads")
                })
                .expect("at least one lane");
            assignment[lane].push(i);
            comm_load[lane] += t.total_bytes() as f64;
            let comp_bus = clock
                .cpu_to_bus_cycles(self.compute.cycles_for(t.precision(), t.flop_count()) as u64);
            comp_load[lane] += comp_bus as f64 * comm_bytes_per_bus_cycle;
        }

        // Build the whole job's DMA traffic.
        let mut builder = TransferPlan::builder();
        for (lane, task_ids) in assignment.iter().enumerate() {
            let mut in_off = 0u64;
            let mut out_off = 0u64;
            for &ti in task_ids {
                let t = &tasks[ti];
                for &b in t.inputs() {
                    builder = builder.get_block(lane, TransferPlan::get_region(lane), in_off, b);
                    in_off += b;
                }
                for &b in t.outputs() {
                    builder = builder.put_block(lane, TransferPlan::put_region(lane), out_off, b);
                    out_off += b;
                }
            }
        }
        let plan = builder.build()?;
        let fabric = self.system.try_run(&Placement::identity(), &plan)?;

        // Per-lane occupancy: measured communication, analytic compute.
        let mut lanes = Vec::with_capacity(self.lanes);
        let mut total_flops = 0.0;
        for (lane, task_ids) in assignment.iter().enumerate() {
            let comp_cpu: f64 = task_ids
                .iter()
                .map(|&ti| {
                    let t = &tasks[ti];
                    total_flops += t.flop_count();
                    self.compute.cycles_for(t.precision(), t.flop_count())
                })
                .sum();
            lanes.push(LaneUsage {
                spe: lane,
                tasks: task_ids.len(),
                comm_cycles: fabric.per_spe_cycles[lane],
                comp_cycles: clock.cpu_to_bus_cycles(comp_cpu.ceil() as u64),
            });
        }
        let makespan_cycles = lanes
            .iter()
            .map(LaneUsage::busy_cycles)
            .max()
            .expect("at least one lane");
        let seconds = clock.seconds(makespan_cycles);
        Ok(RuntimeReport {
            tasks: tasks.len(),
            lanes,
            makespan_cycles,
            gflops: if seconds > 0.0 {
                total_flops / seconds / 1e9
            } else {
                0.0
            },
            total_bytes: fabric.total_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn streaming_job_is_memory_bound() {
        let sys = CellSystem::blade();
        let rt = StreamRuntime::new(&sys, 4);
        let tasks: Vec<Task> = (0..32).map(streaming_task).collect();
        let r = rt.execute(&tasks).unwrap();
        assert_eq!(r.tasks, 32);
        assert_eq!(r.memory_bound_lanes(), 4);
        assert_eq!(r.total_bytes, 32 * (128 << 10));
    }

    #[test]
    fn compute_heavy_job_is_compute_bound() {
        let sys = CellSystem::blade();
        let rt = StreamRuntime::new(&sys, 2);
        let tasks: Vec<Task> = (0..8).map(heavy_task).collect();
        let r = rt.execute(&tasks).unwrap();
        assert_eq!(r.memory_bound_lanes(), 0);
        // 8 x 50 MFLOP on 2 SPUs at 8.4 GFLOP/s each.
        assert!(r.gflops > 10.0, "{r}");
    }

    #[test]
    fn more_lanes_shrink_the_makespan() {
        let sys = CellSystem::blade();
        let tasks: Vec<Task> = (0..32).map(streaming_task).collect();
        let one = StreamRuntime::new(&sys, 1).execute(&tasks).unwrap();
        let four = StreamRuntime::new(&sys, 4).execute(&tasks).unwrap();
        assert!(
            four.makespan_cycles < one.makespan_cycles,
            "{} vs {}",
            four.makespan_cycles,
            one.makespan_cycles
        );
    }

    #[test]
    fn scheduler_balances_task_counts() {
        let sys = CellSystem::blade();
        let rt = StreamRuntime::new(&sys, 4);
        let tasks: Vec<Task> = (0..40).map(streaming_task).collect();
        let r = rt.execute(&tasks).unwrap();
        for lane in &r.lanes {
            assert_eq!(lane.tasks, 10, "uniform tasks spread uniformly");
        }
    }

    #[test]
    fn mixed_jobs_put_heavy_tasks_on_emptier_lanes() {
        let sys = CellSystem::blade();
        let rt = StreamRuntime::new(&sys, 2);
        let mut tasks: Vec<Task> = (0..4).map(heavy_task).collect();
        tasks.extend((0..4).map(streaming_task));
        let r = rt.execute(&tasks).unwrap();
        // Both lanes have work.
        assert!(r.lanes.iter().all(|l| l.tasks > 0));
    }

    #[test]
    fn errors_are_reported() {
        let sys = CellSystem::blade();
        let rt = StreamRuntime::new(&sys, 2);
        assert_eq!(rt.execute(&[]), Err(RuntimeError::NoTasks));
        let bad = Task::new("bad").input(100); // not a multiple of 16
        assert!(matches!(
            rt.execute(&[bad]),
            Err(RuntimeError::BadBlockSize { bytes: 100, .. })
        ));
        assert!(matches!(
            StreamRuntime::try_new(&sys, 9),
            Err(RuntimeError::BadLaneCount(9))
        ));
    }

    #[test]
    fn dp_tasks_take_far_longer() {
        let sys = CellSystem::blade();
        let rt = StreamRuntime::new(&sys, 1);
        let sp = Task::new("sp").input(16 << 10).flops(10_000_000.0);
        let dp = Task::new("dp")
            .input(16 << 10)
            .flops(10_000_000.0)
            .double_precision();
        let rs = rt.execute(&[sp]).unwrap();
        let rd = rt.execute(&[dp]).unwrap();
        assert!(
            rd.makespan_cycles > 20 * rs.makespan_cycles,
            "{} vs {}",
            rd.makespan_cycles,
            rs.makespan_cycles
        );
    }
}
