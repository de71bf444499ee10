//! Program descriptors for the paper's §5 follow-ups: the small kernels
//! (scalar product, matrix–vector, GEMM, streaming) and CellSs-style
//! tasks, plus the SPU arithmetic rates both are costed with.
//!
//! These are pure descriptions; `cellsim-core`'s experiments run their
//! DMA traffic on the simulated fabric.

use cellsim_kernel::MachineClock;

/// Floating-point precision of a kernel or task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 32-bit: the SPU's 4-wide SIMD pipe retires 4 FLOPs per cycle.
    Single,
    /// 64-bit: the first-generation CBE retires one DP operation every
    /// seven cycles.
    Double,
}

/// The SPU's arithmetic throughput model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpuComputeModel {
    clock: MachineClock,
}

impl SpuComputeModel {
    /// Single-precision FLOPs per SPU cycle.
    pub const SP_FLOPS_PER_CYCLE: f64 = 4.0;
    /// Double-precision FLOPs per SPU cycle.
    pub const DP_FLOPS_PER_CYCLE: f64 = 1.0 / 7.0;

    /// The CBE rates under `clock`.
    pub fn new(clock: MachineClock) -> SpuComputeModel {
        SpuComputeModel { clock }
    }

    /// FLOPs per SPU cycle at `precision`.
    pub fn flops_per_cycle(&self, precision: Precision) -> f64 {
        match precision {
            Precision::Single => Self::SP_FLOPS_PER_CYCLE,
            Precision::Double => Self::DP_FLOPS_PER_CYCLE,
        }
    }

    /// Peak GFLOP/s of `spes` SPUs at `precision`.
    pub fn gflops_peak(&self, precision: Precision, spes: usize) -> f64 {
        self.flops_per_cycle(precision) * self.clock.cpu_hz() * spes as f64 / 1e9
    }

    /// CPU cycles to execute `flops` FLOPs on one SPU.
    pub fn cycles_for(&self, precision: Precision, flops: f64) -> f64 {
        flops / self.flops_per_cycle(precision)
    }
}

/// The DMA traffic pattern a kernel's inner loop generates per block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Traffic {
    /// Streams input from memory only (results stay in registers/LS),
    /// e.g. a reduction.
    StreamIn,
    /// Streams input from memory and writes results back, e.g. triad.
    StreamInOut,
}

/// A streaming kernel, described by the quantities that decide its
/// performance on a bandwidth-limited machine.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpec {
    /// Human name.
    pub name: String,
    /// Useful FLOPs per byte *moved from memory* (arithmetic intensity).
    pub flops_per_byte: f64,
    /// Arithmetic precision.
    pub precision: Precision,
    /// DMA block size (bytes) the implementation streams with; the
    /// paper's rules say ≥1 KB, ideally 16 KB.
    pub block_bytes: u32,
    /// Traffic pattern.
    pub traffic: Traffic,
}

impl KernelSpec {
    /// Scalar (dot) product `Σ xᵢ·yᵢ`: 2 FLOPs per 8 input bytes.
    pub fn dot_product() -> KernelSpec {
        KernelSpec {
            name: "dot product".into(),
            flops_per_byte: 0.25,
            precision: Precision::Single,
            block_bytes: 16 * 1024,
            traffic: Traffic::StreamIn,
        }
    }

    /// STREAM triad `aᵢ = bᵢ + s·cᵢ`: 2 FLOPs per 12 bytes moved.
    pub fn stream_triad() -> KernelSpec {
        KernelSpec {
            name: "stream triad".into(),
            flops_per_byte: 2.0 / 12.0,
            precision: Precision::Single,
            block_bytes: 16 * 1024,
            traffic: Traffic::StreamInOut,
        }
    }

    /// Matrix–vector product `y = A·x` with the vector resident in LS:
    /// 2 FLOPs per 4 bytes of streamed matrix.
    pub fn matrix_vector() -> KernelSpec {
        KernelSpec {
            name: "matrix-vector".into(),
            flops_per_byte: 0.5,
            precision: Precision::Single,
            block_bytes: 16 * 1024,
            traffic: Traffic::StreamIn,
        }
    }

    /// Blocked matrix multiply with `b×b` tiles resident in LS: each
    /// streamed tile of `4b²` bytes contributes `2b³` FLOPs, i.e. `b/2`
    /// FLOPs per byte.
    pub fn matrix_multiply(tile: u32) -> KernelSpec {
        assert!(tile > 0, "tile must be non-zero");
        KernelSpec {
            name: format!("matrix multiply (b={tile})"),
            flops_per_byte: f64::from(tile) / 2.0,
            precision: Precision::Single,
            block_bytes: (4 * tile * tile).min(16 * 1024),
            traffic: Traffic::StreamInOut,
        }
    }

    /// Double-precision variant of this kernel (same traffic, the slow
    /// DP pipe).
    pub fn in_double_precision(mut self) -> KernelSpec {
        self.precision = Precision::Double;
        self.name.push_str(" (DP)");
        // Same FLOP count but each element is twice the bytes.
        self.flops_per_byte /= 2.0;
        self
    }

    /// The four kernels the paper names.
    pub fn paper_kernels() -> Vec<KernelSpec> {
        vec![
            KernelSpec::dot_product(),
            KernelSpec::stream_triad(),
            KernelSpec::matrix_vector(),
            KernelSpec::matrix_multiply(64),
        ]
    }
}

/// One schedulable unit of work: operand blocks plus a FLOP count.
///
/// Blocks are sized in bytes; the task runtime allocates them in
/// per-lane memory regions and splits them into valid DMA commands.
/// Sizes must be multiples of 16 bytes (the CBE's quadword rule).
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    name: String,
    inputs: Vec<u64>,
    outputs: Vec<u64>,
    flops: f64,
    precision: Precision,
}

impl Task {
    /// A task with no operands and no work; chain the builder methods.
    pub fn new(name: impl Into<String>) -> Task {
        Task {
            name: name.into(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            flops: 0.0,
            precision: Precision::Single,
        }
    }

    /// Adds an input block of `bytes` bytes (DMAed in before compute).
    pub fn input(mut self, bytes: u64) -> Task {
        self.inputs.push(bytes);
        self
    }

    /// Adds an output block of `bytes` bytes (DMAed out after compute).
    pub fn output(mut self, bytes: u64) -> Task {
        self.outputs.push(bytes);
        self
    }

    /// Sets the task's useful FLOPs.
    pub fn flops(mut self, flops: f64) -> Task {
        self.flops = flops;
        self
    }

    /// Switches the task to double precision (the slow SPU pipe).
    pub fn double_precision(mut self) -> Task {
        self.precision = Precision::Double;
        self
    }

    /// The task's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input block sizes.
    pub fn inputs(&self) -> &[u64] {
        &self.inputs
    }

    /// Output block sizes.
    pub fn outputs(&self) -> &[u64] {
        &self.outputs
    }

    /// Useful FLOPs.
    pub fn flop_count(&self) -> f64 {
        self.flops
    }

    /// Arithmetic precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Total DMA bytes this task moves (both directions).
    pub fn total_bytes(&self) -> u64 {
        self.inputs.iter().sum::<u64>() + self.outputs.iter().sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sp_peak_matches_the_paper_headline() {
        let m = SpuComputeModel::new(MachineClock::default());
        // 4 FLOPs x 2.1 GHz = 8.4 GFLOP/s per SPU; the paper quotes
        // 16.8 per SPE counting fused multiply-adds as two.
        assert!((m.gflops_peak(Precision::Single, 1) - 8.4).abs() < 1e-9);
        assert!((m.gflops_peak(Precision::Single, 8) - 67.2).abs() < 1e-9);
    }

    #[test]
    fn dp_is_twenty_eight_times_slower() {
        let m = SpuComputeModel::new(MachineClock::default());
        let ratio = m.gflops_peak(Precision::Single, 1) / m.gflops_peak(Precision::Double, 1);
        assert!((ratio - 28.0).abs() < 1e-9);
    }

    #[test]
    fn cycles_invert_the_rate() {
        let m = SpuComputeModel::new(MachineClock::default());
        assert_eq!(m.cycles_for(Precision::Single, 400.0), 100.0);
        assert_eq!(m.cycles_for(Precision::Double, 10.0), 70.0);
    }

    #[test]
    fn intensities_are_correct() {
        assert_eq!(KernelSpec::dot_product().flops_per_byte, 0.25);
        assert_eq!(KernelSpec::matrix_vector().flops_per_byte, 0.5);
        assert_eq!(KernelSpec::matrix_multiply(64).flops_per_byte, 32.0);
        assert!((KernelSpec::stream_triad().flops_per_byte - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn dp_variant_halves_intensity() {
        let sp = KernelSpec::dot_product();
        let dp = KernelSpec::dot_product().in_double_precision();
        assert_eq!(dp.precision, Precision::Double);
        assert_eq!(dp.flops_per_byte, sp.flops_per_byte / 2.0);
        assert!(dp.name.contains("DP"));
    }

    #[test]
    fn gemm_block_size_respects_dma_limit() {
        let k = KernelSpec::matrix_multiply(128);
        assert!(k.block_bytes <= 16 * 1024);
    }

    #[test]
    #[should_panic(expected = "tile")]
    fn zero_tile_rejected() {
        let _ = KernelSpec::matrix_multiply(0);
    }

    #[test]
    fn task_builder_accumulates_operands() {
        let t = Task::new("gemm")
            .input(1024)
            .input(2048)
            .output(512)
            .flops(1e6);
        assert_eq!(t.name(), "gemm");
        assert_eq!(t.inputs(), &[1024, 2048]);
        assert_eq!(t.outputs(), &[512]);
        assert_eq!(t.total_bytes(), 3584);
        assert_eq!(t.flop_count(), 1e6);
        assert_eq!(t.precision(), Precision::Single);
    }

    #[test]
    fn task_double_precision_is_sticky() {
        let t = Task::new("dp").double_precision();
        assert_eq!(t.precision(), Precision::Double);
    }
}
