//! The paper's future work: evaluating small kernels (scalar product,
//! matrix–vector, matrix product, streaming) on the measured fabric.
//!
//! For each kernel, the sweep executor simulates its DMA traffic pattern
//! on the fabric, measures the bandwidth actually delivered, and takes
//! the roofline minimum against the SPU compute peak. Kernels with the
//! same traffic share their runs in the executor's cache.
//!
//! ```text
//! cargo run --release --example kernels_roofline
//! ```

use cellsim::exec::SweepExecutor;
use cellsim::experiments::{kernel_estimate, Bound, ProgramError};
use cellsim::workloads::KernelSpec;
use cellsim::CellSystem;

fn main() -> Result<(), ProgramError> {
    let system = CellSystem::blade();
    let exec = SweepExecutor::default();

    println!("kernel roofline on the simulated 2.1 GHz CBE:");
    println!("(SP peak per SPU: 8.4 GFLOP/s; DP is one op every 7 cycles)\n");
    println!(
        "{:<24} {:>5} {:>12} {:>12} {:>9}",
        "kernel", "SPEs", "BW (GB/s)", "GFLOP/s", "bound"
    );
    let mut kernels = KernelSpec::paper_kernels();
    kernels.push(KernelSpec::matrix_multiply(64).in_double_precision());
    for spec in &kernels {
        for spes in [1usize, 4, 8] {
            let est = kernel_estimate(&exec, &system, spec, spes)?;
            println!(
                "{:<24} {:>5} {:>12.2} {:>12.2} {:>9}",
                est.name,
                est.spes,
                est.bandwidth_gbps,
                est.gflops,
                match est.bound {
                    Bound::Memory => "memory",
                    Bound::Compute => "compute",
                }
            );
        }
        println!();
    }
    println!(
        "Low-intensity kernels saturate around the bandwidths of the\n\
         paper's Figure 8 and never come near the arithmetic peak; only\n\
         LS-blocked matrix multiply is compute-bound — and its DP variant\n\
         collapses to the slow DP pipe, exactly Dongarra's argument for\n\
         mixed-precision solvers on Cell."
    );
    Ok(())
}
