//! SPE↔memory DMA bandwidth (paper Figure 8).

use crate::exec::{SweepExecutor, Workload};
use crate::experiments::{mean, sweep, ExperimentConfig, ExperimentError, SweepPoint};
use crate::report::{format_bytes, Figure, Point, Series};
use crate::{CellSystem, SyncPolicy, TransferPlan};

#[derive(Debug, Clone, Copy)]
pub(crate) enum MemOp {
    Get,
    Put,
    Copy,
}

/// SPE↔memory DMA-elem bandwidth for GET / PUT / GET+PUT with 1, 2, 4
/// and 8 active SPEs (Figure 8 a–c), swept on `exec`.
///
/// Weak scaling: each SPE streams `volume_per_spe` through its own
/// region; the reported bandwidth is the sum of per-SPE bandwidths, each
/// over its own completion time (the per-SPE decrementer timing of the
/// paper), averaged over random placements.
///
/// # Errors
///
/// [`ExperimentError::InvalidConfig`] if `cfg` fails validation.
pub fn figure8_with(
    exec: &SweepExecutor,
    system: &CellSystem,
    cfg: &ExperimentConfig,
) -> Result<Vec<Figure>, ExperimentError> {
    cfg.validate()
        .map_err(|issue| ExperimentError::InvalidConfig { figure: "8", issue })?;
    let ops = [("a", "GET"), ("b", "PUT"), ("c", "GET+PUT")];
    let points = figure8_points(cfg);
    let mut groups = sweep(exec, system, cfg, &points).into_iter();
    Ok(ops
        .into_iter()
        .map(|(sub, name)| {
            let series = SPE_COUNTS
                .into_iter()
                .map(|n| Series {
                    label: format!("{n} SPE{}", if n > 1 { "s" } else { "" }),
                    points: cfg
                        .dma_elem_sizes
                        .iter()
                        .map(|&elem| {
                            let runs = groups.next().expect("one report group per sweep point");
                            Point {
                                x: runs.mark(format_bytes(u64::from(elem))),
                                gbps: mean(&runs.samples(|r| r.sum_gbps)),
                            }
                        })
                        .collect(),
                })
                .collect();
            Figure {
                id: format!("8{sub}"),
                title: format!("SPE to memory — {name}"),
                x_label: "element".into(),
                series,
            }
        })
        .collect())
}

/// Figure 8's SPE counts, one series each.
const SPE_COUNTS: [u8; 4] = [1, 2, 4, 8];

/// Figure 8's sweep points: ops (GET, PUT, GET+PUT) × SPE counts × elems.
/// The figure renderer and the per-figure metric digest both build from
/// here so their runs coincide in the cache. `cfg` must already be
/// validated — plan building panics on degenerate configs.
pub(crate) fn figure8_points(cfg: &ExperimentConfig) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for op in ["mem-get", "mem-put", "mem-copy"] {
        for spes in SPE_COUNTS {
            for &elem in &cfg.dma_elem_sizes {
                let workload = Workload::dma_elem(op, spes, cfg.volume_per_spe, elem);
                points.push(SweepPoint::new(workload).expect("experiment plan is valid"));
            }
        }
    }
    points
}

/// Builds the SPE↔memory streaming plan. Fallible for the same reason
/// as [`super::spe_pairs::pattern_plan`]: the serve daemon rebuilds
/// plans from untrusted wire workloads and needs the typed error.
pub(crate) fn mem_plan(
    op: MemOp,
    spes: usize,
    volume: u64,
    elem: u32,
) -> Result<TransferPlan, crate::PlanError> {
    let mut b = TransferPlan::builder();
    for spe in 0..spes {
        b = match op {
            MemOp::Get => b.get_from_memory(spe, volume, elem, SyncPolicy::AfterAll),
            MemOp::Put => b.put_to_memory(spe, volume, elem, SyncPolicy::AfterAll),
            MemOp::Copy => b.copy_memory(spe, volume, elem, SyncPolicy::AfterAll),
        };
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            volume_per_spe: 256 << 10,
            dma_elem_sizes: vec![16384],
            placements: 2,
            seed: 1,
        }
    }

    #[test]
    fn figure8_reproduces_the_scaling_story() {
        let figs = figure8_with(&SweepExecutor::new(2), &CellSystem::blade(), &tiny()).unwrap();
        assert_eq!(figs.len(), 3);
        let get = &figs[0];
        let one = get.value("1 SPE", "16 KB").unwrap();
        let two = get.value("2 SPEs", "16 KB").unwrap();
        let four = get.value("4 SPEs", "16 KB").unwrap();
        // Paper: ~10 GB/s for one SPE; two or more use both banks; the
        // two-bank aggregate peaks near 23.8.
        assert!((8.0..12.0).contains(&one), "one={one}");
        assert!(two > 14.0, "two={two}");
        assert!(four > two, "four={four} two={two}");
        assert!(four < 23.8);
    }

    #[test]
    fn copy_counts_both_directions_of_traffic() {
        let figs = figure8_with(&SweepExecutor::new(2), &CellSystem::blade(), &tiny()).unwrap();
        let copy_one = figs[2].value("1 SPE", "16 KB").unwrap();
        // Single-SPE copy ≈ 10 GB/s of combined read+write traffic.
        assert!((7.0..12.0).contains(&copy_one), "copy={copy_one}");
    }
}
