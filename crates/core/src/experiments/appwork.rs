//! Application-shaped workload figures (ROADMAP scenario-diversity axis):
//! GUPS random updates, stencil halo exchange, and pair-list
//! gather/scatter — the access patterns the related work measured on
//! real Cell applications, compiled onto the paper's DMA machinery.
//!
//! Each figure follows the streaming experiments' protocol exactly:
//! weak scaling, seeded placement lottery, sweeps through
//! [`sweep`]/[`super::figure_specs`], run-cache identity via
//! [`Workload`] — with the generator parameters packed into
//! `Workload::params` so caches and baselines distinguish every
//! table size, grid shape, and stream seed.

use std::sync::Arc;

use cellsim_kernel::rng::derive_seed;
use cellsim_workloads::{GupsParams, PairlistParams, StencilParams, StreamError, CELL_BYTES};

use crate::exec::{SweepExecutor, Workload};
use crate::experiments::{
    mean, sweep, ExperimentConfig, ExperimentError, SweepPoint, WorkloadError,
};
use crate::report::{format_bytes, Figure, Point, Series};
use crate::{CellSystem, SyncPolicy, TransferPlan};

/// GUPS access granularities: the related work's 8–128 B random updates.
const GUPS_GRAINS: [u32; 5] = [8, 16, 32, 64, 128];
const GUPS_SPE_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Per-SPE update table: 16 MiB, large enough that the hot fraction the
/// XDR page-parity interleave sees is effectively uniform.
const GUPS_TABLE_LOG2: u8 = 24;

/// Subgrid shapes swept, as `(rows_log2, cols_log2)`: equal cell counts
/// (2^11 cells = 32 KiB of interior) in three aspect ratios, so the x
/// axis isolates halo geometry rather than interior volume.
const STENCIL_SHAPES: [(u8, u8); 3] = [(5, 6), (6, 5), (7, 4)];
/// Halo widths swept, in cells.
const STENCIL_HALOS: [u32; 4] = [1, 2, 4, 8];
/// The stencil decomposes over all 8 SPEs as a fixed 4×2 grid.
const STENCIL_SPES: usize = 8;
const STENCIL_GRID_COLS: usize = 4;

/// Pair-list particle-record sizes swept.
const PAIRLIST_RECORDS: [u32; 4] = [16, 32, 64, 128];
const PAIRLIST_SPE_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Per-SPE particle table: 1 MiB.
const PAIRLIST_TABLE_LOG2: u8 = 20;
/// Hot set: 256 records — the skewed reuse of heavily-bonded particles.
const PAIRLIST_HOT_LOG2: u8 = 8;

/// Salts folding `cfg.seed` into per-figure stream seeds: `--seed`
/// re-keys the address streams together with the placement lottery.
const GUPS_SALT: u64 = 0x6775_7073; // "gups"
const PAIRLIST_SALT: u64 = 0x7061_6972; // "pair"

/// Stream seed for a figure, derived from the experiment seed.
fn stream_seed(cfg: &ExperimentConfig, salt: u64) -> u32 {
    (derive_seed(cfg.seed, salt) & 0xFFFF_FFFF) as u32
}

/// GUPS moves an eighth of the streaming volume per SPE (each update is
/// a full-latency round trip, not a stream), rounded to a multiple of
/// 128 B — the lcm of the grains — so every grain divides it.
fn gups_volume(cfg: &ExperimentConfig) -> u64 {
    ((cfg.volume_per_spe / 8) / 128).max(1) * 128
}

/// Pair lists move a quarter of the streaming volume per SPE, rounded
/// like [`gups_volume`] so every record size divides it.
fn pairlist_volume(cfg: &ExperimentConfig) -> u64 {
    ((cfg.volume_per_spe / 4) / 128).max(1) * 128
}

fn bad_params(pattern: &'static str, e: StreamError) -> WorkloadError {
    WorkloadError::BadParams {
        pattern,
        detail: e.to_string(),
    }
}

// ---------------------------------------------------------------------------
// GUPS
// ---------------------------------------------------------------------------

/// The `gups` sweep points: SPE counts × access grains. `cfg` must
/// already be validated.
pub(crate) fn gups_points(cfg: &ExperimentConfig) -> Vec<SweepPoint> {
    let params = GupsParams {
        table_log2: GUPS_TABLE_LOG2,
        seed: stream_seed(cfg, GUPS_SALT),
    }
    .pack();
    let volume = gups_volume(cfg);
    GUPS_SPE_COUNTS
        .iter()
        .flat_map(|&n| {
            GUPS_GRAINS.iter().map(move |&grain| {
                let workload = Workload {
                    pattern: "gups",
                    spes: n as u8,
                    volume,
                    elem: grain,
                    list: false,
                    sync: SyncPolicy::AfterAll,
                    params,
                };
                SweepPoint {
                    plan: Arc::new(gups_plan(&workload).expect("experiment plan is valid")),
                    workload,
                }
            })
        })
        .collect()
}

/// Rebuilds the GUPS plan a [`Workload`] describes: per SPE, a seeded
/// stream of `volume / elem` fenced GET+PUT update cycles at random
/// quadword-aligned slots of its own table.
pub(crate) fn gups_plan(w: &Workload) -> Result<TransferPlan, WorkloadError> {
    let spes = usize::from(w.spes);
    if !(1..=8).contains(&spes) {
        return Err(WorkloadError::BadSpes {
            pattern: "gups",
            spes: w.spes,
        });
    }
    if w.list {
        return Err(WorkloadError::Unsupported {
            pattern: "gups",
            what: "DMA-list mode",
        });
    }
    if w.sync != SyncPolicy::AfterAll {
        return Err(WorkloadError::Unsupported {
            pattern: "gups",
            what: "sync policies other than 'all'",
        });
    }
    let params = GupsParams::unpack(w.params).map_err(|e| bad_params("gups", e))?;
    let count = w.volume / u64::from(w.elem);
    let mut b = TransferPlan::builder();
    for spe in 0..spes {
        let offsets = params
            .stream(spe as u8, count, w.elem)
            .map_err(|e| bad_params("gups", e))?;
        b = b.update_elems_from(spe, TransferPlan::get_region(spe), offsets, w.elem);
    }
    b.build().map_err(WorkloadError::Plan)
}

/// GUPS random-update bandwidth for 1–8 SPEs across 8–128 B access
/// grains, swept on `exec`. Each access is a fenced GET+PUT cycle, so
/// the reported bandwidth counts both directions — directly comparable
/// to Figure 8's GET+PUT streaming curves.
///
/// # Errors
///
/// [`ExperimentError::InvalidConfig`] if `cfg` fails validation.
pub fn figure_gups_with(
    exec: &SweepExecutor,
    system: &CellSystem,
    cfg: &ExperimentConfig,
) -> Result<Figure, ExperimentError> {
    cfg.validate()
        .map_err(|issue| ExperimentError::InvalidConfig {
            figure: "gups",
            issue,
        })?;
    let points = gups_points(cfg);
    let mut groups = sweep(exec, system, cfg, &points).into_iter();
    let series = GUPS_SPE_COUNTS
        .into_iter()
        .map(|n| Series {
            label: format!("{n} SPE{}", if n > 1 { "s" } else { "" }),
            points: GUPS_GRAINS
                .into_iter()
                .map(|grain| {
                    let runs = groups.next().expect("one report group per sweep point");
                    Point {
                        x: runs.mark(format_bytes(u64::from(grain))),
                        gbps: mean(&runs.samples(|r| r.sum_gbps)),
                    }
                })
                .collect(),
        })
        .collect();
    Ok(Figure {
        id: "gups".into(),
        title: "GUPS random update — get+put cycles over a 16 MiB table".into(),
        x_label: "access".into(),
        series,
    })
}

/// [`figure_gups_with`] on a private executor.
///
/// # Errors
///
/// See [`figure_gups_with`].
pub fn figure_gups(system: &CellSystem, cfg: &ExperimentConfig) -> Result<Figure, ExperimentError> {
    figure_gups_with(&SweepExecutor::default(), system, cfg)
}

// ---------------------------------------------------------------------------
// Stencil
// ---------------------------------------------------------------------------

/// Neighbors of logical SPE `spe` in the fixed 4×2 decomposition:
/// `(west, east, vertical)`. Rows wrap horizontally; the two grid rows
/// are each other's north and south neighbor.
fn stencil_neighbors(spe: usize) -> (usize, usize, usize) {
    let gx = spe % STENCIL_GRID_COLS;
    let gy = spe / STENCIL_GRID_COLS;
    let west = gy * STENCIL_GRID_COLS + (gx + STENCIL_GRID_COLS - 1) % STENCIL_GRID_COLS;
    let east = gy * STENCIL_GRID_COLS + (gx + 1) % STENCIL_GRID_COLS;
    let vertical = (1 - gy) * STENCIL_GRID_COLS + gx;
    (west, east, vertical)
}

/// The `stencil` sweep points: grid shapes × halo widths, 8 SPEs fixed.
/// `cfg` must already be validated.
pub(crate) fn stencil_points(cfg: &ExperimentConfig) -> Vec<SweepPoint> {
    STENCIL_SHAPES
        .iter()
        .flat_map(|&(rows_log2, cols_log2)| {
            let shape = StencilParams {
                rows_log2,
                cols_log2,
            };
            let steps = (cfg.volume_per_spe / shape.interior_bytes()).max(1);
            STENCIL_HALOS.iter().map(move |&halo| {
                let workload = Workload {
                    pattern: "stencil",
                    spes: STENCIL_SPES as u8,
                    volume: steps * shape.interior_bytes(),
                    elem: halo * CELL_BYTES,
                    list: true,
                    sync: SyncPolicy::AfterAll,
                    params: shape.pack(),
                };
                SweepPoint {
                    plan: Arc::new(stencil_plan(&workload).expect("experiment plan is valid")),
                    workload,
                }
            })
        })
        .collect()
}

/// Rebuilds the stencil plan a [`Workload`] describes. `volume` is the
/// total interior payload per SPE (`steps × interior`), `elem` encodes
/// the halo width (`halo × CELL_BYTES`), and `params` the subgrid
/// shape. Per timestep each SPE streams its own interior contiguously
/// and gathers four neighbor faces — east/west as row-strided DMA
/// lists, north/south as contiguous row runs.
pub(crate) fn stencil_plan(w: &Workload) -> Result<TransferPlan, WorkloadError> {
    if usize::from(w.spes) != STENCIL_SPES {
        return Err(WorkloadError::BadSpes {
            pattern: "stencil",
            spes: w.spes,
        });
    }
    if !w.list {
        return Err(WorkloadError::Unsupported {
            pattern: "stencil",
            what: "DMA-elem mode",
        });
    }
    if w.sync != SyncPolicy::AfterAll {
        return Err(WorkloadError::Unsupported {
            pattern: "stencil",
            what: "sync policies other than 'all'",
        });
    }
    let shape = StencilParams::unpack(w.params).map_err(|e| bad_params("stencil", e))?;
    if w.elem == 0 || !w.elem.is_multiple_of(CELL_BYTES) {
        return Err(WorkloadError::BadParams {
            pattern: "stencil",
            detail: format!("elem {} does not encode a whole-cell halo width", w.elem),
        });
    }
    let halo = w.elem / CELL_BYTES;
    shape
        .validate_halo(halo)
        .map_err(|e| bad_params("stencil", e))?;
    let interior = shape.interior_bytes();
    if w.volume == 0 || !w.volume.is_multiple_of(interior) {
        return Err(WorkloadError::BadParams {
            pattern: "stencil",
            detail: format!(
                "volume {} is not a positive multiple of the {interior}-byte interior",
                w.volume
            ),
        });
    }
    let steps = w.volume / interior;
    // The interior streams through the biggest element that fits it.
    let interior_elem = u32::try_from(interior.min(16384)).expect("interior elem fits u32");
    let west_face = shape
        .west_face(halo)
        .map_err(|e| bad_params("stencil", e))?;
    let east_face = shape
        .east_face(halo)
        .map_err(|e| bad_params("stencil", e))?;
    let north_face = shape
        .north_face(halo)
        .map_err(|e| bad_params("stencil", e))?;
    let south_face = shape
        .south_face(halo)
        .map_err(|e| bad_params("stencil", e))?;
    let mut b = TransferPlan::builder();
    for spe in 0..STENCIL_SPES {
        let (west, east, vertical) = stencil_neighbors(spe);
        for _ in 0..steps {
            b = b
                .get_from_memory(spe, interior, interior_elem, SyncPolicy::AfterAll)
                // The west neighbor's east boundary, and vice versa.
                .get_list_at(spe, TransferPlan::get_region(west), &east_face)
                .get_list_at(spe, TransferPlan::get_region(east), &west_face)
                .get_list_at(spe, TransferPlan::get_region(vertical), &south_face)
                .get_list_at(spe, TransferPlan::get_region(vertical), &north_face);
        }
    }
    b.build().map_err(WorkloadError::Plan)
}

/// Stencil halo-exchange bandwidth on 8 SPEs (4×2 decomposition),
/// sweeping halo width across three subgrid aspect ratios. East/west
/// faces are row-strided DMA lists whose element size grows with the
/// halo width — as halo volume grows the exchange approaches streaming
/// efficiency, which is exactly what this figure charts.
///
/// # Errors
///
/// [`ExperimentError::InvalidConfig`] if `cfg` fails validation.
pub fn figure_stencil_with(
    exec: &SweepExecutor,
    system: &CellSystem,
    cfg: &ExperimentConfig,
) -> Result<Figure, ExperimentError> {
    cfg.validate()
        .map_err(|issue| ExperimentError::InvalidConfig {
            figure: "stencil",
            issue,
        })?;
    let points = stencil_points(cfg);
    let mut groups = sweep(exec, system, cfg, &points).into_iter();
    let series = STENCIL_SHAPES
        .into_iter()
        .map(|(rows_log2, cols_log2)| {
            let shape = StencilParams {
                rows_log2,
                cols_log2,
            };
            Series {
                label: format!("{}x{} cells", shape.rows(), shape.cols()),
                points: STENCIL_HALOS
                    .into_iter()
                    .map(|halo| {
                        let runs = groups.next().expect("one report group per sweep point");
                        Point {
                            x: runs.mark(halo.to_string()),
                            gbps: mean(&runs.samples(|r| r.sum_gbps)),
                        }
                    })
                    .collect(),
            }
        })
        .collect();
    Ok(Figure {
        id: "stencil".into(),
        title: "Stencil halo exchange — 8 SPEs, 4x2 subgrid decomposition".into(),
        x_label: "halo width (cells)".into(),
        series,
    })
}

/// [`figure_stencil_with`] on a private executor.
///
/// # Errors
///
/// See [`figure_stencil_with`].
pub fn figure_stencil(
    system: &CellSystem,
    cfg: &ExperimentConfig,
) -> Result<Figure, ExperimentError> {
    figure_stencil_with(&SweepExecutor::default(), system, cfg)
}

// ---------------------------------------------------------------------------
// Pair list
// ---------------------------------------------------------------------------

/// The `pairlist` sweep points: SPE counts × record sizes. `cfg` must
/// already be validated.
pub(crate) fn pairlist_points(cfg: &ExperimentConfig) -> Vec<SweepPoint> {
    let params = PairlistParams {
        table_log2: PAIRLIST_TABLE_LOG2,
        hot_log2: PAIRLIST_HOT_LOG2,
        seed: stream_seed(cfg, PAIRLIST_SALT),
    }
    .pack();
    let volume = pairlist_volume(cfg);
    PAIRLIST_SPE_COUNTS
        .iter()
        .flat_map(|&n| {
            PAIRLIST_RECORDS.iter().map(move |&record| {
                let workload = Workload {
                    pattern: "pairlist",
                    spes: n as u8,
                    volume,
                    elem: record,
                    list: true,
                    sync: SyncPolicy::AfterAll,
                    params,
                };
                SweepPoint {
                    plan: Arc::new(pairlist_plan(&workload).expect("experiment plan is valid")),
                    workload,
                }
            })
        })
        .collect()
}

/// Rebuilds the pair-list plan a [`Workload`] describes: per SPE, a
/// skewed-reuse indexed element list of `volume / elem` records,
/// gathered (GETL) and scattered back (fenced PUTL) batch by batch.
pub(crate) fn pairlist_plan(w: &Workload) -> Result<TransferPlan, WorkloadError> {
    let spes = usize::from(w.spes);
    if !(1..=8).contains(&spes) {
        return Err(WorkloadError::BadSpes {
            pattern: "pairlist",
            spes: w.spes,
        });
    }
    if !w.list {
        return Err(WorkloadError::Unsupported {
            pattern: "pairlist",
            what: "DMA-elem mode",
        });
    }
    if w.sync != SyncPolicy::AfterAll {
        return Err(WorkloadError::Unsupported {
            pattern: "pairlist",
            what: "sync policies other than 'all'",
        });
    }
    let params = PairlistParams::unpack(w.params).map_err(|e| bad_params("pairlist", e))?;
    let count = w.volume / u64::from(w.elem);
    let mut b = TransferPlan::builder();
    for spe in 0..spes {
        let offsets = params
            .stream(spe as u8, count, w.elem)
            .map_err(|e| bad_params("pairlist", e))?;
        b = b.update_list_from(spe, TransferPlan::get_region(spe), offsets, w.elem);
    }
    b.build().map_err(WorkloadError::Plan)
}

/// Pair-list gather/scatter bandwidth for 1–8 SPEs across particle
/// record sizes. Indexed DMA lists amortize command startup where GUPS
/// cannot, but the skewed random slots still defeat streaming's bank
/// locality — the figure sits between `gups` and Figure 8.
///
/// # Errors
///
/// [`ExperimentError::InvalidConfig`] if `cfg` fails validation.
pub fn figure_pairlist_with(
    exec: &SweepExecutor,
    system: &CellSystem,
    cfg: &ExperimentConfig,
) -> Result<Figure, ExperimentError> {
    cfg.validate()
        .map_err(|issue| ExperimentError::InvalidConfig {
            figure: "pairlist",
            issue,
        })?;
    let points = pairlist_points(cfg);
    let mut groups = sweep(exec, system, cfg, &points).into_iter();
    let series = PAIRLIST_SPE_COUNTS
        .into_iter()
        .map(|n| Series {
            label: format!("{n} SPE{}", if n > 1 { "s" } else { "" }),
            points: PAIRLIST_RECORDS
                .into_iter()
                .map(|record| {
                    let runs = groups.next().expect("one report group per sweep point");
                    Point {
                        x: runs.mark(format_bytes(u64::from(record))),
                        gbps: mean(&runs.samples(|r| r.sum_gbps)),
                    }
                })
                .collect(),
        })
        .collect();
    Ok(Figure {
        id: "pairlist".into(),
        title: "Pair-list gather/scatter — skewed indexed records".into(),
        x_label: "record".into(),
        series,
    })
}

/// [`figure_pairlist_with`] on a private executor.
///
/// # Errors
///
/// See [`figure_pairlist_with`].
pub fn figure_pairlist(
    system: &CellSystem,
    cfg: &ExperimentConfig,
) -> Result<Figure, ExperimentError> {
    figure_pairlist_with(&SweepExecutor::default(), system, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            volume_per_spe: 64 << 10,
            dma_elem_sizes: vec![16384],
            placements: 2,
            seed: 1,
        }
    }

    #[test]
    fn gups_plans_rebuild_bit_identically_from_workloads() {
        for point in gups_points(&tiny()) {
            let rebuilt = gups_plan(&point.workload).unwrap();
            assert_eq!(rebuilt.total_bytes(), point.plan.total_bytes());
            // Update cycles move each element twice.
            assert_eq!(
                rebuilt.total_bytes(),
                2 * point.workload.volume * u64::from(point.workload.spes)
            );
        }
    }

    #[test]
    fn stencil_volume_covers_interior_plus_halo() {
        for point in stencil_points(&tiny()) {
            let shape = StencilParams::unpack(point.workload.params).unwrap();
            let halo = point.workload.elem / CELL_BYTES;
            let steps = point.workload.volume / shape.interior_bytes();
            // 4 faces gathered per step — the neighbors' opposing east/
            // west strided faces plus the vertical neighbor's two row
            // runs — total exactly one halo_bytes() set.
            let expected_per_spe =
                steps * (shape.interior_bytes() + shape.halo_bytes(halo).unwrap());
            assert_eq!(
                point.plan.total_bytes(),
                expected_per_spe * STENCIL_SPES as u64
            );
        }
    }

    #[test]
    fn stencil_neighbors_form_a_torus() {
        for spe in 0..STENCIL_SPES {
            let (west, east, vertical) = stencil_neighbors(spe);
            assert_ne!(west, spe);
            assert_ne!(east, spe);
            assert_ne!(vertical, spe);
            // Symmetry: my west's east is me; my vertical's vertical is me.
            assert_eq!(stencil_neighbors(west).1, spe);
            assert_eq!(stencil_neighbors(vertical).2, spe);
        }
    }

    #[test]
    fn pairlist_plans_rebuild_bit_identically_from_workloads() {
        for point in pairlist_points(&tiny()) {
            let rebuilt = pairlist_plan(&point.workload).unwrap();
            assert_eq!(rebuilt.total_bytes(), point.plan.total_bytes());
            assert_eq!(
                rebuilt.total_bytes(),
                2 * point.workload.volume * u64::from(point.workload.spes)
            );
        }
    }

    #[test]
    fn wire_validation_rejects_forged_workloads() {
        let mut w = gups_points(&tiny())[0].workload.clone();
        w.params = u64::MAX;
        assert!(matches!(
            gups_plan(&w).unwrap_err(),
            WorkloadError::BadParams {
                pattern: "gups",
                ..
            }
        ));
        let mut w = stencil_points(&tiny())[0].workload.clone();
        w.spes = 4;
        assert!(matches!(
            stencil_plan(&w).unwrap_err(),
            WorkloadError::BadSpes {
                pattern: "stencil",
                spes: 4
            }
        ));
        let mut w = stencil_points(&tiny())[0].workload.clone();
        w.elem = 24;
        assert!(matches!(
            stencil_plan(&w).unwrap_err(),
            WorkloadError::BadParams {
                pattern: "stencil",
                ..
            }
        ));
        let mut w = pairlist_points(&tiny())[0].workload.clone();
        w.list = false;
        assert!(matches!(
            pairlist_plan(&w).unwrap_err(),
            WorkloadError::Unsupported {
                pattern: "pairlist",
                ..
            }
        ));
    }
}
