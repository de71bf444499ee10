//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Each ablation varies one structural parameter of the simulated blade
//! and reports the bandwidth of the experiment that parameter governs,
//! using the same [`Figure`] rendering as the paper reproductions.
//!
//! `ABLATIONS` is one table of machine variants: each row is one
//! [`CellConfig`] edit per x label, the canonical workload it runs and
//! the metric it reports. A row's points come from [`SweepPoint::new`]
//! and its runs from [`figure_specs`] (A1 instead runs each variant
//! once, under the identity placement); the whole row is one `try_run`
//! batch on a shared [`SweepExecutor`], reduced like every figure, so a
//! failed run marks its point `*` instead of aborting. Machine variants
//! never alias in the cache: the [`RunKey`](cellsim_core::exec::RunKey)
//! includes the [`CellConfig`] fingerprint, so e.g. the four-ring point
//! of A2 and the circuit-hold point of A4 (the same stock machine and
//! plan) share runs, while every other variant simulates its own.

use cellsim_core::exec::{RunSpec, SweepExecutor, Workload};
use cellsim_core::experiments::{
    figure_specs, group_results, mean, ConfigIssue, ExperimentConfig, ExperimentError, SweepPoint,
};
use cellsim_core::report::{Figure, Point, Series};
use cellsim_core::{CellConfig, CellSystem, FabricReport, Placement};
use cellsim_eib::RingOccupancy;
use cellsim_mem::NumaPolicy;

/// The DMA element size every ablation streams at.
const ELEM: u32 = 16 * 1024;

/// One ablation: a figure over machine variants of one workload.
struct Ablation {
    /// Figure id (`A1`–`A4`).
    id: &'static str,
    /// Figure title.
    title: &'static str,
    /// X-axis label.
    x_label: &'static str,
    /// The one series' label.
    series: &'static str,
    /// The workload's pattern (`mem-get` or `cycle`).
    pattern: &'static str,
    /// The workload's active SPEs.
    spes: u8,
    /// `true` to average over the placement lottery; `false` runs each
    /// variant once under the identity placement.
    lottery: bool,
    /// The reported bandwidth of one run.
    metric: fn(&FabricReport) -> f64,
    /// The x labels, each with its edit of the stock machine.
    variants: fn() -> Vec<(String, CellConfig)>,
}

/// The stock machine with one edit applied.
fn edited(edit: impl FnOnce(&mut CellConfig)) -> CellConfig {
    let mut machine = CellConfig::default();
    edit(&mut machine);
    machine
}

/// Every ablation, in output order.
const ABLATIONS: [Ablation; 4] = [
    // The Little's-law knob behind the paper's 10 GB/s single-SPE ceiling.
    Ablation {
        id: "A1",
        title: "1-SPE memory GET vs MFC outstanding-packet budget",
        x_label: "budget",
        series: "GET",
        pattern: "mem-get",
        spes: 1,
        lottery: false,
        metric: |r| r.aggregate_gbps,
        variants: || {
            [2usize, 4, 8, 16, 32]
                .into_iter()
                .map(|budget| {
                    let machine = edited(|m| m.mfc.max_outstanding_packets = budget);
                    (budget.to_string(), machine)
                })
                .collect()
        },
    },
    // How much of the machine's behaviour the four-ring topology explains.
    Ablation {
        id: "A2",
        title: "8-SPE cycle vs total EIB ring count",
        x_label: "rings",
        series: "cycle",
        pattern: "cycle",
        spes: 8,
        lottery: true,
        metric: |r| r.aggregate_gbps,
        variants: || {
            [1usize, 2, 4]
                .into_iter()
                .map(|rings| {
                    let machine = edited(|m| m.eib.rings_per_direction = rings);
                    ((2 * rings).to_string(), machine)
                })
                .collect()
        },
    },
    // Why spreading buffers over both banks beats one bank.
    Ablation {
        id: "A3",
        title: "4-SPE memory GET vs NUMA policy",
        x_label: "policy",
        series: "GET",
        pattern: "mem-get",
        spes: 4,
        lottery: true,
        metric: |r| r.sum_gbps,
        variants: || {
            [
                ("local-only", NumaPolicy::LocalOnly),
                ("round-robin", NumaPolicy::RoundRobinRegions),
                (
                    "interleave-64K",
                    NumaPolicy::InterleavePages {
                        page_bytes: 64 << 10,
                    },
                ),
            ]
            .into_iter()
            .map(|(name, policy)| (name.to_string(), edited(|m| m.numa = policy)))
            .collect()
        },
    },
    // What the arbiter's conservative path holding costs under saturation.
    Ablation {
        id: "A4",
        title: "8-SPE cycle vs ring occupancy model",
        x_label: "model",
        series: "cycle",
        pattern: "cycle",
        spes: 8,
        lottery: true,
        metric: |r| r.aggregate_gbps,
        variants: || {
            [
                ("circuit-hold", RingOccupancy::CircuitHold),
                ("pipelined", RingOccupancy::Pipelined),
            ]
            .into_iter()
            .map(|(name, occ)| (name.to_string(), edited(|m| m.eib.occupancy = occ)))
            .collect()
        },
    },
];

impl Ablation {
    /// Runs this ablation on `exec` as one batch.
    fn run(&self, exec: &SweepExecutor, cfg: &ExperimentConfig) -> Result<Figure, ExperimentError> {
        let invalid = |issue| ExperimentError::InvalidConfig {
            figure: self.id,
            issue,
        };
        cfg.validate().map_err(invalid)?;
        if !cfg.volume_per_spe.is_multiple_of(u64::from(ELEM)) {
            return Err(invalid(ConfigIssue::ElemNotDividingVolume {
                elem: ELEM,
                volume: cfg.volume_per_spe,
            }));
        }
        let workload = Workload::dma_elem(self.pattern, self.spes, cfg.volume_per_spe, ELEM);
        let point = SweepPoint::new(workload).expect("ablation plan is valid");
        let variants = (self.variants)();
        let mut specs = Vec::new();
        for (_, machine) in &variants {
            let system = CellSystem::new(*machine);
            if self.lottery {
                specs.extend(figure_specs(&system, cfg, std::slice::from_ref(&point)));
            } else {
                specs.push(RunSpec::new(&system, &point, Placement::identity()));
            }
        }
        let per_point = if self.lottery { cfg.placements } else { 1 };
        let points = variants
            .into_iter()
            .zip(group_results(exec.try_run(specs), per_point))
            .map(|((x, _), runs)| Point {
                x: runs.mark(x),
                gbps: mean(&runs.samples(self.metric)),
            })
            .collect();
        Ok(Figure {
            id: self.id.into(),
            title: self.title.into(),
            x_label: self.x_label.into(),
            series: vec![Series {
                label: self.series.into(),
                points,
            }],
        })
    }
}

/// A1: single-SPE memory GET bandwidth versus the MFC's outstanding-packet
/// budget, one identity-placement run per budget.
///
/// # Errors
///
/// [`ExperimentError::InvalidConfig`] if `cfg` fails validation or its
/// volume is not a multiple of the 16 KiB ablation element.
pub fn ablation_outstanding_with(
    exec: &SweepExecutor,
    cfg: &ExperimentConfig,
) -> Result<Figure, ExperimentError> {
    ABLATIONS[0].run(exec, cfg)
}

/// A2: 8-SPE cycle bandwidth versus the number of EIB rings per direction.
///
/// # Errors
///
/// [`ExperimentError::InvalidConfig`] if `cfg` fails validation or its
/// volume is not a multiple of the 16 KiB ablation element.
pub fn ablation_rings_with(
    exec: &SweepExecutor,
    cfg: &ExperimentConfig,
) -> Result<Figure, ExperimentError> {
    ABLATIONS[1].run(exec, cfg)
}

/// A3: four-SPE memory GET bandwidth under each NUMA placement policy.
///
/// # Errors
///
/// [`ExperimentError::InvalidConfig`] if `cfg` fails validation or its
/// volume is not a multiple of the 16 KiB ablation element.
pub fn ablation_numa_with(
    exec: &SweepExecutor,
    cfg: &ExperimentConfig,
) -> Result<Figure, ExperimentError> {
    ABLATIONS[2].run(exec, cfg)
}

/// A4: 8-SPE cycle bandwidth under circuit-hold versus idealized
/// pipelined ring occupancy.
///
/// # Errors
///
/// [`ExperimentError::InvalidConfig`] if `cfg` fails validation or its
/// volume is not a multiple of the 16 KiB ablation element.
pub fn ablation_occupancy_with(
    exec: &SweepExecutor,
    cfg: &ExperimentConfig,
) -> Result<Figure, ExperimentError> {
    ABLATIONS[3].run(exec, cfg)
}

/// Runs every ablation on `exec`, A1 to A4.
///
/// # Errors
///
/// The first [`ExperimentError`] any ablation reports.
pub fn all_ablations_with(
    exec: &SweepExecutor,
    cfg: &ExperimentConfig,
) -> Result<Vec<Figure>, ExperimentError> {
    ABLATIONS.iter().map(|a| a.run(exec, cfg)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            volume_per_spe: 256 << 10,
            dma_elem_sizes: vec![16384],
            placements: 2,
            seed: 5,
        }
    }

    fn run(
        ablation: fn(&SweepExecutor, &ExperimentConfig) -> Result<Figure, ExperimentError>,
    ) -> Figure {
        ablation(&SweepExecutor::new(2), &tiny()).unwrap()
    }

    #[test]
    fn outstanding_budget_is_monotonic_until_bank_peak() {
        let fig = run(ablation_outstanding_with);
        let pts = &fig.series[0].points;
        assert!(pts[0].gbps < pts[2].gbps, "2 < 8 outstanding");
        // Beyond the bank's sustainable rate, more budget stops helping.
        assert!(pts[4].gbps <= pts[2].gbps * 1.8);
    }

    #[test]
    fn fewer_rings_hurt_the_cycle() {
        let fig = run(ablation_rings_with);
        let pts = &fig.series[0].points;
        assert!(pts[0].gbps < pts[1].gbps, "2 rings < 4 rings");
    }

    #[test]
    fn numa_spreading_beats_local_only() {
        let fig = run(ablation_numa_with);
        let local = fig.value("GET", "local-only").unwrap();
        let rr = fig.value("GET", "round-robin").unwrap();
        assert!(rr > local, "round-robin {rr} must beat local-only {local}");
    }

    #[test]
    fn pipelined_occupancy_is_at_least_as_fast() {
        let fig = run(ablation_occupancy_with);
        let hold = fig.value("cycle", "circuit-hold").unwrap();
        let pipe = fig.value("cycle", "pipelined").unwrap();
        assert!(pipe >= hold * 0.95, "hold={hold} pipe={pipe}");
    }

    #[test]
    fn stock_machine_points_share_runs_across_ablations() {
        let exec = SweepExecutor::new(1);
        let cfg = tiny();
        ablation_rings_with(&exec, &cfg).unwrap();
        let after_rings = exec.stats();
        // The circuit-hold point of A4 is the stock machine running the
        // same cycle plan as A2's four-ring point.
        ablation_occupancy_with(&exec, &cfg).unwrap();
        let after_occ = exec.stats();
        assert!(after_occ.hits >= after_rings.hits + cfg.placements as u64);
    }

    #[test]
    fn a_bad_config_is_an_error_not_a_panic() {
        let exec = SweepExecutor::new(1);
        let mut cfg = tiny();
        cfg.placements = 0;
        assert!(matches!(
            all_ablations_with(&exec, &cfg),
            Err(ExperimentError::InvalidConfig { figure: "A1", .. })
        ));
        cfg = ExperimentConfig {
            volume_per_spe: 8 << 10,
            dma_elem_sizes: vec![1024],
            ..tiny()
        };
        assert_eq!(
            ablation_rings_with(&exec, &cfg).unwrap_err(),
            ExperimentError::InvalidConfig {
                figure: "A2",
                issue: ConfigIssue::ElemNotDividingVolume {
                    elem: ELEM,
                    volume: 8 << 10,
                },
            }
        );
        assert_eq!(exec.stats().misses, 0);
    }
}
