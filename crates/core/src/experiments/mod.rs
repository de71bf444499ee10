//! The ISPASS 2007 experiments, one constructor per paper figure.
//!
//! | Function | Paper figure | What it measures |
//! |---|---|---|
//! | [`figure3`] | Fig. 3 (a,b,c) | PPE↔L1 load/store/copy, 1–2 threads |
//! | [`figure4`] | Fig. 4 (a,b,c) | PPE↔L2 |
//! | [`figure6`] | Fig. 6 (a,b,c) | PPE↔main memory |
//! | [`figure8_with`] | Fig. 8 (a,b,c) | SPE↔memory DMA GET/PUT/GET+PUT, 1–8 SPEs |
//! | [`section_4_2_2`] | §4.2.2 | SPU↔Local Store load/store/copy |
//! | [`figure10_with`] | Fig. 10 | Delayed DMA synchronization, SPE↔SPE |
//! | [`figure12_with`] | Fig. 12 (a,b) | Couples of SPEs, DMA-elem vs DMA-list |
//! | [`figure13_with`] | Fig. 13 (a,b) | Couples: spread over placements |
//! | [`figure15_with`] | Fig. 15 (a,b) | Cycle of SPEs, DMA-elem vs DMA-list |
//! | [`figure16_with`] | Fig. 16 (a,b) | Cycle: spread over placements |
//! | [`figure_gups_with`] | — (extension) | GUPS random 8–128 B get+put update cycles |
//! | [`figure_stencil_with`] | — (extension) | Stencil halo exchange, halo width × grid shape |
//! | [`figure_pairlist_with`] | — (extension) | Pair-list skewed indexed gather/scatter |
//! | [`figure_degraded_with`] | — (extension) | Fault-injection ladder: healthy → 7 SPE → ring derate → bank NACKs |
//! | [`figure_roofline_with`] | — (§5 future work) | Small-kernel roofline, GFLOP/s on 1–8 SPEs |
//!
//! [`FIGURES`] lists every figure `repro --figure` accepts, one row each:
//! its id, its sweep points and its renderer. `repro`, `cellsim-client`,
//! [`all_figures_with`] and [`crate::baseline::Baseline`] all iterate that table,
//! so adding a figure is adding one row.
//!
//! [`kernel_estimate`] (one kernel's roofline) and [`execute_tasks`] (a
//! CellSs-style task job on SPE lanes) run on the same executor.
//!
//! All DMA experiments honour the paper's protocol: weak scaling (a fixed
//! volume per SPE), warm state (the simulator has no TLB to warm), and
//! statistics over seeded random logical→physical placements.
//!
//! # Parallel sweeps
//!
//! Every DMA experiment is a sweep of independent runs on a
//! caller-supplied [`SweepExecutor`]: `figureN_with(exec, system, cfg)`.
//! Sharing one executor across figures is what lets the run cache
//! collapse the duplicate points between Figures 10/12, 12/13 and 15/16.
//! Results are bit-identical for any worker count: run `k` of a sweep
//! always draws placement [`Placement::lottery`]`(cfg.seed, k)`,
//! independent of scheduling.

mod appwork;
mod degraded;
mod ppe;
mod programs;
mod spe_mem;
mod spe_pairs;
mod spu_ls;

pub use appwork::{figure_gups_with, figure_pairlist_with, figure_stencil_with};
pub use degraded::figure_degraded_with;
pub use ppe::{figure3, figure4, figure6};
pub use programs::{
    execute_tasks, figure_roofline_with, kernel_estimate, Bound, KernelEstimate, LaneUsage,
    ProgramError, RuntimeReport,
};
pub use spe_mem::figure8_with;
pub use spe_pairs::{figure10_with, figure12_with, figure13_with, figure15_with, figure16_with};
pub use spu_ls::section_4_2_2;

use std::fmt;
use std::sync::Arc;

use cellsim_kernel::stats::SummaryError;

use crate::exec::{RunError, RunSpec, SweepExecutor, Workload};
use crate::fabric::FabricReport;
use crate::metrics::MetricsSummary;
use crate::placement::Placement;
use crate::report::{Figure, MetricsTable, SpreadFigure};
use crate::{CellSystem, TransferPlan};

/// A figure's entry point: `figureN_with` or a wrapper of it.
pub type Renderer<T> =
    fn(&SweepExecutor, &CellSystem, &ExperimentConfig) -> Result<T, ExperimentError>;

/// What a [`FigureRow`] renders, with the renderer that produces it.
/// The shape is known before anything runs, so callers pick rows by it
/// (baselines skip the fault ladder) without simulating them.
#[derive(Clone, Copy)]
pub enum Render {
    /// Bandwidth tables.
    Figures(Renderer<Vec<Figure>>),
    /// Placement-spread tables.
    Spreads(Renderer<Vec<SpreadFigure>>),
    /// The fault-injection ladder plus the metrics digest of its runs.
    /// Baselines snapshot the healthy blade, so they leave it out.
    Degraded(Renderer<(Figure, MetricsTable)>),
}

/// One figure `repro --figure` accepts.
pub struct FigureRow {
    /// The `--figure` id.
    pub id: &'static str,
    /// The sweep points behind the figure; `None` for figures that do
    /// not sweep the DMA fabric (3, 4, 6, §4.2.2) and for the fault
    /// ladder, whose runs carry their own fault plans. The builder
    /// expects a validated config: call it through [`figure_points`].
    pub points: Option<fn(&ExperimentConfig) -> Vec<SweepPoint>>,
    /// How the figure renders.
    pub render: Render,
}

/// Every figure `repro --figure` accepts, in output order: the paper
/// figures in paper order, then the application-workload extensions
/// (baselined like the paper figures), then the `degraded`
/// fault-injection ladder.
pub const FIGURES: &[FigureRow] = &[
    FigureRow {
        id: "3",
        points: None,
        render: Render::Figures(|_, system, _| Ok(figure3(system))),
    },
    FigureRow {
        id: "4",
        points: None,
        render: Render::Figures(|_, system, _| Ok(figure4(system))),
    },
    FigureRow {
        id: "6",
        points: None,
        render: Render::Figures(|_, system, _| Ok(figure6(system))),
    },
    FigureRow {
        id: "8",
        points: Some(spe_mem::figure8_points),
        render: Render::Figures(figure8_with),
    },
    FigureRow {
        id: "4.2.2",
        points: None,
        render: Render::Figures(|_, system, _| Ok(vec![section_4_2_2(system)])),
    },
    FigureRow {
        id: "10",
        points: Some(spe_pairs::figure10_points),
        render: Render::Figures(|exec, system, cfg| {
            figure10_with(exec, system, cfg).map(|f| vec![f])
        }),
    },
    FigureRow {
        id: "12",
        points: Some(spe_pairs::figure12_points),
        render: Render::Figures(figure12_with),
    },
    FigureRow {
        id: "13",
        points: Some(spe_pairs::figure13_points),
        render: Render::Spreads(figure13_with),
    },
    FigureRow {
        id: "15",
        points: Some(spe_pairs::figure15_points),
        render: Render::Figures(figure15_with),
    },
    FigureRow {
        id: "16",
        points: Some(spe_pairs::figure16_points),
        render: Render::Spreads(figure16_with),
    },
    FigureRow {
        id: "gups",
        points: Some(appwork::gups_points),
        render: Render::Figures(|exec, system, cfg| {
            figure_gups_with(exec, system, cfg).map(|f| vec![f])
        }),
    },
    FigureRow {
        id: "stencil",
        points: Some(appwork::stencil_points),
        render: Render::Figures(|exec, system, cfg| {
            figure_stencil_with(exec, system, cfg).map(|f| vec![f])
        }),
    },
    FigureRow {
        id: "pairlist",
        points: Some(appwork::pairlist_points),
        render: Render::Figures(|exec, system, cfg| {
            figure_pairlist_with(exec, system, cfg).map(|f| vec![f])
        }),
    },
    FigureRow {
        id: "degraded",
        points: None,
        render: Render::Degraded(figure_degraded_with),
    },
];

/// The [`FIGURES`] row for `id`, if there is one.
#[must_use]
pub fn figure_row(id: &str) -> Option<&'static FigureRow> {
    FIGURES.iter().find(|row| row.id == id)
}

/// The paper's payload per SPE (32 MiB): [`ExperimentConfig::full`]
/// streams exactly this much, and [`workload_plan`] refuses more, so a
/// workload received over a wire is never larger than the paper's own.
pub const MAX_VOLUME_PER_SPE: u64 = 32 << 20;

/// Shared knobs of the DMA experiments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentConfig {
    /// Payload bytes each active SPE transfers (per direction where the
    /// experiment is bidirectional). The paper uses 32 MiB; the simulator
    /// is noise-free, so far less reaches steady state.
    pub volume_per_spe: u64,
    /// DMA element sizes to sweep (the paper: 128 B – 16 KB).
    pub dma_elem_sizes: Vec<u32>,
    /// Random placements per configuration (the paper: 10).
    pub placements: usize,
    /// RNG seed for the placement lottery.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            volume_per_spe: 2 << 20,
            dma_elem_sizes: vec![128, 256, 512, 1024, 2048, 4096, 8192, 16384],
            placements: 10,
            seed: 0xCE11,
        }
    }
}

impl ExperimentConfig {
    /// A reduced sweep for tests and smoke runs.
    pub fn quick() -> ExperimentConfig {
        ExperimentConfig {
            volume_per_spe: 256 << 10,
            dma_elem_sizes: vec![128, 1024, 16384],
            placements: 3,
            seed: 0xCE11,
        }
    }

    /// The paper-scale protocol (32 MiB per SPE, full sweep, 10 runs).
    /// Slow: minutes of host time serially; use `--jobs`.
    pub fn full() -> ExperimentConfig {
        ExperimentConfig {
            volume_per_spe: MAX_VOLUME_PER_SPE,
            ..ExperimentConfig::default()
        }
    }

    /// Checks the invariants every sweep relies on, so a degenerate
    /// configuration fails at the experiment boundary with a named cause
    /// instead of deep inside a reduction.
    ///
    /// # Errors
    ///
    /// The first [`ConfigIssue`] found.
    pub fn validate(&self) -> Result<(), ConfigIssue> {
        if self.placements == 0 {
            return Err(ConfigIssue::NoPlacements);
        }
        if self.dma_elem_sizes.is_empty() {
            return Err(ConfigIssue::NoElemSizes);
        }
        if self.volume_per_spe == 0 {
            return Err(ConfigIssue::ZeroVolume);
        }
        for &elem in &self.dma_elem_sizes {
            if elem == 0 || !self.volume_per_spe.is_multiple_of(u64::from(elem)) {
                return Err(ConfigIssue::ElemNotDividingVolume {
                    elem,
                    volume: self.volume_per_spe,
                });
            }
        }
        Ok(())
    }
}

/// A structural problem with an [`ExperimentConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigIssue {
    /// `placements == 0`: every summary would be empty.
    NoPlacements,
    /// `dma_elem_sizes` is empty: nothing to sweep.
    NoElemSizes,
    /// `volume_per_spe == 0`: plans would be empty.
    ZeroVolume,
    /// An element size is zero or does not divide the volume.
    ElemNotDividingVolume {
        /// The offending element size.
        elem: u32,
        /// The configured per-SPE volume.
        volume: u64,
    },
}

impl fmt::Display for ConfigIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigIssue::NoPlacements => write!(f, "placements must be >= 1"),
            ConfigIssue::NoElemSizes => write!(f, "dma_elem_sizes must be non-empty"),
            ConfigIssue::ZeroVolume => write!(f, "volume_per_spe must be > 0"),
            ConfigIssue::ElemNotDividingVolume { elem, volume } => write!(
                f,
                "element size {elem} does not divide volume_per_spe {volume}"
            ),
        }
    }
}

/// Why an experiment could not produce its figure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentError {
    /// The configuration fails [`ExperimentConfig::validate`].
    InvalidConfig {
        /// The figure that rejected it (e.g. `"12"`).
        figure: &'static str,
        /// What is wrong.
        issue: ConfigIssue,
    },
    /// A reduction failed; names the exact point that produced it.
    Stats {
        /// The figure being reduced (e.g. `"13a"`).
        figure: String,
        /// The x-axis label of the degenerate point (e.g. `"16 KB"`).
        x: String,
        /// The underlying summary error.
        source: SummaryError,
    },
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::InvalidConfig { figure, issue } => {
                write!(f, "figure {figure}: invalid experiment config: {issue}")
            }
            ExperimentError::Stats { figure, x, source } => {
                write!(f, "figure {figure} at {x}: {source}")
            }
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Stats { source, .. } => Some(source),
            ExperimentError::InvalidConfig { .. } => None,
        }
    }
}

/// One experiment point of a sweep: the plan to simulate and the
/// [`Workload`] identifying it in the run cache.
///
/// Public so remote drivers (the `cellsim-serve` client) can enumerate
/// a figure's points ([`figure_points`]) and mirror exactly the sweep
/// `repro` would run locally.
#[derive(Clone)]
pub struct SweepPoint {
    /// The run-cache identity of this point.
    pub workload: Workload,
    /// The DMA program realizing it (shared across placements).
    pub plan: Arc<TransferPlan>,
}

impl SweepPoint {
    /// The point for `workload`, its plan built by the builder
    /// [`workload_plan`] uses. Unlike `workload_plan`, it takes any
    /// volume, so local sweeps above [`MAX_VOLUME_PER_SPE`] still run;
    /// only workloads received over a wire are capped.
    ///
    /// # Errors
    ///
    /// [`WorkloadError`] naming the first invalid parameter.
    pub fn new(workload: Workload) -> Result<SweepPoint, WorkloadError> {
        let plan = build_plan(&workload, u64::MAX)?;
        Ok(SweepPoint { workload, plan })
    }
}

/// One sweep point's outcome: the reports of the placements that
/// completed, plus how many failed (stalled or panicked). The failures
/// themselves stay on the executor ([`SweepExecutor::take_failures`]), keyed
/// by `RunKey`; here they only subtract samples, so a partially failed
/// sweep still renders a figure with the incomplete points marked.
pub struct PointRuns {
    /// The completed runs' reports, in placement order.
    pub reports: Vec<Arc<FabricReport>>,
    /// How many runs of the point failed.
    pub failed: usize,
}

impl PointRuns {
    /// Appends the partial-point marker (`*`) to an x label when any run
    /// of this point failed. Complete points keep their label verbatim,
    /// so a fully healthy sweep renders byte-identically to the
    /// pre-failure-pipeline output.
    pub fn mark(&self, x: String) -> String {
        if self.failed > 0 {
            format!("{x}*")
        } else {
            x
        }
    }

    /// `metric` over the surviving runs, in placement order.
    pub fn samples(&self, metric: fn(&FabricReport) -> f64) -> Vec<f64> {
        self.reports.iter().map(|r| metric(r)).collect()
    }
}

/// Groups a `try_run` result vector into [`PointRuns`], `per_point`
/// consecutive results per point.
pub fn group_results(
    results: Vec<Result<Arc<FabricReport>, RunError>>,
    per_point: usize,
) -> Vec<PointRuns> {
    results
        .chunks(per_point)
        .map(|chunk| {
            let mut point = PointRuns {
                reports: Vec::new(),
                failed: 0,
            };
            for result in chunk {
                match result {
                    Ok(report) => point.reports.push(Arc::clone(report)),
                    Err(_) => point.failed += 1,
                }
            }
            point
        })
        .collect()
}

/// Expands `points` into per-placement [`RunSpec`]s (run `k` draws
/// [`Placement::lottery`]`(cfg.seed, k)` — or, when `system` carries a
/// fault plan with fused SPEs, [`Placement::lottery_avoiding`], which is
/// draw-for-draw identical on a healthy machine), executes the whole
/// batch on `exec`, and returns the survivors grouped per point, in
/// point order. Failed runs are recorded on `exec` and counted per
/// point; the sweep itself never panics on them.
pub(crate) fn sweep(
    exec: &SweepExecutor,
    system: &CellSystem,
    cfg: &ExperimentConfig,
    points: &[SweepPoint],
) -> Vec<PointRuns> {
    group_results(
        exec.try_run(figure_specs(system, cfg, points)),
        cfg.placements,
    )
}

/// Expands sweep points into the exact per-placement [`RunSpec`] batch
/// an experiment submits: `cfg.placements` consecutive specs per point,
/// in point order, placement `k` drawn with
/// [`Placement::lottery_avoiding`]`(cfg.seed, k, fused_mask)`. This is
/// the single source of truth for "which runs make up a figure" — the
/// local sweep, the serve client and the serve smoke tests all expand
/// through here, so their run keys coincide in every cache tier.
pub fn figure_specs(
    system: &CellSystem,
    cfg: &ExperimentConfig,
    points: &[SweepPoint],
) -> Vec<RunSpec> {
    let fused = system
        .faults()
        .map_or(0, cellsim_faults::FaultPlan::fused_mask);
    let mut specs = Vec::with_capacity(points.len() * cfg.placements);
    for point in points {
        for k in 0..cfg.placements {
            specs.push(RunSpec::new(
                system,
                point.workload.clone(),
                Placement::lottery_avoiding(cfg.seed, k as u64, fused),
                Arc::clone(&point.plan),
            ));
        }
    }
    specs
}

/// The sweep points behind a fabric figure, in figure order: the
/// [`FIGURES`] row's builder, which [`figure_metrics_with`] and the
/// figure renderers use too. Returns `Ok(None)` for rows without sweep
/// points and for unknown ids.
///
/// # Errors
///
/// [`ExperimentError::InvalidConfig`] if `cfg` fails validation.
pub fn figure_points(
    cfg: &ExperimentConfig,
    figure: &str,
) -> Result<Option<Vec<SweepPoint>>, ExperimentError> {
    let Some((id, builder)) = figure_row(figure).and_then(|row| Some((row.id, row.points?))) else {
        return Ok(None);
    };
    cfg.validate()
        .map_err(|issue| ExperimentError::InvalidConfig { figure: id, issue })?;
    Ok(Some(builder(cfg)))
}

/// Typed reason a [`Workload`] received over a wire could not be turned
/// into a runnable plan. The serve daemon maps these to protocol errors
/// naming the offending run, so a bad request degrades loudly instead
/// of panicking a resident process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// The pattern name is not one of the sweepable patterns.
    UnknownPattern(String),
    /// The SPE count is invalid for the pattern (`couples` needs an
    /// even count; every pattern needs `1..=8`, exchanges `2..=8`).
    BadSpes {
        /// The canonical pattern name.
        pattern: &'static str,
        /// The rejected count.
        spes: u8,
    },
    /// The memory-streaming patterns hardcode [`SyncPolicy::AfterAll`]
    /// and DMA-elem; a differing key would lie about the plan.
    Unsupported {
        /// The canonical pattern name.
        pattern: &'static str,
        /// What was asked for that the pattern does not express.
        what: &'static str,
    },
    /// `volume` is zero, not a multiple of `elem`, or above
    /// [`MAX_VOLUME_PER_SPE`].
    BadVolume {
        /// Requested payload bytes per SPE.
        volume: u64,
        /// Requested element size.
        elem: u32,
    },
    /// The plan builder rejected the parameters (e.g. a DMA element
    /// larger than the MFC's 16 KiB limit).
    Plan(crate::PlanError),
    /// The packed `Workload::params` word (or a field interacting with
    /// it) is invalid for the pattern's stream generator.
    BadParams {
        /// The canonical pattern name.
        pattern: &'static str,
        /// The generator's rejection, rendered.
        detail: String,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::UnknownPattern(name) => {
                write!(f, "unknown workload pattern '{name}'")
            }
            WorkloadError::BadSpes { pattern, spes } => {
                write!(f, "pattern '{pattern}' cannot run on {spes} SPE(s)")
            }
            WorkloadError::Unsupported { pattern, what } => {
                write!(f, "pattern '{pattern}' does not support {what}")
            }
            WorkloadError::BadVolume { volume, .. } if *volume > MAX_VOLUME_PER_SPE => {
                write!(
                    f,
                    "volume {volume} exceeds the {MAX_VOLUME_PER_SPE}-byte (32 MiB) per-SPE limit"
                )
            }
            WorkloadError::BadVolume { volume, elem } => {
                write!(
                    f,
                    "volume {volume} is zero or not a multiple of element size {elem}"
                )
            }
            WorkloadError::Plan(e) => write!(f, "plan rejected: {e}"),
            WorkloadError::BadParams { pattern, detail } => {
                write!(f, "pattern '{pattern}' has invalid params: {detail}")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// Maps a wire pattern name to the canonical `&'static str` used as a
/// [`Workload`] cache key; `None` for unknown names.
#[must_use]
pub fn canonical_pattern(name: &str) -> Option<&'static str> {
    match name {
        "mem-get" => Some("mem-get"),
        "mem-put" => Some("mem-put"),
        "mem-copy" => Some("mem-copy"),
        "couples" => Some("couples"),
        "cycle" => Some("cycle"),
        "gups" => Some("gups"),
        "stencil" => Some("stencil"),
        "pairlist" => Some("pairlist"),
        _ => None,
    }
}

/// Builds the [`TransferPlan`] a [`Workload`] describes, for callers
/// (the serve daemon) that receive workloads rather than construct
/// them. It is the builder [`SweepPoint::new`] uses, so the plan is the
/// one the local experiment runs for the same workload and run keys
/// and cached reports coincide. A `volume` above
/// [`MAX_VOLUME_PER_SPE`] is refused before anything is built.
///
/// # Errors
///
/// [`WorkloadError`] naming the first invalid parameter.
pub fn workload_plan(w: &Workload) -> Result<Arc<TransferPlan>, WorkloadError> {
    build_plan(w, MAX_VOLUME_PER_SPE)
}

/// The one plan builder behind [`workload_plan`] and [`SweepPoint::new`]:
/// refuses an unknown pattern, a `volume` above `max_volume` and every
/// other invalid parameter before building.
fn build_plan(w: &Workload, max_volume: u64) -> Result<Arc<TransferPlan>, WorkloadError> {
    let pattern = canonical_pattern(w.pattern)
        .ok_or_else(|| WorkloadError::UnknownPattern(w.pattern.to_string()))?;
    if w.volume == 0
        || w.volume > max_volume
        || w.elem == 0
        || !w.volume.is_multiple_of(u64::from(w.elem))
    {
        return Err(WorkloadError::BadVolume {
            volume: w.volume,
            elem: w.elem,
        });
    }
    let spes = usize::from(w.spes);
    let plan = match pattern {
        "mem-get" | "mem-put" | "mem-copy" => {
            if !(1..=8).contains(&spes) {
                return Err(WorkloadError::BadSpes {
                    pattern,
                    spes: w.spes,
                });
            }
            if w.list {
                return Err(WorkloadError::Unsupported {
                    pattern,
                    what: "DMA-list mode",
                });
            }
            if w.sync != crate::SyncPolicy::AfterAll {
                return Err(WorkloadError::Unsupported {
                    pattern,
                    what: "sync policies other than 'all'",
                });
            }
            let op = match pattern {
                "mem-get" => spe_mem::MemOp::Get,
                "mem-put" => spe_mem::MemOp::Put,
                _ => spe_mem::MemOp::Copy,
            };
            spe_mem::mem_plan(op, spes, w.volume, w.elem)
        }
        "couples" | "cycle" => {
            let shape = if pattern == "couples" {
                spe_pairs::Pattern::Couples
            } else {
                spe_pairs::Pattern::Cycle
            };
            let valid = (2..=8).contains(&spes) && (pattern != "couples" || spes % 2 == 0);
            if !valid {
                return Err(WorkloadError::BadSpes {
                    pattern,
                    spes: w.spes,
                });
            }
            spe_pairs::pattern_plan(shape, spes, w.volume, w.elem, w.list, w.sync)
        }
        "gups" => return appwork::gups_plan(w).map(Arc::new),
        "stencil" => return appwork::stencil_plan(w).map(Arc::new),
        "pairlist" => return appwork::pairlist_plan(w).map(Arc::new),
        _ => unreachable!("canonical_pattern returned an unhandled name"),
    };
    plan.map(Arc::new).map_err(WorkloadError::Plan)
}

/// Mean of `samples`; `0.0` for an empty slice (a sweep point whose
/// every placement failed), so partial figures render a marked zero
/// instead of `NaN`.
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The fabric-metrics digest of one figure's sweep, summed over exactly
/// the runs that produced the figure: run `figureN_with` and this on the
/// *same* executor and every run here is a cache hit.
///
/// Returns `Ok(None)` for [`FIGURES`] rows without sweep points and for
/// unknown ids — id validation belongs to the caller.
///
/// # Errors
///
/// [`ExperimentError::InvalidConfig`] if `cfg` fails validation.
pub fn figure_metrics_with(
    exec: &SweepExecutor,
    system: &CellSystem,
    cfg: &ExperimentConfig,
    figure: &str,
) -> Result<Option<MetricsSummary>, ExperimentError> {
    let Some(points) = figure_points(cfg, figure)? else {
        return Ok(None);
    };
    let groups = sweep(exec, system, cfg, &points);
    let mut summary = MetricsSummary::default();
    for report in groups.iter().flat_map(|g| &g.reports) {
        summary.accumulate_report(report);
    }
    Ok(Some(summary))
}

/// Renders every [`FIGURES`] row except the fault ladder on `exec`, in
/// table order: the bandwidth tables, then the placement spreads.
/// Sharing one executor across figures is what deduplicates the
/// overlapping sweeps (10→12 2-SPE couples, 12→13 and 15→16 8-SPE
/// columns).
///
/// # Errors
///
/// The first [`ExperimentError`] any figure reports.
pub fn all_figures_with(
    exec: &SweepExecutor,
    system: &CellSystem,
    cfg: &ExperimentConfig,
) -> Result<(Vec<Figure>, Vec<SpreadFigure>), ExperimentError> {
    let mut figures = Vec::new();
    let mut spreads = Vec::new();
    for row in FIGURES {
        match row.render {
            Render::Figures(render) => figures.extend(render(exec, system, cfg)?),
            Render::Spreads(render) => spreads.extend(render(exec, system, cfg)?),
            Render::Degraded(_) => {}
        }
    }
    Ok((figures, spreads))
}
