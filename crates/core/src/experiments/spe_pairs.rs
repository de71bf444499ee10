//! SPE↔SPE experiments: delayed sync, couples, cycles
//! (paper Figures 10, 12, 13, 15, 16).
//!
//! Each figure expands into [`SweepPoint`]s and reduces from the
//! executor's reports, so shared points — Figure 10's `all` policy is
//! Figure 12's 2-SPE series, and the 8-SPE columns of Figures 12/15 are
//! exactly the sweeps of Figures 13/16 — simulate once per executor.

use cellsim_kernel::stats::Summary;

use crate::exec::{SweepExecutor, Workload};
use crate::experiments::{mean, sweep, ExperimentConfig, ExperimentError, SweepPoint};
use crate::report::{format_bytes, Figure, Point, Series, SpreadFigure};
use crate::{CellSystem, SyncPolicy, TransferPlan};

/// Which SPEs exchange with which.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pattern {
    /// `n` SPEs form `n/2` active/passive couples: SPE 2k initiates a
    /// simultaneous get+put with SPE 2k+1, which stays passive.
    Couples,
    /// All `n` SPEs are active: SPE k exchanges with SPE (k+1) mod n.
    Cycle,
}

impl Pattern {
    /// The run-cache identity of this pattern. Two [`Workload`]s with the
    /// same key and parameters must build identical-simulating plans.
    pub(crate) fn key(self) -> &'static str {
        match self {
            Pattern::Couples => "couples",
            Pattern::Cycle => "cycle",
        }
    }
}

/// Builds the couples/cycle exchange plan. Fallible so callers outside
/// the experiment constructors — the serve daemon rebuilds plans from
/// wire workloads — get a typed [`crate::PlanError`] instead of a
/// panic; the experiment constructors `expect` it (their parameters are
/// validated upstream).
pub(crate) fn pattern_plan(
    pattern: Pattern,
    spes: usize,
    volume: u64,
    elem: u32,
    list: bool,
    sync: SyncPolicy,
) -> Result<TransferPlan, crate::PlanError> {
    let mut b = TransferPlan::builder();
    match pattern {
        Pattern::Couples => {
            for pair in 0..spes / 2 {
                let (a, p) = (2 * pair, 2 * pair + 1);
                b = if list {
                    b.exchange_with_list(a, p, volume, elem, sync)
                } else {
                    b.exchange_with(a, p, volume, elem, sync)
                };
            }
        }
        Pattern::Cycle => {
            for spe in 0..spes {
                let partner = (spe + 1) % spes;
                b = if list {
                    b.exchange_with_list(spe, partner, volume, elem, sync)
                } else {
                    b.exchange_with(spe, partner, volume, elem, sync)
                };
            }
        }
    }
    b.build()
}

fn point(
    pattern: Pattern,
    spes: usize,
    volume: u64,
    elem: u32,
    list: bool,
    sync: SyncPolicy,
) -> SweepPoint {
    SweepPoint::new(Workload {
        pattern: pattern.key(),
        spes: spes as u8,
        volume,
        elem,
        list,
        sync,
        params: 0,
    })
    .expect("experiment plan is valid")
}

/// Figure 10's sync-policy sweep, in series order.
fn sync_policies() -> Vec<(String, SyncPolicy)> {
    [1u32, 2, 4, 8, 16]
        .into_iter()
        .map(|k| (format!("every {k}"), SyncPolicy::Every(k)))
        .chain([("all".to_string(), SyncPolicy::AfterAll)])
        .collect()
}

/// Figure 10's sweep points. The figure renderer and the per-figure
/// metric digest both build from here, so the digest's runs are exactly
/// the figure's runs (all cache hits on a shared executor). `cfg` must
/// already be validated — plan building panics on degenerate configs.
pub(crate) fn figure10_points(cfg: &ExperimentConfig) -> Vec<SweepPoint> {
    sync_policies()
        .iter()
        .flat_map(|&(_, sync)| {
            cfg.dma_elem_sizes
                .iter()
                .map(move |&elem| point(Pattern::Couples, 2, cfg.volume_per_spe, elem, false, sync))
        })
        .collect()
}

/// Sweep points of Figures 12/15 (a then b): modes × SPE counts × elems.
fn pattern_points(cfg: &ExperimentConfig, pattern: Pattern) -> Vec<SweepPoint> {
    let modes = [false, true];
    let spe_counts = [2usize, 4, 8];
    modes
        .iter()
        .flat_map(|&list| {
            spe_counts.iter().flat_map(move |&n| {
                cfg.dma_elem_sizes.iter().map(move |&elem| {
                    point(
                        pattern,
                        n,
                        cfg.volume_per_spe,
                        elem,
                        list,
                        SyncPolicy::AfterAll,
                    )
                })
            })
        })
        .collect()
}

/// Sweep points of Figures 13/16 (a then b): modes × elems at 8 SPEs.
fn spread_points(cfg: &ExperimentConfig, pattern: Pattern) -> Vec<SweepPoint> {
    [false, true]
        .iter()
        .flat_map(|&list| {
            cfg.dma_elem_sizes.iter().map(move |&elem| {
                point(
                    pattern,
                    8,
                    cfg.volume_per_spe,
                    elem,
                    list,
                    SyncPolicy::AfterAll,
                )
            })
        })
        .collect()
}

/// See [`figure10_points`]; same contract.
pub(crate) fn figure12_points(cfg: &ExperimentConfig) -> Vec<SweepPoint> {
    pattern_points(cfg, Pattern::Couples)
}

/// See [`figure10_points`]; same contract.
pub(crate) fn figure13_points(cfg: &ExperimentConfig) -> Vec<SweepPoint> {
    spread_points(cfg, Pattern::Couples)
}

/// See [`figure10_points`]; same contract.
pub(crate) fn figure15_points(cfg: &ExperimentConfig) -> Vec<SweepPoint> {
    pattern_points(cfg, Pattern::Cycle)
}

/// See [`figure10_points`]; same contract.
pub(crate) fn figure16_points(cfg: &ExperimentConfig) -> Vec<SweepPoint> {
    spread_points(cfg, Pattern::Cycle)
}

/// Delayed-synchronization experiment (Figure 10): one SPE exchanges with
/// one partner, waiting for its tag group after every 1, 2, 4, … commands
/// versus only once at the end. Runs on `exec`; the `all` policy shares
/// its runs with Figure 12's 2-SPE series.
///
/// # Errors
///
/// [`ExperimentError::InvalidConfig`] if `cfg` fails validation.
pub fn figure10_with(
    exec: &SweepExecutor,
    system: &CellSystem,
    cfg: &ExperimentConfig,
) -> Result<Figure, ExperimentError> {
    cfg.validate()
        .map_err(|issue| ExperimentError::InvalidConfig {
            figure: "10",
            issue,
        })?;
    let policies = sync_policies();
    let points = figure10_points(cfg);
    let mut groups = sweep(exec, system, cfg, &points).into_iter();
    let series = policies
        .into_iter()
        .map(|(label, _)| Series {
            label,
            points: cfg
                .dma_elem_sizes
                .iter()
                .map(|&elem| {
                    let runs = groups.next().expect("one report group per sweep point");
                    Point {
                        x: runs.mark(format_bytes(u64::from(elem))),
                        gbps: mean(&runs.samples(|r| r.aggregate_gbps)),
                    }
                })
                .collect(),
        })
        .collect();
    Ok(Figure {
        id: "10".into(),
        title: "SPE to SPE — delayed DMA synchronization".into(),
        x_label: "element".into(),
        series,
    })
}

/// Couples of SPEs (Figure 12): 1, 2 and 4 active/passive pairs,
/// DMA-elem (a) and DMA-list (b). Runs on `exec`; the 8-SPE series
/// shares its runs with Figure 13.
///
/// # Errors
///
/// [`ExperimentError::InvalidConfig`] if `cfg` fails validation.
pub fn figure12_with(
    exec: &SweepExecutor,
    system: &CellSystem,
    cfg: &ExperimentConfig,
) -> Result<Vec<Figure>, ExperimentError> {
    pattern_figures(exec, system, cfg, Pattern::Couples, "12", "Couples of SPEs")
}

/// Couples placement spread (Figure 13): min/median/mean/max over random
/// placements for 4 couples (8 SPEs), DMA-elem (a) and DMA-list (b).
/// Runs on `exec`; shares every run with Figure 12's 8-SPE series.
///
/// # Errors
///
/// [`ExperimentError::InvalidConfig`] if `cfg` fails validation;
/// [`ExperimentError::Stats`] if a sweep point yields degenerate samples.
pub fn figure13_with(
    exec: &SweepExecutor,
    system: &CellSystem,
    cfg: &ExperimentConfig,
) -> Result<Vec<SpreadFigure>, ExperimentError> {
    spread_figures(
        exec,
        system,
        cfg,
        Pattern::Couples,
        "13",
        "4 couples of SPEs",
    )
}

/// Cycle of SPEs (Figure 15): 2, 4 and 8 SPEs each exchanging with their
/// logical neighbour, DMA-elem (a) and DMA-list (b). Runs on `exec`; the
/// 8-SPE series shares its runs with Figure 16.
///
/// # Errors
///
/// [`ExperimentError::InvalidConfig`] if `cfg` fails validation.
pub fn figure15_with(
    exec: &SweepExecutor,
    system: &CellSystem,
    cfg: &ExperimentConfig,
) -> Result<Vec<Figure>, ExperimentError> {
    pattern_figures(exec, system, cfg, Pattern::Cycle, "15", "Cycle of SPEs")
}

/// Cycle placement spread (Figure 16): min/median/mean/max over random
/// placements for the 8-SPE cycle, DMA-elem (a) and DMA-list (b). Runs
/// on `exec`; shares every run with Figure 15's 8-SPE series.
///
/// # Errors
///
/// [`ExperimentError::InvalidConfig`] if `cfg` fails validation;
/// [`ExperimentError::Stats`] if a sweep point yields degenerate samples.
pub fn figure16_with(
    exec: &SweepExecutor,
    system: &CellSystem,
    cfg: &ExperimentConfig,
) -> Result<Vec<SpreadFigure>, ExperimentError> {
    spread_figures(exec, system, cfg, Pattern::Cycle, "16", "Cycle of 8 SPEs")
}

fn pattern_figures(
    exec: &SweepExecutor,
    system: &CellSystem,
    cfg: &ExperimentConfig,
    pattern: Pattern,
    id: &'static str,
    title: &str,
) -> Result<Vec<Figure>, ExperimentError> {
    cfg.validate()
        .map_err(|issue| ExperimentError::InvalidConfig { figure: id, issue })?;
    let modes = [("a", "DMA-elem"), ("b", "DMA-list")];
    let spe_counts = [2usize, 4, 8];
    let points = pattern_points(cfg, pattern);
    let mut groups = sweep(exec, system, cfg, &points).into_iter();
    Ok(modes
        .into_iter()
        .map(|(sub, mode)| {
            let series = spe_counts
                .into_iter()
                .map(|n| Series {
                    label: format!("{n} SPEs"),
                    points: cfg
                        .dma_elem_sizes
                        .iter()
                        .map(|&elem| {
                            let runs = groups.next().expect("one report group per sweep point");
                            Point {
                                x: runs.mark(format_bytes(u64::from(elem))),
                                gbps: mean(&runs.samples(|r| r.aggregate_gbps)),
                            }
                        })
                        .collect(),
                })
                .collect();
            Figure {
                id: format!("{id}{sub}"),
                title: format!("{title} — {mode}"),
                x_label: "element".into(),
                series,
            }
        })
        .collect())
}

fn spread_figures(
    exec: &SweepExecutor,
    system: &CellSystem,
    cfg: &ExperimentConfig,
    pattern: Pattern,
    id: &'static str,
    title: &str,
) -> Result<Vec<SpreadFigure>, ExperimentError> {
    cfg.validate()
        .map_err(|issue| ExperimentError::InvalidConfig { figure: id, issue })?;
    let modes = [("a", "DMA-elem"), ("b", "DMA-list")];
    let points = spread_points(cfg, pattern);
    let mut groups = sweep(exec, system, cfg, &points).into_iter();
    modes
        .into_iter()
        .map(|(sub, mode)| {
            let rows = cfg
                .dma_elem_sizes
                .iter()
                .map(|&elem| {
                    let runs = groups.next().expect("one report group per sweep point");
                    let x = runs.mark(format_bytes(u64::from(elem)));
                    let samples = runs.samples(|r| r.aggregate_gbps);
                    let summary = Summary::from_samples(&samples).map_err(|source| {
                        ExperimentError::Stats {
                            figure: format!("{id}{sub}"),
                            x: x.clone(),
                            source,
                        }
                    })?;
                    Ok((x, summary))
                })
                .collect::<Result<Vec<_>, ExperimentError>>()?;
            Ok(SpreadFigure {
                id: format!("{id}{sub}"),
                title: format!("{title} — {mode}"),
                x_label: "element".into(),
                rows,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            volume_per_spe: 256 << 10,
            dma_elem_sizes: vec![128, 16384],
            placements: 3,
            seed: 3,
        }
    }

    #[test]
    fn figure10_eager_sync_is_worst() {
        let fig = figure10_with(&SweepExecutor::new(2), &CellSystem::blade(), &tiny()).unwrap();
        let eager = fig.value("every 1", "16 KB").unwrap();
        let lazy = fig.value("all", "16 KB").unwrap();
        assert!(eager < lazy, "eager={eager} lazy={lazy}");
    }

    #[test]
    fn figure12_two_spes_near_peak_and_lists_flat() {
        let figs = figure12_with(&SweepExecutor::new(2), &CellSystem::blade(), &tiny()).unwrap();
        let elem = &figs[0];
        let list = &figs[1];
        assert!(elem.value("2 SPEs", "16 KB").unwrap() > 28.0);
        // DMA-elem collapses at 128 B; DMA-list stays near peak.
        assert!(elem.value("2 SPEs", "128 B").unwrap() < 10.0);
        assert!(list.value("2 SPEs", "128 B").unwrap() > 28.0);
    }

    #[test]
    fn figure15_cycle_saturates_below_couples() {
        let sys = CellSystem::blade();
        let cfg = tiny();
        let exec = SweepExecutor::new(2);
        let couples = figure12_with(&exec, &sys, &cfg).unwrap();
        let cycle = figure15_with(&exec, &sys, &cfg).unwrap();
        let c8 = couples[0].value("8 SPEs", "16 KB").unwrap();
        let y8 = cycle[0].value("8 SPEs", "16 KB").unwrap();
        assert!(
            y8 < c8,
            "paper: saturating the EIB is counterproductive: cycle={y8} couples={c8}"
        );
        // 2-SPE cycle achieves the 33.6 pair peak.
        assert!(cycle[0].value("2 SPEs", "16 KB").unwrap() > 30.0);
    }

    #[test]
    fn figure16_shows_placement_spread() {
        let spread = figure16_with(&SweepExecutor::new(2), &CellSystem::blade(), &tiny()).unwrap();
        assert_eq!(spread.len(), 2);
        assert!(spread[0].max_spread() > 1.0, "placements must matter");
        for (_, s) in &spread[0].rows {
            assert!(s.min <= s.median && s.median <= s.max);
        }
    }

    #[test]
    fn figures_12_and_13_share_their_8_spe_runs() {
        let exec = SweepExecutor::new(1);
        let sys = CellSystem::blade();
        let cfg = tiny();
        figure12_with(&exec, &sys, &cfg).unwrap();
        let after_12 = exec.stats();
        figure13_with(&exec, &sys, &cfg).unwrap();
        let after_13 = exec.stats();
        // Figure 13 re-sweeps exactly Figure 12's 8-SPE columns: every
        // one of its runs must come from the cache.
        assert_eq!(after_13.misses, after_12.misses);
        let fig13_specs = (2 * cfg.dma_elem_sizes.len() * cfg.placements) as u64;
        assert_eq!(after_13.hits, after_12.hits + fig13_specs);
    }

    #[test]
    fn invalid_config_is_reported_with_figure_context() {
        let cfg = ExperimentConfig {
            placements: 0,
            ..tiny()
        };
        let err = figure12_with(&SweepExecutor::new(1), &CellSystem::blade(), &cfg).unwrap_err();
        assert_eq!(
            err,
            ExperimentError::InvalidConfig {
                figure: "12",
                issue: crate::experiments::ConfigIssue::NoPlacements,
            }
        );
        assert!(err.to_string().contains("figure 12"));
    }
}
