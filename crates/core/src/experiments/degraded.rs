//! Degraded-mode bandwidth ladder (fault-injection subsystem).
//!
//! The paper measures a healthy blade; this experiment asks how its
//! bandwidth story degrades when the machine is not healthy. Four
//! scenarios form a *cumulative* ladder — each adds one fault class on
//! top of the previous — so per element size the curves are ordered:
//!
//! 1. **healthy** — the paper's 8-SPE blade;
//! 2. **7 SPE** — physical SPE 7 fused off (the PS3 part,
//!    [`CellSystem::ps3`]); placements draw
//!    [`Placement::lottery_avoiding`] so no logical SPE lands on fused
//!    silicon;
//! 3. **+ ring derate** — every EIB ring at 25% capacity for the whole
//!    run (payloads hold the wire 4× longer);
//! 4. **+ bank faults** — both XDR banks throttled to 50% *and* NACKing
//!    a seeded fraction of accesses, exercising the MFC's bounded
//!    exponential-backoff retry path.
//!
//! Every fault decision derives from the plan seed, so the ladder is
//! bit-identical across `--jobs` like every other sweep.

use cellsim_faults::{BankFaults, DerateWindow, FaultPlan, Window};

use crate::exec::{SweepExecutor, Workload};
use crate::experiments::{
    figure_specs, group_results, mean, ExperimentConfig, ExperimentError, SweepPoint,
};
use crate::metrics::MetricsSummary;
use crate::report::{format_bytes, Figure, MetricsTable, Point, Series};
use crate::CellSystem;

/// A window spanning any realistic run length.
const ALWAYS: Window = Window {
    start: 0,
    cycles: u64::MAX,
};

/// One rung of the ladder: a label and the cumulative fault plan.
struct Scenario {
    label: &'static str,
    plan: FaultPlan,
}

/// The cumulative scenario ladder. `seed` drives every randomized fault
/// decision (bank NACKs) in the faulted rungs.
fn ladder(seed: u64) -> Vec<Scenario> {
    let ps3 = FaultPlan {
        fused_spes: vec![7],
        ..FaultPlan::default()
    };
    let mut derated = ps3.clone();
    derated.eib.derate.push(DerateWindow {
        window: ALWAYS,
        capacity_percent: 25,
    });
    let mut nacking = derated.clone();
    nacking.seed = seed;
    let bank = BankFaults {
        throttle: vec![DerateWindow {
            window: ALWAYS,
            capacity_percent: 50,
        }],
        nack_ppm: 50_000,
    };
    nacking.local_bank = bank.clone();
    nacking.remote_bank = bank;
    vec![
        Scenario {
            label: "healthy",
            plan: FaultPlan::default(),
        },
        Scenario {
            label: "7 SPE",
            plan: ps3,
        },
        Scenario {
            label: "+ring derate",
            plan: derated,
        },
        Scenario {
            label: "+bank faults",
            plan: nacking,
        },
    ]
}

/// Degraded-mode bandwidth: SPE↔memory GET+PUT across the scenario
/// ladder, swept on `exec`, plus the fabric digest over exactly these
/// runs (so NACK/retry activity is visible next to the bandwidths).
///
/// Each rung installs its fault plan on a copy of `system` (replacing
/// any plan already installed) and drives one GET+PUT stream per
/// healthy SPE — 8 on the healthy blade, 7 on the fused rungs. The
/// healthy rung's 8-SPE points coincide with Figure 8c in the run
/// cache.
///
/// # Errors
///
/// [`ExperimentError::InvalidConfig`] if `cfg` fails validation.
pub fn figure_degraded_with(
    exec: &SweepExecutor,
    system: &CellSystem,
    cfg: &ExperimentConfig,
) -> Result<(Figure, MetricsTable), ExperimentError> {
    cfg.validate()
        .map_err(|issue| ExperimentError::InvalidConfig {
            figure: "degraded",
            issue,
        })?;
    let scenarios = ladder(cfg.seed);
    let mut specs = Vec::new();
    for scenario in &scenarios {
        let machine = system.clone().with_faults(scenario.plan.clone());
        let spes = 8 - scenario.plan.fused_mask().count_ones() as u8;
        let points: Vec<SweepPoint> = cfg
            .dma_elem_sizes
            .iter()
            .map(|&elem| {
                let workload = Workload::dma_elem("mem-copy", spes, cfg.volume_per_spe, elem);
                SweepPoint::new(workload).expect("experiment plan is valid")
            })
            .collect();
        specs.extend(figure_specs(&machine, cfg, &points));
    }
    let grouped = group_results(exec.try_run(specs), cfg.placements);
    let mut summary = MetricsSummary::default();
    for report in grouped.iter().flat_map(|g| &g.reports) {
        summary.accumulate_report(report);
    }
    let mut groups = grouped.iter();
    let series = scenarios
        .iter()
        .map(|scenario| Series {
            label: scenario.label.to_string(),
            points: cfg
                .dma_elem_sizes
                .iter()
                .map(|&elem| {
                    let runs = groups
                        .next()
                        .expect("one report group per scenario × element");
                    Point {
                        x: runs.mark(format_bytes(u64::from(elem))),
                        gbps: mean(&runs.samples(|r| r.sum_gbps)),
                    }
                })
                .collect(),
        })
        .collect();
    let figure = Figure {
        id: "degraded".into(),
        title: "Degraded-mode GET+PUT bandwidth ladder".into(),
        x_label: "element".into(),
        series,
    };
    let table = MetricsTable {
        id: "degraded".into(),
        summary,
    };
    Ok((figure, table))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            volume_per_spe: 256 << 10,
            dma_elem_sizes: vec![2048, 16384],
            placements: 2,
            seed: 0xCE11,
        }
    }

    #[test]
    fn ladder_plans_are_valid() {
        for scenario in ladder(7) {
            assert_eq!(scenario.plan.validate(), Ok(()), "{}", scenario.label);
        }
    }

    #[test]
    fn ladder_is_monotone_and_counts_faults() {
        let (fig, table) =
            figure_degraded_with(&SweepExecutor::new(2), &CellSystem::blade(), &tiny()).unwrap();
        assert_eq!(fig.series.len(), 4);
        for x in ["2 KB", "16 KB"] {
            let rungs: Vec<f64> = fig
                .series
                .iter()
                .map(|s| fig.value(&s.label, x).unwrap())
                .collect();
            for pair in rungs.windows(2) {
                assert!(
                    pair[1] <= pair[0] + 1e-9,
                    "ladder not monotone at {x}: {rungs:?}"
                );
            }
            assert!(
                *rungs.last().unwrap() < rungs[0] * 0.9,
                "full ladder should cost real bandwidth at {x}: {rungs:?}"
            );
        }
        let faults = table.summary.faults;
        assert!(faults.nacks > 0, "bank NACK rung produced no NACKs");
        assert_eq!(faults.nacks, faults.retries + faults.retries_exhausted);
        assert!(faults.degraded_cycles > 0);
        assert!(table.summary.latency.paths.iter().any(|p| p.retries > 0));
    }

    #[test]
    fn healthy_rung_matches_the_healthy_blade() {
        // The ladder's first rung is the plain blade: identical reports,
        // shared cache entries.
        let cfg = tiny();
        let exec = SweepExecutor::new(2);
        let (fig, _) = figure_degraded_with(&exec, &CellSystem::blade(), &cfg).unwrap();
        let figs8 = crate::experiments::figure8_with(&exec, &CellSystem::blade(), &cfg).unwrap();
        let copy = &figs8[2];
        for x in ["2 KB", "16 KB"] {
            assert_eq!(fig.value("healthy", x), copy.value("8 SPEs", x));
        }
    }
}
