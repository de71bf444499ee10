//! Drift guard for the figure table: `FIGURES` is the one list that
//! `repro --figure`, `cellsim-client`, baseline collection and the
//! metrics digests all iterate. These tests pin what a row promises —
//! its sweep points rebuild over the wire, its renderer produces tables
//! named after it, and the baseline file follows the table's order — so
//! a row that cannot run, or a renderer that wanders off its id, fails
//! here instead of silently diverging downstream.

use cellsim::baseline::Baseline;
use cellsim::exec::SweepExecutor;
use cellsim::experiments::{
    all_figures_with, canonical_pattern, figure_metrics_with, figure_points, figure_specs,
    workload_plan, ExperimentConfig, FigureRow, Render, FIGURES,
};
use cellsim::CellSystem;

/// Whether a rendered figure or spread id (e.g. `"8a"`, `"§4.2.2"`,
/// `"gups"`) names the table row `row_id`.
fn names_row(rendered: &str, row_id: &str) -> bool {
    let exact = rendered == row_id;
    let section = rendered.strip_prefix('§') == Some(row_id);
    let sub_lettered = rendered
        .strip_prefix(row_id)
        .is_some_and(|rest| rest.len() == 1 && rest.chars().all(|c| c.is_ascii_lowercase()));
    exact || section || sub_lettered
}

/// The ids of the tables `row` renders, split into bandwidth tables and
/// placement spreads as a baseline records them (the fault ladder goes
/// with the bandwidth tables).
fn render_ids(
    row: &FigureRow,
    exec: &SweepExecutor,
    sys: &CellSystem,
    cfg: &ExperimentConfig,
) -> (Vec<String>, Vec<String>) {
    match row.render {
        Render::Figures(render) => (
            render(exec, sys, cfg)
                .unwrap_or_else(|e| panic!("figure {}: {e}", row.id))
                .into_iter()
                .map(|f| f.id)
                .collect(),
            Vec::new(),
        ),
        Render::Spreads(render) => (
            Vec::new(),
            render(exec, sys, cfg)
                .unwrap_or_else(|e| panic!("figure {}: {e}", row.id))
                .into_iter()
                .map(|s| s.id)
                .collect(),
        ),
        Render::Degraded(render) => {
            let (fig, table) =
                render(exec, sys, cfg).unwrap_or_else(|e| panic!("figure {}: {e}", row.id));
            assert_eq!(table.id, fig.id, "the ladder's digest must carry its id");
            (vec![fig.id], Vec::new())
        }
    }
}

#[test]
fn figure_ids_are_unique_and_include_the_workload_extensions() {
    for (i, row) in FIGURES.iter().enumerate() {
        assert!(
            FIGURES[..i].iter().all(|earlier| earlier.id != row.id),
            "duplicate figure id '{}' in FIGURES",
            row.id
        );
    }
    for id in ["gups", "stencil", "pairlist", "degraded"] {
        assert!(
            FIGURES.iter().any(|row| row.id == id),
            "extension id '{id}' missing"
        );
    }
}

#[test]
fn every_listed_id_expands_and_renders_consistently() {
    let cfg = ExperimentConfig::quick();
    let sys = CellSystem::blade();
    let exec = SweepExecutor::new(2);
    for row in FIGURES {
        let id = row.id;
        let points = figure_points(&cfg, id).unwrap_or_else(|e| panic!("figure {id}: {e}"));
        let metrics = figure_metrics_with(&exec, &sys, &cfg, id)
            .unwrap_or_else(|e| panic!("figure {id}: {e}"));
        // A row has sweep points exactly when it has a metrics digest.
        assert_eq!(
            points.is_some(),
            row.points.is_some(),
            "figure {id}: figure_points disagrees with the row"
        );
        assert_eq!(
            metrics.is_some(),
            row.points.is_some(),
            "figure {id}: a metrics digest exists exactly for rows with sweep points"
        );
        if let Some(points) = points {
            assert!(!points.is_empty(), "figure {id} expanded to zero points");
            let specs = figure_specs(&sys, &cfg, &points);
            assert_eq!(
                specs.len(),
                points.len() * cfg.placements,
                "figure {id} must expand placements-per-point"
            );
        }
        let (figures, spreads) = render_ids(row, &exec, &sys, &cfg);
        assert!(
            !figures.is_empty() || !spreads.is_empty(),
            "figure {id} rendered nothing"
        );
    }
}

#[test]
fn every_sweep_workload_round_trips_through_the_wire_path() {
    // The serve daemon rebuilds plans from bare workloads
    // (`workload_plan`); if a point builder and the rebuild path ever
    // disagree, remote figures silently diverge from local ones. At the
    // paper's scale every point must also pass the daemon's per-SPE
    // volume limit.
    for cfg in [ExperimentConfig::quick(), ExperimentConfig::full()] {
        rebuild_every_point(&cfg);
    }
}

fn rebuild_every_point(cfg: &ExperimentConfig) {
    for row in FIGURES.iter().filter(|row| row.points.is_some()) {
        let id = row.id;
        for point in figure_points(cfg, id).unwrap().unwrap() {
            let w = &point.workload;
            assert_eq!(
                canonical_pattern(w.pattern),
                Some(w.pattern),
                "figure {id}: pattern '{}' is not canonical",
                w.pattern
            );
            let rebuilt = workload_plan(w)
                .unwrap_or_else(|e| panic!("figure {id}: workload {w:?} does not rebuild: {e}"));
            assert_eq!(
                rebuilt.total_bytes(),
                point.plan.total_bytes(),
                "figure {id}: rebuilt plan moves different bytes for {w:?}"
            );
            assert_eq!(
                rebuilt.active_spes().count(),
                point.plan.active_spes().count(),
                "figure {id}: rebuilt plan drives different SPEs for {w:?}"
            );
        }
    }
}

#[test]
fn no_renderable_figure_escapes_the_registry() {
    // Every table a row renders is named after that row, so `--csv`
    // file names and baseline ids trace back to one `--figure` id.
    let cfg = ExperimentConfig::quick();
    let sys = CellSystem::blade();
    let exec = SweepExecutor::new(2);
    for row in FIGURES {
        let (figures, spreads) = render_ids(row, &exec, &sys, &cfg);
        for rendered in figures.iter().chain(&spreads) {
            assert!(
                names_row(rendered, row.id),
                "row '{}' rendered '{rendered}', which names another figure",
                row.id
            );
        }
    }
}

#[test]
fn all_figures_and_the_baseline_follow_the_table_order() {
    // The baseline file lists figures, spreads and latency digests in
    // this order; a reordered table must show up as a diff here, not as
    // drift in `repro --check`.
    let cfg = ExperimentConfig::quick();
    let sys = CellSystem::blade();
    let exec = SweepExecutor::new(2);
    let (mut figures, mut spreads) = (Vec::new(), Vec::new());
    for row in FIGURES {
        if !matches!(row.render, Render::Degraded(_)) {
            let (f, s) = render_ids(row, &exec, &sys, &cfg);
            figures.extend(f);
            spreads.extend(s);
        }
    }
    let (all_figs, all_spreads) = all_figures_with(&exec, &sys, &cfg).unwrap();
    let all_figs: Vec<String> = all_figs.into_iter().map(|f| f.id).collect();
    let all_spreads: Vec<String> = all_spreads.into_iter().map(|s| s.id).collect();
    assert_eq!(all_figs, figures);
    assert_eq!(all_spreads, spreads);

    let swept: Vec<&str> = FIGURES
        .iter()
        .filter(|row| row.points.is_some())
        .map(|row| row.id)
        .collect();
    // A fresh collection and the committed file (recorded at the quick
    // protocol) both list their digests in table order.
    let committed = Baseline::from_json(include_str!("../BENCH_baseline.json")).unwrap();
    assert_eq!(committed.experiment, cfg);
    let collected = Baseline::collect(&exec, &sys, &cfg, 0.0).unwrap();
    for baseline in [collected, committed] {
        let ids: Vec<String> = baseline.figures.into_iter().map(|f| f.id).collect();
        assert_eq!(ids, figures);
        let ids: Vec<String> = baseline.spreads.into_iter().map(|s| s.id).collect();
        assert_eq!(ids, spreads);
        let ids: Vec<String> = baseline.latency.into_iter().map(|l| l.figure).collect();
        assert_eq!(ids, swept);
    }
}
