//! Regenerates every figure of the ISPASS 2007 paper on the simulated
//! blade and prints them as text tables.
//!
//! ```text
//! repro [--quick|--full] [--figure <id>]... [--ablations] [--kernels] [--seed N]
//!       [--faults <plan.json>] [--jobs N] [--cache-dir <dir>] [--verbose]
//!       [--csv <dir>] [--metrics <dir>] [--trace-out <file>]
//!       [--run-dir <dir>] [--baseline-out <file>] [--check <file>]
//!       [--tolerance N]
//!
//!   --quick             reduced sweep (fast smoke run)
//!   --full              paper-scale protocol (32 MiB per SPE, slow)
//!   --figure <id>       only the named figure: 3, 4, 6, 8, 10, 12, 13,
//!                       15, 16, 4.2.2, gups, stencil, pairlist or
//!                       degraded (repeatable)
//!   --faults <f>        run every figure on a degraded machine: <f> is a
//!                       FaultPlan JSON (see README). Plans with
//!                       fused_spes need --figure degraded — the paper
//!                       figures drive all 8 SPEs. Incompatible with
//!                       --baseline-out/--check (baselines snapshot the
//!                       healthy blade).
//!   --ablations         also run the design-choice ablations
//!   --kernels           also render figure K1, the small-kernel roofline
//!   --seed N            placement-lottery seed (default 0xCE11)
//!   --jobs N            worker threads for the sweeps (default:
//!                       CELLSIM_JOBS or all cores; figures are
//!                       bit-identical for any N)
//!   --cache-dir <dir>   persist finished runs into <dir>, one verified
//!                       JSON entry per run key; later invocations (any
//!                       --jobs) reload them bit-identically, and
//!                       corrupt or stale entries are silently
//!                       recomputed. An interrupted --full sweep resumes
//!                       where it was killed.
//!   --verbose           print each fabric figure's metrics digest to
//!                       stdout and cache statistics to stderr
//!   --csv <dir>         write each figure as CSV into <dir>
//!   --metrics <dir>     write each fabric figure's metrics digest into
//!                       <dir> as CSV and JSON
//!   --trace-out <file>  record the 8-SPE cycle at the largest swept
//!                       element size and write a Chrome tracing JSON
//!                       (open with chrome://tracing or Perfetto); the
//!                       JSON is streamed from a trace store, so --full
//!                       scale runs in bounded memory
//!   --run-dir <dir>     record a queryable trace store for every run:
//!                       one subdirectory per run key holding trace.bin
//!                       (indexed, checksummed event log) and
//!                       manifest.json (identity + metrics digest).
//!                       Query with cellsim-trace; artifacts are
//!                       byte-identical for any --jobs and are reused,
//!                       not re-recorded, when already complete
//!   --baseline-out <f>  snapshot every figure's bandwidths and latency
//!                       percentiles into <f> (JSON) and exit; uses the
//!                       active --quick/--full/--seed configuration
//!   --check <f>         re-run the experiment configuration embedded in
//!                       baseline <f> and compare; prints every drifted
//!                       figure/percentile and exits non-zero on drift
//!   --tolerance N       relative tolerance band (e.g. 0.01 = 1%):
//!                       recorded into the file with --baseline-out,
//!                       overrides the recorded band with --check
//!   --perf-baseline-out <f>  time every fabric figure (fresh uncached
//!                       executors) and snapshot events/sec, packets/sec
//!                       and simulated-cycles/sec into <f> (JSON, see
//!                       BENCH_perf.json) and exit
//!   --perf-check <f>    re-run the protocol embedded in perf snapshot
//!                       <f> (same --jobs as recorded) and compare:
//!                       deterministic work counters must match exactly,
//!                       throughput may not regress beyond the band;
//!                       speedups always pass; exits non-zero on drift
//!   --perf-band N       one-sided relative regression band (e.g. 0.5 =
//!                       fail below half the recorded throughput):
//!                       recorded with --perf-baseline-out (default
//!                       0.5), overrides the recorded band with
//!                       --perf-check
//!
//! exit codes:
//!   0  success
//!   1  --check / --perf-check found drift
//!   2  one or more runs failed (stall or panic); each failed run key is
//!      named on stderr, completed points still print (marked `*`)
//!   3  bad invocation or I/O error
//! ```
//!
//! Figure tables go to stdout; timing and cache statistics go to stderr,
//! so `repro --jobs 8 > figs.txt` captures byte-identical output to
//! `repro --jobs 1 > figs.txt`. The metrics digests are part of the
//! deterministic report (pure counters, cached with the bandwidths), so
//! `--verbose` stdout and `--metrics` files are byte-identical across
//! job counts too.

use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use cellsim_bench::all_ablations_with;
use cellsim_core::baseline::Baseline;
use cellsim_core::exec::{RunSpec, SweepExecutor, Workload};
use cellsim_core::experiments::{
    figure_metrics_with, figure_roofline_with, figure_row, figure_specs, ExperimentConfig,
    ExperimentError, Render, SweepPoint, FIGURES,
};
use cellsim_core::perf::PerfBaseline;
use cellsim_core::report::MetricsTable;
use cellsim_core::tracestore::{TraceStore, TRACE_FILE};
use cellsim_core::{CellSystem, FaultPlan};

struct Args {
    cfg: ExperimentConfig,
    figures: Vec<String>,
    faults: Option<FaultPlan>,
    ablations: bool,
    kernels: bool,
    csv_dir: Option<PathBuf>,
    metrics_dir: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    run_dir: Option<PathBuf>,
    baseline_out: Option<PathBuf>,
    check: Option<PathBuf>,
    tolerance: Option<f64>,
    perf_baseline_out: Option<PathBuf>,
    perf_check: Option<PathBuf>,
    perf_band: Option<f64>,
    jobs: Option<usize>,
    cache_dir: Option<PathBuf>,
    verbose: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut cfg = ExperimentConfig::default();
    let mut figures = Vec::new();
    let mut faults = None;
    let mut ablations = false;
    let mut kernels = false;
    let mut csv_dir = None;
    let mut metrics_dir = None;
    let mut trace_out = None;
    let mut run_dir = None;
    let mut baseline_out = None;
    let mut check = None;
    let mut tolerance = None;
    let mut perf_baseline_out = None;
    let mut perf_check = None;
    let mut perf_band = None;
    let mut jobs = None;
    let mut cache_dir = None;
    let mut verbose = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--quick" => cfg = ExperimentConfig::quick(),
            "--full" => cfg = ExperimentConfig::full(),
            "--figure" => {
                let id = argv.next().ok_or("--figure needs an id")?;
                if figure_row(&id).is_none() {
                    return Err(format!("unknown figure id: {id} (valid: {})", figure_ids()));
                }
                figures.push(id);
            }
            "--faults" => {
                let file = argv.next().ok_or("--faults needs a plan file")?;
                let text = std::fs::read_to_string(&file)
                    .map_err(|e| format!("could not read {file}: {e}"))?;
                faults = Some(FaultPlan::parse(&text).map_err(|e| format!("{file}: {e}"))?);
            }
            "--ablations" => ablations = true,
            "--kernels" => kernels = true,
            "--csv" => {
                let dir = argv.next().ok_or("--csv needs a directory")?;
                csv_dir = Some(PathBuf::from(dir));
            }
            "--metrics" => {
                let dir = argv.next().ok_or("--metrics needs a directory")?;
                metrics_dir = Some(PathBuf::from(dir));
            }
            "--trace-out" => {
                let file = argv.next().ok_or("--trace-out needs a file path")?;
                trace_out = Some(PathBuf::from(file));
            }
            "--run-dir" => {
                let dir = argv.next().ok_or("--run-dir needs a directory")?;
                run_dir = Some(PathBuf::from(dir));
            }
            "--baseline-out" => {
                let file = argv.next().ok_or("--baseline-out needs a file path")?;
                baseline_out = Some(PathBuf::from(file));
            }
            "--check" => {
                let file = argv.next().ok_or("--check needs a baseline file")?;
                check = Some(PathBuf::from(file));
            }
            "--tolerance" => {
                let n = argv.next().ok_or("--tolerance needs a value")?;
                tolerance = Some(band("--tolerance", &n)?);
            }
            "--perf-baseline-out" => {
                let file = argv.next().ok_or("--perf-baseline-out needs a file path")?;
                perf_baseline_out = Some(PathBuf::from(file));
            }
            "--perf-check" => {
                let file = argv.next().ok_or("--perf-check needs a perf file")?;
                perf_check = Some(PathBuf::from(file));
            }
            "--perf-band" => {
                let n = argv.next().ok_or("--perf-band needs a value")?;
                perf_band = Some(band("--perf-band", &n)?);
            }
            "--seed" => {
                let n = argv.next().ok_or("--seed needs a value")?;
                cfg.seed = n.parse().map_err(|_| format!("bad seed: {n}"))?;
            }
            "--jobs" => {
                let n = argv.next().ok_or("--jobs needs a value")?;
                let n: usize = n.parse().map_err(|_| format!("bad job count: {n}"))?;
                if n == 0 {
                    return Err("--jobs must be >= 1".into());
                }
                jobs = Some(n);
            }
            "--cache-dir" => {
                let dir = argv.next().ok_or("--cache-dir needs a directory")?;
                cache_dir = Some(PathBuf::from(dir));
            }
            "--verbose" => verbose = true,
            "--help" | "-h" => {
                println!(
                    "repro [--quick|--full] [--figure <id>]... [--faults <plan.json>] \
                     [--ablations] [--kernels] [--csv <dir>] [--metrics <dir>] \
                     [--trace-out <file>] [--run-dir <dir>] [--baseline-out <file>] \
                     [--check <file>] [--tolerance N] [--perf-baseline-out <file>] \
                     [--perf-check <file>] [--perf-band N] [--seed N] [--jobs N] \
                     [--cache-dir <dir>] [--verbose]\n\n\
                     figure ids: {}\n\n\
                     exit codes:\n  \
                     0  success\n  \
                     1  --check / --perf-check found drift\n  \
                     2  one or more runs failed (stall or panic); failed run keys \
                     are named on stderr\n  \
                     3  bad invocation or I/O error",
                    figure_ids()
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if let Some(plan) = &faults {
        if baseline_out.is_some() || check.is_some() {
            return Err("--faults cannot combine with --baseline-out/--check \
                 (baselines snapshot the healthy blade)"
                .into());
        }
        if perf_baseline_out.is_some() || perf_check.is_some() {
            return Err(
                "--faults cannot combine with --perf-baseline-out/--perf-check \
                 (perf snapshots time the healthy blade)"
                    .into(),
            );
        }
        if plan.fused_mask() != 0 {
            let only_degraded = !figures.is_empty()
                && figures.iter().all(|f| {
                    figure_row(f).is_some_and(|row| matches!(row.render, Render::Degraded(_)))
                });
            if !only_degraded || trace_out.is_some() {
                return Err(
                    "fault plans with fused_spes need --figure degraded: the paper \
                     figures and --trace-out drive all 8 SPEs"
                        .into(),
                );
            }
        }
    }
    Ok(Args {
        cfg,
        figures,
        faults,
        ablations,
        kernels,
        csv_dir,
        metrics_dir,
        trace_out,
        run_dir,
        baseline_out,
        check,
        tolerance,
        perf_baseline_out,
        perf_check,
        perf_band,
        jobs,
        cache_dir,
        verbose,
    })
}

/// Every `--figure` id, comma-separated, in output order.
fn figure_ids() -> String {
    FIGURES
        .iter()
        .map(|row| row.id)
        .collect::<Vec<_>>()
        .join(", ")
}

/// Parses a relative band (`--tolerance`, `--perf-band`): a finite
/// number >= 0. The baseline files store it as a JSON number, which
/// has no spelling for infinity or NaN.
fn band(flag: &str, n: &str) -> Result<f64, String> {
    match n.parse::<f64>() {
        Ok(b) if b.is_finite() && b >= 0.0 => Ok(b),
        Ok(_) => Err(format!("{flag} must be a finite number >= 0, got {n}")),
        Err(_) => Err(format!("bad {flag} value: {n}")),
    }
}

/// Exit codes, enumerated in `--help`: success is `ExitCode::SUCCESS`.
const EXIT_DRIFT: u8 = 1;
const EXIT_FAILED_RUNS: u8 = 2;
const EXIT_BAD_INVOCATION: u8 = 3;

/// Relative tolerance recorded by `--baseline-out` when `--tolerance`
/// is not given: 1%, wide enough for float formatting, far tighter than
/// any modelling change moves a figure.
const DEFAULT_TOLERANCE: f64 = 0.01;

fn wanted(figures: &[String], id: &str) -> bool {
    figures.is_empty() || figures.iter().any(|f| f == id)
}

fn slug(id: &str) -> String {
    id.chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect()
}

fn write_artifact(dir: &Path, name: &str, contents: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("could not create directory {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("could not write {}: {e}", path.display()))
}

/// Prints a result table and, under `--csv`, exports it as
/// `figure_<id>.csv`.
fn emit(
    csv_dir: &Option<PathBuf>,
    id: &str,
    table: &dyn fmt::Display,
    csv: impl FnOnce() -> String,
) -> Result<(), String> {
    println!("{table}");
    if let Some(dir) = csv_dir {
        write_artifact(dir, &format!("figure_{}.csv", slug(id)), &csv())?;
    }
    Ok(())
}

/// Prints (under `--verbose`) and exports (under `--metrics`) the digest
/// of the runs behind figure `id`. Every run is a cache hit: the digest
/// re-sweeps exactly the figure's points on the shared executor.
fn emit_metrics(
    args: &Args,
    exec: &SweepExecutor,
    system: &CellSystem,
    id: &str,
) -> Result<(), String> {
    if !args.verbose && args.metrics_dir.is_none() {
        return Ok(());
    }
    let Some(summary) = figure_metrics_with(exec, system, &args.cfg, id).map_err(err_string)?
    else {
        return Ok(());
    };
    let table = MetricsTable {
        id: id.to_string(),
        summary,
    };
    if args.verbose {
        println!("{table}");
    }
    export_metrics(&args.metrics_dir, &table)
}

/// Under `--metrics`, writes a digest as `metrics_<id>.{csv,json}`.
fn export_metrics(metrics_dir: &Option<PathBuf>, table: &MetricsTable) -> Result<(), String> {
    if let Some(dir) = metrics_dir {
        let name = slug(&table.id);
        write_artifact(dir, &format!("metrics_{name}.csv"), &table.to_csv())?;
        write_artifact(dir, &format!("metrics_{name}.json"), &table.to_json())?;
    }
    Ok(())
}

fn err_string(e: ExperimentError) -> String {
    e.to_string()
}

/// The machine the figures run on: the paper's blade, degraded by the
/// `--faults` plan when one was given.
fn machine(args: &Args) -> CellSystem {
    match &args.faults {
        Some(plan) => CellSystem::blade().with_faults(plan.clone()),
        None => CellSystem::blade(),
    }
}

fn run(args: &Args, exec: &SweepExecutor) -> Result<(), String> {
    let system = machine(args);
    let cfg = &args.cfg;
    let csv = &args.csv_dir;
    for row in FIGURES.iter().filter(|row| wanted(&args.figures, row.id)) {
        match row.render {
            Render::Figures(render) => {
                for f in render(exec, &system, cfg).map_err(err_string)? {
                    emit(csv, &f.id, &f, || f.to_csv())?;
                }
            }
            Render::Spreads(render) => {
                for f in render(exec, &system, cfg).map_err(err_string)? {
                    emit(csv, &f.id, &f, || f.to_csv())?;
                }
            }
            Render::Degraded(render) => {
                let (fig, table) = render(exec, &system, cfg).map_err(err_string)?;
                emit(csv, &fig.id, &fig, || fig.to_csv())?;
                // The degraded digest carries the NACK/retry counters the
                // ladder exists to surface, so it prints with the figure,
                // not only under --verbose.
                println!("{table}");
                export_metrics(&args.metrics_dir, &table)?;
            }
        }
        emit_metrics(args, exec, &system, row.id)?;
    }
    if args.ablations {
        println!("— ablations —\n");
        for f in all_ablations_with(exec, cfg).map_err(err_string)? {
            emit(csv, &f.id, &f, || f.to_csv())?;
        }
    }
    if args.kernels {
        println!("— small kernels (paper §5 future work) —\n");
        let f = figure_roofline_with(exec, &system);
        emit(csv, &f.id, &f, || f.to_csv())?;
    }
    Ok(())
}

/// Snapshots the active experiment configuration into a baseline file.
fn write_baseline(args: &Args, exec: &SweepExecutor, path: &Path) -> Result<(), String> {
    let system = CellSystem::blade();
    let tolerance = args.tolerance.unwrap_or(DEFAULT_TOLERANCE);
    let baseline = Baseline::collect(exec, &system, &args.cfg, tolerance).map_err(err_string)?;
    std::fs::write(path, baseline.to_json())
        .map_err(|e| format!("could not write {}: {e}", path.display()))?;
    eprintln!(
        "baseline: {} figures, {} spreads, {} latency digests, tolerance {:.2}% -> {}",
        baseline.figures.len(),
        baseline.spreads.len(),
        baseline.latency.len(),
        100.0 * tolerance,
        path.display()
    );
    Ok(())
}

/// Re-runs the experiment configuration embedded in the baseline at
/// `path` and reports every drifted value. `Ok(true)` means no drift.
fn check_baseline(args: &Args, exec: &SweepExecutor, path: &Path) -> Result<bool, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("could not read {}: {e}", path.display()))?;
    let baseline = Baseline::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let system = CellSystem::blade();
    let current = Baseline::collect(exec, &system, &baseline.experiment, baseline.tolerance)
        .map_err(err_string)?;
    let drifts = baseline.compare(&current, args.tolerance);
    let tolerance = args.tolerance.unwrap_or(baseline.tolerance);
    if drifts.is_empty() {
        eprintln!(
            "check: {} within {:.2}% — {} figures, {} spreads, {} latency digests",
            path.display(),
            100.0 * tolerance,
            baseline.figures.len(),
            baseline.spreads.len(),
            baseline.latency.len()
        );
        return Ok(true);
    }
    eprintln!(
        "check: {} FAILED — {} drift(s) outside {:.2}%:",
        path.display(),
        drifts.len(),
        100.0 * tolerance
    );
    for d in &drifts {
        eprintln!("  {d}");
    }
    eprintln!(
        "if the change is intentional, re-baseline with: \
         repro --baseline-out {}",
        path.display()
    );
    Ok(false)
}

fn perf_figure_line(fig: &cellsim_core::perf::PerfFigure) -> String {
    format!(
        "perf: figure {:>2}: {:>12} events in {:.3}s = {:.0} events/sec, \
         {:.0} packets/sec, {:.0} sim-cycles/sec",
        fig.id,
        fig.events,
        fig.wall_seconds,
        fig.events_per_sec(),
        fig.packets_per_sec(),
        fig.sim_cycles_per_sec()
    )
}

/// Times the active experiment configuration and snapshots the
/// throughput into a perf file (the committed `BENCH_perf.json`).
fn write_perf_baseline(args: &Args, jobs: usize, path: &Path) -> Result<(), String> {
    let system = CellSystem::blade();
    let band = args
        .perf_band
        .unwrap_or(cellsim_core::perf::DEFAULT_PERF_BAND);
    let perf = PerfBaseline::collect(jobs, &system, &args.cfg, band).map_err(err_string)?;
    std::fs::write(path, perf.to_json())
        .map_err(|e| format!("could not write {}: {e}", path.display()))?;
    for fig in &perf.figures {
        eprintln!("{}", perf_figure_line(fig));
    }
    eprintln!(
        "perf baseline: {} figures, {} jobs, {:.0} events/sec overall, \
         band {:.0}% -> {}",
        perf.figures.len(),
        perf.jobs,
        perf.total_events_per_sec(),
        100.0 * band,
        path.display()
    );
    Ok(())
}

/// Re-times the protocol embedded in the perf snapshot at `path` (with
/// the snapshot's worker count, so wall clocks compare) and reports
/// every drift. `Ok(true)` means no drift.
fn check_perf(args: &Args, path: &Path) -> Result<bool, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("could not read {}: {e}", path.display()))?;
    let baseline =
        PerfBaseline::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let system = CellSystem::blade();
    let current =
        PerfBaseline::collect(baseline.jobs, &system, &baseline.experiment, baseline.band)
            .map_err(err_string)?;
    for fig in &current.figures {
        eprintln!("{}", perf_figure_line(fig));
    }
    let band = args.perf_band.unwrap_or(baseline.band);
    let drifts = baseline.compare(&current, args.perf_band);
    if drifts.is_empty() {
        eprintln!(
            "perf check: {} within the {:.0}% band — {:.0} events/sec overall \
             (baseline {:.0})",
            path.display(),
            100.0 * band,
            current.total_events_per_sec(),
            baseline.total_events_per_sec()
        );
        return Ok(true);
    }
    eprintln!(
        "perf check: {} FAILED — {} drift(s) outside the {:.0}% band:",
        path.display(),
        drifts.len(),
        100.0 * band
    );
    for d in &drifts {
        eprintln!("  {d}");
    }
    eprintln!(
        "if the change is intentional (or this is a new reference host), \
         re-baseline with: repro --perf-baseline-out {}",
        path.display()
    );
    Ok(false)
}

/// Records the paper's most contended pattern — the 8-SPE cycle at the
/// largest swept element size, first placement of its sweep — into a
/// trace store and streams it out as Chrome tracing JSON. The run is
/// recorded through a run directory: `exec`'s with `--run-dir` (a
/// completed artifact is reused and the run key dedups against the
/// figure sweeps), otherwise a private one-worker executor's over a
/// temporary directory removed afterwards. Nothing buffers the whole
/// event stream, so `--full` scale runs in bounded memory.
fn write_chrome_trace(
    path: &Path,
    exec: &SweepExecutor,
    system: &CellSystem,
    cfg: &ExperimentConfig,
) -> Result<(), String> {
    let elem = *cfg
        .dma_elem_sizes
        .iter()
        .max()
        .ok_or("no element sizes configured")?;
    let workload = Workload::dma_elem("cycle", 8, cfg.volume_per_spe, elem);
    let point = SweepPoint::new(workload).map_err(|e| e.to_string())?;
    let spec = figure_specs(system, cfg, &[point])
        .into_iter()
        .next()
        .ok_or("no placements configured")?;
    if exec.run_dir().is_some() {
        return export_recorded(path, exec, system, spec);
    }
    let tmp = path.with_extension("run-tmp");
    std::fs::create_dir(&tmp).map_err(|e| format!("could not create {}: {e}", tmp.display()))?;
    let mut private = SweepExecutor::new(1);
    let result = match private.set_run_dir(&tmp) {
        Ok(()) => export_recorded(path, &private, system, spec),
        Err(e) => Err(format!("could not open run dir {}: {e}", tmp.display())),
    };
    let _ = std::fs::remove_dir_all(&tmp);
    result
}

/// Runs `spec` on `exec`, which has a run directory attached, and
/// exports the recorded trace store to `path`.
fn export_recorded(
    path: &Path,
    exec: &SweepExecutor,
    system: &CellSystem,
    spec: RunSpec,
) -> Result<(), String> {
    let store_path = exec
        .run_dir()
        .expect("a run dir is attached")
        .entry_dir(&spec.key)
        .join(TRACE_FILE);
    let report = exec
        .try_run(vec![spec])
        .pop()
        .expect("one result per spec")
        .map_err(|e| format!("trace run failed: {e}"))?;
    let store = TraceStore::open(&store_path).map_err(|e| format!("recorded trace store: {e}"))?;
    let file = std::fs::File::create(path)
        .map_err(|e| format!("could not create {}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    store
        .export_chrome(&system.config().clock, &mut out)
        .map_err(|e| format!("could not write {}: {e}", path.display()))?;
    out.flush()
        .map_err(|e| format!("could not write {}: {e}", path.display()))?;
    eprintln!(
        "trace: 8-SPE cycle, {} events over {} cycles ({:.1} GB/s) -> {}",
        store.totals().events,
        report.cycles,
        report.aggregate_gbps,
        path.display()
    );
    Ok(())
}

/// Prints every failed run to stderr, deduplicated by run key (in-batch
/// duplicates of one key share a single failure), and returns how many
/// distinct runs failed. Draining: repro collects once, at exit.
fn report_failures(exec: &SweepExecutor) -> usize {
    let mut seen = std::collections::HashSet::new();
    let mut distinct = 0;
    for failure in exec.take_failures() {
        if seen.insert(failure.key().to_string()) {
            eprintln!("failed run: {failure}");
            distinct += 1;
        }
    }
    if distinct > 0 {
        eprintln!("repro: {distinct} run(s) failed; affected figure points are marked `*`");
    }
    distinct
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(EXIT_BAD_INVOCATION);
        }
    };
    let jobs = args
        .jobs
        .unwrap_or_else(|| cellsim_core::exec::jobs_from_env().unwrap_or(0));
    let mut exec = match &args.cache_dir {
        Some(dir) => match SweepExecutor::with_cache_dir(jobs, dir) {
            Ok(exec) => exec,
            Err(e) => {
                eprintln!("error: could not open cache dir {}: {e}", dir.display());
                return ExitCode::from(EXIT_BAD_INVOCATION);
            }
        },
        None => SweepExecutor::new(jobs),
    };
    if let Some(dir) = &args.run_dir {
        if let Err(e) = exec.set_run_dir(dir) {
            eprintln!("error: could not open run dir {}: {e}", dir.display());
            return ExitCode::from(EXIT_BAD_INVOCATION);
        }
    }
    let exec = exec;
    let cfg = &args.cfg;
    if let Some(path) = &args.baseline_out {
        return match write_baseline(&args, &exec, path) {
            Ok(()) if report_failures(&exec) > 0 => ExitCode::from(EXIT_FAILED_RUNS),
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(EXIT_BAD_INVOCATION)
            }
        };
    }
    if let Some(path) = &args.check {
        return match check_baseline(&args, &exec, path) {
            Ok(clean) => {
                if report_failures(&exec) > 0 {
                    ExitCode::from(EXIT_FAILED_RUNS)
                } else if clean {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(EXIT_DRIFT)
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(EXIT_BAD_INVOCATION)
            }
        };
    }
    // The perf paths build their own fresh, cache-free executors (one
    // per figure) so the recorded wall clocks measure the simulator,
    // not `--cache-dir` hits or cross-figure dedup.
    if let Some(path) = &args.perf_baseline_out {
        return match write_perf_baseline(&args, exec.jobs(), path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(EXIT_BAD_INVOCATION)
            }
        };
    }
    if let Some(path) = &args.perf_check {
        return match check_perf(&args, path) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(EXIT_DRIFT),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(EXIT_BAD_INVOCATION)
            }
        };
    }
    println!(
        "cellsim repro — 2.1 GHz CBE blade, {} KiB/SPE, {} placements, seed {:#x}{}\n",
        cfg.volume_per_spe >> 10,
        cfg.placements,
        cfg.seed,
        match &args.faults {
            Some(plan) => format!(", fault plan {:#018x}", plan.fingerprint()),
            None => String::new(),
        }
    );

    let start = Instant::now();
    if let Err(e) = run(&args, &exec) {
        eprintln!("error: {e}");
        return ExitCode::from(EXIT_BAD_INVOCATION);
    }
    if let Some(path) = &args.trace_out {
        if let Err(e) = write_chrome_trace(path, &exec, &machine(&args), cfg) {
            eprintln!("error: {e}");
            return ExitCode::from(EXIT_BAD_INVOCATION);
        }
    }
    let elapsed = start.elapsed();
    if args.verbose {
        let stats = exec.stats();
        eprintln!(
            "repro: {:.2?} wall clock, {} jobs, run cache: {} hits / {} misses ({:.0}% hit rate)",
            elapsed,
            exec.jobs(),
            stats.hits,
            stats.misses,
            stats.hit_rate() * 100.0
        );
        if let Some(disk) = exec.disk_stats() {
            eprintln!(
                "repro: disk cache: {} loaded, {} stored, {} discarded",
                disk.loaded, disk.stored, disk.discarded
            );
        }
        if let (Some(rd), Some(dir)) = (exec.run_dir(), &args.run_dir) {
            let stats = rd.stats();
            eprintln!(
                "repro: run dir: {} recorded, {} reused, {} errors -> {}",
                stats.written,
                stats.reused,
                stats.errors,
                dir.display()
            );
        }
    }
    if report_failures(&exec) > 0 {
        return ExitCode::from(EXIT_FAILED_RUNS);
    }
    ExitCode::SUCCESS
}
