//! `cellsim-client`: renders fabric figures from a `cellsim-serve`
//! daemon instead of simulating locally.
//!
//! ```text
//! cellsim-client --addr HOST:PORT [--quick|--full] [--figure <id>]...
//!                [--seed N] [--faults <plan.json>] [--stats]
//!                [--retries N] [--retry-base-ms N] [--retry-seed N]
//!
//!   --addr HOST:PORT    daemon address (required unless --help)
//!   --quick / --full    reduced / paper-scale sweep (same as repro)
//!   --figure <id>       only the named fabric figure: 8, 10, 12, 13,
//!                       15, 16, gups, stencil, pairlist (repeatable;
//!                       default: all nine)
//!   --seed N            placement lottery seed (same as repro)
//!   --faults <plan.json> fault plan applied to every batch, in-band
//!   --stats             print the daemon's counters and exit
//!   --retries N         reconnect/backoff budget per batch: attempts
//!                       after the first before giving up (default 5;
//!                       0 = fail fast)
//!   --retry-base-ms N   first backoff delay; doubles per attempt up
//!                       to a 5 s ceiling (default 100)
//!   --retry-seed N      seeds the backoff jitter, making the retry
//!                       schedule reproducible (default 0)
//!
//! exit codes: 0 ok, 2 runs failed on the daemon, 3 bad invocation
//!             or daemon unreachable/refusing
//! ```
//!
//! Batches ride a reconnect-and-resume client: if the daemon dies or
//! drains mid-batch, the client backs off, reconnects, and re-requests
//! only the runs it has not yet been answered for. Results are keyed
//! content-addressed, so a resumed figure is byte-identical to an
//! uninterrupted one.
//!
//! The client expands each figure into the exact per-placement
//! [`RunSpec`] batch `repro` would simulate (via
//! [`cellsim_core::experiments::figure_specs`]), streams it to the
//! daemon, verifies every returned report against the run key that
//! requested it, preloads the reports into a local cache-only
//! executor, and renders through the same [`FIGURES`] rows.
//! The figure text is therefore byte-identical to
//! `repro --figure <id> ...` minus repro's two header lines
//! (`tail -n +3`).

use std::process::ExitCode;

use cellsim_core::exec::{RunSpec, SweepExecutor};
use cellsim_core::experiments::{
    figure_points, figure_specs, ExperimentConfig, ExperimentError, FigureRow, Render, FIGURES,
};
use cellsim_core::{CellSystem, FaultPlan};
use cellsim_serve::{Client, ClientError, ResilientClient, RetryPolicy};

const EXIT_FAILED_RUNS: u8 = 2;
const EXIT_BAD_INVOCATION: u8 = 3;

/// The figures the serve protocol can replay: the [`FIGURES`] rows
/// that sweep the DMA fabric, in render order.
fn fabric_figures() -> impl Iterator<Item = &'static FigureRow> {
    FIGURES.iter().filter(|row| row.points.is_some())
}

struct Args {
    addr: String,
    cfg: ExperimentConfig,
    figures: Vec<String>,
    faults: Option<FaultPlan>,
    stats: bool,
    retries: u32,
    retry_base_ms: u64,
    retry_seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut addr = None;
    let mut cfg = ExperimentConfig::default();
    let mut seed = None;
    let mut figures = Vec::new();
    let mut faults = None;
    let mut stats = false;
    let mut retries: u32 = 5;
    let mut retry_base_ms: u64 = 100;
    let mut retry_seed: u64 = 0;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--addr" => addr = Some(value("an address")?),
            "--quick" => cfg = ExperimentConfig::quick(),
            "--full" => cfg = ExperimentConfig::full(),
            "--seed" => {
                let n = value("a seed")?;
                seed = Some(n.parse().map_err(|_| format!("bad seed: {n}"))?);
            }
            "--figure" => {
                let id = value("an id")?;
                if !fabric_figures().any(|row| row.id == id) {
                    let ids: Vec<&str> = fabric_figures().map(|row| row.id).collect();
                    return Err(format!(
                        "figure {id} is not served over the wire (fabric figures only: {})",
                        ids.join(", ")
                    ));
                }
                figures.push(id);
            }
            "--faults" => {
                let file = value("a plan file")?;
                let text = std::fs::read_to_string(&file)
                    .map_err(|e| format!("could not read {file}: {e}"))?;
                faults = Some(FaultPlan::parse(&text).map_err(|e| format!("{file}: {e}"))?);
            }
            "--stats" => stats = true,
            "--retries" => {
                let n = value("a count")?;
                retries = n.parse().map_err(|_| format!("bad retry count: {n}"))?;
            }
            "--retry-base-ms" => {
                let n = value("a delay")?;
                retry_base_ms = n.parse().map_err(|_| format!("bad delay: {n}"))?;
            }
            "--retry-seed" => {
                let n = value("a seed")?;
                retry_seed = n.parse().map_err(|_| format!("bad seed: {n}"))?;
            }
            "--help" | "-h" => {
                println!(
                    "cellsim-client --addr HOST:PORT [--quick|--full] [--figure <id>]... \
                     [--seed N] [--faults <plan.json>] [--stats] [--retries N] \
                     [--retry-base-ms N] [--retry-seed N]\n\n\
                     Renders fabric figures from a cellsim-serve daemon, reconnecting \
                     and resuming across daemon restarts; see README §cellsim-serve \
                     for the line protocol."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if let Some(seed) = seed {
        cfg.seed = seed;
    }
    if let Some(plan) = &faults {
        if !plan.fused_spes.is_empty() {
            return Err(
                "fault plans with fused_spes change figure semantics; run them \
                 locally via repro --figure degraded"
                    .into(),
            );
        }
    }
    let addr = addr.ok_or("missing --addr (daemon address)")?;
    Ok(Args {
        addr,
        cfg,
        figures,
        faults,
        stats,
        retries,
        retry_base_ms,
        retry_seed,
    })
}

fn err_string(e: ExperimentError) -> String {
    e.to_string()
}

/// Fetches one figure's runs from the daemon and preloads the reports
/// into `exec`. Returns the number of failed runs (reported on stderr).
fn fetch_figure(
    client: &mut ResilientClient,
    exec: &SweepExecutor,
    specs: Vec<RunSpec>,
    id: &str,
    faults: Option<&FaultPlan>,
) -> Result<usize, ClientError> {
    let outcome = client.run_batch(id, faults, &specs)?;
    let mut failed = 0;
    for (spec, result) in specs.into_iter().zip(outcome.results) {
        match result {
            Ok(report) => exec.preload(spec.key, report),
            Err(failure) => {
                eprintln!("failed run: {failure}");
                failed += 1;
            }
        }
    }
    Ok(failed)
}

fn print_stats(client: &mut Client) -> Result<(), ClientError> {
    let s = client.stats()?;
    println!(
        "cellsim-serve stats: {} connection(s), {} queued (high water {}, \
         peak {}), {} in flight, {} deduped, {} accepted, {} completed, \
         {} rejected",
        s.connections,
        s.queue_depth,
        s.high_water,
        s.queue_peak,
        s.inflight,
        s.deduped,
        s.accepted,
        s.completed,
        s.rejected
    );
    println!(
        "uptime: {} ms wall, {} simulated cycles",
        s.uptime_ms, s.uptime_cycles
    );
    println!(
        "run cache: {} hits / {} misses",
        s.cache_hits, s.cache_misses
    );
    match s.disk_entries {
        Some((entries, bytes)) => println!("disk cache: {entries} entries, {bytes} bytes"),
        None => println!("disk cache: not attached"),
    }
    Ok(())
}

fn run(args: &Args) -> Result<usize, String> {
    if args.stats {
        let mut client = Client::connect(args.addr.as_str())
            .map_err(|e| format!("could not connect to {}: {e}", args.addr))?;
        print_stats(&mut client).map_err(|e| e.to_string())?;
        return Ok(0);
    }
    let policy = RetryPolicy::new(
        std::time::Duration::from_millis(args.retry_base_ms),
        std::time::Duration::from_secs(5),
        args.retries,
        args.retry_seed,
    );
    let mut client = ResilientClient::fixed(&args.addr, policy);
    let system = match &args.faults {
        Some(plan) => CellSystem::blade().with_faults(plan.clone()),
        None => CellSystem::blade(),
    };
    let cfg = &args.cfg;
    // Replay executor: single-threaded and never asked to simulate —
    // every run the renderers request below was preloaded off the wire.
    let exec = SweepExecutor::new(1);
    let wanted = |id: &str| args.figures.is_empty() || args.figures.iter().any(|f| f == id);
    let mut failed = 0;
    for row in fabric_figures().filter(|row| wanted(row.id)) {
        let id = row.id;
        let points = figure_points(cfg, id)
            .map_err(err_string)?
            .expect("fabric rows carry sweep points");
        let specs = figure_specs(&system, cfg, &points);
        failed += fetch_figure(&mut client, &exec, specs, id, args.faults.as_ref())
            .map_err(|e| format!("figure {id}: {e}"))?;
        match row.render {
            Render::Figures(render) => {
                for f in render(&exec, &system, cfg).map_err(err_string)? {
                    println!("{f}");
                }
            }
            Render::Spreads(render) => {
                for f in render(&exec, &system, cfg).map_err(err_string)? {
                    println!("{f}");
                }
            }
            Render::Degraded(_) => unreachable!("the fault ladder has no sweep points"),
        }
        // Rendering re-requests exactly the preloaded keys; a failed
        // run would be re-simulated locally, so drain those records to
        // keep the process honest about where work happened.
        exec.take_failures();
    }
    Ok(failed)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(EXIT_BAD_INVOCATION);
        }
    };
    match run(&args) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(failed) => {
            eprintln!("cellsim-client: {failed} run(s) failed on the daemon");
            ExitCode::from(EXIT_FAILED_RUNS)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(EXIT_BAD_INVOCATION)
        }
    }
}
