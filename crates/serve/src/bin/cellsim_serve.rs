//! The `cellsim-serve` daemon binary.
//!
//! ```text
//! cellsim-serve [--addr HOST:PORT] [--workers N]
//!               [--cache-dir <dir>] [--high-water N]
//!               [--run-dir <dir>] [--stats-log <file>] [--stats-interval-ms N]
//!               [--write-timeout-ms N] [--drain-grace-ms N] [--writer-queue N]
//!
//!   --addr HOST:PORT    listen address (default 127.0.0.1:7117;
//!                       use :0 for an ephemeral port)
//!   --workers N         concurrent runs in flight (default: all cores)
//!   --cache-dir <dir>   shared persistent report cache (same format and
//!                       directory as repro --cache-dir)
//!   --high-water N      admission queue high-water mark (default 4096)
//!   --run-dir <dir>     trace-store run directory; every run the daemon
//!                       simulates persists one queryable artifact here
//!                       (same layout and rule as repro --run-dir, read
//!                       with cellsim-trace). Without it, batches sent
//!                       with "record":true are refused.
//!   --stats-log <file>  append one {"op":"stats"} snapshot line per
//!                       interval (and one at shutdown) — a stats history
//!                       with uptime and queue high-water marks
//!   --stats-interval-ms N  snapshot interval (default 60000)
//!   --write-timeout-ms N   socket write deadline; one write blocked this
//!                          long marks the peer a slow consumer
//!                          (0 = never, the default)
//!   --drain-grace-ms N     how long a draining daemon waits for in-flight
//!                          work before exiting anyway (default 30000)
//!   --writer-queue N       response lines buffered per connection before
//!                          the peer is declared a slow consumer
//!                          (default 1024)
//!
//! exit codes: 0 clean shutdown, 3 bad invocation or I/O error
//! ```
//!
//! Prints exactly one line to stdout once the socket is listening —
//! `cellsim-serve listening on <addr>` — so scripts can scrape the
//! bound (possibly ephemeral) port. Everything else goes to stderr.
//!
//! A run above 32 MiB per SPE or above a plan cost of 2²⁴ is refused as
//! `bad-request` when its request is decoded; there is no run timeout.
//!
//! **SIGTERM drains.** On Unix, SIGTERM is the out-of-band twin of the
//! wire's `{"op":"drain"}`: new batches are refused with reason
//! `draining`, in-flight work finishes, a final stats snapshot is
//! appended, and the process exits 0. A second SIGTERM (or SIGKILL) is
//! the impatient path.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use cellsim_serve::{ServeOptions, Server};

/// Set by the SIGTERM handler; polled by a watcher thread that starts
/// the drain. Signal-handler-safe: the handler only stores a flag.
#[cfg(unix)]
static SIGTERM: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Installs a SIGTERM handler that flips [`SIGTERM`], without a libc
/// dependency: `signal(2)` is declared directly. The handler body is a
/// single atomic store, which is async-signal-safe.
#[cfg(unix)]
fn install_sigterm_handler() {
    extern "C" fn on_sigterm(_signo: i32) {
        SIGTERM.store(true, std::sync::atomic::Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM_NO: i32 = 15;
    let handler: extern "C" fn(i32) = on_sigterm;
    unsafe {
        signal(SIGTERM_NO, handler as usize);
    }
}

struct Args {
    addr: String,
    opts: ServeOptions,
}

fn parse_args() -> Result<Args, String> {
    let mut addr = "127.0.0.1:7117".to_string();
    let mut opts = ServeOptions::default();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--addr" => addr = value("an address")?,
            "--workers" => {
                let n = value("a count")?;
                opts.workers = n.parse().map_err(|_| format!("bad worker count: {n}"))?;
            }
            "--cache-dir" => opts.cache_dir = Some(PathBuf::from(value("a directory")?)),
            "--high-water" => {
                let n = value("a count")?;
                let mark: usize = n.parse().map_err(|_| format!("bad high-water mark: {n}"))?;
                if mark == 0 {
                    return Err("--high-water must be >= 1".into());
                }
                opts.high_water = mark;
            }
            "--run-dir" => opts.run_dir = Some(PathBuf::from(value("a directory")?)),
            "--stats-log" => opts.stats_log = Some(PathBuf::from(value("a file")?)),
            "--stats-interval-ms" => {
                let n = value("a count")?;
                let ms: u64 = n.parse().map_err(|_| format!("bad interval: {n}"))?;
                if ms == 0 {
                    return Err("--stats-interval-ms must be >= 1".into());
                }
                opts.stats_interval = std::time::Duration::from_millis(ms);
            }
            "--write-timeout-ms" => {
                let n = value("a count")?;
                let ms: u64 = n.parse().map_err(|_| format!("bad timeout: {n}"))?;
                opts.write_timeout = (ms > 0).then(|| std::time::Duration::from_millis(ms));
            }
            "--drain-grace-ms" => {
                let n = value("a count")?;
                let ms: u64 = n.parse().map_err(|_| format!("bad grace: {n}"))?;
                opts.drain_grace = std::time::Duration::from_millis(ms);
            }
            "--writer-queue" => {
                let n = value("a count")?;
                let cap: usize = n.parse().map_err(|_| format!("bad queue size: {n}"))?;
                if cap == 0 {
                    return Err("--writer-queue must be >= 1".into());
                }
                opts.writer_queue = cap;
            }
            "--help" | "-h" => {
                println!(
                    "cellsim-serve [--addr HOST:PORT] [--workers N] \
                     [--cache-dir <dir>] [--high-water N] \
                     [--run-dir <dir>] [--stats-log <file>] [--stats-interval-ms N] \
                     [--write-timeout-ms N] [--drain-grace-ms N] [--writer-queue N]\n\n\
                     Long-running sweep daemon; see README §cellsim-serve for the \
                     line protocol. With --run-dir every simulated run is recorded \
                     there, as repro --run-dir does. Runs above 32 MiB per SPE or \
                     above a plan cost of 2^24 are refused as bad-request. SIGTERM \
                     drains: reject new batches, finish in-flight work, exit 0."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Args { addr, opts })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(3);
        }
    };
    let server = match Server::bind(args.addr.as_str(), &args.opts) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: could not bind {}: {e}", args.addr);
            return ExitCode::from(3);
        }
    };
    match server.local_addr() {
        Ok(addr) => {
            println!("cellsim-serve listening on {addr}");
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(3);
        }
    }
    if let Some(dir) = &args.opts.cache_dir {
        eprintln!("cellsim-serve: cache dir {}", dir.display());
    }
    if let Some(dir) = &args.opts.run_dir {
        eprintln!("cellsim-serve: run dir {}", dir.display());
    }
    if let Some(path) = &args.opts.stats_log {
        eprintln!(
            "cellsim-serve: stats log {} every {} ms",
            path.display(),
            args.opts.stats_interval.as_millis()
        );
    }
    #[cfg(unix)]
    {
        install_sigterm_handler();
        if let Ok(handle) = server.handle() {
            let _ = std::thread::Builder::new()
                .name("cellsim-serve-sigterm".to_string())
                .spawn(move || loop {
                    if SIGTERM.load(std::sync::atomic::Ordering::SeqCst) {
                        eprintln!("cellsim-serve: SIGTERM, draining");
                        handle.drain();
                        return;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(50));
                });
        }
    }
    if let Err(e) = server.serve() {
        eprintln!("error: {e}");
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}
