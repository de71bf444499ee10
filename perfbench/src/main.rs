//! The cellsim benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload quick-sweep|paper-scale|serve-replay \
//!     [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! One workload per invocation. With `--trace 0` it measures the
//! end-to-end metrics for `--seconds`; with `--trace 1` it makes one
//! traced pass and prints the per-layer ledger. Either way it checks the
//! simulator's outputs, prints one `name = value unit` line per metric,
//! and ends with one JSON line: `correct`, `attempted`, `failed` and
//! `metrics`. It exits 1 if any run failed or any output was wrong.
//! See `perfbench/README.md` for what each workload and metric is for.

mod layers;
mod ledger;
mod serve;
mod sweep;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ledger::{Metrics, Span, Tracer, END_TO_END, PER_LAYER};

/// Worker threads of every executor the benchmark starts outside the
/// daemon, which runs [`serve::DAEMON_WORKERS`].
pub const WORKERS: usize = 2;

/// Set-up is repeated at least this many times in one run, and until
/// [`SETUP_MIN_S`] have gone by; `setup_s` is the median. The quick
/// set-ups take tens of milliseconds, so a second of them gives the
/// median dozens of samples.
pub const SETUP_REPEATS: usize = 5;

/// Least host seconds one run spends repeating set-up.
pub const SETUP_MIN_S: f64 = 1.0;

/// The placement seed of the committed reference files.
pub const DEFAULT_SEED: u64 = 0xCE11;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    QuickSweep,
    PaperScale,
    ServeReplay,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "quick-sweep" => Some(Workload::QuickSweep),
            "paper-scale" => Some(Workload::PaperScale),
            "serve-replay" => Some(Workload::ServeReplay),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::QuickSweep => "quick-sweep",
            Workload::PaperScale => "paper-scale",
            Workload::ServeReplay => "serve-replay",
        }
    }
}

pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Few-KiB configurations, for the self-test only.
    pub tiny: bool,
    /// The repository root (reference files live there).
    pub root: PathBuf,
    /// Scratch space for caches, run directories and spans.
    pub work: PathBuf,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    /// Runs asked for, plus checks made.
    pub attempted: u64,
    /// Runs that failed, plus checks that found a mismatch.
    pub failed: u64,
    pub problems: Vec<String>,
    /// Informational lines printed before the metrics.
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(root: PathBuf) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut tiny = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!(
                    "unknown workload {name} (quick-sweep, paper-scale, serve-replay)"
                ))?);
            }
            "--seed" => {
                let text = value()?;
                seed = parse_seed(&text).ok_or(format!("bad seed: {text}"))?;
            }
            "--seconds" => {
                let text = value()?;
                seconds = text
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or(format!("bad seconds: {text}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad trace flag: {other} (0 or 1)")),
                }
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let work = root.join("perfbench/work").join(workload.name());
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
        tiny,
        root,
        work,
    })
}

/// Fills the traced run's generic rows: self time per layer, the span
/// count, and zeroes for the `idle` layers the workload never calls.
pub fn finish_trace(tracer: &Tracer, m: &mut Metrics, idle: &[&str]) {
    let spans = tracer.spans();
    for (layer, seconds) in ledger::self_times(&spans) {
        let name = format!("{layer}.self_s");
        let &(name, _) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .expect("every layer declares a self_s row");
        m.set(name, seconds);
    }
    m.set("trace.spans", spans.len() as f64);
    layers::record_idle(idle, m);
}

/// `nproc`, CPU model and source revision: what identifies the host and
/// the code a result came from.
fn host_context(root: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!("nproc={nproc} cpu=\"{cpu}\" revision={}", revision(root))
}

/// The git commit if the tree is a repository, else an FNV-1a digest of
/// the simulator's sources (a benchmark checkout carries no `.git`).
fn revision(root: &Path) -> String {
    if root.join(".git").exists() {
        let git = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .current_dir(root)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|out| out.status.success());
        if let Some(out) = git {
            return format!("git:{}", String::from_utf8_lossy(&out.stdout).trim());
        }
    }
    let mut files = Vec::new();
    let mut stack = vec![root.join("crates")];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    files.push(root.join("Cargo.lock"));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        for byte in std::fs::read(file).unwrap_or_default() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("src-fnv:{h:016x}")
}

fn load_average() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|t| t.split_whitespace().take(3).collect::<Vec<_>>().join(","))
        .unwrap_or_else(|_| "unknown".to_string())
}

fn main() -> ExitCode {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in the repository root")
        .to_path_buf();
    let opts = match parse_args(root) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let load_start = load_average();
    let _ = std::fs::remove_dir_all(&opts.work);
    std::fs::create_dir_all(&opts.work).expect("the work directory is writable");
    let out = match opts.workload {
        Workload::QuickSweep | Workload::PaperScale => sweep::run(&opts),
        Workload::ServeReplay => serve::run(&opts),
    };
    let _ = std::fs::remove_dir_all(&opts.work);

    let workers = match opts.workload {
        Workload::ServeReplay => serve::DAEMON_WORKERS,
        _ => WORKERS,
    };
    println!(
        "context: workload={} seed={:#x} workers={workers} {} loadavg_start={load_start} loadavg_end={}",
        opts.workload.name(),
        opts.seed,
        host_context(&opts.root),
        load_average()
    );
    for note in &out.notes {
        println!("{note}");
    }
    for problem in &out.problems {
        eprintln!("FAILED: {problem}");
    }
    if opts.trace {
        let path = opts
            .root
            .join("perfbench/work")
            .join(format!("spans-{}.jsonl", opts.workload.name()));
        match std::fs::write(&path, ledger::spans_json(&out.spans)) {
            Ok(()) => println!("spans: {} written to {}", out.spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    let declared = if opts.trace { PER_LAYER } else { END_TO_END };
    for &(name, unit) in declared {
        println!(
            "{name} = {} {unit}",
            out.metrics.get(name).unwrap_or(f64::NAN)
        );
    }
    let attempted = out.attempted.max(1);
    println!(
        "error_rate = {} ratio ({} failed of {attempted} attempted)",
        out.failed as f64 / attempted as f64,
        out.failed
    );
    let correct = out.failed == 0 && out.problems.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{},\"metrics\":{}}}",
        out.failed.max(u64::from(!correct)),
        out.metrics.to_json(declared)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
