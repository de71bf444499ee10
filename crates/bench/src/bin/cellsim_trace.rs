//! Queries the per-run trace stores recorded by `repro --run-dir` and
//! `cellsim-serve --run-dir`.
//!
//! ```text
//! cellsim-trace <dir> [command] [filters] [--format text|csv|json]
//!
//! <dir> is either one run's directory (holding manifest.json and
//! trace.bin) or a sweep root (one subdirectory per run key); commands
//! cover every run found, in sorted order.
//!
//! commands:
//!   summary             one line per run: identity, bandwidth, event and
//!                       packet totals, stall digest (default)
//!   events              list events passing the filters; --limit N caps
//!                       the listing (default 200, 0 = unlimited)
//!   counts              event counts by phase, after filters, summed
//!                       over the selected runs
//!   check               reconcile every store against its manifest's
//!                       FabricMetrics digest: full-decode recount ==
//!                       indexed trailer == manifest; deliver events ==
//!                       packets; delivered bytes == total bytes; issues
//!                       == packets + abandoned; checksums match
//!   top-stalls [N]      the N runs with the most stall cycles
//!                       (default 10), worst first
//!   chrome --out <f>    write one run's store as Chrome tracing JSON
//!                       (open with chrome://tracing or Perfetto)
//!
//! filters (events/counts):
//!   --spe N             initiating logical SPE (0-7)
//!   --phase <p>         issue | mem | grant | deliver
//!   --path <p>          mem-get | mem-put | ls-get | ls-put
//!   --cycle-from N      at or after bus cycle N
//!   --cycle-to N        at or before bus cycle N (inclusive)
//!
//! output:
//!   --format <f>        text (default) | csv | json
//!   --limit N           events listed per run (events command only)
//!
//! exit codes:
//!   0  success
//!   1  check found a reconciliation drift
//!   2  a store or manifest is corrupt, truncated, or unreadable
//!   3  bad invocation
//! ```
//!
//! Every failure is reported as a message and an exit code, never a
//! panic — a truncated `trace.bin` is a diagnosable condition, not a
//! crash.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cellsim_core::json::Writer;
use cellsim_core::report::csv_field;
use cellsim_core::tracestore::{
    parse_path, Manifest, TraceFilter, TraceKind, TraceStore, TraceStoreError, MANIFEST_FILE,
};
use cellsim_core::CellConfig;

const EXIT_DRIFT: u8 = 1;
const EXIT_CORRUPT: u8 = 2;
const EXIT_BAD_INVOCATION: u8 = 3;

/// Listing cap of the `events` command when `--limit` is not given.
const DEFAULT_EVENT_LIMIT: u64 = 200;

/// Writes one stdout line, exiting cleanly when the reader hung up —
/// `cellsim-trace events | head` must end the pipeline, not panic.
fn out(args: std::fmt::Arguments) {
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout
        .write_fmt(args)
        .and_then(|()| stdout.write_all(b"\n"))
    {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: stdout: {e}");
        std::process::exit(i32::from(EXIT_BAD_INVOCATION));
    }
}

macro_rules! outln {
    ($($arg:tt)*) => { out(format_args!($($arg)*)) };
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Csv,
    Json,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Command {
    Summary,
    Events,
    Counts,
    Check,
    TopStalls(usize),
    Chrome,
}

struct Args {
    dir: PathBuf,
    command: Command,
    filter: TraceFilter,
    format: Format,
    limit: u64,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut dir = None;
    let mut command = None;
    let mut filter = TraceFilter::default();
    let mut format = Format::Text;
    let mut limit = DEFAULT_EVENT_LIMIT;
    let mut out = None;
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--spe" => {
                let n = argv.next().ok_or("--spe needs a value")?;
                let spe: u8 = n.parse().map_err(|_| format!("bad SPE: {n}"))?;
                if spe > 7 {
                    return Err(format!("--spe must be 0-7, got {spe}"));
                }
                filter.spe = Some(spe);
            }
            "--phase" => {
                let p = argv.next().ok_or("--phase needs a value")?;
                filter.kind = Some(
                    TraceKind::parse(&p)
                        .ok_or(format!("bad phase: {p} (issue|mem|grant|deliver)"))?,
                );
            }
            "--path" => {
                let p = argv.next().ok_or("--path needs a value")?;
                filter.path = Some(
                    parse_path(&p)
                        .ok_or(format!("bad path: {p} (mem-get|mem-put|ls-get|ls-put)"))?,
                );
            }
            "--cycle-from" => {
                let n = argv.next().ok_or("--cycle-from needs a value")?;
                filter.cycle_from = Some(n.parse().map_err(|_| format!("bad cycle: {n}"))?);
            }
            "--cycle-to" => {
                let n = argv.next().ok_or("--cycle-to needs a value")?;
                filter.cycle_to = Some(n.parse().map_err(|_| format!("bad cycle: {n}"))?);
            }
            "--format" => {
                let f = argv.next().ok_or("--format needs a value")?;
                format = match f.as_str() {
                    "text" => Format::Text,
                    "csv" => Format::Csv,
                    "json" => Format::Json,
                    other => return Err(format!("bad format: {other} (text|csv|json)")),
                };
            }
            "--limit" => {
                let n = argv.next().ok_or("--limit needs a value")?;
                limit = n.parse().map_err(|_| format!("bad limit: {n}"))?;
            }
            "--out" => {
                let f = argv.next().ok_or("--out needs a file path")?;
                out = Some(PathBuf::from(f));
            }
            "--help" | "-h" => {
                outln!(
                    "cellsim-trace <dir> [summary|events|counts|check|top-stalls [N]|\
                     chrome --out <file>]\n       \
                     [--spe N] [--phase issue|mem|grant|deliver] \
                     [--path mem-get|mem-put|ls-get|ls-put]\n       \
                     [--cycle-from N] [--cycle-to N] [--format text|csv|json] \
                     [--limit N]\n\n\
                     <dir> is a run directory (manifest.json + trace.bin) or a sweep \
                     root of them.\n\n\
                     exit codes:\n  \
                     0  success\n  \
                     1  check found a reconciliation drift\n  \
                     2  a store or manifest is corrupt, truncated, or unreadable\n  \
                     3  bad invocation"
                );
                std::process::exit(0);
            }
            "summary" | "events" | "counts" | "check" | "chrome" if command.is_none() => {
                command = Some(match arg.as_str() {
                    "summary" => Command::Summary,
                    "events" => Command::Events,
                    "counts" => Command::Counts,
                    "check" => Command::Check,
                    _ => Command::Chrome,
                });
            }
            "top-stalls" if command.is_none() => {
                let n = match argv.peek() {
                    Some(next) if !next.starts_with("--") => {
                        let n = argv.next().expect("peeked");
                        n.parse()
                            .map_err(|_| format!("bad top-stalls count: {n}"))?
                    }
                    _ => 10,
                };
                command = Some(Command::TopStalls(n));
            }
            other if dir.is_none() && !other.starts_with("--") => {
                dir = Some(PathBuf::from(other));
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Args {
        dir: dir.ok_or("usage: cellsim-trace <dir> [command] (see --help)")?,
        command: command.unwrap_or(Command::Summary),
        filter,
        format,
        limit,
        out,
    })
}

/// One discovered run: its directory name (the key fingerprint for
/// sweep roots, the directory's own name for a direct run dir) and its
/// parsed manifest.
struct Run {
    name: String,
    dir: PathBuf,
    manifest: Manifest,
}

impl Run {
    fn open_store(&self) -> Result<TraceStore, CliError> {
        TraceStore::open(&self.dir.join(&self.manifest.trace_file))
            .map_err(|e| CliError::Corrupt(format!("{}: {e}", self.name)))
    }
}

/// CLI failures, ordered by exit code.
enum CliError {
    /// Exit 2: a store or manifest failed to open or validate.
    Corrupt(String),
    /// Exit 3: the invocation cannot be satisfied.
    Usage(String),
}

impl CliError {
    fn report(&self) -> ExitCode {
        match self {
            CliError::Corrupt(msg) => {
                eprintln!("error: {msg}");
                ExitCode::from(EXIT_CORRUPT)
            }
            CliError::Usage(msg) => {
                eprintln!("error: {msg}");
                ExitCode::from(EXIT_BAD_INVOCATION)
            }
        }
    }
}

/// Finds the runs under `dir`: the directory itself when it holds a
/// manifest, else every immediate subdirectory that does, sorted by
/// name so output order is deterministic.
fn discover(dir: &Path) -> Result<Vec<Run>, CliError> {
    let load = |name: String, dir: PathBuf| -> Result<Run, CliError> {
        let manifest = Manifest::load(&dir)
            .map_err(|e| CliError::Corrupt(format!("{}: {e}", dir.display())))?;
        Ok(Run {
            name,
            dir,
            manifest,
        })
    };
    if dir.join(MANIFEST_FILE).is_file() {
        let name = dir.file_name().map_or_else(
            || dir.display().to_string(),
            |n| n.to_string_lossy().into_owned(),
        );
        return Ok(vec![load(name, dir.to_path_buf())?]);
    }
    let entries = std::fs::read_dir(dir)
        .map_err(|e| CliError::Usage(format!("could not read {}: {e}", dir.display())))?;
    let mut names: Vec<String> = entries
        .filter_map(Result::ok)
        .filter(|e| e.path().join(MANIFEST_FILE).is_file())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(CliError::Usage(format!(
            "{} holds no run: no {MANIFEST_FILE} in it or any subdirectory",
            dir.display()
        )));
    }
    names
        .into_iter()
        .map(|name| {
            let sub = dir.join(&name);
            load(name, sub)
        })
        .collect()
}

/// Column names of the csv and json listings (the csv header lines).
const SUMMARY_COLUMNS: &str = "run,pattern,spes,volume,elem,cycles,total_bytes,gbps,events,\
                               packets,abandoned,stall_cycles,dominant_stall,trace_events,trace_bytes";
const EVENT_COLUMNS: &str = "run,cycle,phase,spe,path,aux,hops,bytes";
const STALL_COLUMNS: &str = "run,pattern,spes,elem,stall_cycles,dominant_stall,gbps";

/// One value of a csv or json row: strings are quoted, numbers are
/// written as `Display` prints them.
enum Cell<'a> {
    Str(&'a str),
    Num(String),
}

fn num(v: impl std::fmt::Display) -> Cell<'static> {
    Cell::Num(v.to_string())
}

/// Opens a csv table (its header line) or a json array.
fn header(format: Format, columns: &str) {
    match format {
        Format::Csv => outln!("{columns}"),
        _ => outln!("["),
    }
}

/// Prints a whole csv table, or a json array of one object per line.
fn table<'a>(format: Format, columns: &str, rows: impl Iterator<Item = Vec<Cell<'a>>>) {
    header(format, columns);
    let mut rows = rows.peekable();
    while let Some(cells) = rows.next() {
        let tail = if rows.peek().is_some() { "," } else { "" };
        row(format, columns, &cells, tail);
    }
    if format == Format::Json {
        outln!("]");
    }
}

/// Prints one csv row, or one json object keyed by `columns` and
/// followed by `tail` (its array separator).
fn row(format: Format, columns: &str, cells: &[Cell], tail: &str) {
    if format == Format::Csv {
        let fields: Vec<String> = cells
            .iter()
            .map(|c| match c {
                Cell::Str(s) => csv_field(s),
                Cell::Num(n) => n.clone(),
            })
            .collect();
        outln!("{}", fields.join(","));
        return;
    }
    let mut w = Writer::with_capacity(256);
    w.begin_object();
    for (key, cell) in columns.split(',').zip(cells) {
        w.key(key);
        match cell {
            Cell::Str(s) => w.str(s),
            Cell::Num(n) => w.raw(n),
        };
    }
    w.end_object();
    outln!("{}{tail}", w.finish());
}

fn summary(runs: &[Run], format: Format) {
    match format {
        Format::Text => {
            outln!(
                "{:<16} {:>8} {:>4} {:>10} {:>6} {:>5} {:>10} {:>8} {:>9} {:>8} {:>12} {:>9}",
                "run",
                "pattern",
                "spes",
                "volume",
                "elem",
                "list",
                "cycles",
                "gbps",
                "events",
                "packets",
                "stall-cycles",
                "dominant"
            );
            for r in runs {
                let m = &r.manifest;
                outln!(
                    "{:<16} {:>8} {:>4} {:>10} {:>6} {:>5} {:>10} {:>8.2} {:>9} {:>8} {:>12} {:>9}",
                    r.name,
                    m.pattern,
                    m.spes,
                    m.volume,
                    m.elem,
                    m.key.contains("\"list\":true"),
                    m.cycles,
                    m.aggregate_gbps,
                    m.events,
                    m.packets,
                    m.stall_cycles,
                    m.dominant_stall
                );
            }
        }
        _ => table(
            format,
            SUMMARY_COLUMNS,
            runs.iter().map(|r| {
                let m = &r.manifest;
                vec![
                    Cell::Str(&r.name),
                    Cell::Str(&m.pattern),
                    num(m.spes),
                    num(m.volume),
                    num(m.elem),
                    num(m.cycles),
                    num(m.total_bytes),
                    num(m.aggregate_gbps),
                    num(m.events),
                    num(m.packets),
                    num(m.abandoned),
                    num(m.stall_cycles),
                    Cell::Str(&m.dominant_stall),
                    num(m.trace_events),
                    num(m.trace_bytes),
                ]
            }),
        ),
    }
}

fn events(runs: &[Run], args: &Args) -> Result<(), CliError> {
    match args.format {
        Format::Text => outln!(
            "{:<16} {:>12} {:>7} {:>3} {:>7} {:>4} {:>4} {:>6}",
            "run",
            "cycle",
            "phase",
            "spe",
            "path",
            "aux",
            "hops",
            "bytes"
        ),
        _ => header(args.format, EVENT_COLUMNS),
    }
    let mut listed = 0u64;
    let mut total = 0u64;
    for r in runs {
        let store = r.open_store()?;
        store
            .for_each(&args.filter, |e| {
                total += 1;
                if args.limit != 0 && listed >= args.limit {
                    return Ok(());
                }
                listed += 1;
                match args.format {
                    Format::Text => outln!(
                        "{:<16} {:>12} {:>7} {:>3} {:>7} {:>4} {:>4} {:>6}",
                        r.name,
                        e.at,
                        e.kind.name(),
                        e.spe,
                        e.path.name(),
                        e.aux,
                        e.hops,
                        e.bytes
                    ),
                    _ => row(
                        args.format,
                        EVENT_COLUMNS,
                        &[
                            Cell::Str(&r.name),
                            num(e.at),
                            Cell::Str(e.kind.name()),
                            num(e.spe),
                            Cell::Str(e.path.name()),
                            num(e.aux),
                            num(e.hops),
                            num(e.bytes),
                        ],
                        ",",
                    ),
                }
                Ok(())
            })
            .map_err(|e| CliError::Corrupt(format!("{}: {e}", r.name)))?;
    }
    match args.format {
        Format::Json => row(
            args.format,
            "listed,matched,runs",
            &[num(listed), num(total), num(runs.len())],
            "]",
        ),
        _ => eprintln!(
            "events: listed {listed} of {total} matching, {} run(s)",
            runs.len()
        ),
    }
    Ok(())
}

fn counts(runs: &[Run], args: &Args) -> Result<(), CliError> {
    let mut by_kind = [0u64; 4];
    let mut bytes = 0u64;
    for r in runs {
        let store = r.open_store()?;
        // An unfiltered count comes straight off the verified trailers;
        // filters decode only the admitted blocks.
        let unfiltered = args.filter.spe.is_none()
            && args.filter.kind.is_none()
            && args.filter.path.is_none()
            && args.filter.cycle_from.is_none()
            && args.filter.cycle_to.is_none();
        if unfiltered {
            let t = store.totals();
            by_kind[0] += t.issued;
            by_kind[1] += t.mem_accesses;
            by_kind[2] += t.grants;
            by_kind[3] += t.delivered;
            bytes += t.delivered_bytes;
        } else {
            store
                .for_each(&args.filter, |e| {
                    let slot = TraceKind::ALL
                        .iter()
                        .position(|k| *k == e.kind)
                        .expect("kind in ALL");
                    by_kind[slot] += 1;
                    if e.kind == TraceKind::Deliver {
                        bytes += u64::from(e.bytes);
                    }
                    Ok(())
                })
                .map_err(|e| CliError::Corrupt(format!("{}: {e}", r.name)))?;
        }
    }
    let total: u64 = by_kind.iter().sum();
    match args.format {
        Format::Text => {
            for (kind, n) in TraceKind::ALL.iter().zip(by_kind) {
                outln!("{:<8} {n}", kind.name());
            }
            outln!("{:<8} {total}", "total");
            outln!("{:<8} {bytes}", "delivered-bytes");
        }
        Format::Csv => {
            outln!("phase,count");
            for (kind, n) in TraceKind::ALL.iter().zip(by_kind) {
                outln!("{},{n}", kind.name());
            }
            outln!("total,{total}");
            outln!("delivered_bytes,{bytes}");
        }
        Format::Json => {
            let names: Vec<&str> = TraceKind::ALL.iter().map(|k| k.name()).collect();
            let columns = format!("{},total,delivered_bytes,runs", names.join(","));
            let counts = by_kind.iter().chain([&total, &bytes]).map(num);
            let cells: Vec<Cell> = counts.chain([num(runs.len())]).collect();
            row(args.format, &columns, &cells, "");
        }
    }
    Ok(())
}

/// Reconciles one run's store against its manifest, returning the
/// drift descriptions (empty = clean). Corruption is an error, not a
/// drift: a store that cannot be decoded has no counts to compare.
fn check_run(run: &Run) -> Result<Vec<String>, CliError> {
    let m = &run.manifest;
    let store = run.open_store()?;
    let (counts, delivered_bytes) = store
        .recount()
        .map_err(|e| CliError::Corrupt(format!("{}: {e}", run.name)))?;
    let t = store.totals();
    let mut drifts = Vec::new();
    let mut expect = |what: &str, got: u64, want: u64| {
        if got != want {
            drifts.push(format!("{what}: store {got} != expected {want}"));
        }
    };
    // Ground-truth decode vs the indexed trailer.
    expect("recount issue", counts[0], t.issued);
    expect("recount mem", counts[1], t.mem_accesses);
    expect("recount grant", counts[2], t.grants);
    expect("recount deliver", counts[3], t.delivered);
    expect(
        "recount delivered bytes",
        delivered_bytes,
        t.delivered_bytes,
    );
    // Store vs the run's FabricMetrics digest: conservation by
    // construction — exact equality, zero drift tolerated.
    expect("deliver events vs packets", t.delivered, m.packets);
    expect(
        "delivered bytes vs total_bytes",
        t.delivered_bytes,
        m.total_bytes,
    );
    expect(
        "issue events vs packets+abandoned",
        t.issued,
        m.packets + m.abandoned,
    );
    expect(
        "embedded sim events vs metrics events",
        t.sim_events,
        m.events,
    );
    expect("embedded packets vs metrics packets", t.packets, m.packets);
    expect("trace events vs manifest", t.events, m.trace_events);
    expect("trace bytes vs manifest", store.size_bytes(), m.trace_bytes);
    let checksum = format!("{:016x}", store.payload_checksum());
    if checksum != m.trace_checksum {
        drifts.push(format!(
            "payload checksum: store {checksum} != manifest {}",
            m.trace_checksum
        ));
    }
    Ok(drifts)
}

fn check(runs: &[Run]) -> Result<bool, CliError> {
    let mut dirty = 0usize;
    for run in runs {
        let drifts = check_run(run)?;
        if drifts.is_empty() {
            continue;
        }
        dirty += 1;
        eprintln!("check: {} FAILED ({} drift(s)):", run.name, drifts.len());
        for d in &drifts {
            eprintln!("  {d}");
        }
    }
    if dirty == 0 {
        outln!(
            "check: {} run(s) reconcile exactly against their metrics digests",
            runs.len()
        );
        return Ok(true);
    }
    eprintln!("check: {dirty} of {} run(s) failed", runs.len());
    Ok(false)
}

fn top_stalls(runs: &[Run], n: usize, format: Format) {
    let mut ranked: Vec<&Run> = runs.iter().collect();
    ranked.sort_by(|a, b| {
        b.manifest
            .stall_cycles
            .cmp(&a.manifest.stall_cycles)
            .then_with(|| a.name.cmp(&b.name))
    });
    ranked.truncate(n);
    match format {
        Format::Text => {
            outln!(
                "{:<16} {:>8} {:>4} {:>6} {:>12} {:>9} {:>8}",
                "run",
                "pattern",
                "spes",
                "elem",
                "stall-cycles",
                "dominant",
                "gbps"
            );
            for r in ranked {
                let m = &r.manifest;
                outln!(
                    "{:<16} {:>8} {:>4} {:>6} {:>12} {:>9} {:>8.2}",
                    r.name,
                    m.pattern,
                    m.spes,
                    m.elem,
                    m.stall_cycles,
                    m.dominant_stall,
                    m.aggregate_gbps
                );
            }
        }
        _ => table(
            format,
            STALL_COLUMNS,
            ranked.iter().map(|r| {
                let m = &r.manifest;
                vec![
                    Cell::Str(&r.name),
                    Cell::Str(&m.pattern),
                    num(m.spes),
                    num(m.elem),
                    num(m.stall_cycles),
                    Cell::Str(&m.dominant_stall),
                    num(m.aggregate_gbps),
                ]
            }),
        ),
    }
}

fn chrome(runs: &[Run], out: Option<&Path>) -> Result<(), CliError> {
    let out = out.ok_or(CliError::Usage("chrome needs --out <file>".into()))?;
    let [run] = runs else {
        return Err(CliError::Usage(format!(
            "chrome exports one run at a time; {} holds {} — point at one \
             run's directory",
            "the given directory",
            runs.len()
        )));
    };
    let store = run.open_store()?;
    // Stores carry cycles, not seconds; project through the paper
    // machine's clock (the only machine repro records).
    let clock = CellConfig::default().clock;
    let file = std::fs::File::create(out)
        .map_err(|e| CliError::Usage(format!("could not create {}: {e}", out.display())))?;
    let mut w = std::io::BufWriter::new(file);
    store
        .export_chrome(&clock, &mut w)
        .and_then(|()| w.flush().map_err(TraceStoreError::Io))
        .map_err(|e| CliError::Corrupt(format!("{}: {e}", run.name)))?;
    eprintln!(
        "chrome: {} events ({} cycles of run {}) -> {}",
        store.totals().events,
        run.manifest.cycles,
        run.name,
        out.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(EXIT_BAD_INVOCATION);
        }
    };
    let runs = match discover(&args.dir) {
        Ok(runs) => runs,
        Err(e) => return e.report(),
    };
    let outcome = match &args.command {
        Command::Summary => {
            summary(&runs, args.format);
            Ok(true)
        }
        Command::Events => events(&runs, &args).map(|()| true),
        Command::Counts => counts(&runs, &args).map(|()| true),
        Command::Check => check(&runs),
        Command::TopStalls(n) => {
            top_stalls(&runs, *n, args.format);
            Ok(true)
        }
        Command::Chrome => chrome(&runs, args.out.as_deref()).map(|()| true),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(EXIT_DRIFT),
        Err(e) => e.report(),
    }
}
