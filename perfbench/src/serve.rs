//! The `serve-replay` workload: an in-process `cellsim-serve` daemon
//! replaying the quick figures 8, 12 and gups as recorded batches to one
//! closed-loop client connection. The cold phase simulates, records
//! traces and fills the disk cache; each warm phase restarts the daemon
//! over the same directories and replays twice, first answered from
//! disk and then from memory.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use cellsim_core::diskcache::{key_fingerprint, report_from_json};
use cellsim_core::exec::{RunKey, RunSpec, SweepExecutor};
use cellsim_core::experiments::ExperimentConfig;
use cellsim_core::json::{self, JsonValue};
use cellsim_core::{CellSystem, FabricReport};
use cellsim_serve::framing::LineReader;
use cellsim_serve::protocol::{encode_run_request, MAX_LINE_BYTES};
use cellsim_serve::{Client, ServeHandle, ServeOptions, ServeStats, Server};

use crate::layers;
use crate::ledger::{self, median, secs, Metrics, Tracer};
use crate::sweep::{self, quick_config};
use crate::{Opts, Outcome, SETUP_MIN_S, SETUP_REPEATS};

/// A run key's fingerprint as the wire and the run directory spell it.
fn fingerprint(key: &RunKey) -> String {
    format!("{:016x}", key_fingerprint(key))
}

/// The quick figures replayed, one recorded batch each.
const FIGURES: &[&str] = &["8", "12", "gups"];

/// Worker threads of the daemon. One, so the second core is left to the
/// daemon's connection threads and the client: with two simulating
/// workers every core is busy, and run-to-run times varied about three
/// times more on a shared 2-core host.
pub const DAEMON_WORKERS: usize = 1;

/// A daemon serving on an ephemeral local port, with one client
/// connection open to it.
struct Daemon {
    addr: SocketAddr,
    handle: ServeHandle,
    thread: JoinHandle<std::io::Result<()>>,
    conn: Conn,
}

impl Daemon {
    fn start(dir: &Path) -> std::io::Result<Daemon> {
        let opts = ServeOptions {
            jobs: 1,
            workers: DAEMON_WORKERS,
            cache_dir: Some(dir.join("cache")),
            run_dir: Some(dir.join("runs")),
            ..ServeOptions::default()
        };
        let server = Server::bind("127.0.0.1:0", &opts)?;
        let addr = server.local_addr()?;
        let handle = server.handle()?;
        let thread = std::thread::spawn(move || server.serve());
        let conn = Conn::connect(addr)?;
        Ok(Daemon {
            addr,
            handle,
            thread,
            conn,
        })
    }

    /// The daemon's counters, over a second connection.
    fn stats(&self) -> Result<ServeStats, String> {
        Client::connect(self.addr)
            .map_err(|e| e.to_string())?
            .stats()
            .map_err(|e| e.to_string())
    }

    /// Closes the client connection, stops the daemon and waits for its
    /// accept loop and workers to end.
    fn stop(self) {
        drop(self.conn);
        self.handle.shutdown();
        match self.thread.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => eprintln!("perfbench: daemon ended with {e}"),
            Err(_) => eprintln!("perfbench: daemon thread panicked"),
        }
    }
}

/// The closed-loop client: one batch in flight at a time, each result
/// line timestamped as it arrives.
struct Conn {
    reader: LineReader<BufReader<TcpStream>>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        let writer = stream.try_clone()?;
        Ok(Conn {
            reader: LineReader::new(BufReader::new(stream), MAX_LINE_BYTES),
            writer,
        })
    }

    /// Sends one recorded batch and waits for its `done`. Returns each
    /// run's report (`None` if it failed) and its latency in ms from the
    /// send to its result line.
    fn run_batch(
        &mut self,
        id: &str,
        specs: &[RunSpec],
    ) -> Result<Vec<(Option<FabricReport>, f64)>, String> {
        let line = encode_run_request(id, None, specs, true);
        let sent = Instant::now();
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut slots: Vec<Option<(Option<FabricReport>, f64)>> =
            specs.iter().map(|_| None).collect();
        loop {
            let line = self
                .reader
                .next_line()
                .map_err(|e| format!("read: {e}"))?
                .ok_or("daemon closed the connection")?;
            let v = json::parse(&line).map_err(|e| format!("unparseable line: {e}"))?;
            match v.get("op").and_then(JsonValue::as_str) {
                Some("accepted") => {}
                Some(op @ ("result" | "failed")) => {
                    let latency = secs(sent) * 1e3;
                    let index = v
                        .get("index")
                        .and_then(JsonValue::as_u64)
                        .and_then(|i| usize::try_from(i).ok())
                        .filter(|&i| i < specs.len())
                        .ok_or("result without a valid index")?;
                    let want = fingerprint(&specs[index].key);
                    if v.get("key").and_then(JsonValue::as_str) != Some(want.as_str()) {
                        return Err(format!("run {index} answered with another run key"));
                    }
                    let report = (op == "result")
                        .then(|| v.get("report").and_then(report_from_json))
                        .flatten();
                    slots[index] = Some((report, latency));
                }
                Some("done") => break,
                _ => return Err(format!("unexpected line: {line}")),
            }
        }
        slots
            .into_iter()
            .map(|slot| slot.ok_or_else(|| "done before every result".to_string()))
            .collect()
    }
}

/// What one replay of every batch gave.
#[derive(Default)]
struct Replay {
    runs: u64,
    /// Seconds from sending each batch to its `done`.
    batch_s: Vec<f64>,
    latencies_ms: Vec<f64>,
    problems: Vec<String>,
}

/// Replays every batch once, checking each wire report against the
/// locally computed one for its key.
fn replay(
    conn: &mut Conn,
    batches: &[(String, Vec<RunSpec>)],
    reference: &HashMap<String, Arc<FabricReport>>,
) -> Replay {
    let mut out = Replay::default();
    for (id, specs) in batches {
        out.runs += specs.len() as u64;
        let start = Instant::now();
        let results = conn.run_batch(id, specs);
        out.batch_s.push(secs(start));
        let results = match results {
            Ok(results) => results,
            Err(e) => {
                out.problems.push(format!("batch {id}: {e}"));
                continue;
            }
        };
        for (spec, (report, latency)) in specs.iter().zip(results) {
            out.latencies_ms.push(latency);
            let local = reference.get(&fingerprint(&spec.key));
            match (report, local) {
                (Some(wire), Some(local)) if wire == **local => {}
                (None, _) => out
                    .problems
                    .push(format!("run failed on the daemon [{}]", spec.key)),
                _ => out.problems.push(format!(
                    "wire report differs from the local run [{}]",
                    spec.key
                )),
            }
        }
    }
    out
}

/// Warm phases per pass. One costs about a tenth of the cold phase, so
/// repeating it gives the latencies several samples per pass for little
/// run time.
const WARM_ROUNDS: usize = 4;

/// One daemon's replays: their total time, each batch's time in replay
/// order, and each run's latency.
#[derive(Default)]
struct Phase {
    wall: f64,
    batches: Vec<f64>,
    latencies_ms: Vec<f64>,
}

/// One pass: the cold phase over empty directories, then
/// [`WARM_ROUNDS`] warm phases, each on a restarted daemon over the same
/// directories.
struct Pass {
    cold: Phase,
    warm: Vec<Phase>,
    runs: u64,
    problems: Vec<String>,
    stats: Vec<ServeStats>,
}

impl Pass {
    fn wall(&self) -> f64 {
        self.cold.wall + self.warm.iter().map(|p| p.wall).sum::<f64>()
    }
}

fn run_pass(
    dir: &Path,
    batches: &[(String, Vec<RunSpec>)],
    reference: &HashMap<String, Arc<FabricReport>>,
    trace: Option<(&Tracer, u64)>,
) -> std::io::Result<Pass> {
    let _ = std::fs::remove_dir_all(dir);
    let mut pass = Pass {
        cold: Phase::default(),
        warm: Vec::new(),
        runs: 0,
        problems: Vec::new(),
        stats: Vec::new(),
    };
    // The cold phase replays once; each warm phase twice, from disk and
    // then from memory.
    for round in 0..=WARM_ROUNDS {
        let (name, replays) = if round == 0 { ("cold", 1) } else { ("warm", 2) };
        let mut daemon = Daemon::start(dir)?;
        let mut phase = Phase::default();
        let start = Instant::now();
        for i in 0..replays {
            let r = match trace {
                Some((tracer, parent)) => {
                    tracer.span(parent, "serve", format!("{name} replay {i}"), |_| {
                        replay(&mut daemon.conn, batches, reference)
                    })
                }
                None => replay(&mut daemon.conn, batches, reference),
            };
            pass.runs += r.runs;
            pass.problems.extend(r.problems);
            phase.batches.extend(r.batch_s);
            phase.latencies_ms.extend(r.latencies_ms);
        }
        phase.wall = secs(start);
        match daemon.stats() {
            Ok(stats) => pass.stats.push(stats),
            Err(e) => pass.problems.push(format!("stats: {e}")),
        }
        daemon.stop();
        if round == 0 {
            pass.cold = phase;
        } else {
            pass.warm.push(phase);
        }
    }
    Ok(pass)
}

/// The recorded batches: one per figure, exactly the specs the local
/// sweep would run.
fn build_batches(system: &CellSystem, opts: &Opts) -> Vec<(String, Vec<RunSpec>)> {
    let cfg = quick_config(opts.seed, opts.tiny);
    FIGURES
        .iter()
        .map(|&id| {
            let plan =
                sweep::plan(system, &[(id, &cfg)]).expect("the quick configuration is valid");
            (format!("figure-{id}"), plan.specs)
        })
        .collect()
}

pub fn run(opts: &Opts) -> Outcome {
    let system = CellSystem::blade();
    let mut out = Outcome::default();
    let dir = opts.work.join("daemon");

    // Set-up: build the batches, bind the daemon over fresh directories
    // and connect. Repeated; the last batches are the ones replayed.
    let (mut setups, begun) = (Vec::new(), Instant::now());
    let mut batches = Vec::new();
    while setups.len() < SETUP_REPEATS || secs(begun) < SETUP_MIN_S {
        let _ = std::fs::remove_dir_all(&dir);
        let start = Instant::now();
        batches = build_batches(&system, opts);
        let daemon = Daemon::start(&dir).expect("a local daemon binds");
        setups.push(secs(start));
        daemon.stop();
    }
    out.metrics.set("setup_s", median(&setups));

    // The reference every wire report must equal: the same runs computed
    // locally on a plain executor, outside the daemon. `distinct` and
    // `reports` keep the runs that succeeded, in step.
    let cfg = quick_config(opts.seed, opts.tiny);
    let figures: Vec<(&str, &ExperimentConfig)> = FIGURES.iter().map(|&id| (id, &cfg)).collect();
    let all = sweep::plan(&system, &figures)
        .expect("the quick configuration is valid")
        .specs;
    let (mut distinct, mut reports, mut reference) = (Vec::new(), Vec::new(), HashMap::new());
    for (spec, result) in all.iter().zip(SweepExecutor::new(1).try_run(all.clone())) {
        match result {
            Ok(report) => {
                reference.insert(fingerprint(&spec.key), Arc::clone(&report));
                distinct.push(spec.clone());
                reports.push(report);
            }
            Err(e) => {
                out.failed += 1;
                out.problems
                    .push(format!("local reference run failed: {e}"));
            }
        }
    }
    let packets: u64 = reports.iter().map(|r| r.packets).sum();

    let check = |pass: &Pass, out: &mut Outcome| {
        out.attempted += pass.runs;
        out.failed += pass.problems.len() as u64;
        out.problems.extend(pass.problems.iter().cloned());
        let (checked, problems) = layers::check_run_dir(&dir.join("runs"), &reference);
        out.attempted += checked as u64;
        out.failed += problems.len() as u64;
        out.problems.extend(problems);
    };

    if !opts.trace {
        let mut passes = ledger::Passes::default();
        let (start, mut last) = (Instant::now(), None);
        while ledger::another_pass(start, last, opts.seconds) {
            let begun = Instant::now();
            let pass = run_pass(&dir, &batches, &reference, None).expect("a local daemon binds");
            check(&pass, &mut out);
            passes.cold(pass.cold.batches);
            for phase in pass.warm {
                passes.warm(phase.batches);
                passes.latencies(phase.latencies_ms);
            }
            last = Some(secs(begun));
        }
        let samples = passes.record(packets, &mut out.metrics);
        out.notes.push(format!(
            "{samples} (latency: batch send to each result line, warm phases)"
        ));
        return out;
    }

    let untraced = run_pass(&dir, &batches, &reference, None).expect("a local daemon binds");
    check(&untraced, &mut out);
    let tracer = Tracer::new();
    let mut m = Metrics::default();
    tracer.span(0, "bench", "traced run", |root| {
        let start = Instant::now();
        let built = tracer.span(root, "plan", "figure_points + figure_specs", |_| {
            build_batches(&system, opts)
        });
        m.set("plan.build_s", secs(start));
        m.set(
            "plan.specs",
            built.iter().map(|(_, s)| s.len()).sum::<usize>() as f64,
        );
        let pass = run_pass(&dir, &built, &reference, Some((&tracer, root)))
            .expect("a local daemon binds");
        out.attempted += pass.runs;
        out.failed += pass.problems.len() as u64;
        out.problems.extend(pass.problems.iter().cloned());
        let start = Instant::now();
        let (checked, problems) = tracer.span(root, "tracestore", "open + recount run dir", |_| {
            layers::check_run_dir(&dir.join("runs"), &reference)
        });
        m.set("tracestore.check_s", secs(start));
        out.attempted += checked as u64;
        out.failed += problems.len() as u64;
        out.problems.extend(problems);
        m.set("trace.overhead_s", pass.wall() - untraced.wall());
        m.set(
            "bench.latency_samples",
            pass.warm
                .iter()
                .map(|p| p.latencies_ms.len())
                .sum::<usize>() as f64,
        );
        let stat = |f: fn(&ServeStats) -> u64| pass.stats.iter().map(f).sum::<u64>() as f64;
        m.set(
            "serve.queue_peak",
            pass.stats.iter().map(|s| s.queue_peak).max().unwrap_or(0) as f64,
        );
        m.set("serve.deduped", stat(|s| s.deduped));
        m.set("serve.rejected", stat(|s| s.rejected));
        let (hits, misses) = (stat(|s| s.cache_hits), stat(|s| s.cache_misses));
        m.set("exec.hits", hits);
        m.set("exec.misses", misses);
        m.set("exec.hit_rate", hits / (hits + misses).max(1.0));
        layers::record_counters(&reports, &mut m);

        let mut problems = Vec::new();
        let direct_s = tracer.span(root, "fabric", "direct runs", |id| {
            layers::time_fabric(&tracer, id, &distinct, &reports, &mut m, &mut problems)
        });
        out.attempted += distinct.len() as u64;
        m.set("exec.batch_s", pass.cold.wall);
        m.set(
            "exec.overhead_s",
            pass.cold.wall - direct_s / DAEMON_WORKERS as f64,
        );

        tracer.span(root, "tracestore", "record every run", |id| {
            let dir = opts.work.join("traces");
            layers::drive_tracestore(
                &tracer,
                id,
                &dir,
                &distinct,
                direct_s,
                &mut m,
                &mut problems,
            );
        });
        out.failed += problems.len() as u64;
        out.problems.extend(problems);
        let problems = tracer.span(root, "diskcache", "store + load every report", |_| {
            layers::drive_diskcache(&opts.work.join("diskcache"), &distinct, &reports, &mut m)
        });
        out.failed += problems.len() as u64;
        out.problems.extend(problems);
        tracer.span(
            root,
            "serve",
            "encode + decode every request and result",
            |_| {
                let batches: Vec<Vec<RunSpec>> = built.iter().map(|(_, s)| s.clone()).collect();
                layers::drive_protocol(&batches, &reference, &mut m);
            },
        );
        let shape = layers::Shape::of(&distinct, &reports);
        layers::drive_components(&tracer, root, &shape, &mut m);
    });
    crate::finish_trace(&tracer, &mut m, &["ppe"]);
    out.metrics = m;
    out.spans = tracer.spans();
    out
}
