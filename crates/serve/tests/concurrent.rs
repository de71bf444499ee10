//! End-to-end daemon tests: real sockets, concurrent clients, a shared
//! cache directory, and hostile input. Every test binds an ephemeral
//! port and shuts its daemon down, so the suite parallelizes cleanly.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use cellsim_core::diskcache::{key_fingerprint, report_to_json};
use cellsim_core::exec::{RunSpec, SweepExecutor, Workload};
use cellsim_core::experiments::{
    figure10_with, figure12_with, figure_points, figure_specs, ExperimentConfig, SweepPoint,
};
use cellsim_core::json::{self, JsonValue};
use cellsim_core::tracestore::{Manifest, TraceStore, TRACE_FILE};
use cellsim_core::{CellSystem, FaultPlan, Placement};
use cellsim_serve::protocol::{encode_run_request, MAX_LINE_BYTES};
use cellsim_serve::{Client, ClientError, ServeHandle, ServeOptions, Server};

/// A reduced sweep: enough runs for the figures to have shape, small
/// enough that every test stays fast.
fn tiny_cfg() -> ExperimentConfig {
    ExperimentConfig {
        volume_per_spe: 32 << 10,
        dma_elem_sizes: vec![1024],
        placements: 2,
        seed: 0xCE11,
    }
}

fn tiny_specs(system: &CellSystem, figure: &str) -> Vec<RunSpec> {
    let cfg = tiny_cfg();
    let points = figure_points(&cfg, figure)
        .expect("valid config")
        .expect("fabric figure");
    figure_specs(system, &cfg, &points)
}

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cellsim-serve-test-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

struct Daemon {
    addr: std::net::SocketAddr,
    handle: ServeHandle,
    thread: thread::JoinHandle<()>,
}

fn start_daemon(opts: &ServeOptions) -> Daemon {
    let server = Server::bind("127.0.0.1:0", opts).expect("bind");
    let addr = server.local_addr().expect("bound address");
    let handle = server.handle().expect("handle");
    let thread = thread::spawn(move || server.serve().expect("serve"));
    Daemon {
        addr,
        handle,
        thread,
    }
}

impl Daemon {
    fn stop(self) {
        self.handle.shutdown();
        let _ = self.thread.join();
    }
}

/// Fetches a figure-12 batch from the daemon and renders the figures
/// from the replayed reports, exactly as `cellsim-client` does.
fn render_figure12_from(addr: std::net::SocketAddr) -> Vec<String> {
    let cfg = tiny_cfg();
    let system = CellSystem::blade();
    let specs = tiny_specs(&system, "12");
    let mut client = Client::connect(addr).expect("connect");
    let outcome = client.run_batch("fig12", None, &specs).expect("batch");
    assert_eq!(outcome.failed, 0, "healthy runs must not fail");
    let exec = SweepExecutor::new(1);
    for (spec, result) in specs.into_iter().zip(outcome.results) {
        exec.preload(spec.key, result.expect("ok result"));
    }
    figure12_with(&exec, &system, &cfg)
        .expect("render")
        .iter()
        .map(ToString::to_string)
        .collect()
}

#[test]
fn two_concurrent_clients_render_bit_identical_figures() {
    let cache = temp_dir("shared");
    let daemon = start_daemon(&ServeOptions {
        workers: 4,
        cache_dir: Some(cache.clone()),
        ..ServeOptions::default()
    });

    let cfg = tiny_cfg();
    let system = CellSystem::blade();
    let total = tiny_specs(&system, "12").len();
    let reference: Vec<String> = figure12_with(&SweepExecutor::new(1), &system, &cfg)
        .expect("local render")
        .iter()
        .map(ToString::to_string)
        .collect();

    let addr = daemon.addr;
    let a = thread::spawn(move || render_figure12_from(addr));
    let b = thread::spawn(move || render_figure12_from(addr));
    assert_eq!(a.join().expect("client a"), reference);
    assert_eq!(b.join().expect("client b"), reference);

    // 2×`total` runs were answered, but each distinct key simulated
    // exactly once: the duplicate copy was either deduped in flight or
    // served from the run cache — never simulated again.
    let mut client = Client::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.accepted, 2 * total as u64);
    assert_eq!(stats.completed, 2 * total as u64);
    assert_eq!(stats.cache_misses, total as u64, "stats: {stats:?}");
    assert_eq!(
        stats.cache_hits + stats.deduped,
        total as u64,
        "stats: {stats:?}"
    );
    let (entries, bytes) = stats.disk_entries.expect("cache dir attached");
    assert_eq!(entries, total as u64);
    assert!(bytes > 0);

    daemon.stop();
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn duplicate_runs_in_one_batch_simulate_once() {
    let daemon = start_daemon(&ServeOptions {
        workers: 4,
        ..ServeOptions::default()
    });
    let system = CellSystem::blade();
    // Heavy enough that the duplicates are popped (and parked on the
    // in-flight simulation) long before the first copy completes.
    let point = SweepPoint::new(Workload::dma_elem("cycle", 8, 4 << 20, 4096)).expect("plannable");
    let spec = RunSpec::new(&system, &point, Placement::identity());
    let specs = vec![spec.clone(), spec.clone(), spec.clone(), spec];

    let mut client = Client::connect(daemon.addr).expect("connect");
    let outcome = client.run_batch("dup", None, &specs).expect("batch");
    assert_eq!(outcome.ok, 4);
    assert_eq!(outcome.failed, 0);
    let first = report_to_json(outcome.results[0].as_ref().expect("ok"));
    for result in &outcome.results {
        assert_eq!(report_to_json(result.as_ref().expect("ok")), first);
    }

    let stats = client.stats().expect("stats");
    assert_eq!(stats.cache_misses, 1, "stats: {stats:?}");
    assert_eq!(stats.cache_hits + stats.deduped, 3, "stats: {stats:?}");
    assert!(stats.deduped >= 1, "expected in-flight dedup: {stats:?}");
    daemon.stop();
}

#[test]
fn oversized_batches_are_rejected_whole() {
    let daemon = start_daemon(&ServeOptions {
        high_water: 2,
        workers: 1,
        ..ServeOptions::default()
    });
    let specs = tiny_specs(&CellSystem::blade(), "12");
    assert!(specs.len() >= 3, "need a batch larger than the mark");

    let mut client = Client::connect(daemon.addr).expect("connect");
    match client.run_batch("big", None, &specs[..3]) {
        Err(ClientError::Overloaded { high_water, .. }) => assert_eq!(high_water, 2),
        other => panic!(
            "expected an overload rejection, got {other:?}",
            other = other.err()
        ),
    }
    // Nothing from the rejected batch ran, and smaller batches still do.
    let outcome = client.run_batch("small", None, &specs[..2]).expect("batch");
    assert_eq!(outcome.ok, 2);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.accepted, 2);
    daemon.stop();
}

#[test]
fn disconnecting_mid_batch_leaves_the_daemon_serving() {
    let daemon = start_daemon(&ServeOptions::default());
    let system = CellSystem::blade();
    let specs = tiny_specs(&system, "12");

    // Fire a whole batch and hang up without reading a single byte.
    {
        let mut stream = TcpStream::connect(daemon.addr).expect("connect");
        let line = encode_run_request("orphan", None, &specs, false);
        stream.write_all(line.as_bytes()).expect("send");
        stream.write_all(b"\n").expect("send");
    }

    // A fresh client gets full service; the orphan's completed runs can
    // only have warmed the shared cache.
    let mut client = Client::connect(daemon.addr).expect("connect");
    let outcome = client.run_batch("after", None, &specs).expect("batch");
    assert_eq!(outcome.failed, 0);
    assert_eq!(outcome.ok, specs.len());
    daemon.stop();
}

#[test]
fn hostile_lines_get_typed_errors_without_killing_the_connection() {
    let daemon = start_daemon(&ServeOptions::default());
    let stream = TcpStream::connect(daemon.addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut exchange = |line: &str| -> String {
        writer.write_all(line.as_bytes()).expect("send");
        writer.write_all(b"\n").expect("send");
        let mut response = String::new();
        reader.read_line(&mut response).expect("recv");
        response
    };

    let truncated = exchange("{\"op\":\"run\",\"id\":\"x\",\"runs\":[");
    assert!(truncated.contains("\"op\":\"error\""), "{truncated}");
    assert!(truncated.contains("\"reason\":\"protocol\""), "{truncated}");

    let over_deep = exchange(&format!("{}{}", "[".repeat(200), "]".repeat(200)));
    assert!(over_deep.contains("\"reason\":\"protocol\""), "{over_deep}");
    assert!(over_deep.contains("deeper than"), "{over_deep}");

    let missing_runs = exchange("{\"op\":\"run\",\"id\":\"x\"}");
    assert!(
        missing_runs.contains("\"reason\":\"bad-request\""),
        "{missing_runs}"
    );

    // Runs past the decode limits: a valid 8-SPE stencil asking for
    // 2^40 bytes per SPE (building its plan would exhaust memory), and a
    // 32 MiB-per-SPE stream of 8-byte elements whose plan cost (2^26)
    // is over the per-run limit. Both are refused before admission.
    let placement = "\"placement\":[0,1,2,3,4,5,6,7]";
    let huge_stencil = exchange(&format!(
        "{{\"op\":\"run\",\"id\":\"huge\",\"runs\":[{{\"pattern\":\"stencil\",\
         \"spes\":8,\"volume\":{},\"elem\":16,\"list\":true,\"sync\":\"all\",\
         \"params\":{},{placement}}}]}}",
        1u64 << 40,
        (5 << 8) | 6
    ));
    assert!(
        huge_stencil.contains("\"reason\":\"bad-request\"")
            && huge_stencil.contains("run 0: volume 1099511627776 exceeds the 33554432-byte"),
        "{huge_stencil}"
    );
    let over_cost = exchange(&format!(
        "{{\"op\":\"run\",\"id\":\"dear\",\"runs\":[{{\"pattern\":\"mem-get\",\
         \"spes\":8,\"volume\":{},\"elem\":8,{placement}}}]}}",
        32u64 << 20
    ));
    assert!(
        over_cost.contains("\"reason\":\"bad-request\"")
            && over_cost.contains("run 0: plan cost 67108864"),
        "{over_cost}"
    );
    // A couples run never reads `params`: a nonzero word would key the
    // same plan twice, so it is refused, naming the run.
    let couples =
        format!("{{\"pattern\":\"couples\",\"spes\":2,\"volume\":4096,\"elem\":128,{placement}");
    let stray_params = exchange(&format!(
        "{{\"op\":\"run\",\"id\":\"p\",\"runs\":[{couples}}},{couples},\"params\":5}}]}}"
    ));
    assert!(
        stray_params.contains("\"reason\":\"bad-request\"")
            && stray_params.contains("run 1: pattern 'couples' does not support params"),
        "{stray_params}"
    );

    // Six refused requests later, nothing was admitted or simulated,
    // and the same connection still serves.
    let stats = exchange("{\"op\":\"stats\"}");
    let v = json::parse(&stats).unwrap_or_else(|e| panic!("{e}: {stats}"));
    assert_eq!(v.get("op").and_then(JsonValue::as_str), Some("stats"));
    assert_eq!(v.get("accepted").and_then(JsonValue::as_u64), Some(0));
    let misses = v.get("cache").and_then(|c| c.get("misses"));
    assert_eq!(misses.and_then(JsonValue::as_u64), Some(0), "{stats}");
    daemon.stop();
}

#[test]
fn over_long_lines_error_and_close() {
    let daemon = start_daemon(&ServeOptions::default());
    let mut stream = TcpStream::connect(daemon.addr).expect("connect");
    // One byte past the cap is refused before any newline arrives, and
    // the daemon has read every byte sent, so it closes cleanly.
    stream
        .write_all(&vec![b'a'; MAX_LINE_BYTES + 1])
        .expect("send");
    let mut response = String::new();
    let mut reader = BufReader::new(stream);
    reader.read_line(&mut response).expect("recv");
    assert!(response.contains("\"op\":\"error\""), "{response}");
    assert!(
        response.contains(&format!("exceeds {MAX_LINE_BYTES} bytes")),
        "{response}"
    );
    // The daemon hangs up after an unframeable line.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("drain");
    assert!(rest.is_empty(), "connection should be closed");
    daemon.stop();
}

#[test]
fn over_long_line_error_survives_trailing_requests() {
    // Requests pipelined behind an over-long line are still unread when
    // the daemon answers it; closing over them would reset the
    // connection and could destroy the error line before it is read.
    let daemon = start_daemon(&ServeOptions::default());
    let mut request = vec![b'a'; MAX_LINE_BYTES + 1];
    request.push(b'\n');
    for _ in 0..200 {
        request.extend_from_slice(b"{\"op\":\"stats\"}\n");
    }
    for attempt in 0..20 {
        let mut stream = TcpStream::connect(daemon.addr).expect("connect");
        stream
            .write_all(&request)
            .unwrap_or_else(|e| panic!("attempt {attempt}: send: {e}"));
        let mut reader = BufReader::new(stream);
        let mut response = String::new();
        reader
            .read_line(&mut response)
            .unwrap_or_else(|e| panic!("attempt {attempt}: recv: {e}"));
        assert!(
            response.contains("\"op\":\"error\"") && response.contains("\"protocol\""),
            "attempt {attempt}: {response:?}"
        );
        let mut rest = Vec::new();
        reader
            .read_to_end(&mut rest)
            .unwrap_or_else(|e| panic!("attempt {attempt}: close: {e}"));
        assert!(
            rest.is_empty(),
            "attempt {attempt}: answered past the error"
        );
    }
    daemon.stop();
}

#[test]
fn stats_carry_uptime_queue_peak_and_per_connection_tallies() {
    let daemon = start_daemon(&ServeOptions::default());
    let system = CellSystem::blade();
    let specs = tiny_specs(&system, "12");
    let n = specs.len() as u64;

    let mut client = Client::connect(daemon.addr).expect("connect");
    let outcome = client.run_batch("up", None, &specs).expect("batch");
    assert_eq!(outcome.failed, 0);

    // The typed client sees the new counters...
    let stats = client.stats().expect("stats");
    assert!(
        stats.queue_peak >= 1 && stats.queue_peak <= n,
        "peak {} out of range for a {n}-run batch",
        stats.queue_peak
    );
    assert!(stats.uptime_cycles > 0, "successful runs accumulate cycles");

    // ...and the raw wire line carries every schema key, including the
    // per-connection breakdown naming this connection's tallies.
    let mut stream = TcpStream::connect(daemon.addr).expect("connect");
    stream.write_all(b"{\"op\":\"stats\"}\n").expect("send");
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).expect("recv");
    for key in [
        "\"queue_peak\":",
        "\"uptime_ms\":",
        "\"uptime_cycles\":",
        "\"per_connection\":[",
        "\"run_dir\":null",
    ] {
        assert!(line.contains(key), "stats line lacks {key}: {line}");
    }
    assert!(
        line.contains(&format!(
            "{{\"conn\":0,\"accepted\":{n},\"completed\":{n}}}"
        )),
        "per-connection tally missing: {line}"
    );
    daemon.stop();
}

#[test]
fn stats_log_appends_periodic_and_final_snapshots() {
    let dir = temp_dir("stats-log");
    let log = dir.join("stats.jsonl");
    let daemon = start_daemon(&ServeOptions {
        stats_log: Some(log.clone()),
        stats_interval: std::time::Duration::from_millis(50),
        ..ServeOptions::default()
    });
    let system = CellSystem::blade();
    let specs = tiny_specs(&system, "12");
    let mut client = Client::connect(daemon.addr).expect("connect");
    let outcome = client.run_batch("logged", None, &specs).expect("batch");
    assert_eq!(outcome.failed, 0);
    thread::sleep(std::time::Duration::from_millis(150));
    drop(client);
    daemon.stop();

    let history = std::fs::read_to_string(&log).expect("stats log exists");
    let lines: Vec<&str> = history.lines().collect();
    assert!(
        lines.len() >= 2,
        "expected periodic plus final snapshots, got {}",
        lines.len()
    );
    for line in &lines {
        assert!(line.starts_with("{\"op\":\"stats\""), "{line}");
        assert!(line.contains("\"uptime_ms\":"), "{line}");
        assert!(line.contains("\"queue_peak\":"), "{line}");
    }
    // The final (shutdown) snapshot has seen the whole batch complete.
    let last = lines.last().expect("non-empty");
    assert!(
        last.contains(&format!("\"completed\":{}", specs.len())),
        "final snapshot stale: {last}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn recorded_batches_persist_queryable_artifacts() {
    // A daemon with a run dir records every run it simulates, as
    // `repro --run-dir` does: `"record":true` only asserts that it does.
    for record in [true, false] {
        let run_dir = temp_dir("record");
        let daemon = start_daemon(&ServeOptions {
            run_dir: Some(run_dir.clone()),
            ..ServeOptions::default()
        });
        let system = CellSystem::blade();
        let specs = tiny_specs(&system, "12");

        let mut client = Client::connect(daemon.addr).expect("connect");
        let outcome = client
            .run_batch_recorded("rec", None, &specs, record)
            .expect("batch");
        assert_eq!(outcome.failed, 0);

        // Every distinct key of the batch left a complete artifact that
        // `cellsim-trace check` reconciles: manifest metrics match the
        // wire report, and the trace store's recount, trailer, size and
        // checksum match the manifest.
        let mut distinct = std::collections::BTreeSet::new();
        for (spec, result) in specs.iter().zip(&outcome.results) {
            let report = result.as_ref().expect("ok result");
            if !distinct.insert(key_fingerprint(&spec.key)) {
                continue;
            }
            let entry = run_dir.join(format!("{:016x}", key_fingerprint(&spec.key)));
            let manifest = Manifest::load(&entry).expect("manifest parses");
            assert_eq!(manifest.packets, report.packets, "record={record}");
            assert_eq!(manifest.total_bytes, report.total_bytes);
            let store = TraceStore::open(&entry.join(TRACE_FILE)).expect("store opens");
            let totals = *store.totals();
            assert_eq!(totals.delivered, report.packets);
            assert_eq!(totals.delivered_bytes, report.total_bytes);
            let (counts, delivered_bytes) = store.recount().expect("store decodes");
            assert_eq!(
                counts,
                [
                    totals.issued,
                    totals.mem_accesses,
                    totals.grants,
                    totals.delivered
                ]
            );
            assert_eq!(delivered_bytes, totals.delivered_bytes);
            assert_eq!(totals.issued, manifest.packets + manifest.abandoned);
            assert_eq!(totals.sim_events, manifest.events);
            assert_eq!(totals.packets, manifest.packets);
            assert_eq!(totals.events, manifest.trace_events);
            assert_eq!(store.size_bytes(), manifest.trace_bytes);
            assert_eq!(
                format!("{:016x}", store.payload_checksum()),
                manifest.trace_checksum
            );
        }
        assert!(!distinct.is_empty());
        let entries = std::fs::read_dir(&run_dir).expect("run dir").count();
        assert_eq!(entries, distinct.len(), "record={record}");
        daemon.stop();
        let _ = std::fs::remove_dir_all(run_dir);
    }
}

#[test]
fn recording_without_a_run_dir_is_refused() {
    let daemon = start_daemon(&ServeOptions::default());
    let specs = tiny_specs(&CellSystem::blade(), "12");
    let mut client = Client::connect(daemon.addr).expect("connect");
    match client.run_batch_recorded("norec", None, &specs, true) {
        Err(ClientError::Refused { reason, detail }) => {
            assert_eq!(reason, "bad-request");
            assert!(detail.contains("--run-dir"), "{detail}");
        }
        other => panic!("expected refusal, got {other:?}", other = other.err()),
    }
    // The same connection still serves unrecorded batches.
    let outcome = client.run_batch("plain", None, &specs[..1]).expect("batch");
    assert_eq!(outcome.ok, 1);
    daemon.stop();
}

#[test]
fn faulted_batches_match_a_local_faulted_executor() {
    let plan = FaultPlan::parse(
        "{\"seed\":7,\"eib\":{\"derate\":[{\"start\":0,\"cycles\":100000,\
         \"capacity_percent\":50}]}}",
    )
    .expect("valid plan");
    let system = CellSystem::blade().with_faults(plan.clone());
    let specs = tiny_specs(&system, "10");

    let daemon = start_daemon(&ServeOptions::default());
    let mut client = Client::connect(daemon.addr).expect("connect");
    let outcome = client.run_batch("deg", Some(&plan), &specs).expect("batch");

    let local = SweepExecutor::new(1);
    let local_results = local.try_run(specs.clone());
    for (wire, local) in outcome.results.iter().zip(local_results) {
        let wire = wire.as_ref().expect("wire run succeeded");
        let local = local.expect("local run succeeded");
        assert_eq!(report_to_json(wire), report_to_json(&local));
    }

    // And the replayed reports render the same degraded figure as a
    // local faulted executor.
    let cfg = tiny_cfg();
    let replay = SweepExecutor::new(1);
    for (spec, result) in specs.iter().zip(&outcome.results) {
        replay.preload(spec.key.clone(), result.as_ref().expect("ok").clone());
    }
    let from_wire = figure10_with(&replay, &system, &cfg)
        .expect("render")
        .to_string();
    let from_local = figure10_with(&local, &system, &cfg)
        .expect("render")
        .to_string();
    assert_eq!(from_wire, from_local);
    daemon.stop();
}

/// Every file under `dir`, by relative path, with its bytes.
fn snapshot(dir: &std::path::Path) -> std::collections::BTreeMap<PathBuf, Vec<u8>> {
    let mut files = std::collections::BTreeMap::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(next) = pending.pop() {
        for entry in std::fs::read_dir(&next).expect("readable dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let bytes = std::fs::read(&path).expect("readable file");
                files.insert(
                    path.strip_prefix(dir).expect("under dir").to_path_buf(),
                    bytes,
                );
            }
        }
    }
    files
}

/// The warm path: a daemon restarted over the cache and run directories
/// a first daemon filled answers every recorded run from disk. Nothing
/// is simulated, every report equals the first pass, and the run
/// directory is left byte for byte as it was.
#[test]
fn restarted_daemon_replays_warm_directories_without_simulating() {
    let cache = temp_dir("warm-cache");
    let runs = temp_dir("warm-runs");
    let opts = ServeOptions {
        workers: 2,
        cache_dir: Some(cache.clone()),
        run_dir: Some(runs.clone()),
        ..ServeOptions::default()
    };
    let system = CellSystem::blade();
    let batches: Vec<(&str, Vec<RunSpec>)> = ["8", "12", "gups"]
        .into_iter()
        .map(|figure| (figure, tiny_specs(&system, figure)))
        .collect();
    let replay = |daemon: &Daemon| {
        let mut client = Client::connect(daemon.addr).expect("connect");
        let reports: Vec<Vec<_>> = batches
            .iter()
            .map(|(figure, specs)| {
                let outcome = client
                    .run_batch_recorded(&format!("figure-{figure}"), None, specs, true)
                    .expect("batch");
                assert_eq!(outcome.failed, 0, "figure {figure}");
                outcome
                    .results
                    .into_iter()
                    .map(|r| r.expect("ok result"))
                    .collect()
            })
            .collect();
        (reports, client.stats().expect("stats"))
    };

    let cold = start_daemon(&opts);
    let (first, stats) = replay(&cold);
    cold.stop();
    assert!(
        stats.cache_misses > 0,
        "the first pass simulates: {stats:?}"
    );
    let recorded = snapshot(&runs);
    assert!(!recorded.is_empty());

    let warm = start_daemon(&opts);
    let (second, stats) = replay(&warm);
    warm.stop();
    assert_eq!(
        stats.cache_misses, 0,
        "a warm replay simulates nothing: {stats:?}"
    );
    assert_eq!(
        stats.cache_hits,
        batches.iter().map(|(_, s)| s.len() as u64).sum::<u64>(),
        "{stats:?}"
    );
    assert_eq!(second, first, "warm reports equal the first pass");
    assert!(snapshot(&runs) == recorded, "the run dir changed on replay");
    let _ = std::fs::remove_dir_all(cache);
    let _ = std::fs::remove_dir_all(runs);
}
