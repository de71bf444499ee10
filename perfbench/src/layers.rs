//! The per-layer ledger. Everything here is measured from outside the
//! simulator: exact work counters read off the `FabricReport`s a workload
//! produced, host time of the benchmark's own calls into each layer's
//! public functions, and component drivers whose call streams are shaped
//! like the workload that ran.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::BufWriter;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cellsim_core::diskcache::{key_fingerprint, report_from_json, DiskCache};
use cellsim_core::exec::RunSpec;
use cellsim_core::json;
use cellsim_core::tracestore::{Manifest, TraceStore, TraceStoreWriter, TRACE_FILE};
use cellsim_core::{DmaPathClass, FabricReport, MetricsSummary};
use cellsim_eib::{Eib, EibConfig, Element, FlowClass, Topology, TransferRequest};
use cellsim_kernel::{Cycle, EventQueue};
use cellsim_mem::{BankConfig, Op, RegionId, XdrBank};
use cellsim_mfc::{DmaCommand, DmaKind, EffectiveAddr, Issue, LsAddr, MfcConfig, MfcEngine, TagId};
use cellsim_serve::protocol::{decode_request, encode_run_request, result_line};

use crate::ledger::{quantile, Metrics, Tracer};
use crate::WORKERS;

/// Operations each component driver times: enough for tens of
/// milliseconds per layer, so the ns/op figures are not timer noise.
const DRIVER_OPS: u64 = 1 << 20;

/// A small deterministic generator for the drivers' call streams.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    /// An index drawn with probability proportional to `weights`.
    fn pick(&mut self, weights: &[u64]) -> usize {
        let total: u64 = weights.iter().sum();
        if total == 0 {
            return 0;
        }
        let mut roll = self.next() % total;
        for (i, &w) in weights.iter().enumerate() {
            if roll < w {
                return i;
            }
            roll -= w;
        }
        weights.len() - 1
    }
}

/// What the component drivers imitate, read off a workload's runs.
pub struct Shape {
    /// DMA element sizes, weighted by the packets they produced.
    elems: Vec<(u32, u64)>,
    /// Commands per [`DmaPathClass`] (memory GET/PUT, Local Store GET/PUT).
    paths: [u64; 4],
    /// Most packets in flight at once in any run.
    live: u64,
    /// Mean simulated cycles an event waits in the queue (Little's law).
    residence: u64,
}

impl Shape {
    pub fn of(specs: &[RunSpec], reports: &[Arc<FabricReport>]) -> Shape {
        let mut elems: Vec<(u32, u64)> = Vec::new();
        for (spec, report) in specs.iter().zip(reports) {
            let elem = spec.key.workload.elem;
            match elems.iter_mut().find(|(e, _)| *e == elem) {
                Some(slot) => slot.1 += report.packets,
                None => elems.push((elem, report.packets)),
            }
        }
        let summary = MetricsSummary::from_reports(reports.iter().map(|r| &**r));
        let mut paths = [0u64; 4];
        for (slot, path) in paths.iter_mut().zip(DmaPathClass::ALL) {
            *slot = summary.latency.path(path).commands;
        }
        let live = summary.peak_live_packets.max(8);
        let residence = (live * summary.run_cycles / summary.events.max(1)).max(1);
        Shape {
            elems,
            paths,
            live,
            residence,
        }
    }
}

/// The exact work counters of the kernel, EIB, MFC and memory layers:
/// sums over `reports`, one per distinct run the workload simulated.
pub fn record_counters(reports: &[Arc<FabricReport>], m: &mut Metrics) {
    let s = MetricsSummary::from_reports(reports.iter().map(|r| &**r));
    let packets = s.packets.max(1) as f64;
    let phases = s.latency.phase_cycles();
    let ring_busy: u64 = s.rings.iter().map(|r| r.busy_cycles).sum();
    let ring_capacity = (s.rings.len() as u64 * s.run_cycles).max(1);
    let bank_busy: u64 = s.banks.iter().map(|b| b.stats.busy_cycles).sum();
    let bank_capacity = (s.banks.len() as u64 * s.run_cycles).max(1);
    m.set("kernel.events", s.events as f64);
    m.set("kernel.events_per_packet", s.events as f64 / packets);
    m.set("kernel.suppressed_pumps", s.suppressed_pumps as f64);
    m.set(
        "eib.grants",
        reports.iter().map(|r| r.eib.grants).sum::<u64>() as f64,
    );
    m.set(
        "eib.ring_busy_share",
        ring_busy as f64 / ring_capacity as f64,
    );
    m.set("eib.stall_cycles", s.spe.stall_eib_cycles as f64);
    m.set("eib.ring_wait_cycles", phases[2] as f64);
    m.set("mfc.packets", s.packets as f64);
    m.set("mfc.slot_stall_cycles", s.spe.stall_mfc_full_cycles as f64);
    m.set("mfc.sync_stall_cycles", s.spe.stall_sync_cycles as f64);
    m.set("mfc.slot_wait_cycles", phases[1] as f64);
    m.set(
        "mem.accesses",
        s.banks.iter().map(|b| b.stats.accesses).sum::<u64>() as f64,
    );
    m.set(
        "mem.conflicts",
        s.banks.iter().map(|b| b.stats.conflicts).sum::<u64>() as f64,
    );
    m.set("mem.busy_share", bank_busy as f64 / bank_capacity as f64);
    m.set("mem.stall_cycles", s.spe.stall_mem_cycles as f64);
    m.set("fabric.peak_live_packets", s.peak_live_packets as f64);
}

/// Runs `run` on every spec, spread over [`WORKERS`] threads with one
/// `layer` span per run, and returns each run's host seconds and output
/// in spec order.
fn time_runs<T: Send + Sync>(
    tracer: &Tracer,
    parent: u64,
    layer: &'static str,
    specs: &[RunSpec],
    run: impl Fn(usize, &RunSpec) -> Result<T, String> + Sync,
) -> Vec<Result<(f64, T), String>> {
    let slots: Vec<std::sync::OnceLock<Result<(f64, T), String>>> =
        specs.iter().map(|_| std::sync::OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                let outcome = tracer.span(parent, layer, spec.key.to_string(), |_| {
                    let start = Instant::now();
                    run(i, spec).map(|out| (start.elapsed().as_secs_f64(), out))
                });
                let _ = slots[i].set(outcome);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every slot is filled"))
        .collect()
}

/// Runs every distinct spec directly through `CellSystem::try_run` on
/// [`WORKERS`] threads, each report checked against the workload's own
/// (`expected`, in spec order), and records the run-time percentiles and
/// host ns per simulated packet. Returns Σ seconds of the runs.
pub fn time_fabric(
    tracer: &Tracer,
    parent: u64,
    specs: &[RunSpec],
    expected: &[Arc<FabricReport>],
    m: &mut Metrics,
    problems: &mut Vec<String>,
) -> f64 {
    let timed = time_runs(tracer, parent, "fabric", specs, |_, spec| {
        spec.system
            .try_run(&spec.placement, &spec.plan)
            .map_err(|failure| format!("run stalled [{}]: {failure}", spec.key))
    });
    let mut times = Vec::new();
    for ((spec, result), want) in specs.iter().zip(timed).zip(expected) {
        match result {
            Ok((t, report)) if report == **want => times.push(t),
            Ok(_) => problems.push(format!(
                "direct run differs from the workload's [{}]",
                spec.key
            )),
            Err(e) => problems.push(e),
        }
    }
    let ms: Vec<f64> = times.iter().map(|t| t * 1e3).collect();
    let total: f64 = times.iter().sum();
    let packets: u64 = expected.iter().map(|r| r.packets).sum();
    m.set("fabric.runs", times.len() as f64);
    m.set("fabric.run_ms_p50", quantile(&ms, 0.5));
    m.set("fabric.run_ms_p95", quantile(&ms, 0.95));
    m.set("fabric.ns_per_packet", total * 1e9 / packets.max(1) as f64);
    total
}

/// Times the four component layers on call streams shaped like
/// `shape`, each inside its own span, and records their ns/op.
pub fn drive_components(tracer: &Tracer, parent: u64, shape: &Shape, m: &mut Metrics) {
    let ns = tracer.span(parent, "kernel", "EventQueue push/pop", |_| {
        drive_queue(shape)
    });
    m.set("kernel.queue_ns_per_op", ns);
    let ns = tracer.span(parent, "eib", "Eib submit/arbitrate", |_| drive_eib(shape));
    m.set("eib.ns_per_grant", ns);
    let ns = tracer.span(parent, "mfc", "MfcEngine enqueue/issue/deliver", |_| {
        drive_mfc(shape)
    });
    m.set("mfc.ns_per_packet", ns);
    let ns = tracer.span(parent, "mem", "XdrBank submit", |_| drive_bank(shape));
    m.set("mem.ns_per_access", ns);
}

/// Host ns per push or pop on a queue holding the workload's peak live
/// packets, each popped event rescheduled about one residence later.
fn drive_queue(shape: &Shape) -> f64 {
    let mut rng = Lcg(0x5EED);
    let mut queue = EventQueue::new();
    for i in 0..shape.live {
        queue.push(Cycle::new(rng.next() % (2 * shape.residence)), i);
    }
    let start = Instant::now();
    for _ in 0..DRIVER_OPS / 2 {
        let (at, event) = queue.pop().expect("the queue never drains");
        queue.push(
            at + 1 + rng.next() % (2 * shape.residence),
            black_box(event),
        );
    }
    start.elapsed().as_nanos() as f64 / DRIVER_OPS as f64
}

/// Host ns per grant for 8 SPEs each keeping two 128 B transfers
/// pending, routed by the workload's path mix.
fn drive_eib(shape: &Shape) -> f64 {
    let mut rng = Lcg(0xE1B);
    let mut eib = Eib::new(Topology::cbe(), EibConfig::default());
    let mut pending = [0u32; 8];
    let mut now = Cycle::ZERO;
    let mut token = 0u64;
    let mut granted = 0u64;
    let start = Instant::now();
    while granted < DRIVER_OPS / 4 {
        for spe in 0..8u8 {
            while pending[usize::from(spe)] < 2 {
                let partner = Element::spe((spe + 1) % 8);
                let me = Element::spe(spe);
                let (src, dst, class) = match DmaPathClass::ALL[rng.pick(&shape.paths)] {
                    DmaPathClass::MemGet => (Element::Mic, me, FlowClass::MemRead),
                    DmaPathClass::MemPut => (me, Element::Mic, FlowClass::MfcOut),
                    DmaPathClass::LsGet => (partner, me, FlowClass::LsRead),
                    DmaPathClass::LsPut => (me, partner, FlowClass::MfcOut),
                };
                let request = TransferRequest {
                    src,
                    dst,
                    bytes: 128,
                    class,
                };
                eib.submit(now, token * 8 + u64::from(spe), request);
                token += 1;
                pending[usize::from(spe)] += 1;
            }
        }
        for (tok, _) in eib.arbitrate(now) {
            pending[(tok % 8) as usize] -= 1;
            granted += 1;
        }
        now = eib.next_release_after(now).unwrap_or(now + 1);
    }
    start.elapsed().as_nanos() as f64 / granted as f64
}

/// Host ns per packet for one MFC fed commands of the workload's element
/// sizes and GET/PUT mix, each packet delivered a memory round trip
/// after issue.
fn drive_mfc(shape: &Shape) -> f64 {
    const ROUND_TRIP: u64 = 200;
    let mut rng = Lcg(0x3FC);
    let mut mfc = MfcEngine::new(MfcConfig::default()).expect("default MFC config is valid");
    let weights: Vec<u64> = shape.elems.iter().map(|&(_, w)| w).collect();
    let gets = shape.paths[0] + shape.paths[2];
    let puts = shape.paths[1] + shape.paths[3];
    let tag = TagId::new(0).expect("tag 0 exists");
    let mut inflight = std::collections::VecDeque::new();
    let mut now = Cycle::ZERO;
    let mut packets = 0u64;
    let start = Instant::now();
    while packets < DRIVER_OPS / 4 {
        while mfc.has_space() {
            let elem = shape.elems.get(rng.pick(&weights)).map_or(128, |&(e, _)| e);
            let kind = if rng.pick(&[gets, puts]) == 0 {
                DmaKind::Get
            } else {
                DmaKind::Put
            };
            let ea = EffectiveAddr::Memory {
                region: RegionId(0),
                offset: 0,
            };
            let cmd = DmaCommand::new(kind, LsAddr(0), ea, elem, tag)
                .expect("workload element sizes are valid DMA sizes");
            mfc.enqueue(now, cmd).expect("the queue has space");
        }
        let next = match mfc.try_issue(now) {
            Issue::Packet(p) => {
                inflight.push_back((now + ROUND_TRIP, p.token));
                packets += 1;
                now + 1
            }
            Issue::Stalled { retry_at } => retry_at.max(now + 1),
            Issue::Blocked | Issue::Idle => Cycle::new(u64::MAX),
        };
        // Advance to the next issue chance or the next delivery.
        now = inflight
            .front()
            .map_or(next, |&(at, _)| next.min(at))
            .min(Cycle::new(u64::MAX - ROUND_TRIP));
        while let Some(&(at, token)) = inflight.front() {
            if at > now {
                break;
            }
            inflight.pop_front();
            if mfc.packet_delivered(at, token) {
                if let Some(life) = mfc.take_completed() {
                    mfc.recycle(life);
                }
            }
        }
    }
    start.elapsed().as_nanos() as f64 / packets as f64
}

/// Host ns per access for one XDR bank fed 128 B (or smaller element)
/// accesses in the workload's read/write mix, as fast as it accepts.
fn drive_bank(shape: &Shape) -> f64 {
    let mut rng = Lcg(0xD4A);
    let mut bank = XdrBank::new(BankConfig::local_xdr());
    let weights: Vec<u64> = shape.elems.iter().map(|&(_, w)| w).collect();
    let mix = [shape.paths[0].max(1), shape.paths[1]];
    let mut now = Cycle::ZERO;
    let start = Instant::now();
    for _ in 0..DRIVER_OPS {
        let bytes = shape
            .elems
            .get(rng.pick(&weights))
            .map_or(128, |&(e, _)| e.min(128));
        let op = if rng.pick(&mix) == 0 {
            Op::Read
        } else {
            Op::Write
        };
        now = bank.next_accept_time(now);
        black_box(bank.submit(now, op, bytes));
    }
    start.elapsed().as_nanos() as f64 / DRIVER_OPS as f64
}

/// Stores then loads every report through a fresh `DiskCache` in `dir`,
/// recording µs per store and per load and the mean entry size. A load
/// that does not give back the stored report is returned as a problem.
pub fn drive_diskcache(
    dir: &Path,
    specs: &[RunSpec],
    reports: &[Arc<FabricReport>],
    m: &mut Metrics,
) -> Vec<String> {
    let cache = DiskCache::open(dir).expect("the work directory is writable");
    let start = Instant::now();
    for (spec, report) in specs.iter().zip(reports) {
        cache.store(&spec.key, report);
    }
    let store_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let loaded: Vec<Option<FabricReport>> = specs.iter().map(|s| cache.load(&s.key)).collect();
    let load_s = start.elapsed().as_secs_f64();
    let n = specs.len().max(1) as f64;
    let census = cache.dir_stats();
    m.set("diskcache.store_us", store_s * 1e6 / n);
    m.set("diskcache.load_us", load_s * 1e6 / n);
    m.set(
        "diskcache.entry_bytes",
        census.bytes as f64 / census.entries.max(1) as f64,
    );
    specs
        .iter()
        .zip(reports)
        .zip(loaded)
        .filter(|((_, want), got)| got.as_ref() != Some(&***want))
        .map(|((spec, _), _)| format!("disk cache round trip changed the report [{}]", spec.key))
        .collect()
}

/// Re-runs every spec with a streaming trace-store writer attached, on
/// [`WORKERS`] threads as [`time_fabric`] ran them, and records the
/// recording cost relative to those plain runs (`direct_s`) and bytes
/// per trace record.
pub fn drive_tracestore(
    tracer: &Tracer,
    parent: u64,
    dir: &Path,
    specs: &[RunSpec],
    direct_s: f64,
    m: &mut Metrics,
    problems: &mut Vec<String>,
) {
    std::fs::create_dir_all(dir).expect("the work directory is writable");
    let recorded = time_runs(tracer, parent, "tracestore", specs, |i, spec| {
        let file =
            std::fs::File::create(dir.join(format!("{i}.bin"))).map_err(|e| e.to_string())?;
        let mut writer = TraceStoreWriter::new(BufWriter::new(file));
        let report = spec
            .system
            .try_run_with_sink(&spec.placement, &spec.plan, &mut writer)
            .map_err(|failure| format!("recorded run stalled: {failure}"))?;
        let (_, summary) = writer
            .finalize(report.metrics.events, report.packets)
            .map_err(|e| e.to_string())?;
        Ok(summary)
    });
    let (mut record_s, mut bytes, mut records) = (0.0, 0u64, 0u64);
    for result in recorded {
        match result {
            Ok((t, summary)) => {
                record_s += t;
                bytes += summary.bytes;
                records += summary.events;
            }
            Err(e) => problems.push(e),
        }
    }
    m.set("tracestore.record_share", record_s / direct_s.max(1e-9));
    m.set(
        "tracestore.bytes_per_event",
        bytes as f64 / records.max(1) as f64,
    );
}

/// Checks every entry of a run directory: its store must decode and
/// recount exactly to its own trailer and manifest, and the manifest must
/// carry the counters of the locally computed report for its key
/// (`reference`, by key fingerprint). Returns the entries checked and the
/// problems found.
pub fn check_run_dir(
    root: &Path,
    reference: &HashMap<String, Arc<FabricReport>>,
) -> (usize, Vec<String>) {
    let mut problems = Vec::new();
    let mut dirs: Vec<_> = match std::fs::read_dir(root) {
        Ok(entries) => entries.filter_map(Result::ok).map(|e| e.path()).collect(),
        Err(e) => return (0, vec![format!("run dir {}: {e}", root.display())]),
    };
    dirs.retain(|d| d.is_dir());
    dirs.sort();
    for dir in &dirs {
        let name = dir.display();
        let manifest = match Manifest::load(dir) {
            Ok(m) => m,
            Err(e) => {
                problems.push(format!("{name}: {e}"));
                continue;
            }
        };
        let store = match TraceStore::open(&dir.join(TRACE_FILE)) {
            Ok(s) => s,
            Err(e) => {
                problems.push(format!("{name}: {e}"));
                continue;
            }
        };
        let (counts, delivered_bytes) = match store.recount() {
            Ok(c) => c,
            Err(e) => {
                problems.push(format!("{name}: {e}"));
                continue;
            }
        };
        let t = store.totals();
        let mut expect = |what: &str, got: u64, want: u64| {
            if got != want {
                problems.push(format!("{name}: {what}: {got} != {want}"));
            }
        };
        expect("recount issue", counts[0], t.issued);
        expect("recount mem", counts[1], t.mem_accesses);
        expect("recount grant", counts[2], t.grants);
        expect("recount deliver", counts[3], t.delivered);
        expect("recount bytes", delivered_bytes, t.delivered_bytes);
        expect(
            "delivered vs manifest packets",
            t.delivered,
            manifest.packets,
        );
        expect("sim events vs manifest", t.sim_events, manifest.events);
        expect("records vs manifest", t.events, manifest.trace_events);
        expect("size vs manifest", store.size_bytes(), manifest.trace_bytes);
        match reference.get(&manifest.fingerprint) {
            Some(report) => {
                expect(
                    "manifest events vs local run",
                    manifest.events,
                    report.metrics.events,
                );
                expect(
                    "manifest packets vs local run",
                    manifest.packets,
                    report.packets,
                );
                expect(
                    "manifest cycles vs local run",
                    manifest.cycles,
                    report.cycles,
                );
            }
            None => problems.push(format!("{name}: recorded a run nobody asked for")),
        }
    }
    (dirs.len(), problems)
}

/// Times the wire protocol on `batches`: encoding each request and
/// decoding it as the daemon does, then encoding and decoding one result
/// line per run. Records µs per run each way and wire bytes per run.
pub fn drive_protocol(
    batches: &[Vec<RunSpec>],
    reports: &HashMap<String, Arc<FabricReport>>,
    m: &mut Metrics,
) {
    let (mut encode_s, mut decode_s, mut bytes, mut runs) = (0.0, 0.0, 0usize, 0usize);
    for (b, specs) in batches.iter().enumerate() {
        let id = format!("ledger-{b}");
        let start = Instant::now();
        let line = encode_run_request(&id, None, specs, true);
        encode_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        black_box(decode_request(&line).is_ok());
        decode_s += start.elapsed().as_secs_f64();
        bytes += line.len() + 1;
        for (i, spec) in specs.iter().enumerate() {
            let Some(report) = reports.get(&format!("{:016x}", key_fingerprint(&spec.key))) else {
                continue;
            };
            let start = Instant::now();
            let result = result_line(&id, i, &spec.key, report);
            encode_s += start.elapsed().as_secs_f64();
            let start = Instant::now();
            let decoded = json::parse(&result)
                .ok()
                .and_then(|v| v.get("report").and_then(report_from_json));
            decode_s += start.elapsed().as_secs_f64();
            black_box(decoded);
            bytes += result.len() + 1;
        }
        runs += specs.len();
    }
    let runs = runs.max(1) as f64;
    m.set("serve.encode_us", encode_s * 1e6 / runs);
    m.set("serve.decode_us", decode_s * 1e6 / runs);
    m.set("serve.wire_bytes_per_run", bytes as f64 / runs);
}

/// Zeroes every metric of the layers a workload does not exercise.
pub fn record_idle(layers: &[&str], m: &mut Metrics) {
    for &(name, _) in crate::ledger::PER_LAYER {
        if layers.iter().any(|l| name.starts_with(&format!("{l}."))) && m.get(name).is_none() {
            m.set(name, 0.0);
        }
    }
}
