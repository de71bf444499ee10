//! The trace store's determinism and conservation contract: a recorded
//! run directory is byte-identical whether the sweep ran serially, on
//! four workers, or against a warm run cache; every artifact's counts
//! reconcile exactly with its metrics digest; the per-SPE, per-ring and
//! per-bank sums over its events equal the report's always-on metrics;
//! and corruption surfaces as typed errors that the next recording pass
//! heals.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use cellsim::exec::{RunSpec, SweepExecutor};
use cellsim::experiments::{figure_points, figure_specs, ExperimentConfig};
use cellsim::tracestore::{
    Manifest, TraceFilter, TraceKind, TraceStore, TraceStoreError, TraceStoreWriter, TRACE_FILE,
};
use cellsim::{CellSystem, FabricReport, Placement, SyncPolicy, TransferPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cellsim-trace-test-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A reduced figure-12 sweep: several distinct run keys, fast runs.
fn tiny_specs(system: &CellSystem) -> Vec<RunSpec> {
    let cfg = ExperimentConfig {
        volume_per_spe: 32 << 10,
        dma_elem_sizes: vec![1024],
        placements: 2,
        seed: 0xCE11,
    };
    let points = figure_points(&cfg, "12")
        .expect("valid config")
        .expect("fabric figure");
    figure_specs(system, &cfg, &points)
}

/// Every file under `dir`, keyed by path relative to it.
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("readable dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path
                    .strip_prefix(dir)
                    .expect("under root")
                    .to_string_lossy()
                    .into_owned();
                files.insert(rel, std::fs::read(&path).expect("readable file"));
            }
        }
    }
    files
}

/// Records `specs` into a fresh run directory on a `jobs`-wide executor.
fn record(jobs: usize, dir: &Path, specs: Vec<RunSpec>) -> SweepExecutor {
    let mut exec = SweepExecutor::new(jobs);
    exec.set_run_dir(dir).expect("run dir attaches");
    for result in exec.try_run(specs) {
        result.expect("healthy runs succeed");
    }
    exec
}

#[test]
fn run_dir_artifacts_identical_serial_parallel_and_cached() {
    let system = CellSystem::blade();
    let specs = tiny_specs(&system);

    let serial_dir = temp_dir("serial");
    let serial_exec = record(1, &serial_dir, specs.clone());
    let serial = snapshot(&serial_dir);
    assert!(!serial.is_empty(), "the sweep recorded artifacts");

    let parallel_dir = temp_dir("parallel");
    record(4, &parallel_dir, specs.clone());
    assert_eq!(
        serial,
        snapshot(&parallel_dir),
        "--jobs 4 must record byte-identical artifacts to --jobs 1"
    );

    // A warm run cache must not perturb recording: artifacts missing
    // from a fresh directory bypass the cache and re-simulate traced,
    // landing byte-identical to the cold recording.
    let warm_dir = temp_dir("warm");
    let mut warm_exec = SweepExecutor::new(2);
    for result in warm_exec.try_run(specs.clone()) {
        result.expect("warming run succeeds");
    }
    assert!(warm_exec.stats().misses > 0, "the warm pass simulated");
    warm_exec.set_run_dir(&warm_dir).expect("run dir attaches");
    for result in warm_exec.try_run(specs.clone()) {
        result.expect("recorded run succeeds");
    }
    assert_eq!(
        serial,
        snapshot(&warm_dir),
        "recording against a warm cache must stay byte-identical"
    );

    // A second pass over an already-complete directory reuses every
    // artifact — nothing is rewritten, the reuse counter says why.
    let before = serial_exec.run_dir().expect("attached").stats();
    for result in serial_exec.try_run(specs) {
        result.expect("reused run succeeds");
    }
    let after = serial_exec.run_dir().expect("attached").stats();
    assert_eq!(after.written, before.written, "no artifact rewritten");
    assert!(after.reused > before.reused, "complete artifacts reused");
    assert_eq!(serial, snapshot(&serial_dir), "bytes untouched by reuse");

    for dir in [serial_dir, parallel_dir, warm_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn store_counts_reconcile_exactly_with_the_metrics_digest() {
    let system = CellSystem::blade();
    let specs = tiny_specs(&system);
    let dir = temp_dir("reconcile");
    record(1, &dir, specs);

    let mut entries = 0;
    for entry in std::fs::read_dir(&dir).expect("run dir") {
        let entry = entry.expect("dir entry").path();
        if !entry.is_dir() {
            continue;
        }
        entries += 1;
        let manifest = Manifest::load(&entry).expect("manifest parses");
        let store = TraceStore::open(&entry.join(TRACE_FILE)).expect("store opens");
        let totals = store.totals();
        // Conservation by construction: the event log's counts ARE the
        // metrics digest's counts, with zero drift.
        assert_eq!(totals.delivered, manifest.packets, "{}", entry.display());
        assert_eq!(totals.delivered_bytes, manifest.total_bytes);
        assert_eq!(totals.issued, manifest.packets + manifest.abandoned);
        assert_eq!(totals.sim_events, manifest.events);
        assert_eq!(totals.events, manifest.trace_events);
        let (recounted, rebytes) = store.recount().expect("decodable blocks");
        assert_eq!(recounted.iter().sum::<u64>(), totals.events);
        assert_eq!(rebytes, totals.delivered_bytes);
    }
    assert!(entries > 0, "the sweep recorded artifacts");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn corrupt_artifacts_error_typed_and_are_re_recorded() {
    let system = CellSystem::blade();
    let specs = tiny_specs(&system);
    let dir = temp_dir("corrupt");
    record(1, &dir, specs.clone());
    let pristine = snapshot(&dir);

    // Truncate one store mid-payload: opening it is a typed corruption
    // error, never a panic.
    let victim = std::fs::read_dir(&dir)
        .expect("run dir")
        .filter_map(|e| Some(e.ok()?.path()))
        .find(|p| p.is_dir())
        .expect("at least one entry")
        .join(TRACE_FILE);
    let bytes = std::fs::read(&victim).expect("trace file");
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).expect("truncate");
    match TraceStore::open(&victim) {
        Err(TraceStoreError::Corrupt { .. }) => {}
        Err(other) => panic!("expected a corruption error, got {other}"),
        Ok(_) => panic!("a truncated store must not open"),
    }

    // The next recording pass notices the incomplete artifact (its size
    // no longer matches the manifest), re-simulates, and re-records the
    // directory back to its pristine bytes.
    record(1, &dir, specs);
    assert_eq!(pristine, snapshot(&dir), "self-healed to identical bytes");
    let _ = std::fs::remove_dir_all(dir);
}

/// Runs `plan` with an in-memory store attached and opens the result.
fn record_in_memory(
    system: &CellSystem,
    placement: &Placement,
    plan: &TransferPlan,
) -> (FabricReport, TraceStore) {
    let mut writer = TraceStoreWriter::new(Vec::new());
    let report = system
        .try_run_with_sink(placement, plan, &mut writer)
        .expect("healthy run");
    let (bytes, _) = writer
        .finalize(report.metrics.events, report.packets)
        .expect("in-memory store");
    (report, TraceStore::from_bytes(bytes).expect("store opens"))
}

#[test]
fn store_event_sums_equal_the_always_on_metrics() {
    let system = CellSystem::blade();
    // The paper's 8-SPE cycle under a random placement, and a GET plan
    // whose three SPEs stream with different element sizes.
    let mut cycle = TransferPlan::builder();
    for spe in 0..8 {
        cycle = cycle.exchange_with(spe, (spe + 1) % 8, 64 << 10, 4096, SyncPolicy::AfterAll);
    }
    let get = TransferPlan::builder()
        .get_from_memory(0, 128 << 10, 16 * 1024, SyncPolicy::AfterAll)
        .get_from_memory(1, 64 << 10, 1024, SyncPolicy::AfterAll)
        .get_from_memory(2, 32 << 10, 128, SyncPolicy::AfterAll)
        .build()
        .expect("valid plan");
    let random = Placement::random(&mut StdRng::seed_from_u64(99));
    // (placement, plan, bytes read from DRAM)
    let runs = [
        (random, cycle.build().expect("valid plan"), 0),
        (Placement::identity(), get, 224 << 10),
    ];
    for (placement, plan, dram_bytes) in &runs {
        let (report, store) = record_in_memory(&system, placement, plan);
        let metrics = &report.metrics;
        let mut per_spe = vec![0u64; report.per_spe_bytes.len()];
        let mut rings = vec![(0u64, 0u64); metrics.rings.len()];
        let mut banks = [0u64; 2];
        let mut timeline: Vec<u64> = Vec::new();
        let (mut hops, mut grants) = (0u64, 0u64);
        let bucket = 1000;
        store
            .for_each(&TraceFilter::default(), |e| {
                let bytes = u64::from(e.bytes);
                match e.kind {
                    TraceKind::Deliver => {
                        per_spe[usize::from(e.spe)] += bytes;
                        let idx = (e.at / bucket) as usize;
                        if timeline.len() <= idx {
                            timeline.resize(idx + 1, 0);
                        }
                        timeline[idx] += bytes;
                    }
                    TraceKind::Grant => {
                        let ring = &mut rings[usize::from(e.aux)];
                        ring.0 += 1;
                        ring.1 += bytes;
                        hops += u64::from(e.hops);
                        grants += 1;
                    }
                    TraceKind::Mem => banks[usize::from(e.aux)] += bytes,
                    TraceKind::Issue => {}
                }
                Ok(())
            })
            .expect("decodable store");
        assert_eq!(per_spe, report.per_spe_bytes, "{placement}");
        let metric_rings: Vec<(u64, u64)> =
            metrics.rings.iter().map(|r| (r.grants, r.bytes)).collect();
        assert_eq!(rings, metric_rings, "{placement}");
        for bank in &metrics.banks {
            assert_eq!(banks[bank.bank as usize], bank.stats.bytes, "{placement}");
        }
        assert_eq!(banks.iter().sum::<u64>(), *dram_bytes, "{placement}");
        assert_eq!(timeline.iter().sum::<u64>(), report.total_bytes);
        let mean_hops = hops as f64 / grants as f64;
        assert!((1.0..=6.0).contains(&mean_hops), "mean hops {mean_hops}");
    }
}
