//! The persistence tiers under injected disk chaos: with seeded fault
//! plans tearing writes, failing renames and hiccuping reads inside the
//! cache and run directories, every run still succeeds with
//! bit-identical reports — the disk tiers are accelerators, never
//! correctness dependencies — and once the chaos lifts, one honest pass
//! heals the scarred directories back to pristine bytes.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use cellsim::core::iofault::{self, IoFaultPlan};
use cellsim::exec::{RunSpec, SweepExecutor, Workload};
use cellsim::experiments::SweepPoint;
use cellsim::{CellSystem, FabricReport, Placement};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cellsim-iofault-test-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Six distinct single-SPE GET specs (three elem sizes × two
/// placements) — enough keys that a per-mille fault plan reliably hits
/// some of them.
fn specs() -> Vec<RunSpec> {
    let system = CellSystem::blade();
    let mut out = Vec::new();
    for elem in [1024u32, 4096, 16384] {
        let point = SweepPoint::new(Workload::dma_elem("mem-get", 1, 64 << 10, elem)).unwrap();
        for k in 0..2u64 {
            out.push(RunSpec::new(&system, &point, Placement::lottery(0xCE11, k)));
        }
    }
    out
}

fn reports(exec: &SweepExecutor) -> Vec<Arc<FabricReport>> {
    exec.try_run(specs())
        .into_iter()
        .map(|r| r.expect("runs succeed regardless of disk weather"))
        .collect()
}

/// Every file under `dir`, keyed by path relative to it.
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).expect("readable dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path
                    .strip_prefix(dir)
                    .expect("under root")
                    .to_string_lossy()
                    .into_owned();
                files.insert(rel, fs::read(&path).expect("readable file"));
            }
        }
    }
    files
}

/// Disk-cache tier under fire: stores fail or silently tear, loads
/// hiccup — and three consecutive passes (two under chaos, each with a
/// fresh executor so loads actually happen) all reproduce the uncached
/// reports bit-for-bit. Afterwards one honest pass heals the directory
/// to fully loadable.
#[test]
fn cache_dir_chaos_never_leaks_into_reports() {
    let dir = temp_dir("cache");
    let truth = reports(&SweepExecutor::new(1));

    {
        let _guard = IoFaultPlan {
            seed: 0xD15C_CACE,
            write_error_per_mille: 350,
            torn_write_per_mille: 300,
            read_error_per_mille: 250,
            rename_error_per_mille: 200,
            scope: Some(dir.clone()),
        }
        .install();

        // Two passes, each a fresh executor (a new process as far as the
        // cache can tell), so the second must load — or fail to load —
        // whatever the first one's chaotic stores left behind.
        for pass in 0..2 {
            let exec = SweepExecutor::with_cache_dir(1, &dir).expect("cache dir opens");
            assert_eq!(reports(&exec), truth, "pass {pass} must be bit-exact");
        }
        let fired = iofault::stats();
        assert!(
            fired.write_errors + fired.torn_writes + fired.read_errors + fired.rename_errors > 0,
            "the plan must actually have fired: {fired:?}"
        );
    }

    // Chaos lifted: one honest pass discards every torn survivor and
    // refills the gaps...
    let healing = SweepExecutor::with_cache_dir(1, &dir).expect("cache dir opens");
    assert_eq!(reports(&healing), truth);
    let stats = healing.disk_stats().expect("disk tier attached");
    assert_eq!(
        stats.loaded + stats.stored,
        6,
        "every key either verifies on load or is recomputed and stored: {stats:?}"
    );

    // ...after which a second honest executor serves everything from
    // disk with nothing left to discard.
    let healed = SweepExecutor::with_cache_dir(1, &dir).expect("cache dir opens");
    assert_eq!(reports(&healed), truth);
    let stats = healed.disk_stats().expect("disk tier attached");
    assert_eq!(stats.loaded, 6, "healed cache is fully warm: {stats:?}");
    assert_eq!(stats.discarded, 0, "nothing torn survives healing");

    let _ = fs::remove_dir_all(&dir);
}

/// Recording tier under fire: artifact commits fail or tear while the
/// runs themselves keep succeeding (failures latch into
/// `RunDirStats::errors`, never into results), and an honest re-record
/// over the scarred directory restores it byte-identical to a directory
/// that never saw chaos.
#[test]
fn run_dir_chaos_latches_errors_and_rerecording_heals() {
    let pristine_dir = temp_dir("record-truth");
    let chaos_dir = temp_dir("record-chaos");

    // Ground truth: an honest recording of the same sweep.
    let mut honest = SweepExecutor::new(1);
    honest.set_run_dir(&pristine_dir).expect("run dir attaches");
    let truth_reports = reports(&honest);
    let truth_bytes = snapshot(&pristine_dir);
    assert!(!truth_bytes.is_empty(), "the sweep recorded artifacts");

    {
        let _guard = IoFaultPlan {
            seed: 0xD15C_7ACE,
            write_error_per_mille: 350,
            torn_write_per_mille: 300,
            read_error_per_mille: 250,
            rename_error_per_mille: 200,
            scope: Some(chaos_dir.clone()),
        }
        .install();

        let mut exec = SweepExecutor::new(1);
        exec.set_run_dir(&chaos_dir).expect("run dir attaches");
        assert_eq!(
            reports(&exec),
            truth_reports,
            "artifact chaos must not leak into run results"
        );
        let fired = iofault::stats();
        assert!(
            fired.write_errors + fired.torn_writes + fired.read_errors + fired.rename_errors > 0,
            "the plan must actually have fired: {fired:?}"
        );
        // Hard failures (failed writes/renames) are latched, not
        // surfaced; torn writes report success and are only caught by
        // the next pass's completeness check.
        let rd = exec.run_dir().expect("attached").stats();
        if fired.write_errors + fired.rename_errors > 0 {
            assert!(rd.errors > 0, "commit failures must latch: {rd:?}");
        }
        assert_eq!(
            rd.written + rd.errors,
            6,
            "every run either committed its artifact or latched an error: {rd:?}"
        );
    }

    // Honest re-record: incomplete or torn artifacts are noticed (size
    // or manifest mismatch), re-simulated, and the directory converges
    // to the pristine recording's exact bytes.
    let mut healer = SweepExecutor::new(1);
    healer.set_run_dir(&chaos_dir).expect("run dir attaches");
    assert_eq!(reports(&healer), truth_reports);
    let rd = healer.run_dir().expect("attached").stats();
    assert_eq!(rd.errors, 0, "honest I/O latches nothing: {rd:?}");
    assert_eq!(
        rd.written + rd.reused,
        6,
        "every artifact is now complete: {rd:?}"
    );
    assert_eq!(
        snapshot(&chaos_dir),
        truth_bytes,
        "healed run dir is byte-identical to one that never saw chaos"
    );

    for dir in [pristine_dir, chaos_dir] {
        let _ = fs::remove_dir_all(dir);
    }
}
