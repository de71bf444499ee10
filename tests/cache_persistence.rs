//! The persistent run cache: a sweep re-run from a warm cache directory
//! reproduces its reports bit-identically at any job count, an
//! interrupted sweep resumes from the entries already on disk, and
//! corrupted entries are recomputed — never trusted.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use cellsim::exec::{RunSpec, SweepExecutor, Workload};
use cellsim::experiments::SweepPoint;
use cellsim::{CellSystem, FabricReport, Placement};

/// A fresh, empty scratch directory unique to this test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cellsim-persist-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Six distinct single-SPE GET specs (three elem sizes × two
/// placements).
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
        .map(|r| r.expect("healthy specs complete"))
        .collect()
}

#[test]
fn warm_cache_reproduces_reports_bit_identically_across_jobs() {
    let dir = scratch("warm");
    let uncached = reports(&SweepExecutor::new(1));

    let cold = SweepExecutor::with_cache_dir(1, &dir).unwrap();
    let first = reports(&cold);
    assert_eq!(first, uncached, "disk tier must not change results");
    let stats = cold.disk_stats().unwrap();
    assert_eq!(stats.stored, 6, "every fresh run is persisted");
    assert_eq!(stats.loaded, 0);

    // A fresh executor — a new process, as far as the cache can tell —
    // at a different job count serves everything from disk.
    let warm = SweepExecutor::with_cache_dir(4, &dir).unwrap();
    let second = reports(&warm);
    assert_eq!(second, uncached, "reloaded reports must be bit-identical");
    assert_eq!(warm.stats().misses, 0, "no run should simulate again");
    let stats = warm.disk_stats().unwrap();
    assert_eq!(stats.loaded, 6);
    assert_eq!(stats.stored, 0);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_sweep_resumes_from_partial_entries() {
    let dir = scratch("resume");
    // "Interrupted" run: only the first third of the sweep finished
    // before the kill.
    let partial = SweepExecutor::with_cache_dir(1, &dir).unwrap();
    let prefix: Vec<RunSpec> = specs().into_iter().take(2).collect();
    for result in partial.try_run(prefix) {
        result.unwrap();
    }
    assert_eq!(partial.disk_stats().unwrap().stored, 2);

    // The re-run at a different job count: resumes, recomputes only the
    // missing points, and matches the uncached sweep bit-for-bit.
    let resumed = SweepExecutor::with_cache_dir(4, &dir).unwrap();
    let resumed_reports = reports(&resumed);
    let stats = resumed.disk_stats().unwrap();
    assert_eq!(stats.loaded, 2, "finished entries must be reused");
    assert_eq!(stats.stored, 4, "only the missing points simulate");
    assert_eq!(resumed_reports, reports(&SweepExecutor::new(1)));

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_entries_are_recomputed_never_trusted() {
    let dir = scratch("corrupt");
    let seed = SweepExecutor::with_cache_dir(1, &dir).unwrap();
    let truth = reports(&seed);

    // Vandalize two of the six entries: truncate one, flip a digit in
    // another (which breaks its checksum).
    let mut entries: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    assert_eq!(entries.len(), 6);
    let text = fs::read_to_string(&entries[0]).unwrap();
    fs::write(&entries[0], &text[..text.len() / 2]).unwrap();
    let text = fs::read_to_string(&entries[1]).unwrap();
    let tampered = if text.contains("\"cycles\":1") {
        text.replacen("\"cycles\":1", "\"cycles\":2", 1)
    } else {
        text.replacen("\"cycles\":", "\"cycles\":1", 1)
    };
    fs::write(&entries[1], tampered).unwrap();

    let healed = SweepExecutor::with_cache_dir(2, &dir).unwrap();
    let recomputed = reports(&healed);
    assert_eq!(recomputed, truth, "corruption must not leak into results");
    let stats = healed.disk_stats().unwrap();
    assert_eq!(stats.discarded, 2, "both vandalized entries are rejected");
    assert_eq!(stats.loaded, 4);
    assert_eq!(stats.stored, 2, "recomputed entries heal the cache");

    // After healing, the cache serves everything again.
    let verify = SweepExecutor::with_cache_dir(1, &dir).unwrap();
    assert_eq!(reports(&verify), truth);
    assert_eq!(verify.disk_stats().unwrap().loaded, 6);

    let _ = fs::remove_dir_all(&dir);
}
