//! Golden formats: the bytes cellsim persists and puts on the wire.
//!
//! The fixtures under `tests/fixtures/golden` were recorded by the
//! hand-formatted writers that preceded `json::Writer`: two request
//! lines (a faulted batch, and a healthy batch of DMA-list, pair-list
//! and GUPS runs), their `result` lines, their disk-cache entries and
//! their trace-store manifests. The faulted run carries NACK counters.
//! Every writer must reproduce them byte for byte, and the reader must
//! load them back to the reports a local run computes.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use cellsim_core::diskcache::{key_fingerprint, report_from_json, DiskCache};
use cellsim_core::exec::{RunSpec, SweepExecutor};
use cellsim_core::json;
use cellsim_core::tracestore::{Manifest, RunDir, MANIFEST_FILE};
use cellsim_core::FabricReport;
use cellsim_serve::protocol::{decode_request, encode_run_request, result_line, Request};

const BATCHES: [&str; 2] = ["faulted", "list"];

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden")
}

fn fixture(name: &str) -> String {
    let path = fixtures().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cellsim-golden-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Batch `name`'s id and specs, decoded from its hand-written input line.
fn batch(name: &str) -> (String, Vec<RunSpec>) {
    let input = fixture(&format!("input_{name}.txt"));
    match decode_request(input.trim_end()) {
        Ok(Request::Run(batch)) => (batch.id, batch.specs),
        Ok(_) => panic!("input_{name} is not a run request"),
        Err(e) => panic!("input_{name}: {}", e.detail),
    }
}

fn run(specs: &[RunSpec]) -> Vec<Arc<FabricReport>> {
    SweepExecutor::new(1)
        .try_run(specs.to_vec())
        .into_iter()
        .map(|result| result.expect("golden batches run healthy"))
        .collect()
}

fn fingerprint(spec: &RunSpec) -> String {
    format!("{:016x}", key_fingerprint(&spec.key))
}

#[test]
fn request_lines_match_the_fixtures() {
    for name in BATCHES {
        let (id, specs) = batch(name);
        let faults = specs[0].system.faults();
        let want = fixture(&format!("request_{name}.txt"));
        let line = encode_run_request(&id, faults, &specs, true);
        assert_eq!(format!("{line}\n"), want, "request line of batch {name}");
        // The recorded line decodes to the same run keys.
        let Ok(Request::Run(decoded)) = decode_request(want.trim_end()) else {
            panic!("request_{name} does not decode");
        };
        let keys: Vec<_> = decoded.specs.iter().map(|s| &s.key).collect();
        assert_eq!(keys, specs.iter().map(|s| &s.key).collect::<Vec<_>>());
    }
}

#[test]
fn result_lines_match_the_fixtures_and_load() {
    let mut nacks = 0;
    let mut lists = 0;
    for name in BATCHES {
        let (id, specs) = batch(name);
        let reports = run(&specs);
        let want = fixture(&format!("result_{name}.txt"));
        let lines: Vec<&str> = want.lines().collect();
        assert_eq!(lines.len(), specs.len());
        for (i, ((spec, report), recorded)) in specs.iter().zip(&reports).zip(lines).enumerate() {
            assert_eq!(
                result_line(&id, i, &spec.key, report),
                recorded,
                "result line {i} of batch {name}"
            );
            let v = json::parse(recorded).expect("recorded line parses");
            assert_eq!(
                v.get("report").and_then(report_from_json).as_ref(),
                Some(&**report)
            );
            nacks += report.metrics.faults.nacks;
            lists += u64::from(spec.key.workload.list);
        }
    }
    assert!(nacks > 0, "the faulted fixture must exercise NACK counters");
    assert!(lists >= 2, "the fixtures must cover DMA-list runs");
}

#[test]
fn cache_entries_match_the_fixtures_and_load() {
    let fresh = temp_dir("fresh");
    let written = DiskCache::open(&fresh).expect("cache dir");
    let recorded = temp_dir("recorded");
    for entry in std::fs::read_dir(fixtures().join("cache")).expect("fixture cache") {
        let entry = entry.expect("fixture entry");
        std::fs::copy(entry.path(), recorded.join(entry.file_name())).expect("copy entry");
    }
    let parent = DiskCache::open(&recorded).expect("cache dir");
    let mut entries = 0;
    for name in BATCHES {
        let (_, specs) = batch(name);
        for (spec, report) in specs.iter().zip(run(&specs)) {
            written.store(&spec.key, &report);
            let file = format!("{}.json", fingerprint(spec));
            let bytes = std::fs::read(fresh.join(&file)).expect("stored entry");
            let want = std::fs::read(fixtures().join("cache").join(&file)).expect("fixture entry");
            assert!(bytes == want, "cache entry {file} differs from its fixture");
            assert_eq!(parent.load(&spec.key).as_ref(), Some(&*report));
            entries += 1;
        }
    }
    let stats = parent.stats();
    assert_eq!((stats.loaded, stats.discarded), (entries, 0));
    let _ = std::fs::remove_dir_all(&fresh);
    let _ = std::fs::remove_dir_all(&recorded);
}

#[test]
fn manifests_match_the_fixtures_and_load() {
    let root = temp_dir("runs");
    let runs = RunDir::create(&root).expect("run dir");
    for name in BATCHES {
        let (_, specs) = batch(name);
        for spec in &specs {
            let report = runs.run_recorded(spec).expect("recorded run");
            let fp = fingerprint(spec);
            let want = fixture(&format!("manifests/{fp}.json"));
            let dir = runs.entry_dir(&spec.key);
            let got = std::fs::read_to_string(dir.join(MANIFEST_FILE)).expect("manifest");
            assert_eq!(got, want, "manifest of {fp}");
            assert!(runs.is_complete(&spec.key));
            // The recorded manifest loads with the run's identity.
            std::fs::write(dir.join(MANIFEST_FILE), &want).expect("rewrite");
            let m = Manifest::load(&dir).expect("recorded manifest loads");
            assert_eq!(m.fingerprint, fp);
            assert_eq!(
                (m.cycles, m.packets, m.events),
                (report.cycles, report.packets, report.metrics.events)
            );
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}
