//! Files already on disk stay valid. `tests/fixtures/compat/` holds one
//! disk-cache entry and one recorded run (manifest and trace) written by
//! the tree-parsing reader's release, for the 8-SPE degraded run below;
//! the one-pass readers must accept them exactly as that release did,
//! and the writers must still produce the same bytes.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use cellsim_core::diskcache::{key_fingerprint, report_to_json, DiskCache};
use cellsim_core::exec::{RunKey, RunSpec, Workload};
use cellsim_core::experiments::SweepPoint;
use cellsim_core::tracestore::{Manifest, RunDir};
use cellsim_core::{CellSystem, FabricReport, FaultPlan, Placement};

/// The fixture run's name: its key's fingerprint.
const RUN: &str = "41d5f5478f8e3b3d";

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/compat")
}

/// The fixtures' run, simulated afresh: 4 KiB copies on each of 8 SPEs
/// of a blade degraded by `plans/degraded_smoke.json`.
fn fresh_run() -> (RunKey, FabricReport) {
    let faults = FaultPlan::parse(include_str!("../../../plans/degraded_smoke.json")).unwrap();
    let system = CellSystem::blade().with_faults(faults);
    let point = SweepPoint::new(Workload::dma_elem("mem-copy", 8, 4 << 10, 1024)).unwrap();
    let report = system
        .try_run(&Placement::identity(), point.plan())
        .unwrap();
    let spec = RunSpec::new(&system, &point, Placement::identity());
    assert_eq!(format!("{:016x}", key_fingerprint(&spec.key)), RUN);
    (spec.key, report)
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("on_disk_compat_{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_stored_cache_entry_loads_bit_for_bit_and_is_rewritten_byte_for_byte() {
    let (key, fresh) = fresh_run();
    let entry = fs::read(fixtures().join(format!("cache/{RUN}.json"))).unwrap();

    let warm = scratch("warm");
    fs::write(warm.join(format!("{RUN}.json")), &entry).unwrap();
    let cache = DiskCache::open(&warm).unwrap();
    let loaded = cache.load(&key).expect("the stored entry loads");
    assert_eq!(loaded, fresh);
    assert_eq!(report_to_json(&loaded), report_to_json(&fresh));
    assert_eq!(cache.stats().loaded, 1);

    let cold = scratch("cold");
    let cache = DiskCache::open(&cold).unwrap();
    cache.store(&key, &fresh);
    assert_eq!(fs::read(cache.entry_path(&key)).unwrap(), entry);
}

#[test]
fn a_stored_manifest_reads_as_it_always_did() {
    let (key, fresh) = fresh_run();
    let runs = fixtures().join("runs");
    let manifest = Manifest::load(&runs.join(RUN)).unwrap();
    // The values the tree-parsing reader gave for this file.
    let key_text = "{\"config\":15918515295057406394,\"faults\":10467485040232675047,\
                    \"pattern\":\"mem-copy\",\"spes\":8,\"volume\":4096,\"elem\":1024,\
                    \"list\":false,\"sync\":\"AfterAll\",\"params\":0,\
                    \"placement\":[0,1,2,3,4,5,6,7]}";
    let want = Manifest {
        fingerprint: RUN.into(),
        key: key_text.into(),
        pattern: "mem-copy".into(),
        spes: 8,
        volume: 4096,
        elem: 1024,
        cycles: 5208,
        total_bytes: 65536,
        events: 2193,
        packets: 512,
        abandoned: 0,
        aggregate_gbps: f64::from_bits(4_623_627_821_310_286_445),
        stall_cycles: 32486,
        dominant_stall: "mfc-slots".into(),
        trace_file: "trace.bin".into(),
        trace_bytes: 11924,
        trace_events: 2048,
        trace_checksum: "b1b115855bdc747a".into(),
    };
    assert_eq!(manifest, want);
    assert_eq!(
        manifest.aggregate_gbps.to_bits(),
        fresh.aggregate_gbps.to_bits()
    );
    assert_eq!(manifest.cycles, fresh.cycles);
    assert!(RunDir::create(&runs).unwrap().is_complete(&key));
}

#[test]
fn cellsim_trace_reads_the_stored_run_as_it_always_did() {
    let runs = fixtures().join("runs");
    let trace = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_cellsim-trace"))
            .arg(&runs)
            .args(args)
            .output()
            .expect("cellsim-trace runs");
        assert!(out.status.success(), "cellsim-trace {args:?} failed");
        String::from_utf8(out.stdout).unwrap()
    };
    assert_eq!(
        trace(&["check"]),
        "check: 1 run(s) reconcile exactly against their metrics digests\n"
    );
    assert_eq!(
        trace(&["summary", "--format", "csv"]),
        "run,pattern,spes,volume,elem,cycles,total_bytes,gbps,events,packets,abandoned,\
         stall_cycles,dominant_stall,trace_events,trace_bytes\n\
         41d5f5478f8e3b3d,mem-copy,8,4096,1024,5208,65536,13.212903225806452,2193,512,0,\
         32486,mfc-slots,2048,11924\n"
    );
}
