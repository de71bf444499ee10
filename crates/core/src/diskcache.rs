//! Persistent, self-healing run cache: one JSON file per [`RunKey`].
//!
//! [`SweepExecutor`](crate::exec::SweepExecutor) memoizes reports in
//! memory for the life of the process; this module extends that identity
//! to disk so an interrupted paper-scale sweep resumes from its completed
//! points. The contract is strict:
//!
//! * **Bit-identical replay.** A loaded report compares equal — including
//!   every `f64`, which is stored as its IEEE bit pattern — to the report
//!   the original run computed, so a resumed sweep renders byte-identical
//!   figures at any `--jobs`.
//! * **Atomic writes.** Entries are written to a unique temp file and
//!   `rename`d into place; a killed process leaves either the old entry,
//!   the complete new one, or stray temp files — never a torn entry.
//! * **Never trust, always verify.** Every load re-parses the entry,
//!   re-serializes the report canonically, and compares an FNV-1a content
//!   checksum plus the schema version and the full [`RunKey`] (machine
//!   config and fault-plan fingerprints included). Any mismatch — a
//!   truncated file, a flipped bit, an entry written by a different
//!   machine config — is silently discarded and recomputed.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use cellsim_eib::{EibStats, RingStats};
use cellsim_kernel::fnv::fnv1a;
use cellsim_mem::{BankId, BankStats};

use crate::exec::RunKey;
use crate::fabric::FabricReport;
use crate::json::{self, JsonValue, Writer};
use crate::latency::{LatencyHistogram, LatencyMetrics, PathLatency};
use crate::metrics::{BankMetrics, FabricMetrics, FaultStats, SpeMetrics};

/// Entry format version; bumped whenever [`FabricReport`]'s persisted
/// shape changes, so stale-schema entries self-heal by recomputation.
const SCHEMA: u64 = 2;

/// Counters of disk-cache activity (see
/// [`SweepExecutor::disk_stats`](crate::exec::SweepExecutor::disk_stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskCacheStats {
    /// Entries loaded and verified.
    pub loaded: u64,
    /// Entries written.
    pub stored: u64,
    /// Entries found corrupt or stale, removed, and recomputed.
    pub discarded: u64,
}

/// A point-in-time census of the cache *directory* — as opposed to
/// [`DiskCacheStats`], which counts this process's activity. A shared
/// `--cache-dir` is written by every `cellsim-serve` worker and every
/// CLI invocation pointed at it, so operational visibility (how big has
/// the shared dir grown?) needs a scan, not process counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskDirStats {
    /// Committed entry files (`<hash>.json`).
    pub entries: u64,
    /// Total bytes across committed entries.
    pub bytes: u64,
    /// Leftover temp files from killed writers. Harmless (entries are
    /// temp-file + rename), but a monotone count signals crashed peers.
    pub temp_files: u64,
}

/// A directory of verified run-report entries.
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    loaded: AtomicU64,
    stored: AtomicU64,
    discarded: AtomicU64,
    tmp_counter: AtomicU64,
}

impl DiskCache {
    /// Opens (creating if needed) the cache directory.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from creating the directory.
    pub fn open(dir: &Path) -> std::io::Result<DiskCache> {
        fs::create_dir_all(dir)?;
        Ok(DiskCache {
            dir: dir.to_path_buf(),
            loaded: AtomicU64::new(0),
            stored: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
            tmp_counter: AtomicU64::new(0),
        })
    }

    /// Activity counters since open.
    pub fn stats(&self) -> DiskCacheStats {
        DiskCacheStats {
            loaded: self.loaded.load(Ordering::Relaxed),
            stored: self.stored.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
        }
    }

    /// The entry file for `key`.
    pub fn entry_path(&self, key: &RunKey) -> PathBuf {
        self.dir
            .join(format!("{:016x}.json", fnv1a(key_json(key).as_bytes())))
    }

    /// Scans the directory and reports its current census. Errors
    /// reading the directory (or racing deletions mid-scan) degrade to
    /// smaller counts — this is operational telemetry, not a contract.
    pub fn dir_stats(&self) -> DiskDirStats {
        let mut stats = DiskDirStats::default();
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return stats;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with(".tmp-") {
                stats.temp_files += 1;
            } else if name.ends_with(".json") {
                stats.entries += 1;
                if let Ok(meta) = entry.metadata() {
                    stats.bytes += meta.len();
                }
            }
        }
        stats
    }

    /// Loads and verifies `key`'s entry. A missing entry returns `None`;
    /// a corrupt or stale one is removed and returns `None` (the caller
    /// recomputes — the cache never surfaces unverified data).
    pub fn load(&self, key: &RunKey) -> Option<FabricReport> {
        let path = self.entry_path(key);
        let text = crate::iofault::read_to_string(&path).ok()?;
        match validate(key, &text) {
            Some(report) => {
                self.loaded.fetch_add(1, Ordering::Relaxed);
                Some(report)
            }
            None => {
                self.discarded.fetch_add(1, Ordering::Relaxed);
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Writes `key`'s entry atomically (unique temp file, then rename).
    /// Write errors are swallowed: the cache is an accelerator, never a
    /// correctness dependency — a failed store only costs a recompute.
    pub fn store(&self, key: &RunKey, report: &FabricReport) {
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        let written = crate::iofault::write(&tmp, entry_json(key, report))
            .and_then(|()| crate::iofault::rename(&tmp, self.entry_path(key)));
        match written {
            Ok(()) => {
                self.stored.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                let _ = fs::remove_file(&tmp);
            }
        }
    }
}

/// Canonical JSON of a [`RunKey`]: names the entry file and is embedded
/// in the entry (and in every trace-store manifest) so loads verify the
/// full cache identity, not just the filename hash.
#[must_use]
pub fn key_json(key: &RunKey) -> String {
    let mut w = Writer::with_capacity(256);
    write_key(&mut w, key);
    w.finish()
}

/// Writes [`key_json`]'s object into `w`.
pub(crate) fn write_key(w: &mut Writer, key: &RunKey) {
    let wl = &key.workload;
    w.begin_object()
        .key("config")
        .u64(key.config)
        .key("faults")
        .u64(key.faults)
        .key("pattern")
        .str(wl.pattern)
        .key("spes")
        .u64(u64::from(wl.spes))
        .key("volume")
        .u64(wl.volume)
        .key("elem")
        .u64(u64::from(wl.elem))
        .key("list")
        .bool(wl.list)
        .key("sync")
        .str(&format!("{:?}", wl.sync))
        .key("params")
        .u64(wl.params)
        .key("placement")
        .u64s(key.placement.iter().map(|&p| u64::from(p)))
        .end_object();
}

fn entry_json(key: &RunKey, report: &FabricReport) -> String {
    let body = report_json(report);
    let mut w = Writer::with_capacity(body.len() + 512);
    w.begin_object()
        .key("schema")
        .u64(SCHEMA)
        .key("checksum")
        .hex(fnv1a(body.as_bytes()), false)
        .key("key");
    write_key(&mut w, key);
    w.key("report").raw(&body).end_object();
    let mut text = w.finish();
    text.push('\n');
    text
}

/// Full verification: schema version, key identity, and the content
/// checksum recomputed over the canonical re-serialization of the parsed
/// report — a corrupted byte anywhere changes one of the three.
fn validate(key: &RunKey, text: &str) -> Option<FabricReport> {
    let v = json::parse(text).ok()?;
    if v.get("schema")?.as_u64()? != SCHEMA {
        return None;
    }
    let expected = json::parse(&key_json(key)).expect("canonical key JSON parses");
    if v.get("key")? != &expected {
        return None;
    }
    let report = parse_report(v.get("report")?)?;
    let canonical = report_json(&report);
    if v.get("checksum")?.as_str()? != format!("{:016x}", fnv1a(canonical.as_bytes())) {
        return None;
    }
    Some(report)
}

/// Stable 64-bit fingerprint of a [`RunKey`] (FNV-1a over its canonical
/// JSON): the disk cache's entry filename, and the compact identity the
/// serve protocol reports per streamed result.
#[must_use]
pub fn key_fingerprint(key: &RunKey) -> u64 {
    fnv1a(key_json(key).as_bytes())
}

/// Serializes a [`FabricReport`] to canonical one-line JSON. Every
/// `f64` is stored as its IEEE bit pattern, so
/// [`report_from_json`]`(parse(report_to_json(r))) == r` holds
/// bit-for-bit — the property both the disk cache and the serve wire
/// protocol rely on for exact replay.
#[must_use]
pub fn report_to_json(report: &FabricReport) -> String {
    report_json(report)
}

/// Parses a report serialized by [`report_to_json`]. Returns `None` on
/// any structural mismatch (wrong shape, missing field, stale schema).
#[must_use]
pub fn report_from_json(v: &JsonValue) -> Option<FabricReport> {
    parse_report(v)
}

// ---- canonical emission -------------------------------------------------
//
// `f64`s persist as IEEE-754 bit patterns so replays are bit-identical
// (decimal round-trips are not, and NaN payloads would not survive).

fn write_hist(w: &mut Writer, h: &LatencyHistogram) {
    w.begin_object()
        .key("count")
        .u64(h.count)
        .key("total")
        .u64(h.total)
        .key("max")
        .u64(h.max)
        .key("buckets")
        .u64s(h.buckets)
        .end_object();
}

fn write_path(w: &mut Writer, p: &PathLatency) {
    w.begin_object()
        .key("commands")
        .u64(p.commands)
        .key("end_to_end");
    write_hist(w, &p.end_to_end);
    w.key("phase_cycles")
        .u64s(p.phase_cycles)
        .key("dominant_counts")
        .u64s(p.dominant_counts)
        .key("nacks")
        .u64(p.nacks)
        .key("retries")
        .u64(p.retries)
        .key("retry_backoff_cycles")
        .u64(p.retry_backoff_cycles)
        .key("exhausted_commands")
        .u64(p.exhausted_commands)
        .end_object();
}

fn write_spe(w: &mut Writer, m: &SpeMetrics) {
    w.begin_object()
        .key("busy_cycles")
        .u64(m.busy_cycles)
        .key("idle_cycles")
        .u64(m.idle_cycles)
        .key("stall_mfc_full_cycles")
        .u64(m.stall_mfc_full_cycles)
        .key("stall_sync_cycles")
        .u64(m.stall_sync_cycles)
        .key("stall_eib_cycles")
        .u64(m.stall_eib_cycles)
        .key("stall_mem_cycles")
        .u64(m.stall_mem_cycles)
        .key("occupancy_cycles")
        .u64s(m.occupancy_cycles.iter().copied())
        .end_object();
}

fn bank_name(bank: BankId) -> &'static str {
    match bank {
        BankId::Local => "local",
        BankId::Remote => "remote",
    }
}

fn write_bank(w: &mut Writer, b: &BankMetrics) {
    let s = &b.stats;
    w.begin_object()
        .key("bank")
        .str(bank_name(b.bank))
        .key("accesses")
        .u64(s.accesses)
        .key("bytes")
        .u64(s.bytes)
        .key("turnaround_cycles")
        .u64(s.turnaround_cycles)
        .key("refresh_cycles")
        .u64(s.refresh_cycles)
        .key("busy_cycles")
        .u64(s.busy_cycles)
        .key("conflicts")
        .u64(s.conflicts)
        .end_object();
}

fn write_metrics(w: &mut Writer, m: &FabricMetrics) {
    w.begin_object()
        .key("run_cycles")
        .u64(m.run_cycles)
        .key("per_spe")
        .begin_array();
    for spe in &m.per_spe {
        write_spe(w, spe);
    }
    w.end_array().key("rings").begin_array();
    for r in &m.rings {
        w.begin_object()
            .key("grants")
            .u64(r.grants)
            .key("bytes")
            .u64(r.bytes)
            .key("busy_cycles")
            .u64(r.busy_cycles)
            .end_object();
    }
    w.end_array().key("banks").begin_array();
    for bank in &m.banks {
        write_bank(w, bank);
    }
    let f = &m.faults;
    w.end_array()
        .key("faults")
        .begin_object()
        .key("nacks")
        .u64(f.nacks)
        .key("retries")
        .u64(f.retries)
        .key("retries_exhausted")
        .u64(f.retries_exhausted)
        .key("abandoned_packets")
        .u64(f.abandoned_packets)
        .key("degraded_cycles")
        .u64(f.degraded_cycles)
        .end_object()
        .key("events")
        .u64(m.events)
        .key("suppressed_pumps")
        .u64(m.suppressed_pumps)
        .key("peak_live_packets")
        .u64(m.peak_live_packets)
        .end_object();
}

/// Writes [`report_to_json`]'s object into `w`, for documents that embed
/// a report (the serve protocol's `result` lines).
pub fn write_report(w: &mut Writer, r: &FabricReport) {
    w.begin_object()
        .key("cycles")
        .u64(r.cycles)
        .key("total_bytes")
        .u64(r.total_bytes)
        .key("aggregate_gbps_bits")
        .u64(r.aggregate_gbps.to_bits())
        .key("sum_gbps_bits")
        .u64(r.sum_gbps.to_bits())
        .key("per_spe_bytes")
        .u64s(r.per_spe_bytes.iter().copied())
        .key("per_spe_cycles")
        .u64s(r.per_spe_cycles.iter().copied())
        .key("per_spe_gbps_bits")
        .u64s(r.per_spe_gbps.iter().map(|v| v.to_bits()))
        .key("eib")
        .begin_object()
        .key("grants")
        .u64(r.eib.grants)
        .key("bytes")
        .u64(r.eib.bytes)
        .key("wait_cycles")
        .u64(r.eib.wait_cycles)
        .key("segment_cycles")
        .u64(r.eib.segment_cycles)
        .end_object()
        .key("packets")
        .u64(r.packets)
        .key("metrics");
    write_metrics(w, &r.metrics);
    w.key("latency").begin_object().key("paths").begin_array();
    for p in &r.latency.paths {
        write_path(w, p);
    }
    w.end_array().key("element_service");
    write_hist(w, &r.latency.element_service);
    w.end_object().end_object();
}

/// Room for a report's canonical JSON (about 4 KiB with 8 SPEs), so
/// writing one never reallocates.
pub const REPORT_JSON_CAPACITY: usize = 8 << 10;

fn report_json(r: &FabricReport) -> String {
    let mut w = Writer::with_capacity(REPORT_JSON_CAPACITY);
    write_report(&mut w, r);
    w.finish()
}

// ---- verified parsing ---------------------------------------------------

fn get_u64(v: &JsonValue, key: &str) -> Option<u64> {
    v.get(key)?.as_u64()
}

fn get_u64_vec(v: &JsonValue, key: &str) -> Option<Vec<u64>> {
    v.get(key)?
        .as_array()?
        .iter()
        .map(JsonValue::as_u64)
        .collect()
}

fn get_f64_bits(v: &JsonValue, key: &str) -> Option<f64> {
    Some(f64::from_bits(get_u64(v, key)?))
}

fn parse_hist(v: &JsonValue) -> Option<LatencyHistogram> {
    Some(LatencyHistogram {
        count: get_u64(v, "count")?,
        total: get_u64(v, "total")?,
        max: get_u64(v, "max")?,
        buckets: get_u64_vec(v, "buckets")?.try_into().ok()?,
    })
}

fn parse_path(v: &JsonValue) -> Option<PathLatency> {
    Some(PathLatency {
        commands: get_u64(v, "commands")?,
        end_to_end: parse_hist(v.get("end_to_end")?)?,
        phase_cycles: get_u64_vec(v, "phase_cycles")?.try_into().ok()?,
        dominant_counts: get_u64_vec(v, "dominant_counts")?.try_into().ok()?,
        nacks: get_u64(v, "nacks")?,
        retries: get_u64(v, "retries")?,
        retry_backoff_cycles: get_u64(v, "retry_backoff_cycles")?,
        exhausted_commands: get_u64(v, "exhausted_commands")?,
    })
}

fn parse_spe(v: &JsonValue) -> Option<SpeMetrics> {
    Some(SpeMetrics {
        busy_cycles: get_u64(v, "busy_cycles")?,
        idle_cycles: get_u64(v, "idle_cycles")?,
        stall_mfc_full_cycles: get_u64(v, "stall_mfc_full_cycles")?,
        stall_sync_cycles: get_u64(v, "stall_sync_cycles")?,
        stall_eib_cycles: get_u64(v, "stall_eib_cycles")?,
        stall_mem_cycles: get_u64(v, "stall_mem_cycles")?,
        occupancy_cycles: get_u64_vec(v, "occupancy_cycles")?,
    })
}

fn parse_bank(v: &JsonValue) -> Option<BankMetrics> {
    let bank = match v.get("bank")?.as_str()? {
        "local" => BankId::Local,
        "remote" => BankId::Remote,
        _ => return None,
    };
    Some(BankMetrics {
        bank,
        stats: BankStats {
            accesses: get_u64(v, "accesses")?,
            bytes: get_u64(v, "bytes")?,
            turnaround_cycles: get_u64(v, "turnaround_cycles")?,
            refresh_cycles: get_u64(v, "refresh_cycles")?,
            busy_cycles: get_u64(v, "busy_cycles")?,
            conflicts: get_u64(v, "conflicts")?,
        },
    })
}

fn parse_metrics(v: &JsonValue) -> Option<FabricMetrics> {
    let per_spe = v
        .get("per_spe")?
        .as_array()?
        .iter()
        .map(parse_spe)
        .collect::<Option<Vec<_>>>()?;
    let rings = v
        .get("rings")?
        .as_array()?
        .iter()
        .map(|r| {
            Some(RingStats {
                grants: get_u64(r, "grants")?,
                bytes: get_u64(r, "bytes")?,
                busy_cycles: get_u64(r, "busy_cycles")?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let banks = v
        .get("banks")?
        .as_array()?
        .iter()
        .map(parse_bank)
        .collect::<Option<Vec<_>>>()?;
    let f = v.get("faults")?;
    Some(FabricMetrics {
        run_cycles: get_u64(v, "run_cycles")?,
        per_spe,
        rings,
        banks,
        faults: FaultStats {
            nacks: get_u64(f, "nacks")?,
            retries: get_u64(f, "retries")?,
            retries_exhausted: get_u64(f, "retries_exhausted")?,
            abandoned_packets: get_u64(f, "abandoned_packets")?,
            degraded_cycles: get_u64(f, "degraded_cycles")?,
        },
        events: get_u64(v, "events")?,
        suppressed_pumps: get_u64(v, "suppressed_pumps")?,
        peak_live_packets: get_u64(v, "peak_live_packets")?,
    })
}

fn parse_report(v: &JsonValue) -> Option<FabricReport> {
    let eib = v.get("eib")?;
    let lat = v.get("latency")?;
    let paths: [PathLatency; 4] = lat
        .get("paths")?
        .as_array()?
        .iter()
        .map(parse_path)
        .collect::<Option<Vec<_>>>()?
        .try_into()
        .ok()?;
    let per_spe_gbps: Vec<f64> = get_u64_vec(v, "per_spe_gbps_bits")?
        .into_iter()
        .map(f64::from_bits)
        .collect();
    Some(FabricReport {
        cycles: get_u64(v, "cycles")?,
        total_bytes: get_u64(v, "total_bytes")?,
        aggregate_gbps: get_f64_bits(v, "aggregate_gbps_bits")?,
        sum_gbps: get_f64_bits(v, "sum_gbps_bits")?,
        per_spe_bytes: get_u64_vec(v, "per_spe_bytes")?,
        per_spe_cycles: get_u64_vec(v, "per_spe_cycles")?,
        per_spe_gbps,
        eib: EibStats {
            grants: get_u64(eib, "grants")?,
            bytes: get_u64(eib, "bytes")?,
            wait_cycles: get_u64(eib, "wait_cycles")?,
            segment_cycles: get_u64(eib, "segment_cycles")?,
        },
        packets: get_u64(v, "packets")?,
        metrics: parse_metrics(v.get("metrics")?)?,
        latency: LatencyMetrics {
            paths,
            element_service: parse_hist(lat.get("element_service")?)?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{RunSpec, Workload};
    use crate::{CellSystem, Placement, SyncPolicy, TransferPlan};
    use std::sync::Arc;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cellsim-dc-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample() -> (RunKey, FabricReport) {
        let system = CellSystem::blade();
        let plan = Arc::new(
            TransferPlan::builder()
                .get_from_memory(0, 64 << 10, 4096, SyncPolicy::AfterAll)
                .build()
                .unwrap(),
        );
        let spec = RunSpec::new(
            &system,
            Workload {
                pattern: "mem-get",
                spes: 1,
                volume: 64 << 10,
                elem: 4096,
                list: false,
                sync: SyncPolicy::AfterAll,
                params: 0,
            },
            Placement::identity(),
            Arc::clone(&plan),
        );
        let report = system.try_run(&Placement::identity(), &plan).unwrap();
        (spec.key, report)
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let dir = tmp_dir("roundtrip");
        let cache = DiskCache::open(&dir).unwrap();
        let (key, report) = sample();
        assert!(cache.load(&key).is_none(), "cold cache is empty");
        cache.store(&key, &report);
        let loaded = cache.load(&key).expect("stored entry loads");
        assert_eq!(loaded, report);
        assert_eq!(
            loaded.aggregate_gbps.to_bits(),
            report.aggregate_gbps.to_bits()
        );
        assert_eq!(
            cache.stats(),
            DiskCacheStats {
                loaded: 1,
                stored: 1,
                discarded: 0
            }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_and_corrupted_entries_are_discarded() {
        let dir = tmp_dir("corrupt");
        let cache = DiskCache::open(&dir).unwrap();
        let (key, report) = sample();
        cache.store(&key, &report);
        let path = cache.entry_path(&key);

        // Truncation: half an entry is not an entry.
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(cache.load(&key).is_none());
        assert!(!path.exists(), "corrupt entry is removed");

        // Bit flip in a numeric field: parses, but the checksum refutes it.
        cache.store(&key, &report);
        let text = fs::read_to_string(&path).unwrap();
        let pos = text.find("\"cycles\":").unwrap() + "\"cycles\":".len();
        let mut bytes = text.into_bytes();
        bytes[pos] = if bytes[pos] == b'9' { b'8' } else { b'9' };
        fs::write(&path, bytes).unwrap();
        assert!(cache.load(&key).is_none());

        // Tampered checksum field itself.
        cache.store(&key, &report);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replace("\"checksum\":\"", "\"checksum\":\"f")).unwrap();
        assert!(cache.load(&key).is_none());
        assert_eq!(cache.stats().discarded, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wire_report_round_trips_bit_identically() {
        let (key, report) = sample();
        let text = report_to_json(&report);
        let parsed = report_from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, report);
        assert_eq!(
            parsed.aggregate_gbps.to_bits(),
            report.aggregate_gbps.to_bits()
        );
        // The fingerprint is stable across calls and key clones.
        assert_eq!(key_fingerprint(&key), key_fingerprint(&key.clone()));
    }

    #[test]
    fn dir_stats_census_tracks_entries_and_temp_files() {
        let dir = tmp_dir("census");
        let cache = DiskCache::open(&dir).unwrap();
        assert_eq!(cache.dir_stats(), DiskDirStats::default());
        let (key, report) = sample();
        cache.store(&key, &report);
        let stats = cache.dir_stats();
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0);
        assert_eq!(stats.temp_files, 0);
        // A stray temp file from a killed writer is counted, not hidden.
        fs::write(dir.join(".tmp-999-0"), "half an entry").unwrap();
        assert_eq!(cache.dir_stats().temp_files, 1);
        assert_eq!(cache.dir_stats().entries, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_for_a_different_key_are_ignored() {
        let dir = tmp_dir("stale");
        let cache = DiskCache::open(&dir).unwrap();
        let (key, report) = sample();
        cache.store(&key, &report);

        // Simulate a stale config fingerprint: the same bytes parked at
        // another key's path must not satisfy that key.
        let mut other = key.clone();
        other.config ^= 0xdead_beef;
        fs::copy(cache.entry_path(&key), cache.entry_path(&other)).unwrap();
        assert!(cache.load(&other).is_none(), "key mismatch is discarded");
        assert_eq!(cache.stats().discarded, 1);
        // The honest entry is untouched.
        assert_eq!(cache.load(&key).unwrap(), report);
        let _ = fs::remove_dir_all(&dir);
    }
}
