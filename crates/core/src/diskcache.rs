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
//! * **Never trust, always verify.** Every load reads the entry in one
//!   pass: it checks the schema version, compares the stored key with the
//!   full [`RunKey`] (machine config and fault-plan fingerprints
//!   included) byte for byte, decodes the report strictly from the token
//!   stream (every member in the order the encoder writes it, nothing
//!   missing, extra or mistyped), and compares an FNV-1a checksum over
//!   the report's stored bytes. Any mismatch — a truncated file, a
//!   flipped bit, bytes that are not UTF-8, an entry written by a
//!   different machine config — is silently discarded and recomputed.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use cellsim_eib::RingStats;
use cellsim_kernel::fnv::fnv1a;
use cellsim_mem::BankId;

use crate::exec::RunKey;
use crate::fabric::FabricReport;
use crate::json::{JsonError, JsonValue, Reader, Writer};
use crate::latency::{LatencyHistogram, PathLatency};
use crate::metrics::{FabricMetrics, FaultStats, SpeMetrics};

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
        let bytes = crate::iofault::read(&path).ok()?;
        let entry = std::str::from_utf8(&bytes).ok();
        match entry.and_then(|text| validate(key, text)) {
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
        let dest = self.entry_path(key);
        if crate::iofault::write_atomic(&tmp, &dest, entry_json(key, report)).is_ok() {
            self.stored.fetch_add(1, Ordering::Relaxed);
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
    let body = report_to_json(report);
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

/// Full verification in one pass over the entry, in the order
/// [`entry_json`] writes it: schema version, key identity, the report
/// decoded strictly from the token stream, and the content checksum over
/// the report's stored bytes — a corrupted byte anywhere changes one of
/// them.
fn validate(key: &RunKey, text: &str) -> Option<FabricReport> {
    let mut r = Reader::new(text);
    r.begin_object().ok()?;
    r.member("schema").ok()?;
    if r.u64().ok()? != SCHEMA {
        return None;
    }
    r.member("checksum").ok()?;
    let checksum = r.str().ok()?;
    r.member("key").ok()?;
    if r.raw().ok()? != key_json(key) {
        return None;
    }
    r.member("report").ok()?;
    let start = r.offset();
    let report = read_report(&mut r)?;
    let body = &text[start..r.offset()];
    r.end_object().ok()?;
    r.finish().ok()?;
    (checksum == format!("{:016x}", fnv1a(body.as_bytes()))).then_some(report)
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
    report_json(&mut report.clone())
}

/// Parses a report serialized by [`report_to_json`]. Returns `None` on
/// any structural mismatch (wrong shape, missing field, stale schema).
#[must_use]
pub fn report_from_json(v: &JsonValue) -> Option<FabricReport> {
    let mut report = FabricReport::default();
    let mut d = Decoder { at: v, ok: true };
    report_fields(&mut d, &mut report);
    d.ok.then_some(report)
}

/// Decodes the report object next in `r` straight from its token stream
/// (see [`StreamDecoder`]); `None` on any departure from the canonical
/// shape.
fn read_report(r: &mut Reader<'_>) -> Option<FabricReport> {
    let mut report = FabricReport::default();
    let mut d = StreamDecoder { r, ok: true };
    d.body(&mut report, report_fields);
    d.ok.then_some(report)
}

/// Writes [`report_to_json`]'s object into `w`, for documents that embed
/// a report (the serve protocol's `result` lines).
pub fn write_report(w: &mut Writer, r: &FabricReport) {
    encode(w, &mut r.clone(), report_fields);
}

/// Room for a report's canonical JSON (about 4 KiB with 8 SPEs), so
/// writing one never reallocates.
pub const REPORT_JSON_CAPACITY: usize = 8 << 10;

/// Writes one per-SPE, ring or fault-counter object as the report
/// persists it; the metrics digest shares these shapes.
pub(crate) fn write_spe(w: &mut Writer, m: &SpeMetrics) {
    encode(w, &mut m.clone(), spe_fields);
}

pub(crate) fn write_ring(w: &mut Writer, r: &RingStats) {
    encode(w, &mut r.clone(), ring_fields);
}

pub(crate) fn write_faults(w: &mut Writer, f: &FaultStats) {
    encode(w, &mut f.clone(), fault_fields);
}

fn report_json(r: &mut FabricReport) -> String {
    let mut w = Writer::with_capacity(REPORT_JSON_CAPACITY);
    encode(&mut w, r, report_fields);
    w.finish()
}

/// Writes `v` as one object. The walks take `&mut` so one field table
/// serves both directions; the encoder only reads through it.
fn encode<'w, T>(w: &'w mut Writer, v: &mut T, walk: impl FnOnce(&mut Encoder<'w>, &mut T)) {
    w.begin_object();
    let mut e = Encoder(w);
    walk(&mut e, v);
    e.0.end_object();
}

// ---- the persisted shape --------------------------------------------------
//
// One walk per struct names every persisted field once, in canonical
// order; [`Encoder`] writes the fields, and [`Decoder`] (from a parsed
// tree) or [`StreamDecoder`] (from the token stream) reads them back.
// `f64`s persist as IEEE-754 bit patterns so replays are bit-identical
// (decimal round-trips are not, and NaN payloads would not survive).

fn report_fields<C: Codec>(c: &mut C, r: &mut FabricReport) {
    c.num("cycles", &mut r.cycles);
    c.num("total_bytes", &mut r.total_bytes);
    c.num("aggregate_gbps_bits", &mut r.aggregate_gbps);
    c.num("sum_gbps_bits", &mut r.sum_gbps);
    c.nums("per_spe_bytes", &mut r.per_spe_bytes);
    c.nums("per_spe_cycles", &mut r.per_spe_cycles);
    c.nums("per_spe_gbps_bits", &mut r.per_spe_gbps);
    c.object("eib", &mut r.eib, |c, e| {
        c.num("grants", &mut e.grants);
        c.num("bytes", &mut e.bytes);
        c.num("wait_cycles", &mut e.wait_cycles);
        c.num("segment_cycles", &mut e.segment_cycles);
    });
    c.num("packets", &mut r.packets);
    c.object("metrics", &mut r.metrics, metrics_fields);
    c.object("latency", &mut r.latency, |c, l| {
        c.objects("paths", &mut l.paths, path_fields);
        c.object("element_service", &mut l.element_service, hist_fields);
    });
}

fn metrics_fields<C: Codec>(c: &mut C, m: &mut FabricMetrics) {
    c.num("run_cycles", &mut m.run_cycles);
    c.objects("per_spe", &mut m.per_spe, spe_fields);
    c.objects("rings", &mut m.rings, ring_fields);
    c.objects("banks", &mut m.banks, |c, b| {
        c.bank("bank", &mut b.bank);
        let s = &mut b.stats;
        c.num("accesses", &mut s.accesses);
        c.num("bytes", &mut s.bytes);
        c.num("turnaround_cycles", &mut s.turnaround_cycles);
        c.num("refresh_cycles", &mut s.refresh_cycles);
        c.num("busy_cycles", &mut s.busy_cycles);
        c.num("conflicts", &mut s.conflicts);
    });
    c.object("faults", &mut m.faults, fault_fields);
    c.num("events", &mut m.events);
    c.num("suppressed_pumps", &mut m.suppressed_pumps);
    c.num("peak_live_packets", &mut m.peak_live_packets);
}

fn spe_fields<C: Codec>(c: &mut C, s: &mut SpeMetrics) {
    c.num("busy_cycles", &mut s.busy_cycles);
    c.num("idle_cycles", &mut s.idle_cycles);
    c.num("stall_mfc_full_cycles", &mut s.stall_mfc_full_cycles);
    c.num("stall_sync_cycles", &mut s.stall_sync_cycles);
    c.num("stall_eib_cycles", &mut s.stall_eib_cycles);
    c.num("stall_mem_cycles", &mut s.stall_mem_cycles);
    c.nums("occupancy_cycles", &mut s.occupancy_cycles);
}

fn ring_fields<C: Codec>(c: &mut C, r: &mut RingStats) {
    c.num("grants", &mut r.grants);
    c.num("bytes", &mut r.bytes);
    c.num("busy_cycles", &mut r.busy_cycles);
}

fn fault_fields<C: Codec>(c: &mut C, f: &mut FaultStats) {
    c.num("nacks", &mut f.nacks);
    c.num("retries", &mut f.retries);
    c.num("retries_exhausted", &mut f.retries_exhausted);
    c.num("abandoned_packets", &mut f.abandoned_packets);
    c.num("degraded_cycles", &mut f.degraded_cycles);
}

fn path_fields<C: Codec>(c: &mut C, p: &mut PathLatency) {
    c.num("commands", &mut p.commands);
    c.object("end_to_end", &mut p.end_to_end, hist_fields);
    c.nums("phase_cycles", &mut p.phase_cycles);
    c.nums("dominant_counts", &mut p.dominant_counts);
    c.num("nacks", &mut p.nacks);
    c.num("retries", &mut p.retries);
    c.num("retry_backoff_cycles", &mut p.retry_backoff_cycles);
    c.num("exhausted_commands", &mut p.exhausted_commands);
}

fn hist_fields<C: Codec>(c: &mut C, h: &mut LatencyHistogram) {
    c.num("count", &mut h.count);
    c.num("total", &mut h.total);
    c.num("max", &mut h.max);
    c.nums("buckets", &mut h.buckets);
}

/// Bank names as persisted.
const BANK_NAMES: [(BankId, &str); 2] = [(BankId::Local, "local"), (BankId::Remote, "remote")];

/// One direction of the codec, driven by the field walks above.
trait Codec {
    /// A number member.
    fn num<N: Num>(&mut self, key: &str, v: &mut N);
    /// An array-of-numbers member.
    fn nums<S: Seq>(&mut self, key: &str, v: &mut S)
    where
        S::Item: Num;
    /// An object member whose fields `walk` names.
    fn object<T>(&mut self, key: &str, v: &mut T, walk: impl Fn(&mut Self, &mut T));
    /// An array-of-objects member, each item's fields named by `walk`.
    fn objects<S: Seq>(&mut self, key: &str, v: &mut S, walk: impl Fn(&mut Self, &mut S::Item));
    /// A bank member, by name.
    fn bank(&mut self, key: &str, v: &mut BankId);
}

/// A persisted number: a `u64` as itself, an `f64` as its bit pattern.
trait Num: Copy {
    fn to_u64(self) -> u64;
    fn from_u64(v: u64) -> Self;
}

impl Num for u64 {
    fn to_u64(self) -> u64 {
        self
    }
    fn from_u64(v: u64) -> u64 {
        v
    }
}

impl Num for f64 {
    fn to_u64(self) -> u64 {
        self.to_bits()
    }
    fn from_u64(v: u64) -> f64 {
        f64::from_bits(v)
    }
}

/// A persisted array: a `Vec` takes any decoded length, a fixed-size
/// array only its own.
trait Seq: AsMut<[Self::Item]> {
    type Item;
    /// Sizes the sequence for `len` decoded items; `false` if it cannot.
    fn fit(&mut self, len: usize) -> bool;
    /// The slot of decoded item `i`, items arriving in order; `None` if
    /// the sequence cannot hold it.
    fn slot(&mut self, i: usize) -> Option<&mut Self::Item>;
}

impl<T: Default> Seq for Vec<T> {
    type Item = T;
    fn fit(&mut self, len: usize) -> bool {
        self.resize_with(len, T::default);
        true
    }
    fn slot(&mut self, i: usize) -> Option<&mut T> {
        if i == self.len() {
            self.push(T::default());
        }
        self.get_mut(i)
    }
}

impl<T, const N: usize> Seq for [T; N] {
    type Item = T;
    fn fit(&mut self, len: usize) -> bool {
        len == N
    }
    fn slot(&mut self, i: usize) -> Option<&mut T> {
        self.get_mut(i)
    }
}

/// Writes each field into the current object of a [`Writer`].
struct Encoder<'w>(&'w mut Writer);

impl Codec for Encoder<'_> {
    fn num<N: Num>(&mut self, key: &str, v: &mut N) {
        self.0.key(key).u64(v.to_u64());
    }

    fn nums<S: Seq>(&mut self, key: &str, v: &mut S)
    where
        S::Item: Num,
    {
        self.0.key(key).u64s(v.as_mut().iter().map(|n| n.to_u64()));
    }

    fn object<T>(&mut self, key: &str, v: &mut T, walk: impl Fn(&mut Self, &mut T)) {
        self.0.key(key).begin_object();
        walk(self, v);
        self.0.end_object();
    }

    fn objects<S: Seq>(&mut self, key: &str, v: &mut S, walk: impl Fn(&mut Self, &mut S::Item)) {
        self.0.key(key).begin_array();
        for item in v.as_mut() {
            self.0.begin_object();
            walk(self, item);
            self.0.end_object();
        }
        self.0.end_array();
    }

    fn bank(&mut self, key: &str, v: &mut BankId) {
        let (_, name) = BANK_NAMES
            .iter()
            .find(|(bank, _)| bank == v)
            .expect("every bank is named");
        self.0.key(key).str(name);
    }
}

/// Reads each field from the current object of a parsed document; any
/// missing or mistyped field, or wrong-length fixed array, clears `ok`.
struct Decoder<'a> {
    at: &'a JsonValue,
    ok: bool,
}

impl<'a> Decoder<'a> {
    fn field(&mut self, key: &str) -> Option<&'a JsonValue> {
        let v = self.at.get(key);
        self.ok &= v.is_some();
        v
    }

    /// `v` as an integer; anything else fails the decode (and reads 0).
    fn number(&mut self, v: Option<&JsonValue>) -> u64 {
        let n = v.and_then(JsonValue::as_u64);
        self.ok &= n.is_some();
        n.unwrap_or(0)
    }

    /// The items of array member `key`, once `v` is sized for them.
    fn array<S: Seq>(&mut self, key: &str, v: &mut S) -> &'a [JsonValue] {
        match self.field(key).and_then(JsonValue::as_array) {
            Some(items) if v.fit(items.len()) => items,
            _ => {
                self.ok = false;
                &[]
            }
        }
    }

    fn enter<T>(&mut self, at: &'a JsonValue, v: &mut T, walk: impl Fn(&mut Self, &mut T)) {
        let outer = std::mem::replace(&mut self.at, at);
        walk(self, v);
        self.at = outer;
    }
}

impl Codec for Decoder<'_> {
    fn num<N: Num>(&mut self, key: &str, v: &mut N) {
        let value = self.field(key);
        *v = N::from_u64(self.number(value));
    }

    fn nums<S: Seq>(&mut self, key: &str, v: &mut S)
    where
        S::Item: Num,
    {
        let items = self.array(key, v);
        for (slot, item) in v.as_mut().iter_mut().zip(items) {
            *slot = S::Item::from_u64(self.number(Some(item)));
        }
    }

    fn object<T>(&mut self, key: &str, v: &mut T, walk: impl Fn(&mut Self, &mut T)) {
        if let Some(at) = self.field(key) {
            self.enter(at, v, walk);
        }
    }

    fn objects<S: Seq>(&mut self, key: &str, v: &mut S, walk: impl Fn(&mut Self, &mut S::Item)) {
        let items = self.array(key, v);
        for (slot, at) in v.as_mut().iter_mut().zip(items) {
            self.enter(at, slot, &walk);
        }
    }

    fn bank(&mut self, key: &str, v: &mut BankId) {
        let name = self.field(key).and_then(JsonValue::as_str);
        match BANK_NAMES.iter().find(|(_, n)| Some(*n) == name) {
            Some((bank, _)) => *v = *bank,
            None => self.ok = false,
        }
    }
}

/// Reads each field straight from a document's token stream, in the
/// order the walks name it (the order [`Encoder`] writes), building no
/// tree. A member that is missing, misplaced, extra or mistyped, or a
/// fixed array of the wrong length, clears `ok` and stops the read.
struct StreamDecoder<'r, 'a> {
    r: &'r mut Reader<'a>,
    ok: bool,
}

impl<'a> StreamDecoder<'_, 'a> {
    /// Runs one read step, unless an earlier one failed.
    fn read<T>(&mut self, step: impl FnOnce(&mut Reader<'a>) -> Result<T, JsonError>) -> Option<T> {
        let v = if self.ok { step(self.r).ok() } else { None };
        self.ok = v.is_some();
        v
    }

    /// An object's members as `walk` names them, then its end.
    fn body<T>(&mut self, v: &mut T, walk: impl Fn(&mut Self, &mut T)) {
        if self.read(Reader::begin_object).is_some() {
            walk(self, v);
            self.read(Reader::end_object);
        }
    }

    /// Array member `key`, each item read into its slot of `v` by `item`.
    fn array<S: Seq>(&mut self, key: &str, v: &mut S, item: impl Fn(&mut Self, &mut S::Item)) {
        if self
            .read(|r| {
                r.member(key)?;
                r.begin_array()
            })
            .is_none()
        {
            return;
        }
        let mut len = 0;
        while self.read(Reader::next_item) == Some(true) {
            let Some(slot) = v.slot(len) else {
                self.ok = false;
                return;
            };
            item(self, slot);
            len += 1;
        }
        self.ok &= v.fit(len);
    }
}

impl Codec for StreamDecoder<'_, '_> {
    fn num<N: Num>(&mut self, key: &str, v: &mut N) {
        if let Some(n) = self.read(|r| {
            r.member(key)?;
            r.u64()
        }) {
            *v = N::from_u64(n);
        }
    }

    fn nums<S: Seq>(&mut self, key: &str, v: &mut S)
    where
        S::Item: Num,
    {
        self.array(key, v, |d, slot| {
            if let Some(n) = d.read(Reader::u64) {
                *slot = S::Item::from_u64(n);
            }
        });
    }

    fn object<T>(&mut self, key: &str, v: &mut T, walk: impl Fn(&mut Self, &mut T)) {
        if self.read(|r| r.member(key)).is_some() {
            self.body(v, walk);
        }
    }

    fn objects<S: Seq>(&mut self, key: &str, v: &mut S, walk: impl Fn(&mut Self, &mut S::Item)) {
        self.array(key, v, |d, slot| d.body(slot, &walk));
    }

    fn bank(&mut self, key: &str, v: &mut BankId) {
        let name = self.read(|r| {
            r.member(key)?;
            r.str()
        });
        match BANK_NAMES.iter().find(|(_, n)| name.as_deref() == Some(*n)) {
            Some((bank, _)) => *v = *bank,
            None => self.ok = false,
        }
    }
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
    fn entries_that_are_not_utf8_are_discarded() {
        let dir = tmp_dir("utf8");
        let cache = DiskCache::open(&dir).unwrap();
        let (key, report) = sample();
        cache.store(&key, &report);
        let path = cache.entry_path(&key);
        let mut bytes = fs::read(&path).unwrap();
        let report_at = bytes.windows(9).position(|w| w == b"\"report\":").unwrap();
        bytes[report_at + 20] = 0xFF;
        fs::write(&path, bytes).unwrap();
        assert!(cache.load(&key).is_none());
        assert_eq!(cache.stats().discarded, 1);
        assert!(!path.exists(), "the entry is removed, not left to rot");
        // A missing entry is a plain miss.
        assert!(cache.load(&key).is_none());
        assert_eq!(cache.stats().discarded, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wire_report_round_trips_bit_identically() {
        let (key, report) = sample();
        let text = report_to_json(&report);
        let parsed = report_from_json(&crate::json::parse(&text).unwrap()).unwrap();
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
