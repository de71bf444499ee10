//! Queryable per-run trace store: a compact, append-only, checksummed
//! event log with a cycle-window/SPE/phase index, plus the per-run
//! artifact directory ([`RunDir`]) that links each store to its run's
//! identity and metrics.
//!
//! # Store file layout (`trace.bin`, schema 1)
//!
//! ```text
//! header   8 B   magic "CSTR", u32 LE schema
//! blocks   …     event blocks, ≤ 4096 events each
//! index    36 B × blocks (LE): offset u64, len u32, count u32,
//!                first_cycle u64, last_cycle u64,
//!                spe_mask u8, kind_mask u8, path_mask u8, reserved u8
//! trailer  104 B (LE): index_offset, block_count, total_events,
//!                counts[4] (issue/mem/grant/deliver), delivered_bytes,
//!                sim_events, packets, payload_checksum, index_checksum,
//!                tail magic "CSTREND1"
//! ```
//!
//! Each event record is `byte0 = kind(2b) | path(2b)<<2 | spe(3b)<<4`,
//! `byte1 = aux` (bank for memory accesses, ring for grants), `byte2 =
//! hops` (grants), then two LEB128 varints: the cycle (absolute for a
//! block's first event, a delta from the previous event otherwise —
//! the event stream is time-ordered by construction) and the payload
//! bytes. Checksums are the repo's pinned FNV-1a 64 over the payload
//! region (`[0, index_offset)`) and the index region.
//!
//! The writer streams: records go out as each 4096-event block fills,
//! so a paper-scale run traces in bounded memory (one block buffer plus
//! one 36-byte index entry per block). The format is a pure function of
//! the deterministic event stream, so the same [`RunKey`] produces
//! byte-identical stores at any `--jobs`.
//!
//! **Conservation by construction**: `Delivered` events are recorded at
//! packet retirement, so the store's deliver count equals
//! [`FabricReport::packets`] and its delivered bytes equal
//! [`FabricReport::total_bytes`] exactly — the cross-check
//! `cellsim-trace check` performs on every store.

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use cellsim_kernel::fnv::{fnv1a, Fnv1a};
use cellsim_kernel::varint::{decode_u64, encode_u64, MAX_VARINT_BYTES};
use cellsim_kernel::{Cycle, MachineClock};

use crate::diskcache::{key_fingerprint, key_json, write_key};
use crate::exec::{RunKey, RunSpec};
use crate::fabric::FabricReport;
use crate::failure::RunFailure;
use crate::json::{Reader, Writer};
use crate::latency::DmaPathClass;
use crate::tracing::{FabricEvent, TraceMeta, TraceSink};

/// Store file magic.
const MAGIC: [u8; 4] = *b"CSTR";
/// Store schema version (see the module docs for the layout it names).
pub const STORE_SCHEMA: u32 = 1;
/// Trailer magic, last 8 bytes of every complete store.
const TAIL_MAGIC: [u8; 8] = *b"CSTREND1";
/// Events per index block.
const BLOCK_EVENTS: u32 = 4096;
/// Bytes of one serialized index entry.
const INDEX_ENTRY_BYTES: usize = 36;
/// Bytes of the fixed header (magic + schema).
const HEADER_BYTES: usize = 8;
/// Bytes of the fixed trailer.
const TRAILER_BYTES: usize = 104;
/// The trace file inside a run's artifact directory.
pub const TRACE_FILE: &str = "trace.bin";
/// The manifest file inside a run's artifact directory.
pub const MANIFEST_FILE: &str = "manifest.json";
/// Manifest schema version.
const MANIFEST_SCHEMA: u64 = 1;

/// The four traced packet phases, in on-disk code order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// An MFC put a packet on the command bus.
    Issue,
    /// A DRAM access was queued.
    Mem,
    /// The data arbiter granted a ring.
    Grant,
    /// A packet retired (payload at its final destination).
    Deliver,
}

impl TraceKind {
    /// All kinds in code order.
    pub const ALL: [TraceKind; 4] = [
        TraceKind::Issue,
        TraceKind::Mem,
        TraceKind::Grant,
        TraceKind::Deliver,
    ];

    /// Stable query/CSV name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Issue => "issue",
            TraceKind::Mem => "mem",
            TraceKind::Grant => "grant",
            TraceKind::Deliver => "deliver",
        }
    }

    /// Parses a [`TraceKind::name`].
    #[must_use]
    pub fn parse(s: &str) -> Option<TraceKind> {
        TraceKind::ALL.into_iter().find(|k| k.name() == s)
    }

    fn code(self) -> u8 {
        match self {
            TraceKind::Issue => 0,
            TraceKind::Mem => 1,
            TraceKind::Grant => 2,
            TraceKind::Deliver => 3,
        }
    }

    fn from_code(code: u8) -> TraceKind {
        TraceKind::ALL[(code & 3) as usize]
    }
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

fn path_code(path: DmaPathClass) -> u8 {
    match path {
        DmaPathClass::MemGet => 0,
        DmaPathClass::MemPut => 1,
        DmaPathClass::LsGet => 2,
        DmaPathClass::LsPut => 3,
    }
}

fn path_from_code(code: u8) -> DmaPathClass {
    DmaPathClass::ALL[(code & 3) as usize]
}

/// Parses a [`DmaPathClass::name`] (`mem-get`, `mem-put`, `ls-get`,
/// `ls-put`).
#[must_use]
pub fn parse_path(s: &str) -> Option<DmaPathClass> {
    DmaPathClass::ALL.into_iter().find(|p| p.name() == s)
}

/// One decoded store event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreEvent {
    /// Bus cycle the event happened at.
    pub at: u64,
    /// Which packet phase.
    pub kind: TraceKind,
    /// Initiating logical SPE.
    pub spe: u8,
    /// The packet's DMA path class.
    pub path: DmaPathClass,
    /// Kind-specific id: the bank for [`TraceKind::Mem`] (0 local, 1
    /// remote), the ring for [`TraceKind::Grant`], 0 otherwise.
    pub aux: u8,
    /// Ring path length ([`TraceKind::Grant`] only).
    pub hops: u8,
    /// Payload bytes (0 for [`TraceKind::Issue`]).
    pub bytes: u32,
}

/// A conjunctive event filter; `None` fields match everything. Blocks
/// whose index entry cannot match are skipped without decoding.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceFilter {
    /// Only events of this initiating logical SPE.
    pub spe: Option<u8>,
    /// Only events of this phase.
    pub kind: Option<TraceKind>,
    /// Only events of this DMA path class.
    pub path: Option<DmaPathClass>,
    /// Only events at or after this cycle.
    pub cycle_from: Option<u64>,
    /// Only events at or before this cycle (inclusive).
    pub cycle_to: Option<u64>,
}

impl TraceFilter {
    /// Whether `event` passes every set field.
    #[must_use]
    pub fn admits(&self, event: &StoreEvent) -> bool {
        self.spe.is_none_or(|s| s == event.spe)
            && self.kind.is_none_or(|k| k == event.kind)
            && self.path.is_none_or(|p| p == event.path)
            && self.cycle_from.is_none_or(|c| event.at >= c)
            && self.cycle_to.is_none_or(|c| event.at <= c)
    }

    fn admits_block(&self, block: &BlockEntry) -> bool {
        self.spe
            .is_none_or(|s| block.spe_mask & (1u8 << (s & 7)) != 0)
            && self
                .kind
                .is_none_or(|k| block.kind_mask & (1u8 << k.code()) != 0)
            && self
                .path
                .is_none_or(|p| block.path_mask & (1u8 << path_code(p)) != 0)
            && self.cycle_from.is_none_or(|c| block.last_cycle >= c)
            && self.cycle_to.is_none_or(|c| block.first_cycle <= c)
    }
}

/// Why a store could not be opened or decoded.
#[derive(Debug)]
pub enum TraceStoreError {
    /// The file could not be read or written.
    Io(io::Error),
    /// The bytes are not a complete, checksum-consistent store.
    Corrupt {
        /// What failed to validate.
        detail: String,
    },
    /// The store is a different schema version than this reader.
    Schema {
        /// Version found in the header.
        found: u32,
        /// Version this reader understands.
        expected: u32,
    },
}

impl fmt::Display for TraceStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceStoreError::Io(e) => write!(f, "trace store I/O error: {e}"),
            TraceStoreError::Corrupt { detail } => {
                write!(f, "corrupt trace store: {detail}")
            }
            TraceStoreError::Schema { found, expected } => write!(
                f,
                "trace store schema {found} (this reader understands {expected})"
            ),
        }
    }
}

impl std::error::Error for TraceStoreError {}

impl From<io::Error> for TraceStoreError {
    fn from(e: io::Error) -> TraceStoreError {
        TraceStoreError::Io(e)
    }
}

fn corrupt(detail: impl Into<String>) -> TraceStoreError {
    TraceStoreError::Corrupt {
        detail: detail.into(),
    }
}

/// One index entry: where a block lives and what could be inside it.
#[derive(Debug, Clone, Copy, Default)]
struct BlockEntry {
    offset: u64,
    len: u32,
    count: u32,
    first_cycle: u64,
    last_cycle: u64,
    spe_mask: u8,
    kind_mask: u8,
    path_mask: u8,
}

impl BlockEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.first_cycle.to_le_bytes());
        out.extend_from_slice(&self.last_cycle.to_le_bytes());
        out.push(self.spe_mask);
        out.push(self.kind_mask);
        out.push(self.path_mask);
        out.push(0);
    }

    fn decode(bytes: &[u8]) -> BlockEntry {
        BlockEntry {
            offset: read_u64(bytes, 0),
            len: read_u32(bytes, 8),
            count: read_u32(bytes, 12),
            first_cycle: read_u64(bytes, 16),
            last_cycle: read_u64(bytes, 24),
            spe_mask: bytes[32],
            kind_mask: bytes[33],
            path_mask: bytes[34],
        }
    }
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

/// Exact event totals of a store, read from its verified trailer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreTotals {
    /// Total trace records.
    pub events: u64,
    /// Command-issue events.
    pub issued: u64,
    /// DRAM-access events.
    pub mem_accesses: u64,
    /// Ring-grant events.
    pub grants: u64,
    /// Retirement events — equals the run's delivered packet count.
    pub delivered: u64,
    /// Σ bytes over retirement events — equals the run's total bytes.
    pub delivered_bytes: u64,
    /// The run's [`FabricMetrics::events`](crate::FabricMetrics::events)
    /// (simulation events processed, not trace records).
    pub sim_events: u64,
    /// The run's [`FabricReport::packets`].
    pub packets: u64,
}

/// What a finalized store contains, returned by
/// [`TraceStoreWriter::finalize`].
#[derive(Debug, Clone, Copy)]
pub struct StoreSummary {
    /// Trace records written.
    pub events: u64,
    /// Total store file size in bytes.
    pub bytes: u64,
    /// FNV-1a 64 checksum of the payload region.
    pub checksum: u64,
}

/// Accumulators of the block currently being filled.
#[derive(Debug, Clone, Copy, Default)]
struct OpenBlock {
    count: u32,
    first_cycle: u64,
    last_cycle: u64,
    spe_mask: u8,
    kind_mask: u8,
    path_mask: u8,
}

/// Streaming store writer: a [`TraceSink`] that encodes each event as it
/// arrives and flushes every completed 4096-event block, so whole-run
/// memory is one block buffer plus 36 bytes of index per block.
///
/// I/O errors are latched, not surfaced mid-run ([`TraceSink`]'s
/// contract — the simulation must not observe its observer);
/// [`TraceStoreWriter::finalize`] reports the first one.
#[derive(Debug)]
pub struct TraceStoreWriter<W: Write> {
    out: W,
    error: Option<io::Error>,
    /// FNV-1a over everything emitted so far.
    checksum: Fnv1a,
    /// Bytes emitted so far (header + completed blocks).
    written: u64,
    /// Encoding buffer of the block currently being filled.
    buf: Vec<u8>,
    cur: OpenBlock,
    blocks: Vec<BlockEntry>,
    counts: [u64; 4],
    delivered_bytes: u64,
}

impl<W: Write> TraceStoreWriter<W> {
    /// Starts a store on `out` (the header is written immediately).
    pub fn new(out: W) -> TraceStoreWriter<W> {
        let mut w = TraceStoreWriter {
            out,
            error: None,
            checksum: Fnv1a::new(),
            written: 0,
            buf: Vec::with_capacity(64 << 10),
            cur: OpenBlock::default(),
            blocks: Vec::new(),
            counts: [0; 4],
            delivered_bytes: 0,
        };
        let mut header = [0u8; HEADER_BYTES];
        header[..4].copy_from_slice(&MAGIC);
        header[4..].copy_from_slice(&STORE_SCHEMA.to_le_bytes());
        w.emit(&header);
        w
    }

    /// Writes `bytes` through, folding them into the payload checksum.
    fn emit(&mut self, bytes: &[u8]) {
        if self.error.is_some() {
            return;
        }
        self.checksum.update(bytes);
        match self.out.write_all(bytes) {
            Ok(()) => self.written += bytes.len() as u64,
            Err(e) => self.error = Some(e),
        }
    }

    fn flush_block(&mut self) {
        if self.cur.count == 0 {
            return;
        }
        let entry = BlockEntry {
            offset: self.written,
            len: u32::try_from(self.buf.len()).expect("block fits u32"),
            count: self.cur.count,
            first_cycle: self.cur.first_cycle,
            last_cycle: self.cur.last_cycle,
            spe_mask: self.cur.spe_mask,
            kind_mask: self.cur.kind_mask,
            path_mask: self.cur.path_mask,
        };
        let buf = std::mem::take(&mut self.buf);
        self.emit(&buf);
        self.buf = buf;
        self.buf.clear();
        self.blocks.push(entry);
        self.cur = OpenBlock::default();
    }

    /// Flushes the partial block, writes index and trailer, and flushes
    /// the underlying writer.
    ///
    /// `sim_events` and `packets` are the run's
    /// [`FabricMetrics::events`](crate::FabricMetrics::events) and
    /// [`FabricReport::packets`], embedded so readers can reconcile the
    /// store against the run's metrics with no other file present.
    ///
    /// # Errors
    ///
    /// The first I/O error latched during recording, or any error from
    /// writing the index/trailer.
    pub fn finalize(mut self, sim_events: u64, packets: u64) -> io::Result<(W, StoreSummary)> {
        self.flush_block();
        let index_offset = self.written;
        let payload_checksum = if self.error.is_some() {
            0
        } else {
            self.checksum.finish()
        };
        let mut index = Vec::with_capacity(self.blocks.len() * INDEX_ENTRY_BYTES);
        for block in &self.blocks {
            block.encode(&mut index);
        }
        let index_checksum = fnv1a(&index);
        self.emit(&index);
        let total_events: u64 = self.counts.iter().sum();
        let mut trailer = Vec::with_capacity(TRAILER_BYTES);
        trailer.extend_from_slice(&index_offset.to_le_bytes());
        trailer.extend_from_slice(&(self.blocks.len() as u64).to_le_bytes());
        trailer.extend_from_slice(&total_events.to_le_bytes());
        for count in self.counts {
            trailer.extend_from_slice(&count.to_le_bytes());
        }
        trailer.extend_from_slice(&self.delivered_bytes.to_le_bytes());
        trailer.extend_from_slice(&sim_events.to_le_bytes());
        trailer.extend_from_slice(&packets.to_le_bytes());
        trailer.extend_from_slice(&payload_checksum.to_le_bytes());
        trailer.extend_from_slice(&index_checksum.to_le_bytes());
        trailer.extend_from_slice(&TAIL_MAGIC);
        self.emit(&trailer);
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
        match self.error {
            Some(e) => Err(e),
            None => Ok((
                self.out,
                StoreSummary {
                    events: total_events,
                    bytes: self.written,
                    checksum: payload_checksum,
                },
            )),
        }
    }
}

impl<W: Write> TraceSink for TraceStoreWriter<W> {
    fn record(&mut self, at: Cycle, meta: TraceMeta, event: FabricEvent) {
        let at = at.as_u64();
        let (kind, aux, hops, bytes) = match event {
            FabricEvent::CommandIssued => (TraceKind::Issue, 0u8, 0u8, 0u32),
            FabricEvent::MemoryAccess { bank, bytes } => (TraceKind::Mem, bank as u8, 0, bytes),
            FabricEvent::Granted { ring, hops, bytes } => (
                TraceKind::Grant,
                u8::try_from(ring.0).unwrap_or(u8::MAX),
                u8::try_from(hops).unwrap_or(u8::MAX),
                bytes,
            ),
            FabricEvent::Delivered { bytes } => {
                self.delivered_bytes += u64::from(bytes);
                (TraceKind::Deliver, 0, 0, bytes)
            }
        };
        let spe = meta.spe & 7;
        let path = path_code(meta.path);
        // The event stream is time-ordered (the kernel delivers events in
        // (time, FIFO) order), so the delta is non-negative; encode the
        // first event of each block absolute so blocks decode standalone.
        let delta = if self.cur.count == 0 {
            self.cur.first_cycle = at;
            at
        } else {
            at.saturating_sub(self.cur.last_cycle)
        };
        self.buf.push(kind.code() | (path << 2) | (spe << 4));
        self.buf.push(aux);
        self.buf.push(hops);
        let mut scratch = [0u8; MAX_VARINT_BYTES];
        let n = encode_u64(delta, &mut scratch);
        self.buf.extend_from_slice(&scratch[..n]);
        let n = encode_u64(u64::from(bytes), &mut scratch);
        self.buf.extend_from_slice(&scratch[..n]);
        self.cur.last_cycle = at;
        self.cur.count += 1;
        self.cur.spe_mask |= 1 << spe;
        self.cur.kind_mask |= 1 << kind.code();
        self.cur.path_mask |= 1 << path;
        self.counts[kind.code() as usize] += 1;
        if self.cur.count >= BLOCK_EVENTS {
            self.flush_block();
        }
    }
}

/// A verified, opened store, ready for filtered queries.
#[derive(Debug)]
pub struct TraceStore {
    bytes: Vec<u8>,
    blocks: Vec<BlockEntry>,
    totals: StoreTotals,
    payload_checksum: u64,
}

impl TraceStore {
    /// Opens and fully verifies the store at `path` (magics, schema,
    /// both checksums, and index-structure invariants).
    ///
    /// # Errors
    ///
    /// [`TraceStoreError::Io`] when the file cannot be read,
    /// [`TraceStoreError::Schema`] on a version mismatch, and
    /// [`TraceStoreError::Corrupt`] on any truncation, bit flip, or
    /// structural inconsistency — never a panic.
    pub fn open(path: &Path) -> Result<TraceStore, TraceStoreError> {
        TraceStore::from_bytes(crate::iofault::read(path)?)
    }

    /// Verifies `bytes` as a complete store (see [`TraceStore::open`]).
    ///
    /// # Errors
    ///
    /// As [`TraceStore::open`], minus I/O.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<TraceStore, TraceStoreError> {
        if bytes.len() < HEADER_BYTES + TRAILER_BYTES {
            return Err(corrupt(format!(
                "{} bytes is shorter than header + trailer",
                bytes.len()
            )));
        }
        if bytes[..4] != MAGIC {
            return Err(corrupt("bad header magic"));
        }
        let schema = read_u32(&bytes, 4);
        if schema != STORE_SCHEMA {
            return Err(TraceStoreError::Schema {
                found: schema,
                expected: STORE_SCHEMA,
            });
        }
        let trailer_at = bytes.len() - TRAILER_BYTES;
        if bytes[bytes.len() - 8..] != TAIL_MAGIC {
            return Err(corrupt("bad trailer magic (truncated store?)"));
        }
        let index_offset = read_u64(&bytes, trailer_at);
        let block_count = read_u64(&bytes, trailer_at + 8);
        let totals = StoreTotals {
            events: read_u64(&bytes, trailer_at + 16),
            issued: read_u64(&bytes, trailer_at + 24),
            mem_accesses: read_u64(&bytes, trailer_at + 32),
            grants: read_u64(&bytes, trailer_at + 40),
            delivered: read_u64(&bytes, trailer_at + 48),
            delivered_bytes: read_u64(&bytes, trailer_at + 56),
            sim_events: read_u64(&bytes, trailer_at + 64),
            packets: read_u64(&bytes, trailer_at + 72),
        };
        let payload_checksum = read_u64(&bytes, trailer_at + 80);
        let index_checksum = read_u64(&bytes, trailer_at + 88);
        let index_len = (trailer_at as u64).checked_sub(index_offset);
        let Some(index_len) = index_len else {
            return Err(corrupt("index offset past the trailer"));
        };
        if index_len != block_count.saturating_mul(INDEX_ENTRY_BYTES as u64) {
            return Err(corrupt(format!(
                "index region is {index_len} bytes for {block_count} blocks"
            )));
        }
        if index_offset < HEADER_BYTES as u64 {
            return Err(corrupt("index offset inside the header"));
        }
        let index_offset = usize::try_from(index_offset).expect("index offset fits usize");
        if fnv1a(&bytes[..index_offset]) != payload_checksum {
            return Err(corrupt("payload checksum mismatch"));
        }
        if fnv1a(&bytes[index_offset..trailer_at]) != index_checksum {
            return Err(corrupt("index checksum mismatch"));
        }
        let mut blocks = Vec::with_capacity(usize::try_from(block_count).unwrap_or(0));
        let mut next_offset = HEADER_BYTES as u64;
        let mut last_cycle = 0u64;
        let mut counted = 0u64;
        for i in 0..usize::try_from(block_count).expect("block count fits usize") {
            let at = index_offset + i * INDEX_ENTRY_BYTES;
            let entry = BlockEntry::decode(&bytes[at..at + INDEX_ENTRY_BYTES]);
            if entry.offset != next_offset {
                return Err(corrupt(format!("block {i} offset is not contiguous")));
            }
            if entry.count == 0 || entry.count > BLOCK_EVENTS {
                return Err(corrupt(format!("block {i} has {} events", entry.count)));
            }
            if entry.first_cycle > entry.last_cycle || (i > 0 && entry.first_cycle < last_cycle) {
                return Err(corrupt(format!("block {i} cycle range is not monotone")));
            }
            next_offset += u64::from(entry.len);
            last_cycle = entry.last_cycle;
            counted += u64::from(entry.count);
            blocks.push(entry);
        }
        if next_offset != index_offset as u64 {
            return Err(corrupt("blocks do not tile the payload region"));
        }
        if counted != totals.events {
            return Err(corrupt(format!(
                "index counts {counted} events, trailer says {}",
                totals.events
            )));
        }
        Ok(TraceStore {
            bytes,
            blocks,
            totals,
            payload_checksum,
        })
    }

    /// The trailer's exact totals.
    pub fn totals(&self) -> &StoreTotals {
        &self.totals
    }

    /// The verified FNV-1a 64 payload checksum (what manifests record).
    pub fn payload_checksum(&self) -> u64 {
        self.payload_checksum
    }

    /// Index blocks in the store.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Total store size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Streams every event admitted by `filter` through `visit`, in time
    /// order, decoding only the blocks the index cannot rule out.
    ///
    /// # Errors
    ///
    /// [`TraceStoreError::Corrupt`] if a block fails to decode (the
    /// checksums make this unreachable short of a writer bug, but it is
    /// an error, not a panic), or [`TraceStoreError::Io`] from `visit`.
    pub fn for_each(
        &self,
        filter: &TraceFilter,
        mut visit: impl FnMut(&StoreEvent) -> io::Result<()>,
    ) -> Result<(), TraceStoreError> {
        for (i, block) in self.blocks.iter().enumerate() {
            if !filter.admits_block(block) {
                continue;
            }
            self.decode_block(i, block, &mut |event| {
                if filter.admits(event) {
                    visit(event).map_err(TraceStoreError::Io)?;
                }
                Ok(())
            })?;
        }
        Ok(())
    }

    fn decode_block(
        &self,
        i: usize,
        block: &BlockEntry,
        visit: &mut impl FnMut(&StoreEvent) -> Result<(), TraceStoreError>,
    ) -> Result<(), TraceStoreError> {
        let start = usize::try_from(block.offset).expect("offset fits usize");
        let mut slice = &self.bytes[start..start + block.len as usize];
        let mut prev = 0u64;
        for n in 0..block.count {
            if slice.len() < 3 {
                return Err(corrupt(format!("block {i} ends mid-record")));
            }
            let head = slice[0];
            let aux = slice[1];
            let hops = slice[2];
            slice = &slice[3..];
            let Some((delta, used)) = decode_u64(slice) else {
                return Err(corrupt(format!("block {i} has a bad cycle varint")));
            };
            slice = &slice[used..];
            let Some((bytes, used)) = decode_u64(slice) else {
                return Err(corrupt(format!("block {i} has a bad bytes varint")));
            };
            slice = &slice[used..];
            let at = if n == 0 {
                delta
            } else {
                prev.checked_add(delta)
                    .ok_or_else(|| corrupt(format!("block {i} cycle overflow")))?
            };
            prev = at;
            let bytes = u32::try_from(bytes)
                .map_err(|_| corrupt(format!("block {i} event bytes overflow u32")))?;
            visit(&StoreEvent {
                at,
                kind: TraceKind::from_code(head & 3),
                spe: (head >> 4) & 7,
                path: path_from_code((head >> 2) & 3),
                aux,
                hops,
                bytes,
            })?;
        }
        if !slice.is_empty() {
            return Err(corrupt(format!("block {i} has trailing bytes")));
        }
        Ok(())
    }

    /// Recounts every event by full decode — the ground truth the
    /// trailer totals must match. Returns `(counts by kind, Σ delivered
    /// bytes)`.
    ///
    /// # Errors
    ///
    /// [`TraceStoreError::Corrupt`] if any block fails to decode.
    pub fn recount(&self) -> Result<([u64; 4], u64), TraceStoreError> {
        let mut counts = [0u64; 4];
        let mut delivered_bytes = 0u64;
        self.for_each(&TraceFilter::default(), |event| {
            counts[event.kind.code() as usize] += 1;
            if event.kind == TraceKind::Deliver {
                delivered_bytes += u64::from(event.bytes);
            }
            Ok(())
        })?;
        Ok((counts, delivered_bytes))
    }

    /// Streams the store as Chrome tracing JSON (`chrome://tracing`,
    /// Perfetto) — the projection the `--trace-out` flag renders.
    ///
    /// # Errors
    ///
    /// [`TraceStoreError::Io`] from `out`, or
    /// [`TraceStoreError::Corrupt`] if a block fails to decode.
    pub fn export_chrome(
        &self,
        clock: &MachineClock,
        out: &mut impl Write,
    ) -> Result<(), TraceStoreError> {
        out.write_all(
            b"{\"traceEvents\":[\n\
              {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
              \"args\":{\"name\":\"SPEs\"}},\n\
              {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
              \"args\":{\"name\":\"EIB rings\"}},\n\
              {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\
              \"args\":{\"name\":\"XDR banks\"}}",
        )?;
        self.for_each(&TraceFilter::default(), |e| {
            let ts = clock.seconds(e.at) * 1e6;
            let (name, pid, tid, extra) = match e.kind {
                TraceKind::Issue => ("issue", 0, u64::from(e.spe), String::new()),
                TraceKind::Deliver => (
                    "deliver",
                    0,
                    u64::from(e.spe),
                    format!(",\"args\":{{\"bytes\":{}}}", e.bytes),
                ),
                TraceKind::Grant => (
                    "grant",
                    1,
                    u64::from(e.aux),
                    format!(",\"args\":{{\"bytes\":{},\"hops\":{}}}", e.bytes, e.hops),
                ),
                TraceKind::Mem => (
                    if e.aux == 0 { "local" } else { "remote" },
                    2,
                    u64::from(e.aux),
                    format!(",\"args\":{{\"bytes\":{}}}", e.bytes),
                ),
            };
            write!(
                out,
                ",\n{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{ts:.4},\"pid\":{pid},\"tid\":{tid}{extra}}}"
            )
        })?;
        out.write_all(b"\n]}\n")?;
        Ok(())
    }
}

// ---- per-run artifact directories ---------------------------------------

/// Activity counters of a [`RunDir`] since it was opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunDirStats {
    /// Entries recorded (trace + manifest committed).
    pub written: u64,
    /// Runs answered from cache with their artifact already complete.
    pub reused: u64,
    /// Artifact I/O failures (the runs themselves still completed).
    pub errors: u64,
}

/// A per-run artifact directory: one subdirectory per [`RunKey`]
/// (named by its [`key_fingerprint`], the same 16-hex identity the disk
/// cache uses), each holding [`TRACE_FILE`] and [`MANIFEST_FILE`].
///
/// Artifacts are accelerators' siblings, never correctness
/// dependencies: every artifact write is atomic (unique temp file, then
/// rename), and any I/O failure is counted and absorbed — the run still
/// returns its report.
#[derive(Debug)]
pub struct RunDir {
    root: PathBuf,
    tmp_counter: AtomicU64,
    written: AtomicU64,
    reused: AtomicU64,
    errors: AtomicU64,
}

impl RunDir {
    /// Opens (creating if needed) the artifact root.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from creating the directory.
    pub fn create(root: &Path) -> io::Result<RunDir> {
        fs::create_dir_all(root)?;
        Ok(RunDir {
            root: root.to_path_buf(),
            tmp_counter: AtomicU64::new(0),
            written: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        })
    }

    /// The artifact root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// `key`'s artifact directory (it may not exist yet).
    pub fn entry_dir(&self, key: &RunKey) -> PathBuf {
        self.root.join(format!("{:016x}", key_fingerprint(key)))
    }

    /// Counters since open.
    pub fn stats(&self) -> RunDirStats {
        RunDirStats {
            written: self.written.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }

    /// Notes that a cached report was reused because `key`'s artifact is
    /// already complete (the executor's census counter).
    pub fn note_reused(&self) {
        self.reused.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether `key` has a complete artifact: a manifest that parses,
    /// carries `key`'s full identity, and agrees with the trace file's
    /// size. Anything less reads as absent — the caller re-simulates and
    /// the entry self-heals by overwrite.
    pub fn is_complete(&self, key: &RunKey) -> bool {
        let dir = self.entry_dir(key);
        let Ok(manifest) = Manifest::load(&dir) else {
            return false;
        };
        if manifest.fingerprint != format!("{:016x}", key_fingerprint(key))
            || manifest.key != key_json(key)
        {
            return false;
        }
        fs::metadata(dir.join(&manifest.trace_file))
            .is_ok_and(|meta| meta.len() == manifest.trace_bytes)
    }

    fn tmp_path(&self) -> PathBuf {
        self.root.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// Runs `spec` with a streaming store writer attached and commits
    /// the trace + manifest into `spec.key`'s entry. Timing and report
    /// are identical to an untraced run; artifact I/O failures are
    /// counted ([`RunDirStats::errors`]) and absorbed.
    ///
    /// # Errors
    ///
    /// [`RunFailure::Stall`] exactly when the untraced run would stall
    /// (the partial artifact is removed).
    pub fn run_recorded(&self, spec: &RunSpec) -> Result<FabricReport, RunFailure> {
        let tmp = self.tmp_path();
        let file = match crate::iofault::create_file(&tmp) {
            Ok(file) => file,
            Err(_) => {
                // Cannot even open a temp file: run untraced, same result.
                self.errors.fetch_add(1, Ordering::Relaxed);
                return spec.system.try_run(&spec.placement, &spec.plan);
            }
        };
        let mut writer = TraceStoreWriter::new(io::BufWriter::new(file));
        let report = match spec
            .system
            .try_run_with_sink(&spec.placement, &spec.plan, &mut writer)
        {
            Ok(report) => report,
            Err(failure) => {
                drop(writer);
                let _ = fs::remove_file(&tmp);
                return Err(failure);
            }
        };
        let summary = match writer.finalize(report.metrics.events, report.packets) {
            Ok((_out, summary)) => summary,
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                let _ = fs::remove_file(&tmp);
                return Ok(report);
            }
        };
        let dir = self.entry_dir(&spec.key);
        let manifest = manifest_json(&spec.key, &report, &summary);
        let committed = fs::create_dir_all(&dir)
            .and_then(|()| crate::iofault::rename(&tmp, dir.join(TRACE_FILE)))
            .and_then(|()| {
                crate::iofault::write_atomic(&self.tmp_path(), &dir.join(MANIFEST_FILE), &manifest)
            });
        match committed {
            Ok(()) => {
                self.written.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                let _ = fs::remove_file(&tmp);
            }
        }
        Ok(report)
    }
}

// ---- manifests ----------------------------------------------------------

/// The canonical one-line manifest linking a run's identity, metrics
/// digest and trace file. Purely deterministic (floats as IEEE bits),
/// so serial, parallel and cached runs of one [`RunKey`] write
/// byte-identical manifests.
fn manifest_json(key: &RunKey, report: &FabricReport, summary: &StoreSummary) -> String {
    let stall_cycles: u64 = report
        .metrics
        .per_spe
        .iter()
        .map(crate::metrics::SpeMetrics::stall_cycles)
        .sum();
    let mut w = Writer::with_capacity(768);
    w.begin_object()
        .key("schema")
        .u64(MANIFEST_SCHEMA)
        .key("fingerprint")
        .hex(key_fingerprint(key), false)
        .key("config")
        .hex(key.config, true)
        .key("faults")
        .hex(key.faults, true)
        .key("key");
    write_key(&mut w, key);
    w.key("metrics")
        .begin_object()
        .key("cycles")
        .u64(report.cycles)
        .key("total_bytes")
        .u64(report.total_bytes)
        .key("events")
        .u64(report.metrics.events)
        .key("packets")
        .u64(report.packets)
        .key("abandoned")
        .u64(report.metrics.faults.abandoned_packets)
        .key("aggregate_gbps_bits")
        .u64(report.aggregate_gbps.to_bits())
        .key("stall_cycles")
        .u64(stall_cycles)
        .key("dominant_stall")
        .str(report.metrics.dominant_stall().0)
        .end_object()
        .key("trace")
        .begin_object()
        .key("file")
        .str(TRACE_FILE)
        .key("bytes")
        .u64(summary.bytes)
        .key("events")
        .u64(summary.events)
        .key("checksum")
        .hex(summary.checksum, false)
        .end_object()
        .end_object();
    let mut text = w.finish();
    text.push('\n');
    text
}

/// A parsed run manifest: the identity/metrics half of an artifact
/// entry, everything `cellsim-trace` needs without decoding the store.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// 16-hex [`key_fingerprint`] — the entry directory's name.
    pub fingerprint: String,
    /// Canonical one-line key JSON (full run identity).
    pub key: String,
    /// Workload pattern, e.g. `"cycle"`.
    pub pattern: String,
    /// Active SPEs.
    pub spes: u64,
    /// Payload bytes per SPE.
    pub volume: u64,
    /// DMA element size.
    pub elem: u64,
    /// Run length in bus cycles.
    pub cycles: u64,
    /// Total payload bytes delivered.
    pub total_bytes: u64,
    /// Simulation events processed
    /// ([`FabricMetrics::events`](crate::FabricMetrics::events)).
    pub events: u64,
    /// Bus packets delivered ([`FabricReport::packets`]).
    pub packets: u64,
    /// Packets abandoned by fault-plan retry exhaustion.
    pub abandoned: u64,
    /// Aggregate bandwidth in GB/s (exact IEEE bits round-trip).
    pub aggregate_gbps: f64,
    /// Σ stall cycles over all SPEs.
    pub stall_cycles: u64,
    /// Dominant stall cause name (`"none"` when unstalled).
    pub dominant_stall: String,
    /// Trace file name within the entry directory.
    pub trace_file: String,
    /// Trace file size in bytes.
    pub trace_bytes: u64,
    /// Trace records in the store.
    pub trace_events: u64,
    /// 16-hex payload checksum of the store.
    pub trace_checksum: String,
}

impl Manifest {
    /// Loads and parses `dir`'s manifest.
    ///
    /// # Errors
    ///
    /// [`TraceStoreError::Io`] when the file cannot be read,
    /// [`TraceStoreError::Corrupt`] when it is not UTF-8 or does not
    /// parse as a schema-1 manifest.
    pub fn load(dir: &Path) -> Result<Manifest, TraceStoreError> {
        let path = dir.join(MANIFEST_FILE);
        let bytes = crate::iofault::read(&path)?;
        std::str::from_utf8(&bytes)
            .ok()
            .and_then(Manifest::parse)
            .ok_or_else(|| corrupt(format!("unreadable manifest {}", path.display())))
    }

    /// Reads a manifest in one pass, its members in the order
    /// [`manifest_json`] writes them. The embedded key is kept verbatim;
    /// the members a [`Manifest`] shows are looked up inside it by name.
    fn parse(text: &str) -> Option<Manifest> {
        let mut r = Reader::new(text);
        r.begin_object().ok()?;
        if member_u64(&mut r, "schema")? != MANIFEST_SCHEMA {
            return None;
        }
        let fingerprint = member_str(&mut r, "fingerprint")?;
        member_str(&mut r, "config")?;
        member_str(&mut r, "faults")?;
        r.member("key").ok()?;
        let key = r.raw().ok()?;
        let (mut pattern, mut spes, mut volume, mut elem) = (None, None, None, None);
        let mut k = Reader::new(key);
        k.begin_object().ok()?;
        while let Some(name) = k.next_key().ok()? {
            match &*name {
                "pattern" => pattern = Some(k.str().ok()?.into_owned()),
                "spes" => spes = Some(k.u64().ok()?),
                "volume" => volume = Some(k.u64().ok()?),
                "elem" => elem = Some(k.u64().ok()?),
                _ => {
                    k.raw().ok()?;
                }
            }
        }
        r.member("metrics").ok()?;
        r.begin_object().ok()?;
        let cycles = member_u64(&mut r, "cycles")?;
        let total_bytes = member_u64(&mut r, "total_bytes")?;
        let events = member_u64(&mut r, "events")?;
        let packets = member_u64(&mut r, "packets")?;
        let abandoned = member_u64(&mut r, "abandoned")?;
        let aggregate_gbps = f64::from_bits(member_u64(&mut r, "aggregate_gbps_bits")?);
        let stall_cycles = member_u64(&mut r, "stall_cycles")?;
        let dominant_stall = member_str(&mut r, "dominant_stall")?;
        r.end_object().ok()?;
        r.member("trace").ok()?;
        r.begin_object().ok()?;
        let trace_file = member_str(&mut r, "file")?;
        let trace_bytes = member_u64(&mut r, "bytes")?;
        let trace_events = member_u64(&mut r, "events")?;
        let trace_checksum = member_str(&mut r, "checksum")?;
        r.end_object().ok()?;
        r.end_object().ok()?;
        r.finish().ok()?;
        Some(Manifest {
            fingerprint,
            key: key.to_string(),
            pattern: pattern?,
            spes: spes?,
            volume: volume?,
            elem: elem?,
            cycles,
            total_bytes,
            events,
            packets,
            abandoned,
            aggregate_gbps,
            stall_cycles,
            dominant_stall,
            trace_file,
            trace_bytes,
            trace_events,
            trace_checksum,
        })
    }
}

/// The next member of `r`'s object, which must be `name` holding a
/// canonical unsigned integer.
fn member_u64(r: &mut Reader<'_>, name: &str) -> Option<u64> {
    r.member(name).ok()?;
    r.u64().ok()
}

/// The next member of `r`'s object, which must be `name` holding a
/// string.
fn member_str(r: &mut Reader<'_>, name: &str) -> Option<String> {
    r.member(name).ok()?;
    r.str().ok().map(std::borrow::Cow::into_owned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CellSystem;
    use crate::exec::Workload;
    use crate::placement::Placement;
    use crate::plan::{SyncPolicy, TransferPlan};
    use std::sync::Arc;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cellsim-ts-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn record_to_vec(plan: &TransferPlan) -> (FabricReport, Vec<u8>) {
        let system = CellSystem::blade();
        let mut writer = TraceStoreWriter::new(Vec::new());
        let report = system
            .try_run_with_sink(&Placement::identity(), plan, &mut writer)
            .unwrap();
        let (bytes, summary) = writer
            .finalize(report.metrics.events, report.packets)
            .unwrap();
        assert_eq!(summary.bytes, bytes.len() as u64);
        (report, bytes)
    }

    fn two_spe_plan() -> TransferPlan {
        TransferPlan::builder()
            .get_from_memory(0, 256 << 10, 4096, SyncPolicy::AfterAll)
            .put_to_memory(1, 128 << 10, 4096, SyncPolicy::AfterAll)
            .build()
            .unwrap()
    }

    #[test]
    fn store_round_trips_and_conserves_against_the_report() {
        let (report, bytes) = record_to_vec(&two_spe_plan());
        let store = TraceStore::from_bytes(bytes).unwrap();
        let totals = store.totals();
        // Conservation by construction: deliver events == packets,
        // delivered bytes == total bytes, embedded sim counters match.
        assert_eq!(totals.delivered, report.packets);
        assert_eq!(totals.delivered_bytes, report.total_bytes);
        assert_eq!(totals.sim_events, report.metrics.events);
        assert_eq!(totals.packets, report.packets);
        assert_eq!(totals.issued, report.packets);
        // (256 + 128) KiB / 128 B = 3072 packets; multiple index blocks.
        assert_eq!(report.packets, 3072);
        assert!(store.block_count() >= 2, "expected multi-block store");
        // The trailer agrees with a ground-truth full decode.
        let (counts, delivered_bytes) = store.recount().unwrap();
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
    }

    #[test]
    fn filtered_queries_match_brute_force() {
        let (_, bytes) = record_to_vec(&two_spe_plan());
        let store = TraceStore::from_bytes(bytes).unwrap();
        let mut all = Vec::new();
        store
            .for_each(&TraceFilter::default(), |e| {
                all.push(*e);
                Ok(())
            })
            .unwrap();
        assert!(all.windows(2).all(|w| w[0].at <= w[1].at), "time-ordered");
        let mid = all[all.len() / 2].at;
        let filters = [
            TraceFilter {
                spe: Some(1),
                ..TraceFilter::default()
            },
            TraceFilter {
                kind: Some(TraceKind::Deliver),
                ..TraceFilter::default()
            },
            TraceFilter {
                path: Some(DmaPathClass::MemPut),
                ..TraceFilter::default()
            },
            TraceFilter {
                spe: Some(0),
                kind: Some(TraceKind::Mem),
                cycle_from: Some(mid),
                ..TraceFilter::default()
            },
            TraceFilter {
                cycle_from: Some(mid),
                cycle_to: Some(mid + 1000),
                ..TraceFilter::default()
            },
        ];
        for filter in filters {
            let mut got = Vec::new();
            store
                .for_each(&filter, |e| {
                    got.push(*e);
                    Ok(())
                })
                .unwrap();
            let want: Vec<StoreEvent> = all.iter().copied().filter(|e| filter.admits(e)).collect();
            assert_eq!(got, want, "filter {filter:?}");
            assert!(!want.is_empty(), "degenerate filter {filter:?}");
        }
    }

    #[test]
    fn mem_put_delivered_events_record_at_retirement() {
        // A mem-PUT retires when its DRAM write completes, after wire
        // delivery; the store's deliver count must equal packets anyway.
        let plan = TransferPlan::builder()
            .put_to_memory(0, 64 << 10, 4096, SyncPolicy::AfterAll)
            .build()
            .unwrap();
        let (report, bytes) = record_to_vec(&plan);
        let store = TraceStore::from_bytes(bytes).unwrap();
        assert_eq!(store.totals().delivered, report.packets);
        assert_eq!(store.totals().delivered_bytes, report.total_bytes);
        // Every path is mem-put.
        let mut n = 0u64;
        store
            .for_each(
                &TraceFilter {
                    path: Some(DmaPathClass::MemPut),
                    ..TraceFilter::default()
                },
                |_| {
                    n += 1;
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(n, store.totals().events);
    }

    #[test]
    fn corruption_yields_typed_errors_never_panics() {
        let (_, bytes) = record_to_vec(&two_spe_plan());
        // Truncations at every suffix length of interest.
        for cut in [0, 4, HEADER_BYTES, bytes.len() / 2, bytes.len() - 1] {
            let err = TraceStore::from_bytes(bytes[..cut].to_vec()).unwrap_err();
            assert!(
                matches!(err, TraceStoreError::Corrupt { .. }),
                "cut={cut} gave {err}"
            );
        }
        // A flipped payload bit fails the payload checksum.
        let mut flipped = bytes.clone();
        flipped[HEADER_BYTES + 1] ^= 0x40;
        assert!(matches!(
            TraceStore::from_bytes(flipped).unwrap_err(),
            TraceStoreError::Corrupt { .. }
        ));
        // A flipped index bit fails the index checksum.
        let mut flipped = bytes.clone();
        let n = flipped.len();
        flipped[n - TRAILER_BYTES - 4] ^= 0x01;
        assert!(matches!(
            TraceStore::from_bytes(flipped).unwrap_err(),
            TraceStoreError::Corrupt { .. }
        ));
        // A future schema version is refused as such.
        let mut future = bytes.clone();
        future[4] = 99;
        assert!(matches!(
            TraceStore::from_bytes(future).unwrap_err(),
            TraceStoreError::Schema {
                found: 99,
                expected: STORE_SCHEMA
            }
        ));
        // Garbage is corrupt, not a panic.
        assert!(TraceStore::from_bytes(vec![0u8; 400]).is_err());
        assert!(TraceStore::from_bytes(Vec::new()).is_err());
    }

    #[test]
    fn run_dir_records_completes_and_self_heals() {
        let root = tmp_dir("rundir");
        let rundir = RunDir::create(&root).unwrap();
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
        assert!(!rundir.is_complete(&spec.key), "cold dir has no artifact");
        let report = rundir.run_recorded(&spec).unwrap();
        assert_eq!(
            report,
            system.try_run(&Placement::identity(), &plan).unwrap()
        );
        assert!(rundir.is_complete(&spec.key));
        assert_eq!(rundir.stats().written, 1);

        let dir = rundir.entry_dir(&spec.key);
        let manifest = Manifest::load(&dir).unwrap();
        assert_eq!(manifest.packets, report.packets);
        assert_eq!(manifest.events, report.metrics.events);
        assert_eq!(manifest.pattern, "mem-get");
        assert_eq!(
            manifest.aggregate_gbps.to_bits(),
            report.aggregate_gbps.to_bits()
        );
        let store = TraceStore::open(&dir.join(TRACE_FILE)).unwrap();
        assert_eq!(store.totals().delivered, report.packets);
        assert_eq!(
            format!("{:016x}", store.totals().packets),
            format!("{:016x}", manifest.packets)
        );

        // Removing the trace file de-completes the entry; re-recording
        // heals it with byte-identical artifacts.
        let before_trace = fs::read(dir.join(TRACE_FILE)).unwrap();
        let before_manifest = fs::read(dir.join(MANIFEST_FILE)).unwrap();
        fs::remove_file(dir.join(TRACE_FILE)).unwrap();
        assert!(!rundir.is_complete(&spec.key));
        let _ = rundir.run_recorded(&spec).unwrap();
        assert!(rundir.is_complete(&spec.key));
        assert_eq!(fs::read(dir.join(TRACE_FILE)).unwrap(), before_trace);
        assert_eq!(fs::read(dir.join(MANIFEST_FILE)).unwrap(), before_manifest);

        // A manifest that is not UTF-8 is corrupt, not an I/O error, and
        // de-completes the entry; a missing one is an I/O error.
        let mut bytes = before_manifest.clone();
        let mid = bytes.len() / 2;
        bytes[mid] = 0xFF;
        fs::write(dir.join(MANIFEST_FILE), &bytes).unwrap();
        assert!(matches!(
            Manifest::load(&dir),
            Err(TraceStoreError::Corrupt { .. })
        ));
        assert!(!rundir.is_complete(&spec.key));
        fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();
        assert!(matches!(Manifest::load(&dir), Err(TraceStoreError::Io(_))));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn chrome_export_is_a_projection_of_the_store() {
        let plan = TransferPlan::builder()
            .get_from_memory(0, 16 << 10, 4096, SyncPolicy::AfterAll)
            .build()
            .unwrap();
        let (report, bytes) = record_to_vec(&plan);
        let store = TraceStore::from_bytes(bytes).unwrap();
        let mut out = Vec::new();
        store
            .export_chrome(&MachineClock::default(), &mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("{\"traceEvents\":[\n"));
        assert!(text.ends_with("\n]}\n"));
        assert!(text.contains("\"args\":{\"name\":\"EIB rings\"}"));
        let delivers = text.matches("\"name\":\"deliver\"").count() as u64;
        assert_eq!(delivers, report.packets);
    }
}
