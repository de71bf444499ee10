//! The MFC DMA engine: command queue, unroller, outstanding budget.

use std::fmt;

use cellsim_faults::{MfcFaults, RetryPolicy};
use cellsim_kernel::Cycle;
use cellsim_mem::RegionId;

use crate::command::{
    CommandLifecycle, DmaCommand, DmaError, DmaKind, EffectiveAddr, ElementLifecycle, LsAddr,
    TargetClass,
};
use crate::list::DmaListCommand;
use crate::tag::{TagId, TagSet};

/// Why an [`MfcConfig`] cannot build an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `queue_depth` is zero.
    ZeroQueueDepth,
    /// `max_outstanding_packets` is zero.
    ZeroOutstandingBudget,
    /// `packet_bytes` is zero.
    ZeroPacketBytes,
    /// `queue_depth` exceeds [`MAX_QUEUE_DEPTH`].
    QueueTooDeep,
}

/// Deepest command queue an engine accepts: the issue scan keeps one bit
/// per queue position in a `u64`. The CBE's queue has 16 entries.
pub const MAX_QUEUE_DEPTH: usize = u64::BITS as usize;

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroQueueDepth => write!(f, "MFC queue depth must be non-zero"),
            ConfigError::ZeroOutstandingBudget => {
                write!(f, "MFC outstanding-packet budget must be non-zero")
            }
            ConfigError::ZeroPacketBytes => write!(f, "MFC packet size must be non-zero"),
            ConfigError::QueueTooDeep => {
                write!(f, "MFC queue depth must be at most {MAX_QUEUE_DEPTH}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// The engine's answer to a NACKed in-flight packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NackVerdict {
    /// Back off and re-attempt the access at `at`.
    Retry {
        /// Earliest cycle the retry may be attempted.
        at: Cycle,
        /// Which retry this is for the owning command (1-based).
        attempt: u32,
    },
    /// The owning command's retry budget is spent; the packet must be
    /// abandoned via [`MfcEngine::packet_abandoned`]. Carries the typed
    /// error for reporting.
    Exhausted(DmaError),
}

/// Structural parameters of one MFC. Times are bus cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MfcConfig {
    /// SPU command-queue depth (16 on the CBE).
    pub queue_depth: usize,
    /// Bus packets the MFC's bus interface keeps in flight. Together with
    /// the memory round-trip latency this bounds a single SPE's memory
    /// bandwidth (Little's law) — the paper's 10 GB/s single-SPE ceiling.
    pub max_outstanding_packets: usize,
    /// Bus packet payload (128 B on the CBE).
    pub packet_bytes: u32,
    /// Minimum cycles between packet issues.
    pub issue_interval: u64,
    /// Decode/startup cycles paid once per queued command. Dominates
    /// small DMA-elem transfers; amortized away by DMA lists.
    pub command_startup: u64,
    /// Extra cycles when the unroller advances to the next list element
    /// (list-element fetch from Local Store).
    pub list_element_overhead: u64,
}

impl Default for MfcConfig {
    fn default() -> Self {
        MfcConfig {
            queue_depth: 16,
            max_outstanding_packets: 8,
            packet_bytes: 128,
            issue_interval: 1,
            command_startup: 24,
            list_element_overhead: 2,
        }
    }
}

/// Opaque identifier of an issued packet; hand it back via
/// [`MfcEngine::packet_delivered`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketToken(pub u64);

/// A bus packet produced by the unroller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketOut {
    /// Identifier to report delivery with.
    pub token: PacketToken,
    /// Direction (from the initiating SPE's point of view).
    pub kind: DmaKind,
    /// Local Store side of this packet.
    pub ls: LsAddr,
    /// Effective-address side of this packet.
    pub ea: EffectiveAddr,
    /// Payload bytes (≤ `packet_bytes`).
    pub bytes: u32,
    /// Tag group of the owning command.
    pub tag: TagId,
}

/// Result of asking the engine for its next packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Issue {
    /// A packet was issued; route it through the bus and report delivery.
    Packet(PacketOut),
    /// Nothing can issue before `retry_at` (startup window or pacing).
    Stalled {
        /// Earliest cycle at which issuing may succeed.
        retry_at: Cycle,
    },
    /// The outstanding-packet budget is exhausted (or everything queued is
    /// already in flight); retry after the next delivery.
    Blocked,
    /// The command queue is empty.
    Idle,
}

/// Aggregate counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MfcStats {
    /// Commands accepted into the queue.
    pub commands: u64,
    /// Commands fully completed.
    pub completed: u64,
    /// Packets issued.
    pub packets: u64,
    /// Payload bytes fully delivered.
    pub bytes_delivered: u64,
}

#[derive(Debug)]
enum Work {
    Elem(DmaCommand),
    List(DmaListCommand),
}

impl Work {
    #[inline]
    fn kind(&self) -> DmaKind {
        match self {
            Work::Elem(c) => c.kind(),
            Work::List(l) => l.kind(),
        }
    }
    #[inline]
    fn tag(&self) -> TagId {
        match self {
            Work::Elem(c) => c.tag(),
            Work::List(l) => l.tag(),
        }
    }
    #[inline]
    fn fence(&self) -> bool {
        match self {
            Work::Elem(c) => c.fence(),
            Work::List(l) => l.fence(),
        }
    }
    #[inline]
    fn element_count(&self) -> usize {
        match self {
            Work::Elem(_) => 1,
            Work::List(l) => l.elements().len(),
        }
    }
    #[inline]
    fn target(&self) -> TargetClass {
        match self {
            Work::Elem(c) => TargetClass::from(&c.ea()),
            Work::List(l) => TargetClass::from(&l.ea_base()),
        }
    }
    /// (effective address, size) of element `idx`.
    #[inline]
    fn element(&self, idx: usize) -> (EffectiveAddr, u32) {
        match self {
            Work::Elem(c) => (c.ea(), c.bytes()),
            Work::List(l) => {
                let el = l.elements()[idx];
                (l.ea_base().advanced(el.ea_offset), el.bytes)
            }
        }
    }
    #[inline]
    fn ls_base(&self) -> LsAddr {
        match self {
            Work::Elem(c) => c.ls(),
            Work::List(l) => l.ls(),
        }
    }
}

/// The cold state of a command slot: unroll cursors and lifecycle
/// stamps, touched only once the command is picked or a packet of it
/// moves. A slot is filled in place when a command is admitted into it
/// and keeps the command's record after completion, until the next
/// admission into the slot refills it.
#[derive(Debug)]
struct ActiveCommand {
    work: Work,
    /// Element currently being unrolled.
    elem_idx: usize,
    /// Bytes of the current element already issued.
    byte_in_elem: u64,
    /// Running Local Store cursor (elements pack contiguously).
    ls_cursor: u32,
    /// Packets issued but not yet delivered.
    in_flight: u32,
    /// Lifecycle stamps accumulated while the command is in the queue,
    /// read in place after completion (see [`MfcEngine::last_completed`]).
    life: CommandLifecycle,
}

impl ActiveCommand {
    /// A slot before its first admission; [`ActiveCommand::fill`]
    /// overwrites every field.
    fn vacant() -> ActiveCommand {
        let tag = TagId::new(0).expect("tag 0 is valid");
        let ea = EffectiveAddr::Memory {
            region: RegionId(0),
            offset: 0,
        };
        let work = Work::Elem(
            DmaCommand::new(DmaKind::Get, LsAddr(0), ea, 16, tag).expect("a valid 16-byte GET"),
        );
        ActiveCommand {
            work,
            elem_idx: 0,
            byte_in_elem: 0,
            ls_cursor: 0,
            in_flight: 0,
            life: CommandLifecycle {
                kind: DmaKind::Get,
                target: TargetClass::Memory,
                bytes: 0,
                elements: 0,
                packets: 0,
                enqueued_at: Cycle::ZERO,
                decoded_at: Cycle::ZERO,
                first_issue_at: Cycle::ZERO,
                last_issue_at: Cycle::ZERO,
                first_grant_at: Cycle::ZERO,
                last_grant_at: Cycle::ZERO,
                packets_granted: 0,
                eib_wait_cycles: 0,
                bank_service_cycles: 0,
                completed_at: Cycle::ZERO,
                nacks: 0,
                retries: 0,
                retry_backoff_cycles: 0,
                exhausted: false,
                element_records: Vec::new(),
            },
        }
    }

    /// Admits `work` into this slot: the one reset rule. Every cursor and
    /// stamp is written (the destructuring names every lifecycle field,
    /// so a new field cannot be missed), and the element-record buffer
    /// keeps its allocation.
    #[inline]
    fn fill(&mut self, work: Work, enqueued: Cycle, decoded: Cycle) {
        let CommandLifecycle {
            kind,
            target,
            bytes,
            elements,
            packets,
            enqueued_at,
            decoded_at,
            first_issue_at,
            last_issue_at,
            first_grant_at,
            last_grant_at,
            packets_granted,
            eib_wait_cycles,
            bank_service_cycles,
            completed_at,
            nacks,
            retries,
            retry_backoff_cycles,
            exhausted,
            element_records,
        } = &mut self.life;
        let pending = |bytes| ElementLifecycle {
            bytes,
            first_issue_at: Cycle::ZERO,
            completed_at: Cycle::ZERO,
        };
        element_records.clear();
        *bytes = match &work {
            Work::Elem(c) => {
                element_records.push(pending(c.bytes()));
                u64::from(c.bytes())
            }
            Work::List(l) => {
                element_records.extend(l.elements().iter().map(|e| pending(e.bytes)));
                l.elements().iter().map(|e| u64::from(e.bytes)).sum()
            }
        };
        *kind = work.kind();
        *target = work.target();
        *elements = u32::try_from(work.element_count()).expect("list length fits u32");
        *packets = 0;
        *enqueued_at = enqueued;
        *decoded_at = decoded;
        *first_issue_at = Cycle::ZERO;
        *last_issue_at = Cycle::ZERO;
        *first_grant_at = Cycle::ZERO;
        *last_grant_at = Cycle::ZERO;
        *packets_granted = 0;
        *eib_wait_cycles = 0;
        *bank_service_cycles = 0;
        *completed_at = Cycle::ZERO;
        *nacks = 0;
        *retries = 0;
        *retry_backoff_cycles = 0;
        *exhausted = false;
        self.elem_idx = 0;
        self.byte_in_elem = 0;
        self.ls_cursor = work.ls_base().0;
        self.in_flight = 0;
        self.work = work;
    }

    #[inline]
    fn fully_issued(&self) -> bool {
        self.elem_idx >= self.work.element_count()
    }
}

/// The hot state of a queued command: everything the round-robin issue
/// scan reads, in queue (submit) order. Whether the command may issue at
/// all is kept beside the queue, one bit per position
/// (`MfcEngine::candidates`).
#[derive(Debug, Clone, Copy)]
struct QueueEntry {
    /// Gate before the first (or next list-element) packet may issue.
    ready_at: Cycle,
    /// Index of the command's cold state in `MfcEngine::commands`.
    slot: u32,
    tag: TagId,
}

#[derive(Debug, Clone, Copy)]
struct PacketMeta {
    /// Index of the owning command in `MfcEngine::commands`.
    cmd: u32,
    bytes: u32,
    /// List element the packet was carved from (0 for DMA-elem).
    elem_idx: u32,
}

/// Packet tokens name their slot in the in-flight table in the low 32
/// bits and an issue serial in the high bits, so a stale token never
/// matches the slot's next occupant.
const TOKEN_SLOT_BITS: u32 = 32;

/// A free in-flight table slot holds this token.
const FREE_SLOT: u64 = u64::MAX;

/// One SPE's Memory Flow Controller.
///
/// The engine is a passive state machine driven by an outer event loop:
/// [`MfcEngine::enqueue`] admits commands, [`MfcEngine::try_issue`]
/// produces bus packets, and [`MfcEngine::packet_delivered`] retires them.
/// See the [crate-level example](crate).
#[derive(Debug)]
pub struct MfcEngine {
    cfg: MfcConfig,
    /// Queued commands in submit order (at most `queue_depth`).
    queue: Vec<QueueEntry>,
    /// Bit `i` set ⇔ the command at queue position `i` has packets left
    /// and is not fence-held (an older command of its tag group is still
    /// queued): the commands the issue scan visits.
    candidates: u64,
    /// Bit `i` set ⇔ the command at queue position `i` has packets but
    /// has issued none yet. Decode is serial, so these commands' gates
    /// rise with queue position.
    fresh: u64,
    /// Cold command state, indexed by `QueueEntry::slot`; a slot not in
    /// `queue` is free and still holds its last command's record.
    commands: Vec<ActiveCommand>,
    free_commands: Vec<u32>,
    /// In-flight packets, indexed by the slot their token names; a free
    /// slot holds [`FREE_SLOT`] as its token.
    packets: Vec<(u64, PacketMeta)>,
    free_packets: Vec<u32>,
    /// Queued commands per tag group: a command is retained from
    /// admission to completion.
    tags: TagSet,
    outstanding: usize,
    next_issue: Cycle,
    /// The single command decoder: commands decode serially, pipelined
    /// with packet issue from already-decoded commands.
    decoder_free: Cycle,
    /// Round-robin pointer so the unroller interleaves ready commands
    /// (the real MFC selects among queued commands — this is what lets a
    /// get and a put stream run concurrently).
    rr: usize,
    next_token: u64,
    stats: MfcStats,
    /// Time-weighted outstanding-slot histogram: `occupancy[k]` is how
    /// many cycles exactly `k` packets were in flight. Bucket
    /// `max_outstanding_packets` saturated time is the Little's-law
    /// signature of the single-SPE bandwidth ceiling.
    occupancy: Vec<u64>,
    /// Cycle since which `outstanding` has held its current value.
    occ_since: Cycle,
    /// Slot of the most recently completed command while its record is
    /// still in place: cleared when [`MfcEngine::take_completed`] moves
    /// the record out or an admission refills the slot.
    completed_slot: Option<u32>,
    /// Degraded-mode behaviour (slot-count reduction, queue stalls).
    faults: MfcFaults,
    /// NACK retry policy (budget + backoff).
    retry: RetryPolicy,
}

impl MfcEngine {
    /// Creates an idle engine.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration has a zero queue
    /// depth, outstanding budget, or packet size, or a queue deeper than
    /// [`MAX_QUEUE_DEPTH`].
    pub fn new(cfg: MfcConfig) -> Result<MfcEngine, ConfigError> {
        MfcEngine::with_faults(cfg, MfcFaults::default(), RetryPolicy::default())
    }

    /// Creates an idle engine with degraded-mode behaviour installed.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] under the same conditions as
    /// [`MfcEngine::new`].
    pub fn with_faults(
        cfg: MfcConfig,
        faults: MfcFaults,
        retry: RetryPolicy,
    ) -> Result<MfcEngine, ConfigError> {
        if cfg.queue_depth == 0 {
            return Err(ConfigError::ZeroQueueDepth);
        }
        if cfg.queue_depth > MAX_QUEUE_DEPTH {
            return Err(ConfigError::QueueTooDeep);
        }
        if cfg.max_outstanding_packets == 0 {
            return Err(ConfigError::ZeroOutstandingBudget);
        }
        if cfg.packet_bytes == 0 {
            return Err(ConfigError::ZeroPacketBytes);
        }
        Ok(MfcEngine {
            cfg,
            queue: Vec::with_capacity(cfg.queue_depth),
            candidates: 0,
            fresh: 0,
            commands: Vec::new(),
            free_commands: Vec::new(),
            packets: Vec::new(),
            free_packets: Vec::new(),
            tags: TagSet::new(),
            outstanding: 0,
            next_issue: Cycle::ZERO,
            decoder_free: Cycle::ZERO,
            rr: 0,
            next_token: 0,
            stats: MfcStats::default(),
            occupancy: vec![0; cfg.max_outstanding_packets + 1],
            occ_since: Cycle::ZERO,
            completed_slot: None,
            faults,
            retry,
        })
    }

    /// The outstanding-packet budget currently in force: the configured
    /// budget, clipped by a fault-plan slot limit when one is installed.
    #[inline]
    pub fn slot_budget(&self) -> usize {
        match self.faults.slot_limit {
            Some(limit) => (limit as usize).min(self.cfg.max_outstanding_packets),
            None => self.cfg.max_outstanding_packets,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &MfcConfig {
        &self.cfg
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &MfcStats {
        &self.stats
    }

    /// Commands currently occupying queue entries.
    #[inline]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether another command can be enqueued.
    #[inline]
    pub fn has_space(&self) -> bool {
        self.queue.len() < self.cfg.queue_depth
    }

    /// Whether the engine has no queued commands and no packets in flight.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.outstanding == 0
    }

    /// Tag-group status (for wait/sync decisions).
    #[inline]
    pub fn tags(&self) -> &TagSet {
        &self.tags
    }

    /// Packets currently in flight on the bus.
    #[inline]
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Time-weighted outstanding-slot histogram: entry `k` is how many
    /// cycles exactly `k` packets were in flight. Counts are exact up to
    /// the last issue/delivery; call [`MfcEngine::flush_occupancy`] at the
    /// end of a run to account the final interval.
    pub fn occupancy_cycles(&self) -> &[u64] {
        &self.occupancy
    }

    /// Accounts the interval since the last occupancy change up to `now`.
    /// Idempotent; later issues/deliveries continue from `now`.
    pub fn flush_occupancy(&mut self, now: Cycle) {
        self.note_occupancy(now);
    }

    #[inline]
    fn note_occupancy(&mut self, now: Cycle) {
        let dt = now.saturating_since(self.occ_since);
        self.occupancy[self.outstanding] += dt;
        self.occ_since = self.occ_since.max(now);
    }

    /// Admits a single-chunk (DMA-elem) command.
    ///
    /// # Errors
    ///
    /// Returns [`DmaError::QueueFull`] when all queue entries are occupied
    /// (a command occupies its entry until its last packet is delivered,
    /// as on the real part).
    #[inline]
    pub fn enqueue(&mut self, now: Cycle, cmd: DmaCommand) -> Result<(), DmaError> {
        self.admit(now, Work::Elem(cmd))
    }

    /// Admits a DMA-list command.
    ///
    /// # Errors
    ///
    /// Returns [`DmaError::QueueFull`] when all queue entries are occupied.
    #[inline]
    pub fn enqueue_list(&mut self, now: Cycle, cmd: DmaListCommand) -> Result<(), DmaError> {
        self.admit(now, Work::List(cmd))
    }

    #[inline]
    fn admit(&mut self, now: Cycle, work: Work) -> Result<(), DmaError> {
        if !self.has_space() {
            return Err(DmaError::QueueFull);
        }
        let tag = work.tag();
        // A fenced command waits while an older command of its tag group
        // is queued.
        let held = work.fence() && self.tags.is_pending(tag);
        self.tags.retain(tag);
        // Decode is serialized across commands but pipelined with issue.
        let decoded = now.max(self.decoder_free) + self.cfg.command_startup;
        self.decoder_free = decoded;
        if work.element_count() > 0 {
            let bit = 1 << self.queue.len();
            self.fresh |= bit;
            if !held {
                self.candidates |= bit;
            }
        }
        let slot = match self.free_commands.pop() {
            Some(slot) => slot,
            None => {
                self.commands.push(ActiveCommand::vacant());
                u32::try_from(self.commands.len() - 1).expect("queue depth fits u32")
            }
        };
        if self.completed_slot == Some(slot) {
            self.completed_slot = None;
        }
        self.commands[slot as usize].fill(work, now, decoded);
        self.queue.push(QueueEntry {
            ready_at: decoded,
            slot,
            tag,
        });
        self.stats.commands += 1;
        Ok(())
    }

    /// Produces the next bus packet if structural resources allow.
    #[inline]
    pub fn try_issue(&mut self, now: Cycle) -> Issue {
        if let Some(refused) = self.issue_refused(now) {
            return refused;
        }
        match self.pick(now) {
            Ok(pos) => self.issue_from(pos, now),
            Err(gate) => Self::no_pick(gate),
        }
    }

    /// The answer when the engine cannot issue at `now` whatever its
    /// queue holds: empty queue, stall window, spent budget or pacing.
    #[inline]
    fn issue_refused(&self, now: Cycle) -> Option<Issue> {
        if self.queue.is_empty() {
            return Some(Issue::Idle);
        }
        // A fault-plan stall window freezes the unroller outright: nothing
        // issues until the longest containing window ends. Checked before
        // the budget so a stalled engine reports a concrete wake-up time.
        if let Some(until) = self.faults.stalled_until(now.as_u64()) {
            return Some(Issue::Stalled {
                retry_at: Cycle::new(until),
            });
        }
        if self.outstanding >= self.slot_budget() {
            return Some(Issue::Blocked);
        }
        if self.next_issue > now {
            return Some(Issue::Stalled {
                retry_at: self.next_issue,
            });
        }
        None
    }

    /// The answer when no queued command may issue: stalled until the
    /// earliest gate of a command still decoding or fetching, or blocked
    /// while everything left is in flight or fence-held.
    #[inline]
    fn no_pick(gate: Option<Cycle>) -> Issue {
        match gate {
            Some(retry_at) => Issue::Stalled { retry_at },
            None => Issue::Blocked,
        }
    }

    /// Round-robin pick: the first candidate whose gate has passed, in
    /// queue order from the pointer, wrapping once. Otherwise the
    /// earliest gate among the candidates, if any.
    ///
    /// The walk visits candidate bits only. A fresh command still
    /// decoding drops every fresh command behind it in queue order: the
    /// decoder is serial, so their gates are no earlier. Its own gate is
    /// folded in, so the earliest gate is exact.
    #[inline]
    fn pick(&self, now: Cycle) -> Result<usize, Option<Cycle>> {
        let start = self.rr % self.queue.len();
        let mut gate: Option<Cycle> = None;
        for half in [!0u64 << start, !(!0u64 << start)] {
            let mut walk = self.candidates & half;
            while walk != 0 {
                let pos = walk.trailing_zeros() as usize;
                walk &= walk - 1;
                let ready_at = self.queue[pos].ready_at;
                if ready_at <= now {
                    return Ok(pos);
                }
                gate = Some(gate.map_or(ready_at, |g| g.min(ready_at)));
                if self.fresh & (1 << pos) != 0 {
                    walk &= !self.fresh;
                }
            }
        }
        Err(gate)
    }

    /// Issues the next packet of the command at queue position `pos`.
    #[inline]
    fn issue_from(&mut self, pos: usize, now: Cycle) -> Issue {
        self.rr = pos + 1;
        let bit = 1 << pos;
        self.fresh &= !bit;
        let entry = &mut self.queue[pos];
        let cmd = &mut self.commands[entry.slot as usize];

        // Carve the next packet out of the current element, splitting on
        // effective-address packet boundaries.
        let (ea_base, elem_bytes) = cmd.work.element(cmd.elem_idx);
        let ea = ea_base.advanced(cmd.byte_in_elem);
        let remaining = u64::from(elem_bytes) - cmd.byte_in_elem;
        let packet_bytes = u64::from(self.cfg.packet_bytes);
        // Only an element's first packet can start off a boundary: every
        // later one starts where a boundary-sized chunk ended.
        let boundary = if cmd.byte_in_elem == 0 {
            packet_bytes - ea.offset() % packet_bytes
        } else {
            packet_bytes
        };
        let chunk = remaining.min(boundary);
        let chunk = u32::try_from(chunk).expect("chunk fits u32");

        let meta = PacketMeta {
            cmd: entry.slot,
            bytes: chunk,
            elem_idx: u32::try_from(cmd.elem_idx).expect("list length fits u32"),
        };
        let slot = match self.free_packets.pop() {
            Some(slot) => slot,
            None => {
                self.packets.push((FREE_SLOT, meta));
                u32::try_from(self.packets.len() - 1).expect("in-flight slots fit u32")
            }
        };
        let token = (self.next_token << TOKEN_SLOT_BITS) | u64::from(slot);
        self.packets[slot as usize] = (token, meta);
        self.next_token += 1;
        let packet = PacketOut {
            token: PacketToken(token),
            kind: cmd.work.kind(),
            ls: LsAddr(cmd.ls_cursor),
            ea,
            bytes: chunk,
            tag: entry.tag,
        };

        if cmd.life.packets == 0 {
            cmd.life.first_issue_at = now;
        }
        cmd.life.last_issue_at = now;
        cmd.life.packets += 1;
        if cmd.byte_in_elem == 0 {
            cmd.life.element_records[cmd.elem_idx].first_issue_at = now;
        }

        cmd.byte_in_elem += u64::from(chunk);
        cmd.ls_cursor += chunk;
        cmd.in_flight += 1;
        if cmd.byte_in_elem >= u64::from(elem_bytes) {
            cmd.elem_idx += 1;
            cmd.byte_in_elem = 0;
            if cmd.fully_issued() {
                self.candidates &= !bit;
            } else {
                // List-element fetch before the next element may issue.
                entry.ready_at = now + self.cfg.list_element_overhead;
            }
        }

        self.note_occupancy(now);
        self.outstanding += 1;
        self.next_issue = now + self.cfg.issue_interval;
        self.stats.packets += 1;
        Issue::Packet(packet)
    }

    /// Retires a delivered packet; returns `true` if this completed the
    /// owning command (its queue entry is then freed and, if it was the
    /// tag group's last work, the tag becomes quiescent).
    ///
    /// # Panics
    ///
    /// Panics if `token` was never issued or is reported twice.
    #[inline]
    pub fn packet_delivered(&mut self, now: Cycle, token: PacketToken) -> bool {
        self.retire_packet(now, token, true)
    }

    /// Retires an in-flight packet whose access was given up on after its
    /// retry budget ran out (see [`MfcEngine::note_nack`]). Identical to
    /// [`MfcEngine::packet_delivered`] except the payload bytes are *not*
    /// credited as delivered and the owning command is marked exhausted —
    /// the queue entry, outstanding slot, and tag group still drain so the
    /// fabric keeps making progress. Returns `true` when this freed the
    /// owning command's queue entry.
    ///
    /// # Panics
    ///
    /// Panics if `token` was never issued or is reported twice.
    #[inline]
    pub fn packet_abandoned(&mut self, now: Cycle, token: PacketToken) -> bool {
        self.retire_packet(now, token, false)
    }

    #[inline]
    fn retire_packet(&mut self, now: Cycle, token: PacketToken, credited: bool) -> bool {
        let slot = self
            .packet_slot(token)
            .expect("unknown or double-delivered packet token");
        let meta = self.packets[slot].1;
        self.packets[slot].0 = FREE_SLOT;
        self.free_packets.push(slot as u32);
        assert!(self.outstanding > 0, "delivery with no packets outstanding");
        self.note_occupancy(now);
        self.outstanding -= 1;
        if credited {
            self.stats.bytes_delivered += u64::from(meta.bytes);
        }
        let cmd = &mut self.commands[meta.cmd as usize];
        cmd.in_flight -= 1;
        if !credited {
            cmd.life.exhausted = true;
        }
        let elem = &mut cmd.life.element_records[meta.elem_idx as usize];
        elem.completed_at = elem.completed_at.max(now);
        if !(cmd.fully_issued() && cmd.in_flight == 0) {
            return false;
        }
        cmd.life.completed_at = now;
        self.completed_slot = Some(meta.cmd);
        self.free_commands.push(meta.cmd);
        let pos = self
            .queue
            .iter()
            .position(|e| e.slot == meta.cmd)
            .expect("completed command is queued");
        let tag = self.queue.remove(pos).tag;
        // Every later command moves down one position, and its bits with
        // it. The completed command's own bits are already clear.
        let below = (1u64 << pos) - 1;
        self.candidates = (self.candidates & below) | ((self.candidates >> 1) & !below);
        self.fresh = (self.fresh & below) | ((self.fresh >> 1) & !below);
        self.tags.release(tag);
        // The queue is in submit order: if no older command of the tag
        // group remains, the group's next command, if any, is now its
        // oldest, and its fence no longer holds it. A held command has
        // issued nothing, so it is fresh.
        if !self.queue[..pos].iter().any(|e| e.tag == tag) {
            if let Some(next) = self.queue[pos..].iter().position(|e| e.tag == tag) {
                self.candidates |= self.fresh & (1 << (pos + next));
            }
        }
        self.stats.completed += 1;
        true
    }

    /// The in-flight table slot `token` names, if the packet is in flight.
    #[inline]
    fn packet_slot(&self, token: PacketToken) -> Option<usize> {
        let slot = (token.0 & ((1 << TOKEN_SLOT_BITS) - 1)) as usize;
        match self.packets.get(slot) {
            Some(&(live, _)) if live == token.0 => Some(slot),
            _ => None,
        }
    }

    /// Records a transient NACK against an in-flight packet and decides
    /// its fate: a bounded-exponential-backoff retry while the owning
    /// command's budget lasts, [`NackVerdict::Exhausted`] once it is
    /// spent. Retry backoff cycles are stamped onto the command's
    /// lifecycle so latency attribution can separate retry time.
    ///
    /// # Panics
    ///
    /// Panics if `token` is not currently in flight.
    #[inline]
    pub fn note_nack(&mut self, now: Cycle, token: PacketToken) -> NackVerdict {
        let (max_retries, policy) = (self.retry.max_retries, self.retry);
        let cmd = self.in_flight_mut(token);
        cmd.life.nacks += 1;
        if cmd.life.retries >= max_retries {
            return NackVerdict::Exhausted(DmaError::RetriesExhausted(cmd.life.retries));
        }
        cmd.life.retries += 1;
        let attempt = cmd.life.retries;
        let delay = policy.backoff(attempt);
        cmd.life.retry_backoff_cycles += delay;
        NackVerdict::Retry {
            at: now + delay,
            attempt,
        }
    }

    /// Records an EIB data-ring grant for an in-flight packet: stamps the
    /// owning command's first/last grant times and accumulates `waited`
    /// cycles of data-arbiter queueing. Call between issue and delivery.
    ///
    /// # Panics
    ///
    /// Panics if `token` is not currently in flight.
    #[inline]
    pub fn note_grant(&mut self, now: Cycle, token: PacketToken, waited: u64) {
        let cmd = self.in_flight_mut(token);
        if cmd.life.packets_granted == 0 {
            cmd.life.first_grant_at = now;
        }
        cmd.life.last_grant_at = cmd.life.last_grant_at.max(now);
        cmd.life.packets_granted += 1;
        cmd.life.eib_wait_cycles += waited;
    }

    /// Accumulates DRAM data-pipe service cycles for an in-flight packet
    /// (its slice of bank busy time). Call between issue and delivery.
    ///
    /// # Panics
    ///
    /// Panics if `token` is not currently in flight.
    #[inline]
    pub fn note_bank_service(&mut self, token: PacketToken, cycles: u64) {
        self.in_flight_mut(token).life.bank_service_cycles += cycles;
    }

    #[inline]
    fn in_flight_mut(&mut self, token: PacketToken) -> &mut ActiveCommand {
        let slot = self.packet_slot(token).expect("packet token not in flight");
        let cmd = self.packets[slot].1.cmd as usize;
        &mut self.commands[cmd]
    }

    /// The lifecycle record of the most recently completed command,
    /// read in place in its queue slot. Call right after
    /// [`MfcEngine::packet_delivered`] or [`MfcEngine::packet_abandoned`]
    /// returns `true`: at most one command completes per call, and the
    /// record stays readable until the next completion, the next
    /// admission into its slot, or [`MfcEngine::take_completed`].
    #[inline]
    pub fn last_completed(&self) -> Option<&CommandLifecycle> {
        self.completed_slot
            .map(|slot| &self.commands[slot as usize].life)
    }

    /// Moves the record [`MfcEngine::last_completed`] shows out of its
    /// slot, for harnesses that keep records. The stamps are copied and
    /// the element records' buffer is lent out, so nothing allocates;
    /// hand the record back through [`MfcEngine::recycle`] to return the
    /// buffer. Returns `None` once taken, and also once a command has
    /// been admitted into the freed slot: the next [`MfcEngine::enqueue`]
    /// nearly always lands there, so take the record right after the
    /// `true` return, before enqueueing again.
    #[inline]
    pub fn take_completed(&mut self) -> Option<CommandLifecycle> {
        let slot = self.completed_slot.take()?;
        let life = &mut self.commands[slot as usize].life;
        Some(CommandLifecycle {
            element_records: std::mem::take(&mut life.element_records),
            ..*life
        })
    }

    /// Returns a taken record's element-record buffer to a free slot that
    /// lent its own out, so the next admission there reuses it instead of
    /// allocating. A record whose slot has been refilled meanwhile is
    /// dropped.
    #[inline]
    pub fn recycle(&mut self, life: CommandLifecycle) {
        for &slot in self.free_commands.iter().rev() {
            let records = &mut self.commands[slot as usize].life.element_records;
            if records.capacity() == 0 {
                *records = life.element_records;
                return;
            }
        }
    }
}

#[cfg(test)]
mod issue_equivalence;

#[cfg(test)]
mod tests {
    use super::*;
    use cellsim_mem::RegionId;

    fn tag(v: u8) -> TagId {
        TagId::new(v).unwrap()
    }

    fn mem_at(offset: u64) -> EffectiveAddr {
        EffectiveAddr::Memory {
            region: RegionId(0),
            offset,
        }
    }

    fn get(ls: u32, offset: u64, bytes: u32) -> DmaCommand {
        DmaCommand::new(DmaKind::Get, LsAddr(ls), mem_at(offset), bytes, tag(0)).unwrap()
    }

    /// Drives the engine, delivering each packet immediately, and returns
    /// the packets issued.
    fn drain(mfc: &mut MfcEngine) -> Vec<PacketOut> {
        drain_from(mfc, Cycle::ZERO)
    }

    /// [`drain`] starting at `now`.
    fn drain_from(mfc: &mut MfcEngine, mut now: Cycle) -> Vec<PacketOut> {
        let mut out = Vec::new();
        loop {
            match mfc.try_issue(now) {
                Issue::Packet(p) => {
                    out.push(p);
                    mfc.packet_delivered(now, p.token);
                    now += 1;
                }
                Issue::Stalled { retry_at } => {
                    assert!(retry_at > now, "stall must make progress");
                    now = retry_at;
                }
                Issue::Blocked => panic!("blocked while delivering eagerly"),
                Issue::Idle => break,
            }
        }
        out
    }

    #[test]
    fn command_unrolls_into_aligned_packets() {
        let mut mfc = MfcEngine::new(MfcConfig::default()).unwrap();
        mfc.enqueue(Cycle::ZERO, get(0, 0, 512)).unwrap();
        let packets = drain(&mut mfc);
        assert_eq!(packets.len(), 4);
        assert!(packets.iter().all(|p| p.bytes == 128));
        assert_eq!(packets[2].ls, LsAddr(256));
        assert_eq!(packets[2].ea.offset(), 256);
        assert!(mfc.is_idle());
        assert_eq!(mfc.stats().completed, 1);
    }

    #[test]
    fn unaligned_ea_splits_on_packet_boundary() {
        // 128 bytes starting at EA offset 64: two 64-byte packets.
        let mut mfc = MfcEngine::new(MfcConfig::default()).unwrap();
        mfc.enqueue(Cycle::ZERO, get(0, 64, 128)).unwrap();
        let packets = drain(&mut mfc);
        assert_eq!(packets.len(), 2);
        assert_eq!(packets[0].bytes, 64);
        assert_eq!(packets[1].bytes, 64);
    }

    #[test]
    fn queue_depth_enforced_until_delivery() {
        let cfg = MfcConfig {
            queue_depth: 2,
            ..MfcConfig::default()
        };
        let mut mfc = MfcEngine::new(cfg).unwrap();
        mfc.enqueue(Cycle::ZERO, get(0, 0, 128)).unwrap();
        mfc.enqueue(Cycle::ZERO, get(128, 128, 128)).unwrap();
        assert_eq!(
            mfc.enqueue(Cycle::ZERO, get(256, 256, 128)),
            Err(DmaError::QueueFull)
        );
        // Decode (eager at enqueue) has long finished by cycle 100: issue
        // and deliver the first command so a queue slot frees.
        let now = Cycle::new(100);
        let Issue::Packet(p) = mfc.try_issue(now) else {
            panic!("expected packet")
        };
        assert!(mfc.packet_delivered(now, p.token));
        assert!(mfc.has_space());
        mfc.enqueue(now, get(256, 256, 128)).unwrap();
    }

    #[test]
    fn outstanding_budget_blocks_issue() {
        let cfg = MfcConfig {
            max_outstanding_packets: 2,
            command_startup: 0,
            ..MfcConfig::default()
        };
        let mut mfc = MfcEngine::new(cfg).unwrap();
        mfc.enqueue(Cycle::ZERO, get(0, 0, 1024)).unwrap();
        let mut now = Cycle::ZERO;
        let mut tokens = Vec::new();
        loop {
            match mfc.try_issue(now) {
                Issue::Packet(p) => tokens.push(p.token),
                Issue::Stalled { retry_at } => {
                    now = retry_at;
                    continue;
                }
                Issue::Blocked => break,
                Issue::Idle => panic!("should not be idle"),
            }
            now += 1;
        }
        assert_eq!(tokens.len(), 2);
        mfc.packet_delivered(now, tokens[0]);
        assert!(matches!(mfc.try_issue(now), Issue::Packet(_)));
    }

    #[test]
    fn startup_cost_paid_once_per_command() {
        let cfg = MfcConfig {
            command_startup: 24,
            ..MfcConfig::default()
        };
        let mut mfc = MfcEngine::new(cfg).unwrap();
        mfc.enqueue(Cycle::ZERO, get(0, 0, 256)).unwrap();
        // First issue attempt stalls for the startup window.
        let Issue::Stalled { retry_at } = mfc.try_issue(Cycle::ZERO) else {
            panic!("expected startup stall")
        };
        assert_eq!(retry_at, Cycle::new(24));
        assert!(matches!(mfc.try_issue(retry_at), Issue::Packet(_)));
        // Second packet of the same command: no new startup, only pacing.
        assert!(matches!(mfc.try_issue(retry_at + 1), Issue::Packet(_)));
    }

    #[test]
    fn list_pays_startup_once_and_element_overhead_between() {
        let cfg = MfcConfig {
            command_startup: 24,
            list_element_overhead: 2,
            ..MfcConfig::default()
        };
        let mut mfc = MfcEngine::new(cfg).unwrap();
        let list =
            DmaListCommand::contiguous(DmaKind::Get, LsAddr(0), mem_at(0), 128, 4, tag(0)).unwrap();
        mfc.enqueue_list(Cycle::ZERO, list).unwrap();
        let mut now = Cycle::ZERO;
        let mut issue_times = Vec::new();
        loop {
            match mfc.try_issue(now) {
                Issue::Packet(p) => {
                    issue_times.push(now);
                    mfc.packet_delivered(now, p.token);
                    now += 1;
                }
                Issue::Stalled { retry_at } => now = retry_at,
                _ => break,
            }
        }
        assert_eq!(issue_times.len(), 4);
        // First element after startup; subsequent ones 2 cycles apart.
        assert_eq!(issue_times[0], Cycle::new(24));
        assert_eq!(issue_times[1] - issue_times[0], 2);
    }

    #[test]
    fn tag_completion_tracks_the_whole_command() {
        let mut mfc = MfcEngine::new(MfcConfig {
            command_startup: 0,
            ..MfcConfig::default()
        })
        .unwrap();
        mfc.enqueue(Cycle::ZERO, get(0, 0, 256)).unwrap();
        assert!(mfc.tags().is_pending(tag(0)));
        let Issue::Packet(a) = mfc.try_issue(Cycle::ZERO) else {
            panic!()
        };
        let Issue::Packet(b) = mfc.try_issue(Cycle::new(1)) else {
            panic!()
        };
        assert!(!mfc.packet_delivered(Cycle::new(9), a.token));
        assert!(mfc.tags().is_pending(tag(0)));
        assert!(mfc.packet_delivered(Cycle::new(10), b.token));
        assert!(!mfc.tags().is_pending(tag(0)));
    }

    #[test]
    fn small_transfers_are_single_packets() {
        let mut mfc = MfcEngine::new(MfcConfig::default()).unwrap();
        mfc.enqueue(Cycle::ZERO, get(16, 16, 8)).unwrap();
        let packets = drain(&mut mfc);
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].bytes, 8);
    }

    #[test]
    fn lifecycle_stamps_partition_the_latency() {
        use crate::command::DmaPhase;
        let mut mfc = MfcEngine::new(MfcConfig::default()).unwrap();
        mfc.enqueue(Cycle::ZERO, get(0, 0, 512)).unwrap();
        let mut now = Cycle::ZERO;
        let mut pending = Vec::new();
        loop {
            match mfc.try_issue(now) {
                Issue::Packet(p) => {
                    pending.push(p.token);
                    now += 1;
                }
                Issue::Stalled { retry_at } => now = retry_at,
                Issue::Blocked | Issue::Idle => break,
            }
        }
        // Deliver with grant + bank stamps, 10 cycles after issue ended.
        let mut done = false;
        for tok in pending {
            now += 10;
            mfc.note_grant(now, tok, 3);
            mfc.note_bank_service(tok, 5);
            done = mfc.packet_delivered(now, tok);
        }
        assert!(done);
        let life = mfc.take_completed().expect("lifecycle record");
        assert!(mfc.take_completed().is_none(), "drained exactly once");
        assert_eq!(life.bytes, 512);
        assert_eq!(life.packets, 4);
        assert_eq!(life.packets_granted, 4);
        assert_eq!(life.eib_wait_cycles, 12);
        assert_eq!(life.bank_service_cycles, 20);
        assert_eq!(life.enqueued_at, Cycle::ZERO);
        assert_eq!(life.first_issue_at, Cycle::new(24)); // command_startup
        assert_eq!(life.completed_at.saturating_since(life.enqueued_at), {
            let phases = life.phases();
            phases.iter().sum::<u64>()
        });
        assert_eq!(life.latency(), life.phases().iter().sum::<u64>());
        // Enqueue→first-issue is the startup window: queue-wait = 24.
        assert_eq!(life.phase(DmaPhase::QueueWait), 24);
        assert_eq!(life.element_records.len(), 1);
        assert_eq!(life.element_records[0].completed_at, life.completed_at);
    }

    #[test]
    fn lifecycle_without_grant_stamps_still_conserves() {
        // Harnesses that bypass the EIB (like `drain`) never call
        // note_grant; ring-wait collapses to zero, conservation holds.
        let mut mfc = MfcEngine::new(MfcConfig::default()).unwrap();
        mfc.enqueue(Cycle::ZERO, get(0, 0, 256)).unwrap();
        drain(&mut mfc);
        let life = mfc.take_completed().expect("lifecycle record");
        assert_eq!(life.packets_granted, 0);
        assert_eq!(life.latency(), life.phases().iter().sum::<u64>());
    }

    #[test]
    fn zero_config_fields_are_typed_errors() {
        let base = MfcConfig::default();
        let cases = [
            (
                MfcConfig {
                    queue_depth: 0,
                    ..base
                },
                ConfigError::ZeroQueueDepth,
            ),
            (
                MfcConfig {
                    max_outstanding_packets: 0,
                    ..base
                },
                ConfigError::ZeroOutstandingBudget,
            ),
            (
                MfcConfig {
                    packet_bytes: 0,
                    ..base
                },
                ConfigError::ZeroPacketBytes,
            ),
        ];
        for (cfg, want) in cases {
            assert_eq!(MfcEngine::new(cfg).err(), Some(want));
            assert!(!want.to_string().is_empty());
        }
    }

    #[test]
    fn queue_deeper_than_the_scan_masks_is_a_typed_error() {
        let depth = |queue_depth| MfcConfig {
            queue_depth,
            ..MfcConfig::default()
        };
        assert!(MfcEngine::new(depth(MAX_QUEUE_DEPTH)).is_ok());
        assert_eq!(
            MfcEngine::new(depth(65)).err(),
            Some(ConfigError::QueueTooDeep)
        );
        assert_eq!(
            ConfigError::QueueTooDeep.to_string(),
            "MFC queue depth must be at most 64"
        );
    }

    #[test]
    fn slot_limit_clips_the_outstanding_budget() {
        let faults = MfcFaults {
            slot_limit: Some(2),
            ..MfcFaults::default()
        };
        let mut mfc = MfcEngine::with_faults(
            MfcConfig {
                command_startup: 0,
                ..MfcConfig::default()
            },
            faults,
            RetryPolicy::default(),
        )
        .unwrap();
        assert_eq!(mfc.slot_budget(), 2);
        mfc.enqueue(Cycle::ZERO, get(0, 0, 1024)).unwrap();
        let mut now = Cycle::ZERO;
        let mut tokens = Vec::new();
        loop {
            match mfc.try_issue(now) {
                Issue::Packet(p) => tokens.push(p.token),
                Issue::Stalled { retry_at } => {
                    now = retry_at;
                    continue;
                }
                Issue::Blocked => break,
                Issue::Idle => panic!("should not be idle"),
            }
            now += 1;
        }
        // Only 2 of the configured 8 slots usable.
        assert_eq!(tokens.len(), 2);
        mfc.packet_delivered(now, tokens[0]);
        assert!(matches!(mfc.try_issue(now), Issue::Packet(_)));
    }

    #[test]
    fn queue_stall_window_freezes_the_unroller() {
        use cellsim_faults::Window;
        let faults = MfcFaults {
            queue_stalls: vec![Window {
                start: 10,
                cycles: 30,
            }],
            ..MfcFaults::default()
        };
        let mut mfc = MfcEngine::with_faults(
            MfcConfig {
                command_startup: 0,
                ..MfcConfig::default()
            },
            faults,
            RetryPolicy::default(),
        )
        .unwrap();
        mfc.enqueue(Cycle::ZERO, get(0, 0, 256)).unwrap();
        // Before the window: issues normally.
        assert!(matches!(mfc.try_issue(Cycle::ZERO), Issue::Packet(_)));
        // Inside the window: stalled until its end.
        assert_eq!(
            mfc.try_issue(Cycle::new(10)),
            Issue::Stalled {
                retry_at: Cycle::new(40)
            }
        );
        assert_eq!(
            mfc.try_issue(Cycle::new(39)),
            Issue::Stalled {
                retry_at: Cycle::new(40)
            }
        );
        // At the boundary: issues again.
        assert!(matches!(mfc.try_issue(Cycle::new(40)), Issue::Packet(_)));
    }

    #[test]
    fn nacks_back_off_then_exhaust() {
        let retry = RetryPolicy {
            max_retries: 2,
            backoff_base: 4,
            backoff_cap: 64,
        };
        let mut mfc = MfcEngine::with_faults(
            MfcConfig {
                command_startup: 0,
                ..MfcConfig::default()
            },
            MfcFaults::default(),
            retry,
        )
        .unwrap();
        mfc.enqueue(Cycle::ZERO, get(0, 0, 128)).unwrap();
        let Issue::Packet(p) = mfc.try_issue(Cycle::ZERO) else {
            panic!("expected packet")
        };
        assert_eq!(
            mfc.note_nack(Cycle::new(5), p.token),
            NackVerdict::Retry {
                at: Cycle::new(9), // 5 + base·2^0
                attempt: 1,
            }
        );
        assert_eq!(
            mfc.note_nack(Cycle::new(9), p.token),
            NackVerdict::Retry {
                at: Cycle::new(17), // 9 + base·2^1
                attempt: 2,
            }
        );
        // Budget spent: third NACK is terminal.
        assert_eq!(
            mfc.note_nack(Cycle::new(17), p.token),
            NackVerdict::Exhausted(DmaError::RetriesExhausted(2))
        );
        // Abandon: slot and queue entry drain, no bytes credited.
        assert!(mfc.packet_abandoned(Cycle::new(20), p.token));
        assert!(mfc.is_idle());
        assert_eq!(mfc.stats().bytes_delivered, 0);
        assert_eq!(mfc.stats().completed, 1);
        assert!(!mfc.tags().is_pending(tag(0)));
        let life = mfc.take_completed().expect("lifecycle record");
        assert!(life.exhausted);
        assert_eq!(life.nacks, 3);
        assert_eq!(life.retries, 2);
        assert_eq!(life.retry_backoff_cycles, 4 + 8);
        assert_eq!(life.latency(), life.phases().iter().sum::<u64>());
    }

    #[test]
    fn retried_then_delivered_command_conserves_latency() {
        let mut mfc = MfcEngine::new(MfcConfig::default()).unwrap();
        mfc.enqueue(Cycle::ZERO, get(0, 0, 256)).unwrap();
        let mut now = Cycle::ZERO;
        let mut pending = Vec::new();
        loop {
            match mfc.try_issue(now) {
                Issue::Packet(p) => {
                    pending.push(p.token);
                    now += 1;
                }
                Issue::Stalled { retry_at } => now = retry_at,
                Issue::Blocked | Issue::Idle => break,
            }
        }
        // First packet NACKs once, retries, then both deliver.
        let NackVerdict::Retry { at, attempt } = mfc.note_nack(now, pending[0]) else {
            panic!("budget not exhausted")
        };
        assert_eq!(attempt, 1);
        let mut done = false;
        for tok in pending {
            done = mfc.packet_delivered(at + 10, tok);
        }
        assert!(done);
        let life = mfc.take_completed().expect("lifecycle record");
        assert!(!life.exhausted);
        assert_eq!(life.nacks, 1);
        assert_eq!(life.retries, 1);
        assert!(life.retry_backoff_cycles > 0);
        assert_eq!(life.bytes, 256);
        assert_eq!(life.latency(), life.phases().iter().sum::<u64>());
    }

    #[test]
    fn out_of_order_deliveries_complete_the_right_commands() {
        let mut mfc = MfcEngine::with_faults(
            MfcConfig {
                command_startup: 4,
                ..MfcConfig::default()
            },
            MfcFaults::default(),
            RetryPolicy {
                max_retries: 3,
                backoff_base: 4,
                backoff_cap: 64,
            },
        )
        .unwrap();
        let put = |ls, offset, bytes, t| {
            DmaCommand::new(DmaKind::Put, LsAddr(ls), mem_at(offset), bytes, tag(t)).unwrap()
        };
        let get_tagged = |ls, offset, bytes, t| {
            DmaCommand::new(DmaKind::Get, LsAddr(ls), mem_at(offset), bytes, tag(t)).unwrap()
        };
        // A: GET, then B: a PUT fenced behind it in tag group 1; C: a
        // three-element list; D: a one-packet GET that will be NACKed.
        // Decode is serial: A at 4, B at 8, C at 12, D at 16.
        mfc.enqueue(Cycle::ZERO, get_tagged(0, 0, 256, 1)).unwrap();
        mfc.enqueue(Cycle::ZERO, put(256, 4096, 256, 1).with_fence())
            .unwrap();
        let list =
            DmaListCommand::contiguous(DmaKind::Get, LsAddr(1024), mem_at(8192), 128, 3, tag(2))
                .unwrap();
        mfc.enqueue_list(Cycle::ZERO, list).unwrap();
        mfc.enqueue(Cycle::ZERO, get_tagged(2048, 16384, 128, 3))
            .unwrap();

        let issue = |mfc: &mut MfcEngine, t: u64| match mfc.try_issue(Cycle::new(t)) {
            Issue::Packet(p) => p,
            other => panic!("expected a packet at {t}, got {other:?}"),
        };
        let stalled = |t| Issue::Stalled {
            retry_at: Cycle::new(t),
        };
        let a0 = issue(&mut mfc, 4);
        let a1 = issue(&mut mfc, 5);
        // The fenced PUT waits on A; C is still decoding.
        assert_eq!(mfc.try_issue(Cycle::new(6)), stalled(12));
        let c0 = issue(&mut mfc, 12);
        // The list-element fetch gates C's next element by 2 cycles.
        assert_eq!(mfc.try_issue(Cycle::new(13)), stalled(14));
        let c1 = issue(&mut mfc, 14);
        assert_eq!(mfc.try_issue(Cycle::new(15)), stalled(16));
        // Round-robin: D first at 16, then back round to C.
        let d0 = issue(&mut mfc, 16);
        let c2 = issue(&mut mfc, 17);
        assert_eq!(mfc.try_issue(Cycle::new(18)), Issue::Blocked);

        mfc.note_grant(Cycle::new(20), c1.token, 3);
        mfc.note_bank_service(c1.token, 5);
        assert!(!mfc.packet_delivered(Cycle::new(22), c1.token));
        assert_eq!(
            mfc.note_nack(Cycle::new(21), d0.token),
            NackVerdict::Retry {
                at: Cycle::new(25),
                attempt: 1
            }
        );
        mfc.note_grant(Cycle::new(23), a1.token, 1);
        mfc.note_bank_service(a1.token, 6);
        assert!(!mfc.packet_delivered(Cycle::new(23), a1.token));
        mfc.note_grant(Cycle::new(24), a0.token, 2);
        assert!(mfc.packet_delivered(Cycle::new(26), a0.token));
        let a = mfc.take_completed().expect("A completed");

        // A has left the queue, so the fenced PUT may go.
        let b0 = issue(&mut mfc, 26);
        let b1 = issue(&mut mfc, 27);
        mfc.note_grant(Cycle::new(30), d0.token, 0);
        mfc.note_bank_service(d0.token, 7);
        assert!(mfc.packet_delivered(Cycle::new(33), d0.token));
        let d = mfc.take_completed().expect("D completed");
        assert!(!mfc.packet_delivered(Cycle::new(34), c2.token));
        assert!(mfc.packet_delivered(Cycle::new(35), c0.token));
        let c = mfc.take_completed().expect("C completed");
        assert!(!mfc.packet_delivered(Cycle::new(36), b1.token));
        assert!(mfc.packet_delivered(Cycle::new(37), b0.token));
        let b = mfc.take_completed().expect("B completed");
        assert!(mfc.is_idle());
        assert!(!mfc.tags().any_pending());

        let order: Vec<_> = [a0, a1, c0, c1, d0, c2, b0, b1]
            .iter()
            .map(|p| (p.tag.value(), p.kind, p.ea.offset()))
            .collect();
        use DmaKind::{Get, Put};
        assert_eq!(
            order,
            [
                (1, Get, 0),
                (1, Get, 128),
                (2, Get, 8192),
                (2, Get, 8320),
                (3, Get, 16384),
                (2, Get, 8448),
                (1, Put, 4096),
                (1, Put, 4224),
            ]
        );
        let element = |bytes, first_issue_at, completed_at| ElementLifecycle {
            bytes,
            first_issue_at: Cycle::new(first_issue_at),
            completed_at: Cycle::new(completed_at),
        };
        let life = |kind, bytes, packets, decoded_at, issued: (u64, u64)| CommandLifecycle {
            kind,
            target: TargetClass::Memory,
            bytes,
            elements: 1,
            packets,
            enqueued_at: Cycle::ZERO,
            decoded_at: Cycle::new(decoded_at),
            first_issue_at: Cycle::new(issued.0),
            last_issue_at: Cycle::new(issued.1),
            first_grant_at: Cycle::ZERO,
            last_grant_at: Cycle::ZERO,
            packets_granted: 0,
            eib_wait_cycles: 0,
            bank_service_cycles: 0,
            completed_at: Cycle::ZERO,
            nacks: 0,
            retries: 0,
            retry_backoff_cycles: 0,
            exhausted: false,
            element_records: Vec::new(),
        };
        assert_eq!(
            a,
            CommandLifecycle {
                first_grant_at: Cycle::new(23),
                last_grant_at: Cycle::new(24),
                packets_granted: 2,
                eib_wait_cycles: 3,
                bank_service_cycles: 6,
                completed_at: Cycle::new(26),
                element_records: vec![element(256, 4, 26)],
                ..life(Get, 256, 2, 4, (4, 5))
            }
        );
        assert_eq!(
            b,
            CommandLifecycle {
                completed_at: Cycle::new(37),
                element_records: vec![element(256, 26, 37)],
                ..life(Put, 256, 2, 8, (26, 27))
            }
        );
        assert_eq!(
            c,
            CommandLifecycle {
                elements: 3,
                first_grant_at: Cycle::new(20),
                last_grant_at: Cycle::new(20),
                packets_granted: 1,
                eib_wait_cycles: 3,
                bank_service_cycles: 5,
                completed_at: Cycle::new(35),
                element_records: vec![
                    element(128, 12, 35),
                    element(128, 14, 22),
                    element(128, 17, 34),
                ],
                ..life(Get, 384, 3, 12, (12, 17))
            }
        );
        assert_eq!(
            d,
            CommandLifecycle {
                first_grant_at: Cycle::new(30),
                last_grant_at: Cycle::new(30),
                packets_granted: 1,
                bank_service_cycles: 7,
                completed_at: Cycle::new(33),
                nacks: 1,
                retries: 1,
                retry_backoff_cycles: 4,
                element_records: vec![element(128, 16, 33)],
                ..life(Get, 128, 1, 16, (16, 16))
            }
        );
    }

    /// A slot keeps its record after completion and is refilled in
    /// place by the next admission: every stamp the next command reports
    /// must be its own. The first command collects everything a command
    /// can (NACKs, a retry with backoff, an abandoned packet, grants,
    /// bank service, five list elements); the second, admitted into the
    /// same slot of a one-deep queue, collects none of it.
    #[test]
    fn a_refilled_slot_reports_only_its_new_command() {
        let retry = RetryPolicy {
            max_retries: 1,
            backoff_base: 4,
            backoff_cap: 64,
        };
        let cfg = MfcConfig {
            queue_depth: 1,
            command_startup: 0,
            ..MfcConfig::default()
        };
        let mut mfc = MfcEngine::with_faults(cfg, MfcFaults::default(), retry).unwrap();
        let list =
            DmaListCommand::contiguous(DmaKind::Get, LsAddr(0), mem_at(0), 128, 5, tag(3)).unwrap();
        mfc.enqueue_list(Cycle::ZERO, list).unwrap();
        let mut now = Cycle::ZERO;
        let mut tokens = Vec::new();
        while tokens.len() < 5 {
            match mfc.try_issue(now) {
                Issue::Packet(p) => {
                    tokens.push(p.token);
                    now += 1;
                }
                Issue::Stalled { retry_at } => now = retry_at,
                other => panic!("five packets fit the budget, got {other:?}"),
            }
        }
        assert!(matches!(
            mfc.note_nack(now, tokens[0]),
            NackVerdict::Retry { attempt: 1, .. }
        ));
        assert!(matches!(
            mfc.note_nack(now + 10, tokens[0]),
            NackVerdict::Exhausted(_)
        ));
        for &token in &tokens {
            mfc.note_grant(now + 20, token, 7);
            mfc.note_bank_service(token, 9);
        }
        assert!(!mfc.packet_abandoned(now + 30, tokens[0]));
        let mut done = false;
        for &token in &tokens[1..] {
            done = mfc.packet_delivered(now + 31, token);
        }
        assert!(done);
        let first = mfc.last_completed().expect("first command completed");
        assert_eq!((first.nacks, first.retries, first.exhausted), (2, 1, true));
        assert_eq!((first.elements, first.element_records.len()), (5, 5));
        assert!(first.retry_backoff_cycles > 0);
        assert_eq!(first.packets_granted, 5);
        assert_eq!(first.first_grant_at, now + 20);
        assert_eq!((first.eib_wait_cycles, first.bank_service_cycles), (35, 45));

        let at = now + 40;
        let remote = EffectiveAddr::LocalStore {
            spe: 2,
            offset: 512,
        };
        let put = DmaCommand::new(DmaKind::Put, LsAddr(256), remote, 64, tag(5)).unwrap();
        mfc.enqueue(at, put).unwrap();
        assert!(mfc.last_completed().is_none(), "the slot now holds the PUT");
        let Issue::Packet(p) = mfc.try_issue(at) else {
            panic!("the PUT issues once decoded")
        };
        assert_eq!(
            (p.kind, p.ls, p.ea, p.bytes),
            (DmaKind::Put, LsAddr(256), remote, 64)
        );
        assert!(mfc.packet_delivered(at + 5, p.token));
        let second = CommandLifecycle {
            kind: DmaKind::Put,
            target: TargetClass::LocalStore,
            bytes: 64,
            elements: 1,
            packets: 1,
            enqueued_at: at,
            decoded_at: at,
            first_issue_at: at,
            last_issue_at: at,
            first_grant_at: Cycle::ZERO,
            last_grant_at: Cycle::ZERO,
            packets_granted: 0,
            eib_wait_cycles: 0,
            bank_service_cycles: 0,
            completed_at: at + 5,
            nacks: 0,
            retries: 0,
            retry_backoff_cycles: 0,
            exhausted: false,
            element_records: vec![ElementLifecycle {
                bytes: 64,
                first_issue_at: at,
                completed_at: at + 5,
            }],
        };
        assert_eq!(mfc.last_completed(), Some(&second));
        // The by-value path hands out the same record once; recycling
        // returns its buffer, and the slot serves the next command.
        assert_eq!(mfc.take_completed().as_ref(), Some(&second));
        assert!(mfc.take_completed().is_none());
        assert!(mfc.last_completed().is_none());
        mfc.recycle(second);
        mfc.enqueue(at + 10, get(0, 0, 256)).unwrap();
        let packets = drain_from(&mut mfc, at + 10);
        assert_eq!(packets.len(), 2);
        let third = mfc.last_completed().expect("third command completed");
        assert_eq!(
            (third.kind, third.bytes, third.packets),
            (DmaKind::Get, 256, 2)
        );
        assert_eq!(third.element_records.len(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown or double-delivered")]
    fn unknown_token_panics() {
        let mut mfc = MfcEngine::new(MfcConfig::default()).unwrap();
        mfc.enqueue(Cycle::ZERO, get(0, 0, 128)).unwrap();
        let Issue::Packet(p) = mfc.try_issue(Cycle::new(100)) else {
            panic!()
        };
        mfc.packet_delivered(Cycle::new(100), PacketToken(p.token.0 + 1));
    }

    #[test]
    #[should_panic(expected = "unknown or double-delivered")]
    fn stale_token_panics_after_its_slot_is_reused() {
        let mut mfc = MfcEngine::new(MfcConfig {
            command_startup: 0,
            ..MfcConfig::default()
        })
        .unwrap();
        mfc.enqueue(Cycle::ZERO, get(0, 0, 256)).unwrap();
        let Issue::Packet(first) = mfc.try_issue(Cycle::ZERO) else {
            panic!()
        };
        mfc.packet_delivered(Cycle::ZERO, first.token);
        let Issue::Packet(second) = mfc.try_issue(Cycle::new(1)) else {
            panic!()
        };
        assert_ne!(first.token, second.token);
        mfc.packet_delivered(Cycle::new(1), first.token);
    }

    #[test]
    #[should_panic(expected = "unknown or double-delivered")]
    fn double_delivery_panics() {
        let mut mfc = MfcEngine::new(MfcConfig {
            command_startup: 0,
            ..MfcConfig::default()
        })
        .unwrap();
        mfc.enqueue(Cycle::ZERO, get(0, 0, 128)).unwrap();
        let Issue::Packet(p) = mfc.try_issue(Cycle::ZERO) else {
            panic!()
        };
        mfc.packet_delivered(Cycle::ZERO, p.token);
        mfc.packet_delivered(Cycle::ZERO, p.token);
    }
}
