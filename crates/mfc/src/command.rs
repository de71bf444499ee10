//! DMA commands, the CBE validity rules, and per-command lifecycle
//! records.

use std::error::Error;
use std::fmt;

use cellsim_kernel::Cycle;
use cellsim_mem::RegionId;

use crate::tag::TagId;
use crate::{LOCAL_STORE_BYTES, MAX_DMA_BYTES};

/// Direction of a DMA transfer, from the initiating SPE's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DmaKind {
    /// Effective address → Local Store (`mfc_get`).
    Get,
    /// Local Store → effective address (`mfc_put`).
    Put,
}

/// An offset inside the initiating SPE's Local Store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LsAddr(pub u32);

/// A 64-bit effective address, resolved to its target.
///
/// On real hardware this is a flat address; the simulator keeps the
/// *meaning* (which region of main memory, or which SPE's memory-mapped
/// Local Store) so routing needs no page tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EffectiveAddr {
    /// Byte `offset` of an allocated main-memory region.
    Memory {
        /// The region (one per experiment buffer).
        region: RegionId,
        /// Byte offset within the region.
        offset: u64,
    },
    /// Byte `offset` of a (logical) SPE's Local Store.
    LocalStore {
        /// Logical SPE index (0–7).
        spe: u8,
        /// Offset within that Local Store.
        offset: u32,
    },
}

impl EffectiveAddr {
    /// The byte offset used for alignment checks.
    #[inline]
    pub fn offset(&self) -> u64 {
        match *self {
            EffectiveAddr::Memory { offset, .. } => offset,
            EffectiveAddr::LocalStore { offset, .. } => u64::from(offset),
        }
    }

    /// Returns this address advanced by `bytes`.
    #[inline]
    pub fn advanced(&self, bytes: u64) -> EffectiveAddr {
        match *self {
            EffectiveAddr::Memory { region, offset } => EffectiveAddr::Memory {
                region,
                offset: offset + bytes,
            },
            EffectiveAddr::LocalStore { spe, offset } => EffectiveAddr::LocalStore {
                spe,
                offset: offset + u32::try_from(bytes).expect("LS offset overflow"),
            },
        }
    }
}

/// Why a DMA command was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaError {
    /// Size is not 1, 2, 4, 8 or a multiple of 16.
    InvalidSize(u32),
    /// Size exceeds the 16 KB single-command limit.
    TooLarge(u32),
    /// Size is zero.
    Empty,
    /// LS or EA not naturally aligned, or quadword offsets differ.
    Misaligned {
        /// Local-store offset of the offending command.
        ls: u32,
        /// Effective-address offset of the offending command.
        ea: u64,
        /// The transfer size whose alignment rule was violated.
        bytes: u32,
    },
    /// The transfer runs past the end of the 256 KB Local Store.
    LocalStoreOverrun,
    /// The 16-entry MFC command queue is full.
    QueueFull,
    /// A DMA list had no elements or more than 2048.
    BadListLength(usize),
    /// Logical SPE index out of range.
    BadSpe(u8),
    /// A tag value outside 0..32.
    BadTag(u8),
    /// A packet's access was NACKed until the owning command's retry
    /// budget ran out; the carried count is the retries performed.
    RetriesExhausted(u32),
}

impl fmt::Display for DmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DmaError::InvalidSize(b) => {
                write!(f, "transfer size {b} is not 1, 2, 4, 8 or a multiple of 16")
            }
            DmaError::TooLarge(b) => write!(f, "transfer size {b} exceeds the 16 KB limit"),
            DmaError::Empty => write!(f, "transfer size is zero"),
            DmaError::Misaligned { ls, ea, bytes } => write!(
                f,
                "misaligned {bytes}-byte transfer (ls={ls:#x}, ea={ea:#x})"
            ),
            DmaError::LocalStoreOverrun => write!(f, "transfer overruns the 256 KB local store"),
            DmaError::QueueFull => write!(f, "MFC command queue is full"),
            DmaError::BadListLength(n) => {
                write!(f, "DMA list has {n} elements; must be 1..=2048")
            }
            DmaError::BadSpe(s) => write!(f, "logical SPE index {s} out of range"),
            DmaError::BadTag(t) => write!(f, "tag {t} out of range 0..32"),
            DmaError::RetriesExhausted(n) => {
                write!(f, "access NACKed; retry budget exhausted after {n} retries")
            }
        }
    }
}

impl Error for DmaError {}

/// A single-chunk DMA command (`mfc_get` / `mfc_put`): the paper's
/// "DMA-elem".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaCommand {
    kind: DmaKind,
    ls: LsAddr,
    ea: EffectiveAddr,
    bytes: u32,
    tag: TagId,
    fence: bool,
}

impl DmaCommand {
    /// Validates and creates a command.
    ///
    /// # Errors
    ///
    /// Returns a [`DmaError`] if the size or alignment violates the CBE
    /// rules (see [`DmaCommand::validate`]) or the transfer overruns the
    /// Local Store.
    #[inline]
    pub fn new(
        kind: DmaKind,
        ls: LsAddr,
        ea: EffectiveAddr,
        bytes: u32,
        tag: TagId,
    ) -> Result<DmaCommand, DmaError> {
        Self::validate(ls, &ea, bytes)?;
        Ok(DmaCommand {
            kind,
            ls,
            ea,
            bytes,
            tag,
            fence: false,
        })
    }

    /// Creates a command whose fields the caller has already proven
    /// valid, without checking them again: for generators that validate
    /// a whole closed-form stream once and then take its commands one by
    /// one. **Release builds accept invalid fields** (a misaligned or
    /// overrunning Local Store window, a bad size) and the engine then
    /// carves packets from them; only debug builds run
    /// [`DmaCommand::validate`] and panic on a violation. Every other
    /// caller should use [`DmaCommand::new`].
    #[doc(hidden)]
    #[inline]
    pub fn new_unchecked(
        kind: DmaKind,
        ls: LsAddr,
        ea: EffectiveAddr,
        bytes: u32,
        tag: TagId,
    ) -> DmaCommand {
        debug_assert_eq!(
            Self::validate(ls, &ea, bytes),
            Ok(()),
            "DmaCommand::new_unchecked on invalid fields"
        );
        DmaCommand {
            kind,
            ls,
            ea,
            bytes,
            tag,
            fence: false,
        }
    }

    /// Marks this command *fenced* (`mfc_getf`/`mfc_putf`): it will not
    /// begin transferring until every earlier command in the same tag
    /// group has completed. This is how real CBE code orders a put after
    /// the get that produced its data without a blocking wait.
    #[inline]
    pub fn with_fence(mut self) -> DmaCommand {
        self.fence = true;
        self
    }

    /// Whether this command is fenced against its tag group.
    #[inline]
    pub fn fence(&self) -> bool {
        self.fence
    }

    /// Checks the CBE transfer rules without constructing a command:
    ///
    /// * size is 1, 2, 4, 8, or a multiple of 16, and ≤16 KB;
    /// * sub-quadword transfers are naturally aligned and LS/EA agree in
    ///   their low four bits;
    /// * quadword-multiple transfers are 16-byte aligned on both sides;
    /// * the LS range stays inside the 256 KB Local Store.
    ///
    /// # Errors
    ///
    /// Returns the specific [`DmaError`] for the first rule violated.
    #[inline]
    pub fn validate(ls: LsAddr, ea: &EffectiveAddr, bytes: u32) -> Result<(), DmaError> {
        if bytes == 0 {
            return Err(DmaError::Empty);
        }
        if bytes > MAX_DMA_BYTES {
            return Err(DmaError::TooLarge(bytes));
        }
        let small = matches!(bytes, 1 | 2 | 4 | 8);
        if !small && !bytes.is_multiple_of(16) {
            return Err(DmaError::InvalidSize(bytes));
        }
        let ea_off = ea.offset();
        let ls_off = u64::from(ls.0);
        let align = if small { u64::from(bytes) } else { 16 };
        let misaligned = !ls_off.is_multiple_of(align)
            || !ea_off.is_multiple_of(align)
            || (small && (ls_off & 15) != (ea_off & 15));
        if misaligned {
            return Err(DmaError::Misaligned {
                ls: ls.0,
                ea: ea_off,
                bytes,
            });
        }
        if let EffectiveAddr::LocalStore { spe, offset } = *ea {
            if spe >= 8 {
                return Err(DmaError::BadSpe(spe));
            }
            if u64::from(offset) + u64::from(bytes) > u64::from(LOCAL_STORE_BYTES) {
                return Err(DmaError::LocalStoreOverrun);
            }
        }
        if u64::from(ls.0) + u64::from(bytes) > u64::from(LOCAL_STORE_BYTES) {
            return Err(DmaError::LocalStoreOverrun);
        }
        Ok(())
    }

    /// The transfer direction.
    #[inline]
    pub fn kind(&self) -> DmaKind {
        self.kind
    }

    /// The Local Store side of the transfer.
    #[inline]
    pub fn ls(&self) -> LsAddr {
        self.ls
    }

    /// The effective-address side of the transfer.
    #[inline]
    pub fn ea(&self) -> EffectiveAddr {
        self.ea
    }

    /// Transfer size in bytes.
    #[inline]
    pub fn bytes(&self) -> u32 {
        self.bytes
    }

    /// The tag group this command completes under.
    #[inline]
    pub fn tag(&self) -> TagId {
        self.tag
    }
}

/// What a command's effective address targets, for latency-path
/// classification (main memory behind the MIC/IOIF vs another SPE's
/// Local Store).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TargetClass {
    /// The effective address is main memory.
    Memory,
    /// The effective address is a (remote) Local Store.
    LocalStore,
}

impl From<&EffectiveAddr> for TargetClass {
    #[inline]
    fn from(ea: &EffectiveAddr) -> TargetClass {
        match ea {
            EffectiveAddr::Memory { .. } => TargetClass::Memory,
            EffectiveAddr::LocalStore { .. } => TargetClass::LocalStore,
        }
    }
}

/// The four lifecycle phases a command's end-to-end latency partitions
/// into, in timeline order. Each phase is the span between two stamps of
/// the [`CommandLifecycle`], so the four always sum to the command's
/// end-to-end latency exactly (conservation by construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DmaPhase {
    /// Enqueue → first packet issue: decode/startup, fences, waiting for
    /// the unroller behind older commands, the first outstanding slot.
    QueueWait,
    /// First → last packet issue: the unroll window, paced by the
    /// outstanding-packet budget (the Little's-law phase).
    SlotWait,
    /// Last packet issue → last EIB ring grant: command-bus snoop, source
    /// readiness and data-arbiter queueing for the trailing packets.
    RingWait,
    /// Last ring grant → completion: wire time plus bank service/retire
    /// of the trailing packets.
    Service,
}

impl DmaPhase {
    /// All phases in timeline (and reporting) order.
    pub const ALL: [DmaPhase; 4] = [
        DmaPhase::QueueWait,
        DmaPhase::SlotWait,
        DmaPhase::RingWait,
        DmaPhase::Service,
    ];

    /// Stable reporting name (`queue-wait`, `slot-wait`, `ring-wait`,
    /// `service`).
    pub fn name(self) -> &'static str {
        match self {
            DmaPhase::QueueWait => "queue-wait",
            DmaPhase::SlotWait => "slot-wait",
            DmaPhase::RingWait => "ring-wait",
            DmaPhase::Service => "service",
        }
    }
}

/// Lifecycle stamps of one element of a DMA-list command (a DMA-elem
/// command is a one-element list for this purpose).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElementLifecycle {
    /// Element payload bytes.
    pub bytes: u32,
    /// When the unroller issued the element's first packet.
    pub first_issue_at: Cycle,
    /// When the element's last packet was delivered (and, for memory
    /// PUTs, retired in DRAM).
    pub completed_at: Cycle,
}

impl ElementLifecycle {
    /// The element's transfer latency: first packet issue → last packet
    /// retired. This is the latency double-buffering depth is tuned
    /// against.
    #[inline]
    pub fn service_latency(&self) -> u64 {
        self.completed_at.saturating_since(self.first_issue_at)
    }
}

/// The full lifecycle record of one completed MFC command, stamped at
/// every point the command passes through: enqueue, first packet issue
/// (MFC slot grant), last packet issue (fully unrolled), first/last EIB
/// ring grant, accumulated bank service, and tag-group completion (the
/// cycle the command left the queue and its tag could quiesce).
///
/// Stamps are monotone by construction of the fabric protocol; the
/// derived phase partition clamps defensively so conservation
/// (`Σ phases == end-to-end latency`) holds even for harnesses that skip
/// some stamps (e.g. driving an [`MfcEngine`](crate::MfcEngine) without
/// a bus and never reporting grants).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandLifecycle {
    /// Transfer direction.
    pub kind: DmaKind,
    /// Memory vs Local Store target.
    pub target: TargetClass,
    /// Total payload bytes.
    pub bytes: u64,
    /// List elements (1 for a DMA-elem command).
    pub elements: u32,
    /// Bus packets the command unrolled into.
    pub packets: u32,
    /// When the command was admitted into the MFC queue.
    pub enqueued_at: Cycle,
    /// When the serial decoder finished this command.
    pub decoded_at: Cycle,
    /// When the first packet issued (the command won the unroller).
    pub first_issue_at: Cycle,
    /// When the last packet issued (fully unrolled).
    pub last_issue_at: Cycle,
    /// First EIB data-ring grant over the command's packets.
    pub first_grant_at: Cycle,
    /// Last EIB data-ring grant over the command's packets.
    pub last_grant_at: Cycle,
    /// Packets that reported a ring grant (0 when the harness never
    /// stamps grants).
    pub packets_granted: u32,
    /// Σ cycles the command's packets waited at the EIB data arbiter.
    pub eib_wait_cycles: u64,
    /// Σ DRAM data-pipe service cycles of the command's packets.
    pub bank_service_cycles: u64,
    /// When the last packet was delivered/retired and the queue entry
    /// freed (tag-group completion for this command).
    pub completed_at: Cycle,
    /// Transient NACKs observed across the command's packets.
    pub nacks: u32,
    /// Retries performed in response to NACKs (≤ `nacks`; the shortfall
    /// is NACKs that found the budget already spent).
    pub retries: u32,
    /// Σ backoff cycles scheduled for those retries. Backoff elapses
    /// between issue and delivery, so it is already inside the ring-wait
    /// and service phases — this field *attributes* it, it does not add
    /// a fifth phase (the exact four-phase sum is preserved).
    pub retry_backoff_cycles: u64,
    /// Whether any packet was abandoned after exhausting its retry
    /// budget (the command's bytes were then not fully delivered).
    pub exhausted: bool,
    /// Per-element stamps, in element order.
    pub element_records: Vec<ElementLifecycle>,
}

impl CommandLifecycle {
    /// The clamped stamp timeline `[enqueue, first issue, last issue,
    /// last grant, completion]` the phase partition is cut from. Clamping
    /// makes each stamp at least its predecessor; when no grant was ever
    /// reported the grant stamp collapses onto last issue (ring-wait 0).
    #[inline]
    fn timeline(&self) -> [Cycle; 5] {
        let t0 = self.enqueued_at;
        let t1 = self.first_issue_at.max(t0);
        let t2 = self.last_issue_at.max(t1);
        let t3 = if self.packets_granted > 0 {
            self.last_grant_at.max(t2)
        } else {
            t2
        };
        let t4 = self.completed_at.max(t3);
        [t0, t1, t2, t3, t4]
    }

    /// End-to-end latency: enqueue → completion.
    #[inline]
    pub fn latency(&self) -> u64 {
        let t = self.timeline();
        t[4].saturating_since(t[0])
    }

    /// The four-phase partition in [`DmaPhase::ALL`] order; sums to
    /// [`CommandLifecycle::latency`] exactly.
    #[inline]
    pub fn phases(&self) -> [u64; 4] {
        let t = self.timeline();
        [
            t[1].saturating_since(t[0]),
            t[2].saturating_since(t[1]),
            t[3].saturating_since(t[2]),
            t[4].saturating_since(t[3]),
        ]
    }

    /// Cycles spent in one phase.
    #[inline]
    pub fn phase(&self, phase: DmaPhase) -> u64 {
        let idx = DmaPhase::ALL
            .iter()
            .position(|&p| p == phase)
            .expect("phase in ALL");
        self.phases()[idx]
    }

    /// The phase holding the most cycles (earliest phase wins ties) —
    /// the per-command dominant-phase attribution.
    #[inline]
    pub fn dominant_phase(&self) -> DmaPhase {
        let phases = self.phases();
        let mut best = 0;
        for (i, &cycles) in phases.iter().enumerate() {
            if cycles > phases[best] {
                best = i;
            }
        }
        DmaPhase::ALL[best]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(offset: u64) -> EffectiveAddr {
        EffectiveAddr::Memory {
            region: RegionId(0),
            offset,
        }
    }

    fn tag() -> TagId {
        TagId::new(0).unwrap()
    }

    #[test]
    fn valid_sizes_accepted() {
        for bytes in [1u32, 2, 4, 8, 16, 128, 1024, 16384] {
            assert!(
                DmaCommand::new(DmaKind::Get, LsAddr(0), mem(0), bytes, tag()).is_ok(),
                "size {bytes} should be valid"
            );
        }
    }

    #[test]
    fn invalid_sizes_rejected() {
        for bytes in [3u32, 5, 12, 17, 100] {
            assert_eq!(
                DmaCommand::new(DmaKind::Get, LsAddr(0), mem(0), bytes, tag()),
                Err(DmaError::InvalidSize(bytes))
            );
        }
        assert_eq!(
            DmaCommand::new(DmaKind::Get, LsAddr(0), mem(0), 0, tag()),
            Err(DmaError::Empty)
        );
        assert_eq!(
            DmaCommand::new(DmaKind::Get, LsAddr(0), mem(0), 16400, tag()),
            Err(DmaError::TooLarge(16400))
        );
    }

    #[test]
    fn natural_alignment_enforced_for_small() {
        // 8-byte transfer at an unaligned LS offset.
        assert!(matches!(
            DmaCommand::new(DmaKind::Get, LsAddr(4), mem(4), 8, tag()),
            Err(DmaError::Misaligned { .. })
        ));
        // Aligned but quadword offsets differ.
        assert!(matches!(
            DmaCommand::new(DmaKind::Get, LsAddr(8), mem(16), 8, tag()),
            Err(DmaError::Misaligned { .. })
        ));
        // Same quadword offset: fine.
        assert!(DmaCommand::new(DmaKind::Get, LsAddr(8), mem(24), 8, tag()).is_ok());
    }

    #[test]
    fn quadword_alignment_enforced_for_large() {
        assert!(matches!(
            DmaCommand::new(DmaKind::Put, LsAddr(8), mem(0), 128, tag()),
            Err(DmaError::Misaligned { .. })
        ));
        assert!(DmaCommand::new(DmaKind::Put, LsAddr(16), mem(32), 128, tag()).is_ok());
    }

    #[test]
    fn local_store_bounds_enforced() {
        assert_eq!(
            DmaCommand::new(
                DmaKind::Get,
                LsAddr(LOCAL_STORE_BYTES - 64),
                mem(0),
                128,
                tag()
            ),
            Err(DmaError::LocalStoreOverrun)
        );
        let remote = EffectiveAddr::LocalStore {
            spe: 1,
            offset: LOCAL_STORE_BYTES - 64,
        };
        assert_eq!(
            DmaCommand::new(DmaKind::Get, LsAddr(0), remote, 128, tag()),
            Err(DmaError::LocalStoreOverrun)
        );
    }

    #[test]
    fn bad_spe_index_rejected() {
        let remote = EffectiveAddr::LocalStore { spe: 9, offset: 0 };
        assert_eq!(
            DmaCommand::new(DmaKind::Get, LsAddr(0), remote, 128, tag()),
            Err(DmaError::BadSpe(9))
        );
    }

    #[test]
    fn advanced_moves_both_address_kinds() {
        assert_eq!(mem(100).advanced(28).offset(), 128);
        let ls = EffectiveAddr::LocalStore { spe: 2, offset: 64 };
        assert_eq!(ls.advanced(64).offset(), 128);
    }

    #[test]
    fn errors_display_meaningfully() {
        let e = DmaError::InvalidSize(3);
        assert!(e.to_string().contains('3'));
        let e = DmaError::QueueFull;
        assert!(!e.to_string().is_empty());
    }
}
