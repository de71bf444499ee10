//! Model of the Cell BE **Memory Flow Controller** (MFC).
//!
//! Every SPE owns an MFC: a DMA controller that moves data between the
//! SPE's Local Store and any effective address — main memory or another
//! SPE's memory-mapped Local Store. The ISPASS 2007 experiments exercise
//! exactly the structures modelled here:
//!
//! * the **16-entry SPU command queue** (saturating it is the paper's
//!   first programming rule),
//! * the CBE **DMA validity rules** — sizes of 1/2/4/8 bytes or multiples
//!   of 16 up to 16 KB, natural alignment ([`DmaCommand::validate`]),
//! * the **unroller**, which chops a command into ≤128-byte bus packets
//!   aligned to 128-byte effective-address boundaries,
//! * the bounded budget of **outstanding bus packets** — together with the
//!   memory round-trip latency, this Little's-law limit is why a single
//!   SPE sustains only ≈60 % of a bank's peak,
//! * **DMA-list commands** ([`DmaListCommand`]), which pay the command
//!   startup once and then stream list elements back-to-back — why the
//!   paper's DMA-list bandwidth is flat across element sizes,
//! * **tag groups** and the wait/sync semantics behind the paper's
//!   delayed-synchronization experiment (Figure 10).
//!
//! # Example
//!
//! ```
//! use cellsim_kernel::Cycle;
//! use cellsim_mem::RegionId;
//! use cellsim_mfc::{DmaCommand, DmaKind, EffectiveAddr, Issue, LsAddr, MfcConfig, MfcEngine, TagId};
//!
//! let mut mfc = MfcEngine::new(MfcConfig::default()).expect("default config is valid");
//! let cmd = DmaCommand::new(
//!     DmaKind::Get,
//!     LsAddr(0),
//!     EffectiveAddr::Memory { region: RegionId(0), offset: 0 },
//!     512,
//!     TagId::new(3)?,
//! )?;
//! mfc.enqueue(Cycle::ZERO, cmd)?;
//! // The engine stalls through the command-startup window, then issues
//! // four 128-byte packets.
//! let mut issued = 0;
//! let mut now = Cycle::ZERO;
//! loop {
//!     match mfc.try_issue(now) {
//!         Issue::Packet(p) => { issued += 1; now = now + 1; }
//!         Issue::Stalled { retry_at } => now = retry_at,
//!         Issue::Blocked | Issue::Idle => break,
//!     }
//! }
//! assert_eq!(issued, 4);
//! # Ok::<(), cellsim_mfc::DmaError>(())
//! ```

mod command;
mod engine;
mod list;
mod tag;

pub use command::{
    CommandLifecycle, DmaCommand, DmaError, DmaKind, DmaPhase, EffectiveAddr, ElementLifecycle,
    LsAddr, TargetClass,
};
pub use engine::{
    ConfigError, Issue, MfcConfig, MfcEngine, MfcStats, NackVerdict, PacketOut, PacketToken,
    MAX_QUEUE_DEPTH,
};
pub use list::{DmaListCommand, ListElement};
pub use tag::{TagId, TagSet};

/// Local Store capacity in bytes (256 KB on every CBE SPE).
pub const LOCAL_STORE_BYTES: u32 = 256 * 1024;

/// Largest single DMA transfer the MFC accepts (16 KB).
pub const MAX_DMA_BYTES: u32 = 16 * 1024;

/// Maximum number of elements in one DMA list (2048 on the CBE).
pub const MAX_LIST_ELEMENTS: usize = 2048;
