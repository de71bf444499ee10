//! Model of the Cell Broadband Engine **Element Interconnect Bus** (EIB).
//!
//! The EIB connects twelve *ramps* — the PPE, eight SPEs, the memory
//! interface controller (MIC) and two I/O interfaces — with four
//! unidirectional data rings (two clockwise, two counter-clockwise), each
//! 16 bytes wide and clocked at half the CPU frequency. A transfer moves a
//! packet of up to 128 bytes; the central data arbiter grants a ring only
//! if every segment along the (shortest) path is free and never routes a
//! packet more than halfway around. A separate command bus starts at most
//! one coherence command per bus cycle.
//!
//! These structural rules are what produce the headline observations of the
//! ISPASS 2007 study: near-peak bandwidth for an isolated SPE pair, heavy
//! placement sensitivity for four concurrent pairs, and saturation when all
//! eight SPEs stream to their neighbours.
//!
//! # Example
//!
//! ```
//! use cellsim_eib::{Eib, EibConfig, Element, FlowClass, Topology, TransferRequest};
//! use cellsim_kernel::Cycle;
//!
//! let mut eib = Eib::new(Topology::cbe(), EibConfig::default());
//! eib.submit(
//!     Cycle::ZERO,
//!     0,
//!     TransferRequest {
//!         src: Element::spe(0),
//!         dst: Element::spe(1),
//!         bytes: 128,
//!         class: FlowClass::MfcOut,
//!     },
//! );
//! let grants = eib.arbitrate(Cycle::ZERO);
//! assert_eq!(grants.len(), 1);
//! // 128 B at 16 B/cycle = 8 cycles on the wire, plus per-hop latency.
//! assert!(grants[0].1.delivered_at >= Cycle::new(8));
//! ```

mod arbiter;
mod cmdbus;
mod ring;
mod topology;

pub use arbiter::{
    Eib, EibConfig, EibStats, FlowClass, Grant, RingOccupancy, RingStats, TransferRequest,
    RELEASE_RING_SPAN,
};
pub use cmdbus::CommandBus;
pub use ring::{Ring, RingId};
pub use topology::{Direction, Element, RampIndex, Route, Topology};
