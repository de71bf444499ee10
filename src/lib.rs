//! # cellsim
//!
//! A discrete-event simulator of the **Cell Broadband Engine**'s
//! communication architecture, built to reproduce every measurement of
//! *“Performance Analysis of Cell Broadband Engine for High Memory
//! Bandwidth Applications”* (Jiménez-González, Martorell, Ramírez;
//! ISPASS 2007).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`kernel`] — the deterministic event engine, simulated time and
//!   bandwidth statistics;
//! * [`eib`] — the Element Interconnect Bus: four rings, twelve ramps,
//!   the central data arbiter and the command bus;
//! * [`mem`] — dual XDR banks (MIC + IOIF paths) and NUMA placement;
//! * [`mfc`] — the per-SPE DMA engines: command validation, 16-entry
//!   queues, tag groups, DMA lists, outstanding-packet budgets;
//! * [`faults`] — deterministic fault injection: seeded [`FaultPlan`]s
//!   describing ring outages, bandwidth derates, bank NACKs, MFC slot
//!   loss and fused-off SPEs (the PS3 part, [`CellSystem::ps3`]);
//! * [`spe`] — Local Store and the SPU load/store pipeline;
//! * [`ppe`] — the SMT PPU with its L1/L2 hierarchy and store queues;
//! * [`core`] — the assembled machine, transfer plans and the paper's
//!   experiments;
//! * [`workloads`] — seeded application-shaped address-stream
//!   generators (GUPS random updates, stencil halos, pair lists) that
//!   `core` compiles into transfer plans, and the program descriptors
//!   (small kernels, CellSs-style tasks) of the paper's stated future
//!   work, which [`experiments`] runs on the simulated fabric.
//!
//! The most useful entry points are re-exported at the top level.
//!
//! ```
//! use cellsim::{CellSystem, Placement, SyncPolicy, TransferPlan};
//!
//! let system = CellSystem::blade();
//! let plan = TransferPlan::builder()
//!     .exchange_with(0, 1, 1 << 20, 16 * 1024, SyncPolicy::AfterAll)
//!     .build()?;
//! let report = system.try_run(&Placement::identity(), &plan)?;
//! // A single SPE pair approaches the 33.6 GB/s bidirectional peak.
//! assert!(report.aggregate_gbps > 30.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use cellsim_core as core;
pub use cellsim_eib as eib;
pub use cellsim_faults as faults;
pub use cellsim_kernel as kernel;
pub use cellsim_mem as mem;
pub use cellsim_mfc as mfc;
pub use cellsim_ppe as ppe;
pub use cellsim_spe as spe;
pub use cellsim_workloads as workloads;

pub use cellsim_core::{
    baseline, diskcache, exec, experiments, failure, json, latency, metrics, report, tracestore,
    BankFaults, BankMetrics, CellConfig, CellSystem, DerateWindow, DmaPathClass, EibFaults,
    FabricEvent, FabricMetrics, FabricReport, FaultPlan, FaultPlanError, FaultStats,
    LatencyHistogram, LatencyMetrics, MachineState, MetricsSummary, MfcFaults, PacketPhase,
    Placement, PlanError, RetryPolicy, RingOutage, RunFailure, SpeMetrics, SpeScript, SpeStall,
    StallDiagnosis, StallKind, SyncPolicy, TraceMeta, TraceSink, TransferPlan, TransferPlanBuilder,
    Window, REGION_STRIDE, SPE_COUNT,
};
