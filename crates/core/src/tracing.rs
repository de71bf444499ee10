//! Fabric tracing: what the machine did, cycle by cycle.
//!
//! [`crate::CellSystem::try_run_with_sink`] streams one [`FabricEvent`]
//! per packet phase (command issue, memory access, ring grant, delivery)
//! into a [`TraceSink`]. The one sink is the persistent trace store's
//! [`TraceStoreWriter`](crate::tracestore::TraceStoreWriter): events are
//! encoded block by block as they arrive, so a paper-scale run (32 MiB ×
//! 8 SPEs, ~8M events) is recorded whole with no full-run buffer.
//! Post-hoc analyses (throughput timelines, hop statistics, Chrome
//! projections) read the finished store through
//! [`TraceStore::for_each`](crate::tracestore::TraceStore::for_each).
//! Per-SPE, per-ring and per-bank byte totals need no trace at all: the
//! always-on [`FabricMetrics`](crate::FabricMetrics) in every report
//! carry them.

use cellsim_eib::RingId;
use cellsim_kernel::Cycle;
use cellsim_mem::BankId;

use crate::latency::DmaPathClass;

/// Context the fabric knows at every trace point, shared by all event
/// kinds: the initiating logical SPE and the DMA path class of the
/// packet. The trace store indexes its blocks on both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceMeta {
    /// Initiating logical SPE.
    pub spe: u8,
    /// The packet's DMA path (mem-get/mem-put/ls-get/ls-put).
    pub path: DmaPathClass,
}

/// Where the fabric sends trace events: the streaming
/// [`TraceStoreWriter`](crate::tracestore::TraceStoreWriter), behind a
/// trait object so the fabric does not carry the writer's output type.
/// One simulation drives at most one sink. Sinks must be infallible: a
/// sink that can fail (I/O) latches its error internally and reports it
/// when finalized, never mid-run.
pub trait TraceSink {
    /// Records one event at simulated time `at`.
    fn record(&mut self, at: Cycle, meta: TraceMeta, event: FabricEvent);
}

/// One traced fabric occurrence. The initiating SPE of every kind is
/// [`TraceMeta::spe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricEvent {
    /// An MFC put a packet on the command bus.
    CommandIssued,
    /// A DRAM access was queued.
    MemoryAccess {
        /// Which bank served it.
        bank: BankId,
        /// Payload size.
        bytes: u32,
    },
    /// The data arbiter granted a ring.
    Granted {
        /// Ring carrying the packet.
        ring: RingId,
        /// Path length.
        hops: usize,
        /// Payload size.
        bytes: u32,
    },
    /// A packet retired: its payload reached its final destination (for
    /// memory PUTs that is the DRAM write completing, not wire arrival)
    /// and its MFC slot freed. Recorded at retirement so the event count
    /// equals [`FabricReport::packets`](crate::FabricReport::packets)
    /// exactly, even when a fault plan abandons packets mid-flight.
    Delivered {
        /// Payload size.
        bytes: u32,
    },
}
