//! The full-machine discrete-event simulation binding MFCs, EIB and
//! memory together.
//!
//! Every DMA command is unrolled by its MFC into ≤128-byte bus packets.
//! Each packet's life is:
//!
//! 1. **Command phase** — a slot on the global command bus plus the snoop
//!    latency.
//! 2. **Source ready** — a DRAM read (GETs from memory), a bank-acceptance
//!    check (PUTs to memory, which stall under write backpressure), or a
//!    short Local-Store access (LS↔LS traffic).
//! 3. **Data phase** — the EIB data arbiter grants a ring whose path
//!    segments and end-point ports are free.
//! 4. **Delivery** — payload arrives; the MFC retires the packet, freeing
//!    an outstanding-budget slot, and (for memory PUTs) the DRAM write is
//!    enqueued.

use cellsim_eib::{
    CommandBus, Eib, EibStats, Element, FlowClass, Grant, Topology, TransferRequest,
};
use cellsim_faults::FaultPlan;
use cellsim_kernel::{Cycle, Model, Scheduler, Simulation};
use cellsim_mem::{BankId, MemorySystem, Op};
use cellsim_mfc::{
    DmaKind, EffectiveAddr, Issue, LsAddr, MfcEngine, NackVerdict, PacketOut, PacketToken,
};

use crate::config::CellConfig;
use crate::data::MachineState;
use crate::failure::{PacketPhase, RunFailure, SpeStall, StallDiagnosis, StallKind};
use crate::latency::{DmaPathClass, LatencyMetrics};
use crate::metrics::{BankMetrics, FabricMetrics, FaultStats, SpeMetrics};
use crate::placement::Placement;
use crate::plan::{Commands, Planned, SyncPolicy, TransferPlan};
use crate::tracing::{FabricEvent, TraceMeta, TraceSink};
use cellsim_kernel::RunOutcome;

/// Safety horizon: a fabric run that has not completed by this many bus
/// cycles is stalled and returns [`RunFailure::Stall`].
const MAX_CYCLES: u64 = 50_000_000_000;

/// Livelock bound: this many consecutive events without simulated time
/// advancing is a zero-delay event storm, not progress.
const MAX_STAGNANT_EVENTS: u64 = 10_000_000;

/// Measured outcome of one transfer plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FabricReport {
    /// Bus cycles until the last payload byte was delivered.
    pub cycles: u64,
    /// Total payload bytes delivered (all SPEs, both directions).
    pub total_bytes: u64,
    /// Total bytes over the whole run's wall-clock, in GB/s.
    pub aggregate_gbps: f64,
    /// Sum of the per-SPE bandwidths, each measured over that SPE's own
    /// completion time — the paper's weak-scaling accounting, where every
    /// SPE times its own fixed-size transfer.
    pub sum_gbps: f64,
    /// Per-logical-SPE bytes delivered.
    pub per_spe_bytes: Vec<u64>,
    /// Per-logical-SPE completion time (cycle of its last delivery).
    pub per_spe_cycles: Vec<u64>,
    /// Per-logical-SPE bandwidth over that SPE's own completion time.
    pub per_spe_gbps: Vec<f64>,
    /// EIB occupancy counters.
    pub eib: EibStats,
    /// Bus packets moved.
    pub packets: u64,
    /// Always-on cycle accounting: per-SPE stall breakdown, per-ring and
    /// per-bank occupancy, MFC outstanding-slot histogram.
    pub metrics: FabricMetrics,
    /// Per-command latency digest: end-to-end log2 histograms per DMA
    /// path with phase attribution (queue/slot/ring/service), folded in
    /// at each command's retirement. Deterministic and `PartialEq`, so
    /// the sweep executor's serial/parallel/cached equivalence covers it.
    pub latency: LatencyMetrics,
}

/// Events of the fabric simulation.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Feed and fire one SPE's MFC (by index into `Fabric::spes`).
    Pump(u32),
    /// Command bus phase finished for a packet.
    CmdDone(u32),
    /// Packet's source data is available; request the data bus.
    SrcReady(u32),
    /// Re-check memory write acceptance for a backpressured PUT.
    MemRetry(u32),
    /// Re-attempt a NACKed bank access after its backoff elapsed.
    NackRetry(u32),
    /// Re-run data arbitration.
    EibKick,
    /// Packet payload arrived at its destination.
    Delivered(u32),
    /// A memory PUT's DRAM write retired; the MFC slot frees now.
    Retired(u32),
}

// Every variant carries at most a `u32`, so the event queue moves 8 bytes
// per event.
const _: () = assert!(std::mem::size_of::<Ev>() == 8);

#[derive(Debug, Clone, Copy)]
struct PacketInfo {
    spe: usize,
    token: PacketToken,
    kind: DmaKind,
    bytes: u32,
    ls: LsAddr,
    ea: EffectiveAddr,
    src: Element,
    dst: Element,
    class: FlowClass,
    bank: Option<BankId>,
    /// Currently refused by the bank's backlog horizon (stall accounting).
    waiting_mem: bool,
    /// Lifecycle position, kept current at every transition so a stall
    /// diagnosis can count in-flight packets per phase.
    phase: PacketPhase,
}

/// What an SPE is doing right now, for the stall-cycle partition. Exactly
/// one state holds at a time; cycles are charged to the state that held
/// them, so the six counters sum to the run length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpeState {
    /// No queued commands, nothing in flight (before start / after done).
    Idle,
    /// Work available and the MFC can make progress.
    Busy,
    /// Blocked on a tag-group sync.
    StallSync,
    /// Outstanding budget exhausted; everything in flight is on the wire
    /// or in DRAM (latency-limited — the Little's-law ceiling).
    StallMfcFull,
    /// Outstanding budget exhausted with packets queued at the EIB
    /// arbiter (ring contention).
    StallEib,
    /// Outstanding budget exhausted with a PUT refused by a bank's
    /// backlog horizon (write backpressure).
    StallMem,
}

impl SpeState {
    /// Stable kebab-case name (the stall-diagnosis `state` field).
    fn name(self) -> &'static str {
        match self {
            SpeState::Idle => "idle",
            SpeState::Busy => "busy",
            SpeState::StallSync => "stall-sync",
            SpeState::StallMfcFull => "stall-mfc-full",
            SpeState::StallEib => "stall-eib",
            SpeState::StallMem => "stall-mem",
        }
    }
}

struct SpeCtx<'p> {
    mfc: MfcEngine,
    /// The script's commands not yet enqueued.
    commands: Commands<'p>,
    sync: SyncPolicy,
    issued_since_sync: u32,
    waiting_sync: bool,
    enqueue_ready: Cycle,
    pump_scheduled: Option<Cycle>,
    bytes: u64,
    last_delivery: Cycle,
    state: SpeState,
    /// Cycle since which `state` has held.
    state_since: Cycle,
    /// This SPE's packets queued at the EIB data arbiter.
    pkts_waiting_eib: u32,
    /// This SPE's PUT packets refused by a bank's backlog horizon.
    pkts_waiting_mem: u32,
    /// Accumulated stall partition (occupancy filled in at run end).
    stalls: SpeMetrics,
}

impl SpeCtx<'_> {
    /// The current state, by descending blocking priority: a sync wait
    /// trumps a full outstanding budget, whose cause is read off the
    /// waiting-packet counters.
    fn classify(&self) -> SpeState {
        if self.commands.len() == 0 && self.mfc.is_idle() {
            return SpeState::Idle;
        }
        if self.waiting_sync {
            return SpeState::StallSync;
        }
        // `slot_budget` is the configured budget unless a fault plan
        // installed a tighter slot limit.
        if self.mfc.outstanding() >= self.mfc.slot_budget() {
            if self.pkts_waiting_mem > 0 {
                return SpeState::StallMem;
            }
            if self.pkts_waiting_eib > 0 {
                return SpeState::StallEib;
            }
            return SpeState::StallMfcFull;
        }
        SpeState::Busy
    }

    /// Charges `dt` cycles to the current state.
    fn charge(&mut self, dt: u64) {
        let counter = match self.state {
            SpeState::Idle => &mut self.stalls.idle_cycles,
            SpeState::Busy => &mut self.stalls.busy_cycles,
            SpeState::StallSync => &mut self.stalls.stall_sync_cycles,
            SpeState::StallMfcFull => &mut self.stalls.stall_mfc_full_cycles,
            SpeState::StallEib => &mut self.stalls.stall_eib_cycles,
            SpeState::StallMem => &mut self.stalls.stall_mem_cycles,
        };
        *counter += dt;
    }
}

struct Fabric<'d> {
    eib: Eib,
    cmdbus: CommandBus,
    mem: MemorySystem,
    placement: Placement,
    spes: Vec<SpeCtx<'d>>,
    /// Packet slab: retired entries go on `free_slots` and are reused, so
    /// the live footprint is bounded by the machine's outstanding budget
    /// instead of growing for the whole run.
    packets: Vec<PacketInfo>,
    free_slots: Vec<u32>,
    /// High-water mark of simultaneously live slab entries.
    peak_live_packets: u64,
    /// Stale `Ev::Pump` firings skipped because an earlier pump for the
    /// same SPE had already run (see [`Fabric::schedule_pump`]).
    suppressed_pumps: u64,
    kick_scheduled: Option<Cycle>,
    /// Grant buffer reused by every [`Fabric::kick`].
    grants: Vec<(u64, Grant)>,
    delivered_packets: u64,
    /// NACK/retry tallies (all-zero without an active fault plan).
    fault_stats: FaultStats,
    /// Per-command latency digest, folded in at retirement.
    latency: LatencyMetrics,
    /// Optional functional storage: when present, every delivered packet
    /// copies real bytes.
    data: Option<&'d mut MachineState>,
    /// Optional event sink (the streaming trace-store writer).
    trace: Option<&'d mut (dyn TraceSink + 'd)>,
}

/// The sink metadata every trace point carries: the initiating logical
/// SPE and the packet's DMA path class, both read off the packet record.
fn trace_meta(info: &PacketInfo) -> TraceMeta {
    let path = match (info.kind, info.bank.is_some()) {
        (DmaKind::Get, true) => DmaPathClass::MemGet,
        (DmaKind::Put, true) => DmaPathClass::MemPut,
        (DmaKind::Get, false) => DmaPathClass::LsGet,
        (DmaKind::Put, false) => DmaPathClass::LsPut,
    };
    TraceMeta {
        spe: u8::try_from(info.spe).expect("logical SPE index fits u8"),
        path,
    }
}

/// Copies a delivered packet's payload through the functional storage.
fn apply_payload(data: &mut MachineState, info: &PacketInfo) {
    let n = info.bytes as usize;
    match (info.kind, info.ea) {
        (DmaKind::Get, EffectiveAddr::Memory { region, offset }) => {
            let bytes = data.read_region(region, offset, n);
            data.local_store_mut(info.spe).write(info.ls.0, &bytes);
        }
        (
            DmaKind::Get,
            EffectiveAddr::LocalStore {
                spe: target,
                offset,
            },
        ) => {
            let bytes = data
                .local_store(usize::from(target))
                .read(offset, n)
                .to_vec();
            data.local_store_mut(info.spe).write(info.ls.0, &bytes);
        }
        (DmaKind::Put, EffectiveAddr::Memory { region, offset }) => {
            let bytes = data.local_store(info.spe).read(info.ls.0, n).to_vec();
            data.write_region(region, offset, &bytes);
        }
        (
            DmaKind::Put,
            EffectiveAddr::LocalStore {
                spe: target,
                offset,
            },
        ) => {
            let bytes = data.local_store(info.spe).read(info.ls.0, n).to_vec();
            data.local_store_mut(usize::from(target))
                .write(offset, &bytes);
        }
    }
}

impl Fabric<'_> {
    fn spe_element(&self, logical: usize) -> Element {
        Element::spe(self.placement.physical(logical))
    }

    fn bank_element(bank: BankId) -> Element {
        match bank {
            BankId::Local => Element::Mic,
            BankId::Remote => Element::Ioif0,
        }
    }

    /// Re-evaluates an SPE's state and charges the elapsed interval to the
    /// state that just ended. Idle→Idle is a no-op: stray wakeups after an
    /// SPE completed must not extend its idle span past the run end (the
    /// final interval is flushed once, at run end).
    fn note_spe_state(&mut self, spe: usize, now: Cycle) {
        let ctx = &mut self.spes[spe];
        let new = ctx.classify();
        if ctx.state == SpeState::Idle && new == SpeState::Idle {
            return;
        }
        let dt = now.saturating_since(ctx.state_since);
        ctx.charge(dt);
        ctx.state = new;
        ctx.state_since = ctx.state_since.max(now);
    }

    fn schedule_pump(&mut self, spe: usize, at: Cycle, sched: &mut Scheduler<Ev>) {
        let slot = &mut self.spes[spe].pump_scheduled;
        if slot.is_none_or(|t| at < t) {
            *slot = Some(at);
            let spe = u32::try_from(spe).expect("SPE index fits u32");
            sched.schedule(at, Ev::Pump(spe));
        }
    }

    fn pump(&mut self, spe: usize, now: Cycle, sched: &mut Scheduler<Ev>, cfg: &CellConfig) {
        // Feed queued commands into the MFC, honouring the sync policy.
        loop {
            let ctx = &mut self.spes[spe];
            if ctx.waiting_sync {
                if ctx.mfc.tags().any_pending() {
                    break; // re-pumped on the next delivery
                }
                ctx.waiting_sync = false;
                ctx.issued_since_sync = 0;
            }
            if ctx.commands.len() == 0 || !ctx.mfc.has_space() {
                break;
            }
            if ctx.enqueue_ready > now {
                let at = ctx.enqueue_ready;
                self.schedule_pump(spe, at, sched);
                break;
            }
            let cmd = ctx.commands.next().expect("checked non-empty");
            let result = match cmd {
                Planned::Elem(c) => ctx.mfc.enqueue(now, c),
                Planned::List(l) => ctx.mfc.enqueue_list(now, l),
            };
            result.expect("plan-validated command rejected by MFC");
            ctx.enqueue_ready = now + cfg.enqueue_cost;
            ctx.issued_since_sync += 1;
            if let SyncPolicy::Every(k) = ctx.sync {
                if ctx.issued_since_sync >= k {
                    ctx.waiting_sync = true;
                }
            }
        }
        // Fire packets until the MFC stalls or blocks.
        loop {
            match self.spes[spe].mfc.try_issue(now) {
                Issue::Packet(p) => self.start_packet(spe, p, now, sched),
                Issue::Stalled { retry_at } => {
                    self.schedule_pump(spe, retry_at, sched);
                    break;
                }
                Issue::Blocked | Issue::Idle => break,
            }
        }
        self.note_spe_state(spe, now);
    }

    fn start_packet(&mut self, spe: usize, p: PacketOut, now: Cycle, sched: &mut Scheduler<Ev>) {
        let me = self.spe_element(spe);
        let (src, dst, class, bank) = match p.ea {
            EffectiveAddr::Memory { region, offset } => {
                let bank = self.mem.bank_for(region, offset);
                let elem = Self::bank_element(bank);
                match p.kind {
                    DmaKind::Get => (elem, me, FlowClass::MemRead, Some(bank)),
                    DmaKind::Put => (me, elem, FlowClass::MfcOut, Some(bank)),
                }
            }
            EffectiveAddr::LocalStore { spe: target, .. } => {
                let telem = self.spe_element(usize::from(target));
                match p.kind {
                    // A get's data is read out of the *target's* LS.
                    DmaKind::Get => (telem, me, FlowClass::LsRead, None),
                    DmaKind::Put => (me, telem, FlowClass::MfcOut, None),
                }
            }
        };
        let info = PacketInfo {
            spe,
            token: p.token,
            kind: p.kind,
            bytes: p.bytes,
            ls: p.ls,
            ea: p.ea,
            src,
            dst,
            class,
            bank,
            waiting_mem: false,
            phase: PacketPhase::Command,
        };
        let id = match self.free_slots.pop() {
            Some(id) => {
                self.packets[id as usize] = info;
                id
            }
            None => {
                let id = u32::try_from(self.packets.len()).expect("packet id fits u32");
                self.packets.push(info);
                id
            }
        };
        let live = (self.packets.len() - self.free_slots.len()) as u64;
        self.peak_live_packets = self.peak_live_packets.max(live);
        let cmd_done = self.cmdbus.issue(now);
        if let Some(t) = self.trace.as_mut() {
            t.record(now, trace_meta(&info), FabricEvent::CommandIssued);
        }
        sched.schedule(cmd_done, Ev::CmdDone(id));
    }

    fn on_cmd_done(&mut self, id: u32, now: Cycle, sched: &mut Scheduler<Ev>, cfg: &CellConfig) {
        let info = self.packets[id as usize];
        match (info.kind, info.bank) {
            (DmaKind::Get, Some(_)) => self.try_get_from_memory(id, now, sched, cfg),
            (DmaKind::Put, Some(_)) => self.try_put_to_memory(id, now, sched),
            // LS↔LS: a short Local-Store access at the data source.
            (_, None) => {
                self.packets[id as usize].phase = PacketPhase::SourceWait;
                sched.schedule(now + cfg.ls_access_latency, Ev::SrcReady(id));
            }
        }
    }

    /// Submits a GET's DRAM read. Under an active fault plan the bank may
    /// transiently NACK instead, in which case the packet backs off and
    /// this re-runs at the retry time (or the packet is abandoned once
    /// its command's retry budget is spent).
    fn try_get_from_memory(
        &mut self,
        id: u32,
        now: Cycle,
        sched: &mut Scheduler<Ev>,
        cfg: &CellConfig,
    ) {
        let info = self.packets[id as usize];
        let bank = info.bank.expect("memory get has a bank");
        self.packets[id as usize].phase = PacketPhase::SourceWait;
        if self.mem.nack_roll(bank) {
            self.on_nack(id, now, sched, cfg);
            return;
        }
        let access = self.mem.submit(now, bank, Op::Read, info.bytes);
        self.spes[info.spe]
            .mfc
            .note_bank_service(info.token, access.service_cycles());
        if let Some(t) = self.trace.as_mut() {
            t.record(
                now,
                trace_meta(&info),
                FabricEvent::MemoryAccess {
                    bank,
                    bytes: info.bytes,
                },
            );
        }
        sched.schedule(access.data_ready, Ev::SrcReady(id));
    }

    /// Answers a bank NACK: count it, then either schedule the backoff
    /// retry the MFC granted or abandon the packet (budget exhausted —
    /// the typed `DmaError::RetriesExhausted` surfaces through the
    /// command's lifecycle record and the run's `FaultStats`).
    fn on_nack(&mut self, id: u32, now: Cycle, sched: &mut Scheduler<Ev>, cfg: &CellConfig) {
        let info = self.packets[id as usize];
        self.fault_stats.nacks += 1;
        match self.spes[info.spe].mfc.note_nack(now, info.token) {
            NackVerdict::Retry { at, .. } => {
                self.fault_stats.retries += 1;
                sched.schedule(at, Ev::NackRetry(id));
            }
            NackVerdict::Exhausted(_) => {
                self.fault_stats.retries_exhausted += 1;
                self.abandon(id, now, sched, cfg);
            }
        }
    }

    /// Gives up on a packet whose retry budget ran out: the outstanding
    /// slot and queue entry drain exactly as on delivery, but no payload
    /// bytes are credited and the command is marked exhausted.
    fn abandon(&mut self, id: u32, now: Cycle, sched: &mut Scheduler<Ev>, cfg: &CellConfig) {
        let info = self.packets[id as usize];
        self.packets[id as usize].phase = PacketPhase::Retired;
        self.free_slots.push(id); // no pending event references `id` now
        self.fault_stats.abandoned_packets += 1;
        let ctx = &mut self.spes[info.spe];
        let completed = ctx.mfc.packet_abandoned(now, info.token);
        ctx.last_delivery = ctx.last_delivery.max(now);
        if completed {
            let life = ctx
                .mfc
                .last_completed()
                .expect("completed command has a lifecycle record");
            self.latency.observe(life);
        }
        self.pump(info.spe, now, sched, cfg);
    }

    fn try_put_to_memory(&mut self, id: u32, now: Cycle, sched: &mut Scheduler<Ev>) {
        let info = self.packets[id as usize];
        let bank = info.bank.expect("memory put has a bank");
        if self.mem.can_accept(bank, now) {
            self.submit_to_eib(id, now, sched);
        } else {
            let at = self.mem.next_accept_time(bank, now).max(now + 1);
            self.packets[id as usize].phase = PacketPhase::MemWait;
            if !self.packets[id as usize].waiting_mem {
                self.packets[id as usize].waiting_mem = true;
                self.spes[info.spe].pkts_waiting_mem += 1;
                self.note_spe_state(info.spe, now);
            }
            sched.schedule(at, Ev::MemRetry(id));
        }
    }

    fn submit_to_eib(&mut self, id: u32, now: Cycle, sched: &mut Scheduler<Ev>) {
        let info = self.packets[id as usize];
        if info.waiting_mem {
            self.packets[id as usize].waiting_mem = false;
            self.spes[info.spe].pkts_waiting_mem -= 1;
        }
        self.packets[id as usize].phase = PacketPhase::EibQueue;
        self.spes[info.spe].pkts_waiting_eib += 1;
        self.note_spe_state(info.spe, now);
        self.eib.submit(
            now,
            u64::from(id),
            TransferRequest {
                src: info.src,
                dst: info.dst,
                bytes: info.bytes,
                class: info.class,
            },
        );
        self.kick(now, sched);
    }

    fn kick(&mut self, now: Cycle, sched: &mut Scheduler<Ev>) {
        let mut grants = std::mem::take(&mut self.grants);
        self.eib.arbitrate_into(now, &mut grants);
        for (token, grant) in grants.drain(..) {
            let id = u32::try_from(token).expect("token is a packet id");
            let info = self.packets[id as usize];
            self.packets[id as usize].phase = PacketPhase::OnWire;
            self.spes[info.spe].pkts_waiting_eib -= 1;
            self.spes[info.spe]
                .mfc
                .note_grant(now, info.token, grant.waited);
            let spe = info.spe;
            self.note_spe_state(spe, now);
            if let Some(t) = self.trace.as_mut() {
                t.record(
                    now,
                    trace_meta(&info),
                    FabricEvent::Granted {
                        ring: grant.ring,
                        hops: grant.hops,
                        bytes: info.bytes,
                    },
                );
            }
            sched.schedule(grant.delivered_at, Ev::Delivered(id));
        }
        self.grants = grants;
        if let Some(at) = self.eib.next_wakeup(now) {
            if self.kick_scheduled.is_none_or(|t| at < t || t <= now) {
                self.kick_scheduled = Some(at);
                sched.schedule(at, Ev::EibKick);
            }
        }
    }

    fn on_delivered(&mut self, id: u32, now: Cycle, sched: &mut Scheduler<Ev>, cfg: &CellConfig) {
        let info = self.packets[id as usize];
        if let Some(data) = self.data.as_deref_mut() {
            apply_payload(data, &info);
        }
        if info.kind == DmaKind::Put && info.bank.is_some() {
            self.put_write_to_memory(id, now, sched, cfg);
            return;
        }
        self.retire(id, now, sched, cfg);
    }

    /// Enqueues a delivered memory PUT's DRAM write. The MFC slot is held
    /// until the write retires in DRAM — this is why the paper measures
    /// PUT ≈ GET ≈ 10 GB/s for a single SPE rather than fire-and-forget
    /// write speed. Under an active fault plan the bank may transiently
    /// NACK the write; the payload then sits delivered at the bank's
    /// front-end until the backoff retry re-runs this.
    fn put_write_to_memory(
        &mut self,
        id: u32,
        now: Cycle,
        sched: &mut Scheduler<Ev>,
        cfg: &CellConfig,
    ) {
        let info = self.packets[id as usize];
        let bank = info.bank.expect("memory put has a bank");
        self.packets[id as usize].phase = PacketPhase::DramWrite;
        if self.mem.nack_roll(bank) {
            self.on_nack(id, now, sched, cfg);
            return;
        }
        let access = self.mem.submit(now, bank, Op::Write, info.bytes);
        self.spes[info.spe]
            .mfc
            .note_bank_service(info.token, access.service_cycles());
        if let Some(t) = self.trace.as_mut() {
            t.record(
                now,
                trace_meta(&info),
                FabricEvent::MemoryAccess {
                    bank,
                    bytes: info.bytes,
                },
            );
        }
        sched.schedule(access.data_ready, Ev::Retired(id));
    }

    fn retire(&mut self, id: u32, now: Cycle, sched: &mut Scheduler<Ev>, cfg: &CellConfig) {
        let info = self.packets[id as usize];
        self.packets[id as usize].phase = PacketPhase::Retired;
        // No pending event references `id` now.
        self.free_slots.push(id);
        // Delivered is recorded at retirement, not wire arrival, so the
        // event count equals `FabricReport::packets` by construction — a
        // mem-PUT abandoned between delivery and its DRAM write never
        // produces a Delivered event, exactly as it never counts as a
        // delivered packet.
        if let Some(t) = self.trace.as_mut() {
            t.record(
                now,
                trace_meta(&info),
                FabricEvent::Delivered { bytes: info.bytes },
            );
        }
        let ctx = &mut self.spes[info.spe];
        let completed = ctx.mfc.packet_delivered(now, info.token);
        ctx.bytes += u64::from(info.bytes);
        ctx.last_delivery = now;
        if completed {
            let life = ctx
                .mfc
                .last_completed()
                .expect("completed command has a lifecycle record");
            self.latency.observe(life);
        }
        self.delivered_packets += 1;
        // An outstanding slot freed: the MFC may issue again. Enqueue-side
        // sync waits are also re-evaluated here.
        self.pump(info.spe, now, sched, cfg);
    }
}

struct FabricModel<'a, 'd> {
    fabric: Fabric<'d>,
    cfg: &'a CellConfig,
}

impl Model for FabricModel<'_, '_> {
    type Event = Ev;
    fn handle(&mut self, now: Cycle, event: Ev, sched: &mut Scheduler<Ev>) {
        match event {
            Ev::Pump(spe) => {
                let spe = spe as usize;
                // A pump event is genuine only if it is the one currently
                // on the books for this SPE. `schedule_pump` supersedes a
                // later pump by booking an earlier one; the later event
                // still fires but everything it would do has already been
                // done (deliveries pump directly), so it is skipped.
                if self.fabric.spes[spe].pump_scheduled == Some(now) {
                    self.fabric.spes[spe].pump_scheduled = None;
                    self.fabric.pump(spe, now, sched, self.cfg);
                } else {
                    self.fabric.suppressed_pumps += 1;
                }
            }
            Ev::CmdDone(id) => self.fabric.on_cmd_done(id, now, sched, self.cfg),
            Ev::SrcReady(id) => self.fabric.submit_to_eib(id, now, sched),
            Ev::MemRetry(id) => self.fabric.try_put_to_memory(id, now, sched),
            Ev::NackRetry(id) => match self.fabric.packets[id as usize].kind {
                DmaKind::Get => self.fabric.try_get_from_memory(id, now, sched, self.cfg),
                DmaKind::Put => self.fabric.put_write_to_memory(id, now, sched, self.cfg),
            },
            Ev::EibKick => {
                if self.fabric.kick_scheduled == Some(now) {
                    self.fabric.kick_scheduled = None;
                }
                self.fabric.kick(now, sched);
            }
            Ev::Delivered(id) => self.fabric.on_delivered(id, now, sched, self.cfg),
            Ev::Retired(id) => self.fabric.retire(id, now, sched, self.cfg),
        }
    }
}

/// Runs `plan` on the machine described by `cfg` under `placement`,
/// copying payloads through `data` and streaming events into `trace`
/// when given.
///
/// # Errors
///
/// [`RunFailure::Stall`] when the simulation walks past its safety
/// horizon, churns events without time advancing, or drains its event
/// queue with SPEs still holding work. The diagnosis snapshots the stuck
/// machine; no partial report is produced.
pub(crate) fn run_plan<'d>(
    cfg: &CellConfig,
    faults: Option<&FaultPlan>,
    placement: &Placement,
    plan: &'d TransferPlan,
    data: Option<&'d mut MachineState>,
    trace: Option<&'d mut (dyn TraceSink + 'd)>,
) -> Result<FabricReport, RunFailure> {
    // A fused-off SPE has no functioning MFC: driving one is a harness
    // bug, caught here rather than surfacing as nonsense bandwidth.
    if let Some(fp) = faults {
        for spe in plan.active_spes() {
            let phys = placement.physical(spe);
            assert!(
                !fp.fused_spes.contains(&phys),
                "plan drives logical SPE {spe}, mapped to fused-off physical SPE {phys}"
            );
        }
    }
    let spes = plan
        .scripts()
        .iter()
        .map(|script| {
            let mut ctx = SpeCtx {
                mfc: match faults {
                    Some(fp) => MfcEngine::with_faults(cfg.mfc, fp.mfc.clone(), fp.retry),
                    None => MfcEngine::new(cfg.mfc),
                }
                .expect("invalid MFC configuration"),
                commands: script.commands(),
                sync: script.sync(),
                issued_since_sync: 0,
                waiting_sync: false,
                enqueue_ready: Cycle::ZERO,
                pump_scheduled: None,
                bytes: 0,
                last_delivery: Cycle::ZERO,
                state: SpeState::Idle,
                state_since: Cycle::ZERO,
                pkts_waiting_eib: 0,
                pkts_waiting_mem: 0,
                stalls: SpeMetrics::default(),
            };
            ctx.state = ctx.classify();
            ctx
        })
        .collect();

    let mut eib = Eib::new(Topology::cbe(), cfg.eib);
    let mut mem = MemorySystem::new(cfg.local_bank, cfg.remote_bank, cfg.numa);
    if let Some(fp) = faults {
        eib.set_faults(fp.eib.clone());
        mem.set_faults(fp.local_bank.clone(), fp.remote_bank.clone(), fp.seed);
    }
    let fabric = Fabric {
        eib,
        cmdbus: CommandBus::new(cfg.cmd_issue_interval, cfg.cmd_latency),
        mem,
        placement: *placement,
        spes,
        packets: Vec::new(),
        free_slots: Vec::new(),
        peak_live_packets: 0,
        suppressed_pumps: 0,
        kick_scheduled: None,
        grants: Vec::new(),
        delivered_packets: 0,
        fault_stats: FaultStats::default(),
        latency: LatencyMetrics::default(),
        data,
        trace,
    };

    let mut sim = Simulation::new(FabricModel { fabric, cfg });
    for spe in plan.active_spes() {
        // Book the seed pump so the staleness gate recognises it as the
        // genuine pending pump for this SPE.
        sim.model_mut().fabric.spes[spe].pump_scheduled = Some(Cycle::ZERO);
        let pump = Ev::Pump(u32::try_from(spe).expect("SPE index fits u32"));
        sim.schedule(Cycle::ZERO, pump);
    }
    let outcome = sim.run_guarded(Cycle::new(MAX_CYCLES), MAX_STAGNANT_EVENTS);
    let events_processed = sim.events_processed();
    let events_since_progress = sim.events_since_progress();
    let at_cycle = sim.last_event_cycle().as_u64();
    let mut fabric = sim.into_model().fabric;
    let stalled = match outcome {
        RunOutcome::HorizonExceeded(_) => Some(StallKind::HorizonExceeded),
        RunOutcome::Stagnant(_) => Some(StallKind::Livelock),
        // Drained, but an SPE still holds queued or in-flight work:
        // nothing will ever wake it.
        RunOutcome::Drained(_) => fabric
            .spes
            .iter()
            .any(|ctx| ctx.commands.len() > 0 || !ctx.mfc.is_idle())
            .then_some(StallKind::Deadlock),
    };
    if let Some(kind) = stalled {
        return Err(RunFailure::Stall(Box::new(diagnose(
            kind,
            at_cycle,
            events_processed,
            events_since_progress,
            &fabric,
        ))));
    }

    let cycles = fabric
        .spes
        .iter()
        .map(|s| s.last_delivery.as_u64())
        .max()
        .unwrap_or(0);
    // Flush the cycle accounting to the run end: every SPE's partition
    // and occupancy histogram then sums to exactly `cycles`.
    let end = Cycle::new(cycles);
    let mut per_spe_metrics = Vec::with_capacity(fabric.spes.len());
    for ctx in &mut fabric.spes {
        let dt = end.saturating_since(ctx.state_since);
        ctx.charge(dt);
        ctx.state_since = end;
        ctx.mfc.flush_occupancy(end);
        let mut m = ctx.stalls.clone();
        m.occupancy_cycles = ctx.mfc.occupancy_cycles().to_vec();
        per_spe_metrics.push(m);
    }
    let mut fault_stats = fabric.fault_stats;
    if let Some(fp) = faults {
        fault_stats.degraded_cycles = fp.degraded_cycles(cycles);
    }
    let metrics = FabricMetrics {
        run_cycles: cycles,
        per_spe: per_spe_metrics,
        rings: fabric.eib.ring_stats().to_vec(),
        banks: BankId::ALL
            .iter()
            .map(|&bank| BankMetrics {
                bank,
                stats: *fabric.mem.bank(bank).stats(),
            })
            .collect(),
        faults: fault_stats,
        events: events_processed,
        suppressed_pumps: fabric.suppressed_pumps,
        peak_live_packets: fabric.peak_live_packets,
    };
    let per_spe_bytes: Vec<u64> = fabric.spes.iter().map(|s| s.bytes).collect();
    let per_spe_cycles: Vec<u64> = fabric
        .spes
        .iter()
        .map(|s| s.last_delivery.as_u64())
        .collect();
    let total_bytes: u64 = per_spe_bytes.iter().sum();
    let per_spe_gbps: Vec<f64> = fabric
        .spes
        .iter()
        .map(|s| cfg.clock.gbytes_per_sec(s.bytes, s.last_delivery.as_u64()))
        .collect();
    Ok(FabricReport {
        cycles,
        total_bytes,
        aggregate_gbps: cfg.clock.gbytes_per_sec(total_bytes, cycles),
        sum_gbps: per_spe_gbps.iter().sum(),
        per_spe_bytes,
        per_spe_cycles,
        per_spe_gbps,
        eib: *fabric.eib.stats(),
        packets: fabric.delivered_packets,
        metrics,
        latency: fabric.latency,
    })
}

/// Snapshots the stuck machine into a [`StallDiagnosis`].
fn diagnose(
    kind: StallKind,
    at_cycle: u64,
    events_processed: u64,
    events_since_progress: u64,
    fabric: &Fabric<'_>,
) -> StallDiagnosis {
    let mut packets_by_phase = [0u64; 6];
    for p in &fabric.packets {
        if let Some(i) = PacketPhase::IN_FLIGHT.iter().position(|&q| q == p.phase) {
            packets_by_phase[i] += 1;
        }
    }
    let per_spe = fabric
        .spes
        .iter()
        .enumerate()
        .map(|(i, ctx)| SpeStall {
            spe: i,
            physical: fabric.placement.physical(i),
            state: ctx.classify().name(),
            pending_commands: ctx.commands.len(),
            mfc_queue_depth: ctx.mfc.queue_len(),
            outstanding: ctx.mfc.outstanding(),
            slot_budget: ctx.mfc.slot_budget(),
            waiting_sync: ctx.waiting_sync,
            packets_waiting_eib: ctx.pkts_waiting_eib,
            packets_waiting_mem: ctx.pkts_waiting_mem,
            last_delivery_cycle: ctx.last_delivery.as_u64(),
        })
        .collect();
    StallDiagnosis {
        kind,
        at_cycle,
        horizon: MAX_CYCLES,
        last_progress_cycle: fabric
            .spes
            .iter()
            .map(|s| s.last_delivery.as_u64())
            .max()
            .unwrap_or(0),
        events_processed,
        events_since_progress,
        delivered_packets: fabric.delivered_packets,
        packets_by_phase,
        nacks: fabric.fault_stats.nacks,
        retries: fabric.fault_stats.retries,
        retries_exhausted: fabric.fault_stats.retries_exhausted,
        per_spe,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellSystem, SPE_COUNT};

    fn system() -> CellSystem {
        CellSystem::blade()
    }

    const MIB: u64 = 1 << 20;

    #[test]
    fn single_spe_get_is_latency_limited_near_ten() {
        let plan = TransferPlan::builder()
            .get_from_memory(0, 2 * MIB, 16 * 1024, SyncPolicy::AfterAll)
            .build()
            .unwrap();
        let r = system().try_run(&Placement::identity(), &plan).unwrap();
        assert_eq!(r.total_bytes, 2 * MIB);
        assert!(
            r.aggregate_gbps > 8.0 && r.aggregate_gbps < 12.5,
            "paper: ~10 GB/s, got {}",
            r.aggregate_gbps
        );
    }

    #[test]
    fn two_spes_use_both_banks_and_beat_one_bank() {
        let mut b = TransferPlan::builder();
        for spe in 0..2 {
            b = b.get_from_memory(spe, 2 * MIB, 16 * 1024, SyncPolicy::AfterAll);
        }
        let r = system()
            .try_run(&Placement::identity(), &b.build().unwrap())
            .unwrap();
        // SPE0 streams the local bank (~10), SPE1 the 7 GB/s remote one.
        assert!(
            r.sum_gbps > 15.0,
            "two banks should beat 16.8-ε of one: {}",
            r.sum_gbps
        );
        assert!(r.per_spe_gbps[0] > r.per_spe_gbps[1]);
    }

    #[test]
    fn pair_exchange_approaches_peak_for_large_elements() {
        let plan = TransferPlan::builder()
            .exchange_with(0, 1, 2 * MIB, 16 * 1024, SyncPolicy::AfterAll)
            .build()
            .unwrap();
        let r = system().try_run(&Placement::identity(), &plan).unwrap();
        // get+put concurrently: peak 33.6 GB/s; expect near-peak.
        assert!(
            r.aggregate_gbps > 26.0,
            "paper: near 33.6 peak, got {}",
            r.aggregate_gbps
        );
    }

    #[test]
    fn small_elements_collapse_dma_elem_bandwidth() {
        let big = TransferPlan::builder()
            .exchange_with(0, 1, MIB, 4096, SyncPolicy::AfterAll)
            .build()
            .unwrap();
        let small = TransferPlan::builder()
            .exchange_with(0, 1, MIB / 4, 128, SyncPolicy::AfterAll)
            .build()
            .unwrap();
        let sys = system();
        let rb = sys.try_run(&Placement::identity(), &big).unwrap();
        let rs = sys.try_run(&Placement::identity(), &small).unwrap();
        assert!(
            rs.aggregate_gbps < rb.aggregate_gbps / 2.0,
            "128 B elems must collapse: {} vs {}",
            rs.aggregate_gbps,
            rb.aggregate_gbps
        );
    }

    #[test]
    fn dma_list_stays_fast_for_small_elements() {
        let sys = system();
        let elem = TransferPlan::builder()
            .exchange_with(0, 1, MIB / 4, 128, SyncPolicy::AfterAll)
            .build()
            .unwrap();
        let list = TransferPlan::builder()
            .exchange_with_list(0, 1, MIB / 4, 128, SyncPolicy::AfterAll)
            .build()
            .unwrap();
        let re = sys.try_run(&Placement::identity(), &elem).unwrap();
        let rl = sys.try_run(&Placement::identity(), &list).unwrap();
        assert!(
            rl.aggregate_gbps > 2.0 * re.aggregate_gbps,
            "lists amortize startup: list={} elem={}",
            rl.aggregate_gbps,
            re.aggregate_gbps
        );
    }

    #[test]
    fn synchronizing_after_every_dma_hurts() {
        let sys = system();
        let eager = TransferPlan::builder()
            .exchange_with(0, 1, MIB, 4096, SyncPolicy::Every(1))
            .build()
            .unwrap();
        let lazy = TransferPlan::builder()
            .exchange_with(0, 1, MIB, 4096, SyncPolicy::AfterAll)
            .build()
            .unwrap();
        let re = sys.try_run(&Placement::identity(), &eager).unwrap();
        let rl = sys.try_run(&Placement::identity(), &lazy).unwrap();
        assert!(
            re.aggregate_gbps < rl.aggregate_gbps * 0.7,
            "eager sync must drain the pipeline: {} vs {}",
            re.aggregate_gbps,
            rl.aggregate_gbps
        );
    }

    #[test]
    fn put_and_get_have_similar_memory_bandwidth() {
        let sys = system();
        let get = TransferPlan::builder()
            .get_from_memory(0, 2 * MIB, 16 * 1024, SyncPolicy::AfterAll)
            .build()
            .unwrap();
        let put = TransferPlan::builder()
            .put_to_memory(0, 2 * MIB, 16 * 1024, SyncPolicy::AfterAll)
            .build()
            .unwrap();
        let rg = sys.try_run(&Placement::identity(), &get).unwrap();
        let rp = sys.try_run(&Placement::identity(), &put).unwrap();
        let ratio = rp.aggregate_gbps / rg.aggregate_gbps;
        assert!((0.7..=1.4).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn report_accounts_every_byte_per_spe() {
        let mut b = TransferPlan::builder();
        for spe in 0..4 {
            b = b.get_from_memory(spe, MIB, 4096, SyncPolicy::AfterAll);
        }
        let r = system()
            .try_run(&Placement::identity(), &b.build().unwrap())
            .unwrap();
        for spe in 0..4 {
            assert_eq!(r.per_spe_bytes[spe], MIB);
            assert!(r.per_spe_gbps[spe] > 0.0);
        }
        for spe in 4..SPE_COUNT {
            assert_eq!(r.per_spe_bytes[spe], 0);
            assert_eq!(r.per_spe_gbps[spe], 0.0);
        }
        assert_eq!(r.total_bytes, 4 * MIB);
        // 1 MiB / 128 B = 8192 packets per SPE.
        assert_eq!(r.packets, 4 * 8192);
    }

    #[test]
    fn placement_changes_results_but_not_totals() {
        let mut b = TransferPlan::builder();
        for spe in 0..SPE_COUNT {
            let partner = (spe + 1) % SPE_COUNT;
            b = b.exchange_with(spe, partner, MIB / 2, 4096, SyncPolicy::AfterAll);
        }
        let plan = b.build().unwrap();
        let sys = system();
        let id = sys.try_run(&Placement::identity(), &plan).unwrap();
        let rev = sys
            .try_run(
                &Placement::from_mapping([7, 6, 5, 4, 3, 2, 1, 0]).unwrap(),
                &plan,
            )
            .unwrap();
        assert_eq!(id.total_bytes, rev.total_bytes);
        assert!(id.aggregate_gbps > 0.0 && rev.aggregate_gbps > 0.0);
    }

    #[test]
    fn latency_digest_counts_every_command_and_conserves() {
        use crate::latency::DmaPathClass;
        let plan = TransferPlan::builder()
            .get_from_memory(0, MIB, 4096, SyncPolicy::AfterAll)
            .build()
            .unwrap();
        let r = system().try_run(&Placement::identity(), &plan).unwrap();
        // 1 MiB in 4 KiB commands = 256 commands, all on the mem-get path.
        assert_eq!(r.latency.total_commands(), 256);
        let path = r.latency.path(DmaPathClass::MemGet);
        assert_eq!(path.commands, 256);
        assert_eq!(path.end_to_end.count, 256);
        // Phase attribution conserves: Σ per-phase cycles == Σ latencies.
        assert_eq!(path.phase_cycles.iter().sum::<u64>(), path.end_to_end.total);
        assert_eq!(path.dominant_counts.iter().sum::<u64>(), 256);
        // Every command saw the ring and the bank.
        assert!(path.phase_cycles[3] > 0, "service phase cannot be empty");
        assert_eq!(r.latency.element_service.count, 256);
        // Other paths stayed empty.
        assert_eq!(r.latency.path(DmaPathClass::LsGet).commands, 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let plan = TransferPlan::builder()
            .exchange_with(0, 1, MIB / 2, 2048, SyncPolicy::AfterAll)
            .build()
            .unwrap();
        let sys = system();
        let a = sys.try_run(&Placement::identity(), &plan).unwrap();
        let b = sys.try_run(&Placement::identity(), &plan).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.aggregate_gbps, b.aggregate_gbps);
    }
}
