//! Per-SPE DMA programs: what each SPE transfers, and how it synchronizes.
//!
//! A script is a short list of steps. The scattered builders that take
//! explicit offsets queue explicit commands; the regular streams
//! (memory streams, partner streams, copy, exchange) queue one
//! closed-form [`Run`], and the seeded scattered updates (GUPS, pair
//! lists) one [`Scatter`] over an [`OffsetStream`]. Their j-th command
//! is computed when it is taken, so a paper-scale plan costs a few
//! hundred bytes instead of one stored command per DMA.

use std::error::Error;
use std::fmt;

use cellsim_mem::RegionId;
use cellsim_mfc::{
    DmaCommand, DmaError, DmaKind, DmaListCommand, EffectiveAddr, ListElement, LsAddr, TagId,
    LOCAL_STORE_BYTES, MAX_LIST_ELEMENTS,
};

use cellsim_workloads::OffsetStream;

use crate::SPE_COUNT;

/// The Local Store window each script cycles its DMA buffers through.
/// Half the LS: the other half is left to "code" and to incoming traffic
/// from partners, mirroring how the paper's micro-benchmarks are laid out.
pub const LS_WINDOW: u32 = LOCAL_STORE_BYTES / 2;

/// When the SPU waits for its outstanding DMAs (the paper's Figure 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncPolicy {
    /// Enqueue everything, wait once at the end — the paper's rule for
    /// maximum bandwidth.
    AfterAll,
    /// Wait for the tag group to quiesce after every `n` commands;
    /// `Every(1)` is the worst case the paper plots.
    Every(u32),
}

/// One queued unit of work: a DMA-elem command or a DMA-list command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Planned {
    /// A single-chunk command.
    Elem(DmaCommand),
    /// A list command.
    List(DmaListCommand),
}

impl Planned {
    /// Payload bytes this unit will move.
    pub fn bytes(&self) -> u64 {
        match self {
            Planned::Elem(c) => u64::from(c.bytes()),
            Planned::List(l) => l.total_bytes(),
        }
    }

    /// Bus packets of `packet_bytes` this unit unrolls into, counting one
    /// packet per started chunk of each element.
    fn packets(&self, packet_bytes: u32) -> u64 {
        match self {
            Planned::Elem(c) => u64::from(c.bytes().div_ceil(packet_bytes)),
            Planned::List(l) => l
                .elements()
                .iter()
                .map(|e| u64::from(e.bytes.div_ceil(packet_bytes)))
                .sum(),
        }
    }
}

/// Where element `j` of a [`Run`] lands on the far side of the bus.
#[derive(Debug, Clone, Copy)]
enum Target {
    /// Byte `j * elem` of a main-memory region.
    Memory(RegionId),
    /// A partner's Local Store window, cycling like the LS slots:
    /// offset `base + (j * elem) % LS_WINDOW`.
    Window { spe: u8, base: u32 },
}

impl Target {
    fn at(self, j: u64, elem_bytes: u32) -> EffectiveAddr {
        let offset = j * u64::from(elem_bytes);
        match self {
            Target::Memory(region) => region_ea(region, offset),
            Target::Window { spe, base } => EffectiveAddr::LocalStore {
                spe,
                offset: base + (offset % u64::from(LS_WINDOW)) as u32,
            },
        }
    }
}

/// The commands a [`Run`] issues per unit, in order.
#[derive(Debug, Clone, Copy)]
enum Legs {
    /// One command in one direction.
    One(DmaKind, Target),
    /// A GET from the first target, then a PUT to the second.
    GetPut(Target, Target),
}

/// A regular stream in closed form. It moves `elems` elements of
/// `elem_bytes` per leg in *units* — one element each, or one list of up
/// to [`elems_per_list`] elements — and issues its legs for every unit.
#[derive(Debug, Clone, Copy)]
struct Run {
    legs: Legs,
    elem_bytes: u32,
    elems: u64,
    /// Pack the elements into list commands (Local Store from 0).
    list: bool,
    /// Fence every command on its unit's tag chain (double-buffered
    /// copy); otherwise unfenced on tag 0.
    chained: bool,
}

impl Run {
    fn one_way(kind: DmaKind, target: Target, total_bytes: u64, elem_bytes: u32) -> Run {
        Run {
            legs: Legs::One(kind, target),
            elem_bytes,
            elems: total_bytes / u64::from(elem_bytes),
            list: false,
            chained: false,
        }
    }

    fn get_put(get: Target, put: Target, total_bytes: u64, elem_bytes: u32) -> Run {
        Run {
            legs: Legs::GetPut(get, put),
            ..Run::one_way(DmaKind::Get, get, total_bytes, elem_bytes)
        }
    }

    /// Commands per unit.
    fn width(&self) -> u64 {
        match self.legs {
            Legs::One(..) => 1,
            Legs::GetPut(..) => 2,
        }
    }

    fn per_list(&self) -> u64 {
        elems_per_list(self.elem_bytes) as u64
    }

    fn units(&self) -> u64 {
        if self.list {
            self.elems.div_ceil(self.per_list())
        } else {
            self.elems
        }
    }

    fn len(&self) -> u64 {
        self.units() * self.width()
    }

    fn bytes(&self) -> u64 {
        self.elems * u64::from(self.elem_bytes) * self.width()
    }

    fn packets(&self, packet_bytes: u32) -> u64 {
        self.elems * u64::from(self.elem_bytes.div_ceil(packet_bytes)) * self.width()
    }

    /// The run's `i`-th command.
    fn command(&self, i: u64) -> Result<Planned, DmaError> {
        let (unit, kind, target) = match self.legs {
            Legs::One(kind, target) => (i, kind, target),
            Legs::GetPut(get, _) if i.is_multiple_of(2) => (i / 2, DmaKind::Get, get),
            Legs::GetPut(_, put) => (i / 2, DmaKind::Put, put),
        };
        if self.list {
            let per_list = self.per_list();
            let first = unit * per_list;
            let n = per_list.min(self.elems - first) as usize;
            let ea = target.at(first, self.elem_bytes);
            DmaListCommand::contiguous(kind, LsAddr(0), ea, self.elem_bytes, n, tag())
                .map(Planned::List)
        } else {
            let ls = ls_slot(unit, self.elem_bytes);
            let ea = target.at(unit, self.elem_bytes);
            let tag = if self.chained { chain_tag(unit) } else { tag() };
            let cmd = DmaCommand::new(kind, ls, ea, self.elem_bytes, tag)?;
            Ok(Planned::Elem(if self.chained {
                cmd.with_fence()
            } else {
                cmd
            }))
        }
    }

    /// Returns the error of the run's first invalid command, without
    /// building them all.
    ///
    /// Sizes are checked on the first unit's commands. Past them, with a
    /// valid size, the Local Store side and the effective address agree
    /// modulo 16 and stay aligned (`LS_WINDOW` and every window base are
    /// quadword multiples), so the only failure left is a PUT into a
    /// partner's incoming window running past the end of its Local
    /// Store. Units start every `stride` bytes of the stream, each one's
    /// window offset is its start modulo `LS_WINDOW`, and its elements
    /// follow without wrapping. So some unit straddles a window boundary
    /// exactly when one lies inside the stream (`elems * elem_bytes >
    /// LS_WINDOW`) and is not a unit start (`stride` does not divide
    /// `LS_WINDOW`). The first unit never straddles, and the error,
    /// [`DmaError::LocalStoreOverrun`], names no position.
    fn validate(&self) -> Result<(), DmaError> {
        if self.elems == 0 {
            return Ok(());
        }
        for i in 0..self.width() {
            self.command(i)?;
        }
        let put_window = matches!(
            self.legs,
            Legs::One(DmaKind::Put, Target::Window { .. }) | Legs::GetPut(_, Target::Window { .. })
        );
        let stride = if self.list {
            self.per_list() * u64::from(self.elem_bytes)
        } else {
            u64::from(self.elem_bytes)
        };
        let window = u64::from(LS_WINDOW);
        let straddles =
            !window.is_multiple_of(stride) && self.elems * u64::from(self.elem_bytes) > window;
        if put_window && straddles {
            return Err(DmaError::LocalStoreOverrun);
        }
        Ok(())
    }
}

/// A scattered read-modify-write stream in closed form: unit `j` is a
/// GET then a fenced PUT on unit `j`'s tag chain, of one element at
/// offset `j` of `region` (`list: false`, both commands fenced), or of
/// the next batch of up to [`Scatter::per_list`] elements as a GETL and
/// a PUTL (`list: true`). Offsets come from the stream as commands are
/// taken.
#[derive(Debug, Clone, Copy)]
struct Scatter {
    region: RegionId,
    offsets: OffsetStream,
    bytes: u32,
    list: bool,
}

impl Scatter {
    /// Elements per list batch, as [`TransferPlanBuilder::update_list_at`]
    /// batches them: as many as fit the Local Store window, at least
    /// one, at most the hardware's 2048.
    fn per_list(&self) -> u64 {
        match self.bytes {
            0 => MAX_LIST_ELEMENTS as u64,
            bytes => elems_per_list(bytes) as u64,
        }
    }

    fn units(&self) -> u64 {
        if self.list {
            self.offsets.len().div_ceil(self.per_list())
        } else {
            self.offsets.len()
        }
    }

    fn len(&self) -> u64 {
        2 * self.units()
    }

    fn bytes(&self) -> u64 {
        2 * self.offsets.len() * u64::from(self.bytes)
    }

    fn packets(&self, packet_bytes: u32) -> u64 {
        2 * self.offsets.len() * u64::from(self.bytes.div_ceil(packet_bytes))
    }

    /// The stream's `i`-th command.
    fn command(&self, i: u64) -> Result<Planned, DmaError> {
        let unit = i / 2;
        let kind = if i.is_multiple_of(2) {
            DmaKind::Get
        } else {
            DmaKind::Put
        };
        let chain = chain_tag(unit);
        if self.list {
            let first = unit * self.per_list();
            let last = (first + self.per_list()).min(self.offsets.len());
            let elements = (first..last)
                .map(|k| ListElement {
                    ea_offset: self.offsets.offset(k),
                    bytes: self.bytes,
                })
                .collect();
            let cmd =
                DmaListCommand::new(kind, LsAddr(0), region_ea(self.region, 0), elements, chain)?;
            Ok(Planned::List(match kind {
                DmaKind::Get => cmd,
                DmaKind::Put => cmd.with_fence(),
            }))
        } else {
            let ls = ls_slot(unit, self.bytes.max(16));
            let ea = region_ea(self.region, self.offsets.offset(unit));
            let cmd = DmaCommand::new(kind, ls, ea, self.bytes, chain)?;
            Ok(Planned::Elem(cmd.with_fence()))
        }
    }

    /// Returns the error of the stream's first invalid command, without
    /// building them all.
    ///
    /// Every offset of an [`OffsetStream`] is quadword-aligned, so every
    /// effective address is, and no transfer can overrun the Local
    /// Store. A command's validity then depends only on its size and its
    /// Local Store offsets mod 16.
    /// Elem-mode slots sit at multiples of `max(bytes, 16)`, list
    /// elements at multiples of `bytes` from 0: for a valid size every
    /// position past the first is quadword-aligned, except in a list of
    /// sub-quadword elements, whose second element is the first
    /// misaligned one. So the first invalid command, if any, is the first
    /// GET, and its first invalid element is one of its first two.
    fn validate(&self) -> Result<(), DmaError> {
        if self.offsets.is_empty() {
            return Ok(());
        }
        if !self.list {
            return self.command(0).map(drop);
        }
        let elements = (0..self.offsets.len().min(2))
            .map(|k| ListElement {
                ea_offset: self.offsets.offset(k),
                bytes: self.bytes,
            })
            .collect();
        let base = region_ea(self.region, 0);
        DmaListCommand::new(DmaKind::Get, LsAddr(0), base, elements, chain_tag(0)).map(drop)
    }
}

/// One step of a script: an explicit command, a run or scattered
/// stream expanded on demand, or a body of steps issued `times` over.
/// Every step holds at least one command.
#[derive(Debug, Clone)]
enum Step {
    Cmd(Planned),
    Run(Run),
    Scatter(Scatter),
    Repeat { body: Box<[Step]>, times: u64 },
}

impl Step {
    fn len(&self) -> u64 {
        match self {
            Step::Cmd(_) => 1,
            Step::Run(run) => run.len(),
            Step::Scatter(scatter) => scatter.len(),
            Step::Repeat { body, times } => times * body.iter().map(Step::len).sum::<u64>(),
        }
    }

    fn command(&self, i: u64) -> Planned {
        match self {
            Step::Cmd(cmd) => cmd.clone(),
            Step::Run(run) => run
                .command(i)
                .expect("a run is validated before it is queued"),
            Step::Scatter(scatter) => scatter
                .command(i)
                .expect("a stream is validated before it is queued"),
            Step::Repeat { body, .. } => {
                let mut i = i % body.iter().map(Step::len).sum::<u64>();
                for step in body {
                    if i < step.len() {
                        return step.command(i);
                    }
                    i -= step.len();
                }
                unreachable!("the index falls inside the body")
            }
        }
    }

    fn bytes(&self) -> u64 {
        match self {
            Step::Cmd(cmd) => cmd.bytes(),
            Step::Run(run) => run.bytes(),
            Step::Scatter(scatter) => scatter.bytes(),
            Step::Repeat { body, times } => times * body.iter().map(Step::bytes).sum::<u64>(),
        }
    }

    /// Commands plus the bus packets they unroll into.
    fn cost(&self, packet_bytes: u32) -> u64 {
        let packets = match self {
            Step::Cmd(cmd) => cmd.packets(packet_bytes),
            Step::Run(run) => run.packets(packet_bytes),
            Step::Scatter(scatter) => scatter.packets(packet_bytes),
            Step::Repeat { body, times } => {
                return times * body.iter().map(|s| s.cost(packet_bytes)).sum::<u64>()
            }
        };
        self.len() + packets
    }

    /// Steps stored: this one plus a repeated body's.
    fn stored(&self) -> usize {
        match self {
            Step::Repeat { body, .. } => 1 + body.iter().map(Step::stored).sum::<usize>(),
            _ => 1,
        }
    }
}

/// The DMA program of one logical SPE.
#[derive(Debug, Clone, Default)]
pub struct SpeScript {
    steps: Vec<Step>,
    sync: Option<SyncPolicy>,
}

impl SpeScript {
    /// Queued commands, in program order, computed as they are taken.
    pub fn commands(&self) -> Commands<'_> {
        Commands {
            steps: &self.steps,
            step: 0,
            index: 0,
            remaining: self.steps.iter().map(Step::len).sum(),
        }
    }

    /// The script's synchronization policy ([`SyncPolicy::AfterAll`] when
    /// unset).
    pub fn sync(&self) -> SyncPolicy {
        self.sync.unwrap_or(SyncPolicy::AfterAll)
    }

    /// Total payload bytes across the whole script.
    pub fn total_bytes(&self) -> u64 {
        self.steps.iter().map(Step::bytes).sum()
    }

    /// Whether this SPE has no work.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Steps the script stores: one per explicit command, one per
    /// closed-form run or stream, one per repeat plus its body. A
    /// script's memory is proportional to this, not to its command count.
    pub fn step_count(&self) -> usize {
        self.steps.iter().map(Step::stored).sum()
    }

    /// Commands plus the bus packets they unroll into.
    fn cost(&self, packet_bytes: u32) -> u64 {
        self.steps.iter().map(|step| step.cost(packet_bytes)).sum()
    }
}

/// A script's commands in program order (see [`SpeScript::commands`]).
/// Each is built when taken; [`ExactSizeIterator::len`] counts the ones
/// not yet taken.
#[derive(Debug, Clone)]
pub struct Commands<'a> {
    steps: &'a [Step],
    step: usize,
    /// Next command within `steps[step]`.
    index: u64,
    remaining: u64,
}

impl Iterator for Commands<'_> {
    type Item = Planned;

    fn next(&mut self) -> Option<Planned> {
        let step = self.steps.get(self.step)?;
        let cmd = step.command(self.index);
        self.index += 1;
        if self.index == step.len() {
            self.step += 1;
            self.index = 0;
        }
        self.remaining -= 1;
        Some(cmd)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::try_from(self.remaining).unwrap_or(usize::MAX);
        (n, Some(n))
    }
}

impl ExactSizeIterator for Commands<'_> {}

/// A full-machine transfer plan: one script per logical SPE.
#[derive(Debug, Clone, Default)]
pub struct TransferPlan {
    scripts: Vec<SpeScript>,
}

impl TransferPlan {
    /// Starts building a plan.
    pub fn builder() -> TransferPlanBuilder {
        TransferPlanBuilder::new()
    }

    /// Scripts indexed by logical SPE (always [`SPE_COUNT`] entries).
    pub fn scripts(&self) -> &[SpeScript] {
        &self.scripts
    }

    /// Logical SPEs that have work.
    pub fn active_spes(&self) -> impl Iterator<Item = usize> + '_ {
        self.scripts
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_empty())
            .map(|(i, _)| i)
    }

    /// Total payload bytes across all SPEs.
    pub fn total_bytes(&self) -> u64 {
        self.scripts.iter().map(SpeScript::total_bytes).sum()
    }

    /// Estimated simulation work: DMA commands plus the bus packets of
    /// `packet_bytes` they unroll into, summed over every SPE.
    pub fn cost(&self, packet_bytes: u32) -> u64 {
        self.scripts.iter().map(|s| s.cost(packet_bytes)).sum()
    }

    /// Stable fingerprint of the plan: FNV-1a over its `Debug` text, the
    /// rule [`config_fingerprint`](crate::exec::config_fingerprint)
    /// uses. The text spells out every stored step — explicit commands,
    /// and closed-form runs and streams by their parameters — so plans
    /// with equal text issue equal commands, and hashing it costs
    /// O(steps), not O(commands).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        use std::fmt::Write;
        let mut h = cellsim_kernel::fnv::Fnv1a::new();
        write!(h, "{self:?}").expect("hashing formatted text cannot fail");
        h.finish()
    }

    /// The main-memory region logical SPE `spe` streams *from* (GET).
    pub fn get_region(spe: usize) -> RegionId {
        RegionId(spe as u32)
    }

    /// The main-memory region logical SPE `spe` streams *to* (PUT). Lands
    /// on the same bank parity as [`TransferPlan::get_region`] under the
    /// default round-robin NUMA policy.
    pub fn put_region(spe: usize) -> RegionId {
        RegionId((2 * SPE_COUNT + spe) as u32)
    }

    /// The destination region of a GET+PUT copy: a different region on
    /// the same bank as [`TransferPlan::get_region`] (the benchmark
    /// allocates each SPE's source and destination on its own NUMA node).
    /// Copy thus loads each bank with reads *and* writes, and the
    /// aggregate across SPEs approaches the 23.8 GB/s two-bank peak the
    /// paper reports.
    pub fn copy_dst_region(spe: usize) -> RegionId {
        RegionId((SPE_COUNT + spe) as u32)
    }
}

/// Why a plan could not be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// Logical SPE index out of 0..8.
    BadSpe(usize),
    /// A stream's partner equals the streaming SPE.
    SelfPartner(usize),
    /// `total_bytes` is not a multiple of `elem_bytes`.
    NotElemMultiple {
        /// Requested total.
        total: u64,
        /// Requested element size.
        elem: u32,
    },
    /// The underlying DMA command was invalid.
    Dma(DmaError),
    /// The plan has no work at all.
    EmptyPlan,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::BadSpe(s) => write!(f, "logical SPE {s} out of range 0..8"),
            PlanError::SelfPartner(s) => write!(f, "SPE {s} cannot stream to itself"),
            PlanError::NotElemMultiple { total, elem } => {
                write!(f, "total {total} is not a multiple of element size {elem}")
            }
            PlanError::Dma(e) => write!(f, "invalid DMA command: {e}"),
            PlanError::EmptyPlan => write!(f, "plan has no work"),
        }
    }
}

impl Error for PlanError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PlanError::Dma(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DmaError> for PlanError {
    fn from(e: DmaError) -> Self {
        PlanError::Dma(e)
    }
}

/// Builder for [`TransferPlan`]; methods chain and the first error is
/// reported by [`TransferPlanBuilder::build`].
#[derive(Debug, Clone)]
pub struct TransferPlanBuilder {
    scripts: Vec<SpeScript>,
    err: Option<PlanError>,
}

impl Default for TransferPlanBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TransferPlanBuilder {
    /// An empty builder.
    pub fn new() -> TransferPlanBuilder {
        TransferPlanBuilder {
            scripts: vec![SpeScript::default(); SPE_COUNT],
            err: None,
        }
    }

    /// Finishes the plan.
    ///
    /// # Errors
    ///
    /// Returns the first error any chained method produced, or
    /// [`PlanError::EmptyPlan`] if nothing was added.
    pub fn build(self) -> Result<TransferPlan, PlanError> {
        if let Some(e) = self.err {
            return Err(e);
        }
        if self.scripts.iter().all(SpeScript::is_empty) {
            return Err(PlanError::EmptyPlan);
        }
        Ok(TransferPlan {
            scripts: self.scripts,
        })
    }

    /// Sets the synchronization policy of `spe`'s script.
    pub fn sync_policy(mut self, spe: usize, sync: SyncPolicy) -> Self {
        if self.err.is_none() {
            if spe >= SPE_COUNT {
                self.err = Some(PlanError::BadSpe(spe));
            } else {
                self.scripts[spe].sync = Some(sync);
            }
        }
        self
    }

    /// SPE `spe` GETs `total_bytes` from its main-memory region in
    /// `elem_bytes` DMA-elem chunks.
    pub fn get_from_memory(
        self,
        spe: usize,
        total_bytes: u64,
        elem_bytes: u32,
        sync: SyncPolicy,
    ) -> Self {
        self.memory_stream(spe, DmaKind::Get, total_bytes, elem_bytes, sync, false)
    }

    /// SPE `spe` PUTs `total_bytes` to its main-memory region in
    /// `elem_bytes` DMA-elem chunks.
    pub fn put_to_memory(
        self,
        spe: usize,
        total_bytes: u64,
        elem_bytes: u32,
        sync: SyncPolicy,
    ) -> Self {
        self.memory_stream(spe, DmaKind::Put, total_bytes, elem_bytes, sync, false)
    }

    /// Memory→LS→memory copy: alternating GET (from the SPE's get region)
    /// and PUT (to its put region) — the paper's GET+PUT experiment.
    pub fn copy_memory(
        mut self,
        spe: usize,
        total_bytes: u64,
        elem_bytes: u32,
        sync: SyncPolicy,
    ) -> Self {
        if self.err.is_some() {
            return self;
        }
        if let Err(e) = self.check_stream(spe, total_bytes, elem_bytes) {
            self.err = Some(e);
            return self;
        }
        // Each LS slot gets its own tag chain, and every command in the
        // chain is fenced: the put waits for the get that filled the
        // slot, and a later get waits for the put that drained it — real
        // double-buffered copy code (mfc_getf/mfc_putf).
        let run = Run {
            chained: true,
            ..Run::get_put(
                Target::Memory(TransferPlan::get_region(spe)),
                Target::Memory(TransferPlan::copy_dst_region(spe)),
                total_bytes,
                elem_bytes,
            )
        };
        self.push_run(spe, run, sync)
    }

    /// SPE `spe` GETs from `partner`'s Local Store in DMA-elem chunks.
    pub fn get_from_spe(
        self,
        spe: usize,
        partner: usize,
        total_bytes: u64,
        elem_bytes: u32,
        sync: SyncPolicy,
    ) -> Self {
        self.ls_stream(spe, partner, DmaKind::Get, total_bytes, elem_bytes, sync)
    }

    /// SPE `spe` PUTs into `partner`'s Local Store in DMA-elem chunks.
    pub fn put_to_spe(
        self,
        spe: usize,
        partner: usize,
        total_bytes: u64,
        elem_bytes: u32,
        sync: SyncPolicy,
    ) -> Self {
        self.ls_stream(spe, partner, DmaKind::Put, total_bytes, elem_bytes, sync)
    }

    /// Simultaneous read and write with `partner` (alternating GET and PUT
    /// of `total_bytes` each) — the paper's SPE↔SPE experiments.
    pub fn exchange_with(
        self,
        spe: usize,
        partner: usize,
        total_bytes: u64,
        elem_bytes: u32,
        sync: SyncPolicy,
    ) -> Self {
        self.exchange(spe, partner, total_bytes, elem_bytes, sync, false)
    }

    /// DMA-list variant of [`TransferPlanBuilder::get_from_memory`].
    pub fn get_from_memory_list(
        self,
        spe: usize,
        total_bytes: u64,
        elem_bytes: u32,
        sync: SyncPolicy,
    ) -> Self {
        self.memory_stream(spe, DmaKind::Get, total_bytes, elem_bytes, sync, true)
    }

    /// DMA-list variant of [`TransferPlanBuilder::put_to_memory`].
    pub fn put_to_memory_list(
        self,
        spe: usize,
        total_bytes: u64,
        elem_bytes: u32,
        sync: SyncPolicy,
    ) -> Self {
        self.memory_stream(spe, DmaKind::Put, total_bytes, elem_bytes, sync, true)
    }

    /// DMA-list variant of [`TransferPlanBuilder::exchange_with`]:
    /// alternating GETL and PUTL list commands.
    pub fn exchange_with_list(
        self,
        spe: usize,
        partner: usize,
        total_bytes: u64,
        elem_bytes: u32,
        sync: SyncPolicy,
    ) -> Self {
        self.exchange(spe, partner, total_bytes, elem_bytes, sync, true)
    }

    fn exchange(
        mut self,
        spe: usize,
        partner: usize,
        total_bytes: u64,
        elem_bytes: u32,
        sync: SyncPolicy,
        list: bool,
    ) -> Self {
        if self.err.is_some() {
            return self;
        }
        if let Err(e) = self.check_pair(spe, partner, total_bytes, elem_bytes) {
            self.err = Some(e);
            return self;
        }
        let run = Run {
            list,
            ..Run::get_put(
                partner_window(partner, DmaKind::Get),
                partner_window(partner, DmaKind::Put),
                total_bytes,
                elem_bytes,
            )
        };
        self.push_run(spe, run, sync)
    }

    fn memory_stream(
        mut self,
        spe: usize,
        kind: DmaKind,
        total_bytes: u64,
        elem_bytes: u32,
        sync: SyncPolicy,
        list: bool,
    ) -> Self {
        if self.err.is_some() {
            return self;
        }
        if let Err(e) = self.check_stream(spe, total_bytes, elem_bytes) {
            self.err = Some(e);
            return self;
        }
        let region = match kind {
            DmaKind::Get => TransferPlan::get_region(spe),
            DmaKind::Put => TransferPlan::put_region(spe),
        };
        let run = Run {
            list,
            ..Run::one_way(kind, Target::Memory(region), total_bytes, elem_bytes)
        };
        self.push_run(spe, run, sync)
    }

    fn ls_stream(
        mut self,
        spe: usize,
        partner: usize,
        kind: DmaKind,
        total_bytes: u64,
        elem_bytes: u32,
        sync: SyncPolicy,
    ) -> Self {
        if self.err.is_some() {
            return self;
        }
        if let Err(e) = self.check_pair(spe, partner, total_bytes, elem_bytes) {
            self.err = Some(e);
            return self;
        }
        let run = Run::one_way(kind, partner_window(partner, kind), total_bytes, elem_bytes);
        self.push_run(spe, run, sync)
    }

    /// Queues a validated run on `spe` (nothing for an empty one) and
    /// records its sync policy.
    fn push_run(mut self, spe: usize, run: Run, sync: SyncPolicy) -> Self {
        if let Err(e) = run.validate() {
            self.err = Some(e.into());
            return self;
        }
        if run.elems > 0 {
            self.scripts[spe].steps.push(Step::Run(run));
        }
        self.scripts[spe].sync.get_or_insert(sync);
        self
    }

    /// Issues everything queued on `spe` so far `times` times in all,
    /// in order, as one closed-form loop: the plan's size does not grow
    /// with `times`, only its commands do.
    pub fn repeat(mut self, spe: usize, times: u64) -> Self {
        if self.err.is_none() && spe >= SPE_COUNT {
            self.err = Some(PlanError::BadSpe(spe));
        }
        if self.err.is_none() && times != 1 {
            let body = std::mem::take(&mut self.scripts[spe].steps);
            if times > 0 && !body.is_empty() {
                let body = body.into_boxed_slice();
                self.scripts[spe].steps = vec![Step::Repeat { body, times }];
            }
        }
        self
    }

    /// Queues one GET of an arbitrary block (any valid DMA size ≤
    /// region bounds), split into ≤16 KB commands on a rotating Local
    /// Store window. The building block for task runtimes.
    pub fn get_block(self, spe: usize, region: RegionId, offset: u64, bytes: u64) -> Self {
        self.block(spe, DmaKind::Get, region, offset, bytes)
    }

    /// Queues one PUT of an arbitrary block (see
    /// [`TransferPlanBuilder::get_block`]).
    pub fn put_block(self, spe: usize, region: RegionId, offset: u64, bytes: u64) -> Self {
        self.block(spe, DmaKind::Put, region, offset, bytes)
    }

    fn block(
        mut self,
        spe: usize,
        kind: DmaKind,
        region: RegionId,
        offset: u64,
        bytes: u64,
    ) -> Self {
        if self.err.is_some() {
            return self;
        }
        if spe >= SPE_COUNT {
            self.err = Some(PlanError::BadSpe(spe));
            return self;
        }
        let mut done = 0u64;
        while done < bytes {
            let chunk = (bytes - done).min(u64::from(cellsim_mfc::MAX_DMA_BYTES)) as u32;
            let ls = ls_slot((offset + done) / 16, 16);
            let ea = EffectiveAddr::Memory {
                region,
                offset: offset + done,
            };
            match DmaCommand::new(kind, ls, ea, chunk, tag()) {
                Ok(cmd) => self.scripts[spe].steps.push(Step::Cmd(Planned::Elem(cmd))),
                Err(e) => {
                    self.err = Some(e.into());
                    return self;
                }
            }
            done += u64::from(chunk);
        }
        self.scripts[spe].sync.get_or_insert(SyncPolicy::AfterAll);
        self
    }

    /// Read-modify-write cycle at each scattered offset of `region`: a
    /// fenced GET then a fenced PUT of the same `bytes`-sized element on a
    /// rotating tag chain, exactly the `mfc_getf`/`mfc_putf` discipline
    /// real GUPS update loops use so the store cannot overtake its load.
    /// Local Store slots rotate through [`LS_WINDOW`] on a
    /// 16-byte-aligned stride, so sub-quadword elements require
    /// 16-byte-aligned effective offsets (the MFC's LS/EA low-nibble
    /// agreement rule); violations surface as [`PlanError::Dma`] at
    /// [`TransferPlanBuilder::build`], never panics.
    pub fn update_elems_at(
        mut self,
        spe: usize,
        region: RegionId,
        offsets: &[u64],
        bytes: u32,
    ) -> Self {
        if self.err.is_some() {
            return self;
        }
        if spe >= SPE_COUNT {
            self.err = Some(PlanError::BadSpe(spe));
            return self;
        }
        let stride = u64::from(bytes.max(16));
        for (j, &off) in offsets.iter().enumerate() {
            let ls = LsAddr(((j as u64 * stride) % u64::from(LS_WINDOW)) as u32);
            let chain = chain_tag(j as u64);
            let ea = EffectiveAddr::Memory {
                region,
                offset: off,
            };
            for kind in [DmaKind::Get, DmaKind::Put] {
                match DmaCommand::new(kind, ls, ea, bytes, chain) {
                    Ok(cmd) => self.scripts[spe]
                        .steps
                        .push(Step::Cmd(Planned::Elem(cmd.with_fence()))),
                    Err(e) => {
                        self.err = Some(e.into());
                        return self;
                    }
                }
            }
        }
        if !offsets.is_empty() {
            self.scripts[spe].sync.get_or_insert(SyncPolicy::AfterAll);
        }
        self
    }

    /// SPE `spe` GETLs the given (possibly strided or indexed) `elements`
    /// relative to the start of `region`, batched into hardware-legal list
    /// commands (≤ [`MAX_LIST_ELEMENTS`][cellsim_mfc::MAX_LIST_ELEMENTS]
    /// entries, payload ≤ [`LS_WINDOW`] each).
    pub fn get_list_at(self, spe: usize, region: RegionId, elements: &[ListElement]) -> Self {
        self.list_at(spe, region, elements, ListOp::Get)
    }

    /// Gather/scatter cycle over an element list: each batch issues a GETL
    /// followed by a fenced PUTL of the same elements on the batch's tag
    /// chain — the indexed pair-list update shape.
    pub fn update_list_at(self, spe: usize, region: RegionId, elements: &[ListElement]) -> Self {
        self.list_at(spe, region, elements, ListOp::Update)
    }

    /// [`TransferPlanBuilder::update_elems_at`] over a closed-form offset
    /// stream: the same commands, each built when it is taken, so the
    /// plan holds one step however long the stream.
    pub fn update_elems_from(
        self,
        spe: usize,
        region: RegionId,
        offsets: OffsetStream,
        bytes: u32,
    ) -> Self {
        self.push_scatter(spe, region, offsets, bytes, false)
    }

    /// [`TransferPlanBuilder::update_list_at`] over a closed-form offset
    /// stream of `bytes`-sized elements: the same batches, each built
    /// when it is taken.
    pub fn update_list_from(
        self,
        spe: usize,
        region: RegionId,
        offsets: OffsetStream,
        bytes: u32,
    ) -> Self {
        self.push_scatter(spe, region, offsets, bytes, true)
    }

    fn push_scatter(
        mut self,
        spe: usize,
        region: RegionId,
        offsets: OffsetStream,
        bytes: u32,
        list: bool,
    ) -> Self {
        if self.err.is_some() {
            return self;
        }
        if spe >= SPE_COUNT {
            self.err = Some(PlanError::BadSpe(spe));
            return self;
        }
        let scatter = Scatter {
            region,
            offsets,
            bytes,
            list,
        };
        if let Err(e) = scatter.validate() {
            self.err = Some(e.into());
            return self;
        }
        if !offsets.is_empty() {
            self.scripts[spe].steps.push(Step::Scatter(scatter));
            self.scripts[spe].sync.get_or_insert(SyncPolicy::AfterAll);
        }
        self
    }

    fn list_at(
        mut self,
        spe: usize,
        region: RegionId,
        elements: &[ListElement],
        op: ListOp,
    ) -> Self {
        if self.err.is_some() {
            return self;
        }
        if spe >= SPE_COUNT {
            self.err = Some(PlanError::BadSpe(spe));
            return self;
        }
        let base = region_ea(region, 0);
        let mut start = 0usize;
        let mut batch_idx = 0u64;
        while start < elements.len() {
            let mut end = start;
            let mut payload = 0u64;
            while end < elements.len()
                && end - start < MAX_LIST_ELEMENTS
                && payload + u64::from(elements[end].bytes) <= u64::from(LS_WINDOW)
            {
                payload += u64::from(elements[end].bytes);
                end += 1;
            }
            // A single element larger than the window: pass it through so
            // the MFC validator reports the real error.
            if end == start {
                end = start + 1;
            }
            let batch = elements[start..end].to_vec();
            let result = match op {
                ListOp::Get => DmaListCommand::new(DmaKind::Get, LsAddr(0), base, batch, tag())
                    .map(|cmd| {
                        self.scripts[spe].steps.push(Step::Cmd(Planned::List(cmd)));
                    }),
                ListOp::Update => {
                    let chain = chain_tag(batch_idx);
                    DmaListCommand::new(DmaKind::Get, LsAddr(0), base, batch.clone(), chain)
                        .and_then(|get| {
                            let put =
                                DmaListCommand::new(DmaKind::Put, LsAddr(0), base, batch, chain)?;
                            self.scripts[spe].steps.push(Step::Cmd(Planned::List(get)));
                            self.scripts[spe]
                                .steps
                                .push(Step::Cmd(Planned::List(put.with_fence())));
                            Ok(())
                        })
                }
            };
            if let Err(e) = result {
                self.err = Some(e.into());
                return self;
            }
            batch_idx += 1;
            start = end;
        }
        if !elements.is_empty() {
            self.scripts[spe].sync.get_or_insert(SyncPolicy::AfterAll);
        }
        self
    }

    fn check_stream(&self, spe: usize, total: u64, elem: u32) -> Result<(), PlanError> {
        if spe >= SPE_COUNT {
            return Err(PlanError::BadSpe(spe));
        }
        if elem == 0 || !total.is_multiple_of(u64::from(elem)) {
            return Err(PlanError::NotElemMultiple { total, elem });
        }
        Ok(())
    }

    fn check_pair(
        &self,
        spe: usize,
        partner: usize,
        total: u64,
        elem: u32,
    ) -> Result<(), PlanError> {
        self.check_stream(spe, total, elem)?;
        if partner >= SPE_COUNT {
            return Err(PlanError::BadSpe(partner));
        }
        if partner == spe {
            return Err(PlanError::SelfPartner(spe));
        }
        Ok(())
    }
}

/// How a batched element list is issued.
#[derive(Debug, Clone, Copy)]
enum ListOp {
    /// One GETL per batch.
    Get,
    /// GETL then fenced PUTL per batch (gather/scatter update).
    Update,
}

fn tag() -> TagId {
    TagId::new(0).expect("tag 0 valid")
}

/// One of 32 rotating tag chains used by fenced copy pipelines.
fn chain_tag(j: u64) -> TagId {
    TagId::new((j % 32) as u8).expect("mod 32 is a valid tag")
}

/// Rotating Local Store slot for the `j`-th element of a stream.
fn ls_slot(j: u64, elem_bytes: u32) -> LsAddr {
    LsAddr(((j * u64::from(elem_bytes)) % u64::from(LS_WINDOW)) as u32)
}

/// The window of `partner`'s Local Store a stream targets. GETs read
/// from the partner's outgoing window (first half); PUTs land in its
/// incoming window (second half) so the two directions never alias.
fn partner_window(partner: usize, kind: DmaKind) -> Target {
    let base = match kind {
        DmaKind::Get => 0,
        DmaKind::Put => LS_WINDOW,
    };
    Target::Window {
        spe: partner as u8,
        base,
    }
}

fn region_ea(region: RegionId, offset: u64) -> EffectiveAddr {
    EffectiveAddr::Memory { region, offset }
}

/// How many elements fit one list command: bounded by the hardware's 2048
/// and by the Local Store window the payload packs into.
fn elems_per_list(elem_bytes: u32) -> usize {
    let by_ls = (LS_WINDOW / elem_bytes).max(1) as usize;
    by_ls.min(cellsim_mfc::MAX_LIST_ELEMENTS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_get_builds_expected_commands() {
        let plan = TransferPlan::builder()
            .get_from_memory(0, 4096, 1024, SyncPolicy::AfterAll)
            .build()
            .unwrap();
        let script = &plan.scripts()[0];
        assert_eq!(script.commands().len(), 4);
        assert_eq!(script.total_bytes(), 4096);
        assert_eq!(plan.total_bytes(), 4096);
        assert_eq!(plan.active_spes().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn copy_alternates_get_and_put() {
        let plan = TransferPlan::builder()
            .copy_memory(2, 2048, 1024, SyncPolicy::AfterAll)
            .build()
            .unwrap();
        let cmds: Vec<Planned> = plan.scripts()[2].commands().collect();
        assert_eq!(cmds.len(), 4);
        let kinds: Vec<_> = cmds
            .iter()
            .map(|p| match p {
                Planned::Elem(c) => c.kind(),
                Planned::List(_) => panic!("elem expected"),
            })
            .collect();
        assert_eq!(
            kinds,
            vec![DmaKind::Get, DmaKind::Put, DmaKind::Get, DmaKind::Put]
        );
        // Copy moves 2x the buffer.
        assert_eq!(plan.total_bytes(), 4096);
    }

    #[test]
    fn exchange_uses_disjoint_partner_windows() {
        let plan = TransferPlan::builder()
            .exchange_with(0, 1, 4096, 2048, SyncPolicy::AfterAll)
            .build()
            .unwrap();
        for p in plan.scripts()[0].commands() {
            let Planned::Elem(c) = p else { panic!() };
            let EffectiveAddr::LocalStore { spe, offset } = c.ea() else {
                panic!("LS target expected")
            };
            assert_eq!(spe, 1);
            match c.kind() {
                DmaKind::Get => assert!(offset < LS_WINDOW),
                DmaKind::Put => assert!(offset >= LS_WINDOW),
            }
        }
    }

    #[test]
    fn list_streams_chunk_within_hardware_limits() {
        let plan = TransferPlan::builder()
            .get_from_memory_list(0, 1 << 20, 128, SyncPolicy::AfterAll)
            .build()
            .unwrap();
        for p in plan.scripts()[0].commands() {
            let Planned::List(l) = p else {
                panic!("list expected")
            };
            assert!(l.elements().len() <= cellsim_mfc::MAX_LIST_ELEMENTS);
            assert!(l.total_bytes() <= u64::from(LS_WINDOW));
        }
        assert_eq!(plan.total_bytes(), 1 << 20);
    }

    #[test]
    fn ls_slots_wrap_and_stay_aligned() {
        // Enough elements to wrap the 128 KiB window.
        let plan = TransferPlan::builder()
            .get_from_memory(0, 1 << 20, 16 * 1024, SyncPolicy::AfterAll)
            .build()
            .unwrap();
        for p in plan.scripts()[0].commands() {
            let Planned::Elem(c) = p else { panic!() };
            assert!(c.ls().0 + c.bytes() <= LOCAL_STORE_BYTES);
            assert_eq!(c.ls().0 % 16, 0);
        }
    }

    #[test]
    fn errors_surface_at_build() {
        assert_eq!(
            TransferPlan::builder().build().unwrap_err(),
            PlanError::EmptyPlan
        );
        assert_eq!(
            TransferPlan::builder()
                .get_from_memory(9, 1024, 128, SyncPolicy::AfterAll)
                .build()
                .unwrap_err(),
            PlanError::BadSpe(9)
        );
        assert_eq!(
            TransferPlan::builder()
                .get_from_memory(0, 1000, 128, SyncPolicy::AfterAll)
                .build()
                .unwrap_err(),
            PlanError::NotElemMultiple {
                total: 1000,
                elem: 128
            }
        );
        assert_eq!(
            TransferPlan::builder()
                .exchange_with(3, 3, 1024, 128, SyncPolicy::AfterAll)
                .build()
                .unwrap_err(),
            PlanError::SelfPartner(3)
        );
        // Invalid DMA size (not 1/2/4/8 or a multiple of 16) propagates
        // from the MFC validator.
        assert!(matches!(
            TransferPlan::builder()
                .get_from_memory(0, 72, 72, SyncPolicy::AfterAll)
                .build()
                .unwrap_err(),
            PlanError::Dma(DmaError::InvalidSize(72))
        ));
    }

    #[test]
    fn sync_policy_recorded_per_script() {
        let plan = TransferPlan::builder()
            .get_from_memory(0, 1024, 128, SyncPolicy::Every(2))
            .get_from_memory(1, 1024, 128, SyncPolicy::AfterAll)
            .build()
            .unwrap();
        assert_eq!(plan.scripts()[0].sync(), SyncPolicy::Every(2));
        assert_eq!(plan.scripts()[1].sync(), SyncPolicy::AfterAll);
    }

    #[test]
    fn scattered_elems_rotate_aligned_slots() {
        let offsets: Vec<u64> = (0..64).map(|i| i * 4096).collect();
        let plan = TransferPlan::builder()
            .update_elems_at(0, RegionId(0), &offsets, 8)
            .build()
            .unwrap();
        let cmds: Vec<Planned> = plan.scripts()[0].commands().collect();
        assert_eq!(cmds.len(), 2 * 64);
        for (j, pair) in cmds.chunks(2).enumerate() {
            for p in pair {
                let Planned::Elem(c) = p else { panic!() };
                // 8-byte elements still advance on a 16-byte LS stride so
                // the low nibble agrees with the 16-aligned effective
                // addresses.
                assert_eq!(c.ls().0, (j as u32 * 16) % LS_WINDOW);
                assert_eq!(c.bytes(), 8);
            }
        }
    }

    #[test]
    fn update_elems_fence_get_before_put() {
        let offsets = [0u64, 1 << 16, 1 << 20];
        let plan = TransferPlan::builder()
            .update_elems_at(1, RegionId(1), &offsets, 128)
            .build()
            .unwrap();
        let cmds: Vec<Planned> = plan.scripts()[1].commands().collect();
        assert_eq!(cmds.len(), 6);
        for (j, pair) in cmds.chunks(2).enumerate() {
            let (Planned::Elem(get), Planned::Elem(put)) = (&pair[0], &pair[1]) else {
                panic!("elem pair expected")
            };
            assert_eq!(get.kind(), DmaKind::Get);
            assert_eq!(put.kind(), DmaKind::Put);
            assert!(get.fence() && put.fence());
            assert_eq!(get.ea(), put.ea());
            assert_eq!(get.tag(), chain_tag(j as u64));
        }
    }

    #[test]
    fn indexed_lists_batch_within_hardware_limits() {
        let elements: Vec<ListElement> = (0..5000u64)
            .map(|i| ListElement {
                ea_offset: i * 256,
                bytes: 64,
            })
            .collect();
        let plan = TransferPlan::builder()
            .get_list_at(0, RegionId(0), &elements)
            .build()
            .unwrap();
        let mut total_elems = 0usize;
        for p in plan.scripts()[0].commands() {
            let Planned::List(l) = p else {
                panic!("list expected")
            };
            assert!(l.elements().len() <= MAX_LIST_ELEMENTS);
            assert!(l.total_bytes() <= u64::from(LS_WINDOW));
            total_elems += l.elements().len();
        }
        assert_eq!(total_elems, 5000);
        assert_eq!(plan.total_bytes(), 5000 * 64);
    }

    #[test]
    fn update_lists_pair_get_with_fenced_put() {
        let elements: Vec<ListElement> = (0..10u64)
            .map(|i| ListElement {
                ea_offset: i * 1024,
                bytes: 128,
            })
            .collect();
        let plan = TransferPlan::builder()
            .update_list_at(2, RegionId(2), &elements)
            .build()
            .unwrap();
        let cmds: Vec<Planned> = plan.scripts()[2].commands().collect();
        assert_eq!(cmds.len(), 2);
        let (Planned::List(get), Planned::List(put)) = (&cmds[0], &cmds[1]) else {
            panic!("list pair expected")
        };
        assert_eq!(get.kind(), DmaKind::Get);
        assert_eq!(put.kind(), DmaKind::Put);
        assert!(!get.fence());
        assert!(put.fence());
        assert_eq!(get.elements(), put.elements());
    }

    #[test]
    fn scattered_errors_surface_not_panic() {
        // Misaligned sub-quadword offset: LS slot is 16-aligned, EA is not.
        assert!(matches!(
            TransferPlan::builder()
                .update_elems_at(0, RegionId(0), &[8], 8)
                .build()
                .unwrap_err(),
            PlanError::Dma(_)
        ));
        assert_eq!(
            TransferPlan::builder()
                .update_elems_at(9, RegionId(0), &[0], 16)
                .build()
                .unwrap_err(),
            PlanError::BadSpe(9)
        );
        assert_eq!(
            TransferPlan::builder()
                .update_list_at(
                    8,
                    RegionId(0),
                    &[ListElement {
                        ea_offset: 0,
                        bytes: 16
                    }]
                )
                .build()
                .unwrap_err(),
            PlanError::BadSpe(8)
        );
        // Empty offset slices queue nothing: an otherwise empty plan still
        // reports EmptyPlan.
        assert_eq!(
            TransferPlan::builder()
                .update_elems_at(0, RegionId(0), &[], 16)
                .build()
                .unwrap_err(),
            PlanError::EmptyPlan
        );
    }

    #[test]
    fn regions_are_disjoint_per_spe_and_direction() {
        let mut seen = std::collections::HashSet::new();
        for spe in 0..SPE_COUNT {
            assert!(seen.insert(TransferPlan::get_region(spe)));
            assert!(seen.insert(TransferPlan::put_region(spe)));
        }
        for spe in 0..SPE_COUNT {
            // Copy destinations may alias other SPEs' copy destinations'
            // parity but never a get/put region of the same SPE.
            assert_ne!(
                TransferPlan::copy_dst_region(spe),
                TransferPlan::get_region(spe)
            );
        }
    }
}
