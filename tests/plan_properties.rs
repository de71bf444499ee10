//! Property-based tests over the full stack: any valid plan the builder
//! accepts must run to completion, conserve bytes, and respect the
//! machine's physical ceilings.

use cellsim::{CellSystem, Placement, SyncPolicy, TransferPlan};
use proptest::prelude::*;

/// Valid DMA element sizes for streams (power-of-two multiples of 128
/// up to the 16 KB command limit).
fn elem_size() -> impl Strategy<Value = u32> {
    (0u32..=7).prop_map(|k| 128 << k)
}

fn sync_policy() -> impl Strategy<Value = SyncPolicy> {
    prop_oneof![
        Just(SyncPolicy::AfterAll),
        (1u32..=16).prop_map(SyncPolicy::Every),
    ]
}

#[derive(Debug, Clone)]
enum Stream {
    GetMem { spe: usize },
    PutMem { spe: usize },
    CopyMem { spe: usize },
    Exchange { spe: usize, partner: usize },
    ExchangeList { spe: usize, partner: usize },
}

fn stream() -> impl Strategy<Value = Stream> {
    let spe = 0usize..8;
    prop_oneof![
        spe.clone().prop_map(|spe| Stream::GetMem { spe }),
        spe.clone().prop_map(|spe| Stream::PutMem { spe }),
        spe.clone().prop_map(|spe| Stream::CopyMem { spe }),
        (0usize..8, 1usize..8).prop_map(|(spe, d)| Stream::Exchange {
            spe,
            partner: (spe + d) % 8,
        }),
        (0usize..8, 1usize..8).prop_map(|(spe, d)| Stream::ExchangeList {
            spe,
            partner: (spe + d) % 8,
        }),
    ]
}

fn placement() -> impl Strategy<Value = Placement> {
    any::<u64>().prop_map(|seed| {
        use rand::SeedableRng;
        Placement::random(&mut rand::rngs::StdRng::seed_from_u64(seed))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever mix of streams we throw at the fabric, it finishes,
    /// delivers exactly the planned bytes, and never exceeds the
    /// machine's hard ceiling (every port moving flat out).
    #[test]
    fn fabric_conserves_bytes_and_respects_physics(
        streams in proptest::collection::vec(stream(), 1..6),
        elem in elem_size(),
        sync in sync_policy(),
        placement in placement(),
    ) {
        let volume = u64::from(elem) * 8; // 8 commands per stream
        let mut b = TransferPlan::builder();
        for s in &streams {
            b = match *s {
                Stream::GetMem { spe } => b.get_from_memory(spe, volume, elem, sync),
                Stream::PutMem { spe } => b.put_to_memory(spe, volume, elem, sync),
                Stream::CopyMem { spe } => b.copy_memory(spe, volume, elem, sync),
                Stream::Exchange { spe, partner } =>
                    b.exchange_with(spe, partner, volume, elem, sync),
                Stream::ExchangeList { spe, partner } =>
                    b.exchange_with_list(spe, partner, volume, elem, sync),
            };
        }
        let plan = b.build().expect("generated plans are valid");
        let report = CellSystem::blade().try_run(&placement, &plan).unwrap();

        prop_assert_eq!(report.total_bytes, plan.total_bytes());
        prop_assert!(report.cycles > 0);
        // Physical ceiling: 12 ramps x 16.8 GB/s of send bandwidth.
        prop_assert!(report.aggregate_gbps <= 12.0 * 16.8);
        // Per-SPE ceiling: get+put concurrently can never beat 33.6.
        for &g in &report.per_spe_gbps {
            prop_assert!(g <= 33.7, "per-SPE {} exceeds the port pair", g);
        }
    }

    /// Delaying synchronization never hurts: AfterAll >= Every(k) up to
    /// simulation granularity.
    #[test]
    fn lazy_sync_dominates(k in 1u32..16, elem in elem_size()) {
        let sys = CellSystem::blade();
        let volume = u64::from(elem) * 32;
        let run = |sync| {
            let plan = TransferPlan::builder()
                .exchange_with(0, 1, volume, elem, sync)
                .build()
                .unwrap();
            sys.try_run(&Placement::identity(), &plan).unwrap().aggregate_gbps
        };
        let lazy = run(SyncPolicy::AfterAll);
        let eager = run(SyncPolicy::Every(k));
        prop_assert!(eager <= lazy * 1.01, "every {} gave {} > {}", k, eager, lazy);
    }

    /// DMA-list bandwidth is monotone non-degrading versus element size
    /// (the paper's "constant performance for any data size element").
    #[test]
    fn dma_list_flat_within_tolerance(k in 0u32..=7) {
        let elem = 128u32 << k;
        let sys = CellSystem::blade();
        let volume = 512u64 << 10;
        let plan = TransferPlan::builder()
            .exchange_with_list(0, 1, volume, elem, SyncPolicy::AfterAll)
            .build()
            .unwrap();
        let g = sys.try_run(&Placement::identity(), &plan).unwrap().aggregate_gbps;
        prop_assert!(g > 30.0, "list at {} B gave {}", elem, g);
    }
}

/// Eager reference implementation of the streamed builders: every
/// command materialised in program order, the first invalid one
/// reported. The builders compute their commands on demand and validate
/// them without building them all; these loops are the specification
/// they are checked against.
mod eager {
    use cellsim::core::{Planned, LS_WINDOW};
    use cellsim::mem::RegionId;
    use cellsim::mfc::{DmaCommand, DmaKind, DmaListCommand, EffectiveAddr, LsAddr, TagId};
    use cellsim::{PlanError, TransferPlan, SPE_COUNT};

    pub type Script = Result<Vec<Planned>, PlanError>;

    fn tag() -> TagId {
        TagId::new(0).unwrap()
    }

    fn chain_tag(j: u64) -> TagId {
        TagId::new((j % 32) as u8).unwrap()
    }

    fn ls_slot(j: u64, elem_bytes: u32) -> LsAddr {
        LsAddr(((j * u64::from(elem_bytes)) % u64::from(LS_WINDOW)) as u32)
    }

    fn partner_ea(partner: usize, j: u64, elem_bytes: u32, kind: DmaKind) -> EffectiveAddr {
        let base = match kind {
            DmaKind::Get => 0,
            DmaKind::Put => LS_WINDOW,
        };
        EffectiveAddr::LocalStore {
            spe: partner as u8,
            offset: base + ((j * u64::from(elem_bytes)) % u64::from(LS_WINDOW)) as u32,
        }
    }

    fn region_ea(region: RegionId, offset: u64) -> EffectiveAddr {
        EffectiveAddr::Memory { region, offset }
    }

    fn elems_per_list(elem_bytes: u32) -> u64 {
        u64::from((LS_WINDOW / elem_bytes).max(1)).min(cellsim::mfc::MAX_LIST_ELEMENTS as u64)
    }

    fn check_stream(spe: usize, total: u64, elem: u32) -> Result<(), PlanError> {
        if spe >= SPE_COUNT {
            return Err(PlanError::BadSpe(spe));
        }
        if elem == 0 || !total.is_multiple_of(u64::from(elem)) {
            return Err(PlanError::NotElemMultiple { total, elem });
        }
        Ok(())
    }

    fn check_pair(spe: usize, partner: usize, total: u64, elem: u32) -> Result<(), PlanError> {
        check_stream(spe, total, elem)?;
        if partner >= SPE_COUNT {
            return Err(PlanError::BadSpe(partner));
        }
        if partner == spe {
            return Err(PlanError::SelfPartner(spe));
        }
        Ok(())
    }

    fn elem_stream(kind: DmaKind, base: EffectiveAddr, total: u64, elem: u32) -> Script {
        let mut out = Vec::new();
        for j in 0..total / u64::from(elem) {
            let ea = match base {
                EffectiveAddr::Memory { region, .. } => region_ea(region, j * u64::from(elem)),
                EffectiveAddr::LocalStore { spe, offset } => EffectiveAddr::LocalStore {
                    spe,
                    offset: offset + ((j * u64::from(elem)) % u64::from(LS_WINDOW)) as u32,
                },
            };
            let cmd = DmaCommand::new(kind, ls_slot(j, elem), ea, elem, tag())?;
            out.push(Planned::Elem(cmd));
        }
        Ok(out)
    }

    fn list_stream(kind: DmaKind, region: RegionId, total: u64, elem: u32) -> Script {
        let mut out = Vec::new();
        let total_elems = total / u64::from(elem);
        let mut done = 0u64;
        while done < total_elems {
            let n = elems_per_list(elem).min(total_elems - done);
            let ea = region_ea(region, done * u64::from(elem));
            let cmd = DmaListCommand::contiguous(kind, LsAddr(0), ea, elem, n as usize, tag())?;
            out.push(Planned::List(cmd));
            done += n;
        }
        Ok(out)
    }

    pub fn memory_stream(spe: usize, kind: DmaKind, total: u64, elem: u32, list: bool) -> Script {
        check_stream(spe, total, elem)?;
        let region = match kind {
            DmaKind::Get => TransferPlan::get_region(spe),
            DmaKind::Put => TransferPlan::put_region(spe),
        };
        if list {
            list_stream(kind, region, total, elem)
        } else {
            elem_stream(kind, region_ea(region, 0), total, elem)
        }
    }

    pub fn ls_stream(spe: usize, partner: usize, kind: DmaKind, total: u64, elem: u32) -> Script {
        check_pair(spe, partner, total, elem)?;
        elem_stream(kind, partner_ea(partner, 0, elem, kind), total, elem)
    }

    pub fn copy_memory(spe: usize, total: u64, elem: u32) -> Script {
        check_stream(spe, total, elem)?;
        let mut out = Vec::new();
        for j in 0..total / u64::from(elem) {
            for (kind, region) in [
                (DmaKind::Get, TransferPlan::get_region(spe)),
                (DmaKind::Put, TransferPlan::copy_dst_region(spe)),
            ] {
                let ea = region_ea(region, j * u64::from(elem));
                let cmd = DmaCommand::new(kind, ls_slot(j, elem), ea, elem, chain_tag(j))?;
                out.push(Planned::Elem(cmd.with_fence()));
            }
        }
        Ok(out)
    }

    pub fn exchange_with(spe: usize, partner: usize, total: u64, elem: u32) -> Script {
        check_pair(spe, partner, total, elem)?;
        let mut out = Vec::new();
        for j in 0..total / u64::from(elem) {
            for kind in [DmaKind::Get, DmaKind::Put] {
                let ea = partner_ea(partner, j, elem, kind);
                let cmd = DmaCommand::new(kind, ls_slot(j, elem), ea, elem, tag())?;
                out.push(Planned::Elem(cmd));
            }
        }
        Ok(out)
    }

    pub fn exchange_with_list(spe: usize, partner: usize, total: u64, elem: u32) -> Script {
        check_pair(spe, partner, total, elem)?;
        let mut out = Vec::new();
        let total_elems = total / u64::from(elem);
        let mut done = 0u64;
        while done < total_elems {
            let n = elems_per_list(elem).min(total_elems - done);
            for kind in [DmaKind::Get, DmaKind::Put] {
                let base = partner_ea(partner, done, elem, kind);
                let cmd =
                    DmaListCommand::contiguous(kind, LsAddr(0), base, elem, n as usize, tag())?;
                out.push(Planned::List(cmd));
            }
            done += n;
        }
        Ok(out)
    }
}

/// Every streamed builder, elem and list variants.
#[derive(Debug, Clone, Copy)]
enum Builder {
    GetMem,
    PutMem,
    GetMemList,
    PutMemList,
    CopyMem,
    GetSpe,
    PutSpe,
    Exchange,
    ExchangeList,
}

fn builder() -> impl Strategy<Value = Builder> {
    prop_oneof![
        Just(Builder::GetMem),
        Just(Builder::PutMem),
        Just(Builder::GetMemList),
        Just(Builder::PutMemList),
        Just(Builder::CopyMem),
        Just(Builder::GetSpe),
        Just(Builder::PutSpe),
        Just(Builder::Exchange),
        Just(Builder::ExchangeList),
    ]
}

/// Valid and invalid element sizes: zero, sub-quadword, the 24 B and
/// 48 B sizes whose LS windows wrap mid-element, any quadword multiple
/// up to 16 KiB, oversized, and arbitrary small sizes.
fn any_elem_size() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(0u32),
        prop_oneof![Just(1u32), Just(2), Just(4), Just(8)],
        prop_oneof![Just(24u32), Just(48)],
        (1u32..=1024).prop_map(|k| 16 * k),
        (0u32..=7).prop_map(|k| 128 << k),
        16385u32..40000,
        1u32..200,
    ]
}

fn expected(b: Builder, spe: usize, partner: usize, total: u64, elem: u32) -> eager::Script {
    use cellsim::mfc::DmaKind::{Get, Put};
    match b {
        Builder::GetMem => eager::memory_stream(spe, Get, total, elem, false),
        Builder::PutMem => eager::memory_stream(spe, Put, total, elem, false),
        Builder::GetMemList => eager::memory_stream(spe, Get, total, elem, true),
        Builder::PutMemList => eager::memory_stream(spe, Put, total, elem, true),
        Builder::CopyMem => eager::copy_memory(spe, total, elem),
        Builder::GetSpe => eager::ls_stream(spe, partner, Get, total, elem),
        Builder::PutSpe => eager::ls_stream(spe, partner, Put, total, elem),
        Builder::Exchange => eager::exchange_with(spe, partner, total, elem),
        Builder::ExchangeList => eager::exchange_with_list(spe, partner, total, elem),
    }
}

fn streamed(
    b: Builder,
    spe: usize,
    partner: usize,
    total: u64,
    elem: u32,
) -> Result<TransferPlan, cellsim::PlanError> {
    let sync = SyncPolicy::AfterAll;
    let t = TransferPlan::builder();
    match b {
        Builder::GetMem => t.get_from_memory(spe, total, elem, sync),
        Builder::PutMem => t.put_to_memory(spe, total, elem, sync),
        Builder::GetMemList => t.get_from_memory_list(spe, total, elem, sync),
        Builder::PutMemList => t.put_to_memory_list(spe, total, elem, sync),
        Builder::CopyMem => t.copy_memory(spe, total, elem, sync),
        Builder::GetSpe => t.get_from_spe(spe, partner, total, elem, sync),
        Builder::PutSpe => t.put_to_spe(spe, partner, total, elem, sync),
        Builder::Exchange => t.exchange_with(spe, partner, total, elem, sync),
        Builder::ExchangeList => t.exchange_with_list(spe, partner, total, elem, sync),
    }
    .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The streamed builders yield exactly the eager reference's commands
    /// in its order, with the same byte total, and reject exactly the
    /// streams it rejects with the same first error. Element counts
    /// reach past the Local Store window's period (8192 16 B elements),
    /// so wrap-around failures mid-stream are covered.
    #[test]
    fn streamed_builders_match_the_eager_reference(
        b in builder(),
        spe in 0usize..10,
        partner in 0usize..9,
        elem in any_elem_size(),
        count in 0u64..20_000,
        bump in 0u64..6,
    ) {
        // One case in six asks for a volume that is not a multiple.
        let total = u64::from(elem) * count + u64::from(bump == 0);
        let want = expected(b, spe, partner, total, elem);
        let got = streamed(b, spe, partner, total, elem);
        match (want, got) {
            (Ok(cmds), Ok(plan)) => {
                let script = &plan.scripts()[spe];
                prop_assert!(!cmds.is_empty());
                prop_assert!(!script.is_empty());
                prop_assert_eq!(script.commands().len(), cmds.len());
                let bytes: u64 = cmds.iter().map(cellsim::core::Planned::bytes).sum();
                prop_assert_eq!(script.total_bytes(), bytes);
                prop_assert_eq!(plan.total_bytes(), bytes);
                prop_assert!(script.commands().eq(cmds), "{:?}: commands differ", b);
            }
            // An empty stream queues nothing, so the plan is empty.
            (Ok(cmds), Err(e)) => {
                prop_assert!(cmds.is_empty(), "{:?} rejected a valid stream: {}", b, e);
                prop_assert_eq!(e, cellsim::PlanError::EmptyPlan);
            }
            (Err(want), Err(got)) => prop_assert_eq!(got, want),
            (Err(want), Ok(_)) => prop_assert!(false, "{:?} accepted an invalid stream: {}", b, want),
        }
    }
}

/// Eager reference for the seeded scattered updates: today's GUPS and
/// pair-list builders, every offset drawn up front and every command
/// stored (`update_elems_at` / `update_list_at`). The closed-form streams
/// must match them command for command. `size` is the stream's grain or
/// record size; `bytes` the transfer size handed to the builder, which
/// may differ so that invalid commands reach the plan validator.
mod eager_scatter {
    use cellsim::mem::RegionId;
    use cellsim::mfc::ListElement;
    use cellsim::workloads::{GupsParams, PairlistParams};
    use cellsim::TransferPlan;

    pub fn gups(
        p: GupsParams,
        spes: usize,
        r: fn(usize) -> RegionId,
        n: u64,
        size: u32,
        bytes: u32,
    ) -> super::Built {
        let mut b = TransferPlan::builder();
        for spe in 0..spes {
            let offsets = p.offsets(spe as u8, n, size)?;
            b = b.update_elems_at(spe, r(spe), &offsets, bytes);
        }
        Ok(b.build())
    }

    pub fn pairlist(
        p: PairlistParams,
        spes: usize,
        r: fn(usize) -> RegionId,
        n: u64,
        size: u32,
        bytes: u32,
    ) -> super::Built {
        let mut b = TransferPlan::builder();
        for spe in 0..spes {
            let elements: Vec<ListElement> = p
                .elements(spe as u8, n, size)?
                .into_iter()
                .map(|e| ListElement { bytes, ..e })
                .collect();
            b = b.update_list_at(spe, r(spe), &elements);
        }
        Ok(b.build())
    }
}

/// The closed-form counterparts of [`eager_scatter`]: same parameters,
/// offsets streamed.
mod streamed_scatter {
    use cellsim::mem::RegionId;
    use cellsim::workloads::{GupsParams, PairlistParams};
    use cellsim::TransferPlan;

    pub fn gups(
        p: GupsParams,
        spes: usize,
        r: fn(usize) -> RegionId,
        n: u64,
        size: u32,
        bytes: u32,
    ) -> super::Built {
        let mut b = TransferPlan::builder();
        for spe in 0..spes {
            b = b.update_elems_from(spe, r(spe), p.stream(spe as u8, n, size)?, bytes);
        }
        Ok(b.build())
    }

    pub fn pairlist(
        p: PairlistParams,
        spes: usize,
        r: fn(usize) -> RegionId,
        n: u64,
        size: u32,
        bytes: u32,
    ) -> super::Built {
        let mut b = TransferPlan::builder();
        for spe in 0..spes {
            b = b.update_list_from(spe, r(spe), p.stream(spe as u8, n, size)?, bytes);
        }
        Ok(b.build())
    }
}

type Built = Result<Result<TransferPlan, cellsim::PlanError>, cellsim::workloads::StreamError>;

/// Both builds agree: the same parameter error, the same first plan
/// error, or plans with the same commands per SPE, bytes and cost.
fn same_plans(want: Built, got: Built) -> Result<(), TestCaseError> {
    match (want, got) {
        (Err(want), Err(got)) => prop_assert_eq!(got, want),
        (Ok(Err(want)), Ok(Err(got))) => prop_assert_eq!(got, want),
        (Ok(Ok(want)), Ok(Ok(got))) => {
            for (spe, (w, g)) in want.scripts().iter().zip(got.scripts()).enumerate() {
                prop_assert_eq!(g.is_empty(), w.is_empty());
                prop_assert_eq!(g.sync(), w.sync());
                prop_assert_eq!(g.commands().len(), w.commands().len());
                prop_assert_eq!(g.total_bytes(), w.total_bytes());
                prop_assert!(g.commands().eq(w.commands()), "SPE {} commands differ", spe);
                // One closed-form step per active SPE.
                prop_assert!(g.step_count() <= 1);
            }
            prop_assert_eq!(got.total_bytes(), want.total_bytes());
            for packet in [16, 128] {
                prop_assert_eq!(got.cost(packet), want.cost(packet));
            }
        }
        (want, got) => prop_assert!(false, "outcomes differ: {:?} vs {:?}", want, got),
    }
    Ok(())
}

/// Valid and invalid update sizes: zero, sub-quadword, powers of two
/// up to 16 KiB, quadword multiples, 24 B, oversized, and arbitrary
/// small sizes.
fn scatter_size() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(0u32),
        prop_oneof![Just(1u32), Just(2), Just(4), Just(8)],
        (3u32..=14).prop_map(|k| 1 << k),
        (1u32..=1024).prop_map(|k| 16 * k),
        Just(24u32),
        16385u32..40000,
        1u32..200,
    ]
}

/// A stream size (mostly valid, so most cases reach the builder) and the
/// transfer size the builder is given (mostly the same, else any size).
fn sizes(valid: impl Strategy<Value = u32> + 'static) -> impl Strategy<Value = (u32, u32)> {
    let size = prop_oneof![valid.clone(), valid.clone(), valid, scatter_size()];
    let bytes = prop_oneof![Just(None), Just(None), scatter_size().prop_map(Some)];
    (size, bytes).prop_map(|(size, bytes)| (size, bytes.unwrap_or(size)))
}

fn scatter_region() -> impl Strategy<Value = fn(usize) -> cellsim::mem::RegionId> {
    prop_oneof![
        Just(TransferPlan::get_region as fn(usize) -> cellsim::mem::RegionId),
        Just(TransferPlan::put_region as fn(usize) -> cellsim::mem::RegionId),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// GUPS updates streamed from their offsets match the eager builder:
    /// commands, bytes, cost and the first error. Counts reach past the
    /// Local Store slot period (8192 16 B slots).
    #[test]
    fn streamed_gups_matches_the_eager_reference(
        table_log2 in 10u8..=26,
        seed in any::<u32>(),
        spes in 0usize..=9,
        count in 0u64..10_000,
        (grain, bytes) in sizes((3u32..=7).prop_map(|k| 1 << k)),
        region in scatter_region(),
    ) {
        let p = cellsim::workloads::GupsParams { table_log2, seed };
        same_plans(
            eager_scatter::gups(p, spes, region, count, grain, bytes),
            streamed_scatter::gups(p, spes, region, count, grain, bytes),
        )?;
    }

    /// Pair-list gather/scatter batches streamed from their offsets match
    /// the eager builder, including the short last batch.
    #[test]
    fn streamed_pairlist_matches_the_eager_reference(
        table_log2 in 10u8..=26,
        hot_log2 in 0u8..12,
        seed in any::<u32>(),
        spes in 0usize..=9,
        count in 0u64..10_000,
        (record, bytes) in sizes((4u32..=14).prop_map(|k| 1 << k)),
        region in scatter_region(),
    ) {
        let p = cellsim::workloads::PairlistParams { table_log2, hot_log2, seed };
        same_plans(
            eager_scatter::pairlist(p, spes, region, count, record, bytes),
            streamed_scatter::pairlist(p, spes, region, count, record, bytes),
        )?;
    }
}

/// GUPS and pair-list plans at the paper's 32 MiB per SPE (4 Mi and
/// 2 Mi updates each) hold one step per SPE, not stored commands.
#[test]
fn paper_scale_gups_plan_holds_one_step_per_spe() {
    use cellsim::core::exec::Workload;
    use cellsim::core::experiments::SweepPoint;
    let gups = cellsim::workloads::GupsParams {
        table_log2: 24,
        seed: 0x5EED,
    };
    let pairlist = cellsim::workloads::PairlistParams {
        table_log2: 20,
        hot_log2: 8,
        seed: 0x5EED,
    };
    for (pattern, elem, list, params) in [
        ("gups", 8u32, false, gups.pack()),
        ("pairlist", 16, true, pairlist.pack()),
    ] {
        let point = SweepPoint::new(Workload {
            pattern,
            spes: 8,
            volume: 32 << 20,
            elem,
            list,
            sync: SyncPolicy::AfterAll,
            params,
        })
        .expect("paper-scale plan builds");
        let plan = point.plan();
        let steps: usize = plan.scripts().iter().map(|s| s.step_count()).sum();
        assert_eq!(steps, 8, "{pattern}: one step per SPE");
        let commands: usize = plan.scripts().iter().map(|s| s.commands().len()).sum();
        assert!(commands >= 1000 * steps, "{pattern}: {commands} commands");
    }
}

/// `repeat` issues exactly the commands of the unrolled loop, from one
/// stored body.
#[test]
fn repeat_issues_the_unrolled_commands_from_one_stored_body() {
    use cellsim::mem::RegionId;
    use cellsim::mfc::ListElement;
    use cellsim::{PlanError, TransferPlanBuilder};
    let face = [0, 1024].map(|ea_offset| ListElement {
        ea_offset,
        bytes: 64,
    });
    let timestep = |b: TransferPlanBuilder| {
        b.get_from_memory(3, 4096, 1024, SyncPolicy::AfterAll)
            .get_list_at(3, RegionId(5), &face)
    };
    let unrolled = (0..7).fold(TransferPlan::builder(), |b, _| timestep(b));
    let unrolled = unrolled.build().unwrap();
    let looped = timestep(TransferPlan::builder()).repeat(3, 7).build();
    let looped = looped.unwrap();
    let (u, l) = (&unrolled.scripts()[3], &looped.scripts()[3]);
    assert!(u.commands().eq(l.commands()));
    assert_eq!(u.commands().len(), l.commands().len());
    assert_eq!(unrolled.total_bytes(), looped.total_bytes());
    assert_eq!(unrolled.cost(128), looped.cost(128));
    assert_eq!((u.step_count(), l.step_count()), (14, 3));
    // Once is the body itself; zero times queues nothing.
    let once = timestep(TransferPlan::builder()).repeat(3, 1).build();
    assert_eq!(once.unwrap().scripts()[3].step_count(), 2);
    let none = timestep(TransferPlan::builder()).repeat(3, 0).build();
    assert_eq!(none.unwrap_err(), PlanError::EmptyPlan);
}

/// A stencil plan stores one timestep per SPE and repeats it, so its
/// size is the same at 64 KiB and at the paper's 32 MiB per SPE, even
/// for the smallest (2×2-cell) subgrid.
#[test]
fn stencil_plan_size_does_not_grow_with_volume() {
    use cellsim::core::exec::Workload;
    use cellsim::core::experiments::SweepPoint;
    let stencil = |rows_log2, cols_log2, volume| {
        let params = cellsim::workloads::StencilParams {
            rows_log2,
            cols_log2,
        };
        let w = Workload {
            pattern: "stencil",
            spes: 8,
            volume,
            elem: cellsim::workloads::CELL_BYTES,
            list: true,
            sync: SyncPolicy::AfterAll,
            params: params.pack(),
        };
        let point = SweepPoint::new(w).expect("stencil plan builds");
        std::sync::Arc::clone(point.plan())
    };
    for (rows_log2, cols_log2) in [(1, 1), (5, 6)] {
        let small = stencil(rows_log2, cols_log2, 64 << 10);
        let paper = stencil(rows_log2, cols_log2, 32 << 20);
        let steps =
            |plan: &TransferPlan| -> usize { plan.scripts().iter().map(|s| s.step_count()).sum() };
        assert_eq!(steps(&small), steps(&paper));
        assert_eq!(paper.total_bytes(), small.total_bytes() * 512);
    }
}
