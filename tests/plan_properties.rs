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
