//! Differential test of the DMA-list constructors: the closed-form
//! validation of `DmaListCommand::contiguous` against `DmaListCommand::new`
//! over the same explicit, contiguous elements, which checks one element
//! at a time. Both must return the same command or the same error.
//!
//! Inputs cover both directions, main-memory and Local Store targets
//! (logical SPEs 0–9, so out-of-range SPEs too), every size class (zero,
//! sub-quadword, odd, quadword multiples, the 16 KiB limit and past it),
//! Local Store bases and target offsets near the 256 KiB end, and list
//! lengths 0–2049, with extra weight on the longest list that still fits.
//!
//! Each property runs 256 cases unless `PROPTEST_CASES` sets the count.

use cellsim_mem::RegionId;
use cellsim_mfc::{
    DmaKind, DmaListCommand, EffectiveAddr, ListElement, LsAddr, TagId, LOCAL_STORE_BYTES,
    MAX_LIST_ELEMENTS,
};
use proptest::prelude::*;

const SIZES: [u32; 18] = [
    0, 1, 2, 3, 4, 8, 12, 16, 48, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 16400,
];

fn kind() -> impl Strategy<Value = DmaKind> {
    prop_oneof![Just(DmaKind::Get), Just(DmaKind::Put)]
}

/// A Local Store base: often 0 or quadword-aligned, sometimes anywhere up
/// to just past the end.
fn ls_base() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(0),
        (0..=LOCAL_STORE_BYTES / 16).prop_map(|q| q * 16),
        0..=LOCAL_STORE_BYTES + 32,
    ]
}

/// Raw draws for a target: memory or Local Store, a region, a logical SPE
/// (0–9), quadword parts for either kind, free low bits, and whether the
/// low bits copy the Local Store base's instead (so sub-quadword sizes
/// can pass the congruence rule).
type TargetDraw = (bool, u32, u8, u64, u32, u8, bool);

fn target_draw() -> impl Strategy<Value = TargetDraw> {
    (
        (any::<bool>(), 0u32..64, 0u8..10),
        (0u64..1 << 24, 0..=LOCAL_STORE_BYTES / 16 + 4),
        (0u8..16, any::<bool>()),
    )
        .prop_map(
            |((memory, region, spe), (mem_quads, ls_quads), (low, congruent))| {
                (memory, region, spe, mem_quads, ls_quads, low, congruent)
            },
        )
}

fn target(ls: u32, draw: TargetDraw) -> EffectiveAddr {
    let (memory, region, spe, mem_quads, ls_quads, low, congruent) = draw;
    let low = if congruent { ls & 15 } else { u32::from(low) };
    if memory {
        EffectiveAddr::Memory {
            region: RegionId(region),
            offset: mem_quads * 16 + u64::from(low),
        }
    } else {
        EffectiveAddr::LocalStore {
            spe,
            offset: ls_quads * 16 + low,
        }
    }
}

/// A list length over 0–2049, with extra weight on both ends of the
/// valid range.
fn lengths() -> impl Strategy<Value = usize> {
    prop_oneof![
        0..=MAX_LIST_ELEMENTS + 1,
        0usize..=2,
        MAX_LIST_ELEMENTS - 1..=MAX_LIST_ELEMENTS + 1,
    ]
}

/// The length to test: `uniform`, or within one of the longest list that
/// fits the Local Store from `ls` (`near_fit` 0–2 for one short, exact,
/// one over; 3–5 for `uniform`).
fn count(ls: u32, bytes: u32, uniform: usize, near_fit: u8) -> usize {
    if near_fit > 2 || bytes == 0 {
        return uniform;
    }
    let fit = (LOCAL_STORE_BYTES.saturating_sub(ls) / bytes) as usize;
    (fit + usize::from(near_fit))
        .saturating_sub(1)
        .min(MAX_LIST_ELEMENTS + 1)
}

/// Cases per property: `PROPTEST_CASES` if set, else 256.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn contiguous_lists_validate_like_explicit_ones(
        kind in kind(),
        ls in ls_base(),
        draw in target_draw(),
        size in 0..SIZES.len(),
        (uniform, near_fit) in (lengths(), 0u8..6),
        tag in 0u8..32,
    ) {
        let ea = target(ls, draw);
        let bytes = SIZES[size];
        let count = count(ls, bytes, uniform, near_fit);
        let tag = TagId::new(tag).expect("tags below 32 are valid");
        let elements = (0..count)
            .map(|i| ListElement {
                ea_offset: i as u64 * u64::from(bytes),
                bytes,
            })
            .collect();
        prop_assert_eq!(
            DmaListCommand::contiguous(kind, LsAddr(ls), ea, bytes, count, tag),
            DmaListCommand::new(kind, LsAddr(ls), ea, elements, tag)
        );
    }
}
