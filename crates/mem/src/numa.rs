//! NUMA placement of memory regions across the blade's two banks.

use crate::system::BankId;

/// Identifier of an allocated memory region (one per experiment buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

/// How regions are distributed over the two banks.
///
/// The paper's blade runs a NUMA-enabled Linux with 64 KB pages and both
/// banks reachable; its Figure 8 shows aggregate bandwidth exceeding a
/// single bank's peak once two or more SPEs stream, demonstrating that the
/// OS spread the independent per-SPE buffers over both banks. The policies
/// here let the experiments reproduce (and ablate) that spreading.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NumaPolicy {
    /// Everything on the local bank — a single-chip machine, and the
    /// ablation baseline.
    LocalOnly,
    /// Region *n* lands wholly on bank *n mod 2*: models first-touch
    /// spreading of independent buffers (the default, matching the paper).
    #[default]
    RoundRobinRegions,
    /// Pages alternate banks inside every region, `page_bytes` at a time:
    /// models `numactl --interleave`.
    InterleavePages {
        /// Interleaving granularity; the blade used 64 KB pages.
        page_bytes: u64,
    },
}

impl NumaPolicy {
    /// The bank holding byte `offset` of `region`.
    ///
    /// # Panics
    ///
    /// Panics if an interleaving granularity of zero was configured.
    #[inline]
    pub fn bank_for(self, region: RegionId, offset: u64) -> BankId {
        match self {
            NumaPolicy::LocalOnly => BankId::Local,
            NumaPolicy::RoundRobinRegions => {
                if region.0.is_multiple_of(2) {
                    BankId::Local
                } else {
                    BankId::Remote
                }
            }
            NumaPolicy::InterleavePages { page_bytes } => {
                assert!(page_bytes > 0, "interleave granularity must be non-zero");
                if (offset / page_bytes).is_multiple_of(2) {
                    BankId::Local
                } else {
                    BankId::Remote
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_only_never_goes_remote() {
        for r in 0..8 {
            assert_eq!(
                NumaPolicy::LocalOnly.bank_for(RegionId(r), 12345),
                BankId::Local
            );
        }
    }

    #[test]
    fn round_robin_alternates_by_region() {
        let p = NumaPolicy::RoundRobinRegions;
        assert_eq!(p.bank_for(RegionId(0), 0), BankId::Local);
        assert_eq!(p.bank_for(RegionId(1), 0), BankId::Remote);
        assert_eq!(p.bank_for(RegionId(2), 1 << 30), BankId::Local);
    }

    #[test]
    fn interleave_alternates_by_page() {
        let p = NumaPolicy::InterleavePages { page_bytes: 65536 };
        assert_eq!(p.bank_for(RegionId(0), 0), BankId::Local);
        assert_eq!(p.bank_for(RegionId(0), 65535), BankId::Local);
        assert_eq!(p.bank_for(RegionId(0), 65536), BankId::Remote);
        assert_eq!(p.bank_for(RegionId(5), 3 * 65536), BankId::Remote);
    }

    #[test]
    #[should_panic(expected = "granularity")]
    fn zero_page_size_panics() {
        NumaPolicy::InterleavePages { page_bytes: 0 }.bank_for(RegionId(0), 0);
    }
}
