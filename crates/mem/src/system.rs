//! Both banks plus the NUMA region map.

use cellsim_kernel::Cycle;

use crate::bank::{Access, BankConfig, Op, XdrBank};
use crate::numa::{NumaPolicy, RegionId};

/// Which physical bank an access targets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum BankId {
    /// The bank behind the first chip's MIC.
    #[default]
    Local,
    /// The second chip's bank, reached over IOIF0/BIF.
    Remote,
}

impl BankId {
    /// Both banks, local first.
    pub const ALL: [BankId; 2] = [BankId::Local, BankId::Remote];
}

/// The blade's memory: a local and a remote XDR bank behind a NUMA map.
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct MemorySystem {
    local: XdrBank,
    remote: XdrBank,
    policy: NumaPolicy,
}

impl MemorySystem {
    /// The paper's dual-Cell blade with the default NUMA policy.
    pub fn blade() -> MemorySystem {
        MemorySystem::new(
            BankConfig::local_xdr(),
            BankConfig::remote_xdr(),
            NumaPolicy::default(),
        )
    }

    /// Builds a memory system from explicit bank configurations.
    pub fn new(local: BankConfig, remote: BankConfig, policy: NumaPolicy) -> MemorySystem {
        MemorySystem {
            local: XdrBank::new(local),
            remote: XdrBank::new(remote),
            policy,
        }
    }

    /// Installs per-bank fault behaviour. The NACK decision streams are
    /// seeded from `seed` with one stream index per bank, so the two
    /// banks draw independent deterministic sequences.
    pub fn set_faults(
        &mut self,
        local: cellsim_faults::BankFaults,
        remote: cellsim_faults::BankFaults,
        seed: u64,
    ) {
        self.local.set_faults(local, seed, 0);
        self.remote.set_faults(remote, seed, 1);
    }

    /// Draws the next NACK decision for an access arriving at `bank`.
    /// Consult before [`MemorySystem::submit`]; `true` means the access
    /// was refused transiently and must be retried. Always `false`
    /// without faults installed.
    #[inline]
    pub fn nack_roll(&mut self, bank: BankId) -> bool {
        self.bank_mut(bank).nack_roll()
    }

    /// The active NUMA policy.
    pub fn policy(&self) -> NumaPolicy {
        self.policy
    }

    /// Replaces the NUMA policy (for ablations).
    pub fn set_policy(&mut self, policy: NumaPolicy) {
        self.policy = policy;
    }

    /// The bank holding byte `offset` of `region` under the current policy.
    #[inline]
    pub fn bank_for(&self, region: RegionId, offset: u64) -> BankId {
        self.policy.bank_for(region, offset)
    }

    /// Shared access to a bank.
    #[inline]
    pub fn bank(&self, id: BankId) -> &XdrBank {
        match id {
            BankId::Local => &self.local,
            BankId::Remote => &self.remote,
        }
    }

    /// Queues an access on `bank`.
    #[inline]
    pub fn submit(&mut self, now: Cycle, bank: BankId, op: Op, bytes: u32) -> Access {
        self.bank_mut(bank).submit(now, op, bytes)
    }

    /// Whether `bank` will take new work at `now`.
    #[inline]
    pub fn can_accept(&self, bank: BankId, now: Cycle) -> bool {
        self.bank(bank).can_accept(now)
    }

    /// Earliest time `bank` will take new work.
    #[inline]
    pub fn next_accept_time(&self, bank: BankId, now: Cycle) -> Cycle {
        self.bank(bank).next_accept_time(now)
    }

    #[inline]
    fn bank_mut(&mut self, id: BankId) -> &mut XdrBank {
        match id {
            BankId::Local => &mut self.local,
            BankId::Remote => &mut self.remote,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banks_are_independent_queues() {
        let mut mem = MemorySystem::blade();
        let a = mem.submit(Cycle::ZERO, BankId::Local, Op::Read, 128);
        let b = mem.submit(Cycle::ZERO, BankId::Remote, Op::Read, 128);
        // Concurrent service: neither waits for the other.
        assert_eq!(a.start, Cycle::ZERO);
        assert_eq!(b.start, Cycle::ZERO);
        // The remote bank is slower per byte.
        assert!(b.service_done > a.service_done);
    }

    #[test]
    fn default_policy_spreads_regions() {
        let mem = MemorySystem::blade();
        assert_eq!(mem.bank_for(RegionId(0), 0), BankId::Local);
        assert_eq!(mem.bank_for(RegionId(1), 0), BankId::Remote);
    }

    #[test]
    fn policy_can_be_swapped() {
        let mut mem = MemorySystem::blade();
        mem.set_policy(NumaPolicy::LocalOnly);
        assert_eq!(mem.bank_for(RegionId(1), 0), BankId::Local);
    }
}
