//! The EIB command (address/snoop) bus.

use cellsim_kernel::Cycle;

/// The tree-structured command bus of the EIB.
///
/// Every bus transaction — each 128-byte DMA packet, each cache-line fill —
/// must first broadcast a coherence command. The bus starts at most one
/// command per `issue_interval` bus cycles and each command takes a fixed
/// snoop `latency` before the data phase may begin.
///
/// At full tilt (one command per cycle, 128 B payloads) the command bus
/// supports 128 B/cycle ≈ 134 GB/s of data — exactly the aggregate peak of
/// the eight-SPE "cycle" experiment, which is why that experiment is the
/// first to feel command arbitration pressure.
///
/// ```
/// use cellsim_eib::CommandBus;
/// use cellsim_kernel::Cycle;
///
/// let mut bus = CommandBus::new(1, 10);
/// // Two back-to-back commands serialize on the issue slot.
/// assert_eq!(bus.issue(Cycle::ZERO), Cycle::new(10));
/// assert_eq!(bus.issue(Cycle::ZERO), Cycle::new(11));
/// ```
#[derive(Debug, Clone)]
pub struct CommandBus {
    issue_interval: u64,
    latency: u64,
    next_slot: Cycle,
    issued: u64,
}

impl CommandBus {
    /// Creates a command bus that starts one command every
    /// `issue_interval` cycles, each completing `latency` cycles after it
    /// starts.
    ///
    /// # Panics
    ///
    /// Panics if `issue_interval` is zero.
    pub fn new(issue_interval: u64, latency: u64) -> CommandBus {
        assert!(issue_interval > 0, "issue interval must be non-zero");
        CommandBus {
            issue_interval,
            latency,
            next_slot: Cycle::ZERO,
            issued: 0,
        }
    }

    /// Issues a command at or after `now`; returns the cycle at which the
    /// snoop completes and the data phase may begin.
    #[inline]
    pub fn issue(&mut self, now: Cycle) -> Cycle {
        let start = now.max(self.next_slot);
        self.next_slot = start + self.issue_interval;
        self.issued += 1;
        start + self.latency
    }

    /// Total commands issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// The snoop latency in bus cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_serialize_on_the_issue_slot() {
        let mut bus = CommandBus::new(2, 5);
        assert_eq!(bus.issue(Cycle::ZERO), Cycle::new(5));
        assert_eq!(bus.issue(Cycle::ZERO), Cycle::new(7));
        assert_eq!(bus.issue(Cycle::ZERO), Cycle::new(9));
        assert_eq!(bus.issued(), 3);
    }

    #[test]
    fn idle_bus_issues_immediately() {
        let mut bus = CommandBus::new(1, 4);
        bus.issue(Cycle::ZERO);
        // Long idle gap: next command starts at `now`, not at next_slot.
        assert_eq!(bus.issue(Cycle::new(100)), Cycle::new(104));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_interval_rejected() {
        let _ = CommandBus::new(0, 1);
    }
}
