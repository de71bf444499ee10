//! A single data ring: per-segment reservation bookkeeping.

use cellsim_kernel::Cycle;

use crate::topology::{Direction, Route};

/// Identifier of one of the data rings (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RingId(pub usize);

/// One unidirectional 16-byte data ring.
///
/// Each segment records the cycle until which it is reserved. A transfer
/// holds every segment along its route for its full wire time, which is a
/// slightly conservative approximation of the real pipelined ring but
/// preserves the property the paper measures: two transfers whose paths
/// share a segment cannot overlap, while disjoint transfers can (up to
/// three concurrent per ring on the real part — an emergent property here,
/// since three disjoint ≤4-hop paths fit in twelve segments).
#[derive(Debug, Clone)]
pub struct Ring {
    direction: Direction,
    busy_until: Vec<Cycle>,
}

impl Ring {
    /// Creates an idle ring with `segments` segments.
    pub fn new(direction: Direction, segments: usize) -> Ring {
        Ring {
            direction,
            busy_until: vec![Cycle::ZERO; segments],
        }
    }

    /// The ring's travel direction.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Whether every segment in `mask` is free at `now`.
    pub fn path_free(&self, mask: u32, now: Cycle) -> bool {
        self.path_blocked_until(mask, now).is_none()
    }

    /// `None` if every segment in `mask` is free at `now`; otherwise the
    /// expiry of the first one still reserved, before which the path
    /// cannot be free.
    #[inline]
    pub(crate) fn path_blocked_until(&self, mask: u32, now: Cycle) -> Option<Cycle> {
        let mut m = mask;
        while m != 0 {
            let k = m.trailing_zeros() as usize;
            let Some(&busy) = self.busy_until.get(k) else {
                panic!("segment mask {mask:#x} exceeds ring size");
            };
            if busy > now {
                return Some(busy);
            }
            m &= m - 1;
        }
        None
    }

    /// Whether a pipelined transfer starting at `now` can use `route`:
    /// segment *i* must be free when the packet head reaches it, `i`
    /// hop-latencies after launch.
    pub fn route_free(&self, route: &Route, now: Cycle, hop_latency: u64) -> bool {
        self.route_blocked_until(route, now, hop_latency).is_none()
    }

    /// `None` if a pipelined transfer starting at `now` can use `route`;
    /// otherwise, for the first segment not free when the head reaches
    /// it, the launch time at which it would be: a transfer launched
    /// before then cannot use the route.
    #[inline]
    pub(crate) fn route_blocked_until(
        &self,
        route: &Route,
        now: Cycle,
        hop_latency: u64,
    ) -> Option<Cycle> {
        route.segments_in_order().find_map(|(k, seg)| {
            assert!(seg < self.busy_until.len(), "route exceeds ring size");
            let offset = k * hop_latency;
            let busy = self.busy_until[seg];
            (busy > now + offset).then(|| Cycle::new(busy.as_u64() - offset))
        })
    }

    /// Reserves `route` for a pipelined transfer of `duration` wire
    /// cycles starting at `now`: segment *i* is busy while the packet
    /// streams across it, offset by its hop position.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any staggered window is already taken.
    #[inline]
    pub fn reserve_route(&mut self, route: &Route, now: Cycle, duration: u64, hop_latency: u64) {
        for (k, seg) in route.segments_in_order() {
            let start = now + k * hop_latency;
            debug_assert!(
                self.busy_until[seg] <= start,
                "reserving an occupied segment {seg}"
            );
            self.busy_until[seg] = start + duration;
        }
    }

    /// Reserves every segment in `mask` until `until`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if a segment is already reserved past `until`
    /// — the arbiter must only reserve free paths.
    #[inline]
    pub fn reserve(&mut self, mask: u32, now: Cycle, until: Cycle) {
        let mut m = mask;
        while m != 0 {
            let k = m.trailing_zeros() as usize;
            debug_assert!(
                self.busy_until[k] <= now,
                "reserving an occupied segment {k}"
            );
            self.busy_until[k] = until;
            m &= m - 1;
        }
    }

    /// Earliest cycle at which every segment in `mask` will be free,
    /// assuming no further reservations.
    pub fn earliest_free(&self, mask: u32) -> Cycle {
        let mut t = Cycle::ZERO;
        let mut m = mask;
        while m != 0 {
            let k = m.trailing_zeros() as usize;
            t = t.max(self.busy_until[k]);
            m &= m - 1;
        }
        t
    }

    /// The cycle until which `segment` is reserved.
    #[inline]
    pub(crate) fn busy_until(&self, segment: usize) -> Cycle {
        self.busy_until[segment]
    }

    /// The earliest reservation expiry strictly after `now`, if any.
    pub fn next_release_after(&self, now: Cycle) -> Option<Cycle> {
        self.busy_until.iter().copied().filter(|&t| t > now).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_ring_is_free() {
        let r = Ring::new(Direction::Clockwise, 12);
        assert!(r.path_free(0xFFF, Cycle::ZERO));
        assert_eq!(r.next_release_after(Cycle::ZERO), None);
    }

    #[test]
    fn reserve_blocks_overlapping_paths_only() {
        let mut r = Ring::new(Direction::Clockwise, 12);
        r.reserve(0b0000_0000_0111, Cycle::ZERO, Cycle::new(8));
        assert!(!r.path_free(0b0000_0000_0100, Cycle::new(3)));
        assert!(r.path_free(0b1111_0000_0000, Cycle::new(3)));
        assert!(r.path_free(0b0000_0000_0111, Cycle::new(8)));
        assert_eq!(r.earliest_free(0b0000_0000_0001), Cycle::new(8));
        assert_eq!(r.next_release_after(Cycle::new(2)), Some(Cycle::new(8)));
        assert_eq!(r.next_release_after(Cycle::new(8)), None);
    }

    #[test]
    fn three_disjoint_transfers_fit_one_ring() {
        let mut r = Ring::new(Direction::Clockwise, 12);
        r.reserve(0b0000_0000_0011, Cycle::ZERO, Cycle::new(8));
        r.reserve(0b0000_0011_0000, Cycle::ZERO, Cycle::new(8));
        r.reserve(0b0011_0000_0000, Cycle::ZERO, Cycle::new(8));
        assert!(!r.path_free(0b0000_0000_0001, Cycle::ZERO));
        assert!(r.path_free(0b1100_0000_0000, Cycle::ZERO));
    }

    #[test]
    #[should_panic(expected = "exceeds ring size")]
    fn oversized_mask_panics() {
        let r = Ring::new(Direction::Clockwise, 4);
        let _ = r.path_free(1 << 10, Cycle::ZERO);
    }
}
