//! Physical ring layout of the EIB and shortest-path routing.

use std::fmt;

/// An element attached to the EIB: a bus "ramp".
///
/// `Spe(n)` is a **physical** SPE number. The logical→physical assignment
/// performed by the runtime (which the ISPASS paper could not control, and
/// which is why it reports statistics over ten random placements) lives in
/// `cellsim-core`; by the time a transfer reaches the bus it names physical
/// elements only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Element {
    /// The Power Processor Element.
    Ppe,
    /// A Synergistic Processor Element, by physical index (0–7 on the CBE).
    Spe(u8),
    /// The Memory Interface Controller (local XDR bank).
    Mic,
    /// I/O interface 0 — the BIF port that reaches the second chip's bank.
    Ioif0,
    /// I/O interface 1.
    Ioif1,
}

impl Element {
    /// Convenience constructor for a physical SPE.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 8`; the CBE has eight SPEs.
    #[inline]
    pub fn spe(n: u8) -> Element {
        assert!(n < 8, "the CBE has 8 SPEs; got physical index {n}");
        Element::Spe(n)
    }

    /// Whether this element is the memory controller (which the data
    /// arbiter treats with the highest priority).
    #[inline]
    pub fn is_mic(self) -> bool {
        self == Element::Mic
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Element::Ppe => write!(f, "PPE"),
            Element::Spe(n) => write!(f, "SPE{n}"),
            Element::Mic => write!(f, "MIC"),
            Element::Ioif0 => write!(f, "IOIF0"),
            Element::Ioif1 => write!(f, "IOIF1"),
        }
    }
}

/// Position of an element on the physical ring (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RampIndex(pub usize);

/// Travel direction around the ring.
///
/// Two of the four CBE data rings run each way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Increasing ramp index.
    Clockwise,
    /// Decreasing ramp index.
    CounterClockwise,
}

/// A routed path: direction, hop count, and the set of ring segments used.
///
/// Segment `k` is the link between ramp `k` and ramp `k + 1 (mod n)`;
/// the same physical wires exist once per ring, so a [`Route`] is applied
/// to whichever ring the arbiter selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Which way the data travels.
    pub direction: Direction,
    /// Number of ramp-to-ramp links crossed (≥1 for distinct endpoints).
    pub hops: usize,
    /// Bitmask of segment indices crossed.
    pub segments: u32,
    /// Ramp index the path starts from (for pipelined-occupancy offsets).
    pub src_ramp: usize,
    /// Number of ramps on the ring.
    pub ring_len: usize,
}

impl Route {
    /// Segments in traversal order, each with its hop offset from the
    /// source: the packet head reaches segment `i` after `i` hops, so a
    /// pipelined reservation staggers each segment's busy window by the
    /// per-hop latency.
    #[inline]
    pub fn segments_in_order(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        let n = self.ring_len;
        let a = self.src_ramp;
        let dir = self.direction;
        (0..self.hops).map(move |k| {
            let seg = match dir {
                Direction::Clockwise => (a + k) % n,
                Direction::CounterClockwise => (a + n - 1 - k) % n,
            };
            (k as u64, seg)
        })
    }
}

/// Slots of [`Topology`]'s ramp table: one per element that can exist,
/// the four fixed elements first, then `Spe(0..=255)`.
const ELEMENT_SLOTS: usize = 4 + 256;

/// A ramp-table slot holding no ramp (topologies have at most 32).
const NO_RAMP: u8 = u8::MAX;

/// The ramp-table slot of `element`.
#[inline]
fn element_slot(element: Element) -> usize {
    match element {
        Element::Ppe => 0,
        Element::Mic => 1,
        Element::Ioif0 => 2,
        Element::Ioif1 => 3,
        Element::Spe(n) => 4 + usize::from(n),
    }
}

/// The physical order of elements around the EIB.
///
/// [`Topology::cbe`] reproduces the layout described in Krolak's EIB
/// article (and cited by the paper as the source of the placement
/// bottleneck): `PPE, SPE1, SPE3, SPE5, SPE7, IOIF1, IOIF0, SPE6, SPE4,
/// SPE2, SPE0, MIC`. Custom orders (≤32 ramps) are supported for
/// experimentation and tests.
#[derive(Clone, PartialEq, Eq)]
pub struct Topology {
    order: Vec<Element>,
    /// Ramp of each element by [`element_slot`] ([`NO_RAMP`] if it is not
    /// attached): the bus resolves both endpoints of every packet it is
    /// handed, so the lookup is one load, not a scan of the ring.
    ramps: [u8; ELEMENT_SLOTS],
}

impl fmt::Debug for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Topology")
            .field("order", &self.order)
            .finish()
    }
}

impl Topology {
    /// The production Cell Broadband Engine ring order.
    pub fn cbe() -> Topology {
        use Element::*;
        Topology::new(vec![
            Ppe,
            Spe(1),
            Spe(3),
            Spe(5),
            Spe(7),
            Ioif1,
            Ioif0,
            Spe(6),
            Spe(4),
            Spe(2),
            Spe(0),
            Mic,
        ])
    }

    /// Builds a topology from an explicit ring order.
    ///
    /// # Panics
    ///
    /// Panics if the order is shorter than 2, longer than 32 (the segment
    /// bitmask width), or contains a duplicate element.
    pub fn new(order: Vec<Element>) -> Topology {
        assert!(
            (2..=32).contains(&order.len()),
            "topology must have 2..=32 ramps, got {}",
            order.len()
        );
        for (i, a) in order.iter().enumerate() {
            for b in &order[i + 1..] {
                assert!(a != b, "duplicate element {a} in topology");
            }
        }
        let mut ramps = [NO_RAMP; ELEMENT_SLOTS];
        for (ramp, &element) in order.iter().enumerate() {
            ramps[element_slot(element)] = ramp as u8;
        }
        Topology { order, ramps }
    }

    /// Number of ramps (equals the number of ring segments).
    #[inline]
    pub fn ramp_count(&self) -> usize {
        self.order.len()
    }

    /// Elements in ring order.
    pub fn elements(&self) -> &[Element] {
        &self.order
    }

    /// Ring position of `element`, or `None` if it is not attached.
    #[inline]
    pub fn ramp_of(&self, element: Element) -> Option<RampIndex> {
        match self.ramps[element_slot(element)] {
            NO_RAMP => None,
            ramp => Some(RampIndex(usize::from(ramp))),
        }
    }

    /// Shortest-path hop distance between two attached elements.
    ///
    /// # Panics
    ///
    /// Panics if either element is not attached.
    pub fn distance(&self, a: Element, b: Element) -> usize {
        let ra = self.ramp_of(a).expect("element not on bus").0;
        let rb = self.ramp_of(b).expect("element not on bus").0;
        let n = self.ramp_count();
        let cw = (rb + n - ra) % n;
        cw.min(n - cw)
    }

    /// All admissible routes from `src` to `dst`, shortest first.
    ///
    /// The EIB arbiter never lets a transfer travel more than halfway
    /// around the ring, so at most two routes exist and the second appears
    /// only on an exact-halfway tie.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or either element is not attached.
    pub fn routes(&self, src: Element, dst: Element) -> Vec<Route> {
        assert!(src != dst, "route requested from {src} to itself");
        let a = self.ramp_of(src).expect("src not on bus").0;
        let b = self.ramp_of(dst).expect("dst not on bus").0;
        let n = self.ramp_count();
        let cw_hops = (b + n - a) % n;
        let ccw_hops = n - cw_hops;
        let half = n / 2;
        let mut out = Vec::with_capacity(2);
        let mut push = |direction, hops| {
            let segments = match direction {
                // Clockwise from a crosses segments a, a+1, ..., b-1.
                Direction::Clockwise => mask_range(a, hops, n),
                // Counter-clockwise from a crosses segments a-1, ..., b,
                // i.e. the `hops` segments starting at b going clockwise.
                Direction::CounterClockwise => mask_range(b, hops, n),
            };
            out.push(Route {
                direction,
                hops,
                segments,
                src_ramp: a,
                ring_len: n,
            });
        };
        if cw_hops <= ccw_hops {
            push(Direction::Clockwise, cw_hops);
            // The counter-clockwise way is only admissible on an exact
            // halfway tie (cw + ccw = n and both must be <= n/2).
            if ccw_hops == cw_hops && ccw_hops <= half {
                push(Direction::CounterClockwise, ccw_hops);
            }
        } else {
            push(Direction::CounterClockwise, ccw_hops);
            if cw_hops <= half {
                push(Direction::Clockwise, cw_hops);
            }
        }
        out
    }
}

/// Bitmask of `len` consecutive segment indices starting at `start`,
/// wrapping modulo `n`.
fn mask_range(start: usize, len: usize, n: usize) -> u32 {
    let mut mask = 0u32;
    for k in 0..len {
        mask |= 1 << ((start + k) % n);
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cbe_topology_has_twelve_unique_ramps() {
        let t = Topology::cbe();
        assert_eq!(t.ramp_count(), 12);
        assert_eq!(t.ramp_of(Element::Ppe), Some(RampIndex(0)));
        assert_eq!(t.ramp_of(Element::Mic), Some(RampIndex(11)));
        assert_eq!(t.ramp_of(Element::spe(0)), Some(RampIndex(10)));
    }

    #[test]
    fn mic_is_adjacent_to_ppe_and_spe0() {
        let t = Topology::cbe();
        assert_eq!(t.distance(Element::Mic, Element::Ppe), 1);
        assert_eq!(t.distance(Element::Mic, Element::spe(0)), 1);
    }

    #[test]
    fn distance_is_symmetric_and_at_most_half() {
        let t = Topology::cbe();
        let all = t.elements().to_vec();
        for &a in &all {
            for &b in &all {
                if a == b {
                    continue;
                }
                assert_eq!(t.distance(a, b), t.distance(b, a));
                assert!(t.distance(a, b) <= 6);
                assert!(t.distance(a, b) >= 1);
            }
        }
    }

    #[test]
    fn shortest_route_comes_first() {
        let t = Topology::cbe();
        // PPE (ramp 0) to SPE1 (ramp 1): one clockwise hop over segment 0.
        let routes = t.routes(Element::Ppe, Element::spe(1));
        assert_eq!(routes[0].direction, Direction::Clockwise);
        assert_eq!(routes[0].hops, 1);
        assert_eq!(routes[0].segments, 0b1);
        assert_eq!(routes.len(), 1);
        // PPE to MIC (ramp 11): one counter-clockwise hop over segment 11.
        let routes = t.routes(Element::Ppe, Element::Mic);
        assert_eq!(routes[0].direction, Direction::CounterClockwise);
        assert_eq!(routes[0].hops, 1);
        assert_eq!(routes[0].segments, 1 << 11);
    }

    #[test]
    fn halfway_tie_offers_both_directions() {
        let t = Topology::cbe();
        // PPE (ramp 0) to IOIF0 (ramp 6): 6 hops each way.
        let routes = t.routes(Element::Ppe, Element::Ioif0);
        assert_eq!(routes.len(), 2);
        assert_eq!(routes[0].hops, 6);
        assert_eq!(routes[1].hops, 6);
        assert_ne!(routes[0].direction, routes[1].direction);
    }

    #[test]
    fn route_segment_count_matches_hops() {
        let t = Topology::cbe();
        for &a in t.elements() {
            for &b in t.elements() {
                if a == b {
                    continue;
                }
                for r in t.routes(a, b) {
                    assert_eq!(r.segments.count_ones() as usize, r.hops);
                    assert!(r.hops <= 6, "no route may exceed half the ring");
                }
            }
        }
    }

    #[test]
    fn cw_and_ccw_segments_partition_the_ring() {
        let t = Topology::cbe();
        // For any pair, CW segments and CCW segments are disjoint and
        // together cover all 12 segments.
        let a = Element::spe(0);
        let b = Element::spe(7);
        let routes = t.routes(a, b);
        let n = t.ramp_count();
        let cw_hops = routes
            .iter()
            .find(|r| r.direction == Direction::Clockwise)
            .map(|r| r.hops);
        if let Some(cw) = cw_hops {
            assert_eq!(cw + (n - cw), n);
        }
    }

    #[test]
    #[should_panic(expected = "8 SPEs")]
    fn spe_constructor_validates() {
        let _ = Element::spe(8);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_elements_rejected() {
        let _ = Topology::new(vec![Element::Ppe, Element::Ppe]);
    }

    #[test]
    #[should_panic(expected = "to itself")]
    fn self_route_rejected() {
        let t = Topology::cbe();
        let _ = t.routes(Element::Ppe, Element::Ppe);
    }

    #[test]
    fn ramp_of_agrees_with_element_order() {
        let check = |t: &Topology| {
            for (ramp, &element) in t.elements().iter().enumerate() {
                assert_eq!(t.ramp_of(element), Some(RampIndex(ramp)), "{element}");
            }
        };
        check(&Topology::cbe());
        // A custom order that leaves out the PPE, the IOIFs and most SPEs,
        // and names an SPE index past the CBE's eight.
        let custom = Topology::new(vec![
            Element::Mic,
            Element::spe(6),
            Element::Spe(200),
            Element::spe(0),
        ]);
        check(&custom);
        for absent in [
            Element::Ppe,
            Element::Ioif0,
            Element::Ioif1,
            Element::spe(1),
            Element::spe(7),
            Element::Spe(8),
            Element::Spe(255),
        ] {
            assert_eq!(custom.ramp_of(absent), None, "{absent}");
        }
        assert_eq!(custom.distance(Element::Mic, Element::spe(0)), 1);
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(Element::spe(3).to_string(), "SPE3");
        assert_eq!(Element::Mic.to_string(), "MIC");
    }
}
