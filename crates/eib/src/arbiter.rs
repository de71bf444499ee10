//! The central data arbiter: ring selection, port reservation, fairness.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Bound::{Excluded, Unbounded};

use cellsim_faults::EibFaults;
use cellsim_kernel::Cycle;

use crate::ring::{Ring, RingId};
use crate::topology::{Direction, Element, Route, Topology};

/// How a granted transfer occupies its path segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RingOccupancy {
    /// The arbiter holds every segment of the path from grant until
    /// delivery. This matches the behaviour of the central data arbiter
    /// (a segment granted to a transfer is not re-granted mid-flight) and
    /// calibrates the eight-SPE contention the paper measures.
    #[default]
    CircuitHold,
    /// Idealized wormhole pipelining: each segment is busy only while the
    /// packet streams across it, staggered by hop position. An ablation
    /// mode: it under-estimates conflicts at high load.
    Pipelined,
}

/// The on-chip data source feeding a ramp's outbound port.
///
/// A ramp's 16-byte send bus is multiplexed between internal sources: an
/// SPE ramp sends both its own MFC's put data and Local-Store read
/// responses for remote gets; the MIC sends memory read data. Switching
/// sources costs dead cycles ([`EibConfig::source_switch_penalty`]) —
/// the structural reason the paper's all-active "cycle" experiment falls
/// well below the half-passive "couples" experiment at the same port
/// demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowClass {
    /// Outbound MFC data (the data phase of a put).
    MfcOut,
    /// A Local-Store read serving some other element's get.
    LsRead,
    /// A memory read leaving the MIC or IOIF.
    MemRead,
}

/// Structural parameters of the bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EibConfig {
    /// Data rings per direction (2 on the CBE, 4 rings total).
    pub rings_per_direction: usize,
    /// Bytes each ring moves per bus cycle (16 on the CBE).
    pub bytes_per_cycle: u32,
    /// Extra delivery latency per hop, in bus cycles.
    pub hop_latency: u64,
    /// Segment reservation policy.
    pub occupancy: RingOccupancy,
    /// Dead cycles when a ramp's outbound port switches between
    /// different [`FlowClass`] sources.
    pub source_switch_penalty: u64,
}

impl Default for EibConfig {
    fn default() -> Self {
        EibConfig {
            rings_per_direction: 2,
            bytes_per_cycle: 16,
            hop_latency: 1,
            occupancy: RingOccupancy::CircuitHold,
            source_switch_penalty: 0,
        }
    }
}

/// A request to move one packet of payload between two bus elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferRequest {
    /// Sending ramp.
    pub src: Element,
    /// Receiving ramp.
    pub dst: Element,
    /// Payload size in bytes (≤128 on the CBE; validated by the MFC, not
    /// here — the bus moves whatever it is granted).
    pub bytes: u32,
    /// Which internal source feeds the send port.
    pub class: FlowClass,
}

/// A granted transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// Which ring carries the packet.
    pub ring: RingId,
    /// Travel direction.
    pub direction: Direction,
    /// Hops crossed.
    pub hops: usize,
    /// Cycle the wire time began.
    pub start: Cycle,
    /// Cycle the ring segments and ports become free again.
    pub wire_done: Cycle,
    /// Cycle the payload is available at the destination
    /// (`wire_done` + hop latency).
    pub delivered_at: Cycle,
    /// Cycles the request sat in the arbiter's queue before this grant
    /// (submit → grant), for per-command latency attribution.
    pub waited: u64,
}

/// Counters the experiments use to explain their results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EibStats {
    /// Transfers granted.
    pub grants: u64,
    /// Total bytes granted.
    pub bytes: u64,
    /// Cycles requests spent queued waiting for a ring.
    pub wait_cycles: u64,
    /// Σ (segments × cycles) reserved — a ring-occupancy measure.
    pub segment_cycles: u64,
}

/// Per-ring counters (rings are indexed as in [`RingId`]: clockwise rings
/// first, then counter-clockwise).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Transfers this ring carried.
    pub grants: u64,
    /// Payload bytes this ring carried.
    pub bytes: u64,
    /// Cycles this ring spent moving data (wire time, including any
    /// source-switch dead cycles ahead of the payload).
    pub busy_cycles: u64,
}

/// One queued transfer, with everything arbitration needs resolved once
/// at submit.
#[derive(Debug, Clone, Copy)]
struct Pending {
    /// Submit order across all four grant queues: a pass merges the two
    /// direction heads of its class by this number, oldest first.
    seq: u64,
    token: u64,
    enqueued: Cycle,
    bytes: u32,
    /// Healthy wire cycles for `bytes`.
    wire: u32,
    class: FlowClass,
    src_ramp: usize,
    dst_ramp: usize,
}

/// Grant queue of a (MIC class, `routes[0]` direction) pair: the
/// memory-priority pair first, clockwise before counter-clockwise.
#[inline]
fn lane(mic: bool, dir: Direction) -> usize {
    let class = if mic { 0 } else { 2 };
    match dir {
        Direction::Clockwise => class,
        Direction::CounterClockwise => class + 1,
    }
}

/// Precomputed admissible routes for one (src, dst) ramp pair: at most
/// two exist (the second only on an exact halfway tie), stored inline so
/// the hot arbitration path never allocates.
#[derive(Debug, Clone, Copy)]
struct RouteSet {
    routes: [Route; 2],
    len: u8,
}

impl RouteSet {
    #[inline]
    fn as_slice(&self) -> &[Route] {
        &self.routes[..usize::from(self.len)]
    }
}

/// Cycles the release calendar's ring covers, from the latest
/// arbitration time: expiries at least this far after their grant wait
/// in an ordered overflow map instead.
///
/// A healthy reservation lasts at most the packet's wire time plus the
/// hop latency across its route (plus any source-switch penalty). On the
/// CBE's defaults that is 128 B / 16 B per cycle + 6 hops × 1 cycle = 14
/// cycles, so every healthy expiry lands in the ring. Derate windows
/// stretch wire time without bound (1 % capacity makes a packet hold its
/// path for 800 cycles), and so do payloads far above a bus packet; those
/// take the overflow map.
pub const RELEASE_RING_SPAN: u64 = u64::BITS as u64;

/// The future expiries of every segment and port reservation, as a
/// counted multiset ordered by cycle.
///
/// `try_grant` adds each expiry it reserves and removes any still-future
/// expiry it overwrites (a receive port or a pipelined segment can be
/// re-reserved before it frees). Expiries at or before an arbitration
/// time can never be asked for again, so they are dropped.
///
/// Expiries in `[base, base + RELEASE_RING_SPAN)` live in a ring of
/// one-cycle counters: slot `t % span` counts the expiries at cycle `t`,
/// and one occupancy word marks the non-empty slots, so adding and
/// removing are O(1) and the next expiry is a rotate and a trailing-zero
/// count. Later expiries wait in `overflow` and move into the ring as
/// the window reaches them, as in the event queue's calendar ring.
#[derive(Debug)]
struct ReleaseCalendar {
    /// Reservations expiring at the ring time of each slot; a slot's
    /// count is meaningful only while its `occupied` bit is set.
    counts: [u32; RELEASE_RING_SPAN as usize],
    /// Bit `t % span` set ⇔ some reservation expires at ring time `t`.
    occupied: u64,
    /// Expiries at `base + RELEASE_RING_SPAN` or later, with counts.
    overflow: BTreeMap<Cycle, u32>,
    /// The latest arbitration time expiries were dropped through; every
    /// held expiry is at or after it.
    base: Cycle,
}

impl ReleaseCalendar {
    fn new() -> ReleaseCalendar {
        ReleaseCalendar {
            counts: [0; RELEASE_RING_SPAN as usize],
            occupied: 0,
            overflow: BTreeMap::new(),
            base: Cycle::ZERO,
        }
    }

    /// The ring slot of `at`, if `at` lies inside the ring's window.
    #[inline]
    fn slot(&self, at: Cycle) -> Option<usize> {
        debug_assert!(at >= self.base, "expiry {at:?} before the calendar's base");
        let ahead = at.as_u64() - self.base.as_u64();
        (ahead < RELEASE_RING_SPAN).then_some((at.as_u64() % RELEASE_RING_SPAN) as usize)
    }

    #[inline]
    fn add(&mut self, at: Cycle, count: u32) {
        match self.slot(at) {
            Some(slot) => {
                let bit = 1 << slot;
                if self.occupied & bit == 0 {
                    self.occupied |= bit;
                    self.counts[slot] = count;
                } else {
                    self.counts[slot] += count;
                }
            }
            None => *self.overflow.entry(at).or_insert(0) += count,
        }
    }

    #[inline]
    fn remove(&mut self, at: Cycle) {
        const MISSING: &str = "the calendar holds every future reservation";
        match self.slot(at) {
            Some(slot) => {
                let bit = 1 << slot;
                assert!(self.occupied & bit != 0, "{MISSING}");
                self.counts[slot] -= 1;
                if self.counts[slot] == 0 {
                    self.occupied &= !bit;
                }
            }
            None => {
                let count = self.overflow.get_mut(&at).expect(MISSING);
                *count -= 1;
                if *count == 0 {
                    self.overflow.remove(&at);
                }
            }
        }
    }

    /// Drops every expiry at or before `now` and moves the window to
    /// start at `now`.
    #[inline]
    fn drop_through(&mut self, now: Cycle) {
        if now <= self.base {
            return;
        }
        // The slots of cycles `base..=now`, a run of up to a whole ring.
        let expired = now.as_u64() - self.base.as_u64() + 1;
        if expired >= RELEASE_RING_SPAN {
            self.occupied = 0;
        } else {
            let from = (self.base.as_u64() % RELEASE_RING_SPAN) as u32;
            self.occupied &= !((1u64 << expired) - 1).rotate_left(from);
        }
        self.base = now;
        let horizon = now + RELEASE_RING_SPAN;
        while let Some(entry) = self.overflow.first_entry() {
            let at = *entry.key();
            if at >= horizon {
                break;
            }
            let count = entry.remove();
            if at > now {
                self.add(at, count);
            }
        }
    }

    #[inline]
    fn next_after(&self, now: Cycle) -> Option<Cycle> {
        let base = self.base.as_u64();
        let first = now.as_u64().saturating_add(1).max(base);
        if first - base < RELEASE_RING_SPAN {
            // Bit k of the rotated word is cycle `first + k` while that
            // lies in the window; past it, the bits wrap onto cycles
            // before `first`.
            let rotated = self
                .occupied
                .rotate_right((first % RELEASE_RING_SPAN) as u32);
            if rotated != 0 {
                let at = first + u64::from(rotated.trailing_zeros());
                if at < base + RELEASE_RING_SPAN {
                    return Some(Cycle::new(at));
                }
            }
        }
        self.overflow
            .range((Excluded(now), Unbounded))
            .next()
            .map(|(&at, _)| at)
    }
}

/// The Element Interconnect Bus: four rings plus the central data arbiter.
///
/// Usage follows a submit/arbitrate/kick protocol designed for an outer
/// discrete-event loop:
///
/// 1. [`Eib::submit`] queues a transfer request.
/// 2. [`Eib::arbitrate`] grants every currently satisfiable request, in
///    priority order (memory traffic first, then oldest first), and
///    returns the grants tagged with the caller's tokens.
/// 3. If requests remain queued, [`Eib::next_release_after`] says when a
///    reservation next expires so the caller can schedule a re-arbitration
///    event.
///
/// Like any discrete-event model the bus only moves forward: the `now`
/// passed to these calls must never decrease.
///
/// See the [crate-level example](crate).
#[derive(Debug)]
pub struct Eib {
    topology: Topology,
    /// Dense `(src_ramp, dst_ramp)` route cache; `routes()` allocates,
    /// and arbitration consults the same handful of pairs millions of
    /// times per run.
    route_table: Vec<RouteSet>,
    cfg: EibConfig,
    rings: Vec<Ring>,
    send_free: Vec<Cycle>,
    recv_free: Vec<Cycle>,
    last_send_class: Vec<Option<FlowClass>>,
    /// Grant queues indexed by [`lane`], each in submit order.
    queues: [VecDeque<Pending>; 4],
    next_seq: u64,
    calendar: ReleaseCalendar,
    /// Per lane, a time before which its head is certain to be refused on
    /// a healthy bus. A healthy pass tries a head only at or after it, so
    /// the next head never inherits a bound that lies in the future.
    retry: [Cycle; 4],
    stats: EibStats,
    ring_stats: Vec<RingStats>,
    faults: EibFaults,
}

impl Eib {
    /// Creates an idle bus over `topology`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero rings or zero bytes per cycle.
    pub fn new(topology: Topology, cfg: EibConfig) -> Eib {
        assert!(
            cfg.rings_per_direction > 0,
            "need at least one ring per direction"
        );
        assert!(cfg.bytes_per_cycle > 0, "ring width must be non-zero");
        let n = topology.ramp_count();
        let mut rings = Vec::with_capacity(cfg.rings_per_direction * 2);
        for _ in 0..cfg.rings_per_direction {
            rings.push(Ring::new(Direction::Clockwise, n));
        }
        for _ in 0..cfg.rings_per_direction {
            rings.push(Ring::new(Direction::CounterClockwise, n));
        }
        let ring_count = rings.len();
        let dummy = Route {
            direction: Direction::Clockwise,
            hops: 0,
            segments: 0,
            src_ramp: 0,
            ring_len: n,
        };
        let mut route_table = vec![
            RouteSet {
                routes: [dummy; 2],
                len: 0,
            };
            n * n
        ];
        for (a, &src) in topology.elements().iter().enumerate() {
            for (b, &dst) in topology.elements().iter().enumerate() {
                if a == b {
                    continue;
                }
                let routes = topology.routes(src, dst);
                let set = &mut route_table[a * n + b];
                set.len = routes.len() as u8;
                set.routes[..routes.len()].copy_from_slice(&routes);
            }
        }
        Eib {
            topology,
            retry: [Cycle::ZERO; 4],
            route_table,
            cfg,
            rings,
            send_free: vec![Cycle::ZERO; n],
            recv_free: vec![Cycle::ZERO; n],
            last_send_class: vec![None; n],
            queues: Default::default(),
            next_seq: 0,
            calendar: ReleaseCalendar::new(),
            stats: EibStats::default(),
            ring_stats: vec![RingStats::default(); ring_count],
            faults: EibFaults::default(),
        }
    }

    /// Installs fault windows (ring outages, bus derating). Faults gate
    /// only *new* grants: transfers already on a ring when a window
    /// opens drain at the rate they were granted with. Outages naming
    /// rings this bus does not have are inert.
    pub fn set_faults(&mut self, faults: EibFaults) {
        self.faults = faults;
        self.retry = [Cycle::ZERO; 4];
    }

    /// The bus topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The structural configuration.
    pub fn config(&self) -> &EibConfig {
        &self.cfg
    }

    /// Occupancy and fairness counters.
    pub fn stats(&self) -> &EibStats {
        &self.stats
    }

    /// Per-ring counters, indexed by [`RingId`] (clockwise rings first).
    pub fn ring_stats(&self) -> &[RingStats] {
        &self.ring_stats
    }

    /// Queues a transfer request. `token` is an opaque caller identifier
    /// returned with the eventual grant.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or either endpoint is not on the bus.
    #[inline]
    pub fn submit(&mut self, now: Cycle, token: u64, req: TransferRequest) {
        // Resolve endpoints eagerly so errors point at the submitter —
        // and so arbitration never repeats the lookups.
        let src = self.topology.ramp_of(req.src).expect("src not on bus").0;
        let dst = self.topology.ramp_of(req.dst).expect("dst not on bus").0;
        assert!(src != dst, "route requested from {} to itself", req.src);
        let n = self.topology.ramp_count();
        let dir = self.route_table[src * n + dst].routes[0].direction;
        let mic = req.src.is_mic() || req.dst.is_mic();
        self.queues[lane(mic, dir)].push_back(Pending {
            seq: self.next_seq,
            token,
            enqueued: now,
            bytes: req.bytes,
            wire: req.bytes.div_ceil(self.cfg.bytes_per_cycle),
            class: req.class,
            src_ramp: src,
            dst_ramp: dst,
        });
        self.next_seq += 1;
    }

    /// Whether any requests are waiting for a ring.
    #[inline]
    pub fn has_pending(&self) -> bool {
        self.queues.iter().any(|q| !q.is_empty())
    }

    /// Grants every satisfiable pending request at `now`.
    ///
    /// Requests touching the MIC are considered first (the hardware gives
    /// memory traffic the highest priority). Within a class the arbiter's
    /// grant queue is FIFO **per ring direction**: once a request bound
    /// for clockwise rings blocks, younger clockwise requests wait behind
    /// it (head-of-line blocking). This is what makes sixteen concurrent
    /// streams (the paper's 8-SPE cycle) markedly less efficient than
    /// eight streams (the couples experiment) at the same aggregate
    /// demand.
    ///
    /// A request's direction is that of its shortest route; a halfway-tie
    /// request queues under its first route's direction even when it is
    /// granted on the other direction's rings.
    pub fn arbitrate(&mut self, now: Cycle) -> Vec<(u64, Grant)> {
        let mut granted = Vec::new();
        self.arbitrate_into(now, &mut granted);
        granted
    }

    /// [`arbitrate`](Eib::arbitrate), appending the grants to `granted`
    /// so a caller can reuse one buffer across passes.
    ///
    /// A pass skips a head that an earlier pass refused while it is
    /// certain to be refused again. Each refusal records the earliest
    /// expiry among the reservations that blocked the head: its send
    /// port's, or per route the receive port's (moved earlier by the
    /// route's hops, since the port is checked at the head's arrival) or
    /// the first busy segment's on each ring. A grant only takes resources
    /// and a reservation only lengthens, so on a healthy bus the head is
    /// refused at every time before that. A refusal changes no state, so
    /// skipping it leaves every other try, and every grant, exactly as a
    /// full pass would.
    ///
    /// So a healthy pass in which every queued head is still certain to be
    /// refused grants nothing and returns at once, without even dropping
    /// expired reservations from the calendar: the release queries skip
    /// those, and the next pass that tries a head drops them.
    #[inline]
    pub fn arbitrate_into(&mut self, now: Cycle, granted: &mut Vec<(u64, Grant)>) {
        // A fault window can open or close without any reservation
        // expiring, so a faulted bus tries every head.
        let healthy = self.faults.is_empty();
        let quiet =
            |lane: usize| self.queues[lane].is_empty() || (healthy && self.retry[lane] > now);
        if (0..self.queues.len()).all(quiet) {
            return;
        }
        self.calendar.drop_through(now);
        for pair in [
            lane(true, Direction::Clockwise),
            lane(false, Direction::Clockwise),
        ] {
            // The pass tries the older of the two direction heads until
            // each direction has refused once: every request in the class
            // is tried oldest first, and a refusal blocks its direction.
            let mut open = [0, 1].map(|d| !healthy || self.retry[pair + d] <= now);
            loop {
                let head = |d: usize| {
                    let queue = &self.queues[pair + d];
                    queue.front().filter(|_| open[d]).map(|p| p.seq)
                };
                let d = match (head(0), head(1)) {
                    (Some(cw), Some(ccw)) => usize::from(ccw < cw),
                    (Some(_), None) => 0,
                    (None, Some(_)) => 1,
                    (None, None) => break,
                };
                let p = *self.queues[pair + d].front().expect("open head");
                match self.try_grant(now, &p) {
                    Ok(mut grant) => {
                        self.queues[pair + d].pop_front();
                        grant.waited = now.saturating_since(p.enqueued);
                        self.stats.wait_cycles += grant.waited;
                        granted.push((p.token, grant));
                    }
                    Err(retry) => {
                        open[d] = false;
                        self.retry[pair + d] = retry;
                    }
                }
            }
        }
    }

    /// Attempts to grant one request immediately; reserves resources on
    /// success. A refusal returns a time before which, on a healthy bus,
    /// the request is certain to be refused again: the earliest expiry
    /// among the reservations that blocked it.
    #[inline]
    fn try_grant(&mut self, now: Cycle, p: &Pending) -> Result<Grant, Cycle> {
        let (src, dst) = (p.src_ramp, p.dst_ramp);
        if self.send_free[src] > now {
            return Err(self.send_free[src]);
        }
        // Switching the outbound multiplexer between internal sources
        // costs dead cycles on the send port ahead of the data.
        let switch = match self.last_send_class[src] {
            Some(prev) if prev != p.class => self.cfg.source_switch_penalty,
            _ => 0,
        };
        let faulted = !self.faults.is_empty();
        let mut wire = u64::from(p.wire);
        if faulted {
            // Inside a derating window every ring moves data at reduced
            // capacity, so the same payload holds the wire longer.
            let capacity = self.faults.capacity_percent(now.as_u64());
            if capacity < 100 {
                wire = (wire * 100).div_ceil(u64::from(capacity));
            }
        }
        let duration = wire + switch;
        let hop_latency = self.cfg.hop_latency;
        let per_direction = self.cfg.rings_per_direction;
        let set = &self.route_table[src * self.send_free.len() + dst];
        let mut retry = Cycle::new(u64::MAX);
        for route in set.as_slice() {
            // The head arrives at the destination after the hop latency;
            // the receive port must be free from then on.
            let reach = route.hops as u64 * hop_latency;
            let arrival = now + reach;
            if self.recv_free[dst] > arrival {
                retry = retry.min(Cycle::new(self.recv_free[dst].as_u64() - reach));
                continue;
            }
            let first = match route.direction {
                Direction::Clockwise => 0,
                Direction::CounterClockwise => per_direction,
            };
            for idx in first..first + per_direction {
                if faulted && self.faults.ring_out(idx, now.as_u64()) {
                    continue;
                }
                let wire_done = now + duration;
                let delivered_at = arrival + duration;
                let ring = &mut self.rings[idx];
                match self.cfg.occupancy {
                    RingOccupancy::CircuitHold => {
                        if let Some(busy) = ring.path_blocked_until(route.segments, now) {
                            retry = retry.min(busy);
                            continue;
                        }
                        // Every segment was free at `now`: no future
                        // expiry is overwritten.
                        ring.reserve(route.segments, now, delivered_at);
                        self.calendar.add(delivered_at, route.segments.count_ones());
                    }
                    RingOccupancy::Pipelined => {
                        if let Some(busy) = ring.route_blocked_until(route, now, hop_latency) {
                            retry = retry.min(busy);
                            continue;
                        }
                        for (_, seg) in route.segments_in_order() {
                            let old = ring.busy_until(seg);
                            if old > now {
                                self.calendar.remove(old);
                            }
                        }
                        ring.reserve_route(route, now, duration, hop_latency);
                        for (k, _) in route.segments_in_order() {
                            self.calendar.add(now + k * hop_latency + duration, 1);
                        }
                    }
                }
                // The send port was free at `now`; the receive port may
                // still hold a future expiry that this grant supersedes.
                self.send_free[src] = wire_done;
                self.calendar.add(wire_done, 1);
                let old_recv = self.recv_free[dst];
                if old_recv > now {
                    self.calendar.remove(old_recv);
                }
                self.recv_free[dst] = delivered_at;
                self.calendar.add(delivered_at, 1);
                self.last_send_class[src] = Some(p.class);
                self.stats.grants += 1;
                self.stats.bytes += u64::from(p.bytes);
                self.stats.segment_cycles += route.hops as u64 * duration;
                let ring_stats = &mut self.ring_stats[idx];
                ring_stats.grants += 1;
                ring_stats.bytes += u64::from(p.bytes);
                ring_stats.busy_cycles += duration;
                return Ok(Grant {
                    ring: RingId(idx),
                    direction: route.direction,
                    hops: route.hops,
                    start: now,
                    wire_done,
                    delivered_at,
                    waited: 0, // stamped by `arbitrate` from the queue entry
                });
            }
        }
        Err(retry)
    }

    /// The earliest reservation expiry strictly after `now`, across all
    /// rings and ports — the time at which a blocked request could next be
    /// granted. `None` when the bus is idle after `now`.
    #[inline]
    pub fn next_release_after(&self, now: Cycle) -> Option<Cycle> {
        let reserved = self.calendar.next_after(now);
        if self.faults.is_empty() {
            return reserved;
        }
        // Fault windows open and close independently of reservations: a
        // request blocked only by a ring outage must still get a wake-up
        // at the window boundary.
        let fault_next = self
            .faults
            .next_boundary_after(now.as_u64())
            .map(Cycle::new);
        reserved.into_iter().chain(fault_next).min()
    }

    /// When a caller holding queued requests must arbitrate next: `None`
    /// if no request is queued, else [`next_release_after`](Eib::next_release_after).
    ///
    /// # Panics
    ///
    /// Panics if requests are queued but no reservation or fault window
    /// will ever release them.
    #[inline]
    pub fn next_wakeup(&self, now: Cycle) -> Option<Cycle> {
        if !self.has_pending() {
            return None;
        }
        let at = self
            .next_release_after(now)
            .expect("pending transfers imply a future release");
        Some(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus() -> Eib {
        Eib::new(Topology::cbe(), EibConfig::default())
    }

    fn req(src: Element, dst: Element) -> TransferRequest {
        TransferRequest {
            src,
            dst,
            bytes: 128,
            class: FlowClass::MfcOut,
        }
    }

    #[test]
    fn single_transfer_gets_the_wire_immediately() {
        let mut eib = bus();
        eib.submit(Cycle::ZERO, 7, req(Element::spe(0), Element::Mic));
        let grants = eib.arbitrate(Cycle::ZERO);
        assert_eq!(grants.len(), 1);
        let (token, g) = grants[0];
        assert_eq!(token, 7);
        assert_eq!(g.hops, 1); // SPE0 is adjacent to the MIC.
        assert_eq!(g.wire_done, Cycle::new(8)); // 128 B / 16 B-per-cycle.
        assert_eq!(g.delivered_at, Cycle::new(9)); // + 1 hop latency.
    }

    #[test]
    fn four_rings_carry_four_overlapping_paths_per_direction_pairwise() {
        let mut eib = bus();
        // Two transfers over the same clockwise segments need two rings.
        eib.submit(Cycle::ZERO, 0, req(Element::Ppe, Element::spe(5)));
        eib.submit(Cycle::ZERO, 1, req(Element::Ppe, Element::spe(5)));
        // Both cannot share the PPE send port -> only one grant.
        let g = eib.arbitrate(Cycle::ZERO);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn overlapping_same_direction_transfers_use_both_rings_then_block() {
        let mut eib = bus();
        // Three transfers with distinct endpoints but overlapping CW paths:
        // PPE(0)->SPE7(4), SPE1(1)->SPE5(3), SPE3(2)->IOIF1(5): all cross
        // segment 2..3 region.
        eib.submit(Cycle::ZERO, 0, req(Element::Ppe, Element::spe(7)));
        eib.submit(Cycle::ZERO, 1, req(Element::spe(1), Element::spe(5)));
        eib.submit(Cycle::ZERO, 2, req(Element::spe(3), Element::Ioif1));
        let grants = eib.arbitrate(Cycle::ZERO);
        // All three overlap on segment 2 (ramp2->ramp3); only 2 CW rings.
        assert_eq!(grants.len(), 2);
        assert!(eib.has_pending());
        // Retry at each release until a ring's segments free up. Under
        // circuit-hold the SPE1->SPE5 transfer (2 hops) releases at
        // delivery, cycle 10.
        let mut now = Cycle::ZERO;
        loop {
            now = eib.next_release_after(now).expect("progress");
            let grants = eib.arbitrate(now);
            if !grants.is_empty() {
                assert_eq!(grants[0].0, 2);
                break;
            }
        }
        assert_eq!(now, Cycle::new(10));
        assert!(!eib.has_pending());
    }

    #[test]
    fn disjoint_paths_share_one_ring() {
        let mut eib = Eib::new(
            Topology::cbe(),
            EibConfig {
                rings_per_direction: 1,
                ..EibConfig::default()
            },
        );
        // SPE1(ramp1)->SPE3(ramp2) and SPE5(ramp3)->SPE7(ramp4): disjoint
        // single-hop CW paths fit on the single CW ring together.
        eib.submit(Cycle::ZERO, 0, req(Element::spe(1), Element::spe(3)));
        eib.submit(Cycle::ZERO, 1, req(Element::spe(5), Element::spe(7)));
        assert_eq!(eib.arbitrate(Cycle::ZERO).len(), 2);
    }

    #[test]
    fn mic_traffic_wins_arbitration() {
        let mut eib = bus();
        // Both want the same CW path region; submit the non-MIC one first.
        eib.submit(Cycle::ZERO, 0, req(Element::spe(2), Element::spe(0)));
        eib.submit(Cycle::ZERO, 1, req(Element::spe(2), Element::Mic));
        // SPE2 send port is shared: only one can win, and it must be the
        // MIC-bound request despite being younger.
        let grants = eib.arbitrate(Cycle::ZERO);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].0, 1);
    }

    #[test]
    fn wait_cycles_are_accounted() {
        let mut eib = bus();
        eib.submit(Cycle::ZERO, 0, req(Element::Ppe, Element::spe(1)));
        eib.submit(Cycle::ZERO, 1, req(Element::Ppe, Element::spe(1)));
        eib.arbitrate(Cycle::ZERO);
        assert_eq!(eib.stats().wait_cycles, 0);
        eib.arbitrate(Cycle::new(8));
        assert_eq!(eib.stats().wait_cycles, 8);
        assert_eq!(eib.stats().grants, 2);
    }

    #[test]
    fn idle_bus_has_no_release() {
        let eib = bus();
        assert_eq!(eib.next_release_after(Cycle::ZERO), None);
    }

    #[test]
    fn ring_outage_blocks_then_recovers_at_the_boundary() {
        use cellsim_faults::{RingOutage, Window};
        let mut eib = Eib::new(
            Topology::cbe(),
            EibConfig {
                rings_per_direction: 1,
                ..EibConfig::default()
            },
        );
        // Both rings (one CW, one CCW) out until cycle 40: nothing can
        // be granted, but next_release_after points at the boundary.
        eib.set_faults(EibFaults {
            ring_outages: (0..2)
                .map(|ring| RingOutage {
                    ring,
                    window: Window {
                        start: 0,
                        cycles: 40,
                    },
                })
                .collect(),
            derate: Vec::new(),
        });
        eib.submit(Cycle::ZERO, 0, req(Element::spe(0), Element::spe(2)));
        assert!(eib.arbitrate(Cycle::ZERO).is_empty());
        assert!(eib.has_pending());
        let wake = eib.next_release_after(Cycle::ZERO).expect("boundary");
        assert_eq!(wake, Cycle::new(40));
        let grants = eib.arbitrate(wake);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].1.waited, 40);
    }

    #[test]
    fn derate_window_stretches_wire_time() {
        use cellsim_faults::{DerateWindow, Window};
        let mut eib = bus();
        eib.set_faults(EibFaults {
            ring_outages: Vec::new(),
            derate: vec![DerateWindow {
                window: Window {
                    start: 0,
                    cycles: 1000,
                },
                capacity_percent: 25,
            }],
        });
        eib.submit(Cycle::ZERO, 0, req(Element::spe(0), Element::Mic));
        let grants = eib.arbitrate(Cycle::ZERO);
        assert_eq!(grants.len(), 1);
        // 128 B at a quarter of 16 B/cycle: 32 wire cycles, not 8.
        assert_eq!(grants[0].1.wire_done, Cycle::new(32));
    }

    #[test]
    fn empty_faults_change_nothing() {
        let mut healthy = bus();
        let mut faulted = bus();
        faulted.set_faults(EibFaults::default());
        for eib in [&mut healthy, &mut faulted] {
            eib.submit(Cycle::ZERO, 0, req(Element::spe(0), Element::Mic));
        }
        assert_eq!(
            healthy.arbitrate(Cycle::ZERO),
            faulted.arbitrate(Cycle::ZERO)
        );
        assert_eq!(healthy.stats(), faulted.stats());
    }

    #[test]
    fn older_request_wins_a_shared_send_port_across_directions() {
        // SPE1 (ramp 1) sends clockwise to SPE5 (ramp 3) and
        // counter-clockwise to the PPE (ramp 0): one send port, two
        // direction queues. Whichever was submitted first wins the pass.
        for (first, second) in [
            (Element::spe(5), Element::Ppe),
            (Element::Ppe, Element::spe(5)),
        ] {
            let mut eib = bus();
            eib.submit(Cycle::ZERO, 0, req(Element::spe(1), first));
            eib.submit(Cycle::ZERO, 1, req(Element::spe(1), second));
            let grants = eib.arbitrate(Cycle::ZERO);
            assert_eq!(grants.len(), 1);
            assert_eq!(grants[0].0, 0);
            let expected = eib.topology().routes(Element::spe(1), first)[0].direction;
            assert_eq!(grants[0].1.direction, expected);
        }
    }

    #[test]
    fn halfway_tie_queues_clockwise_but_rides_counter_clockwise() {
        // PPE (ramp 0) -> IOIF0 (ramp 6) is 6 hops either way; its first
        // route is clockwise.
        let tie = req(Element::Ppe, Element::Ioif0);
        assert_eq!(
            Topology::cbe().routes(tie.src, tie.dst)[0].direction,
            Direction::Clockwise
        );

        // Two clockwise transfers sharing segment 2 fill both clockwise
        // rings there, so the tie is granted on the first counter-clockwise
        // ring instead.
        let mut eib = bus();
        eib.submit(Cycle::ZERO, 0, req(Element::spe(1), Element::spe(5)));
        eib.submit(Cycle::ZERO, 1, req(Element::spe(3), Element::spe(7)));
        eib.submit(Cycle::ZERO, 2, tie);
        let grants = eib.arbitrate(Cycle::ZERO);
        let rings: Vec<_> = grants.iter().map(|&(t, g)| (t, g.ring)).collect();
        assert_eq!(rings, [(0, RingId(0)), (1, RingId(1)), (2, RingId(2))]);
        assert_eq!(grants[2].1.direction, Direction::CounterClockwise);
        assert_eq!(grants[2].1.hops, 6);

        // When the tie is refused outright (its receive port is busy), it
        // blocks younger clockwise requests, not counter-clockwise ones.
        let mut eib = bus();
        eib.submit(Cycle::ZERO, 0, req(Element::spe(6), Element::Ioif0));
        eib.submit(Cycle::ZERO, 1, tie);
        eib.submit(Cycle::ZERO, 2, req(Element::spe(5), Element::spe(7)));
        eib.submit(Cycle::ZERO, 3, req(Element::spe(4), Element::spe(6)));
        let tokens: Vec<u64> = eib.arbitrate(Cycle::ZERO).iter().map(|g| g.0).collect();
        assert_eq!(tokens, [0, 3]);
    }

    #[test]
    fn superseded_receive_expiry_is_not_a_release() {
        // Pipelined segments free before delivery, so the receive port's
        // expiry is the only reservation ending at delivery time.
        let mut eib = Eib::new(
            Topology::cbe(),
            EibConfig {
                occupancy: RingOccupancy::Pipelined,
                ..EibConfig::default()
            },
        );
        // SPE2 (ramp 9) -> SPE4 (ramp 8): 1 hop, delivered at 9.
        eib.submit(Cycle::ZERO, 0, req(Element::spe(2), Element::spe(4)));
        assert_eq!(eib.arbitrate(Cycle::ZERO)[0].1.delivered_at, Cycle::new(9));
        // At cycle 4, SPE5 (ramp 3) -> SPE4: 5 hops, arriving at 9 as the
        // port frees, so it re-reserves the port until 17.
        let now = Cycle::new(4);
        eib.submit(now, 1, req(Element::spe(5), Element::spe(4)));
        assert_eq!(eib.arbitrate(now)[0].1.delivered_at, Cycle::new(17));
        // Left: the first transfer's send port and segment (8), the second
        // one's send port (12) and staggered segments (12..=16), and the
        // port (17). Cycle 9 is no longer a release.
        let mut releases = Vec::new();
        let mut t = now;
        while let Some(next) = eib.next_release_after(t) {
            releases.push(next.as_u64());
            t = next;
        }
        assert_eq!(releases, [8, 12, 13, 14, 15, 16, 17]);
    }

    #[test]
    fn receive_port_expiry_after_now_reopens_a_refused_head() {
        let mut eib = bus();
        // SPE5 (ramp 3) -> SPE4 (ramp 8): 5 hops clockwise. Its send port
        // frees at 8; SPE4's receive port and its segments at 13.
        eib.submit(Cycle::ZERO, 0, req(Element::spe(5), Element::spe(4)));
        // SPE2 (ramp 9) -> SPE4: 1 hop counter-clockwise, refused on the
        // receive port while its head would arrive before 13.
        eib.submit(Cycle::ZERO, 1, req(Element::spe(2), Element::spe(4)));
        let grants = eib.arbitrate(Cycle::ZERO);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].1.delivered_at, Cycle::new(13));
        // At 8 the head would arrive at 9: still refused.
        assert!(eib.arbitrate(Cycle::new(8)).is_empty());
        // At 12 the port is still reserved, but the head arrives at 13 as
        // it frees, so the pass must try it: its bound is the port's
        // expiry less the hop, not the expiry itself.
        let grants = eib.arbitrate(Cycle::new(12));
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].0, 1);
        assert_eq!(grants[0].1.delivered_at, Cycle::new(21));
    }

    #[test]
    fn a_new_head_is_tried_while_a_refused_head_is_skipped() {
        let mut eib = bus();
        // 1600 B hold the wire for 100 cycles: nothing expires before 100.
        let long = TransferRequest {
            bytes: 1600,
            ..req(Element::spe(5), Element::spe(4))
        };
        eib.submit(Cycle::ZERO, 0, long);
        eib.submit(Cycle::ZERO, 1, req(Element::spe(2), Element::spe(4)));
        assert_eq!(eib.arbitrate(Cycle::ZERO).len(), 1);
        // At 10 the refused head is certain to be refused until 104 (the
        // receive port frees at 105, one hop away) and is skipped, but a
        // request submitted into an empty lane (SPE1 -> SPE3, one
        // clockwise hop) is still tried.
        let now = Cycle::new(10);
        eib.submit(now, 2, req(Element::spe(1), Element::spe(3)));
        let tokens: Vec<u64> = eib.arbitrate(now).iter().map(|g| g.0).collect();
        assert_eq!(tokens, [2]);
        assert!(eib.has_pending());
    }

    #[test]
    fn bidirectional_pair_runs_concurrently() {
        let mut eib = bus();
        // get + put between neighbours travel opposite directions and use
        // opposite ports: both granted at once (the 33.6 GB/s pair peak).
        eib.submit(Cycle::ZERO, 0, req(Element::spe(0), Element::spe(2)));
        eib.submit(Cycle::ZERO, 1, req(Element::spe(2), Element::spe(0)));
        assert_eq!(eib.arbitrate(Cycle::ZERO).len(), 2);
    }
}
