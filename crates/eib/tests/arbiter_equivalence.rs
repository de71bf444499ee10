//! Differential test of the data arbiter: `Eib` against a reference
//! model that scans one pending queue per pass and every reservation per
//! release query, built only on the public `Topology` and `Ring` API.
//!
//! Both are driven by the same random streams of `submit`, `arbitrate`
//! and `next_release_after` calls at non-decreasing times, over both
//! occupancy modes, source-switch penalties, every flow class, and random
//! ring outages and derate windows. Grants (order and every field),
//! counters and release horizons must agree exactly. Two more streams
//! arbitrate at every cycle between releases, where most passes can only
//! refuse and take the arbiter's early return, and replace the fault
//! windows mid-stream. A fourth runs under derates severe enough that
//! grants reserve past the release calendar's ring span, and checks that
//! some case does, so the calendar's overflow map is exercised.
//!
//! Each property runs 256 cases unless `PROPTEST_CASES` sets the count.

use std::collections::VecDeque;

use cellsim_eib::{
    Direction, Eib, EibConfig, EibStats, Element, FlowClass, Grant, Ring, RingId, RingOccupancy,
    RingStats, Topology, TransferRequest, RELEASE_RING_SPAN,
};
use cellsim_faults::{DerateWindow, EibFaults, RingOutage, Window};
use cellsim_kernel::Cycle;
use proptest::prelude::*;

struct RefPending {
    token: u64,
    req: TransferRequest,
    enqueued: Cycle,
    dir: Direction,
}

/// The scanning arbiter: one pending queue in submit order, walked end
/// to end by each of the two class passes.
struct ReferenceEib {
    topology: Topology,
    cfg: EibConfig,
    rings: Vec<Ring>,
    send_free: Vec<Cycle>,
    recv_free: Vec<Cycle>,
    last_send_class: Vec<Option<FlowClass>>,
    pending: VecDeque<RefPending>,
    stats: EibStats,
    ring_stats: Vec<RingStats>,
    faults: EibFaults,
}

impl ReferenceEib {
    fn new(topology: Topology, cfg: EibConfig, faults: EibFaults) -> ReferenceEib {
        let n = topology.ramp_count();
        let rings: Vec<Ring> = [Direction::Clockwise, Direction::CounterClockwise]
            .into_iter()
            .flat_map(|dir| (0..cfg.rings_per_direction).map(move |_| Ring::new(dir, n)))
            .collect();
        ReferenceEib {
            ring_stats: vec![RingStats::default(); rings.len()],
            topology,
            cfg,
            rings,
            send_free: vec![Cycle::ZERO; n],
            recv_free: vec![Cycle::ZERO; n],
            last_send_class: vec![None; n],
            pending: VecDeque::new(),
            stats: EibStats::default(),
            faults,
        }
    }

    fn ramp(&self, element: Element) -> usize {
        self.topology.ramp_of(element).expect("on bus").0
    }

    fn submit(&mut self, now: Cycle, token: u64, req: TransferRequest) {
        let dir = self.topology.routes(req.src, req.dst)[0].direction;
        self.pending.push_back(RefPending {
            token,
            req,
            enqueued: now,
            dir,
        });
    }

    fn arbitrate(&mut self, now: Cycle) -> Vec<(u64, Grant)> {
        let mut granted = Vec::new();
        for memory_pass in [true, false] {
            let (mut blocked_cw, mut blocked_ccw) = (false, false);
            let mut i = 0;
            while i < self.pending.len() {
                let p = &self.pending[i];
                if (p.req.src.is_mic() || p.req.dst.is_mic()) != memory_pass {
                    i += 1;
                    continue;
                }
                let blocked = match p.dir {
                    Direction::Clockwise => &mut blocked_cw,
                    Direction::CounterClockwise => &mut blocked_ccw,
                };
                if *blocked {
                    i += 1;
                    continue;
                }
                let req = p.req;
                match self.try_grant(now, &req) {
                    Some(mut grant) => {
                        let p = self.pending.remove(i).expect("index in range");
                        grant.waited = now.saturating_since(p.enqueued);
                        self.stats.wait_cycles += grant.waited;
                        granted.push((p.token, grant));
                    }
                    None => {
                        *blocked = true;
                        i += 1;
                    }
                }
            }
        }
        granted
    }

    fn try_grant(&mut self, now: Cycle, req: &TransferRequest) -> Option<Grant> {
        let (src, dst) = (self.ramp(req.src), self.ramp(req.dst));
        if self.send_free[src] > now {
            return None;
        }
        let switch = match self.last_send_class[src] {
            Some(prev) if prev != req.class => self.cfg.source_switch_penalty,
            _ => 0,
        };
        let wire = u64::from(req.bytes.div_ceil(self.cfg.bytes_per_cycle));
        let capacity = self.faults.capacity_percent(now.as_u64());
        let wire = if capacity < 100 {
            (wire * 100).div_ceil(u64::from(capacity))
        } else {
            wire
        };
        let duration = wire + switch;
        for route in self.topology.routes(req.src, req.dst) {
            let arrival = now + route.hops as u64 * self.cfg.hop_latency;
            if self.recv_free[dst] > arrival {
                continue;
            }
            for (idx, ring) in self.rings.iter_mut().enumerate() {
                if ring.direction() != route.direction || self.faults.ring_out(idx, now.as_u64()) {
                    continue;
                }
                let delivered_at = arrival + duration;
                match self.cfg.occupancy {
                    RingOccupancy::CircuitHold => {
                        if !ring.path_free(route.segments, now) {
                            continue;
                        }
                        ring.reserve(route.segments, now, delivered_at);
                    }
                    RingOccupancy::Pipelined => {
                        if !ring.route_free(&route, now, self.cfg.hop_latency) {
                            continue;
                        }
                        ring.reserve_route(&route, now, duration, self.cfg.hop_latency);
                    }
                }
                self.send_free[src] = now + duration;
                self.recv_free[dst] = delivered_at;
                self.last_send_class[src] = Some(req.class);
                self.stats.grants += 1;
                self.stats.bytes += u64::from(req.bytes);
                self.stats.segment_cycles += route.hops as u64 * duration;
                let ring_stats = &mut self.ring_stats[idx];
                ring_stats.grants += 1;
                ring_stats.bytes += u64::from(req.bytes);
                ring_stats.busy_cycles += duration;
                return Some(Grant {
                    ring: RingId(idx),
                    direction: route.direction,
                    hops: route.hops,
                    start: now,
                    wire_done: now + duration,
                    delivered_at,
                    waited: 0,
                });
            }
        }
        None
    }

    fn next_release_after(&self, now: Cycle) -> Option<Cycle> {
        let rings = self.rings.iter().filter_map(|r| r.next_release_after(now));
        let ports = self
            .send_free
            .iter()
            .chain(&self.recv_free)
            .copied()
            .filter(|&t| t > now);
        let faults = self
            .faults
            .next_boundary_after(now.as_u64())
            .map(Cycle::new);
        rings.chain(ports).chain(faults).min()
    }

    fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Submit(Element, Element, u32, FlowClass),
    Arbitrate,
    Advance(u64),
    /// Move to the next release, as a discrete-event loop would.
    Jump,
    /// Arbitrate at each of the next this-many cycles.
    Sweep(u64),
    /// Replace the fault windows.
    SetFaults(EibFaults),
}

fn element() -> impl Strategy<Value = Element> {
    prop_oneof![
        Just(Element::Ppe),
        (0u8..8).prop_map(Element::Spe),
        Just(Element::Mic),
        Just(Element::Ioif0),
        Just(Element::Ioif1),
    ]
}

fn class() -> impl Strategy<Value = FlowClass> {
    prop_oneof![
        Just(FlowClass::MfcOut),
        Just(FlowClass::LsRead),
        Just(FlowClass::MemRead),
    ]
}

fn submit() -> impl Strategy<Value = Op> {
    (element(), element(), 0u32..=128, class())
        .prop_filter("distinct endpoints", |(a, b, _, _)| a != b)
        .prop_map(|(a, b, bytes, class)| Op::Submit(a, b, bytes, class))
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        submit(),
        submit(),
        submit(),
        Just(Op::Arbitrate),
        Just(Op::Arbitrate),
        (0u64..12).prop_map(Op::Advance),
        Just(Op::Jump),
    ]
}

/// Submits and cycle-by-cycle arbitration, nothing else.
fn sweep_op() -> impl Strategy<Value = Op> {
    prop_oneof![submit(), submit(), (1u64..40).prop_map(Op::Sweep)]
}

/// The basic mix plus sweeps and fault-window changes.
fn fault_change_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        op(),
        op(),
        op(),
        op(),
        (1u64..40).prop_map(Op::Sweep),
        faults().prop_map(Op::SetFaults),
    ]
}

fn config() -> impl Strategy<Value = EibConfig> {
    (
        any::<bool>(),
        1usize..=3,
        0u64..=3,
        0u64..=2,
        prop_oneof![Just(16u32), Just(8)],
    )
        .prop_map(
            |(
                pipelined,
                rings_per_direction,
                source_switch_penalty,
                hop_latency,
                bytes_per_cycle,
            )| {
                EibConfig {
                    rings_per_direction,
                    bytes_per_cycle,
                    hop_latency,
                    occupancy: if pipelined {
                        RingOccupancy::Pipelined
                    } else {
                        RingOccupancy::CircuitHold
                    },
                    source_switch_penalty,
                }
            },
        )
}

fn window() -> impl Strategy<Value = Window> {
    (0u64..300, 1u64..120).prop_map(|(start, cycles)| Window { start, cycles })
}

fn faults() -> impl Strategy<Value = EibFaults> {
    let outages = collection::vec(
        (0usize..7, window()).prop_map(|(ring, window)| RingOutage { ring, window }),
        0..3,
    );
    let derate = collection::vec(
        (window(), 1u32..=100).prop_map(|(window, capacity_percent)| DerateWindow {
            window,
            capacity_percent,
        }),
        0..3,
    );
    prop_oneof![
        Just(EibFaults::default()),
        (outages, derate).prop_map(|(ring_outages, derate)| EibFaults {
            ring_outages,
            derate,
        }),
    ]
}

/// Derates of at most 12 % capacity over the first few hundred cycles:
/// inside them a full packet's wire time (8 cycles healthy) stretches to
/// at least 67, past the release calendar's ring span.
fn severe_faults() -> impl Strategy<Value = EibFaults> {
    let window = (0u64..100, 100u64..600).prop_map(|(start, cycles)| Window { start, cycles });
    let derate = collection::vec(
        (window, 1u32..=12).prop_map(|(window, capacity_percent)| DerateWindow {
            window,
            capacity_percent,
        }),
        1..3,
    );
    derate.prop_map(|derate| EibFaults {
        ring_outages: Vec::new(),
        derate,
    })
}

/// Compares every observable of the two arbiters.
fn same_state(eib: &Eib, reference: &ReferenceEib, now: Cycle) -> Result<(), TestCaseError> {
    prop_assert_eq!(eib.stats(), &reference.stats);
    prop_assert_eq!(eib.ring_stats(), &reference.ring_stats[..]);
    prop_assert_eq!(eib.has_pending(), reference.has_pending());
    prop_assert_eq!(
        eib.next_release_after(now),
        reference.next_release_after(now),
        "release horizon after cycle {}",
        now.as_u64()
    );
    Ok(())
}

/// Drives both arbiters through `ops`, then drains them, checking after
/// every step that they agree. Returns the longest reservation any grant
/// made: from its start to its delivery, the last expiry it books.
fn drive(cfg: EibConfig, faults: EibFaults, ops: Vec<Op>) -> Result<u64, TestCaseError> {
    let mut eib = Eib::new(Topology::cbe(), cfg);
    eib.set_faults(faults.clone());
    let mut reference = ReferenceEib::new(Topology::cbe(), cfg, faults);
    let mut now = Cycle::ZERO;
    let mut token = 0u64;
    let mut longest = 0u64;
    let mut same_grants = |got: Vec<(u64, Grant)>,
                           want: Vec<(u64, Grant)>,
                           now: Cycle|
     -> Result<(), TestCaseError> {
        prop_assert_eq!(&got, &want, "pass at cycle {}", now.as_u64());
        for (_, grant) in got {
            longest = longest.max(grant.delivered_at - grant.start);
        }
        Ok(())
    };
    for op in ops {
        match op {
            Op::Submit(src, dst, bytes, class) => {
                let req = TransferRequest {
                    src,
                    dst,
                    bytes,
                    class,
                };
                eib.submit(now, token, req);
                reference.submit(now, token, req);
                token += 1;
            }
            Op::Arbitrate => same_grants(eib.arbitrate(now), reference.arbitrate(now), now)?,
            Op::Advance(dt) => now += dt,
            Op::Jump => {
                if let Some(next) = reference.next_release_after(now) {
                    now = next;
                }
            }
            Op::Sweep(cycles) => {
                for _ in 0..cycles {
                    now += 1;
                    same_grants(eib.arbitrate(now), reference.arbitrate(now), now)?;
                    same_state(&eib, &reference, now)?;
                }
            }
            Op::SetFaults(faults) => {
                eib.set_faults(faults.clone());
                reference.faults = faults;
            }
        }
        same_state(&eib, &reference, now)?;
    }
    // Drain: every request is eventually granted, identically.
    let mut rounds = 0;
    while reference.has_pending() {
        same_grants(eib.arbitrate(now), reference.arbitrate(now), now)?;
        same_state(&eib, &reference, now)?;
        if let Some(next) = reference.next_release_after(now) {
            now = next;
        }
        rounds += 1;
        prop_assert!(rounds < 100_000, "arbitration did not drain");
    }
    Ok(longest)
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
    fn indexed_arbiter_matches_the_scanning_reference(
        cfg in config(),
        faults in faults(),
        ops in collection::vec(op(), 1..160),
    ) {
        drive(cfg, faults, ops)?;
    }

    #[test]
    fn passes_at_every_cycle_match_the_scanning_reference(
        cfg in config(),
        faults in faults(),
        ops in collection::vec(sweep_op(), 1..80),
    ) {
        drive(cfg, faults, ops)?;
    }

    #[test]
    fn fault_windows_replaced_mid_stream_match_the_scanning_reference(
        cfg in config(),
        faults in faults(),
        ops in collection::vec(fault_change_op(), 1..160),
    ) {
        drive(cfg, faults, ops)?;
    }
}

/// The severe-derate property, run by hand so that the count of cases
/// whose grants reserved past the ring span can be checked after all of
/// them ran.
#[test]
fn severe_derates_reserve_past_the_ring_span_and_match_the_scanning_reference() {
    let strategy = (config(), severe_faults(), collection::vec(op(), 1..160));
    let mut overflowing = 0u32;
    TestRunner::new(ProptestConfig::with_cases(cases())).run_cases(|rng| {
        let (cfg, faults, ops) = strategy.generate(rng);
        if drive(cfg, faults, ops)? >= RELEASE_RING_SPAN {
            overflowing += 1;
        }
        Ok(())
    });
    assert!(
        overflowing > 0,
        "no case reserved past the {RELEASE_RING_SPAN}-cycle ring span"
    );
}
