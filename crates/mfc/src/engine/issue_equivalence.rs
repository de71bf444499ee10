//! Differential test of the issue scan: [`MfcEngine::try_issue`], whose
//! round-robin walk visits only the candidate and fresh bits, against
//! the linear scan it replaced, which walks every queue entry and
//! derives each command's state from scratch.
//!
//! Two engines of one configuration take the same random stream of
//! admissions (DMA-elem and DMA-list commands, fenced or not, on a few
//! tag groups), issue attempts, deliveries, abandons and NACKs at
//! non-decreasing times, one issuing through the masks and one through
//! the reference. Queue depths run from 1 to [`MAX_QUEUE_DEPTH`], with
//! MFC stall windows and slot limits. Every `Issue` value (packet,
//! token, `retry_at`), completion and counter must agree.
//!
//! Each property runs 256 cases unless `PROPTEST_CASES` sets the count;
//! CI soaks it at 4096 in a release build.

use cellsim_faults::{MfcFaults, RetryPolicy, Window};
use cellsim_kernel::Cycle;
use cellsim_mem::RegionId;
use proptest::prelude::*;

use super::{Issue, MfcConfig, MfcEngine, PacketToken, MAX_QUEUE_DEPTH};
use crate::command::{DmaCommand, DmaKind, EffectiveAddr, LsAddr};
use crate::list::{DmaListCommand, ListElement};
use crate::tag::TagId;

impl MfcEngine {
    /// [`MfcEngine::try_issue`] through the linear scan: every queue
    /// position in round-robin order from the pointer, wrapping once.
    /// A command may issue if it has packets left and no older command
    /// of its tag group is queued ahead of its fence.
    fn try_issue_by_scan(&mut self, now: Cycle) -> Issue {
        if let Some(refused) = self.issue_refused(now) {
            return refused;
        }
        let len = self.queue.len();
        let start = self.rr % len;
        let mut earliest_gate: Option<Cycle> = None;
        for i in (start..len).chain(0..start) {
            let entry = &self.queue[i];
            let cmd = &self.commands[entry.slot as usize];
            let held =
                cmd.work.fence() && self.queue[..i].iter().any(|older| older.tag == entry.tag);
            if cmd.fully_issued() || held {
                continue;
            }
            if entry.ready_at <= now {
                return self.issue_from(i, now);
            }
            earliest_gate = Some(earliest_gate.map_or(entry.ready_at, |g| g.min(entry.ready_at)));
        }
        Self::no_pick(earliest_gate)
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// A DMA-elem command: kind, tag, fence, EA quadword offset, size.
    Elem(DmaKind, u8, bool, u64, u32),
    /// A DMA-list command: kind, tag, fence, element sizes.
    List(DmaKind, u8, bool, Vec<u32>),
    /// Ask both engines for a packet at the current time.
    Issue,
    /// Issue until blocked or idle, jumping to each stall's `retry_at`.
    IssueUntilBlocked,
    /// Deliver (or, if the flag is set, abandon) the k-th in-flight
    /// packet, modulo how many are in flight.
    Retire(usize, bool),
    /// NACK the k-th in-flight packet.
    Nack(usize),
    Advance(u64),
}

const SIZES: [u32; 9] = [16, 32, 64, 112, 128, 256, 384, 1024, 4096];

fn size() -> impl Strategy<Value = u32> {
    (0..SIZES.len()).prop_map(|i| SIZES[i])
}

fn kind() -> impl Strategy<Value = DmaKind> {
    prop_oneof![Just(DmaKind::Get), Just(DmaKind::Put)]
}

fn elem() -> impl Strategy<Value = Op> {
    (kind(), 0u8..4, any::<bool>(), 0u64..64, size())
        .prop_map(|(k, t, f, q, b)| Op::Elem(k, t, f, q, b))
}

fn list() -> impl Strategy<Value = Op> {
    (kind(), 0u8..4, any::<bool>(), collection::vec(size(), 1..6))
        .prop_map(|(k, t, f, sizes)| Op::List(k, t, f, sizes))
}

/// Deliveries, and one abandon in ten.
fn retire() -> impl Strategy<Value = Op> {
    (any::<usize>(), 0u8..10).prop_map(|(k, d)| Op::Retire(k, d == 0))
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        elem(),
        elem(),
        elem(),
        elem(),
        list(),
        list(),
        Just(Op::Issue),
        Just(Op::Issue),
        Just(Op::Issue),
        Just(Op::IssueUntilBlocked),
        retire(),
        retire(),
        retire(),
        any::<usize>().prop_map(Op::Nack),
        (0u64..40).prop_map(Op::Advance),
        (0u64..40).prop_map(Op::Advance),
    ]
}

fn config() -> impl Strategy<Value = MfcConfig> {
    (
        prop_oneof![
            1usize..=4,
            5usize..=20,
            21..=MAX_QUEUE_DEPTH,
            Just(MAX_QUEUE_DEPTH)
        ],
        1usize..=12,
        prop_oneof![Just(128u32), Just(64)],
        (1u64..=3, 0u64..=30, 0u64..=4),
    )
        .prop_map(
            |(
                queue_depth,
                max_outstanding_packets,
                packet_bytes,
                (issue_interval, command_startup, list_element_overhead),
            )| MfcConfig {
                queue_depth,
                max_outstanding_packets,
                packet_bytes,
                issue_interval,
                command_startup,
                list_element_overhead,
            },
        )
}

fn faults() -> impl Strategy<Value = MfcFaults> {
    let window = (0u64..400, 1u64..60).prop_map(|(start, cycles)| Window { start, cycles });
    prop_oneof![
        Just(MfcFaults::default()),
        (
            prop_oneof![Just(None), (1u32..6).prop_map(Some)],
            collection::vec(window, 0..4)
        )
            .prop_map(|(slot_limit, queue_stalls)| MfcFaults {
                slot_limit,
                queue_stalls,
            }),
    ]
}

fn mem(offset: u64) -> EffectiveAddr {
    EffectiveAddr::Memory {
        region: RegionId(0),
        offset,
    }
}

fn tag(t: u8) -> TagId {
    TagId::new(t).expect("tags 0..4 are valid")
}

/// Both engines, in lockstep, and the packets they have in flight.
struct Pair {
    masks: MfcEngine,
    scan: MfcEngine,
    in_flight: Vec<PacketToken>,
    now: Cycle,
}

impl Pair {
    fn issue(&mut self) -> Result<Issue, TestCaseError> {
        let got = self.masks.try_issue(self.now);
        let want = self.scan.try_issue_by_scan(self.now);
        prop_assert_eq!(got, want, "issue at cycle {}", self.now.as_u64());
        if let Issue::Packet(p) = got {
            self.in_flight.push(p.token);
        }
        Ok(got)
    }

    fn admit(&mut self, op: Op) -> Result<(), TestCaseError> {
        let (got, want) = match op {
            Op::Elem(kind, t, fence, quad, bytes) => {
                let ls = LsAddr((quad as u32 % 64) * 16);
                let cmd = DmaCommand::new(kind, ls, mem(quad * 16), bytes, tag(t))
                    .expect("sizes and offsets are DMA-legal");
                let cmd = if fence { cmd.with_fence() } else { cmd };
                (
                    self.masks.enqueue(self.now, cmd),
                    self.scan.enqueue(self.now, cmd),
                )
            }
            Op::List(kind, t, fence, sizes) => {
                let mut at = 0;
                let elements = sizes
                    .iter()
                    .map(|&bytes| {
                        let el = ListElement {
                            ea_offset: at,
                            bytes,
                        };
                        at += u64::from(bytes) + 48;
                        el
                    })
                    .collect();
                let cmd = DmaListCommand::new(kind, LsAddr(0), mem(0), elements, tag(t))
                    .expect("list elements are DMA-legal");
                let cmd = if fence { cmd.with_fence() } else { cmd };
                (
                    self.masks.enqueue_list(self.now, cmd.clone()),
                    self.scan.enqueue_list(self.now, cmd),
                )
            }
            _ => unreachable!("only admissions are admitted"),
        };
        prop_assert_eq!(got, want);
        Ok(())
    }

    fn retire(&mut self, k: usize, abandon: bool) -> Result<(), TestCaseError> {
        if self.in_flight.is_empty() {
            return Ok(());
        }
        let token = self.in_flight.swap_remove(k % self.in_flight.len());
        let (got, want) = if abandon {
            (
                self.masks.packet_abandoned(self.now, token),
                self.scan.packet_abandoned(self.now, token),
            )
        } else {
            (
                self.masks.packet_delivered(self.now, token),
                self.scan.packet_delivered(self.now, token),
            )
        };
        prop_assert_eq!(got, want);
        if got {
            prop_assert_eq!(self.masks.last_completed(), self.scan.last_completed());
        }
        Ok(())
    }

    fn same_state(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.masks.stats(), self.scan.stats());
        prop_assert_eq!(self.masks.queue_len(), self.scan.queue_len());
        prop_assert_eq!(self.masks.outstanding(), self.scan.outstanding());
        prop_assert_eq!(self.masks.rr, self.scan.rr);
        Ok(())
    }
}

fn drive(cfg: MfcConfig, faults: MfcFaults, ops: Vec<Op>) -> Result<(), TestCaseError> {
    let retry = RetryPolicy::default();
    let mut pair = Pair {
        masks: MfcEngine::with_faults(cfg, faults.clone(), retry).expect("valid config"),
        scan: MfcEngine::with_faults(cfg, faults, retry).expect("valid config"),
        in_flight: Vec::new(),
        now: Cycle::ZERO,
    };
    for op in ops {
        match op {
            Op::Elem(..) | Op::List(..) => pair.admit(op)?,
            Op::Issue => {
                pair.issue()?;
            }
            Op::IssueUntilBlocked => {
                for _ in 0..64 {
                    match pair.issue()? {
                        Issue::Packet(_) => {}
                        Issue::Stalled { retry_at } => pair.now = retry_at,
                        Issue::Blocked | Issue::Idle => break,
                    }
                }
            }
            Op::Retire(k, abandon) => pair.retire(k, abandon)?,
            Op::Nack(k) => {
                if !pair.in_flight.is_empty() {
                    let token = pair.in_flight[k % pair.in_flight.len()];
                    prop_assert_eq!(
                        pair.masks.note_nack(pair.now, token),
                        pair.scan.note_nack(pair.now, token)
                    );
                }
            }
            Op::Advance(dt) => pair.now += dt,
        }
        pair.same_state()?;
    }
    // Drain: deliver everything in flight, oldest first, and issue the
    // rest, until both engines are idle.
    let mut rounds = 0;
    while !pair.masks.is_idle() {
        match pair.issue()? {
            Issue::Packet(_) => {}
            Issue::Stalled { retry_at } => pair.now = retry_at,
            Issue::Blocked | Issue::Idle => {
                pair.now += 1;
                pair.retire(0, false)?;
            }
        }
        pair.same_state()?;
        rounds += 1;
        prop_assert!(rounds < 100_000, "the engines did not drain");
    }
    prop_assert!(pair.scan.is_idle());
    Ok(())
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
    fn masked_issue_matches_the_linear_scan(
        cfg in config(),
        faults in faults(),
        ops in collection::vec(op(), 1..400),
    ) {
        drive(cfg, faults, ops)?;
    }
}
