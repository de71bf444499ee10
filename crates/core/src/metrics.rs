//! Always-on fabric metrics: where did every cycle go?
//!
//! Every fabric run accumulates pure counters inline — per-SPE stall
//! breakdowns, per-ring traffic, per-bank occupancy, and the MFC
//! outstanding-slot histogram — and carries them in
//! [`FabricReport::metrics`](crate::FabricReport). Unlike a trace store
//! ([`crate::tracestore`]), which records individual events to a file on
//! request, metrics cost O(1) per event, are always present, and are part
//! of the deterministic report: bit-identical for any `--jobs` count and
//! cached alongside the bandwidth numbers. The per-ring grant counts and
//! bytes and the per-bank bytes here, like the report's per-SPE
//! delivered bytes, equal what summing a trace's events would give.
//!
//! The counters are chosen to *explain* the paper's results the way the
//! paper does: the outstanding-slot histogram is the Little's-law account
//! of the single-SPE ≈10 GB/s ceiling, the stall partition separates MFC
//! saturation from sync draining (Figure 10) and write backpressure, and
//! the ring/bank tables show where contention concentrates.

use cellsim_eib::RingStats;
use cellsim_mem::{BankId, BankStats};

use crate::fabric::FabricReport;
use crate::latency::LatencyMetrics;

/// Per-SPE cycle accounting over one run.
///
/// The six cycle counters partition the run exactly: for every SPE,
/// `busy + idle + stall_* == FabricMetrics::run_cycles`. Each cycle is
/// charged to the *most blocking* condition at the time (sync wait wins
/// over a full outstanding budget, which wins over plain busy).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpeMetrics {
    /// The SPE had work and could make progress (commands decoding,
    /// packets issuing, or in flight below the outstanding budget).
    pub busy_cycles: u64,
    /// No queued commands and nothing in flight (before the SPE's script
    /// started producing work, or after it completed).
    pub idle_cycles: u64,
    /// The outstanding-packet budget was exhausted with every in-flight
    /// packet on the wire or in DRAM — the Little's-law latency limit.
    pub stall_mfc_full_cycles: u64,
    /// Blocked on a tag-group sync (the enqueue side drained the
    /// pipeline, the paper's Figure 10 mechanism).
    pub stall_sync_cycles: u64,
    /// Budget exhausted while at least one packet was queued at the EIB
    /// data arbiter waiting for a ring grant.
    pub stall_eib_cycles: u64,
    /// Budget exhausted while at least one memory PUT was refused by the
    /// bank's backlog horizon (write backpressure).
    pub stall_mem_cycles: u64,
    /// Time-weighted MFC outstanding-slot histogram: entry `k` is how
    /// many cycles exactly `k` bus packets were in flight. Entries sum to
    /// the run length.
    pub occupancy_cycles: Vec<u64>,
}

impl SpeMetrics {
    /// Total stalled cycles across all stall causes.
    pub fn stall_cycles(&self) -> u64 {
        self.stall_mfc_full_cycles
            + self.stall_sync_cycles
            + self.stall_eib_cycles
            + self.stall_mem_cycles
    }

    /// All accounted cycles; equals the run length by construction.
    pub fn accounted_cycles(&self) -> u64 {
        self.busy_cycles + self.idle_cycles + self.stall_cycles()
    }

    fn add(&mut self, other: &SpeMetrics) {
        self.busy_cycles += other.busy_cycles;
        self.idle_cycles += other.idle_cycles;
        self.stall_mfc_full_cycles += other.stall_mfc_full_cycles;
        self.stall_sync_cycles += other.stall_sync_cycles;
        self.stall_eib_cycles += other.stall_eib_cycles;
        self.stall_mem_cycles += other.stall_mem_cycles;
        if self.occupancy_cycles.len() < other.occupancy_cycles.len() {
            self.occupancy_cycles
                .resize(other.occupancy_cycles.len(), 0);
        }
        for (acc, &v) in self
            .occupancy_cycles
            .iter_mut()
            .zip(&other.occupancy_cycles)
        {
            *acc += v;
        }
    }
}

/// Fault-injection and retry activity of one run. All-zero on a healthy
/// blade (and when the installed [`FaultPlan`](crate::FaultPlan) is
/// empty), so the counters are schema-stable: always present, zero when
/// nothing was injected.
///
/// Conservation: every NACK is answered exactly once, so
/// `nacks == retries + retries_exhausted` holds for every run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient bank NACKs observed by in-flight packets.
    pub nacks: u64,
    /// NACKs answered with a backoff retry.
    pub retries: u64,
    /// NACKs that found the owning command's retry budget spent.
    pub retries_exhausted: u64,
    /// Packets abandoned after exhausting their budget (their payload
    /// bytes were never credited as delivered).
    pub abandoned_packets: u64,
    /// Cycles of the run inside at least one fault window (outage,
    /// derate, throttle or MFC stall) — the union, not the sum.
    pub degraded_cycles: u64,
}

impl FaultStats {
    /// Whether any fault activity was observed or any window overlapped
    /// the run.
    pub fn any(&self) -> bool {
        *self != FaultStats::default()
    }

    fn add(&mut self, other: &FaultStats) {
        self.nacks += other.nacks;
        self.retries += other.retries;
        self.retries_exhausted += other.retries_exhausted;
        self.abandoned_packets += other.abandoned_packets;
        self.degraded_cycles += other.degraded_cycles;
    }
}

/// One bank's occupancy counters, tagged with which bank it is.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankMetrics {
    /// Which bank.
    pub bank: BankId,
    /// The bank's counters (accesses, bytes, busy/conflict/turnaround/
    /// refresh cycles).
    pub stats: BankStats,
}

/// The always-on counters of one fabric run.
///
/// Carried in every [`FabricReport`]; all fields are integers, so the
/// struct is `Eq` and byte-identical across job counts and cache replays.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FabricMetrics {
    /// Run length in bus cycles (same as `FabricReport::cycles`).
    pub run_cycles: u64,
    /// Per-logical-SPE cycle accounting.
    pub per_spe: Vec<SpeMetrics>,
    /// Per-ring traffic, indexed clockwise rings first.
    pub rings: Vec<RingStats>,
    /// Per-bank occupancy.
    pub banks: Vec<BankMetrics>,
    /// Fault-injection activity (all-zero on a healthy blade).
    pub faults: FaultStats,
    /// Discrete events processed by the run's event loop — the
    /// denominator of the simulator's own events-per-second speed.
    pub events: u64,
    /// Stale `Ev::Pump` firings the fabric skipped because an earlier
    /// pump for the same SPE had superseded them.
    pub suppressed_pumps: u64,
    /// High-water mark of simultaneously live packet-slab entries; stays
    /// bounded by the machine's outstanding budget however long the run.
    pub peak_live_packets: u64,
}

/// The stall causes a run can be limited by, in reporting order.
pub const STALL_CAUSES: [&str; 4] = ["mfc-slots", "sync", "eib", "mem"];

impl FabricMetrics {
    /// This run's dominant stall cause over all SPEs, as `(name,
    /// cycles)`; `("none", 0)` when no SPE ever stalled.
    pub fn dominant_stall(&self) -> (&'static str, u64) {
        let mut totals = [0u64; 4];
        for spe in &self.per_spe {
            totals[0] += spe.stall_mfc_full_cycles;
            totals[1] += spe.stall_sync_cycles;
            totals[2] += spe.stall_eib_cycles;
            totals[3] += spe.stall_mem_cycles;
        }
        STALL_CAUSES
            .into_iter()
            .zip(totals)
            .max_by_key(|&(_, cycles)| cycles)
            .filter(|&(_, cycles)| cycles > 0)
            .unwrap_or(("none", 0))
    }
}

/// Elementwise sum of [`FabricMetrics`] over many runs (and over the SPEs
/// within each run) — the per-figure digest the experiments surface.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSummary {
    /// Runs accumulated.
    pub runs: u64,
    /// Σ run cycles over all runs.
    pub run_cycles: u64,
    /// Per-SPE counters summed over all SPEs of all runs.
    pub spe: SpeMetrics,
    /// Per-ring traffic summed over all runs.
    pub rings: Vec<RingStats>,
    /// Per-bank counters summed over all runs.
    pub banks: Vec<BankMetrics>,
    /// How many runs were dominated by each stall cause, in
    /// [`STALL_CAUSES`] order — the per-run bandwidth-limiter tally that
    /// aggregate cycle shares hide (e.g. Figure 10 sums to mostly sync
    /// stalls because the eager policies drain constantly, while its
    /// lazy-sync runs are limited by outstanding-slot saturation).
    pub limiter_runs: [u64; 4],
    /// Runs in which no SPE ever stalled.
    pub unstalled_runs: u64,
    /// Fault-injection activity summed over all runs.
    pub faults: FaultStats,
    /// Σ discrete events processed over all runs.
    pub events: u64,
    /// Σ bus packets delivered over all runs. Zero when the summary was
    /// built via the metrics-only [`MetricsSummary::accumulate`] (the
    /// delivered-packet count lives on the report, not the metrics).
    pub packets: u64,
    /// Σ stale pump events suppressed over all runs.
    pub suppressed_pumps: u64,
    /// Max over all runs of the packet slab's live high-water mark.
    pub peak_live_packets: u64,
    /// Per-command latency digest merged over all runs: per-path
    /// histograms, phase attribution, dominant-phase tallies. Empty when
    /// the summary was built via the metrics-only
    /// [`MetricsSummary::accumulate`].
    pub latency: LatencyMetrics,
}

impl MetricsSummary {
    /// Folds one run's metrics into the summary.
    pub fn accumulate(&mut self, m: &FabricMetrics) {
        self.runs += 1;
        self.run_cycles += m.run_cycles;
        self.events += m.events;
        self.suppressed_pumps += m.suppressed_pumps;
        self.peak_live_packets = self.peak_live_packets.max(m.peak_live_packets);
        match STALL_CAUSES.iter().position(|&c| c == m.dominant_stall().0) {
            Some(cause) => self.limiter_runs[cause] += 1,
            None => self.unstalled_runs += 1,
        }
        self.faults.add(&m.faults);
        for spe in &m.per_spe {
            self.spe.add(spe);
        }
        if self.rings.len() < m.rings.len() {
            self.rings.resize(m.rings.len(), RingStats::default());
        }
        for (acc, r) in self.rings.iter_mut().zip(&m.rings) {
            acc.grants += r.grants;
            acc.bytes += r.bytes;
            acc.busy_cycles += r.busy_cycles;
        }
        for b in &m.banks {
            match self.banks.iter_mut().find(|acc| acc.bank == b.bank) {
                Some(acc) => {
                    acc.stats.accesses += b.stats.accesses;
                    acc.stats.bytes += b.stats.bytes;
                    acc.stats.turnaround_cycles += b.stats.turnaround_cycles;
                    acc.stats.refresh_cycles += b.stats.refresh_cycles;
                    acc.stats.busy_cycles += b.stats.busy_cycles;
                    acc.stats.conflicts += b.stats.conflicts;
                }
                None => self.banks.push(*b),
            }
        }
    }

    /// Folds one run's full report into the summary: its cycle metrics
    /// *and* its per-command latency digest.
    pub fn accumulate_report(&mut self, r: &FabricReport) {
        self.accumulate(&r.metrics);
        self.packets += r.packets;
        self.latency.merge(&r.latency);
    }

    /// Builds a summary (including the latency digest) over a set of
    /// reports.
    pub fn from_reports<'a, I>(reports: I) -> MetricsSummary
    where
        I: IntoIterator<Item = &'a FabricReport>,
    {
        let mut summary = MetricsSummary::default();
        for r in reports {
            summary.accumulate_report(r);
        }
        summary
    }

    /// Σ SPE-cycles accounted (the denominator for cycle shares): every
    /// run contributes `run_cycles` per SPE, so this is
    /// `spe.accounted_cycles()` by the conservation invariant.
    pub fn spe_cycles(&self) -> u64 {
        self.spe.accounted_cycles()
    }

    /// Mean packets in flight while any packet was in flight.
    pub fn occupancy_mean_inflight(&self) -> f64 {
        let occ = &self.spe.occupancy_cycles;
        let inflight: u64 = occ.iter().skip(1).sum();
        if inflight == 0 {
            return 0.0;
        }
        let weighted: u64 = occ.iter().enumerate().map(|(k, &c)| k as u64 * c).sum();
        weighted as f64 / inflight as f64
    }

    /// Share of in-flight time spent with *every* outstanding slot
    /// occupied — the saturation signature of the Little's-law bandwidth
    /// ceiling.
    pub fn occupancy_saturated_share(&self) -> f64 {
        let occ = &self.spe.occupancy_cycles;
        let inflight: u64 = occ.iter().skip(1).sum();
        match (occ.last(), inflight) {
            (Some(&full), 1..) => full as f64 / inflight as f64,
            _ => 0.0,
        }
    }

    /// The stall cause with the most cycles, as `(name, cycles)`.
    /// `("none", 0)` when nothing stalled.
    pub fn dominant_stall(&self) -> (&'static str, u64) {
        let causes = [
            ("mfc-slots", self.spe.stall_mfc_full_cycles),
            ("sync", self.spe.stall_sync_cycles),
            ("eib", self.spe.stall_eib_cycles),
            ("mem", self.spe.stall_mem_cycles),
        ];
        causes
            .into_iter()
            .max_by_key(|&(_, cycles)| cycles)
            .filter(|&(_, cycles)| cycles > 0)
            .unwrap_or(("none", 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spe(busy: u64, occ: Vec<u64>) -> SpeMetrics {
        SpeMetrics {
            busy_cycles: busy,
            occupancy_cycles: occ,
            ..SpeMetrics::default()
        }
    }

    #[test]
    fn summary_sums_elementwise() {
        let m = FabricMetrics {
            run_cycles: 100,
            per_spe: vec![spe(40, vec![10, 20, 70]), spe(60, vec![100, 0, 0])],
            rings: vec![RingStats {
                grants: 3,
                bytes: 384,
                busy_cycles: 24,
            }],
            banks: vec![BankMetrics {
                bank: BankId::Local,
                stats: BankStats {
                    accesses: 2,
                    bytes: 256,
                    busy_cycles: 16,
                    conflicts: 1,
                    ..BankStats::default()
                },
            }],
            faults: FaultStats {
                nacks: 5,
                retries: 4,
                retries_exhausted: 1,
                abandoned_packets: 1,
                degraded_cycles: 30,
            },
            events: 1000,
            suppressed_pumps: 7,
            peak_live_packets: 12,
        };
        let mut s = MetricsSummary::default();
        s.accumulate(&m);
        s.accumulate(&m);
        assert_eq!(s.runs, 2);
        assert_eq!(s.faults.nacks, 10);
        assert_eq!(
            s.faults.nacks,
            s.faults.retries + s.faults.retries_exhausted
        );
        assert_eq!(s.faults.degraded_cycles, 60);
        assert_eq!(s.run_cycles, 200);
        assert_eq!(s.spe.busy_cycles, 200);
        assert_eq!(s.spe.occupancy_cycles, vec![220, 40, 140]);
        assert_eq!(s.rings[0].bytes, 768);
        assert_eq!(s.banks[0].stats.conflicts, 2);
        assert_eq!(s.events, 2000);
        assert_eq!(s.suppressed_pumps, 14);
        assert_eq!(s.peak_live_packets, 12, "peak takes the max, not the sum");
    }

    #[test]
    fn saturation_share_ignores_empty_bucket() {
        let mut s = MetricsSummary::default();
        s.accumulate(&FabricMetrics {
            run_cycles: 100,
            per_spe: vec![spe(0, vec![50, 10, 40])],
            ..FabricMetrics::default()
        });
        // 40 of 50 in-flight cycles at the full budget.
        assert!((s.occupancy_saturated_share() - 0.8).abs() < 1e-12);
        assert!((s.occupancy_mean_inflight() - 1.8).abs() < 1e-12);
    }

    #[test]
    fn dominant_stall_names_the_largest_cause() {
        let mut s = MetricsSummary::default();
        assert_eq!(s.dominant_stall(), ("none", 0));
        s.spe.stall_sync_cycles = 7;
        s.spe.stall_mfc_full_cycles = 3;
        assert_eq!(s.dominant_stall(), ("sync", 7));
    }

    #[test]
    fn limiter_tally_counts_each_run_once() {
        let sync_bound = FabricMetrics {
            run_cycles: 10,
            per_spe: vec![SpeMetrics {
                stall_sync_cycles: 8,
                stall_mfc_full_cycles: 2,
                ..SpeMetrics::default()
            }],
            ..FabricMetrics::default()
        };
        let slot_bound = FabricMetrics {
            run_cycles: 10,
            per_spe: vec![SpeMetrics {
                stall_mfc_full_cycles: 9,
                ..SpeMetrics::default()
            }],
            ..FabricMetrics::default()
        };
        let unstalled = FabricMetrics {
            run_cycles: 10,
            per_spe: vec![SpeMetrics {
                busy_cycles: 10,
                ..SpeMetrics::default()
            }],
            ..FabricMetrics::default()
        };
        assert_eq!(sync_bound.dominant_stall(), ("sync", 8));
        assert_eq!(slot_bound.dominant_stall(), ("mfc-slots", 9));
        assert_eq!(unstalled.dominant_stall(), ("none", 0));
        let mut s = MetricsSummary::default();
        s.accumulate(&sync_bound);
        s.accumulate(&slot_bound);
        s.accumulate(&slot_bound);
        s.accumulate(&unstalled);
        // STALL_CAUSES order: mfc-slots, sync, eib, mem.
        assert_eq!(s.limiter_runs, [2, 1, 0, 0]);
        assert_eq!(s.unstalled_runs, 1);
    }
}
