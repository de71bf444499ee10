//! Per-DMA-command latency accounting: deterministic log2-bucket
//! histograms with phase attribution.
//!
//! Every command the fabric retires carries a
//! [`CommandLifecycle`] stamped at each
//! point it passed through (enqueue, MFC slot grant, unroll, EIB ring
//! grants, bank service, tag-group completion). This module folds those
//! records into [`LatencyMetrics`]: integer-only histograms and counters
//! that are bit-identical no matter how a sweep is parallelized —
//! aggregation is per-run and commutative over runs, with no floats in
//! the accumulation path.
//!
//! Raw records are *not* retained (a paper-scale sweep retires millions
//! of commands); each is observed once at retirement and dropped.

use std::fmt;

use cellsim_mfc::{CommandLifecycle, DmaKind, TargetClass};

/// Number of log2 buckets. Bucket 0 holds exact zeros; bucket `k ≥ 1`
/// holds values in `[2^(k−1), 2^k − 1]`. 48 buckets cover every latency
/// the simulator can express (the safety horizon is < 2^36 cycles).
pub const LATENCY_BUCKETS: usize = 48;

/// The bucket a value lands in.
fn bucket_of(value: u64) -> usize {
    let bits = (64 - value.leading_zeros()) as usize;
    bits.min(LATENCY_BUCKETS - 1)
}

/// The largest value bucket `idx` can hold (its reported upper edge).
fn bucket_upper_edge(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else if idx >= 64 {
        u64::MAX
    } else {
        (1u64 << idx) - 1
    }
}

/// A deterministic integer-only latency histogram with log2 buckets.
///
/// Percentiles are *bucket-edge* percentiles: the upper edge of the
/// bucket holding the rank-`⌈p·n/100⌉` observation, clamped to the exact
/// observed maximum. They are exact for the max, conservative (an upper
/// bound, within 2× of the true value) for interior percentiles, and —
/// unlike sampled percentiles — identical for any observation order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Observations folded in.
    pub count: u64,
    /// Σ observed values (for exact integer means).
    pub total: u64,
    /// Exact maximum observed value.
    pub max: u64,
    /// Log2 bucket counts; see [`LATENCY_BUCKETS`].
    pub buckets: [u64; LATENCY_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            count: 0,
            total: 0,
            max: 0,
            buckets: [0; LATENCY_BUCKETS],
        }
    }
}

impl LatencyHistogram {
    /// Folds one observation in.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.total += value;
        self.max = self.max.max(value);
        self.buckets[bucket_of(value)] += 1;
    }

    /// Merges another histogram (order-independent: merge of observes is
    /// the observe of the union).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.count += other.count;
        self.total += other.total;
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// The bucket-edge percentile for `p` in `0..=100`, clamped to the
    /// observed max; 0 when empty. Monotone in `p` by construction
    /// (higher rank → same or later bucket → same or larger edge), so
    /// `p50 ≤ p95 ≤ p99 ≤ max` always holds.
    pub fn percentile(&self, p: u64) -> u64 {
        assert!(p <= 100, "percentile out of range");
        if self.count == 0 {
            return 0;
        }
        // Rank of the percentile observation, 1-based, rounding up.
        let rank = (p * self.count).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_edge(idx).min(self.max);
            }
        }
        self.max
    }

    /// Exact integer mean (rounded down); 0 when empty.
    pub fn mean(&self) -> u64 {
        self.total.checked_div(self.count).unwrap_or(0)
    }
}

/// The traffic paths latency is broken down by. PPE microbenchmarks are
/// analytic (they never traverse the fabric), so the fabric paths are
/// the four MFC command shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DmaPathClass {
    /// SPE ← main memory (GET).
    MemGet,
    /// SPE → main memory (PUT).
    MemPut,
    /// SPE ← remote Local Store (GET).
    LsGet,
    /// SPE → remote Local Store (PUT).
    LsPut,
}

impl DmaPathClass {
    /// All paths in reporting order.
    pub const ALL: [DmaPathClass; 4] = [
        DmaPathClass::MemGet,
        DmaPathClass::MemPut,
        DmaPathClass::LsGet,
        DmaPathClass::LsPut,
    ];

    /// Stable reporting name.
    pub fn name(self) -> &'static str {
        match self {
            DmaPathClass::MemGet => "mem-get",
            DmaPathClass::MemPut => "mem-put",
            DmaPathClass::LsGet => "ls-get",
            DmaPathClass::LsPut => "ls-put",
        }
    }

    /// Position in [`DmaPathClass::ALL`], which lists the variants in
    /// declaration order.
    #[inline]
    fn index(self) -> usize {
        self as usize
    }

    /// The path a lifecycle record belongs to.
    pub fn of(life: &CommandLifecycle) -> DmaPathClass {
        match (life.target, life.kind) {
            (TargetClass::Memory, DmaKind::Get) => DmaPathClass::MemGet,
            (TargetClass::Memory, DmaKind::Put) => DmaPathClass::MemPut,
            (TargetClass::LocalStore, DmaKind::Get) => DmaPathClass::LsGet,
            (TargetClass::LocalStore, DmaKind::Put) => DmaPathClass::LsPut,
        }
    }
}

impl fmt::Display for DmaPathClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Latency accounting for one [`DmaPathClass`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathLatency {
    /// Commands retired on this path.
    pub commands: u64,
    /// End-to-end (enqueue → tag completion) latency distribution.
    pub end_to_end: LatencyHistogram,
    /// Σ cycles per lifecycle phase, in
    /// [`DmaPhase::ALL`](cellsim_mfc::DmaPhase::ALL) order. Each command's
    /// four phases sum to its end-to-end latency, so these sum to
    /// `end_to_end.total` (conservation).
    pub phase_cycles: [u64; 4],
    /// Commands whose dominant phase was each of
    /// [`DmaPhase::ALL`](cellsim_mfc::DmaPhase::ALL); sums to `commands`.
    pub dominant_counts: [u64; 4],
    /// Transient NACKs observed by commands on this path.
    pub nacks: u64,
    /// Backoff retries performed in response to those NACKs.
    pub retries: u64,
    /// Σ retry backoff cycles across the path's commands. Backoff elapses
    /// between issue and delivery, so these cycles are already inside
    /// `phase_cycles` (ring-wait/service) — this field *attributes* them
    /// without adding a fifth phase, preserving the exact four-phase sum.
    pub retry_backoff_cycles: u64,
    /// Commands that exhausted their retry budget (some payload bytes
    /// were never delivered).
    pub exhausted_commands: u64,
}

impl PathLatency {
    /// Folds one lifecycle record in, from one [`CommandLifecycle::phases`]:
    /// the phases cut a monotone timeline, so they sum to
    /// [`CommandLifecycle::latency`] exactly, and the first largest phase
    /// is [`CommandLifecycle::dominant_phase`].
    #[inline]
    pub fn observe(&mut self, life: &CommandLifecycle) {
        let phases = life.phases();
        let (mut latency, mut dominant) = (0, 0);
        for (i, (acc, cycles)) in self.phase_cycles.iter_mut().zip(phases).enumerate() {
            *acc += cycles;
            latency += cycles;
            if cycles > phases[dominant] {
                dominant = i;
            }
        }
        self.commands += 1;
        self.end_to_end.observe(latency);
        self.dominant_counts[dominant] += 1;
        self.nacks += u64::from(life.nacks);
        self.retries += u64::from(life.retries);
        self.retry_backoff_cycles += life.retry_backoff_cycles;
        self.exhausted_commands += u64::from(life.exhausted);
    }

    /// Merges another path accumulator.
    pub fn merge(&mut self, other: &PathLatency) {
        self.commands += other.commands;
        self.end_to_end.merge(&other.end_to_end);
        for (a, b) in self.phase_cycles.iter_mut().zip(other.phase_cycles) {
            *a += b;
        }
        for (a, b) in self.dominant_counts.iter_mut().zip(other.dominant_counts) {
            *a += b;
        }
        self.nacks += other.nacks;
        self.retries += other.retries;
        self.retry_backoff_cycles += other.retry_backoff_cycles;
        self.exhausted_commands += other.exhausted_commands;
    }
}

/// The per-run (and, merged, per-sweep-point) latency digest carried in
/// [`FabricReport`](crate::FabricReport) next to
/// [`FabricMetrics`](crate::FabricMetrics).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyMetrics {
    /// Per-path accounting, in [`DmaPathClass::ALL`] order.
    pub paths: [PathLatency; 4],
    /// Distribution of per-list-element service latency (first packet
    /// issue → element retired) across all paths — the latency a
    /// double-buffering depth is tuned against.
    pub element_service: LatencyHistogram,
}

impl LatencyMetrics {
    /// Folds one retired command's lifecycle in.
    #[inline]
    pub fn observe(&mut self, life: &CommandLifecycle) {
        self.paths[DmaPathClass::of(life).index()].observe(life);
        for elem in &life.element_records {
            self.element_service.observe(elem.service_latency());
        }
    }

    /// Merges another digest (runs of a sweep point, or sweep points of
    /// a figure). Commutative and associative, so any fan-out order —
    /// serial, `--jobs N`, cached — produces bit-identical sums.
    pub fn merge(&mut self, other: &LatencyMetrics) {
        for (a, b) in self.paths.iter_mut().zip(other.paths.iter()) {
            a.merge(b);
        }
        self.element_service.merge(&other.element_service);
    }

    /// The accounting for one path.
    pub fn path(&self, path: DmaPathClass) -> &PathLatency {
        &self.paths[path.index()]
    }

    /// Commands retired across all paths.
    pub fn total_commands(&self) -> u64 {
        self.paths.iter().map(|p| p.commands).sum()
    }

    /// End-to-end distribution folded over all paths.
    pub fn end_to_end(&self) -> LatencyHistogram {
        let mut all = LatencyHistogram::default();
        for p in &self.paths {
            all.merge(&p.end_to_end);
        }
        all
    }

    /// Σ cycles per phase over all paths, in
    /// [`DmaPhase::ALL`](cellsim_mfc::DmaPhase::ALL) order.
    pub fn phase_cycles(&self) -> [u64; 4] {
        let mut sums = [0u64; 4];
        for p in &self.paths {
            for (a, b) in sums.iter_mut().zip(p.phase_cycles) {
                *a += b;
            }
        }
        sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_line() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), LATENCY_BUCKETS - 1);
        assert_eq!(bucket_upper_edge(0), 0);
        assert_eq!(bucket_upper_edge(1), 1);
        assert_eq!(bucket_upper_edge(10), 1023);
    }

    #[test]
    fn percentiles_are_monotone_and_clamped() {
        let mut h = LatencyHistogram::default();
        for v in [3u64, 5, 9, 100, 101, 102, 900] {
            h.observe(v);
        }
        let p50 = h.percentile(50);
        let p95 = h.percentile(95);
        let p99 = h.percentile(99);
        assert!(p50 <= p95 && p95 <= p99 && p99 <= h.max);
        assert_eq!(h.percentile(100), 900, "p100 is the exact max");
        assert_eq!(h.percentile(0), h.percentile(1), "p0 clamps to rank 1");
    }

    #[test]
    fn merge_equals_union_of_observes() {
        let vals_a = [0u64, 1, 7, 64, 4096];
        let vals_b = [2u64, 2, 900000];
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        let mut union = LatencyHistogram::default();
        for &v in &vals_a {
            a.observe(v);
            union.observe(v);
        }
        for &v in &vals_b {
            b.observe(v);
            union.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, union);
    }

    #[test]
    fn path_indices_follow_all() {
        for (i, path) in DmaPathClass::ALL.into_iter().enumerate() {
            assert_eq!(path.index(), i);
        }
    }

    /// One fold of `phases()` accounts a command exactly as `latency()`,
    /// `phases()` and `dominant_phase()` separately do, over in-order,
    /// out-of-order (clamped) and tied stamps, with and without grants.
    #[test]
    fn one_phase_fold_matches_the_lifecycle_accessors() {
        use cellsim_kernel::Cycle;
        use cellsim_mfc::DmaPhase;
        let stamps: [[u64; 5]; 6] = [
            [10, 20, 40, 70, 110],
            [5, 5, 5, 5, 5],
            [0, 7, 7, 14, 14],
            [100, 50, 200, 150, 120],
            [3, 9, 1, 2, 30],
            [0, 0, 10, 10, 20],
        ];
        let mut folded = PathLatency::default();
        let mut reference = PathLatency::default();
        for (n, [enq, first, last, grant, done]) in stamps.into_iter().enumerate() {
            let life = CommandLifecycle {
                kind: DmaKind::Get,
                target: TargetClass::Memory,
                bytes: 128,
                elements: 1,
                packets: 1,
                enqueued_at: Cycle::new(enq),
                decoded_at: Cycle::new(enq),
                first_issue_at: Cycle::new(first),
                last_issue_at: Cycle::new(last),
                first_grant_at: Cycle::new(grant),
                last_grant_at: Cycle::new(grant),
                packets_granted: u32::from(n % 2 == 0),
                eib_wait_cycles: 0,
                bank_service_cycles: 0,
                completed_at: Cycle::new(done),
                nacks: 0,
                retries: 0,
                retry_backoff_cycles: 0,
                exhausted: false,
                element_records: Vec::new(),
            };
            folded.observe(&life);
            reference.commands += 1;
            reference.end_to_end.observe(life.latency());
            for (acc, cycles) in reference.phase_cycles.iter_mut().zip(life.phases()) {
                *acc += cycles;
            }
            let dominant = DmaPhase::ALL
                .iter()
                .position(|&p| p == life.dominant_phase())
                .expect("phase in ALL");
            reference.dominant_counts[dominant] += 1;
            assert_eq!(folded, reference, "stamps {n}");
        }
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.percentile(50), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.max, 0);
    }
}
