//! Latency/throughput model of one XDR DRAM bank.

use cellsim_faults::{BankFaults, NackStream};
use cellsim_kernel::Cycle;

/// Direction of a DRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Data flows out of the bank.
    Read,
    /// Data flows into the bank.
    Write,
}

/// Structural parameters of a bank.
///
/// All times are in bus cycles (1.05 GHz on the paper's blade).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BankConfig {
    /// Sustained data-pipe width in bytes per bus cycle. 16.0 for the
    /// local XDR bank behind the MIC; ≈6.67 for the remote bank, whose
    /// bottleneck is the 7 GB/s IOIF link.
    pub bytes_per_cycle: f64,
    /// Pipelined access latency: cycles from service start to data valid.
    pub access_latency: u64,
    /// Extra cycles when the pipe switches between reads and writes.
    pub turnaround_cycles: u64,
    /// A refresh window opens every this many cycles…
    pub refresh_interval: u64,
    /// …and steals this many cycles from the data pipe.
    pub refresh_cycles: u64,
    /// Backlog horizon: the bank refuses new work when its queue already
    /// extends more than this many cycles into the future. This is the
    /// backpressure that saturating writers (the paper's PPE memory-store
    /// experiment) run into.
    pub max_backlog_cycles: u64,
}

impl BankConfig {
    /// The local XDR bank behind the MIC of a 2.1 GHz CBE.
    pub fn local_xdr() -> BankConfig {
        BankConfig {
            bytes_per_cycle: 16.0,
            access_latency: 80,
            turnaround_cycles: 2,
            refresh_interval: 3000,
            refresh_cycles: 100,
            max_backlog_cycles: 256,
        }
    }

    /// The remote bank reached over IOIF0/BIF (7 GB/s ≈ 6.67 B/cycle).
    pub fn remote_xdr() -> BankConfig {
        BankConfig {
            bytes_per_cycle: 20.0 / 3.0,
            access_latency: 130,
            turnaround_cycles: 2,
            refresh_interval: 3000,
            refresh_cycles: 100,
            max_backlog_cycles: 256,
        }
    }
}

/// Timing of one accepted access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// When the bank began serving this access.
    pub start: Cycle,
    /// When the data pipe frees (throughput constraint).
    pub service_done: Cycle,
    /// When the data is valid at the bank edge (latency constraint). For
    /// reads this is when the payload can enter the bus; for writes, when
    /// the write has retired internally.
    pub data_ready: Cycle,
}

impl Access {
    /// Data-pipe cycles this access occupied (`service_done − start`) —
    /// the bank-service share attributed to the owning DMA command.
    #[inline]
    pub fn service_cycles(&self) -> u64 {
        self.service_done.saturating_since(self.start)
    }
}

/// Occupancy counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankStats {
    /// Accesses served.
    pub accesses: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Cycles lost to read↔write turnaround.
    pub turnaround_cycles: u64,
    /// Cycles lost to refresh.
    pub refresh_cycles: u64,
    /// Cycles the data pipe spent serving accesses.
    pub busy_cycles: u64,
    /// Accesses that found the pipe still busy with earlier work and had
    /// to queue (bank contention).
    pub conflicts: u64,
}

/// One XDR DRAM bank modelled as a latency/throughput queue.
///
/// Accesses serialize on the data pipe (`bytes_per_cycle`), pay a
/// turnaround penalty when the direction flips, lose periodic refresh
/// windows, and deliver data a fixed pipelined latency after service
/// starts. The queue is unbounded in structure but [`XdrBank::can_accept`]
/// exposes a bounded-backlog horizon for callers that model backpressure.
#[derive(Debug, Clone)]
pub struct XdrBank {
    cfg: BankConfig,
    next_free: Cycle,
    next_refresh: Cycle,
    last_op: Option<Op>,
    /// Fractional service cycles carried between accesses so the long-run
    /// rate matches `bytes_per_cycle` exactly.
    debt: f64,
    stats: BankStats,
    faults: BankFaults,
    nacks: NackStream,
}

impl XdrBank {
    /// Creates an idle bank.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is not positive, `refresh_interval`
    /// is zero, or a refresh window lasts as long as its interval or
    /// longer (`refresh_cycles >= refresh_interval`): the pipe would never
    /// be free, and [`XdrBank::submit`] would wait forever.
    pub fn new(cfg: BankConfig) -> XdrBank {
        assert!(
            cfg.bytes_per_cycle > 0.0 && cfg.bytes_per_cycle.is_finite(),
            "bank pipe width must be positive"
        );
        assert!(
            cfg.refresh_interval > 0,
            "refresh interval must be non-zero"
        );
        assert!(
            cfg.refresh_cycles < cfg.refresh_interval,
            "refresh window must be shorter than the refresh interval"
        );
        XdrBank {
            next_free: Cycle::ZERO,
            next_refresh: Cycle::new(cfg.refresh_interval),
            last_op: None,
            debt: 0.0,
            cfg,
            stats: BankStats::default(),
            faults: BankFaults::default(),
            nacks: NackStream::disabled(),
        }
    }

    /// Installs fault behaviour: throttle windows applied to later
    /// accesses, and a NACK stream seeded from the plan seed and this
    /// bank's `stream_index` (so banks draw independent, deterministic
    /// decision sequences).
    pub fn set_faults(&mut self, faults: BankFaults, seed: u64, stream_index: u64) {
        self.nacks = NackStream::new(seed, stream_index, faults.nack_ppm);
        self.faults = faults;
    }

    /// Draws the next NACK decision for an access arriving now. Callers
    /// that model retry semantics ask this *before* [`XdrBank::submit`];
    /// a `true` answer means the access was refused transiently and the
    /// requester must back off and retry. Always `false` without faults.
    #[inline]
    pub fn nack_roll(&mut self) -> bool {
        self.nacks.roll()
    }

    /// The bank's configuration.
    pub fn config(&self) -> &BankConfig {
        &self.cfg
    }

    /// Occupancy counters.
    pub fn stats(&self) -> &BankStats {
        &self.stats
    }

    /// Whether the bank will take new work at `now` (backlog horizon).
    #[inline]
    pub fn can_accept(&self, now: Cycle) -> bool {
        self.next_free.saturating_since(now) <= self.cfg.max_backlog_cycles
    }

    /// Earliest time at which [`XdrBank::can_accept`] becomes true.
    #[inline]
    pub fn next_accept_time(&self, now: Cycle) -> Cycle {
        if self.can_accept(now) {
            now
        } else {
            Cycle::new(
                self.next_free
                    .as_u64()
                    .saturating_sub(self.cfg.max_backlog_cycles),
            )
        }
    }

    /// Queues one access of `bytes` bytes and returns its timing.
    ///
    /// Callers that model backpressure should consult
    /// [`XdrBank::can_accept`] first; `submit` itself never refuses work.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    #[inline]
    pub fn submit(&mut self, now: Cycle, op: Op, bytes: u32) -> Access {
        assert!(bytes > 0, "zero-byte DRAM access");
        if self.next_free > now {
            self.stats.conflicts += 1;
        }
        let mut start = now.max(self.next_free);

        // Read/write turnaround.
        if self.last_op.is_some_and(|prev| prev != op) {
            start += self.cfg.turnaround_cycles;
            self.stats.turnaround_cycles += self.cfg.turnaround_cycles;
        }
        self.last_op = Some(op);

        // Refresh windows: every interval, the pipe stalls.
        while start >= self.next_refresh {
            start = start.max(self.next_refresh + self.cfg.refresh_cycles);
            self.next_refresh += self.cfg.refresh_interval;
            self.stats.refresh_cycles += self.cfg.refresh_cycles;
        }

        // Service time with fractional carry. Inside a throttle window
        // the pipe runs at reduced capacity.
        let capacity = self.faults.capacity_percent(start.as_u64());
        let rate = if capacity < 100 {
            self.cfg.bytes_per_cycle * f64::from(capacity) / 100.0
        } else {
            self.cfg.bytes_per_cycle
        };
        let exact = f64::from(bytes) / rate + self.debt;
        // `exact` is positive, so truncation is its floor, without a call
        // to the C library's `floor` on targets that lack a rounding
        // instruction.
        let service = exact as u64;
        self.debt = exact - service as f64;
        // Never let an access be free even if the carry says so.
        let service = service.max(1);

        let service_done = start + service;
        self.next_free = service_done;
        self.stats.accesses += 1;
        self.stats.bytes += u64::from(bytes);
        self.stats.busy_cycles += service;
        Access {
            start,
            service_done,
            data_ready: start + self.cfg.access_latency + service,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet(mut cfg: BankConfig) -> BankConfig {
        cfg.refresh_interval = u64::MAX / 4;
        cfg.turnaround_cycles = 0;
        cfg
    }

    #[test]
    fn back_to_back_reads_pipeline_at_pipe_rate() {
        let mut bank = XdrBank::new(quiet(BankConfig::local_xdr()));
        let a = bank.submit(Cycle::ZERO, Op::Read, 128);
        let b = bank.submit(Cycle::ZERO, Op::Read, 128);
        assert_eq!(a.service_done, Cycle::new(8));
        assert_eq!(b.start, Cycle::new(8));
        assert_eq!(b.service_done, Cycle::new(16));
        // Latency is pipelined: data_ready gap equals the service gap.
        assert_eq!(b.data_ready - a.data_ready, 8);
    }

    #[test]
    fn turnaround_penalizes_direction_flips() {
        let mut cfg = quiet(BankConfig::local_xdr());
        cfg.turnaround_cycles = 6;
        let mut bank = XdrBank::new(cfg);
        bank.submit(Cycle::ZERO, Op::Read, 128);
        let w = bank.submit(Cycle::ZERO, Op::Write, 128);
        assert_eq!(w.start, Cycle::new(14)); // 8 service + 6 turnaround
        let w2 = bank.submit(Cycle::ZERO, Op::Write, 128);
        assert_eq!(w2.start, Cycle::new(22)); // no penalty, same direction
        assert_eq!(bank.stats().turnaround_cycles, 6);
    }

    #[test]
    fn refresh_steals_cycles() {
        let mut cfg = quiet(BankConfig::local_xdr());
        cfg.refresh_interval = 100;
        cfg.refresh_cycles = 10;
        let mut bank = XdrBank::new(cfg);
        // Fill up to the refresh boundary.
        for _ in 0..13 {
            bank.submit(Cycle::ZERO, Op::Read, 128);
        }
        // 13 * 8 = 104 > 100: the access crossing the boundary stalls.
        let a = bank.submit(Cycle::ZERO, Op::Read, 128);
        assert!(a.start >= Cycle::new(110));
        assert_eq!(bank.stats().refresh_cycles, 10);
    }

    #[test]
    #[should_panic(expected = "refresh window must be shorter than the refresh interval")]
    fn a_refresh_window_filling_its_interval_is_refused() {
        let mut cfg = BankConfig::local_xdr();
        cfg.refresh_cycles = cfg.refresh_interval;
        XdrBank::new(cfg);
    }

    #[test]
    fn fractional_rate_is_exact_long_run() {
        let mut bank = XdrBank::new(quiet(BankConfig::remote_xdr()));
        let n = 1000u64;
        let mut last = Cycle::ZERO;
        for _ in 0..n {
            last = bank.submit(Cycle::ZERO, Op::Read, 128).service_done;
        }
        // 128 B / (20/3 B per cycle) = 19.2 cycles per access.
        let total = last.as_u64();
        assert!(
            (total as f64 - 19.2 * n as f64).abs() < 2.0,
            "total={total}"
        );
    }

    #[test]
    fn backlog_horizon_backpressures() {
        let mut bank = XdrBank::new(quiet(BankConfig::local_xdr()));
        assert!(bank.can_accept(Cycle::ZERO));
        for _ in 0..40 {
            bank.submit(Cycle::ZERO, Op::Write, 128);
        }
        // 40 * 8 = 320 cycles of backlog > 256 horizon.
        assert!(!bank.can_accept(Cycle::ZERO));
        let t = bank.next_accept_time(Cycle::ZERO);
        assert_eq!(t, Cycle::new(320 - 256));
        assert!(bank.can_accept(t));
    }

    #[test]
    fn throttle_window_slows_the_pipe() {
        use cellsim_faults::{DerateWindow, Window};
        let mut bank = XdrBank::new(quiet(BankConfig::local_xdr()));
        bank.set_faults(
            BankFaults {
                throttle: vec![DerateWindow {
                    window: Window {
                        start: 0,
                        cycles: 100,
                    },
                    capacity_percent: 50,
                }],
                nack_ppm: 0,
            },
            0,
            0,
        );
        // 128 B at half of 16 B/cycle: 16 service cycles, not 8.
        let a = bank.submit(Cycle::ZERO, Op::Read, 128);
        assert_eq!(a.service_done, Cycle::new(16));
        // Outside the window the pipe is healthy again.
        let b = bank.submit(Cycle::new(200), Op::Read, 128);
        assert_eq!(b.service_cycles(), 8);
    }

    #[test]
    fn nack_stream_is_deterministic_per_bank() {
        let mut a = XdrBank::new(quiet(BankConfig::local_xdr()));
        let mut b = XdrBank::new(quiet(BankConfig::local_xdr()));
        let faults = BankFaults {
            throttle: Vec::new(),
            nack_ppm: 300_000,
        };
        a.set_faults(faults.clone(), 9, 0);
        b.set_faults(faults, 9, 0);
        let rolls_a: Vec<bool> = (0..64).map(|_| a.nack_roll()).collect();
        let rolls_b: Vec<bool> = (0..64).map(|_| b.nack_roll()).collect();
        assert_eq!(rolls_a, rolls_b);
        assert!(rolls_a.iter().any(|&r| r));
        // A healthy bank never NACKs.
        let mut healthy = XdrBank::new(quiet(BankConfig::local_xdr()));
        assert!((0..64).all(|_| !healthy.nack_roll()));
    }

    #[test]
    fn small_access_still_costs_a_cycle() {
        let mut bank = XdrBank::new(quiet(BankConfig::local_xdr()));
        let a = bank.submit(Cycle::ZERO, Op::Read, 4);
        assert!(a.service_done > a.start);
    }

    #[test]
    #[should_panic(expected = "zero-byte")]
    fn zero_bytes_rejected() {
        let mut bank = XdrBank::new(BankConfig::local_xdr());
        bank.submit(Cycle::ZERO, Op::Read, 0);
    }
}
