//! Simulated time and clock conversions.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in **bus cycles**.
///
/// The Cell's Element Interconnect Bus and every shared structure attached
/// to it are clocked at half the CPU frequency, so the bus cycle is the
/// natural unit for bandwidth experiments. Use [`MachineClock`] to convert
/// cycle counts into seconds or GB/s.
///
/// `Cycle` is a transparent newtype over `u64`; adding a `u64` advances the
/// clock by that many cycles.
///
/// ```
/// use cellsim_kernel::Cycle;
/// let t = Cycle::new(100) + 28;
/// assert_eq!(t.as_u64(), 128);
/// assert_eq!(t - Cycle::new(100), 28);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(u64);

// Every layer compares and advances time stamps on its per-packet path,
// from other crates, so the small methods below are `#[inline]`. This is
// the cross-crate inlining rule of DESIGN.md "Simulator hot paths": what
// the fabric calls per packet in another crate is `#[inline]`, and the
// Cargo profiles stay untouched.
impl Cycle {
    /// Time zero: the start of every simulation.
    pub const ZERO: Cycle = Cycle(0);

    /// Creates a time stamp at `cycles` bus cycles.
    pub const fn new(cycles: u64) -> Self {
        Cycle(cycles)
    }

    /// Returns the raw cycle count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the later of two time stamps.
    #[inline]
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }

    /// Returns the earlier of two time stamps.
    #[inline]
    pub fn min(self, other: Cycle) -> Cycle {
        Cycle(self.0.min(other.0))
    }

    /// Cycles elapsed since `earlier`, saturating at zero if `earlier` is
    /// actually later than `self`.
    #[inline]
    pub fn saturating_since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;
    /// Elapsed cycles between two stamps.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: Cycle) -> u64 {
        debug_assert!(self.0 >= rhs.0, "negative cycle difference");
        self.0 - rhs.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} bus-cycles", self.0)
    }
}

impl From<u64> for Cycle {
    fn from(v: u64) -> Self {
        Cycle(v)
    }
}

/// Frequency description of a simulated Cell machine.
///
/// The ISPASS 2007 blade runs the CPU at 2.1 GHz with the bus at half that,
/// which is the [`MachineClock::default`]. Bandwidths in this crate follow
/// the STREAM convention: 1 GB = 10⁹ bytes.
///
/// ```
/// use cellsim_kernel::MachineClock;
/// let clk = MachineClock::default();
/// // One ramp port moves 16 bytes per bus cycle = 16.8 GB/s.
/// let gbps = clk.gbytes_per_sec(16, 1);
/// assert!((gbps - 16.8).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineClock {
    cpu_hz: f64,
    bus_divisor: u32,
}

impl MachineClock {
    /// Creates a clock from a CPU frequency in Hz and the CPU→bus divisor.
    ///
    /// # Panics
    ///
    /// Panics if `cpu_hz` is not finite and positive, or `bus_divisor` is 0.
    pub fn new(cpu_hz: f64, bus_divisor: u32) -> Self {
        assert!(
            cpu_hz.is_finite() && cpu_hz > 0.0,
            "cpu frequency must be positive"
        );
        assert!(bus_divisor > 0, "bus divisor must be non-zero");
        MachineClock {
            cpu_hz,
            bus_divisor,
        }
    }

    /// CPU frequency in Hz.
    pub fn cpu_hz(&self) -> f64 {
        self.cpu_hz
    }

    /// Bus frequency in Hz (CPU frequency over the divisor).
    pub fn bus_hz(&self) -> f64 {
        self.cpu_hz / f64::from(self.bus_divisor)
    }

    /// Converts a span of bus cycles into seconds.
    pub fn seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.bus_hz()
    }

    /// Sustained bandwidth in GB/s (10⁹ bytes per second) for `bytes`
    /// moved over `cycles` bus cycles. Returns 0.0 when `cycles` is 0.
    pub fn gbytes_per_sec(&self, bytes: u64, cycles: u64) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        bytes as f64 / self.seconds(cycles) / 1e9
    }

    /// Converts CPU cycles to bus cycles, rounding up so that work never
    /// completes early.
    pub fn cpu_to_bus_cycles(&self, cpu_cycles: u64) -> u64 {
        cpu_cycles.div_ceil(u64::from(self.bus_divisor))
    }
}

impl Default for MachineClock {
    /// The ISPASS 2007 blade: 2.1 GHz CPU, bus at half speed.
    fn default() -> Self {
        MachineClock::new(2.1e9, 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic_round_trips() {
        let t = Cycle::new(5) + 7;
        assert_eq!(t, Cycle::new(12));
        assert_eq!(t - Cycle::new(5), 7);
        assert_eq!(t.saturating_since(Cycle::new(20)), 0);
    }

    #[test]
    fn cycle_orders_and_compares() {
        assert!(Cycle::new(1) < Cycle::new(2));
        assert_eq!(Cycle::new(3).max(Cycle::new(9)), Cycle::new(9));
        assert_eq!(Cycle::new(3).min(Cycle::new(9)), Cycle::new(3));
    }

    #[test]
    fn default_clock_matches_the_paper() {
        let clk = MachineClock::default();
        assert_eq!(clk.cpu_hz(), 2.1e9);
        assert_eq!(clk.bus_hz(), 1.05e9);
        // 16 B per bus cycle is the per-port EIB peak: 16.8 GB/s.
        assert!((clk.gbytes_per_sec(16, 1) - 16.8).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_is_zero_bandwidth() {
        assert_eq!(MachineClock::default().gbytes_per_sec(1024, 0), 0.0);
    }

    #[test]
    fn cpu_to_bus_rounds_up() {
        let clk = MachineClock::default();
        assert_eq!(clk.cpu_to_bus_cycles(0), 0);
        assert_eq!(clk.cpu_to_bus_cycles(1), 1);
        assert_eq!(clk.cpu_to_bus_cycles(2), 1);
        assert_eq!(clk.cpu_to_bus_cycles(3), 2);
    }

    #[test]
    #[should_panic(expected = "bus divisor")]
    fn zero_divisor_panics() {
        let _ = MachineClock::new(1e9, 0);
    }
}
