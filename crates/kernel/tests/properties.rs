//! Property tests for the simulation kernel.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cellsim_kernel::stats::Summary;
use cellsim_kernel::{Cycle, EventQueue, MachineClock};
use proptest::prelude::*;

/// Reference model for the event queue: a `BinaryHeap` keyed by
/// `(time, push-sequence)`, the ordering contract the queue promises.
#[derive(Default)]
struct HeapModel {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    seq: u64,
}

impl HeapModel {
    fn push(&mut self, t: u64) -> u64 {
        let id = self.seq;
        self.seq += 1;
        self.heap.push(Reverse((t, id)));
        id
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        self.heap.pop().map(|Reverse(x)| x)
    }
}

/// One step of an interleaved schedule: push a burst of events at
/// `now + delta` for each delta, then pop `pops` events.
#[derive(Debug, Clone)]
struct Step {
    deltas: Vec<u64>,
    pops: usize,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    // Deltas mix same-cycle bursts (0), near-future, a band around the
    // calendar ring's 1024-cycle span (the last in-ring slot and the first
    // overflow times), and far-future spills (up to 2^40).
    let delta = prop_oneof![
        0u64..64,
        0u64..64,
        1020u64..1029,
        0u64..4096,
        0u64..1_000_000,
        0u64..(1u64 << 40),
    ];
    (proptest::collection::vec(delta, 0..12), 0usize..16)
        .prop_map(|(deltas, pops)| Step { deltas, pops })
}

proptest! {
    /// The event queue pops an arbitrary interleaved schedule in exactly
    /// the order of the `BinaryHeap` reference model: non-decreasing
    /// time, FIFO within a cycle — including same-cycle bursts, events
    /// either side of the ring's span, and far-future events that move
    /// from the overflow into the ring.
    #[test]
    fn wheel_matches_heap_reference(steps in proptest::collection::vec(step_strategy(), 1..40)) {
        let mut wheel = EventQueue::new();
        let mut model = HeapModel::default();
        let mut now = 0u64;
        for step in &steps {
            for &delta in &step.deltas {
                let t = now.saturating_add(delta);
                let id = model.push(t);
                wheel.push(Cycle::new(t), id);
            }
            for _ in 0..step.pops {
                let expected = model.pop();
                let actual = wheel.pop().map(|(t, id)| (t.as_u64(), id));
                prop_assert_eq!(actual, expected);
                if let Some((t, _)) = expected {
                    now = t; // later pushes are relative to the popped time
                }
            }
            prop_assert_eq!(wheel.len(), model.heap.len());
            prop_assert_eq!(
                wheel.peek_time().map(Cycle::as_u64),
                model.heap.peek().map(|Reverse((t, _))| *t)
            );
        }
        // Drain whatever is left; order must still agree.
        loop {
            let expected = model.pop();
            let actual = wheel.pop().map(|(t, id)| (t.as_u64(), id));
            prop_assert_eq!(actual, expected);
            if actual.is_none() {
                break;
            }
        }
    }

    /// The event queue delivers events exactly as a stable sort by time
    /// would.
    #[test]
    fn queue_matches_stable_sort(times in proptest::collection::vec(0u64..1000, 0..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Cycle::new(t), i);
        }
        let mut expected: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expected.sort_by_key(|&(t, _)| t); // stable: FIFO within a cycle
        let actual: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_u64(), e))).collect();
        prop_assert_eq!(actual, expected);
    }

    /// Popping never goes backwards in time.
    #[test]
    fn queue_time_is_monotone(times in proptest::collection::vec(0u64..500, 1..100)) {
        let mut q = EventQueue::new();
        for &t in &times {
            q.push(Cycle::new(t), ());
        }
        let mut last = Cycle::ZERO;
        while let Some((t, ())) = q.pop() {
            prop_assert!(t >= last);
            last = t;
        }
    }

    /// Summary agrees with a straightforward reference computation.
    #[test]
    fn summary_matches_reference(samples in proptest::collection::vec(0.0f64..1000.0, 1..50)) {
        let s = Summary::from_samples(&samples).unwrap();
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        prop_assert_eq!(s.min, min);
        prop_assert_eq!(s.max, max);
        prop_assert!((s.mean - mean).abs() < 1e-9);
        prop_assert!(s.min <= s.median && s.median <= s.max);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
        prop_assert_eq!(s.count, samples.len());
        prop_assert!(s.spread() >= 0.0);
    }

    /// Bandwidth conversion round-trips with seconds().
    #[test]
    fn bandwidth_is_consistent_with_seconds(bytes in 1u64..1_000_000, cycles in 1u64..1_000_000) {
        let clk = MachineClock::default();
        let direct = clk.gbytes_per_sec(bytes, cycles);
        let via_seconds = bytes as f64 / clk.seconds(cycles) / 1e9;
        prop_assert!((direct - via_seconds).abs() < 1e-9);
    }

    /// CPU→bus cycle conversion never loses work (always rounds up).
    #[test]
    fn cpu_to_bus_rounds_up(cpu in 0u64..1_000_000) {
        let clk = MachineClock::default();
        let bus = clk.cpu_to_bus_cycles(cpu);
        prop_assert!(bus * 2 >= cpu);
        prop_assert!(bus.saturating_sub(1) * 2 < cpu || cpu == 0);
    }
}
