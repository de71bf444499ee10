//! Generic discrete-event simulation engine.

use crate::{Cycle, EventQueue};

/// A simulated system driven by events.
///
/// Implementors own all mutable state of the machine being simulated; the
/// engine owns time. [`Model::handle`] receives each event in time order
/// together with a [`Scheduler`] used to enqueue follow-up events.
///
/// See the [crate-level example](crate) for a complete simulation.
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Processes one event at simulated time `now`.
    fn handle(&mut self, now: Cycle, event: Self::Event, sched: &mut Scheduler<'_, Self::Event>);
}

/// Handle used by a [`Model`] to schedule future events.
///
/// Events go straight into the simulation's queue. No event is popped
/// while a `handle` call runs, so they are delivered exactly as if
/// committed after it returns; scheduling in the past is a bug and panics.
#[derive(Debug)]
pub struct Scheduler<'q, E> {
    now: Cycle,
    queue: &'q mut EventQueue<E>,
}

impl<E> Scheduler<'_, E> {
    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulation time: a
    /// discrete-event simulation must never travel backwards.
    pub fn schedule(&mut self, at: Cycle, event: E) {
        self.queue.push(at, event);
    }

    /// Schedules `event` `delay` cycles from now.
    ///
    /// # Panics
    ///
    /// Panics if `now + delay` overflows the cycle counter: a wrapped
    /// time stamp would land in the past and corrupt delivery order.
    pub fn schedule_in(&mut self, delay: u64, event: E) {
        let at = self
            .now
            .as_u64()
            .checked_add(delay)
            .map(Cycle::new)
            .expect("event delay overflows the cycle counter");
        self.schedule(at, event);
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }
}

/// How a guarded run ([`Simulation::run_guarded`]) ended.
///
/// The two non-completion outcomes are the progress watchdog firing: the
/// simulation either walked past its time horizon or churned events
/// without simulated time advancing. Both carry the time the run stopped
/// at; the model state is intact for diagnosis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained; the simulation completed at this time.
    Drained(Cycle),
    /// The next pending event lies beyond the limit: the simulation is
    /// still generating work past its safety horizon.
    HorizonExceeded(Cycle),
    /// More than the allowed number of events fired without simulated
    /// time advancing — a zero-delay event storm (livelock).
    Stagnant(Cycle),
}

/// The engine: an event queue plus a [`Model`].
///
/// Construct with [`Simulation::new`], seed initial events with
/// [`Simulation::schedule`], then call [`Simulation::run`] (to exhaustion)
/// or [`Simulation::run_until`]. [`Simulation::run_guarded`] adds a
/// progress watchdog for models that must not hang.
pub struct Simulation<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
    now: Cycle,
    processed: u64,
    /// `processed` as of the last event that advanced simulated time —
    /// the progress watchdog's reference point.
    progress_mark: u64,
}

impl<M: Model> Simulation<M> {
    /// Creates a simulation at time zero around `model`.
    pub fn new(model: M) -> Self {
        Simulation {
            model,
            queue: EventQueue::new(),
            now: Cycle::ZERO,
            processed: 0,
            progress_mark: 0,
        }
    }

    /// Schedules an initial event.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn schedule(&mut self, at: Cycle, event: M::Event) {
        self.queue.push(at, event);
    }

    /// Runs until the event queue is empty. Returns the final time.
    pub fn run(&mut self) -> Cycle {
        self.run_until(Cycle::new(u64::MAX))
    }

    /// Runs until the queue is empty or the next event is after `limit`.
    ///
    /// Events *at* `limit` are processed. Returns the current time, which is
    /// the time of the last processed event (or the starting time if nothing
    /// ran).
    pub fn run_until(&mut self, limit: Cycle) -> Cycle {
        match self.run_guarded(limit, u64::MAX) {
            RunOutcome::Drained(t) | RunOutcome::HorizonExceeded(t) | RunOutcome::Stagnant(t) => t,
        }
    }

    /// Runs with a progress watchdog: stops when the queue drains, when
    /// the next event lies beyond `limit`, or when more than
    /// `max_stagnant_events` consecutive events fire without simulated
    /// time advancing.
    ///
    /// Events *at* `limit` are processed. On a non-[`RunOutcome::Drained`]
    /// outcome the model is left exactly as the last processed event left
    /// it, so callers can inspect it to diagnose the stall.
    pub fn run_guarded(&mut self, limit: Cycle, max_stagnant_events: u64) -> RunOutcome {
        while let Some(at) = self.queue.peek_time() {
            if at > limit {
                return RunOutcome::HorizonExceeded(self.now);
            }
            let (at, event) = self.queue.pop().expect("peeked event vanished");
            debug_assert!(at >= self.now, "event queue returned stale event");
            if at > self.now {
                self.progress_mark = self.processed;
            }
            self.now = at;
            self.processed += 1;
            let mut sched = Scheduler {
                now: at,
                queue: &mut self.queue,
            };
            self.model.handle(at, event, &mut sched);
            if self.events_since_progress() > max_stagnant_events {
                return RunOutcome::Stagnant(self.now);
            }
        }
        RunOutcome::Drained(self.now)
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// The time of the most recently processed event — the watchdog's
    /// notion of when the simulation last did anything.
    pub fn last_event_cycle(&self) -> Cycle {
        self.now
    }

    /// Events processed since simulated time last advanced. Large values
    /// mean the model is churning through a zero-delay event storm.
    pub fn events_since_progress(&self) -> u64 {
        self.processed - self.progress_mark
    }

    /// Shared access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Exclusive access to the model (for instrumenting between phases).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consumes the simulation and returns the model.
    pub fn into_model(self) -> M {
        self.model
    }
}

impl<M: Model> std::fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("processed", &self.processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Chain {
        hops: u32,
        done_at: Option<Cycle>,
    }

    enum Ev {
        Hop,
        Done,
    }

    impl Model for Chain {
        type Event = Ev;
        fn handle(&mut self, now: Cycle, event: Ev, sched: &mut Scheduler<Ev>) {
            match event {
                Ev::Hop => {
                    self.hops += 1;
                    if self.hops == 5 {
                        sched.schedule_in(3, Ev::Done);
                    } else {
                        sched.schedule(now + 2, Ev::Hop);
                    }
                }
                Ev::Done => self.done_at = Some(now),
            }
        }
    }

    #[test]
    fn chained_events_advance_time() {
        let mut sim = Simulation::new(Chain {
            hops: 0,
            done_at: None,
        });
        sim.schedule(Cycle::ZERO, Ev::Hop);
        let end = sim.run();
        assert_eq!(sim.model().hops, 5);
        // Hops at 0,2,4,6,8; done at 11.
        assert_eq!(sim.model().done_at, Some(Cycle::new(11)));
        assert_eq!(end, Cycle::new(11));
        assert_eq!(sim.events_processed(), 6);
    }

    #[test]
    fn run_until_stops_at_limit_inclusive() {
        let mut sim = Simulation::new(Chain {
            hops: 0,
            done_at: None,
        });
        sim.schedule(Cycle::ZERO, Ev::Hop);
        sim.run_until(Cycle::new(4));
        // Events at 0, 2, 4 processed; 6 pending.
        assert_eq!(sim.model().hops, 3);
        assert_eq!(sim.now(), Cycle::new(4));
        sim.run();
        assert_eq!(sim.model().hops, 5);
    }

    #[test]
    fn guarded_run_completes_like_run() {
        let mut sim = Simulation::new(Chain {
            hops: 0,
            done_at: None,
        });
        sim.schedule(Cycle::ZERO, Ev::Hop);
        let out = sim.run_guarded(Cycle::new(100), 10);
        assert_eq!(out, RunOutcome::Drained(Cycle::new(11)));
        assert_eq!(sim.last_event_cycle(), Cycle::new(11));
    }

    #[test]
    fn guarded_run_reports_horizon_exceeded() {
        struct Forever;
        impl Model for Forever {
            type Event = ();
            fn handle(&mut self, now: Cycle, (): (), sched: &mut Scheduler<()>) {
                sched.schedule(now + 5, ());
            }
        }
        let mut sim = Simulation::new(Forever);
        sim.schedule(Cycle::ZERO, ());
        let out = sim.run_guarded(Cycle::new(17), 1000);
        // Events at 0, 5, 10, 15 processed; 20 is beyond the horizon.
        assert_eq!(out, RunOutcome::HorizonExceeded(Cycle::new(15)));
        assert_eq!(sim.events_processed(), 4);
    }

    #[test]
    fn guarded_run_reports_zero_delay_storms() {
        struct Storm;
        impl Model for Storm {
            type Event = ();
            fn handle(&mut self, now: Cycle, (): (), sched: &mut Scheduler<()>) {
                sched.schedule(now, ()); // never advances time
            }
        }
        let mut sim = Simulation::new(Storm);
        sim.schedule(Cycle::new(3), ());
        let out = sim.run_guarded(Cycle::new(100), 50);
        assert_eq!(out, RunOutcome::Stagnant(Cycle::new(3)));
        assert!(sim.events_since_progress() > 50);
    }

    #[test]
    #[should_panic(expected = "delay overflows")]
    fn schedule_in_overflow_panics() {
        // Regression: `now + delay` used to wrap silently, enqueueing an
        // event in the distant past and corrupting delivery order.
        struct Wrap;
        impl Model for Wrap {
            type Event = ();
            fn handle(&mut self, _now: Cycle, (): (), sched: &mut Scheduler<()>) {
                sched.schedule_in(u64::MAX, ());
            }
        }
        let mut sim = Simulation::new(Wrap);
        sim.schedule(Cycle::new(1), ());
        sim.run();
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        struct Bad;
        impl Model for Bad {
            type Event = ();
            fn handle(&mut self, now: Cycle, _: (), sched: &mut Scheduler<()>) {
                if now > Cycle::ZERO {
                    sched.schedule(Cycle::ZERO, ());
                }
            }
        }
        let mut sim = Simulation::new(Bad);
        sim.schedule(Cycle::new(5), ());
        sim.run();
    }
}
