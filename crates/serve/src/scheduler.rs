//! Admission, fairness, and in-flight dedup for the daemon's runs.
//!
//! The scheduler sits between connection threads and the shared
//! [`SweepExecutor`]. Three properties the executor alone cannot give a
//! multi-tenant daemon live here:
//!
//! * **Bounded admission** — a global high-water mark on queued runs.
//!   A batch that would push past it is rejected whole (`overloaded`),
//!   so one greedy client cannot make the daemon buffer unbounded work.
//! * **Fairness** — per-connection queues drained round-robin, one run
//!   at a time: a 1 000-run batch from one client does not starve a
//!   9-run batch from another; their runs interleave.
//! * **In-flight dedup** — the executor's run cache collapses a key
//!   *after* its first simulation completes, but two clients asking for
//!   the same key *concurrently* would both miss and simulate twice. A
//!   worker that pops a run whose key is already being simulated parks
//!   the run as a waiter instead; when the first simulation completes,
//!   every waiter is answered from the same result.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use cellsim_core::exec::{RunError, RunKey, RunSpec, SweepExecutor};
use cellsim_core::FabricReport;

use crate::protocol;

/// A connection's bounded, non-blocking response channel.
///
/// Scheduler workers are shared by every connection, so a send must
/// *never* block: a peer that stops reading would otherwise wedge the
/// workers for everyone. Sends go through `try_send` on a bounded
/// queue; the first overflow marks the connection **dead** — every
/// later send is dropped, and the writer thread, on noticing, writes a
/// final typed `slow-consumer` error line (best effort) and severs the
/// socket. A send to a vanished peer degrades the same way, minus the
/// goodbye.
pub struct ConnSink {
    tx: SyncSender<String>,
    dead: Arc<AtomicBool>,
    last_words: Arc<Mutex<Option<String>>>,
}

impl Clone for ConnSink {
    fn clone(&self) -> ConnSink {
        ConnSink {
            tx: self.tx.clone(),
            dead: Arc::clone(&self.dead),
            last_words: Arc::clone(&self.last_words),
        }
    }
}

impl ConnSink {
    /// A sink over a queue of at most `capacity` pending lines, plus
    /// the receiving end for the connection's writer thread.
    #[must_use]
    pub fn bounded(capacity: usize) -> (ConnSink, Receiver<String>) {
        let (tx, rx) = sync_channel(capacity.max(1));
        (
            ConnSink {
                tx,
                dead: Arc::new(AtomicBool::new(false)),
                last_words: Arc::new(Mutex::new(None)),
            },
            rx,
        )
    }

    /// Queues `line` for the writer; never blocks. Overflow kills the
    /// connection (see the type docs).
    pub fn send(&self, line: String) {
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        match self.tx.try_send(line) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                *self
                    .last_words
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner) = Some(protocol::error_line(
                    None,
                    "slow-consumer",
                    "response queue overflowed because the peer stopped reading; disconnecting",
                ));
                self.dead.store(true, Ordering::SeqCst);
            }
            Err(TrySendError::Disconnected(_)) => {
                self.dead.store(true, Ordering::SeqCst);
            }
        }
    }

    /// Whether the connection has been declared dead (slow consumer or
    /// vanished peer).
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }

    /// The writer thread's sender-free view of this sink. The writer
    /// must not hold a [`ConnSink`] clone: its embedded sender would
    /// keep the queue's channel open after every real sender hung up,
    /// and the writer would wait on its own sender forever.
    #[must_use]
    pub fn monitor(&self) -> ConnMonitor {
        ConnMonitor {
            dead: Arc::clone(&self.dead),
            last_words: Arc::clone(&self.last_words),
        }
    }
}

/// Liveness and the typed goodbye of a [`ConnSink`], without the
/// sender; see [`ConnSink::monitor`].
pub struct ConnMonitor {
    dead: Arc<AtomicBool>,
    last_words: Arc<Mutex<Option<String>>>,
}

impl ConnMonitor {
    /// Whether the connection has been declared dead.
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }

    /// Declares the connection dead (e.g. the writer's own socket write
    /// failed).
    pub fn mark_dead(&self) {
        self.dead.store(true, Ordering::SeqCst);
    }

    /// The pending typed goodbye, if an overflow left one (taken
    /// exactly once).
    pub fn take_last_words(&self) -> Option<String> {
        self.last_words
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }
}

/// One batch's delivery state, shared by all its jobs. Responses go out
/// through the owning connection's [`ConnSink`]; a send to a dead
/// connection is silently dropped (the simulation still completes and
/// populates the caches).
pub struct Batch {
    /// Client-chosen id, echoed on every line.
    pub id: String,
    /// The owning connection's response sink.
    pub out: ConnSink,
    /// The owning connection's id (per-connection stats tallies).
    pub conn: u64,
    /// Whether the batch asked for trace-store artifacts. A run is
    /// recorded when the job that *triggers* its simulation carries the
    /// flag; a recording batch whose key rides an already-in-flight
    /// unrecorded simulation gets its result without an artifact, and a
    /// later recording request for the same key re-simulates (the run
    /// dir gates cache hits on artifact completeness).
    pub record: bool,
    /// The owning connection's count of unfinished batches; the idle
    /// reaper leaves a connection alone while this is nonzero.
    active: Arc<AtomicUsize>,
    remaining: AtomicUsize,
    ok: AtomicUsize,
    failed: AtomicUsize,
}

impl Batch {
    /// A tracker expecting `runs` deliveries before `done` goes out.
    /// `active` is the owning connection's unfinished-batch count.
    #[must_use]
    pub fn new(
        id: String,
        out: ConnSink,
        conn: u64,
        record: bool,
        runs: usize,
        active: Arc<AtomicUsize>,
    ) -> Arc<Batch> {
        Arc::new(Batch {
            id,
            out,
            conn,
            record,
            active,
            remaining: AtomicUsize::new(runs),
            ok: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
        })
    }
}

/// One queued run: a spec plus where its answer goes.
pub struct Job {
    /// The simulation point.
    pub spec: RunSpec,
    /// Index into the request's `runs` array.
    pub index: usize,
    /// The batch this run belongs to.
    pub batch: Arc<Batch>,
}

/// Admission refusal: the queue is past its high-water mark.
pub struct Overloaded {
    /// Runs queued at refusal time.
    pub queued: usize,
    /// The configured mark.
    pub high_water: usize,
}

/// Why [`Scheduler::submit`] refused a batch.
pub enum SubmitError {
    /// The queue is past its high-water mark; retry later.
    Overloaded(Overloaded),
    /// The daemon is draining: finishing what it has, admitting
    /// nothing new.
    Draining,
}

/// One connection's lifetime tallies (survive the connection itself).
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnTally {
    /// The connection id.
    pub conn: u64,
    /// Runs admitted from this connection.
    pub accepted: u64,
    /// Runs answered to this connection.
    pub completed: u64,
}

/// Most connections tallied individually; beyond this, new connections
/// still serve but are no longer broken out in `per_connection`.
pub const MAX_TRACKED_CONNECTIONS: usize = 256;

/// Point-in-time scheduler counters (the `stats` response).
#[derive(Debug, Clone, Default)]
pub struct SchedulerStats {
    /// Runs admitted but not yet popped by a worker.
    pub queue_depth: usize,
    /// The admission high-water mark.
    pub high_water: usize,
    /// Deepest the queue has ever been (admitted, unstarted runs).
    pub queue_peak: usize,
    /// Distinct keys currently being simulated.
    pub inflight: usize,
    /// Runs answered by parking on another run's in-flight simulation.
    pub deduped: u64,
    /// Runs admitted since start.
    pub accepted: u64,
    /// Runs answered (result or failure) since start.
    pub completed: u64,
    /// Batches refused as overloaded since start.
    pub rejected: u64,
    /// Σ simulated `report.cycles` over every successful run answered —
    /// the daemon's uptime in simulated bus cycles.
    pub uptime_cycles: u64,
    /// Whether the scheduler is draining (reject-new, finish-in-flight).
    pub draining: bool,
    /// Per-connection accepted/completed tallies, ordered by connection
    /// id; capped at [`MAX_TRACKED_CONNECTIONS`] entries.
    pub per_connection: Vec<ConnTally>,
}

struct Inner {
    /// Pending jobs per connection. Invariant: a connection id is in
    /// `rotation` iff its queue here is non-empty.
    queues: HashMap<u64, VecDeque<Job>>,
    rotation: VecDeque<u64>,
    queued: usize,
    /// Deepest `queued` has ever been.
    queue_peak: usize,
    /// Keys being simulated right now → runs parked on the result.
    inflight: HashMap<RunKey, Vec<Job>>,
    /// Lifetime per-connection tallies (accepted, completed), bounded
    /// by [`MAX_TRACKED_CONNECTIONS`].
    tallies: BTreeMap<u64, (u64, u64)>,
    shutdown: bool,
}

impl Inner {
    /// The tally slot for `conn`, unless the cap would be exceeded.
    fn tally(&mut self, conn: u64) -> Option<&mut (u64, u64)> {
        if self.tallies.len() >= MAX_TRACKED_CONNECTIONS && !self.tallies.contains_key(&conn) {
            return None;
        }
        Some(self.tallies.entry(conn).or_default())
    }
}

/// The daemon's work queue; see the module docs for the invariants.
pub struct Scheduler {
    exec: Arc<SweepExecutor>,
    inner: Mutex<Inner>,
    work: Condvar,
    high_water: usize,
    draining: AtomicBool,
    deduped: AtomicU64,
    accepted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    uptime_cycles: AtomicU64,
}

impl Scheduler {
    /// A scheduler feeding `exec`, admitting at most `high_water`
    /// queued runs (minimum 1).
    #[must_use]
    pub fn new(exec: Arc<SweepExecutor>, high_water: usize) -> Scheduler {
        Scheduler {
            exec,
            inner: Mutex::new(Inner {
                queues: HashMap::new(),
                rotation: VecDeque::new(),
                queued: 0,
                queue_peak: 0,
                inflight: HashMap::new(),
                tallies: BTreeMap::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            high_water: high_water.max(1),
            draining: AtomicBool::new(false),
            deduped: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            uptime_cycles: AtomicU64::new(0),
        }
    }

    /// The executor every worker simulates on.
    #[must_use]
    pub fn executor(&self) -> &SweepExecutor {
        &self.exec
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits a whole batch or none of it. On success the `accepted`
    /// line is sent *under the queue lock*, before any worker can pop a
    /// job — guaranteeing it precedes every result line of the batch on
    /// the connection's channel.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Overloaded`] when the batch would push the queue
    /// past the high-water mark, [`SubmitError::Draining`] when the
    /// daemon is winding down; either way nothing is enqueued.
    pub fn submit(&self, conn: u64, batch: &Batch, jobs: Vec<Job>) -> Result<(), SubmitError> {
        if self.draining.load(Ordering::SeqCst) {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Draining);
        }
        let n = jobs.len();
        if n == 0 {
            batch.out.send(protocol::accepted_line(&batch.id, 0));
            batch.out.send(protocol::done_line(&batch.id, 0, 0));
            return Ok(());
        }
        {
            let mut inner = self.lock();
            if inner.queued + n > self.high_water {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::Overloaded(Overloaded {
                    queued: inner.queued,
                    high_water: self.high_water,
                }));
            }
            batch.active.fetch_add(1, Ordering::SeqCst);
            let queue = inner.queues.entry(conn).or_default();
            let was_empty = queue.is_empty();
            queue.extend(jobs);
            if was_empty {
                inner.rotation.push_back(conn);
            }
            inner.queued += n;
            inner.queue_peak = inner.queue_peak.max(inner.queued);
            if let Some(tally) = inner.tally(conn) {
                tally.0 += n as u64;
            }
            batch.out.send(protocol::accepted_line(&batch.id, n));
        }
        self.accepted.fetch_add(n as u64, Ordering::Relaxed);
        self.work.notify_all();
        Ok(())
    }

    /// Pops the next run, rotating across connections. Caller holds the
    /// lock.
    fn pop(inner: &mut Inner) -> Option<Job> {
        let conn = inner.rotation.pop_front()?;
        let queue = inner
            .queues
            .get_mut(&conn)
            .expect("rotation names a live queue");
        let job = queue.pop_front().expect("rotated queue is non-empty");
        if queue.is_empty() {
            inner.queues.remove(&conn);
        } else {
            inner.rotation.push_back(conn);
        }
        inner.queued -= 1;
        Some(job)
    }

    /// One worker: pop → dedup-or-simulate → deliver, forever. The pop
    /// and the in-flight check share one critical section, so between
    /// two concurrent requesters of a key exactly one simulates and the
    /// other parks — never both. Every run returns: its size was bounded
    /// when the request was decoded, and a stall ends inside the fabric
    /// as a typed [`RunError::Stall`].
    fn worker(&self) {
        loop {
            let job = {
                let mut inner = self.lock();
                loop {
                    if inner.shutdown {
                        return;
                    }
                    if let Some(job) = Self::pop(&mut inner) {
                        if let Some(waiters) = inner.inflight.get_mut(&job.spec.key) {
                            self.deduped.fetch_add(1, Ordering::Relaxed);
                            waiters.push(job);
                            continue;
                        }
                        inner.inflight.insert(job.spec.key.clone(), Vec::new());
                        break job;
                    }
                    inner = self
                        .work
                        .wait(inner)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            let key = job.spec.key.clone();
            let result = self
                .exec
                .try_run_recorded(vec![job.spec.clone()], job.batch.record)
                .pop()
                .expect("one result per submitted spec");
            // The wire carries the typed error; drain the executor's copy
            // so a resident daemon never accumulates failures.
            let _ = self.exec.take_failures();
            let waiters = self.lock().inflight.remove(&key).unwrap_or_default();
            self.deliver(&job, &result);
            for waiter in &waiters {
                self.deliver(waiter, &result);
            }
        }
    }

    /// Sends the run's line and, when it was the batch's last, `done`.
    fn deliver(&self, job: &Job, result: &Result<Arc<FabricReport>, RunError>) {
        let batch = &job.batch;
        let line = match result {
            Ok(report) => {
                batch.ok.fetch_add(1, Ordering::Relaxed);
                self.uptime_cycles
                    .fetch_add(report.cycles, Ordering::Relaxed);
                protocol::result_line(&batch.id, job.index, &job.spec.key, report)
            }
            Err(error) => {
                batch.failed.fetch_add(1, Ordering::Relaxed);
                protocol::failed_line(&batch.id, job.index, error)
            }
        };
        batch.out.send(line);
        self.completed.fetch_add(1, Ordering::Relaxed);
        if let Some(tally) = self.lock().tally(batch.conn) {
            tally.1 += 1;
        }
        if batch.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            batch.out.send(protocol::done_line(
                &batch.id,
                batch.ok.load(Ordering::Relaxed),
                batch.failed.load(Ordering::Relaxed),
            ));
            batch.active.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Spawns `workers` simulation threads draining this scheduler.
    pub fn start(self: &Arc<Scheduler>, workers: usize) -> Vec<JoinHandle<()>> {
        (0..workers.max(1))
            .map(|i| {
                let sched = Arc::clone(self);
                std::thread::Builder::new()
                    .name(format!("cellsim-serve-worker-{i}"))
                    .spawn(move || sched.worker())
                    .expect("worker thread spawns")
            })
            .collect()
    }

    /// Flips the scheduler into drain mode: every later [`submit`]
    /// is refused with [`SubmitError::Draining`]; already-admitted work
    /// keeps running to completion.
    ///
    /// [`submit`]: Scheduler::submit
    pub fn drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Whether [`Scheduler::drain`] has been called.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Whether nothing is queued and nothing is simulating — every
    /// admitted run has been delivered (a drained daemon may exit).
    #[must_use]
    pub fn is_idle(&self) -> bool {
        let inner = self.lock();
        inner.queued == 0 && inner.inflight.is_empty()
    }

    /// Tells every worker to exit once its current run completes.
    /// Dedup-parked waiters ride their in-flight simulation to a normal
    /// delivery; queued-but-unstarted runs are dropped, but each
    /// affected batch is told so with one typed `shutting-down` error
    /// line — a client never sees a silent EOF for work the daemon
    /// accepted.
    pub fn shutdown(&self) {
        let orphans: Vec<Job> = {
            let mut inner = self.lock();
            inner.shutdown = true;
            inner.rotation.clear();
            inner.queued = 0;
            inner.queues.drain().flat_map(|(_, queue)| queue).collect()
        };
        self.work.notify_all();
        // One goodbye per distinct batch (a batch's jobs share one Arc).
        let mut told: Vec<*const Batch> = Vec::new();
        for job in &orphans {
            let batch = Arc::as_ptr(&job.batch);
            if !told.contains(&batch) {
                told.push(batch);
                job.batch
                    .out
                    .send(protocol::shutting_down_line(&job.batch.id));
                job.batch.active.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }

    /// Counter snapshot for the `stats` response.
    #[must_use]
    pub fn stats(&self) -> SchedulerStats {
        let inner = self.lock();
        SchedulerStats {
            queue_depth: inner.queued,
            high_water: self.high_water,
            queue_peak: inner.queue_peak,
            inflight: inner.inflight.len(),
            deduped: self.deduped.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            uptime_cycles: self.uptime_cycles.load(Ordering::Relaxed),
            draining: self.draining.load(Ordering::SeqCst),
            per_connection: inner
                .tallies
                .iter()
                .map(|(&conn, &(accepted, completed))| ConnTally {
                    conn,
                    accepted,
                    completed,
                })
                .collect(),
        }
    }
}
