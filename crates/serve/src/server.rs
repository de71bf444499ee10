//! The daemon itself: TCP accept loop, per-connection reader/writer
//! threads, and the `stats` snapshot.
//!
//! Each connection gets a reader thread (this function) and a writer
//! thread draining a bounded [`ConnSink`] queue; scheduler workers push
//! result lines into the same queue, so one stream carries interleaved
//! responses for every batch the connection has in flight, each line
//! tagged with its batch id. A client that disconnects mid-stream just
//! makes the sink's sends no-ops — its running simulations still
//! complete and warm the shared caches for everyone else.
//!
//! With a run directory ([`ServeOptions::run_dir`]) the daemon records
//! every run it simulates, as `repro --run-dir` does; a batch's
//! `"record":true` only asserts that it does.
//!
//! Hardening (the knobs are [`ServeOptions`]):
//!
//! * **Bounded request lines** — a request line longer than
//!   [`MAX_LINE_BYTES`] gets a typed `protocol` error and the
//!   connection is closed (see [`LineReader`]): the daemon half-closes,
//!   discards a bounded amount of further input until the peer closes,
//!   then closes, so the error line is not lost to a reset.
//! * **Bounded writers, typed slow-consumer disconnect** — a peer that
//!   stops reading overflows its bounded response queue; the writer
//!   sends one final `slow-consumer` error line (best effort) and
//!   severs the socket, instead of buffering without limit or wedging
//!   the shared scheduler workers.
//! * **Bounded runs** (always on) — every run's volume and cost are
//!   checked when its request is decoded (see [`protocol`]), so no
//!   admitted run can exhaust memory or outrun the paper's largest
//!   point; stalls end inside the fabric as typed `stall` failures.
//! * **Graceful drain** — [`ServeHandle::drain`] (SIGTERM in the
//!   binary) or an in-band `{"op":"drain"}` flips the daemon to
//!   reject-new/finish-in-flight; once idle (or after `drain_grace`)
//!   the accept loop exits cleanly, appending a final stats snapshot.

use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cellsim_core::exec::SweepExecutor;
use cellsim_core::json::Writer;

use crate::framing::{LineRead, LineReader};
use crate::protocol::{self, Request, MAX_LINE_BYTES};
use crate::scheduler::{Batch, ConnSink, Job, Scheduler, SubmitError};

/// Input the daemon discards, after answering an over-long request line,
/// before it closes the connection. Closing a socket with unread input
/// makes the kernel reset the connection, and a reset can destroy the
/// error line before the peer reads it.
const OVER_LONG_DISCARD_BYTES: u64 = 4 * MAX_LINE_BYTES as u64;

/// Daemon construction knobs; `Default` is a sensible single-host setup.
pub struct ServeOptions {
    /// Has no effect: the scheduler submits one-spec batches, so the
    /// executor never runs more than one thread per batch. Run
    /// concurrency is [`ServeOptions::workers`].
    pub jobs: usize,
    /// Scheduler worker threads — concurrent runs in flight (`0` = all
    /// cores). Each worker drives one run at a time through the shared
    /// executor.
    pub workers: usize,
    /// Persistent content-addressed cache directory, shared freely with
    /// concurrent daemons and `repro --cache-dir` invocations.
    pub cache_dir: Option<PathBuf>,
    /// Admission high-water mark: most queued (admitted, unstarted)
    /// runs before batches are rejected as overloaded.
    pub high_water: usize,
    /// Trace-store run directory: every run the daemon simulates
    /// persists one artifact here (same layout and rule as
    /// `repro --run-dir`). `None` refuses batches that send
    /// `"record":true`.
    pub run_dir: Option<PathBuf>,
    /// Stats-history log: every `stats_interval`, one `stats` snapshot
    /// line (identical to the wire response) is appended here, plus a
    /// final snapshot at shutdown.
    pub stats_log: Option<PathBuf>,
    /// Interval between appended stats snapshots.
    pub stats_interval: Duration,
    /// Socket write deadline for the connection writer; a single write
    /// blocked this long marks the peer a slow consumer. `None` blocks
    /// indefinitely (the bounded queue still protects the workers).
    pub write_timeout: Option<Duration>,
    /// How long a draining daemon waits for in-flight work before
    /// exiting anyway.
    pub drain_grace: Duration,
    /// Most response lines queued per connection before the peer is
    /// declared a slow consumer.
    pub writer_queue: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            jobs: 0,
            workers: 0,
            cache_dir: None,
            high_water: 4096,
            run_dir: None,
            stats_log: None,
            stats_interval: Duration::from_secs(60),
            write_timeout: None,
            drain_grace: Duration::from_secs(30),
            writer_queue: 1024,
        }
    }
}

/// Live sockets by connection id, so [`ServeHandle::kill`] can sever
/// every conversation at once (the crash-test lever); its size is the
/// `stats` `connections` count.
type ConnRegistry = Arc<Mutex<HashMap<u64, TcpStream>>>;

/// A bound, not-yet-serving daemon. [`Server::serve`] blocks; grab a
/// [`Server::handle`] first to stop it from another thread.
pub struct Server {
    listener: TcpListener,
    scheduler: Arc<Scheduler>,
    workers: Vec<JoinHandle<()>>,
    conns: ConnRegistry,
    next_conn: AtomicU64,
    stopping: Arc<AtomicBool>,
    started: Instant,
    stats_log: Option<PathBuf>,
    stats_interval: Duration,
    write_timeout: Option<Duration>,
    drain_grace: Duration,
    writer_queue: usize,
}

/// Remote control for a serving daemon.
#[derive(Clone)]
pub struct ServeHandle {
    addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    scheduler: Arc<Scheduler>,
    conns: ConnRegistry,
}

impl ServeHandle {
    /// Asks the accept loop to exit. Existing connections finish their
    /// in-flight runs; queued-but-unstarted runs get a typed
    /// `shutting-down` error.
    pub fn shutdown(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }

    /// Begins a graceful drain: new batches are refused with reason
    /// `draining`, admitted work runs to completion, and the serve loop
    /// exits once idle (or when the drain grace expires). The wire twin
    /// is `{"op":"drain"}`; the binary maps SIGTERM here.
    pub fn drain(&self) {
        self.scheduler.drain();
    }

    /// Kills the daemon the unceremonious way: stops accepting and
    /// severs every live connection mid-sentence. In-process stand-in
    /// for `kill -9` in crash-recovery tests — clients see a dropped
    /// socket, exactly as if the process had died.
    pub fn kill(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        for stream in self
            .conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
        {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let _ = TcpStream::connect(self.addr);
    }
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts the scheduler workers. The socket is listening when this
    /// returns; call [`Server::serve`] to start accepting.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from binding or from opening the cache
    /// directory.
    pub fn bind<A: ToSocketAddrs>(addr: A, opts: &ServeOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        // One executor thread: every batch the scheduler submits holds
        // one spec.
        let mut exec = match &opts.cache_dir {
            Some(dir) => SweepExecutor::with_cache_dir(1, dir)?,
            None => SweepExecutor::new(1),
        };
        if let Some(dir) = &opts.run_dir {
            exec.set_run_dir(dir)?;
        }
        let exec = Arc::new(exec);
        let scheduler = Arc::new(Scheduler::new(exec, opts.high_water));
        let workers = if opts.workers == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            opts.workers
        };
        let workers = scheduler.start(workers);
        Ok(Server {
            listener,
            scheduler,
            workers,
            conns: Arc::new(Mutex::new(HashMap::new())),
            next_conn: AtomicU64::new(0),
            stopping: Arc::new(AtomicBool::new(false)),
            started: Instant::now(),
            stats_log: opts.stats_log.clone(),
            stats_interval: opts.stats_interval.max(Duration::from_millis(10)),
            write_timeout: opts.write_timeout,
            drain_grace: opts.drain_grace,
            writer_queue: opts.writer_queue.max(1),
        })
    }

    /// The bound address (the ephemeral port after `:0`).
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from the socket.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop, drain, or kill [`Server::serve`] from
    /// another thread.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from reading the bound address.
    pub fn handle(&self) -> std::io::Result<ServeHandle> {
        Ok(ServeHandle {
            addr: self.listener.local_addr()?,
            stopping: Arc::clone(&self.stopping),
            scheduler: Arc::clone(&self.scheduler),
            conns: Arc::clone(&self.conns),
        })
    }

    /// Accepts connections until [`ServeHandle::shutdown`] (or a drain
    /// completes), spawning a reader/writer thread pair per connection.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from `accept` (per-connection I/O errors
    /// only close that connection).
    pub fn serve(self) -> std::io::Result<()> {
        // A stats thread that fails to spawn costs the history log, not
        // the daemon: log once and keep serving.
        let stats_thread = self.stats_log.as_ref().and_then(|path| {
            let path = path.clone();
            let scheduler = Arc::clone(&self.scheduler);
            let conns = Arc::clone(&self.conns);
            let stopping = Arc::clone(&self.stopping);
            let interval = self.stats_interval;
            let started = self.started;
            std::thread::Builder::new()
                .name("cellsim-serve-stats".to_string())
                .spawn(move || {
                    stats_history(&path, &scheduler, &conns, &stopping, interval, started);
                })
                .map_err(|e| eprintln!("cellsim-serve: could not spawn stats thread: {e}"))
                .ok()
        });
        let drain_monitor = self.spawn_drain_monitor();
        for stream in self.listener.incoming() {
            if self.stopping.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream?;
            let conn = self.next_conn.fetch_add(1, Ordering::Relaxed);
            if let Ok(clone) = stream.try_clone() {
                self.conns
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(conn, clone);
            }
            let ctx = ConnContext {
                scheduler: Arc::clone(&self.scheduler),
                conns: Arc::clone(&self.conns),
                conn,
                started: self.started,
                write_timeout: self.write_timeout,
                writer_queue: self.writer_queue,
            };
            let spawned = std::thread::Builder::new()
                .name(format!("cellsim-serve-conn-{conn}"))
                .spawn(move || {
                    serve_connection(&ctx, stream);
                    ctx.conns
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .remove(&conn);
                });
            if spawned.is_err() {
                self.conns
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .remove(&conn);
            }
        }
        self.stopping.store(true, Ordering::SeqCst);
        if let Some(thread) = stats_thread {
            let _ = thread.join();
        }
        self.scheduler.shutdown();
        for worker in self.workers {
            let _ = worker.join();
        }
        if let Some(monitor) = drain_monitor {
            let _ = monitor.join();
        }
        Ok(())
    }

    /// Watches for a drain request and, once the scheduler has gone
    /// idle (or the grace expired), stops the accept loop. A short
    /// settle pause lets final `done` lines flush through the writer
    /// queues before the process is free to exit.
    fn spawn_drain_monitor(&self) -> Option<JoinHandle<()>> {
        let handle = self.handle().ok()?;
        let scheduler = Arc::clone(&self.scheduler);
        let stopping = Arc::clone(&self.stopping);
        let grace = self.drain_grace;
        std::thread::Builder::new()
            .name("cellsim-serve-drain".to_string())
            .spawn(move || {
                let poll = Duration::from_millis(25);
                while !scheduler.is_draining() {
                    if stopping.load(Ordering::SeqCst) {
                        return;
                    }
                    std::thread::sleep(poll);
                }
                let deadline = Instant::now() + grace;
                while !scheduler.is_idle() && Instant::now() < deadline {
                    if stopping.load(Ordering::SeqCst) {
                        return;
                    }
                    std::thread::sleep(poll);
                }
                std::thread::sleep(Duration::from_millis(150));
                handle.shutdown();
            })
            .ok()
    }
}

/// Appends one `stats` snapshot line per interval (and a final one at
/// shutdown) to `path`. The sleep is chopped into 100 ms steps so the
/// thread notices shutdown promptly; an unwritable log is reported once
/// per failed append on stderr and never affects serving. Appends go
/// through the injectable-I/O seam, so disk chaos tests cover the log
/// too.
fn stats_history(
    path: &std::path::Path,
    scheduler: &Arc<Scheduler>,
    conns: &ConnRegistry,
    stopping: &AtomicBool,
    interval: Duration,
    started: Instant,
) {
    let append = |line: &str| {
        if let Err(e) = cellsim_core::iofault::append_line(path, line) {
            eprintln!("cellsim-serve: stats log {}: {e}", path.display());
        }
    };
    loop {
        let mut slept = Duration::ZERO;
        while slept < interval {
            if stopping.load(Ordering::SeqCst) {
                append(&stats_line(scheduler, conns, started));
                return;
            }
            let step = (interval - slept).min(Duration::from_millis(100));
            std::thread::sleep(step);
            slept += step;
        }
        append(&stats_line(scheduler, conns, started));
    }
}

/// Most bytes the connection writer joins into one `write`: queued
/// lines are coalesced up to about this much, so a burst of cached
/// results goes out in a few segments without an unbounded buffer.
const WRITE_BATCH_BYTES: usize = 256 << 10;

/// Appends `line` and its newline to a write buffer.
fn frame(buf: &mut Vec<u8>, line: &str) {
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
}

/// Everything a connection's reader needs, bundled.
struct ConnContext {
    scheduler: Arc<Scheduler>,
    conns: ConnRegistry,
    conn: u64,
    started: Instant,
    write_timeout: Option<Duration>,
    writer_queue: usize,
}

/// The per-connection reader loop: frame, decode, dispatch.
fn serve_connection(ctx: &ConnContext, stream: TcpStream) {
    // Every response is a complete line the client is waiting for:
    // without TCP_NODELAY, Nagle's algorithm holds a short line back
    // until the peer's delayed ACK (tens of ms per batch).
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let _ = write_half.set_write_timeout(ctx.write_timeout);
    let (sink, rx) = ConnSink::bounded(ctx.writer_queue);
    let monitor = sink.monitor();
    let writer = std::thread::Builder::new()
        .name(format!("cellsim-serve-write-{conn}", conn = ctx.conn))
        .spawn(move || {
            let mut out = write_half;
            let mut buf = Vec::new();
            loop {
                if monitor.is_dead() {
                    break;
                }
                // The timeout bounds how long a declared-dead sink goes
                // unnoticed while the queue is empty.
                let line = match rx.recv_timeout(Duration::from_millis(50)) {
                    Ok(line) => line,
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout) => continue,
                    Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
                };
                // One write per wakeup: this line and whatever else is
                // already queued, each with its newline. Nothing waits
                // for more lines to arrive.
                buf.clear();
                frame(&mut buf, &line);
                while buf.len() < WRITE_BATCH_BYTES {
                    match rx.try_recv() {
                        Ok(line) => frame(&mut buf, &line),
                        Err(_) => break,
                    }
                }
                if out.write_all(&buf).is_err() {
                    monitor.mark_dead();
                    break;
                }
            }
            // A dead sink means the peer earned a disconnect: best-effort
            // typed goodbye, then sever both directions so the blocked
            // reader thread wakes too.
            if monitor.is_dead() {
                if let Some(words) = monitor.take_last_words() {
                    buf.clear();
                    frame(&mut buf, &words);
                    let _ = out.write_all(&buf);
                }
                let _ = out.shutdown(Shutdown::Both);
            }
        });
    let mut reader = LineReader::new(BufReader::new(stream), MAX_LINE_BYTES);
    let mut over_long = false;
    loop {
        if sink.is_dead() {
            break;
        }
        match reader.read() {
            Err(_) | Ok(LineRead::Eof) => break,
            Ok(LineRead::TooLong) => {
                // An over-long line cannot be framed; answering anything
                // further would be guesswork. Error and hang up.
                sink.send(protocol::error_line(
                    None,
                    "protocol",
                    &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                ));
                over_long = true;
                break;
            }
            Ok(LineRead::Line) => {}
        }
        let line = String::from_utf8_lossy(reader.line());
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match protocol::decode_request(line) {
            Err(refusal) => {
                sink.send(refusal.to_line());
            }
            Ok(Request::Stats) => {
                sink.send(stats_line(&ctx.scheduler, &ctx.conns, ctx.started));
            }
            Ok(Request::Drain) => {
                ctx.scheduler.drain();
                let stats = ctx.scheduler.stats();
                sink.send(protocol::draining_line(stats.queue_depth, stats.inflight));
            }
            Ok(Request::Run(batch)) => {
                submit_batch(&ctx.scheduler, ctx.conn, &sink, batch);
            }
        }
    }
    // Drop only the reader's sink: batches still in flight hold their
    // own clones, so their remaining lines (and `done`) still go out.
    // The writer exits when the last clone is gone, or on its first
    // failed write after the peer vanished.
    drop(sink);
    let _ = writer.map(JoinHandle::join);
    if over_long {
        // The error line is written: end the output after it, then read
        // what the peer already sent (bounded) until it closes.
        let mut input = reader.into_inner();
        let _ = input.get_ref().shutdown(Shutdown::Write);
        let _ = std::io::copy(
            &mut input.by_ref().take(OVER_LONG_DISCARD_BYTES),
            &mut std::io::sink(),
        );
    }
}

/// Wraps a decoded batch in delivery state and offers it for admission.
fn submit_batch(
    scheduler: &Arc<Scheduler>,
    conn: u64,
    sink: &ConnSink,
    request: protocol::BatchRequest,
) {
    if request.record && scheduler.executor().run_dir().is_none() {
        sink.send(protocol::error_line(
            Some(&request.id),
            "bad-request",
            "batch requests recording but the daemon has no --run-dir",
        ));
        return;
    }
    let batch = Batch::new(request.id, sink.clone(), conn, request.specs.len());
    let jobs: Vec<Job> = request
        .specs
        .into_iter()
        .enumerate()
        .map(|(index, spec)| Job {
            spec,
            index,
            batch: Arc::clone(&batch),
        })
        .collect();
    match scheduler.submit(conn, &batch, jobs) {
        Ok(()) => {}
        Err(SubmitError::Overloaded(overloaded)) => {
            sink.send(protocol::reject_line(
                &batch.id,
                overloaded.queued,
                overloaded.high_water,
            ));
        }
        Err(SubmitError::Draining) => {
            sink.send(protocol::drain_reject_line(&batch.id));
        }
    }
}

/// The `stats` response: scheduler counters (including the queue's
/// high-water peak, uptime in wall milliseconds and simulated cycles,
/// the draining flag, and per-connection tallies),
/// executor cache counters, run-dir recording counters when attached,
/// and (when a cache dir is attached) both the process's disk-tier
/// activity and a census of the shared directory.
fn stats_line(scheduler: &Scheduler, conns: &ConnRegistry, started: Instant) -> String {
    let connections = conns.lock().unwrap_or_else(PoisonError::into_inner).len();
    let sched = scheduler.stats();
    let exec = scheduler.executor();
    let mut w = Writer::with_capacity(512 + 64 * sched.per_connection.len());
    let top = [
        ("connections", connections as u64),
        ("queue_depth", sched.queue_depth as u64),
        ("high_water", sched.high_water as u64),
        ("queue_peak", sched.queue_peak as u64),
        ("inflight", sched.inflight as u64),
        ("deduped", sched.deduped),
        ("accepted", sched.accepted),
        ("completed", sched.completed),
        ("rejected", sched.rejected),
    ];
    counters(w.begin_object().key("op").str("stats"), &top)
        .key("draining")
        .bool(sched.draining);
    let uptime_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
    let uptime = [
        ("uptime_ms", uptime_ms),
        ("uptime_cycles", sched.uptime_cycles),
    ];
    let cache = exec.stats();
    let hits = [("hits", cache.hits), ("misses", cache.misses)];
    counters(&mut w, &uptime).key("cache");
    counters(w.begin_object(), &hits).end_object().key("disk");
    match (exec.disk_stats(), exec.disk_dir_stats()) {
        (Some(a), Some(d)) => {
            let disk = [
                ("loaded", a.loaded),
                ("stored", a.stored),
                ("discarded", a.discarded),
                ("entries", d.entries),
                ("bytes", d.bytes),
                ("temp_files", d.temp_files),
            ];
            counters(w.begin_object(), &disk).end_object()
        }
        _ => w.raw("null"),
    };
    w.key("run_dir");
    match exec.run_dir().map(|rd| rd.stats()) {
        Some(s) => {
            let run_dir = [
                ("written", s.written),
                ("reused", s.reused),
                ("errors", s.errors),
            ];
            counters(w.begin_object(), &run_dir).end_object()
        }
        None => w.raw("null"),
    };
    w.key("per_connection").begin_array();
    for t in &sched.per_connection {
        let tally = [
            ("conn", t.conn),
            ("accepted", t.accepted),
            ("completed", t.completed),
        ];
        counters(w.begin_object(), &tally).end_object();
    }
    w.end_array().end_object();
    w.finish()
}

/// Writes integer members into the current object, in order.
fn counters<'w>(w: &'w mut Writer, members: &[(&str, u64)]) -> &'w mut Writer {
    for &(key, v) in members {
        w.key(key).u64(v);
    }
    w
}
