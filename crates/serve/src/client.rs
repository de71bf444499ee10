//! A blocking client for the serve protocol, used by `cellsim-client`
//! and the integration tests.
//!
//! The client submits a batch of [`RunSpec`]s, collects the streamed
//! per-run results back into request order, and verifies each result's
//! run-key fingerprint against the spec it answered — a transport-level
//! integrity check on top of the report's own canonical encoding.

use std::fmt;
use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;

use cellsim_core::diskcache::{key_fingerprint, report_from_json};
use cellsim_core::exec::RunSpec;
use cellsim_core::json::{self, JsonValue};
use cellsim_core::{FabricReport, FaultPlan};

use crate::framing::LineReader;
use crate::protocol::{encode_run_request, MAX_LINE_BYTES};
use crate::retry::RetryPolicy;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The connection closed mid-batch — the daemon died, was killed,
    /// or severed the socket. Already-received results are valid;
    /// [`ResilientClient`] reconnects and re-requests only the rest.
    Disconnected,
    /// The daemon's response could not be understood.
    Protocol(String),
    /// The daemon refused the batch: admission queue past high water.
    Overloaded {
        /// Runs queued at the daemon when it refused.
        queued: u64,
        /// The daemon's high-water mark.
        high_water: u64,
    },
    /// The daemon refused the request (`error` line, or a non-capacity
    /// `reject` such as `draining`).
    Refused {
        /// The daemon's `reason` field (`protocol` / `bad-request` /
        /// `draining` / `shutting-down` / `slow-consumer` / ...).
        reason: String,
        /// The daemon's `detail` field.
        detail: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Disconnected => write!(f, "connection closed mid-response"),
            ClientError::Protocol(detail) => write!(f, "protocol: {detail}"),
            ClientError::Overloaded { queued, high_water } => write!(
                f,
                "server overloaded ({queued} runs queued, high water {high_water})"
            ),
            ClientError::Refused { reason, detail } => write!(f, "refused ({reason}): {detail}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// One run's failure as reported over the wire.
#[derive(Debug, Clone)]
pub struct WireFailure {
    /// `"stall"` or `"panic"`.
    pub kind: String,
    /// The failed run's key in display form.
    pub run: String,
    /// Stall diagnosis JSON, or the panic message.
    pub detail: String,
}

impl fmt::Display for WireFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "run {} [{}]: {}", self.kind, self.run, self.detail)
    }
}

/// A completed batch: one entry per requested run, in request order.
pub struct BatchOutcome {
    /// Per-run outcomes.
    pub results: Vec<Result<Arc<FabricReport>, WireFailure>>,
    /// The daemon's `done` tallies.
    pub ok: usize,
    /// Runs that failed (stall or panic).
    pub failed: usize,
}

/// Daemon counters from a `stats` request.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeStats {
    /// Open client connections.
    pub connections: u64,
    /// Admitted, unstarted runs.
    pub queue_depth: u64,
    /// Admission high-water mark.
    pub high_water: u64,
    /// Distinct keys simulating right now.
    pub inflight: u64,
    /// Runs answered by parking on an in-flight simulation.
    pub deduped: u64,
    /// Runs admitted since daemon start.
    pub accepted: u64,
    /// Runs answered since daemon start.
    pub completed: u64,
    /// Batches rejected as overloaded.
    pub rejected: u64,
    /// Deepest the admission queue has ever been.
    pub queue_peak: u64,
    /// Daemon wall-clock uptime in milliseconds.
    pub uptime_ms: u64,
    /// Σ simulated cycles over every successful run answered.
    pub uptime_cycles: u64,
    /// Executor in-memory cache hits.
    pub cache_hits: u64,
    /// Executor misses (actual simulations).
    pub cache_misses: u64,
    /// Whether the daemon is draining (reject-new, finish-in-flight).
    pub draining: bool,
    /// `(entries, bytes)` census of the shared cache dir, when attached.
    pub disk_entries: Option<(u64, u64)>,
}

/// A connected protocol client. Not thread-safe; one per thread.
pub struct Client {
    reader: LineReader<BufReader<TcpStream>>,
    writer: TcpStream,
}

fn get_u64(v: &JsonValue, name: &str) -> Result<u64, ClientError> {
    v.get(name)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| ClientError::Protocol(format!("response missing field '{name}'")))
}

impl Client {
    /// Connects to a serving daemon.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from connecting.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: LineReader::new(BufReader::new(stream), MAX_LINE_BYTES),
            writer,
        })
    }

    /// Caps how long a single response read may block (`None` waits
    /// forever, the default). A expiry surfaces as [`ClientError::Io`]
    /// with kind `WouldBlock`/`TimedOut` — under [`ResilientClient`]
    /// that abandons the connection and resumes elsewhere, so a daemon
    /// that accepted the socket but will never answer (e.g. one caught
    /// mid-death) cannot hang the client forever.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from the socket option.
    pub fn set_read_timeout(&self, timeout: Option<std::time::Duration>) -> std::io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    fn send(&mut self, line: &str) -> Result<(), ClientError> {
        // The line and its newline in one write (the socket has Nagle
        // disabled, so two writes would be two segments).
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes())?;
        Ok(())
    }

    fn read_response(&mut self) -> Result<JsonValue, ClientError> {
        let Some(line) = self.reader.next_line()? else {
            return Err(ClientError::Disconnected);
        };
        json::parse(&line).map_err(|e| ClientError::Protocol(format!("unparseable response: {e}")))
    }

    /// Submits `specs` as one batch and blocks until `done`, returning
    /// outcomes in request order. `faults` applies to the whole batch.
    ///
    /// # Errors
    ///
    /// [`ClientError`] — including [`ClientError::Overloaded`] when the
    /// daemon rejected the batch (nothing ran; retry later).
    pub fn run_batch(
        &mut self,
        id: &str,
        faults: Option<&FaultPlan>,
        specs: &[RunSpec],
    ) -> Result<BatchOutcome, ClientError> {
        self.run_batch_recorded(id, faults, specs, false)
    }

    /// Like [`Client::run_batch`], with `record` asserting that the
    /// daemon records every run under its `--run-dir` (a daemon with
    /// one records every batch). A daemon without one refuses a
    /// `record` batch ([`ClientError::Refused`]).
    ///
    /// # Errors
    ///
    /// [`ClientError`] — including [`ClientError::Overloaded`] when the
    /// daemon rejected the batch (nothing ran; retry later).
    pub fn run_batch_recorded(
        &mut self,
        id: &str,
        faults: Option<&FaultPlan>,
        specs: &[RunSpec],
        record: bool,
    ) -> Result<BatchOutcome, ClientError> {
        let mut slots: Vec<Option<Result<Arc<FabricReport>, WireFailure>>> =
            (0..specs.len()).map(|_| None).collect();
        self.run_batch_sparse(id, faults, specs, record, &mut slots)?;
        Ok(outcome_from_slots(slots))
    }

    /// Submits only the runs whose `slots` entry is still `None` —
    /// the resume primitive behind [`ResilientClient`]. Already-filled
    /// slots are kept as-is; on `Ok` every slot is filled.
    ///
    /// The daemon's caches make this idempotent: a re-requested run is
    /// keyed by the same content-addressed run key, so a resumed batch
    /// is answered from cache (or by at most one fresh simulation) with
    /// a bit-identical report.
    ///
    /// # Errors
    ///
    /// [`ClientError`] — on [`ClientError::Disconnected`] the slots
    /// filled so far remain valid, and a later call resumes from them.
    pub fn run_batch_sparse(
        &mut self,
        id: &str,
        faults: Option<&FaultPlan>,
        specs: &[RunSpec],
        record: bool,
        slots: &mut [Option<Result<Arc<FabricReport>, WireFailure>>],
    ) -> Result<(), ClientError> {
        assert_eq!(specs.len(), slots.len(), "one slot per spec");
        let pending: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.is_none().then_some(i))
            .collect();
        if pending.is_empty() {
            return Ok(());
        }
        let subset: Vec<RunSpec> = pending.iter().map(|&i| specs[i].clone()).collect();
        self.send(&encode_run_request(id, faults, &subset, record))?;
        loop {
            let v = self.read_response()?;
            match v.get("op").and_then(JsonValue::as_str) {
                Some("accepted") => {}
                Some("result") | Some("failed") => {
                    let index = usize::try_from(get_u64(&v, "index")?)
                        .map_err(|_| ClientError::Protocol("index overflows".to_string()))?;
                    let &orig = pending.get(index).ok_or_else(|| {
                        ClientError::Protocol(format!("result index {index} out of range"))
                    })?;
                    let fingerprint = v.get("key").and_then(JsonValue::as_str).unwrap_or("");
                    if fingerprint != format!("{:016x}", key_fingerprint(&specs[orig].key)) {
                        return Err(ClientError::Protocol(format!(
                            "run {orig} answered with a different run key"
                        )));
                    }
                    slots[orig] = Some(decode_outcome(&v)?);
                }
                Some("done") => {
                    if let Some(missing) = slots.iter().position(Option::is_none) {
                        return Err(ClientError::Protocol(format!(
                            "done before result for run {missing}"
                        )));
                    }
                    return Ok(());
                }
                Some("reject") => {
                    let reason = v.get("reason").and_then(JsonValue::as_str).unwrap_or("");
                    if reason == "overloaded" {
                        return Err(ClientError::Overloaded {
                            queued: get_u64(&v, "queued")?,
                            high_water: get_u64(&v, "high_water")?,
                        });
                    }
                    return Err(ClientError::Refused {
                        reason: if reason.is_empty() {
                            "unknown".to_string()
                        } else {
                            reason.to_string()
                        },
                        detail: "batch rejected".to_string(),
                    });
                }
                Some("error") => {
                    return Err(ClientError::Refused {
                        reason: v
                            .get("reason")
                            .and_then(JsonValue::as_str)
                            .unwrap_or("unknown")
                            .to_string(),
                        detail: v
                            .get("detail")
                            .and_then(JsonValue::as_str)
                            .unwrap_or_default()
                            .to_string(),
                    })
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected response op {other:?}"
                    )))
                }
            }
        }
    }

    /// Fetches the daemon's counter snapshot.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport or framing problems.
    pub fn stats(&mut self) -> Result<ServeStats, ClientError> {
        self.send("{\"op\":\"stats\"}")?;
        let v = self.read_response()?;
        if v.get("op").and_then(JsonValue::as_str) != Some("stats") {
            return Err(ClientError::Protocol(
                "expected a stats response".to_string(),
            ));
        }
        let cache = v
            .get("cache")
            .ok_or_else(|| ClientError::Protocol("stats missing 'cache'".to_string()))?;
        let disk_entries = match v.get("disk") {
            Some(JsonValue::Object(_)) => {
                let disk = v.get("disk").expect("just matched");
                Some((get_u64(disk, "entries")?, get_u64(disk, "bytes")?))
            }
            _ => None,
        };
        Ok(ServeStats {
            connections: get_u64(&v, "connections")?,
            queue_depth: get_u64(&v, "queue_depth")?,
            high_water: get_u64(&v, "high_water")?,
            inflight: get_u64(&v, "inflight")?,
            deduped: get_u64(&v, "deduped")?,
            accepted: get_u64(&v, "accepted")?,
            completed: get_u64(&v, "completed")?,
            rejected: get_u64(&v, "rejected")?,
            queue_peak: get_u64(&v, "queue_peak")?,
            uptime_ms: get_u64(&v, "uptime_ms")?,
            uptime_cycles: get_u64(&v, "uptime_cycles")?,
            cache_hits: get_u64(cache, "hits")?,
            cache_misses: get_u64(cache, "misses")?,
            draining: matches!(v.get("draining"), Some(JsonValue::Bool(true))),
            disk_entries,
        })
    }
}

/// Collapses fully-filled slots into a [`BatchOutcome`], recomputing
/// the tallies client-side (a resumed batch spans several wire `done`
/// lines, so the daemon's per-attempt tallies don't apply).
fn outcome_from_slots(slots: Vec<Option<Result<Arc<FabricReport>, WireFailure>>>) -> BatchOutcome {
    let results: Vec<Result<Arc<FabricReport>, WireFailure>> = slots
        .into_iter()
        .map(|slot| slot.expect("run_batch_sparse fills every slot before Ok"))
        .collect();
    let ok = results.iter().filter(|r| r.is_ok()).count();
    let failed = results.len() - ok;
    BatchOutcome {
        results,
        ok,
        failed,
    }
}

/// Whether the failure is transient enough that reconnecting and
/// resubmitting the unanswered runs can succeed.
fn retryable(error: &ClientError) -> bool {
    match error {
        ClientError::Io(_) | ClientError::Disconnected | ClientError::Overloaded { .. } => true,
        // A draining daemon refuses new work but a restarted (or
        // sibling) daemon at the same address will take it; same for
        // one caught mid-shutdown.
        ClientError::Refused { reason, .. } => {
            matches!(reason.as_str(), "draining" | "shutting-down")
        }
        ClientError::Protocol(_) => false,
    }
}

/// A [`Client`] wrapper that survives daemon restarts and overload.
///
/// Each batch attempt connects fresh via the address source (a closure,
/// so a test can re-point it at a restarted daemon's new port), submits
/// only the runs not yet answered, and folds the streamed results into
/// one set of slots. On a retryable failure — transport errors,
/// mid-batch disconnects, `overloaded`, `draining`/`shutting-down`
/// rejections — it backs off per its seeded [`RetryPolicy`] and tries
/// again; results already received are never re-requested. Resumption
/// is idempotent because runs are keyed content-addressed: a re-asked
/// run returns the same bit-exact report, usually straight from the
/// daemon's caches.
pub struct ResilientClient {
    source: Box<dyn FnMut() -> String + Send>,
    policy: RetryPolicy,
    read_timeout: Option<std::time::Duration>,
    /// Reconnect-and-resume attempts across all batches so far.
    retries: u64,
}

impl ResilientClient {
    /// A resilient client fetching the daemon address from `source`
    /// before every attempt.
    #[must_use]
    pub fn new(source: impl FnMut() -> String + Send + 'static, policy: RetryPolicy) -> Self {
        ResilientClient {
            source: Box::new(source),
            policy,
            read_timeout: None,
            retries: 0,
        }
    }

    /// Caps how long each attempt may block on one response read; an
    /// expiry abandons that connection and retries. Without it, a
    /// daemon that accepted the socket but will never answer (caught
    /// mid-death, wedged) stalls the attempt indefinitely.
    #[must_use]
    pub fn with_read_timeout(mut self, timeout: std::time::Duration) -> Self {
        self.read_timeout = Some(timeout);
        self
    }

    /// A resilient client for a fixed daemon address.
    #[must_use]
    pub fn fixed(addr: &str, policy: RetryPolicy) -> Self {
        let addr = addr.to_string();
        ResilientClient::new(move || addr.clone(), policy)
    }

    /// Reconnect-and-resume attempts used across all batches so far.
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// [`Client::run_batch`] with retry, reconnect, and resume.
    ///
    /// # Errors
    ///
    /// The last [`ClientError`] once the retry budget is exhausted, or
    /// immediately for non-retryable refusals.
    pub fn run_batch(
        &mut self,
        id: &str,
        faults: Option<&FaultPlan>,
        specs: &[RunSpec],
    ) -> Result<BatchOutcome, ClientError> {
        self.run_batch_recorded(id, faults, specs, false)
    }

    /// [`Client::run_batch_recorded`] with retry, reconnect, and
    /// resume.
    ///
    /// # Errors
    ///
    /// The last [`ClientError`] once the retry budget is exhausted, or
    /// immediately for non-retryable refusals.
    pub fn run_batch_recorded(
        &mut self,
        id: &str,
        faults: Option<&FaultPlan>,
        specs: &[RunSpec],
        record: bool,
    ) -> Result<BatchOutcome, ClientError> {
        let mut slots: Vec<Option<Result<Arc<FabricReport>, WireFailure>>> =
            (0..specs.len()).map(|_| None).collect();
        let mut attempt: u32 = 0;
        loop {
            // The id carries a retry ordinal so daemon logs tell a
            // resumed attempt from a duplicate submission.
            let batch_id = if attempt == 0 {
                id.to_string()
            } else {
                format!("{id}#r{attempt}")
            };
            let addr = (self.source)();
            let result = Client::connect(addr.as_str())
                .and_then(|client| {
                    client.set_read_timeout(self.read_timeout)?;
                    Ok(client)
                })
                .map_err(ClientError::Io)
                .and_then(|mut client| {
                    client.run_batch_sparse(&batch_id, faults, specs, record, &mut slots)
                });
            match result {
                Ok(()) => {
                    self.policy.reset();
                    return Ok(outcome_from_slots(slots));
                }
                Err(error) if retryable(&error) => match self.policy.next_delay() {
                    Some(delay) => {
                        attempt += 1;
                        self.retries += 1;
                        std::thread::sleep(delay);
                    }
                    None => return Err(error),
                },
                Err(error) => return Err(error),
            }
        }
    }
}

fn decode_outcome(v: &JsonValue) -> Result<Result<Arc<FabricReport>, WireFailure>, ClientError> {
    match v.get("op").and_then(JsonValue::as_str) {
        Some("result") => {
            let report = v
                .get("report")
                .and_then(report_from_json)
                .ok_or_else(|| ClientError::Protocol("undecodable report".to_string()))?;
            Ok(Ok(Arc::new(report)))
        }
        Some("failed") => {
            let kind = v
                .get("kind")
                .and_then(JsonValue::as_str)
                .unwrap_or("unknown")
                .to_string();
            let detail = match kind.as_str() {
                "stall" => v
                    .get("diagnosis")
                    .map(JsonValue::to_json_string)
                    .unwrap_or_default(),
                _ => v
                    .get("message")
                    .and_then(JsonValue::as_str)
                    .unwrap_or_default()
                    .to_string(),
            };
            Ok(Err(WireFailure {
                kind,
                run: v
                    .get("run")
                    .and_then(JsonValue::as_str)
                    .unwrap_or_default()
                    .to_string(),
                detail,
            }))
        }
        _ => unreachable!("caller dispatches on op"),
    }
}
