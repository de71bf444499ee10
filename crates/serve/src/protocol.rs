//! The `cellsim-serve` wire protocol: one JSON object per line, both
//! directions, over a plain TCP stream.
//!
//! # Requests
//!
//! ```text
//! {"op":"stats"}
//! {"op":"drain"}
//! {"op":"run","id":"<batch id>","faults":{<FaultPlan JSON>},"record":true,"runs":[<run>...]}
//! ```
//!
//! `drain` is the wire twin of SIGTERM: the daemon finishes what it
//! already accepted, rejects new batches with reason `draining`, and
//! exits once idle (or when its drain grace expires). The ack is a
//! `{"op":"draining","queued":Q,"inflight":M}` line.
//!
//! A daemon started with `--run-dir` persists a trace-store artifact
//! for every run it simulates, as `repro --run-dir` does, whatever the
//! batch says. The optional `record` flag (default `false`) only
//! asserts that it does: a daemon started without a run dir refuses a
//! `"record":true` batch with a `bad-request` error before anything is
//! enqueued.
//!
//! Each run names one simulation point explicitly — the daemon never
//! invents placements, so a batch replays bit-identically anywhere:
//!
//! ```text
//! {"pattern":"couples","spes":2,"volume":262144,"elem":128,
//!  "list":false,"sync":"all","placement":[3,5,0,1,2,4,6,7]}
//! ```
//!
//! `sync` is `"all"` ([`SyncPolicy::AfterAll`]) or `{"every":N}`
//! ([`SyncPolicy::Every`]). `placement` is the full logical→physical
//! permutation of the 8 SPEs. The optional `faults` plan uses the same
//! schema as `repro --faults` and applies to every run of the batch
//! (the run keys pick up its fingerprint, so degraded and healthy runs
//! never share a cache entry).
//!
//! A run above the paper's 32 MiB per SPE or [`MAX_RUN_COST`], and a
//! batch whose runs add up past [`MAX_BATCH_COST`], are refused as
//! `bad-request` before anything is enqueued. No limit depends on the
//! host, so a request line gets the same answer on every machine.
//!
//! # Responses
//!
//! A `run` batch is answered by `accepted` (or `reject`), then one
//! `result`/`failed` line per run *as each completes* — indices refer
//! to the request's `runs` array and may arrive in any order — then
//! exactly one `done`:
//!
//! ```text
//! {"op":"accepted","id":"b1","runs":9}
//! {"op":"result","id":"b1","index":4,"key":"<16-hex run-key fingerprint>","report":{...}}
//! {"op":"failed","id":"b1","index":2,"key":"...","kind":"stall","run":"pattern=...","diagnosis":{...}}
//! {"op":"done","id":"b1","ok":8,"failed":1}
//! {"op":"reject","id":"b1","reason":"overloaded","queued":128,"high_water":128}
//! {"op":"error","reason":"protocol","detail":"invalid JSON: ..."}
//! ```
//!
//! `report` is the canonical bit-exact report JSON shared with the disk
//! cache ([`report_to_json`](cellsim_core::diskcache::report_to_json)):
//! floats travel as IEEE-754 bit patterns, so a replayed report compares
//! equal to a locally simulated one.
//! `failed` reuses the typed [`RunError`] taxonomy: stalls carry the
//! full [`StallDiagnosis`](cellsim_core::StallDiagnosis) JSON, panics a
//! `message` string. `error` lines never close the connection (the
//! daemon keeps serving after a malformed line); an over-long line —
//! which cannot be framed — does, as do a slow consumer overflowing its
//! bounded writer queue (after a best-effort
//! `{"op":"error","reason":"slow-consumer",...}` line) and daemon
//! shutdown (after a `reason":"shutting-down"` error per batch still
//! owed runs).

use cellsim_core::diskcache::{key_fingerprint, write_report, REPORT_JSON_CAPACITY};
use cellsim_core::exec::{RunError, RunKey, RunSpec, Workload};
use cellsim_core::experiments::{canonical_pattern, workload_plan};
use cellsim_core::json::{self, JsonValue, Writer};
use cellsim_core::{CellSystem, FabricReport, FaultPlan, Placement, SyncPolicy};

/// Longest accepted request/response line, newline included. Frames a
/// full-figure batch or a streamed report with two orders of magnitude
/// to spare, while bounding what one connection can make the daemon
/// buffer.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Most runs one batch may carry. Large enough for every figure of the
/// paper protocol in a single batch; small enough that admission
/// control reasons about batches, not gigabytes.
pub const MAX_BATCH_RUNS: usize = 4096;

/// Largest [`TransferPlan::cost`](cellsim_core::TransferPlan::cost) (DMA
/// commands plus bus packets) one run may have: that of the costliest
/// `repro --full` point, 8-SPE `gups`. A unit test pins it to the table.
pub const MAX_RUN_COST: u64 = 1 << 24;

/// Largest sum of [`TransferPlan::cost`](cellsim_core::TransferPlan::cost)
/// one batch may carry: that of the costliest `repro --full` figure sent
/// as one batch, figure 8's 960 runs. A unit test pins it to the table.
pub const MAX_BATCH_COST: u64 = 1_571_635_200;

/// Longest accepted batch id, in bytes.
pub const MAX_ID_BYTES: usize = 256;

/// A decoded request line.
pub enum Request {
    /// `{"op":"run",...}` — a batch of simulation points.
    Run(BatchRequest),
    /// `{"op":"stats"}` — a snapshot of daemon counters.
    Stats,
    /// `{"op":"drain"}` — finish in-flight work, refuse new batches,
    /// exit cleanly (the wire twin of SIGTERM).
    Drain,
}

/// A validated `run` request: every spec is simulatable as-is.
pub struct BatchRequest {
    /// Client-chosen id, echoed on every response line of the batch.
    pub id: String,
    /// The decoded specs, in request order.
    pub specs: Vec<RunSpec>,
    /// Whether the batch asserts that the daemon records (`"record"`);
    /// refused by a daemon without a run dir.
    pub record: bool,
}

/// Why a request line was refused. `reason` is the wire taxonomy:
/// `"protocol"` for lines that are not a well-formed request at all,
/// `"bad-request"` for well-formed requests naming an impossible run.
pub struct ProtocolError {
    /// `"protocol"` or `"bad-request"`.
    pub reason: &'static str,
    /// The batch id, when the line got far enough to name one.
    pub id: Option<String>,
    /// Human-readable cause, naming the offending run index if any.
    pub detail: String,
}

impl ProtocolError {
    fn protocol(detail: String) -> ProtocolError {
        ProtocolError {
            reason: "protocol",
            id: None,
            detail,
        }
    }

    fn bad_request(id: &str, detail: String) -> ProtocolError {
        ProtocolError {
            reason: "bad-request",
            id: Some(id.to_string()),
            detail,
        }
    }

    /// The `error` response line reporting this refusal.
    #[must_use]
    pub fn to_line(&self) -> String {
        error_line(self.id.as_deref(), self.reason, &self.detail)
    }
}

/// Decodes one request line. The parser is the depth-capped in-repo
/// JSON module, so an adversarially nested payload comes back as a
/// typed error instead of a stack overflow.
///
/// # Errors
///
/// [`ProtocolError`] describing the first problem found; the caller
/// answers with [`ProtocolError::to_line`] and keeps the connection.
pub fn decode_request(line: &str) -> Result<Request, ProtocolError> {
    let v = json::parse(line).map_err(|e| ProtocolError::protocol(format!("invalid JSON: {e}")))?;
    let op = v
        .get("op")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ProtocolError::protocol("missing string field 'op'".to_string()))?;
    match op {
        "stats" => Ok(Request::Stats),
        "drain" => Ok(Request::Drain),
        "run" => decode_run_request(&v).map(Request::Run),
        other => Err(ProtocolError::protocol(format!(
            "unknown op '{other}' (expected 'run', 'stats' or 'drain')"
        ))),
    }
}

fn decode_run_request(v: &JsonValue) -> Result<BatchRequest, ProtocolError> {
    let id = v
        .get("id")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ProtocolError::protocol("run request needs a string 'id'".to_string()))?;
    if id.len() > MAX_ID_BYTES {
        return Err(ProtocolError::protocol(format!(
            "batch id longer than {MAX_ID_BYTES} bytes"
        )));
    }
    let id = id.to_string();
    let faults = match v.get("faults") {
        None => None,
        // Round-trip the subtree through the canonical writer so
        // FaultPlan::parse sees exactly the JSON it validates for files.
        Some(sub) => Some(
            FaultPlan::parse(&sub.to_json_string())
                .map_err(|e| ProtocolError::bad_request(&id, format!("faults: {e}")))?,
        ),
    };
    let system = match faults {
        Some(plan) => CellSystem::blade().with_faults(plan),
        None => CellSystem::blade(),
    };
    let fused = system
        .faults()
        .map_or(0, cellsim_faults::FaultPlan::fused_mask);
    let record = match v.get("record") {
        Some(JsonValue::Bool(b)) => *b,
        None => false,
        Some(_) => {
            return Err(ProtocolError::bad_request(
                &id,
                "field 'record' must be a boolean".to_string(),
            ))
        }
    };
    let runs = v
        .get("runs")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| ProtocolError::bad_request(&id, "missing array field 'runs'".to_string()))?;
    if runs.len() > MAX_BATCH_RUNS {
        return Err(ProtocolError::bad_request(
            &id,
            format!(
                "{} runs exceed the {MAX_BATCH_RUNS}-run batch limit",
                runs.len()
            ),
        ));
    }
    let mut specs = Vec::with_capacity(runs.len());
    let mut batch_cost = 0;
    for (index, run) in runs.iter().enumerate() {
        let (spec, cost) = decode_run(run, &system, fused)
            .map_err(|cause| ProtocolError::bad_request(&id, format!("run {index}: {cause}")))?;
        batch_cost += cost;
        if batch_cost > MAX_BATCH_COST {
            return Err(ProtocolError::bad_request(
                &id,
                format!(
                    "run {index}: batch cost {batch_cost} (DMA commands plus bus packets) \
                     exceeds the {MAX_BATCH_COST} per-batch limit"
                ),
            ));
        }
        specs.push(spec);
    }
    Ok(BatchRequest { id, specs, record })
}

fn field_u64(run: &JsonValue, name: &str) -> Result<u64, String> {
    run.get(name)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing unsigned integer field '{name}'"))
}

/// Decodes and fully validates one run object into a [`RunSpec`] on
/// `system`, returned with its plan's cost. Everything is checked here —
/// pattern, parameter ranges, volume and cost limits, plan buildability,
/// placement permutation, fused-SPE collisions — so a spec that decodes
/// is a spec the executor can run.
fn decode_run(run: &JsonValue, system: &CellSystem, fused: u8) -> Result<(RunSpec, u64), String> {
    let pattern = run
        .get("pattern")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "missing string field 'pattern'".to_string())?;
    let pattern =
        canonical_pattern(pattern).ok_or_else(|| format!("unknown pattern '{pattern}'"))?;
    let spes = field_u64(run, "spes")?;
    let spes = u8::try_from(spes).map_err(|_| format!("spes {spes} out of range"))?;
    let volume = field_u64(run, "volume")?;
    let elem = field_u64(run, "elem")?;
    let elem = u32::try_from(elem).map_err(|_| format!("elem {elem} out of range"))?;
    let list = match run.get("list") {
        Some(JsonValue::Bool(b)) => *b,
        None => false,
        Some(_) => return Err("field 'list' must be a boolean".to_string()),
    };
    let sync = match run.get("sync") {
        None => SyncPolicy::AfterAll,
        Some(JsonValue::String(s)) if s == "all" => SyncPolicy::AfterAll,
        Some(v) => {
            let every = v
                .get("every")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| "field 'sync' must be \"all\" or {\"every\":N}".to_string())?;
            let every =
                u32::try_from(every).map_err(|_| format!("sync every {every} out of range"))?;
            SyncPolicy::Every(every)
        }
    };
    let params = match run.get("params") {
        None => 0,
        Some(v) => v
            .as_u64()
            .ok_or_else(|| "field 'params' must be an unsigned integer".to_string())?,
    };
    let workload = Workload {
        pattern,
        spes,
        volume,
        elem,
        list,
        sync,
        params,
    };
    let plan = workload_plan(&workload).map_err(|e| e.to_string())?;
    let cost = plan.cost(system.config().mfc.packet_bytes);
    if cost > MAX_RUN_COST {
        return Err(format!(
            "plan cost {cost} (DMA commands plus bus packets) exceeds the \
             {MAX_RUN_COST} per-run limit"
        ));
    }
    let mapping = run
        .get("placement")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "missing array field 'placement'".to_string())?;
    if mapping.len() != 8 {
        return Err(format!(
            "placement must list all 8 SPEs, got {}",
            mapping.len()
        ));
    }
    let mut map = [0u8; 8];
    for (slot, v) in map.iter_mut().zip(mapping) {
        let p = v
            .as_u64()
            .filter(|&p| p < 8)
            .ok_or_else(|| "placement entries must be integers in 0..8".to_string())?;
        *slot = p as u8;
    }
    let placement = Placement::from_mapping(map)
        .ok_or_else(|| "placement is not a permutation of 0..8".to_string())?;
    for logical in 0..usize::from(workload.spes) {
        let physical = placement.mapping()[logical];
        if fused & (1 << physical) != 0 {
            return Err(format!(
                "placement maps logical SPE {logical} onto fused physical SPE {physical}"
            ));
        }
    }
    Ok((RunSpec::new(system, workload, placement, plan), cost))
}

// ---- response emission --------------------------------------------------

/// Starts a response line: `{"op":<op>` plus `"id":<id>` when given.
fn line(op: &str, id: Option<&str>) -> Writer {
    let mut w = Writer::with_capacity(128);
    w.begin_object().key("op").str(op);
    if let Some(id) = id {
        w.key("id").str(id);
    }
    w
}

/// Closes and returns a line begun by [`line`].
fn finish(mut w: Writer) -> String {
    w.end_object();
    w.finish()
}

/// `accepted`: the batch passed admission; results will stream.
#[must_use]
pub fn accepted_line(id: &str, runs: usize) -> String {
    let mut w = line("accepted", Some(id));
    w.key("runs").u64(runs as u64);
    finish(w)
}

/// `reject`: the admission queue is past its high-water mark. Nothing
/// of the batch was enqueued; the client retries later.
#[must_use]
pub fn reject_line(id: &str, queued: usize, high_water: usize) -> String {
    let mut w = line("reject", Some(id));
    w.key("reason")
        .str("overloaded")
        .key("queued")
        .u64(queued as u64)
        .key("high_water")
        .u64(high_water as u64);
    finish(w)
}

/// `reject` with reason `draining`: the daemon is finishing in-flight
/// work and admitting nothing new. Nothing of the batch was enqueued;
/// the client retries against the restarted daemon.
#[must_use]
pub fn drain_reject_line(id: &str) -> String {
    let mut w = line("reject", Some(id));
    w.key("reason").str("draining");
    finish(w)
}

/// `draining`: the ack for an `{"op":"drain"}` request, reporting the
/// work the daemon will still finish before exiting.
#[must_use]
pub fn draining_line(queued: usize, inflight: usize) -> String {
    let mut w = line("draining", None);
    w.key("queued")
        .u64(queued as u64)
        .key("inflight")
        .u64(inflight as u64);
    finish(w)
}

/// `error` with reason `shutting-down`: a typed goodbye for a batch
/// whose queued runs the daemon dropped at shutdown — the client sees
/// a refusal, never a silent EOF.
#[must_use]
pub fn shutting_down_line(id: &str) -> String {
    error_line(
        Some(id),
        "shutting-down",
        "daemon shut down before the batch completed; unfinished runs were dropped",
    )
}

/// `error`: the request line itself was refused (see [`ProtocolError`]).
#[must_use]
pub fn error_line(id: Option<&str>, reason: &str, detail: &str) -> String {
    let mut w = line("error", id);
    w.key("reason").str(reason).key("detail").str(detail);
    finish(w)
}

/// `result`: run `index` of batch `id` completed with `report`.
#[must_use]
pub fn result_line(id: &str, index: usize, key: &RunKey, report: &FabricReport) -> String {
    let mut w = Writer::with_capacity(REPORT_JSON_CAPACITY);
    w.begin_object()
        .key("op")
        .str("result")
        .key("id")
        .str(id)
        .key("index")
        .u64(index as u64)
        .key("key")
        .hex(key_fingerprint(key), false)
        .key("report");
    write_report(&mut w, report);
    finish(w)
}

/// `failed`: run `index` produced a typed [`RunError`] instead of a
/// report. The stall variant splices the diagnosis's own JSON.
#[must_use]
pub fn failed_line(id: &str, index: usize, error: &RunError) -> String {
    let key = error.key();
    let mut w = line("failed", Some(id));
    w.key("index")
        .u64(index as u64)
        .key("key")
        .hex(key_fingerprint(key), false)
        .key("run")
        .str(&key.to_string());
    match error {
        RunError::Stall { diagnosis, .. } => {
            w.key("kind")
                .str("stall")
                .key("diagnosis")
                .raw(&diagnosis.to_json());
        }
        RunError::Panicked { message, .. } => {
            w.key("kind").str("panic").key("message").str(message);
        }
    }
    finish(w)
}

/// `done`: every run of the batch has been answered.
#[must_use]
pub fn done_line(id: &str, ok: usize, failed: usize) -> String {
    let mut w = line("done", Some(id));
    w.key("ok").u64(ok as u64).key("failed").u64(failed as u64);
    finish(w)
}

/// Encodes one spec as a request run object — the client half of
/// [`decode_request`]; `decode(encode(spec))` reproduces the same
/// [`RunKey`].
#[must_use]
pub fn encode_run(spec: &RunSpec) -> String {
    let mut w = Writer::with_capacity(192);
    write_run(&mut w, spec);
    w.finish()
}

fn write_run(w: &mut Writer, spec: &RunSpec) {
    let wl = &spec.key.workload;
    w.begin_object()
        .key("pattern")
        .str(wl.pattern)
        .key("spes")
        .u64(u64::from(wl.spes))
        .key("volume")
        .u64(wl.volume)
        .key("elem")
        .u64(u64::from(wl.elem))
        .key("list")
        .bool(wl.list)
        .key("sync");
    match wl.sync {
        SyncPolicy::AfterAll => w.str("all"),
        SyncPolicy::Every(n) => w.begin_object().key("every").u64(u64::from(n)).end_object(),
    };
    // Workload params are emitted only when nonzero: streaming-figure
    // request lines stay byte-identical to what older clients sent.
    if wl.params != 0 {
        w.key("params").u64(wl.params);
    }
    w.key("placement")
        .u64s(spec.key.placement.iter().map(|&p| u64::from(p)))
        .end_object();
}

/// Encodes a whole `run` request line (without the trailing newline).
/// `record` asserts that the daemon records the batch's runs into its
/// run dir; `false` omits the key, so the line is byte-identical to
/// what older clients sent.
#[must_use]
pub fn encode_run_request(
    id: &str,
    faults: Option<&FaultPlan>,
    specs: &[RunSpec],
    record: bool,
) -> String {
    let mut w = Writer::with_capacity(64 + 192 * specs.len());
    w.begin_object().key("op").str("run").key("id").str(id);
    if let Some(plan) = faults {
        w.key("faults").raw(&plan.to_json());
    }
    if record {
        w.key("record").bool(true);
    }
    w.key("runs").begin_array();
    for spec in specs {
        write_run(&mut w, spec);
    }
    w.end_array().end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellsim_core::experiments::{figure_points, figure_specs, ExperimentConfig, FIGURES};

    fn quick_specs() -> Vec<RunSpec> {
        let cfg = ExperimentConfig::quick();
        let points = figure_points(&cfg, "12").unwrap().unwrap();
        figure_specs(&CellSystem::blade(), &cfg, &points)
    }

    #[test]
    fn encoded_requests_decode_to_the_same_run_keys() {
        let specs = quick_specs();
        let line = encode_run_request("b1", None, &specs, false);
        let Request::Run(batch) = decode_request(&line).unwrap_or_else(|e| panic!("{}", e.detail))
        else {
            panic!("expected a run request");
        };
        assert_eq!(batch.id, "b1");
        assert!(!batch.record, "record defaults to false");
        assert_eq!(batch.specs.len(), specs.len());
        for (sent, got) in specs.iter().zip(&batch.specs) {
            assert_eq!(sent.key, got.key);
        }
        let line = encode_run_request("b2", None, &specs, true);
        let Request::Run(batch) = decode_request(&line).unwrap_or_else(|e| panic!("{}", e.detail))
        else {
            panic!("expected a run request");
        };
        assert!(batch.record, "record survives the round trip");
    }

    #[test]
    fn faulted_requests_carry_the_plan_into_the_run_keys() {
        let plan = FaultPlan::parse(
            "{\"seed\":7,\"eib\":{\"derate\":[{\"start\":0,\"cycles\":1000,\
             \"capacity_percent\":50}]}}",
        )
        .expect("valid plan");
        let specs = quick_specs();
        let line = encode_run_request("deg", Some(&plan), &specs, false);
        let Request::Run(batch) = decode_request(&line).unwrap_or_else(|e| panic!("{}", e.detail))
        else {
            panic!("expected a run request");
        };
        for (sent, got) in specs.iter().zip(&batch.specs) {
            assert_eq!(got.key.faults, plan.fingerprint());
            assert_eq!(sent.key.workload, got.key.workload);
        }
    }

    #[test]
    fn bad_runs_are_refused_with_the_offending_index() {
        let check = |run: &str, needle: &str| {
            let line = format!("{{\"op\":\"run\",\"id\":\"b\",\"runs\":[{run}]}}");
            let err = match decode_request(&line) {
                Err(e) => e,
                Ok(_) => panic!("expected {needle}"),
            };
            assert_eq!(err.reason, "bad-request");
            assert!(
                err.detail.starts_with("run 0:") && err.detail.contains(needle),
                "detail {:?} lacks {needle:?}",
                err.detail
            );
        };
        let good = "\"spes\":2,\"volume\":4096,\"elem\":128,\"list\":false,\
                    \"sync\":\"all\",\"placement\":[0,1,2,3,4,5,6,7]";
        check(
            &format!("{{\"pattern\":\"warp\",{good}}}"),
            "unknown pattern",
        );
        check(
            "{\"pattern\":\"couples\",\"spes\":3,\"volume\":4096,\"elem\":128,\
             \"placement\":[0,1,2,3,4,5,6,7]}",
            "cannot run on 3",
        );
        check(
            "{\"pattern\":\"couples\",\"spes\":2,\"volume\":65536,\"elem\":32768,\
             \"placement\":[0,1,2,3,4,5,6,7]}",
            "plan rejected",
        );
        check(
            "{\"pattern\":\"couples\",\"spes\":2,\"volume\":4096,\"elem\":128,\
             \"placement\":[0,0,2,3,4,5,6,7]}",
            "not a permutation",
        );
    }

    #[test]
    fn the_run_cost_limit_is_the_largest_paper_scale_cost() {
        let cfg = ExperimentConfig::full();
        let packet_bytes = CellSystem::blade().config().mfc.packet_bytes;
        let largest = FIGURES
            .iter()
            .filter_map(|row| figure_points(&cfg, row.id).unwrap())
            .flatten()
            .map(|point| point.plan.cost(packet_bytes))
            .max();
        assert_eq!(largest, Some(MAX_RUN_COST));
    }

    /// Each full-protocol figure's runs, as the client sends them: one
    /// batch per figure.
    fn full_figure_batches() -> Vec<Vec<RunSpec>> {
        let cfg = ExperimentConfig::full();
        let system = CellSystem::blade();
        FIGURES
            .iter()
            .filter_map(|row| figure_points(&cfg, row.id).unwrap())
            .map(|points| figure_specs(&system, &cfg, &points))
            .collect()
    }

    #[test]
    fn the_batch_cost_limit_is_the_largest_paper_scale_figure_cost() {
        let packet_bytes = CellSystem::blade().config().mfc.packet_bytes;
        let largest = full_figure_batches()
            .iter()
            .map(|specs| specs.iter().map(|s| s.plan.cost(packet_bytes)).sum::<u64>())
            .max();
        assert_eq!(largest, Some(MAX_BATCH_COST));
    }

    #[test]
    fn a_batch_of_maximal_runs_is_refused_at_decode() {
        let packet_bytes = CellSystem::blade().config().mfc.packet_bytes;
        let costliest = full_figure_batches()
            .into_iter()
            .flatten()
            .max_by_key(|s| s.plan.cost(packet_bytes))
            .expect("the protocol has runs");
        assert_eq!(costliest.plan.cost(packet_bytes), MAX_RUN_COST);
        let specs = vec![costliest; MAX_BATCH_RUNS];
        let line = encode_run_request("huge", None, &specs, false);
        let err = match decode_request(&line) {
            Err(e) => e,
            Ok(_) => panic!("expected the batch budget to refuse"),
        };
        assert_eq!(err.reason, "bad-request");
        assert_eq!(err.id.as_deref(), Some("huge"));
        let refused_at = MAX_BATCH_COST / MAX_RUN_COST;
        assert!(
            err.detail
                .starts_with(&format!("run {refused_at}: batch cost "))
                && err.detail.contains("per-batch limit"),
            "{}",
            err.detail
        );
    }

    #[test]
    fn fused_placements_are_refused_before_simulation() {
        let line = "{\"op\":\"run\",\"id\":\"b\",\
             \"faults\":{\"seed\":1,\"fused_spes\":[0]},\
             \"runs\":[{\"pattern\":\"mem-get\",\"spes\":1,\"volume\":4096,\
             \"elem\":128,\"placement\":[0,1,2,3,4,5,6,7]}]}";
        let err = match decode_request(line) {
            Err(e) => e,
            Ok(_) => panic!("expected fused refusal"),
        };
        assert!(
            err.detail.contains("fused physical SPE 0"),
            "{}",
            err.detail
        );
    }

    #[test]
    fn non_boolean_record_is_refused() {
        let line = "{\"op\":\"run\",\"id\":\"b\",\"record\":1,\"runs\":[]}";
        let err = match decode_request(line) {
            Err(e) => e,
            Ok(_) => panic!("expected refusal"),
        };
        assert_eq!(err.reason, "bad-request");
        assert!(err.detail.contains("'record'"), "{}", err.detail);
    }

    #[test]
    fn malformed_lines_are_protocol_errors() {
        for line in ["not json", "{\"op\":\"warp\"}", "{}", "{\"op\":\"run\"}"] {
            let err = match decode_request(line) {
                Err(e) => e,
                Ok(_) => panic!("expected refusal of {line:?}"),
            };
            assert_eq!(err.reason, "protocol", "line {line:?}");
        }
    }
}
