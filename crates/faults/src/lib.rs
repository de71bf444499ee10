//! Deterministic fault-injection plans for the `cellsim` fabric.
//!
//! Real Cell deployments ran degraded by design: PS3 dies shipped with
//! one of the eight SPEs fused off for yield, and production fabrics see
//! transient memory NACKs, derated bus windows, and throttled banks. A
//! [`FaultPlan`] describes such a degraded machine declaratively — which
//! physical SPEs are fused, which EIB rings are out or derated during
//! which cycle windows, how the XDR banks throttle and NACK, and how the
//! MFC retries — so the same healthy fabric model can be re-run under
//! any degradation scenario.
//!
//! Determinism is the design constraint everything here serves:
//!
//! * Plans are plain data parsed from JSON (via the workspace's
//!   serde-free [`cellsim_kernel::json`] reader) and re-emitted
//!   canonically by [`FaultPlan::to_json`], so a plan has a stable
//!   [`FaultPlan::fingerprint`] for run-cache identity.
//! * All *randomized* fault decisions (transient bank NACKs) come from
//!   [`NackStream`]s seeded per consumer from the plan seed via
//!   [`cellsim_kernel::rng::derive_seed`] — never from shared state — so
//!   a sweep produces bit-identical reports at any `--jobs` count.
//! * Windowed faults ([`Window`]) are pure functions of simulated time:
//!   the consuming models ask "is cycle `t` degraded?" and "when is the
//!   next boundary after `t`?" and schedule accordingly.
//!
//! An empty plan ([`FaultPlan::is_empty`]) is behaviourally identical to
//! running with no plan at all; the fabric relies on that to keep the
//! committed baseline bit-exact.

use std::collections::BTreeMap;
use std::fmt;

use cellsim_kernel::json::{self, JsonValue};
use cellsim_kernel::rng::derive_seed;

/// Version tag accepted in plan files (the `"version"` member).
pub const FAULT_PLAN_VERSION: u64 = 1;

/// Number of physical SPEs a fused mask can describe.
const SPE_COUNT: u8 = 8;

/// A half-open window of simulated time, `[start, start + cycles)`, in
/// bus cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First degraded cycle.
    pub start: u64,
    /// Length of the window; plans with zero-length windows are invalid.
    pub cycles: u64,
}

impl Window {
    /// One past the last degraded cycle (saturating).
    pub fn end(&self) -> u64 {
        self.start.saturating_add(self.cycles)
    }

    /// Whether `now` falls inside the window.
    pub fn contains(&self, now: u64) -> bool {
        now >= self.start && now < self.end()
    }

    /// The next window boundary (start or end) strictly after `now`, if
    /// any. Consumers fold this into their "next interesting cycle"
    /// scheduling so a blocked resource always has a wake-up time.
    pub fn next_boundary_after(&self, now: u64) -> Option<u64> {
        if now < self.start {
            Some(self.start)
        } else if now < self.end() {
            Some(self.end())
        } else {
            None
        }
    }
}

/// A window during which a resource runs at reduced capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DerateWindow {
    /// When the derating applies.
    pub window: Window,
    /// Remaining capacity in percent, `1..=100` (100 = healthy).
    pub capacity_percent: u32,
}

/// A window during which one EIB ring grants no new transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingOutage {
    /// Global ring index (the arbiter's ring order: clockwise rings
    /// first, then counter-clockwise).
    pub ring: usize,
    /// When the ring is out.
    pub window: Window,
}

/// EIB faults: ring-segment outages and bus-wide bandwidth derating.
///
/// Both affect only *newly granted* transfers — a transfer already on a
/// ring when a window opens completes at the rate it was granted with,
/// which mirrors how a real arbiter drains in-flight traffic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EibFaults {
    /// Per-ring outage windows.
    pub ring_outages: Vec<RingOutage>,
    /// Bus-wide derating windows; overlapping windows take the minimum
    /// capacity.
    pub derate: Vec<DerateWindow>,
}

impl EibFaults {
    /// No EIB faults configured.
    pub fn is_empty(&self) -> bool {
        self.ring_outages.is_empty() && self.derate.is_empty()
    }

    /// Whether ring `ring` is out at `now`.
    pub fn ring_out(&self, ring: usize, now: u64) -> bool {
        self.ring_outages
            .iter()
            .any(|o| o.ring == ring && o.window.contains(now))
    }

    /// Effective bus capacity at `now` in percent (100 = healthy).
    pub fn capacity_percent(&self, now: u64) -> u32 {
        self.derate
            .iter()
            .filter(|d| d.window.contains(now))
            .map(|d| d.capacity_percent)
            .min()
            .unwrap_or(100)
    }

    /// The next fault-window boundary strictly after `now`, if any.
    pub fn next_boundary_after(&self, now: u64) -> Option<u64> {
        let outages = self
            .ring_outages
            .iter()
            .filter_map(|o| o.window.next_boundary_after(now));
        let derates = self
            .derate
            .iter()
            .filter_map(|d| d.window.next_boundary_after(now));
        outages.chain(derates).min()
    }
}

/// Faults on one XDR bank: service-rate throttling and transient NACKs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BankFaults {
    /// Windows during which the bank services at reduced rate;
    /// overlapping windows take the minimum capacity.
    pub throttle: Vec<DerateWindow>,
    /// Probability (parts per million, `0..=1_000_000`) that an access
    /// is NACKed and must be retried by the requesting MFC.
    pub nack_ppm: u32,
}

impl BankFaults {
    /// No faults on this bank.
    pub fn is_empty(&self) -> bool {
        self.throttle.is_empty() && self.nack_ppm == 0
    }

    /// Effective service capacity at `now` in percent (100 = healthy).
    pub fn capacity_percent(&self, now: u64) -> u32 {
        self.throttle
            .iter()
            .filter(|d| d.window.contains(now))
            .map(|d| d.capacity_percent)
            .min()
            .unwrap_or(100)
    }
}

/// MFC faults: fewer outstanding-transfer slots and command-queue
/// stall windows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MfcFaults {
    /// Cap on concurrently outstanding packets (clamped to the
    /// configured `max_outstanding_packets`; `None` = healthy).
    pub slot_limit: Option<u32>,
    /// Windows during which the command unroller issues nothing.
    pub queue_stalls: Vec<Window>,
}

impl MfcFaults {
    /// No MFC faults configured.
    pub fn is_empty(&self) -> bool {
        self.slot_limit.is_none() && self.queue_stalls.is_empty()
    }

    /// If `now` is inside a stall window, the cycle the stall lifts
    /// (the latest end over all windows containing `now`).
    pub fn stalled_until(&self, now: u64) -> Option<u64> {
        self.queue_stalls
            .iter()
            .filter(|w| w.contains(now))
            .map(Window::end)
            .max()
    }
}

/// Bounded-exponential-backoff retry policy for NACKed accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed per DMA command before it is abandoned and
    /// counted as retries-exhausted.
    pub max_retries: u32,
    /// Backoff before the first retry, in bus cycles (≥ 1).
    pub backoff_base: u64,
    /// Ceiling on any single backoff, in bus cycles (≥ `backoff_base`).
    pub backoff_cap: u64,
}

impl Default for RetryPolicy {
    /// Eight retries, 32-cycle initial backoff, 4096-cycle cap.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 8,
            backoff_base: 32,
            backoff_cap: 4096,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry `attempt` (1-based): `base · 2^(attempt−1)`,
    /// capped at `backoff_cap`, never less than one cycle.
    pub fn backoff(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1);
        // Shifting past the leading zeros would drop bits, not saturate.
        let raw = if shift >= self.backoff_base.leading_zeros() {
            u64::MAX
        } else {
            self.backoff_base << shift
        };
        raw.min(self.backoff_cap).max(1)
    }
}

/// A deterministic per-consumer NACK decision stream.
///
/// Each bank owns one stream, seeded from the plan seed and the bank's
/// stream index via [`derive_seed`], and advances it once per decision.
/// Because the fabric's event loop is single-threaded and deterministic,
/// the decision sequence — and therefore the whole report — is
/// bit-identical no matter how the surrounding sweep is parallelized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NackStream {
    state: u64,
    ppm: u32,
}

impl NackStream {
    /// A stream for consumer `stream_index` of the plan seeded `seed`,
    /// NACKing with probability `ppm` parts per million.
    pub fn new(seed: u64, stream_index: u64, ppm: u32) -> Self {
        NackStream {
            state: derive_seed(seed, stream_index),
            ppm,
        }
    }

    /// A stream that never NACKs.
    pub fn disabled() -> Self {
        NackStream { state: 0, ppm: 0 }
    }

    /// Draws the next decision: `true` = NACK this access.
    pub fn roll(&mut self) -> bool {
        if self.ppm == 0 {
            return false;
        }
        // SplitMix64: Weyl increment then avalanche.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % 1_000_000) < u64::from(self.ppm)
    }
}

/// Why a plan file was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlanError {
    /// The file is not well-formed JSON.
    Json(json::JsonError),
    /// The JSON is well-formed but describes an invalid plan.
    Invalid(String),
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::Json(e) => write!(f, "fault plan: {e}"),
            FaultPlanError::Invalid(msg) => write!(f, "fault plan: {msg}"),
        }
    }
}

impl std::error::Error for FaultPlanError {}

impl From<json::JsonError> for FaultPlanError {
    fn from(e: json::JsonError) -> Self {
        FaultPlanError::Json(e)
    }
}

/// A complete, validated degradation scenario.
///
/// The default plan is empty: no fused SPEs, no windows, no NACKs —
/// behaviourally identical to a healthy machine.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for every randomized fault decision in this plan.
    pub seed: u64,
    /// Physical SPE indices (0..8) fused off; `Placement` helpers keep
    /// active logical SPEs away from these.
    pub fused_spes: Vec<u8>,
    /// EIB ring outages and derating.
    pub eib: EibFaults,
    /// Faults on the local XDR bank.
    pub local_bank: BankFaults,
    /// Faults on the remote XDR bank.
    pub remote_bank: BankFaults,
    /// MFC slot reduction and queue stalls.
    pub mfc: MfcFaults,
    /// Retry semantics for NACKed accesses.
    pub retry: RetryPolicy,
}

impl FaultPlan {
    /// Whether this plan injects nothing (behaviourally identical to a
    /// healthy machine; the seed and retry policy are then irrelevant).
    pub fn is_empty(&self) -> bool {
        self.fused_spes.is_empty()
            && self.eib.is_empty()
            && self.local_bank.is_empty()
            && self.remote_bank.is_empty()
            && self.mfc.is_empty()
    }

    /// Bitmask of fused physical SPEs (bit `k` = SPE `k` fused).
    pub fn fused_mask(&self) -> u8 {
        self.fused_spes.iter().fold(0u8, |m, &s| m | (1 << s))
    }

    /// A stable identity for run-cache keys: FNV-1a over the canonical
    /// JSON. Empty plans fingerprint to 0, the same key as "no plan",
    /// because they are behaviourally identical.
    pub fn fingerprint(&self) -> u64 {
        if self.is_empty() {
            return 0;
        }
        cellsim_kernel::fnv::fnv1a(self.to_json().as_bytes())
    }

    /// Checks plan invariants (window sanity, ranges, retry bounds).
    ///
    /// # Errors
    ///
    /// [`FaultPlanError::Invalid`] naming the first offending field.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        let bad = |msg: String| Err(FaultPlanError::Invalid(msg));
        let check_window = |what: &str, w: &Window| {
            if w.cycles == 0 {
                return bad(format!("{what}: zero-length window at cycle {}", w.start));
            }
            Ok(())
        };
        let check_derate = |what: &str, d: &DerateWindow| {
            check_window(what, &d.window)?;
            if d.capacity_percent == 0 || d.capacity_percent > 100 {
                return bad(format!(
                    "{what}: capacity_percent must be 1..=100, got {}",
                    d.capacity_percent
                ));
            }
            Ok(())
        };

        let mut seen = [false; SPE_COUNT as usize];
        for &spe in &self.fused_spes {
            if spe >= SPE_COUNT {
                return bad(format!(
                    "fused_spes: physical SPE {spe} out of range (0..8)"
                ));
            }
            if std::mem::replace(&mut seen[spe as usize], true) {
                return bad(format!("fused_spes: SPE {spe} listed twice"));
            }
        }
        if self.fused_spes.len() >= SPE_COUNT as usize {
            return bad("fused_spes: at least one SPE must remain".into());
        }
        for o in &self.eib.ring_outages {
            if o.ring >= 16 {
                return bad(format!("eib.ring_outages: ring {} out of range", o.ring));
            }
            check_window("eib.ring_outages", &o.window)?;
        }
        for d in &self.eib.derate {
            check_derate("eib.derate", d)?;
        }
        for (name, bank) in [("local", &self.local_bank), ("remote", &self.remote_bank)] {
            for d in &bank.throttle {
                check_derate(&format!("banks.{name}.throttle"), d)?;
            }
            if bank.nack_ppm > 1_000_000 {
                return bad(format!(
                    "banks.{name}.nack_ppm must be 0..=1000000, got {}",
                    bank.nack_ppm
                ));
            }
        }
        if self.mfc.slot_limit == Some(0) {
            return bad("mfc.slot_limit must be at least 1".into());
        }
        for w in &self.mfc.queue_stalls {
            check_window("mfc.queue_stalls", w)?;
        }
        if self.retry.max_retries > 64 {
            return bad(format!(
                "retry.max_retries must be 0..=64, got {}",
                self.retry.max_retries
            ));
        }
        if self.retry.backoff_base == 0 {
            return bad("retry.backoff_base must be at least 1".into());
        }
        if self.retry.backoff_cap < self.retry.backoff_base {
            return bad("retry.backoff_cap must be >= retry.backoff_base".into());
        }
        Ok(())
    }

    /// Parses and validates a plan file.
    ///
    /// Every section is optional; `{}` is the empty plan. Unknown keys
    /// are rejected so typos degrade loudly instead of silently running
    /// healthy.
    ///
    /// # Errors
    ///
    /// [`FaultPlanError`] for malformed JSON or invalid plan contents.
    pub fn parse(text: &str) -> Result<FaultPlan, FaultPlanError> {
        let doc = json::parse(text)?;
        let top = expect_obj(&doc, "plan")?;
        reject_unknown(
            top,
            &[
                "version",
                "seed",
                "fused_spes",
                "eib",
                "banks",
                "mfc",
                "retry",
            ],
            "plan",
        )?;
        if let Some(v) = top.get("version") {
            let version = expect_u64(v, "version")?;
            if version != FAULT_PLAN_VERSION {
                return Err(FaultPlanError::Invalid(format!(
                    "unsupported plan version {version} (expected {FAULT_PLAN_VERSION})"
                )));
            }
        }
        let mut plan = FaultPlan {
            seed: opt_u64(top, "seed")?.unwrap_or(0),
            ..FaultPlan::default()
        };
        if let Some(v) = top.get("fused_spes") {
            for item in expect_array(v, "fused_spes")? {
                let spe = expect_u64(item, "fused_spes entry")?;
                plan.fused_spes.push(
                    u8::try_from(spe)
                        .map_err(|_| invalid(format!("fused_spes: SPE {spe} out of range")))?,
                );
            }
        }
        if let Some(v) = top.get("eib") {
            let eib = expect_obj(v, "eib")?;
            reject_unknown(eib, &["ring_outages", "derate"], "eib")?;
            if let Some(v) = eib.get("ring_outages") {
                for item in expect_array(v, "eib.ring_outages")? {
                    let o = expect_obj(item, "eib.ring_outages entry")?;
                    reject_unknown(o, &["ring", "start", "cycles"], "eib.ring_outages entry")?;
                    plan.eib.ring_outages.push(RingOutage {
                        ring: req_u64(o, "ring", "eib.ring_outages")? as usize,
                        window: parse_window(o, "eib.ring_outages")?,
                    });
                }
            }
            if let Some(v) = eib.get("derate") {
                plan.eib.derate = parse_derates(v, "eib.derate")?;
            }
        }
        if let Some(v) = top.get("banks") {
            let banks = expect_obj(v, "banks")?;
            reject_unknown(banks, &["local", "remote"], "banks")?;
            if let Some(v) = banks.get("local") {
                plan.local_bank = parse_bank(v, "banks.local")?;
            }
            if let Some(v) = banks.get("remote") {
                plan.remote_bank = parse_bank(v, "banks.remote")?;
            }
        }
        if let Some(v) = top.get("mfc") {
            let mfc = expect_obj(v, "mfc")?;
            reject_unknown(mfc, &["slot_limit", "queue_stalls"], "mfc")?;
            if let Some(limit) = opt_u64(mfc, "slot_limit")? {
                plan.mfc.slot_limit = Some(
                    u32::try_from(limit)
                        .map_err(|_| invalid(format!("mfc.slot_limit {limit} out of range")))?,
                );
            }
            if let Some(v) = mfc.get("queue_stalls") {
                for item in expect_array(v, "mfc.queue_stalls")? {
                    let w = expect_obj(item, "mfc.queue_stalls entry")?;
                    reject_unknown(w, &["start", "cycles"], "mfc.queue_stalls entry")?;
                    plan.mfc
                        .queue_stalls
                        .push(parse_window(w, "mfc.queue_stalls")?);
                }
            }
        }
        if let Some(v) = top.get("retry") {
            let retry = expect_obj(v, "retry")?;
            reject_unknown(
                retry,
                &["max_retries", "backoff_base", "backoff_cap"],
                "retry",
            )?;
            let defaults = RetryPolicy::default();
            plan.retry = RetryPolicy {
                max_retries: match opt_u64(retry, "max_retries")? {
                    Some(n) => u32::try_from(n)
                        .map_err(|_| invalid(format!("retry.max_retries {n} out of range")))?,
                    None => defaults.max_retries,
                },
                backoff_base: opt_u64(retry, "backoff_base")?.unwrap_or(defaults.backoff_base),
                backoff_cap: opt_u64(retry, "backoff_cap")?.unwrap_or(defaults.backoff_cap),
            };
        }
        plan.validate()?;
        Ok(plan)
    }

    /// Emits the canonical JSON form: every section present, fixed key
    /// order, no whitespace. `parse(to_json(p)) == p` for valid plans,
    /// and the output is the byte string [`FaultPlan::fingerprint`]
    /// hashes.
    pub fn to_json(&self) -> String {
        let windows = |ws: &[Window]| {
            let items: Vec<String> = ws
                .iter()
                .map(|w| format!("{{\"start\":{},\"cycles\":{}}}", w.start, w.cycles))
                .collect();
            format!("[{}]", items.join(","))
        };
        let derates = |ds: &[DerateWindow]| {
            let items: Vec<String> = ds
                .iter()
                .map(|d| {
                    format!(
                        "{{\"start\":{},\"cycles\":{},\"capacity_percent\":{}}}",
                        d.window.start, d.window.cycles, d.capacity_percent
                    )
                })
                .collect();
            format!("[{}]", items.join(","))
        };
        let bank = |b: &BankFaults| {
            format!(
                "{{\"throttle\":{},\"nack_ppm\":{}}}",
                derates(&b.throttle),
                b.nack_ppm
            )
        };
        let outages: Vec<String> = self
            .eib
            .ring_outages
            .iter()
            .map(|o| {
                format!(
                    "{{\"ring\":{},\"start\":{},\"cycles\":{}}}",
                    o.ring, o.window.start, o.window.cycles
                )
            })
            .collect();
        let fused: Vec<String> = self.fused_spes.iter().map(u8::to_string).collect();
        format!(
            "{{\"version\":{},\"seed\":{},\"fused_spes\":[{}],\
             \"eib\":{{\"ring_outages\":[{}],\"derate\":{}}},\
             \"banks\":{{\"local\":{},\"remote\":{}}},\
             \"mfc\":{{\"slot_limit\":{},\"queue_stalls\":{}}},\
             \"retry\":{{\"max_retries\":{},\"backoff_base\":{},\"backoff_cap\":{}}}}}",
            FAULT_PLAN_VERSION,
            self.seed,
            fused.join(","),
            outages.join(","),
            derates(&self.eib.derate),
            bank(&self.local_bank),
            bank(&self.remote_bank),
            match self.mfc.slot_limit {
                Some(n) => n.to_string(),
                None => "null".into(),
            },
            windows(&self.mfc.queue_stalls),
            self.retry.max_retries,
            self.retry.backoff_base,
            self.retry.backoff_cap,
        )
    }

    /// Cycles in `[0, run_cycles)` covered by *any* fault window (the
    /// union over EIB outages/derates, bank throttles, and MFC stalls)
    /// — the "degraded-window cycles" reported in fault metrics.
    pub fn degraded_cycles(&self, run_cycles: u64) -> u64 {
        let mut spans: Vec<(u64, u64)> = Vec::new();
        let mut push = |w: &Window| {
            let start = w.start.min(run_cycles);
            let end = w.end().min(run_cycles);
            if end > start {
                spans.push((start, end));
            }
        };
        for o in &self.eib.ring_outages {
            push(&o.window);
        }
        for d in &self.eib.derate {
            push(&d.window);
        }
        for bank in [&self.local_bank, &self.remote_bank] {
            for d in &bank.throttle {
                push(&d.window);
            }
        }
        for w in &self.mfc.queue_stalls {
            push(w);
        }
        spans.sort_unstable();
        let mut covered = 0u64;
        let mut reach = 0u64;
        for (start, end) in spans {
            let from = start.max(reach);
            if end > from {
                covered += end - from;
                reach = end;
            }
        }
        covered
    }
}

fn invalid(msg: String) -> FaultPlanError {
    FaultPlanError::Invalid(msg)
}

fn expect_obj<'a>(
    v: &'a JsonValue,
    what: &str,
) -> Result<&'a BTreeMap<String, JsonValue>, FaultPlanError> {
    v.as_object()
        .ok_or_else(|| invalid(format!("{what} must be a JSON object")))
}

fn expect_array<'a>(v: &'a JsonValue, what: &str) -> Result<&'a [JsonValue], FaultPlanError> {
    v.as_array()
        .ok_or_else(|| invalid(format!("{what} must be a JSON array")))
}

fn expect_u64(v: &JsonValue, what: &str) -> Result<u64, FaultPlanError> {
    v.as_u64()
        .ok_or_else(|| invalid(format!("{what} must be a non-negative integer")))
}

fn opt_u64(map: &BTreeMap<String, JsonValue>, key: &str) -> Result<Option<u64>, FaultPlanError> {
    // An explicit `null` means the same as an absent key: `to_json`
    // emits `"slot_limit":null` for healthy MFCs, and the canonical
    // round-trip `parse(to_json(p)) == p` has to hold for such plans.
    match map.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(v) => expect_u64(v, key).map(Some),
    }
}

fn req_u64(
    map: &BTreeMap<String, JsonValue>,
    key: &str,
    what: &str,
) -> Result<u64, FaultPlanError> {
    let v = map
        .get(key)
        .ok_or_else(|| invalid(format!("{what}: missing \"{key}\"")))?;
    expect_u64(v, &format!("{what}.{key}"))
}

fn reject_unknown(
    map: &BTreeMap<String, JsonValue>,
    known: &[&str],
    what: &str,
) -> Result<(), FaultPlanError> {
    for key in map.keys() {
        if !known.contains(&key.as_str()) {
            return Err(invalid(format!("{what}: unknown key \"{key}\"")));
        }
    }
    Ok(())
}

fn parse_window(map: &BTreeMap<String, JsonValue>, what: &str) -> Result<Window, FaultPlanError> {
    Ok(Window {
        start: req_u64(map, "start", what)?,
        cycles: req_u64(map, "cycles", what)?,
    })
}

fn parse_derates(v: &JsonValue, what: &str) -> Result<Vec<DerateWindow>, FaultPlanError> {
    let mut out = Vec::new();
    for item in expect_array(v, what)? {
        let d = expect_obj(item, &format!("{what} entry"))?;
        reject_unknown(
            d,
            &["start", "cycles", "capacity_percent"],
            &format!("{what} entry"),
        )?;
        out.push(DerateWindow {
            window: parse_window(d, what)?,
            capacity_percent: u32::try_from(req_u64(d, "capacity_percent", what)?)
                .map_err(|_| invalid(format!("{what}: capacity_percent out of range")))?,
        });
    }
    Ok(out)
}

fn parse_bank(v: &JsonValue, what: &str) -> Result<BankFaults, FaultPlanError> {
    let bank = expect_obj(v, what)?;
    reject_unknown(bank, &["throttle", "nack_ppm"], what)?;
    let mut out = BankFaults::default();
    if let Some(v) = bank.get("throttle") {
        out.throttle = parse_derates(v, &format!("{what}.throttle"))?;
    }
    if let Some(ppm) = opt_u64(bank, "nack_ppm")? {
        out.nack_ppm =
            u32::try_from(ppm).map_err(|_| invalid(format!("{what}.nack_ppm out of range")))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> FaultPlan {
        FaultPlan {
            seed: 7,
            fused_spes: vec![7],
            eib: EibFaults {
                ring_outages: vec![RingOutage {
                    ring: 1,
                    window: Window {
                        start: 100,
                        cycles: 50,
                    },
                }],
                derate: vec![DerateWindow {
                    window: Window {
                        start: 0,
                        cycles: 1000,
                    },
                    capacity_percent: 25,
                }],
            },
            local_bank: BankFaults {
                throttle: vec![DerateWindow {
                    window: Window {
                        start: 10,
                        cycles: 20,
                    },
                    capacity_percent: 50,
                }],
                nack_ppm: 2000,
            },
            remote_bank: BankFaults::default(),
            mfc: MfcFaults {
                slot_limit: Some(2),
                queue_stalls: vec![Window {
                    start: 5,
                    cycles: 5,
                }],
            },
            retry: RetryPolicy::default(),
        }
    }

    #[test]
    fn windows_contain_and_bound() {
        let w = Window {
            start: 10,
            cycles: 5,
        };
        assert!(!w.contains(9));
        assert!(w.contains(10));
        assert!(w.contains(14));
        assert!(!w.contains(15));
        assert_eq!(w.next_boundary_after(0), Some(10));
        assert_eq!(w.next_boundary_after(10), Some(15));
        assert_eq!(w.next_boundary_after(14), Some(15));
        assert_eq!(w.next_boundary_after(15), None);
    }

    #[test]
    fn eib_faults_answer_time_queries() {
        let plan = sample_plan();
        assert!(plan.eib.ring_out(1, 120));
        assert!(!plan.eib.ring_out(0, 120));
        assert!(!plan.eib.ring_out(1, 150));
        assert_eq!(plan.eib.capacity_percent(500), 25);
        assert_eq!(plan.eib.capacity_percent(1000), 100);
        assert_eq!(plan.eib.next_boundary_after(0), Some(100));
        assert_eq!(plan.eib.next_boundary_after(120), Some(150));
    }

    #[test]
    fn retry_backoff_is_bounded_exponential() {
        let policy = RetryPolicy {
            max_retries: 8,
            backoff_base: 32,
            backoff_cap: 100,
        };
        assert_eq!(policy.backoff(1), 32);
        assert_eq!(policy.backoff(2), 64);
        assert_eq!(policy.backoff(3), 100, "capped");
        assert_eq!(policy.backoff(60), 100, "no overflow at large attempts");
    }

    #[test]
    fn nack_stream_is_deterministic_and_respects_ppm() {
        let mut a = NackStream::new(7, 0, 500_000);
        let mut b = NackStream::new(7, 0, 500_000);
        let draws_a: Vec<bool> = (0..64).map(|_| a.roll()).collect();
        let draws_b: Vec<bool> = (0..64).map(|_| b.roll()).collect();
        assert_eq!(draws_a, draws_b);
        assert!(draws_a.iter().any(|&d| d) && draws_a.iter().any(|&d| !d));
        let mut never = NackStream::new(7, 0, 0);
        assert!((0..1000).all(|_| !never.roll()));
        let mut always = NackStream::new(7, 0, 1_000_000);
        assert!((0..1000).all(|_| always.roll()));
    }

    #[test]
    fn streams_decorrelate_by_index() {
        let mut a = NackStream::new(7, 0, 500_000);
        let mut b = NackStream::new(7, 1, 500_000);
        let draws_a: Vec<bool> = (0..64).map(|_| a.roll()).collect();
        let draws_b: Vec<bool> = (0..64).map(|_| b.roll()).collect();
        assert_ne!(draws_a, draws_b);
    }

    #[test]
    fn empty_plan_parses_and_fingerprints_to_zero() {
        let plan = FaultPlan::parse("{}").unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.fingerprint(), 0);
        assert_eq!(plan, FaultPlan::default());
        // A non-empty plan fingerprints away from the healthy key.
        assert_ne!(sample_plan().fingerprint(), 0);
    }

    #[test]
    fn canonical_json_round_trips() {
        let plan = sample_plan();
        let json = plan.to_json();
        let back = FaultPlan::parse(&json).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.to_json(), json);
        assert_eq!(back.fingerprint(), plan.fingerprint());
    }

    #[test]
    fn healthy_mfc_round_trips_through_its_own_json() {
        // `to_json` writes `"slot_limit":null` when no limit is set; the
        // parser must read that back as absent, not reject the document
        // the serializer itself produced.
        let mut plan = sample_plan();
        plan.mfc.slot_limit = None;
        let json = plan.to_json();
        assert!(json.contains("\"slot_limit\":null"), "json: {json}");
        let back = FaultPlan::parse(&json).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn parse_accepts_sparse_documents() {
        let plan =
            FaultPlan::parse(r#"{"seed": 3, "banks": {"remote": {"nack_ppm": 10}}}"#).unwrap();
        assert_eq!(plan.seed, 3);
        assert_eq!(plan.remote_bank.nack_ppm, 10);
        assert!(plan.local_bank.is_empty());
        assert_eq!(plan.retry, RetryPolicy::default());
    }

    #[test]
    fn parse_rejects_bad_documents() {
        for (doc, why) in [
            ("[]", "non-object"),
            (r#"{"version": 2}"#, "bad version"),
            (r#"{"sed": 1}"#, "unknown key"),
            (r#"{"fused_spes": [8]}"#, "SPE out of range"),
            (r#"{"fused_spes": [0,0]}"#, "duplicate SPE"),
            (r#"{"fused_spes": [0,1,2,3,4,5,6,7]}"#, "no SPE left"),
            (
                r#"{"eib": {"derate": [{"start":0,"cycles":0,"capacity_percent":50}]}}"#,
                "zero-length window",
            ),
            (
                r#"{"eib": {"derate": [{"start":0,"cycles":5,"capacity_percent":0}]}}"#,
                "zero capacity",
            ),
            (
                r#"{"banks": {"local": {"nack_ppm": 1000001}}}"#,
                "ppm over 1e6",
            ),
            (r#"{"mfc": {"slot_limit": 0}}"#, "zero slots"),
            (
                r#"{"retry": {"backoff_base": 8, "backoff_cap": 4}}"#,
                "cap below base",
            ),
        ] {
            assert!(FaultPlan::parse(doc).is_err(), "should reject: {why}");
        }
    }

    #[test]
    fn degraded_cycles_unions_and_clips() {
        let plan = sample_plan();
        // Windows: [100,150) ∪ [0,1000) ∪ [10,30) ∪ [5,10) = [0,1000).
        assert_eq!(plan.degraded_cycles(2000), 1000);
        assert_eq!(plan.degraded_cycles(400), 400, "clipped to the run");
        assert_eq!(FaultPlan::default().degraded_cycles(1000), 0);
    }

    #[test]
    fn fused_mask_matches_list() {
        let plan = FaultPlan {
            fused_spes: vec![0, 7],
            ..FaultPlan::default()
        };
        assert_eq!(plan.fused_mask(), 0b1000_0001);
    }
}
