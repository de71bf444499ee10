//! Typed fabric-run failures: what a stalled simulation looked like.
//!
//! A fabric run that cannot complete — it walked past its safety horizon,
//! churned events without simulated time advancing, or drained its event
//! queue with SPEs still holding work — used to abort the process with an
//! `assert!`. It now returns [`RunFailure::Stall`] carrying a
//! [`StallDiagnosis`]: per-SPE pending commands, MFC queue depth and slot
//! occupancy, in-flight packets by lifecycle phase, NACK/retry counters,
//! and the last cycle at which any payload was delivered. The diagnosis
//! renders as a human-readable dump ([`fmt::Display`]) and as
//! deterministic machine JSON ([`StallDiagnosis::to_json`]).

use std::fmt;

use crate::json::Writer;

/// Why a fabric run could not produce a [`FabricReport`]
/// (crate::FabricReport).
#[derive(Debug, Clone, PartialEq)]
pub enum RunFailure {
    /// The simulation stalled; the diagnosis says where the work got
    /// stuck. Boxed so the error path costs one pointer on the happy
    /// path's `Result`.
    Stall(Box<StallDiagnosis>),
}

impl RunFailure {
    /// The stall diagnosis.
    pub fn diagnosis(&self) -> &StallDiagnosis {
        match self {
            RunFailure::Stall(d) => d,
        }
    }

    /// Machine-readable rendering (deterministic JSON, one line).
    #[must_use]
    pub fn to_json(&self) -> String {
        self.diagnosis().to_json()
    }
}

impl fmt::Display for RunFailure {
    /// The full human-readable diagnosis dump (multi-line).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.diagnosis())
    }
}

impl std::error::Error for RunFailure {}

/// How the progress watchdog classified the stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// Still generating events past the safety horizon: the run will not
    /// finish in bounded simulated time.
    HorizonExceeded,
    /// A zero-delay event storm: events kept firing without simulated
    /// time advancing.
    Livelock,
    /// The event queue drained with SPEs still holding queued or
    /// in-flight work: nothing will ever wake them.
    Deadlock,
}

impl StallKind {
    /// Stable kebab-case name (the JSON `kind` field).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StallKind::HorizonExceeded => "horizon-exceeded",
            StallKind::Livelock => "livelock",
            StallKind::Deadlock => "deadlock",
        }
    }
}

/// Lifecycle phase of one bus packet, tracked from command issue to
/// retirement; a stalled run's diagnosis counts in-flight packets per
/// phase, which localizes the stuck resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketPhase {
    /// On the command bus (issue + snoop).
    Command,
    /// Waiting for source data (a DRAM read or Local-Store access).
    SourceWait,
    /// A memory PUT refused by its bank's backlog horizon.
    MemWait,
    /// Queued at the EIB data arbiter.
    EibQueue,
    /// Granted a ring; payload moving.
    OnWire,
    /// Delivered memory PUT whose DRAM write has not retired yet.
    DramWrite,
    /// Done: delivered (or abandoned) and its MFC slot freed.
    Retired,
}

impl PacketPhase {
    /// The in-flight phases, in lifecycle order (excludes
    /// [`PacketPhase::Retired`]).
    pub const IN_FLIGHT: [PacketPhase; 6] = [
        PacketPhase::Command,
        PacketPhase::SourceWait,
        PacketPhase::MemWait,
        PacketPhase::EibQueue,
        PacketPhase::OnWire,
        PacketPhase::DramWrite,
    ];

    /// Stable kebab-case name (the JSON phase keys).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PacketPhase::Command => "command",
            PacketPhase::SourceWait => "source-wait",
            PacketPhase::MemWait => "mem-wait",
            PacketPhase::EibQueue => "eib-queue",
            PacketPhase::OnWire => "on-wire",
            PacketPhase::DramWrite => "dram-write",
            PacketPhase::Retired => "retired",
        }
    }
}

/// One SPE's snapshot at the moment the stall was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpeStall {
    /// Logical SPE index.
    pub spe: usize,
    /// Physical SPE this run mapped it to.
    pub physical: u8,
    /// The stall-partition state name (`"busy"`, `"stall-mem"`, …).
    pub state: &'static str,
    /// Plan commands not yet fed into the MFC.
    pub pending_commands: usize,
    /// Commands sitting in the MFC queue.
    pub mfc_queue_depth: usize,
    /// Outstanding-slot occupancy (packets in flight).
    pub outstanding: usize,
    /// The effective slot budget (after any fault-plan slot limit).
    pub slot_budget: usize,
    /// Blocked on a tag-group sync.
    pub waiting_sync: bool,
    /// This SPE's packets queued at the EIB data arbiter.
    pub packets_waiting_eib: u32,
    /// This SPE's PUT packets refused by a bank's backlog horizon.
    pub packets_waiting_mem: u32,
    /// The last cycle this SPE saw a payload delivered (0 if never).
    pub last_delivery_cycle: u64,
}

impl SpeStall {
    /// True when this SPE still holds work (the interesting rows of a
    /// diagnosis dump).
    #[must_use]
    pub fn is_busy(&self) -> bool {
        self.pending_commands > 0 || self.mfc_queue_depth > 0 || self.outstanding > 0
    }

    fn write_json(&self, w: &mut Writer) {
        w.begin_object()
            .key("spe")
            .u64(self.spe as u64)
            .key("physical")
            .u64(u64::from(self.physical))
            .key("state")
            .str(self.state)
            .key("pending_commands")
            .u64(self.pending_commands as u64)
            .key("mfc_queue_depth")
            .u64(self.mfc_queue_depth as u64)
            .key("outstanding")
            .u64(self.outstanding as u64)
            .key("slot_budget")
            .u64(self.slot_budget as u64)
            .key("waiting_sync")
            .bool(self.waiting_sync)
            .key("packets_waiting_eib")
            .u64(u64::from(self.packets_waiting_eib))
            .key("packets_waiting_mem")
            .u64(u64::from(self.packets_waiting_mem))
            .key("last_delivery_cycle")
            .u64(self.last_delivery_cycle)
            .end_object();
    }
}

/// Everything the fabric knew when its progress watchdog tripped.
///
/// The human rendering is [`fmt::Display`]; the machine rendering is
/// [`StallDiagnosis::to_json`] (deterministic: pure integers and fixed
/// key order, so equal diagnoses render byte-identically).
#[derive(Debug, Clone, PartialEq)]
pub struct StallDiagnosis {
    /// What tripped the watchdog.
    pub kind: StallKind,
    /// Simulated time at detection.
    pub at_cycle: u64,
    /// The safety horizon the run was given.
    pub horizon: u64,
    /// The last cycle at which any SPE saw a delivery (0 if none ever).
    pub last_progress_cycle: u64,
    /// Events the simulation processed in total.
    pub events_processed: u64,
    /// Events processed since simulated time last advanced.
    pub events_since_progress: u64,
    /// Bus packets fully delivered before the stall.
    pub delivered_packets: u64,
    /// Bus packets issued but not retired, per in-flight phase, in
    /// [`PacketPhase::IN_FLIGHT`] order.
    pub packets_by_phase: [u64; 6],
    /// Transient bank NACKs observed.
    pub nacks: u64,
    /// Backoff retries performed.
    pub retries: u64,
    /// Commands whose retry budget ran out.
    pub retries_exhausted: u64,
    /// Per-logical-SPE snapshots, for every SPE of the plan.
    pub per_spe: Vec<SpeStall>,
}

impl StallDiagnosis {
    /// Total in-flight packets across all phases.
    #[must_use]
    pub fn packets_in_flight(&self) -> u64 {
        self.packets_by_phase.iter().sum()
    }

    /// Deterministic machine JSON (one line, fixed key order).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = Writer::with_capacity(512 + 256 * self.per_spe.len());
        w.begin_object()
            .key("kind")
            .str(self.kind.name())
            .key("at_cycle")
            .u64(self.at_cycle)
            .key("horizon")
            .u64(self.horizon)
            .key("last_progress_cycle")
            .u64(self.last_progress_cycle)
            .key("events_processed")
            .u64(self.events_processed)
            .key("events_since_progress")
            .u64(self.events_since_progress)
            .key("delivered_packets")
            .u64(self.delivered_packets)
            .key("packets_in_flight")
            .u64(self.packets_in_flight())
            .key("packets_by_phase")
            .begin_object();
        for (phase, &n) in PacketPhase::IN_FLIGHT.iter().zip(&self.packets_by_phase) {
            w.key(phase.name()).u64(n);
        }
        w.end_object()
            .key("faults")
            .begin_object()
            .key("nacks")
            .u64(self.nacks)
            .key("retries")
            .u64(self.retries)
            .key("retries_exhausted")
            .u64(self.retries_exhausted)
            .end_object()
            .key("per_spe")
            .begin_array();
        for spe in &self.per_spe {
            spe.write_json(&mut w);
        }
        w.end_array().end_object();
        w.finish()
    }
}

impl fmt::Display for StallDiagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fabric stall ({}) at cycle {} (horizon {}), last progress at cycle {}",
            self.kind.name(),
            self.at_cycle,
            self.horizon,
            self.last_progress_cycle
        )?;
        writeln!(
            f,
            "  events: {} processed, {} since last progress; packets: {} delivered, {} in flight",
            self.events_processed,
            self.events_since_progress,
            self.delivered_packets,
            self.packets_in_flight()
        )?;
        let phases: Vec<String> = PacketPhase::IN_FLIGHT
            .iter()
            .zip(&self.packets_by_phase)
            .filter(|&(_, &n)| n > 0)
            .map(|(p, n)| format!("{} {n}", p.name()))
            .collect();
        if !phases.is_empty() {
            writeln!(f, "  in flight by phase: {}", phases.join(", "))?;
        }
        if self.nacks > 0 || self.retries > 0 || self.retries_exhausted > 0 {
            writeln!(
                f,
                "  faults: {} NACKs, {} retries, {} exhausted",
                self.nacks, self.retries, self.retries_exhausted
            )?;
        }
        for s in &self.per_spe {
            if !s.is_busy() {
                continue;
            }
            writeln!(
                f,
                "  SPE{} (phys {}): {}, {} plan commands pending, MFC queue {}, \
                 slots {}/{}{}, eib-wait {}, mem-wait {}, last delivery cycle {}",
                s.spe,
                s.physical,
                s.state,
                s.pending_commands,
                s.mfc_queue_depth,
                s.outstanding,
                s.slot_budget,
                if s.waiting_sync { ", sync-wait" } else { "" },
                s.packets_waiting_eib,
                s.packets_waiting_mem,
                s.last_delivery_cycle
            )?;
        }
        let idle = self.per_spe.iter().filter(|s| !s.is_busy()).count();
        if idle > 0 {
            writeln!(f, "  ({idle} SPEs idle/complete)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StallDiagnosis {
        StallDiagnosis {
            kind: StallKind::HorizonExceeded,
            at_cycle: 123,
            horizon: 1000,
            last_progress_cycle: 120,
            events_processed: 40,
            events_since_progress: 2,
            delivered_packets: 3,
            packets_by_phase: [0, 2, 1, 0, 0, 0],
            nacks: 5,
            retries: 4,
            retries_exhausted: 1,
            per_spe: vec![
                SpeStall {
                    spe: 0,
                    physical: 3,
                    state: "stall-mem",
                    pending_commands: 2,
                    mfc_queue_depth: 1,
                    outstanding: 3,
                    slot_budget: 8,
                    waiting_sync: false,
                    packets_waiting_eib: 0,
                    packets_waiting_mem: 1,
                    last_delivery_cycle: 120,
                },
                SpeStall {
                    spe: 1,
                    physical: 1,
                    state: "idle",
                    pending_commands: 0,
                    mfc_queue_depth: 0,
                    outstanding: 0,
                    slot_budget: 8,
                    waiting_sync: false,
                    packets_waiting_eib: 0,
                    packets_waiting_mem: 0,
                    last_delivery_cycle: 80,
                },
            ],
        }
    }

    #[test]
    fn dump_names_the_stuck_spe_and_elides_idle_ones() {
        let text = sample().to_string();
        assert!(text.contains("horizon-exceeded"));
        assert!(text.contains("SPE0 (phys 3): stall-mem"));
        assert!(text.contains("slots 3/8"));
        assert!(text.contains("source-wait 2"));
        assert!(text.contains("5 NACKs"));
        assert!(!text.contains("SPE1"));
        assert!(text.contains("(1 SPEs idle/complete)"));
    }

    #[test]
    fn json_parses_back_with_every_field() {
        let d = sample();
        let v = crate::json::parse(&d.to_json()).expect("diagnosis JSON parses");
        assert_eq!(v.get("kind").unwrap().as_str(), Some("horizon-exceeded"));
        assert_eq!(v.get("at_cycle").unwrap().as_u64(), Some(123));
        assert_eq!(v.get("packets_in_flight").unwrap().as_u64(), Some(3));
        assert_eq!(
            v.get("packets_by_phase")
                .unwrap()
                .get("source-wait")
                .unwrap()
                .as_u64(),
            Some(2)
        );
        assert_eq!(
            v.get("faults").unwrap().get("nacks").unwrap().as_u64(),
            Some(5)
        );
        let spes = v.get("per_spe").unwrap().as_array().unwrap();
        assert_eq!(spes.len(), 2);
        assert_eq!(spes[0].get("state").unwrap().as_str(), Some("stall-mem"));
        assert_eq!(spes[0].get("slot_budget").unwrap().as_u64(), Some(8));
    }

    #[test]
    fn failure_display_is_the_diagnosis_dump() {
        let failure = RunFailure::Stall(Box::new(sample()));
        assert_eq!(failure.to_string(), sample().to_string());
        assert_eq!(failure.to_json(), sample().to_json());
    }
}
