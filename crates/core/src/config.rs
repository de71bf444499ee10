//! Machine configuration and the top-level [`CellSystem`] handle.

use std::sync::Arc;

use cellsim_eib::EibConfig;
use cellsim_faults::FaultPlan;
use cellsim_kernel::MachineClock;
use cellsim_mem::{BankConfig, NumaPolicy};
use cellsim_mfc::MfcConfig;
use cellsim_ppe::{PpeConfig, PpeModel};
use cellsim_spe::{SpuLsConfig, SpuLsModel};

use crate::data::MachineState;
use crate::fabric::{self, FabricReport};
use crate::failure::RunFailure;
use crate::placement::Placement;
use crate::plan::TransferPlan;
use crate::tracing::TraceSink;

/// Every tunable of the simulated blade in one place.
///
/// The defaults reproduce the ISPASS 2007 machine: a 2.1 GHz CBE with the
/// bus at half speed, four EIB rings, 16-entry MFC queues with an
/// 8-packet outstanding budget, a 16.8 GB/s local XDR bank and a 7 GB/s
/// remote bank, and round-robin NUMA region placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellConfig {
    /// CPU/bus frequencies.
    pub clock: MachineClock,
    /// Element Interconnect Bus structure.
    pub eib: EibConfig,
    /// Cycles between command-bus starts (1 = full rate).
    pub cmd_issue_interval: u64,
    /// Command-bus snoop latency in bus cycles.
    pub cmd_latency: u64,
    /// Per-SPE MFC structure.
    pub mfc: MfcConfig,
    /// Local XDR bank behind the MIC.
    pub local_bank: BankConfig,
    /// Remote bank behind IOIF0.
    pub remote_bank: BankConfig,
    /// How regions map onto banks.
    pub numa: NumaPolicy,
    /// Local-Store-side service latency for LS↔LS packets (bus cycles).
    pub ls_access_latency: u64,
    /// SPU cost of enqueuing one MFC command (bus cycles).
    pub enqueue_cost: u64,
    /// PPE pipeline structure (used by the PPE experiments).
    pub ppe: PpeConfig,
    /// SPU↔LS pipeline costs (used by the §4.2.2 experiment).
    pub spu_ls: SpuLsConfig,
}

impl Default for CellConfig {
    fn default() -> Self {
        CellConfig {
            clock: MachineClock::default(),
            eib: EibConfig::default(),
            cmd_issue_interval: 1,
            cmd_latency: 10,
            mfc: MfcConfig::default(),
            local_bank: BankConfig::local_xdr(),
            remote_bank: BankConfig::remote_xdr(),
            numa: NumaPolicy::default(),
            ls_access_latency: 2,
            enqueue_cost: 2,
            ppe: PpeConfig::default(),
            spu_ls: SpuLsConfig::default(),
        }
    }
}

/// A configured Cell blade, ready to run transfer plans and kernels.
///
/// See the [crate-level quickstart](crate).
#[derive(Debug, Clone, Default)]
pub struct CellSystem {
    config: CellConfig,
    /// Installed fault plan. `None` (and an installed *empty* plan, which
    /// [`CellSystem::with_faults`] normalizes away) means the healthy
    /// fabric runs with zero fault-layer overhead. Kept off [`CellConfig`]
    /// so machine fingerprints and persisted baselines are unaffected;
    /// the plan contributes to cache identity via
    /// [`CellSystem::faults_fingerprint`].
    faults: Option<Arc<FaultPlan>>,
}

impl CellSystem {
    /// The paper's blade with all defaults.
    pub fn blade() -> CellSystem {
        CellSystem::default()
    }

    /// A blade with an explicit configuration.
    pub fn new(config: CellConfig) -> CellSystem {
        CellSystem {
            config,
            faults: None,
        }
    }

    /// The PS3-style 7-SPE machine: the paper's blade with one SPE fused
    /// off (physical SPE 7), as shipped in every PlayStation 3 console
    /// for yield. Run plans on it with a placement that avoids the fused
    /// SPE, e.g. [`Placement::lottery_avoiding`](crate::Placement).
    pub fn ps3() -> CellSystem {
        CellSystem::blade().with_faults(FaultPlan {
            fused_spes: vec![7],
            ..FaultPlan::default()
        })
    }

    /// Returns this machine with `plan` installed. An empty plan is
    /// normalized to no plan, so a zero-fault plan is *behaviourally and
    /// cache-identically* the healthy machine.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> CellSystem {
        self.faults = if plan.is_empty() {
            None
        } else {
            Some(Arc::new(plan))
        };
        self
    }

    /// The installed fault plan, if any.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_deref()
    }

    /// Cache identity of the installed fault plan: its canonical-JSON
    /// fingerprint, 0 when healthy (no plan or an empty one).
    pub fn faults_fingerprint(&self) -> u64 {
        self.faults.as_ref().map_or(0, |p| p.fingerprint())
    }

    /// The machine configuration.
    pub fn config(&self) -> &CellConfig {
        &self.config
    }

    /// Runs a DMA transfer plan under `placement` and reports bandwidths.
    ///
    /// # Errors
    ///
    /// [`RunFailure::Stall`] when the fabric deadlocks, livelocks, or
    /// exceeds its safety horizon; the diagnosis snapshots the stuck
    /// machine (per-SPE queues, in-flight packets by phase, retry
    /// counters). Plans are validated at construction, so a stall
    /// indicates a pathological configuration or a simulator bug — but it
    /// is reported, not a process abort.
    pub fn try_run(
        &self,
        placement: &Placement,
        plan: &TransferPlan,
    ) -> Result<FabricReport, RunFailure> {
        fabric::run_plan(&self.config, self.faults(), placement, plan, None, None)
    }

    /// Runs a plan *and moves real bytes*: every delivered packet copies
    /// its payload between `state`'s main memory and Local Stores, in
    /// delivery order. Timing is identical to [`CellSystem::try_run`].
    ///
    /// # Errors
    ///
    /// [`RunFailure::Stall`] under the same conditions as
    /// [`CellSystem::try_run`]. On failure `state` holds the payloads
    /// delivered before the stall.
    pub fn try_run_with_data(
        &self,
        placement: &Placement,
        plan: &TransferPlan,
        state: &mut MachineState,
    ) -> Result<FabricReport, RunFailure> {
        fabric::run_plan(
            &self.config,
            self.faults(),
            placement,
            plan,
            Some(state),
            None,
        )
    }

    /// Runs a plan streaming every packet-phase event into `sink` — the
    /// one trace entry point, behind the persistent trace store
    /// ([`crate::tracestore`]). Timing is identical to
    /// [`CellSystem::try_run`]: sinks observe the simulation, they never
    /// perturb it.
    ///
    /// # Errors
    ///
    /// [`RunFailure::Stall`] under the same conditions as
    /// [`CellSystem::try_run`]; whatever the sink already consumed is the
    /// caller's to discard.
    pub fn try_run_with_sink(
        &self,
        placement: &Placement,
        plan: &TransferPlan,
        sink: &mut dyn TraceSink,
    ) -> Result<FabricReport, RunFailure> {
        fabric::run_plan(
            &self.config,
            self.faults(),
            placement,
            plan,
            None,
            Some(sink),
        )
    }

    /// The PPE pipeline model configured for this machine.
    pub fn ppe_model(&self) -> PpeModel {
        PpeModel::new(self.config.ppe, self.config.clock)
    }

    /// The SPU↔Local-Store model configured for this machine.
    pub fn spu_ls_model(&self) -> SpuLsModel {
        SpuLsModel::new(self.config.spu_ls)
    }
}
