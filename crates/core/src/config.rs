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
use crate::exec::config_fingerprint;
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
#[derive(Debug, Clone)]
pub struct CellSystem {
    config: CellConfig,
    /// Installed fault plan. `None` (and an installed *empty* plan, which
    /// [`CellSystem::with_faults`] normalizes away) means the healthy
    /// fabric runs with zero fault-layer overhead. Kept off [`CellConfig`]
    /// so machine fingerprints and persisted baselines are unaffected;
    /// the plan contributes to cache identity via
    /// [`CellSystem::faults_fingerprint`].
    faults: Option<Arc<FaultPlan>>,
    /// [`config_fingerprint`] of `config`, computed when the machine is
    /// built: every run key of the machine reads it.
    config_fingerprint: u64,
    /// The fault plan's fingerprint, 0 when healthy; computed with it.
    faults_fingerprint: u64,
}

impl Default for CellSystem {
    fn default() -> Self {
        CellSystem::new(CellConfig::default())
    }
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
            config_fingerprint: config_fingerprint(&config),
            faults_fingerprint: 0,
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
        (self.faults, self.faults_fingerprint) = if plan.is_empty() {
            (None, 0)
        } else {
            let fingerprint = plan.fingerprint();
            (Some(Arc::new(plan)), fingerprint)
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
        self.faults_fingerprint
    }

    /// Cache identity of the machine configuration:
    /// [`config_fingerprint`]`(self.config())`, computed once when the
    /// machine was built.
    pub fn config_fingerprint(&self) -> u64 {
        self.config_fingerprint
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

#[cfg(test)]
mod tests {
    use cellsim_mem::NumaPolicy;

    use super::*;

    /// The cached fingerprints equal the ones computed from scratch.
    fn assert_cached(system: &CellSystem) {
        assert_eq!(
            system.config_fingerprint(),
            config_fingerprint(system.config())
        );
        assert_eq!(
            system.faults_fingerprint(),
            system.faults().map_or(0, FaultPlan::fingerprint)
        );
    }

    fn derated() -> FaultPlan {
        FaultPlan::parse(
            "{\"seed\":7,\"eib\":{\"derate\":[{\"start\":0,\"cycles\":1000,\
             \"capacity_percent\":50}]}}",
        )
        .expect("valid plan")
    }

    #[test]
    fn preset_machines_carry_their_fingerprints() {
        for system in [
            CellSystem::blade(),
            CellSystem::ps3(),
            CellSystem::default(),
        ] {
            assert_cached(&system);
        }
        assert_eq!(CellSystem::blade().faults_fingerprint(), 0);
        assert_ne!(CellSystem::ps3().faults_fingerprint(), 0);
    }

    #[test]
    fn edited_configs_carry_their_fingerprints() {
        let blade = CellSystem::blade().config_fingerprint();
        let edits: [fn(&mut CellConfig); 4] = [
            |c| c.cmd_latency += 1,
            |c| c.mfc.packet_bytes = 64,
            |c| c.local_bank = c.remote_bank,
            |c| c.numa = NumaPolicy::LocalOnly,
        ];
        for edit in edits {
            let mut config = CellConfig::default();
            edit(&mut config);
            let system = CellSystem::new(config);
            assert_cached(&system);
            assert_ne!(system.config_fingerprint(), blade);
        }
    }

    #[test]
    fn installed_plans_carry_their_fingerprints() {
        let config = CellConfig {
            cmd_latency: 3,
            ..CellConfig::default()
        };
        let healthy = CellSystem::new(config).with_faults(FaultPlan::default());
        assert_cached(&healthy);
        assert_eq!(healthy.faults_fingerprint(), 0);

        let degraded = healthy.with_faults(derated());
        assert_cached(&degraded);
        assert_eq!(degraded.faults_fingerprint(), derated().fingerprint());
        assert_eq!(
            degraded.config_fingerprint(),
            config_fingerprint(&config),
            "a fault plan leaves the config's identity alone"
        );

        let restored = degraded.with_faults(FaultPlan::default());
        assert_cached(&restored);
        assert_eq!(restored.faults_fingerprint(), 0);
    }
}
