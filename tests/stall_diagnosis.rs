//! The typed failure pipeline: a pathological machine configuration
//! yields `Err(RunFailure::Stall(..))` with a usable diagnosis instead
//! of a process abort, through every run entry point and the kernel
//! roofline and task runtime built on them.

use cellsim::exec::{RunError, SweepExecutor};
use cellsim::experiments::{execute_tasks, kernel_estimate, ProgramError};
use cellsim::tracestore::TraceStoreWriter;
use cellsim::workloads::{KernelSpec, Task};
use cellsim::{CellConfig, CellSystem, Placement, RunFailure, StallKind, SyncPolicy, TransferPlan};

/// A blade whose local bank answers after 100 G bus cycles: the first
/// memory access schedules past the 50 G-cycle safety horizon, so the
/// run can never drain. Cheap to simulate — the watchdog trips on the
/// first out-of-horizon event.
fn glacial_blade() -> CellSystem {
    let mut config = CellConfig::default();
    config.local_bank.access_latency = 100_000_000_000;
    config.remote_bank.access_latency = 100_000_000_000;
    CellSystem::new(config)
}

fn plan() -> TransferPlan {
    TransferPlan::builder()
        .get_from_memory(0, 64 << 10, 16 * 1024, SyncPolicy::AfterAll)
        .build()
        .unwrap()
}

#[test]
fn stalling_run_returns_a_diagnosis_not_a_panic() {
    let failure = glacial_blade()
        .try_run(&Placement::identity(), &plan())
        .unwrap_err();
    let RunFailure::Stall(diagnosis) = &failure;
    assert_eq!(diagnosis.kind, StallKind::HorizonExceeded);
    assert!(
        !diagnosis.per_spe.is_empty(),
        "diagnosis must snapshot per-SPE state"
    );
    assert!(
        diagnosis.per_spe.iter().any(cellsim::SpeStall::is_busy),
        "at least one SPE must be caught mid-transfer: {diagnosis}"
    );
    assert!(
        diagnosis.packets_in_flight() > 0
            || diagnosis.per_spe.iter().any(|s| s.pending_commands > 0),
        "a stall leaves work somewhere in the machine"
    );
}

/// The horizon trips before the first memory access returns, so a
/// 128 B-element stream leaves its MFC queue full and the rest of its
/// script not yet enqueued: the diagnosis counts exactly those commands.
#[test]
fn diagnosis_counts_the_commands_not_yet_enqueued() {
    let plan = TransferPlan::builder()
        .get_from_memory(0, 64 << 10, 128, SyncPolicy::AfterAll)
        .build()
        .unwrap();
    let failure = glacial_blade()
        .try_run(&Placement::identity(), &plan)
        .unwrap_err();
    let spe = &failure.diagnosis().per_spe[0];
    // 512 commands: 16 fill the MFC queue, 496 wait in the script.
    assert_eq!(spe.mfc_queue_depth, 16);
    assert_eq!(spe.pending_commands, 496);
    assert!(failure.diagnosis().per_spe[1..]
        .iter()
        .all(|s| s.pending_commands == 0));
}

#[test]
fn diagnosis_serializes_and_displays() {
    let failure = glacial_blade()
        .try_run(&Placement::identity(), &plan())
        .unwrap_err();
    let dump = failure.to_string();
    assert!(dump.contains("horizon-exceeded"), "dump:\n{dump}");
    assert!(dump.contains("SPE"), "dump:\n{dump}");
    let json = failure.diagnosis().to_json();
    let value = cellsim::json::parse(&json).expect("diagnosis JSON parses");
    assert_eq!(
        value.get("kind").and_then(cellsim::json::JsonValue::as_str),
        Some("horizon-exceeded")
    );
    assert!(value.get("per_spe").is_some());
}

/// The diagnosis JSON is pinned byte for byte: the fixture was recorded
/// from the hand-formatted writer that preceded `json::Writer`.
#[test]
fn horizon_exceeded_diagnosis_json_matches_the_golden() {
    let failure = glacial_blade()
        .try_run(&Placement::identity(), &plan())
        .unwrap_err();
    assert_eq!(
        failure.to_json(),
        include_str!("fixtures/stall_horizon_exceeded.json")
    );
}

/// The stall a program run passed on, or a panic naming what came back.
fn program_stall(err: ProgramError) -> StallKind {
    let ProgramError::Run(RunError::Stall { diagnosis, .. }) = err else {
        panic!("expected a stall, got {err}");
    };
    diagnosis.kind
}

#[test]
fn task_runtime_returns_the_stall_instead_of_panicking() {
    let exec = SweepExecutor::new(1);
    let tasks = [Task::new("t0").input(64 << 10).flops(1000.0)];
    let err = execute_tasks(&exec, &glacial_blade(), 1, &tasks).unwrap_err();
    assert_eq!(program_stall(err), StallKind::HorizonExceeded);
    assert_eq!(exec.take_failures().len(), 1, "the executor records it");
}

#[test]
fn kernel_estimate_returns_the_stall_instead_of_panicking() {
    let exec = SweepExecutor::new(1);
    let err = kernel_estimate(&exec, &glacial_blade(), &KernelSpec::dot_product(), 2).unwrap_err();
    assert_eq!(program_stall(err), StallKind::HorizonExceeded);
    assert_eq!(exec.take_failures().len(), 1, "the executor records it");
}

#[test]
fn data_and_traced_variants_report_the_same_stall() {
    let system = glacial_blade();
    let plan = plan();
    let mut state = cellsim::MachineState::new();
    let direct = system.try_run(&Placement::identity(), &plan).unwrap_err();
    let with_data = system
        .try_run_with_data(&Placement::identity(), &plan, &mut state)
        .unwrap_err();
    let mut writer = TraceStoreWriter::new(Vec::new());
    let traced = system
        .try_run_with_sink(&Placement::identity(), &plan, &mut writer)
        .unwrap_err();
    assert_eq!(direct.diagnosis().kind, with_data.diagnosis().kind);
    assert_eq!(direct.diagnosis().kind, traced.diagnosis().kind);
}
