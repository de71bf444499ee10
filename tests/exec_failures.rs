//! Sweep-level failure isolation: one poisoned spec must not take down
//! the batch. The executor catches the panic (or stall), records a
//! [`RunError`] naming the failed run key, and still returns every
//! other point's report — in spec order, bit-identically at any job
//! count.

use cellsim::exec::{RunError, RunSpec, SweepExecutor, Workload};
use cellsim::experiments::SweepPoint;
use cellsim::{CellConfig, CellSystem, Placement, StallKind};

/// One SPE streaming 64 KiB from memory in `elem`-byte GETs.
fn get_point(elem: u32) -> SweepPoint {
    SweepPoint::new(Workload::dma_elem("mem-get", 1, 64 << 10, elem)).unwrap()
}

/// A machine whose MFC construction panics inside the worker: queue
/// depth zero fails MFC validation, which the fabric asserts on.
fn panicking_blade() -> CellSystem {
    let mut config = CellConfig::default();
    config.mfc.queue_depth = 0;
    CellSystem::new(config)
}

/// A machine whose local bank refreshes for as long as its refresh
/// interval: the bank's pipe would never be free, so bank construction
/// refuses it inside the worker instead of hanging the batch.
fn refresh_bound_blade() -> CellSystem {
    let mut config = CellConfig::default();
    config.local_bank.refresh_cycles = config.local_bank.refresh_interval;
    CellSystem::new(config)
}

/// A machine that stalls: the local bank answers past the safety
/// horizon.
fn stalling_blade() -> CellSystem {
    let mut config = CellConfig::default();
    config.local_bank.access_latency = 100_000_000_000;
    CellSystem::new(config)
}

/// Three healthy specs around one poisoned one, distinct elem sizes so
/// every spec is a distinct run key.
fn mixed_specs(poison: &CellSystem) -> Vec<RunSpec> {
    let healthy = CellSystem::blade();
    [1024u32, 2048, 4096, 8192]
        .into_iter()
        .enumerate()
        .map(|(i, elem)| {
            let system = if i == 2 { poison } else { &healthy };
            RunSpec::new(system, &get_point(elem), Placement::identity())
        })
        .collect()
}

#[test]
fn panicking_spec_fails_alone_and_in_order() {
    let exec = SweepExecutor::new(4);
    let poison = panicking_blade();
    let results = exec.try_run(mixed_specs(&poison));
    assert_eq!(results.len(), 4);
    for (i, result) in results.iter().enumerate() {
        if i == 2 {
            let error = result.as_ref().unwrap_err();
            assert!(
                matches!(error, RunError::Panicked { .. }),
                "poisoned spec must surface as a panic: {error}"
            );
            assert!(
                error.to_string().contains("elem=4096"),
                "the failure must name the run key: {error}"
            );
        } else {
            assert!(result.is_ok(), "healthy spec {i} must survive the batch");
        }
    }
    let failures = exec.take_failures();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].key().workload.elem, 4096);
    // Collecting drains: the same failure is never reported twice, and a
    // reused executor starts the next batch with a clean slate.
    assert!(exec.take_failures().is_empty());
}

#[test]
fn failures_are_per_batch_on_a_reused_executor() {
    // A daemon reuses one executor across requests; one request's
    // failures must not leak into the next request's collection.
    let exec = SweepExecutor::new(2);
    let poison = panicking_blade();
    let _ = exec.try_run(mixed_specs(&poison));
    let first = exec.take_failures();
    assert_eq!(first.len(), 1, "first batch reports its own failure");
    // A healthy second batch reports nothing — the first batch's
    // failure was already drained and does not accumulate.
    let healthy = CellSystem::blade();
    let spec = RunSpec::new(&healthy, &get_point(512), Placement::identity());
    let results = exec.try_run(vec![spec]);
    assert!(results[0].is_ok());
    assert!(exec.take_failures().is_empty());
    // A second poisoned batch reports exactly its own failure again.
    let _ = exec.try_run(mixed_specs(&poison));
    assert_eq!(exec.take_failures().len(), 1);
}

#[test]
fn refresh_filling_its_interval_fails_alone_instead_of_hanging() {
    let exec = SweepExecutor::new(2);
    let poison = refresh_bound_blade();
    let results = exec.try_run(mixed_specs(&poison));
    assert_eq!(results.len(), 4);
    for (i, result) in results.iter().enumerate() {
        if i == 2 {
            let error = result.as_ref().unwrap_err();
            assert!(
                matches!(error, RunError::Panicked { .. }),
                "the refresh-bound spec must surface as a panic: {error}"
            );
        } else {
            assert!(result.is_ok(), "healthy spec {i} must survive the batch");
        }
    }
}

#[test]
fn stalling_spec_records_a_diagnosis() {
    let exec = SweepExecutor::new(2);
    let poison = stalling_blade();
    let results = exec.try_run(mixed_specs(&poison));
    let error = results[2].as_ref().unwrap_err();
    match error {
        RunError::Stall { diagnosis, .. } => {
            assert_eq!(diagnosis.kind, StallKind::HorizonExceeded);
            assert!(!diagnosis.per_spe.is_empty());
        }
        other => panic!("expected a stall, got: {other}"),
    }
}

#[test]
fn serial_and_parallel_agree_around_a_failure() {
    let poison = panicking_blade();
    let serial = SweepExecutor::new(1).try_run(mixed_specs(&poison));
    let parallel = SweepExecutor::new(4).try_run(mixed_specs(&poison));
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        match (s, p) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "reports must be bit-identical"),
            (Err(a), Err(b)) => assert_eq!(a.key(), b.key()),
            _ => panic!("serial and parallel disagree on which spec failed"),
        }
    }
}

#[test]
fn panicking_run_via_run_still_panics_but_try_run_does_not() {
    let exec = SweepExecutor::new(1);
    let poison = panicking_blade();
    // try_run on the same executor: no panic, failure recorded.
    let results = exec.try_run(mixed_specs(&poison));
    assert!(results[2].is_err());
    // The executor keeps serving healthy batches afterwards.
    let healthy = CellSystem::blade();
    let spec = RunSpec::new(&healthy, &get_point(1024), Placement::identity());
    let again = exec.try_run(vec![spec]);
    assert!(again[0].is_ok());
}
