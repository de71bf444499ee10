//! Parallel sweep execution with a deterministic run cache.
//!
//! Every figure of the ISPASS 2007 protocol is a sweep of *independent*
//! simulator runs — seeded placements × DMA element sizes × SPE counts —
//! so the sweep is embarrassingly parallel. This module supplies the
//! fan-out/reduce machinery the experiments build on:
//!
//! * [`RunSpec`] — one simulation point: a machine, a [`TransferPlan`]
//!   and a [`Placement`], plus the [`RunKey`] that identifies it;
//! * [`SweepExecutor`] — runs a batch of specs over
//!   [`std::thread::scope`] (no work stealing: a single atomic cursor
//!   hands out work), with the worker count taken from `--jobs`-style
//!   configuration, the `CELLSIM_JOBS` environment variable, or
//!   [`std::thread::available_parallelism`];
//! * a process-wide-free, executor-local **run cache** keyed by
//!   [`RunKey`] `(machine-config hash, workload, placement)`, so figures
//!   that re-simulate the same point — Figure 12's 8-SPE column and
//!   Figure 13's spread runs, Figure 15 and Figure 16 — simulate it
//!   exactly once.
//!
//! # Determinism
//!
//! Results are bit-identical for any job count, because nothing a run
//! computes depends on scheduling:
//!
//! 1. each run's placement is derived from the sweep seed and the run's
//!    index ([`Placement::lottery`]), never from a generator shared
//!    across runs;
//! 2. the simulator itself is deterministic for a given
//!    `(config, placement, plan)`;
//! 3. [`SweepExecutor::try_run`] returns results in spec order regardless of
//!    which worker finished which spec when.
//!
//! The cache preserves this: a hit returns the exact report the miss
//! computed, so cached and uncached sweeps render identical figures.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use cellsim_kernel::fnv::Fnv1a;

use crate::config::{CellConfig, CellSystem};
use crate::diskcache::{DiskCache, DiskCacheStats};
use crate::fabric::FabricReport;
use crate::failure::StallDiagnosis;
use crate::placement::Placement;
use crate::plan::{SyncPolicy, TransferPlan};
use crate::tracestore::RunDir;

// The executor moves configs, plans and reports across scoped threads;
// keep that a compile-time guarantee rather than an accident.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CellSystem>();
    assert_send_sync::<TransferPlan>();
    assert_send_sync::<FabricReport>();
    assert_send_sync::<Placement>();
};

/// Stable fingerprint of a machine configuration.
///
/// FNV-1a over the `Debug` rendering: every tunable of [`CellConfig`] is
/// a plain value that `Debug`-prints deterministically, and the hash is
/// pinned here rather than borrowed from the standard library —
/// `DefaultHasher`'s algorithm is explicitly *not* specified to stay the
/// same across Rust releases, which would silently re-key any persisted
/// cached reports or metric baselines.
///
/// [`CellSystem`] computes it once, when the machine is built, and run
/// keys read [`CellSystem::config_fingerprint`]. Every cache entry, run
/// dir, baseline and wire line is keyed by this value, so the rendering
/// it hashes must not change.
#[must_use]
pub fn config_fingerprint(config: &CellConfig) -> u64 {
    use std::fmt::Write;
    let mut h = Fnv1a::new();
    write!(h, "{config:?}").expect("hashing formatted text cannot fail");
    h.finish()
}

/// What a run simulates, minus the placement: the experiment-point
/// descriptor part of a [`RunKey`].
///
/// Two specs with equal `Workload`s **must** carry plans that simulate
/// identically — builders in [`crate::experiments`] guarantee this by
/// deriving both the plan and the workload from the same parameters.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Workload {
    /// Traffic pattern, e.g. `"couples"`, `"cycle"`, `"mem-get"`.
    pub pattern: &'static str,
    /// Active SPEs.
    pub spes: u8,
    /// Payload bytes per active SPE (per direction where bidirectional;
    /// the whole job's payload for a `"tasks"` job).
    pub volume: u64,
    /// DMA element size in bytes.
    pub elem: u32,
    /// DMA-list (`true`) vs DMA-elem (`false`).
    pub list: bool,
    /// Tag-group synchronization policy.
    pub sync: SyncPolicy,
    /// Packed pattern-specific parameters (0 for the paper's streaming
    /// micro-benchmarks; application workloads fold their generator
    /// parameters — table sizes, grid shapes, seeds — in here so the
    /// cache/baseline identity covers them).
    pub params: u64,
}

impl Workload {
    /// A streaming point of the paper's protocol: DMA-elem transfers,
    /// one tag-group wait after all commands, no generator parameters.
    #[must_use]
    pub fn dma_elem(pattern: &'static str, spes: u8, volume: u64, elem: u32) -> Workload {
        Workload {
            pattern,
            spes,
            volume,
            elem,
            list: false,
            sync: SyncPolicy::AfterAll,
            params: 0,
        }
    }
}

/// Cache identity of one simulation point.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// [`config_fingerprint`] of the machine.
    pub config: u64,
    /// [`CellSystem::faults_fingerprint`] of the machine: 0 on a healthy
    /// blade, the fault plan's canonical-JSON fingerprint otherwise —
    /// degraded and healthy runs of the same point never share a cache
    /// entry.
    pub faults: u64,
    /// The experiment point.
    pub workload: Workload,
    /// Logical→physical mapping of the run.
    pub placement: [u8; 8],
}

impl fmt::Display for RunKey {
    /// Compact one-line identity, the form failures are reported in:
    /// `pattern=couples spes=2 volume=262144 elem=128 list=false
    /// sync=AfterAll params=0 placement=[0,1,..] config=0x.. faults=0x..`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = &self.workload;
        let placement: Vec<String> = self.placement.iter().map(u8::to_string).collect();
        write!(
            f,
            "pattern={} spes={} volume={} elem={} list={} sync={:?} params={} \
             placement=[{}] config={:#018x} faults={:#018x}",
            w.pattern,
            w.spes,
            w.volume,
            w.elem,
            w.list,
            w.sync,
            w.params,
            placement.join(","),
            self.config,
            self.faults
        )
    }
}

/// Why one sweep point produced no report. The sweep as a whole keeps
/// going: every other spec still returns its result.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The fabric returned a typed stall.
    Stall {
        /// Which point stalled.
        key: RunKey,
        /// The full diagnosis from the fabric (boxed: the happy path
        /// carries only a pointer).
        diagnosis: Box<StallDiagnosis>,
    },
    /// The run panicked; the worker caught it at the run boundary.
    Panicked {
        /// Which point panicked.
        key: RunKey,
        /// The panic payload, if it was a string.
        message: String,
    },
}

impl RunError {
    /// The [`RunKey`] of the failed point.
    pub fn key(&self) -> &RunKey {
        match self {
            RunError::Stall { key, .. } | RunError::Panicked { key, .. } => key,
        }
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Stall { key, diagnosis } => {
                write!(f, "run stalled [{key}]: {diagnosis}")
            }
            RunError::Panicked { key, message } => {
                write!(f, "run panicked [{key}]: {message}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// One independent simulation: a machine, a plan, and a placement.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Cache identity; see [`RunSpec::new`].
    pub key: RunKey,
    /// The machine to simulate on.
    pub system: CellSystem,
    /// The DMA program, shared between specs that run the same plan
    /// under different placements.
    pub plan: Arc<TransferPlan>,
    /// The logical→physical SPE mapping.
    pub placement: Placement,
}

impl RunSpec {
    /// Builds a spec, deriving the [`RunKey`] from the machine's cached
    /// fingerprints, the workload and the placement.
    pub fn new(
        system: &CellSystem,
        workload: Workload,
        placement: Placement,
        plan: Arc<TransferPlan>,
    ) -> RunSpec {
        RunSpec {
            key: RunKey {
                config: system.config_fingerprint(),
                faults: system.faults_fingerprint(),
                workload,
                placement: *placement.mapping(),
            },
            system: system.clone(),
            plan,
            placement,
        }
    }
}

/// Cache effectiveness counters (see [`SweepExecutor::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Specs answered from the cache (including duplicates within one
    /// batch beyond the first occurrence).
    pub hits: u64,
    /// Specs that required a simulation.
    pub misses: u64,
}

/// Entry cap of the in-memory report cache. A full paper
/// protocol touches well under 2 000 distinct run keys, so at CLI sweep
/// sizes the bound never evicts; it only matters to a resident process
/// (the `cellsim-serve` daemon) fed sustained distinct-key traffic,
/// where an unbounded map would grow without limit.
pub const DEFAULT_CACHE_CAPACITY: usize = 16_384;

/// The in-memory `RunKey → Arc<FabricReport>` tier, bounded by entry
/// count with least-recently-used eviction. Reports are shared `Arc`s,
/// so evicting an entry never invalidates results already handed out —
/// a re-requested evicted key is simply recomputed (or reloaded from
/// the disk tier).
#[derive(Debug)]
struct BoundedCache {
    map: HashMap<RunKey, (Arc<FabricReport>, u64)>,
    /// Monotone use counter; the entry with the smallest stamp is the
    /// least recently used.
    tick: u64,
    capacity: usize,
}

impl BoundedCache {
    fn new(capacity: usize) -> BoundedCache {
        BoundedCache {
            map: HashMap::new(),
            tick: 0,
            capacity,
        }
    }

    fn get(&mut self, key: &RunKey) -> Option<Arc<FabricReport>> {
        self.tick += 1;
        let tick = self.tick;
        let (report, stamp) = self.map.get_mut(key)?;
        *stamp = tick;
        Some(Arc::clone(report))
    }

    /// Inserts, evicting the least-recently-used entry if the cache is
    /// full and `key` is new. The eviction scan is O(len), which is
    /// irrelevant next to the milliseconds-per-run simulations that
    /// produce the entries.
    fn insert(&mut self, key: RunKey, report: Arc<FabricReport>) {
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(lru) = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&lru);
            }
        }
        self.map.insert(key, (report, self.tick));
    }
}

impl CacheStats {
    /// Fraction of specs answered without simulating, in `[0, 1]`.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Runs batches of [`RunSpec`]s across threads, memoizing by [`RunKey`].
///
/// ```
/// use std::sync::Arc;
/// use cellsim_core::exec::{RunSpec, SweepExecutor, Workload};
/// use cellsim_core::{CellSystem, Placement, SyncPolicy, TransferPlan};
///
/// let system = CellSystem::blade();
/// let plan = Arc::new(
///     TransferPlan::builder()
///         .get_from_memory(0, 1 << 20, 16 * 1024, SyncPolicy::AfterAll)
///         .build()?,
/// );
/// let workload = Workload {
///     pattern: "mem-get",
///     spes: 1,
///     volume: 1 << 20,
///     elem: 16 * 1024,
///     list: false,
///     sync: SyncPolicy::AfterAll,
///     params: 0,
/// };
/// let exec = SweepExecutor::new(2);
/// let specs: Vec<RunSpec> = (0..4)
///     .map(|k| RunSpec::new(&system, workload.clone(), Placement::lottery(7, k), Arc::clone(&plan)))
///     .collect();
/// let a = exec.try_run(specs.clone());
/// let b = exec.try_run(specs); // all four answered from cache
/// assert!(a.iter().all(Result::is_ok));
/// assert_eq!(a, b);
/// assert_eq!(exec.stats().hits, 4);
/// # Ok::<(), cellsim_core::PlanError>(())
/// ```
#[derive(Debug)]
pub struct SweepExecutor {
    jobs: usize,
    cache: Mutex<BoundedCache>,
    /// Failures not yet collected by [`SweepExecutor::take_failures`],
    /// in batch/spec order (one entry per distinct failed key per
    /// batch). Drained on read so a long-lived executor — the serve
    /// daemon reuses one across every client batch — never mixes one
    /// caller's failures into another's or grows without bound.
    failures: Mutex<Vec<RunError>>,
    /// Optional persistent tier under the in-memory cache.
    disk: Option<DiskCache>,
    /// Optional per-run artifact root; every batch records into it
    /// ([`SweepExecutor::set_run_dir`]).
    run_dir: Option<RunDir>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for SweepExecutor {
    /// An executor honouring `CELLSIM_JOBS`, falling back to
    /// [`std::thread::available_parallelism`].
    fn default() -> Self {
        SweepExecutor::new(jobs_from_env().unwrap_or(0))
    }
}

/// Parses `CELLSIM_JOBS` (ignored unless a positive integer).
#[must_use]
pub fn jobs_from_env() -> Option<usize> {
    std::env::var("CELLSIM_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
}

impl SweepExecutor {
    /// An executor with `jobs` workers; `0` means
    /// [`std::thread::available_parallelism`].
    #[must_use]
    pub fn new(jobs: usize) -> SweepExecutor {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            jobs
        };
        SweepExecutor {
            jobs,
            cache: Mutex::new(BoundedCache::new(DEFAULT_CACHE_CAPACITY)),
            failures: Mutex::new(Vec::new()),
            disk: None,
            run_dir: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Like [`SweepExecutor::new`], with a persistent cache directory
    /// under the in-memory cache: fresh reports are written there (one
    /// verified entry per [`RunKey`]), and future executors — including a
    /// re-run after an interrupted sweep — resume from them. See
    /// [`crate::diskcache`] for the entry format and validation rules.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from creating the directory.
    pub fn with_cache_dir(jobs: usize, dir: &std::path::Path) -> std::io::Result<SweepExecutor> {
        let mut exec = SweepExecutor::new(jobs);
        exec.disk = Some(DiskCache::open(dir)?);
        Ok(exec)
    }

    /// The worker count batches fan out over.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Locks the in-memory cache, recovering from poison: a panicking
    /// worker is caught at the run boundary, so the map is never left
    /// mid-mutation — the data is safe even if a past batch crashed while
    /// holding the lock.
    fn lock_cache(&self) -> MutexGuard<'_, BoundedCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Drains every failure recorded since the last call, in batch order
    /// (one entry per distinct failed key per batch). Draining — rather
    /// than accumulating for the life of the executor — keeps a reused
    /// executor honest: each caller sees exactly the failures of the
    /// batches it ran since it last collected, and a resident daemon
    /// does not leak an ever-growing failure log.
    pub fn take_failures(&self) -> Vec<RunError> {
        std::mem::take(&mut *self.failures.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Seeds the in-memory cache with an already-computed report, so a
    /// later sweep over `key` is answered without simulating. This is
    /// how a remote client replays reports streamed from `cellsim-serve`
    /// through the local figure renderers: preload every point, then run
    /// the experiment — every run is a cache hit and the rendered figure
    /// is bit-identical to a local sweep.
    pub fn preload(&self, key: RunKey, report: Arc<FabricReport>) {
        self.lock_cache().insert(key, report);
    }

    /// Attaches a per-run artifact root: every later batch
    /// ([`SweepExecutor::try_run`]) commits one trace store + manifest
    /// per [`RunKey`] under `dir`. See [`crate::tracestore`].
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from creating the directory.
    pub fn set_run_dir(&mut self, dir: &std::path::Path) -> std::io::Result<()> {
        self.run_dir = Some(RunDir::create(dir)?);
        Ok(())
    }

    /// The attached artifact root, if any.
    pub fn run_dir(&self) -> Option<&RunDir> {
        self.run_dir.as_ref()
    }

    /// Persistent-cache counters, if a cache directory is attached.
    pub fn disk_stats(&self) -> Option<DiskCacheStats> {
        self.disk.as_ref().map(DiskCache::stats)
    }

    /// Census of the attached cache directory (entries and bytes on
    /// disk, including other processes' writes), if one is attached.
    pub fn disk_dir_stats(&self) -> Option<crate::diskcache::DiskDirStats> {
        self.disk.as_ref().map(DiskCache::dir_stats)
    }

    /// Cache hit/miss counters since construction.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Runs every spec, in parallel, returning per-spec results in spec
    /// order. One failed point never takes the sweep down: a stall comes
    /// back as [`RunError::Stall`] with its diagnosis, a panic is caught
    /// at the run boundary and comes back as [`RunError::Panicked`], and
    /// every other spec still returns its report. Failures are also
    /// recorded on the executor until collected
    /// ([`SweepExecutor::take_failures`]).
    ///
    /// Specs whose key is already cached — in memory from earlier
    /// batches, duplicated within this one, or (with
    /// [`SweepExecutor::with_cache_dir`]) verified on disk — are not
    /// re-simulated. Only successful reports are cached; a failed key is
    /// retried on its next appearance.
    ///
    /// With a run directory attached ([`SweepExecutor::set_run_dir`]),
    /// each key ends the batch with a complete store + manifest entry:
    /// keys whose artifact already exists are answered from cache as
    /// usual (counted in
    /// [`RunDirStats::reused`](crate::tracestore::RunDirStats)), while
    /// keys missing one bypass the report caches and re-simulate with a
    /// streaming store writer attached — tracing never perturbs timing,
    /// so the report (and the refreshed cache entry) is bit-identical to
    /// an untraced run.
    pub fn try_run(&self, specs: Vec<RunSpec>) -> Vec<Result<Arc<FabricReport>, RunError>> {
        let recording = self.run_dir.as_ref();
        // Resolve against the cache tiers and dedup the remainder,
        // keeping the first spec of each distinct key as the one to
        // simulate.
        let mut todo: Vec<&RunSpec> = Vec::new();
        let mut todo_index: HashMap<&RunKey, usize> = HashMap::new();
        // For each spec: Ok(report) if cached, Err(todo slot) otherwise.
        let mut resolution: Vec<Result<Arc<FabricReport>, usize>> = Vec::with_capacity(specs.len());
        {
            let mut cache = self.lock_cache();
            for spec in &specs {
                // Within-batch duplicates always collapse onto the first
                // occurrence (which records the artifact if one is owed).
                if let Some(&slot) = todo_index.get(&spec.key) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    resolution.push(Err(slot));
                    continue;
                }
                // A recorded batch may only answer from the report caches
                // when the key's artifact is already complete; otherwise
                // it re-simulates to produce one.
                let cacheable = match recording {
                    Some(rd) => rd.is_complete(&spec.key),
                    None => true,
                };
                if cacheable {
                    if let Some(report) = cache.get(&spec.key) {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        if let Some(rd) = recording {
                            rd.note_reused();
                        }
                        resolution.push(Ok(report));
                        continue;
                    }
                    // Memory miss: a verified disk entry promotes into the
                    // memory tier and counts as a hit.
                    if let Some(report) = self.disk.as_ref().and_then(|d| d.load(&spec.key)) {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        if let Some(rd) = recording {
                            rd.note_reused();
                        }
                        let report = Arc::new(report);
                        cache.insert(spec.key.clone(), Arc::clone(&report));
                        resolution.push(Ok(report));
                        continue;
                    }
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                let slot = todo.len();
                todo_index.insert(&spec.key, slot);
                todo.push(spec);
                resolution.push(Err(slot));
            }
        }

        // Fan the distinct misses out over scoped workers. A shared
        // atomic cursor hands out specs, longest first (see
        // `dispatch_order`); results land in per-spec slots, so the
        // outcome is independent of which worker ran what. Each
        // run is isolated with `catch_unwind`: a panicking point becomes
        // that slot's error, and the worker moves on to the next spec.
        let fresh: Vec<OnceLock<Result<Arc<FabricReport>, RunError>>> =
            (0..todo.len()).map(|_| OnceLock::new()).collect();
        let simulate = |spec: &RunSpec| -> Result<Arc<FabricReport>, RunError> {
            let outcome = catch_unwind(AssertUnwindSafe(|| match recording {
                Some(rd) => rd.run_recorded(spec),
                None => spec.system.try_run(&spec.placement, &spec.plan),
            }));
            match outcome {
                Ok(Ok(report)) => Ok(Arc::new(report)),
                Ok(Err(failure)) => Err(RunError::Stall {
                    key: spec.key.clone(),
                    diagnosis: Box::new(failure.diagnosis().clone()),
                }),
                Err(payload) => Err(RunError::Panicked {
                    key: spec.key.clone(),
                    message: panic_message(payload.as_ref()),
                }),
            }
        };
        let workers = self.jobs.min(todo.len());
        if workers > 1 {
            let costs: Vec<u64> = todo
                .iter()
                .map(|spec| spec.plan.cost(spec.system.config().mfc.packet_bytes))
                .collect();
            let order = dispatch_order(&costs);
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let next = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&i) = order.get(next) else { break };
                        let _ = fresh[i].set(simulate(todo[i]));
                    });
                }
            });
        } else {
            for (slot, spec) in fresh.iter().zip(&todo) {
                let _ = slot.set(simulate(spec));
            }
        }

        // Publish the fresh successes (memory + disk), record the
        // failures, then assemble in spec order.
        {
            let mut cache = self.lock_cache();
            for (spec, slot) in todo.iter().zip(&fresh) {
                if let Some(Ok(report)) = slot.get() {
                    if let Some(disk) = &self.disk {
                        disk.store(&spec.key, report);
                    }
                    cache.insert(spec.key.clone(), Arc::clone(report));
                }
            }
        }
        {
            let mut failures = self.failures.lock().unwrap_or_else(PoisonError::into_inner);
            for (spec, slot) in todo.iter().zip(&fresh) {
                match slot.get() {
                    Some(Ok(_)) => {}
                    Some(Err(error)) => failures.push(error.clone()),
                    // A worker thread died without writing its slot (it
                    // can only happen if the panic escaped the catch,
                    // e.g. a panic in a panic payload's Drop).
                    None => failures.push(RunError::Panicked {
                        key: spec.key.clone(),
                        message: "worker terminated without a result".to_string(),
                    }),
                }
            }
        }
        let take = |slot: usize| -> Result<Arc<FabricReport>, RunError> {
            match fresh[slot].get() {
                Some(Ok(report)) => Ok(Arc::clone(report)),
                Some(Err(error)) => Err(error.clone()),
                None => Err(RunError::Panicked {
                    key: todo[slot].key.clone(),
                    message: "worker terminated without a result".to_string(),
                }),
            }
        };
        resolution
            .into_iter()
            .map(|r| match r {
                Ok(report) => Ok(report),
                Err(slot) => take(slot),
            })
            .collect()
    }
}

/// The order in which a multi-worker batch hands out its distinct
/// misses: descending estimated cost, ties in spec order. Starting the
/// longest runs first keeps a batch's largest run from starting last
/// and leaving the other workers idle while it finishes.
fn dispatch_order(costs: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| Reverse(costs[i]));
    order
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::TransferPlanBuilder;

    fn spec(system: &CellSystem, elem: u32, placement: Placement) -> RunSpec {
        let plan = Arc::new(
            TransferPlanBuilder::new()
                .get_from_memory(0, 64 << 10, elem, SyncPolicy::AfterAll)
                .build()
                .expect("valid plan"),
        );
        RunSpec::new(
            system,
            Workload {
                pattern: "mem-get",
                spes: 1,
                volume: 64 << 10,
                elem,
                list: false,
                sync: SyncPolicy::AfterAll,
                params: 0,
            },
            placement,
            plan,
        )
    }

    #[test]
    fn results_are_in_spec_order_and_job_invariant() {
        let system = CellSystem::blade();
        let specs: Vec<RunSpec> = (0..6)
            .flat_map(|k| [2048u32, 16384].into_iter().map(move |elem| (k, elem)))
            .map(|(k, elem)| spec(&system, elem, Placement::lottery(11, k)))
            .collect();
        let serial = SweepExecutor::new(1).try_run(specs.clone());
        let parallel = SweepExecutor::new(4).try_run(specs);
        assert!(serial.iter().all(Result::is_ok));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn dispatch_is_longest_first_with_stable_ties() {
        assert_eq!(dispatch_order(&[]), Vec::<usize>::new());
        assert_eq!(dispatch_order(&[5, 9, 5, 1, 9, 5]), vec![1, 4, 0, 2, 5, 3]);
        // A 128 B run costs more than a 16 KiB run of the same volume:
        // it has as many packets and 128x the commands.
        let system = CellSystem::blade();
        let p = Placement::identity();
        let costs: Vec<u64> = [16384u32, 128, 16384, 128]
            .iter()
            .map(|&elem| spec(&system, elem, p).plan.cost(128))
            .collect();
        assert_eq!(costs, vec![512 + 4, 512 + 512, 512 + 4, 512 + 512]);
        assert_eq!(dispatch_order(&costs), vec![1, 3, 0, 2]);
    }

    #[test]
    fn duplicate_points_simulate_once() {
        let system = CellSystem::blade();
        let p = Placement::lottery(3, 0);
        let exec = SweepExecutor::new(2);
        let batch: Vec<RunSpec> = (0..4).map(|_| spec(&system, 4096, p)).collect();
        let reports = exec.try_run(batch);
        assert_eq!(exec.stats(), CacheStats { hits: 3, misses: 1 });
        assert!(reports[0].is_ok());
        assert!(reports.windows(2).all(|w| w[0] == w[1]));
        // A later batch with the same point is served entirely from cache.
        let again = exec.try_run(vec![spec(&system, 4096, p)]);
        assert_eq!(exec.stats().hits, 4);
        assert_eq!(again[0], reports[0]);
    }

    #[test]
    fn different_configs_do_not_collide() {
        let mut other = CellConfig::default();
        other.mfc.max_outstanding_packets = 2;
        assert_ne!(
            config_fingerprint(&CellConfig::default()),
            config_fingerprint(&other)
        );
    }

    #[test]
    fn cache_growth_is_bounded_with_lru_eviction() {
        let system = CellSystem::blade();
        let probe = spec(&system, 4096, Placement::identity());
        let report = Arc::new(
            system
                .try_run(&probe.placement, &probe.plan)
                .expect("healthy run"),
        );
        // Sustained distinct-key traffic (12 distinct placements of one
        // workload) must not grow the map past its 8-entry cap.
        let keys: Vec<RunKey> = (0..12)
            .map(|k| spec(&system, 4096, Placement::lottery(0xD15C, k)).key)
            .collect();
        let mut cache = BoundedCache::new(8);
        for key in &keys {
            cache.insert(key.clone(), Arc::clone(&report));
        }
        assert_eq!(cache.map.len(), 8);
        // The most recent keys survived; the oldest were evicted.
        assert!(keys[4..].iter().all(|key| cache.get(key).is_some()));
        assert!(keys[..4].iter().all(|key| cache.get(key).is_none()));
        // A hit refreshes recency: after touching keys[4], a new insert
        // evicts keys[5], now the least recently used.
        assert!(cache.get(&keys[4]).is_some());
        cache.insert(keys[0].clone(), Arc::clone(&report));
        assert_eq!(cache.map.len(), 8);
        assert!(cache.get(&keys[5]).is_none());
        assert!(cache.get(&keys[4]).is_some());
    }

    #[test]
    fn preload_answers_without_simulating() {
        let system = CellSystem::blade();
        let source = SweepExecutor::new(1);
        let s = spec(&system, 4096, Placement::identity());
        let report = source
            .try_run(vec![s.clone()])
            .remove(0)
            .expect("healthy run");
        let target = SweepExecutor::new(1);
        target.preload(s.key.clone(), Arc::clone(&report));
        let replayed = target.try_run(vec![s]);
        assert_eq!(replayed, vec![Ok(report)]);
        assert_eq!(target.stats(), CacheStats { hits: 1, misses: 0 });
    }

    #[test]
    fn hit_rate_tracks_counters() {
        let stats = CacheStats { hits: 3, misses: 1 };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
