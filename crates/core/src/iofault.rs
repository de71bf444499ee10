//! Injectable I/O faults: a deterministic, seeded seam over the file
//! operations the persistence layers use.
//!
//! `diskcache`, `tracestore` and the serve daemon's stats log all route
//! their filesystem calls through the free functions here. In normal
//! operation each hook is a single relaxed atomic load on top of the
//! real `std::fs` call. Under an installed [`IoFaultPlan`] the hooks
//! inject seeded disk chaos — failed writes (ENOSPC), *torn* writes
//! (a silent prefix, the classic crash-mid-write artifact), transient
//! read errors and failed renames — so the self-heal paths
//! (verify-on-load, discard-and-recompute, re-record) can be proven
//! under deterministic pressure instead of only hand-corrupted
//! fixtures.
//!
//! The seam is process-global (the persistence layers are not
//! parameterized over a filesystem handle), so [`IoFaultPlan::install`]
//! returns a [`FaultGuard`] that both uninstalls the plan on drop *and*
//! holds a global lock, serializing chaos tests against each other.
//! Decisions are drawn from a SplitMix64 stream seeded by the plan:
//! the same plan over the same (serial) operation sequence injects the
//! same faults.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use cellsim_kernel::rng::{splitmix64, GOLDEN_GAMMA};

/// Fast path: no plan installed, hooks are plain `std::fs` calls.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed plan (present iff `ENABLED`).
static PLAN: Mutex<Option<IoFaultPlan>> = Mutex::new(None);

/// Serializes chaos tests: `install` blocks while another guard lives.
static SEAM: Mutex<()> = Mutex::new(());

/// Monotone draw counter feeding the decision stream.
static DRAWS: AtomicU64 = AtomicU64::new(0);

static WRITE_ERRORS: AtomicU64 = AtomicU64::new(0);
static TORN_WRITES: AtomicU64 = AtomicU64::new(0);
static READ_ERRORS: AtomicU64 = AtomicU64::new(0);
static RENAME_ERRORS: AtomicU64 = AtomicU64::new(0);

/// A seeded disk-chaos recipe. Rates are per-mille (0–1000) per
/// eligible operation; `scope` restricts eligibility to paths under a
/// prefix so a test can wreck one cache directory while the rest of
/// the filesystem stays honest.
#[derive(Debug, Clone, Default)]
pub struct IoFaultPlan {
    /// Decision-stream seed.
    pub seed: u64,
    /// Whole-write failures: the write returns ENOSPC, nothing lands.
    pub write_error_per_mille: u16,
    /// Torn writes: a prefix of the bytes lands and the call reports
    /// *success* — only verify-on-load can catch it.
    pub torn_write_per_mille: u16,
    /// Transient read failures (EIO) on read/read_to_string.
    pub read_error_per_mille: u16,
    /// Failed renames: the destination never appears.
    pub rename_error_per_mille: u16,
    /// Only paths under this prefix are eligible (all paths if `None`).
    pub scope: Option<PathBuf>,
}

impl IoFaultPlan {
    /// Installs the plan process-wide. The returned guard uninstalls it
    /// on drop; while it lives, other `install` calls block (chaos
    /// tests serialize).
    pub fn install(self) -> FaultGuard {
        let held = SEAM.lock().unwrap_or_else(|e| e.into_inner());
        DRAWS.store(0, Ordering::Relaxed);
        WRITE_ERRORS.store(0, Ordering::Relaxed);
        TORN_WRITES.store(0, Ordering::Relaxed);
        READ_ERRORS.store(0, Ordering::Relaxed);
        RENAME_ERRORS.store(0, Ordering::Relaxed);
        *PLAN.lock().unwrap_or_else(|e| e.into_inner()) = Some(self);
        ENABLED.store(true, Ordering::SeqCst);
        FaultGuard { _held: held }
    }
}

/// RAII handle from [`IoFaultPlan::install`]; dropping it restores
/// honest I/O.
pub struct FaultGuard {
    _held: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::SeqCst);
        *PLAN.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

/// Injection tallies since the last `install`, so tests can assert the
/// chaos actually fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoFaultStats {
    /// Whole-write ENOSPC failures injected.
    pub write_errors: u64,
    /// Silent torn writes injected.
    pub torn_writes: u64,
    /// Read failures injected.
    pub read_errors: u64,
    /// Rename failures injected.
    pub rename_errors: u64,
}

/// Snapshot of the injection tallies.
pub fn stats() -> IoFaultStats {
    IoFaultStats {
        write_errors: WRITE_ERRORS.load(Ordering::Relaxed),
        torn_writes: TORN_WRITES.load(Ordering::Relaxed),
        read_errors: READ_ERRORS.load(Ordering::Relaxed),
        rename_errors: RENAME_ERRORS.load(Ordering::Relaxed),
    }
}

#[derive(Clone, Copy)]
enum Kind {
    WriteError,
    TornWrite,
    ReadError,
    RenameError,
}

/// SplitMix64 over (seed, draw index).
fn mix(seed: u64, n: u64) -> u64 {
    splitmix64((seed ^ n.wrapping_mul(GOLDEN_GAMMA)).wrapping_add(GOLDEN_GAMMA))
}

/// Should this operation on `path` inject `kind`? Draws from the
/// decision stream only for eligible (enabled + in-scope + nonzero
/// rate) operations, so out-of-scope traffic doesn't perturb it.
fn inject(kind: Kind, path: &Path) -> bool {
    if !ENABLED.load(Ordering::Relaxed) {
        return false;
    }
    let plan = PLAN.lock().unwrap_or_else(|e| e.into_inner());
    let Some(plan) = plan.as_ref() else {
        return false;
    };
    if let Some(scope) = &plan.scope {
        if !path.starts_with(scope) {
            return false;
        }
    }
    let (per_mille, counter) = match kind {
        Kind::WriteError => (plan.write_error_per_mille, &WRITE_ERRORS),
        Kind::TornWrite => (plan.torn_write_per_mille, &TORN_WRITES),
        Kind::ReadError => (plan.read_error_per_mille, &READ_ERRORS),
        Kind::RenameError => (plan.rename_error_per_mille, &RENAME_ERRORS),
    };
    if per_mille == 0 {
        return false;
    }
    let n = DRAWS.fetch_add(1, Ordering::Relaxed);
    let hit = mix(plan.seed, n) % 1000 < u64::from(per_mille);
    if hit {
        counter.fetch_add(1, Ordering::Relaxed);
    }
    hit
}

fn enospc(path: &Path) -> io::Error {
    io::Error::other(format!("injected ENOSPC writing {}", path.display()))
}

fn eio(path: &Path) -> io::Error {
    io::Error::other(format!("injected read error on {}", path.display()))
}

/// `fs::read_to_string` through the seam.
pub fn read_to_string<P: AsRef<Path>>(path: P) -> io::Result<String> {
    let path = path.as_ref();
    if inject(Kind::ReadError, path) {
        return Err(eio(path));
    }
    fs::read_to_string(path)
}

/// `fs::read` through the seam.
pub fn read<P: AsRef<Path>>(path: P) -> io::Result<Vec<u8>> {
    let path = path.as_ref();
    if inject(Kind::ReadError, path) {
        return Err(eio(path));
    }
    fs::read(path)
}

/// `fs::write` through the seam. A *write error* fails up front with
/// nothing on disk; a *torn write* lands a strict prefix and reports
/// success — the caller only finds out when a later load fails its
/// checksum.
pub fn write<P: AsRef<Path>, C: AsRef<[u8]>>(path: P, contents: C) -> io::Result<()> {
    let path = path.as_ref();
    let contents = contents.as_ref();
    if inject(Kind::WriteError, path) {
        return Err(enospc(path));
    }
    if inject(Kind::TornWrite, path) && !contents.is_empty() {
        let keep = (contents.len() / 2).max(1);
        return fs::write(path, &contents[..keep]);
    }
    fs::write(path, contents)
}

/// `fs::rename` through the seam.
pub fn rename<P: AsRef<Path>, Q: AsRef<Path>>(from: P, to: Q) -> io::Result<()> {
    let from = from.as_ref();
    let to = to.as_ref();
    if inject(Kind::RenameError, to) {
        return Err(io::Error::other(format!(
            "injected rename failure onto {}",
            to.display()
        )));
    }
    fs::rename(from, to)
}

/// Writes `contents` to `tmp`, then renames it onto `dest`, both through
/// the seam, so readers see either the old `dest` or the whole new one.
/// On any error `tmp` is removed and `dest` is left as it was.
pub fn write_atomic<C: AsRef<[u8]>>(tmp: &Path, dest: &Path, contents: C) -> io::Result<()> {
    write(tmp, contents)
        .and_then(|()| rename(tmp, dest))
        .inspect_err(|_| {
            let _ = fs::remove_file(tmp);
        })
}

/// `fs::File::create` through the seam (streaming writers open their
/// temp file here; a write error surfaces as a failed create).
pub fn create_file<P: AsRef<Path>>(path: P) -> io::Result<fs::File> {
    let path = path.as_ref();
    if inject(Kind::WriteError, path) {
        return Err(enospc(path));
    }
    fs::File::create(path)
}

/// Appends one line (a trailing `\n` is added) to `path`, creating it
/// if needed — the stats-log idiom, through the seam.
pub fn append_line<P: AsRef<Path>>(path: P, line: &str) -> io::Result<()> {
    let path = path.as_ref();
    if inject(Kind::WriteError, path) {
        return Err(enospc(path));
    }
    let mut file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    if inject(Kind::TornWrite, path) && !line.is_empty() {
        let keep = (line.len() / 2).max(1);
        file.write_all(&line.as_bytes()[..keep])?;
        return Ok(());
    }
    file.write_all(line.as_bytes())?;
    file.write_all(b"\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_seam_is_honest() {
        let dir = std::env::temp_dir().join(format!("iofault-honest-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("a.txt");
        write(&p, "hello").unwrap();
        assert_eq!(read_to_string(&p).unwrap(), "hello");
        let q = dir.join("b.txt");
        rename(&p, &q).unwrap();
        assert_eq!(read(&q).unwrap(), b"hello");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn full_rate_faults_fire_and_clear() {
        let dir = std::env::temp_dir().join(format!("iofault-fire-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("victim.txt");
        {
            let _guard = IoFaultPlan {
                seed: 1,
                write_error_per_mille: 1000,
                scope: Some(dir.clone()),
                ..IoFaultPlan::default()
            }
            .install();
            assert!(write(&p, "doomed").is_err());
            assert!(!p.exists());
            // Out-of-scope writes stay honest even at full rate.
            let outside = std::env::temp_dir().join(format!("iofault-out-{}", std::process::id()));
            write(&outside, "fine").unwrap();
            fs::remove_file(&outside).unwrap();
            assert_eq!(stats().write_errors, 1);
        }
        // Guard dropped: honest again.
        write(&p, "fine now").unwrap();
        assert_eq!(read_to_string(&p).unwrap(), "fine now");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_lands_a_prefix_and_reports_success() {
        let dir = std::env::temp_dir().join(format!("iofault-torn-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("torn.txt");
        {
            let _guard = IoFaultPlan {
                seed: 2,
                torn_write_per_mille: 1000,
                scope: Some(dir.clone()),
                ..IoFaultPlan::default()
            }
            .install();
            write(&p, "0123456789").unwrap();
            assert_eq!(stats().torn_writes, 1);
        }
        let body = fs::read_to_string(&p).unwrap();
        assert!(body.len() < 10 && "0123456789".starts_with(&body));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seeded_decisions_are_deterministic() {
        let dir = std::env::temp_dir().join(format!("iofault-det-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let run = |seed: u64| -> Vec<bool> {
            let _guard = IoFaultPlan {
                seed,
                write_error_per_mille: 500,
                scope: Some(dir.clone()),
                ..IoFaultPlan::default()
            }
            .install();
            (0..32)
                .map(|i| write(dir.join(format!("f{i}")), "x").is_err())
                .collect()
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should diverge over 32 draws");
        assert!(a.iter().any(|&e| e) && a.iter().any(|&e| !e));
        fs::remove_dir_all(&dir).unwrap();
    }
}
