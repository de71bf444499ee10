//! `repro` rejects argument values it could not write back: a band
//! (`--tolerance`, `--perf-band`) must be a finite number >= 0, since
//! the snapshot files store it as a JSON number. The rejection is a bad
//! invocation (exit 3) at argument parsing, before anything simulates.

use std::path::PathBuf;
use std::process::Command;

const EXIT_BAD_INVOCATION: i32 = 3;

/// A fresh scratch directory under the target dir for one case.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `repro --quick <flag> <value> <out_flag> <file>` and checks it
/// fails as a bad invocation without printing a figure or writing the
/// file.
fn assert_rejected(case: &str, flag: &str, value: &str, out_flag: &str) {
    let dir = scratch(case);
    let out = dir.join("snapshot.json");
    let result = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", flag, value, out_flag])
        .arg(&out)
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert_eq!(
        result.status.code(),
        Some(EXIT_BAD_INVOCATION),
        "{flag} {value}: {stderr}"
    );
    assert!(stderr.contains(flag), "{flag} {value}: {stderr}");
    assert!(result.stdout.is_empty(), "{flag} {value} printed output");
    assert!(!out.exists(), "{flag} {value} wrote {}", out.display());
}

#[test]
fn non_finite_or_negative_tolerance_is_a_bad_invocation() {
    for (case, value) in [("tol_inf", "inf"), ("tol_nan", "NaN"), ("tol_neg", "-1")] {
        assert_rejected(case, "--tolerance", value, "--baseline-out");
    }
}

#[test]
fn infinite_perf_band_is_a_bad_invocation() {
    assert_rejected("band_inf", "--perf-band", "inf", "--perf-baseline-out");
}
