//! `repro` rejects argument values it could not write back: a band
//! (`--tolerance`, `--perf-band`) must be a finite number >= 0, since
//! the snapshot files store it as a JSON number. It also rejects a
//! `--faults` plan that a requested output would ignore or could not
//! run. Each rejection is a bad invocation (exit 3) at argument
//! parsing, before anything simulates.

use std::path::{Path, PathBuf};
use std::process::Command;

const EXIT_BAD_INVOCATION: i32 = 3;

/// A fresh scratch directory under the target dir for one case.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `repro --quick <args> <file>` and checks it fails as a bad
/// invocation naming `flag`, without printing a figure.
fn assert_bad_invocation(flag: &str, args: &[&str], file: &Path) {
    let result = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--quick")
        .args(args)
        .arg(file)
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert_eq!(
        result.status.code(),
        Some(EXIT_BAD_INVOCATION),
        "{args:?}: {stderr}"
    );
    assert!(stderr.contains(flag), "{args:?}: {stderr}");
    assert!(result.stdout.is_empty(), "{args:?} printed output");
}

/// Runs `repro --quick <flag> <value> <out_flag> <file>` and checks it
/// fails as a bad invocation without writing the file.
fn assert_rejected(case: &str, flag: &str, value: &str, out_flag: &str) {
    let out = scratch(case).join("snapshot.json");
    assert_bad_invocation(flag, &[flag, value, out_flag], &out);
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

#[test]
fn fault_plans_a_run_would_ignore_or_break_are_a_bad_invocation() {
    // The ablations are defined on the healthy blade.
    let smoke = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../plans/degraded_smoke.json");
    let args = ["--figure", "3", "--ablations", "--faults"];
    assert_bad_invocation("--ablations", &args, &smoke);
    // Figure K1 drives all 8 SPEs, so a plan that fuses one cannot run it.
    let fused = scratch("faults_fused").join("fused.json");
    std::fs::write(&fused, r#"{"seed":1,"fused_spes":[7]}"#).expect("plan file");
    let args = ["--figure", "degraded", "--kernels", "--faults"];
    assert_bad_invocation("--kernels", &args, &fused);
}
