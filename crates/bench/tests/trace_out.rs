//! `repro --trace-out` records through a run directory: the one given
//! with `--run-dir`, or a temporary `<file>.run-tmp` it creates and
//! removes. Both give the same Chrome trace, and an existing
//! `<file>.run-tmp` is refused (exit 3), never overwritten or removed.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn repro(dir: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(dir)
        .args(["--quick", "--figure", "3", "--jobs", "1"])
        .args(extra)
        .output()
        .expect("repro runs")
}

#[test]
fn the_trace_is_the_same_with_and_without_a_run_dir() {
    let dir = scratch("trace_out_same");
    let a = repro(&dir, &["--trace-out", "a.json"]);
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    let b = repro(&dir, &["--trace-out", "b.json", "--run-dir", "rd"]);
    assert!(b.status.success(), "{}", String::from_utf8_lossy(&b.stderr));
    let a_json = std::fs::read(dir.join("a.json")).unwrap();
    assert!(a_json.starts_with(b"{"), "not a Chrome trace");
    assert_eq!(a_json, std::fs::read(dir.join("b.json")).unwrap());
    assert!(
        !dir.join("a.run-tmp").exists(),
        "temporary run dir left behind"
    );
    assert_eq!(std::fs::read_dir(dir.join("rd")).unwrap().count(), 1);
}

#[test]
fn an_existing_temporary_dir_is_refused_and_kept() {
    let dir = scratch("trace_out_refused");
    let tmp = dir.join("a.run-tmp");
    std::fs::create_dir(&tmp).unwrap();
    std::fs::write(tmp.join("keep"), b"data").unwrap();
    let out = repro(&dir, &["--trace-out", "a.json"]);
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("a.run-tmp"));
    assert_eq!(std::fs::read(tmp.join("keep")).unwrap(), b"data");
    assert!(!dir.join("a.json").exists());
}
