//! `cellsim-trace` quotes run names in machine-readable output. A run
//! directory may be named anything the file system allows, so every
//! `--format json` document must parse and give the name back, and every
//! `--format csv` row must keep the header's field count.

use std::path::{Path, PathBuf};
use std::process::Command;

use cellsim_core::json;
use cellsim_core::tracestore::{MANIFEST_FILE, TRACE_FILE};

const NAME: &str = "run\"a\\b,c";

/// Records quick figure 8 and copies its first run into a sweep root
/// that holds only `NAME`.
fn awkward_root() -> PathBuf {
    let base = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("trace_names");
    let _ = std::fs::remove_dir_all(&base);
    let recorded = base.join("recorded");
    let repro = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--figure", "8", "--run-dir"])
        .arg(&recorded)
        .output()
        .expect("repro runs");
    assert!(repro.status.success(), "repro --run-dir failed");
    let entries = std::fs::read_dir(&recorded).unwrap();
    let first = entries.map(|e| e.unwrap().path()).min().expect("a run");
    let run = base.join("root").join(NAME);
    std::fs::create_dir_all(&run).unwrap();
    for file in [MANIFEST_FILE, TRACE_FILE] {
        std::fs::copy(first.join(file), run.join(file)).unwrap();
    }
    base.join("root")
}

fn trace(root: &Path, command: &[&str], format: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_cellsim-trace"))
        .arg(root)
        .args(command)
        .args(["--format", format])
        .output()
        .expect("cellsim-trace runs");
    assert!(out.status.success(), "cellsim-trace {command:?} failed");
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

/// Splits one CSV line into its RFC-4180 fields, unquoted.
fn csv_fields(line: &str) -> Vec<String> {
    let mut fields = vec![String::new()];
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted && chars.peek() == Some(&'"') => {
                chars.next();
                fields.last_mut().unwrap().push('"');
            }
            '"' => quoted = !quoted,
            ',' if !quoted => fields.push(String::new()),
            c => fields.last_mut().unwrap().push(c),
        }
    }
    fields
}

#[test]
fn json_and_csv_outputs_quote_the_run_name() {
    let root = awkward_root();
    let listings: [&[&str]; 3] = [
        &["summary"],
        &["top-stalls", "5"],
        &["events", "--limit", "50"],
    ];
    let text = trace(&root, &["counts"], "json");
    json::parse(&text).unwrap_or_else(|e| panic!("counts: {e}\n{text}"));
    for command in listings {
        let text = trace(&root, command, "json");
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{command:?}: {e}\n{text}"));
        let names: Vec<_> = doc
            .as_array()
            .unwrap()
            .iter()
            .filter_map(|r| r.get("run"))
            .collect();
        assert!(!names.is_empty(), "{command:?} names no run");
        assert!(
            names.iter().all(|n| n.as_str() == Some(NAME)),
            "{command:?}"
        );

        let text = trace(&root, command, "csv");
        let mut lines = text.lines();
        let columns = csv_fields(lines.next().expect("a header")).len();
        for line in lines {
            let fields = csv_fields(line);
            assert_eq!(fields.len(), columns, "{command:?}: {line}");
            assert_eq!(fields[0], NAME, "{command:?}");
        }
    }
}
