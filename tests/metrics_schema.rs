//! Schema stability of the metrics-digest artifacts: the JSON parses
//! back with a fixed key set, the CSV has a fixed metric-name column
//! regardless of what the workload exercised (zeros are emitted, not
//! elided), and RFC-4180 quoting round-trips awkward figure ids. Tools
//! built on `--metrics` output may rely on these columns existing.

use cellsim::exec::SweepExecutor;
use cellsim::experiments::{figure_metrics_with, ExperimentConfig};
use cellsim::json::{self, JsonValue};
use cellsim::report::MetricsTable;
use cellsim::{CellSystem, MetricsSummary, Placement, SyncPolicy, TransferPlan};

fn summary_of(
    build: impl FnOnce(cellsim::TransferPlanBuilder) -> cellsim::TransferPlanBuilder,
) -> MetricsSummary {
    let plan = build(TransferPlan::builder()).build().expect("valid plan");
    let report = CellSystem::blade()
        .try_run(&Placement::identity(), &plan)
        .unwrap();
    let mut summary = MetricsSummary::default();
    summary.accumulate_report(&report);
    summary
}

fn populated_summary() -> MetricsSummary {
    summary_of(|b| {
        b.get_from_memory(0, 64 << 10, 4096, SyncPolicy::AfterAll)
            .exchange_with(1, 2, 64 << 10, 4096, SyncPolicy::AfterAll)
    })
}

/// Minimal RFC-4180 reader: quoted fields may contain commas, doubled
/// quotes and newlines.
fn parse_csv(text: &str) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    let mut row = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            } else {
                field.push(c);
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => row.push(std::mem::take(&mut field)),
                '\n' => {
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                }
                '\r' => {}
                _ => field.push(c),
            }
        }
    }
    if !field.is_empty() || !row.is_empty() {
        row.push(field);
        rows.push(row);
    }
    rows
}

fn csv_metric_names(table: &MetricsTable) -> Vec<String> {
    let rows = parse_csv(&table.to_csv());
    assert_eq!(rows[0], vec!["metric", "value"], "fixed header");
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.len(), 2, "row {i} must have exactly two fields");
    }
    rows[1..].iter().map(|r| r[0].clone()).collect()
}

#[test]
fn csv_schema_does_not_depend_on_the_workload() {
    // Memory-only traffic exercises the mem paths and the banks;
    // SPE↔SPE exchange exercises the local-store paths and neither
    // bank. The emitted column set must be identical anyway: idle
    // paths and counters appear as zeros, not holes.
    let mem_only = MetricsTable {
        id: "8".into(),
        summary: summary_of(|b| b.get_from_memory(0, 64 << 10, 4096, SyncPolicy::AfterAll)),
    };
    let exchange_only = MetricsTable {
        id: "8".into(),
        summary: summary_of(|b| b.exchange_with(1, 2, 64 << 10, 4096, SyncPolicy::AfterAll)),
    };
    let a = csv_metric_names(&mem_only);
    let b = csv_metric_names(&exchange_only);
    assert_eq!(a, b, "metric rows must not depend on the workload");
    // Spot-check the latency columns the issue promises downstream tools.
    for needle in [
        "latency_mem_get_p95",
        "latency_ls_put_dominant_ring_wait",
        "latency_mem_put_phase_service",
        "latency_element_service_count",
        "fault_nacks",
        "fault_retries_exhausted",
        "fault_degraded_cycles",
        "latency_mem_get_retries",
        "latency_ls_get_retry_backoff_cycles",
        "latency_mem_put_exhausted_commands",
    ] {
        assert!(
            a.iter().any(|m| m == needle),
            "missing expected column {needle}; have {a:?}"
        );
    }
    // And the column set is duplicate-free.
    let mut sorted = a.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), a.len(), "no duplicated metric names");
}

#[test]
fn csv_quoting_round_trips_awkward_ids() {
    let id = "8,\"worst\" case\nline two";
    let table = MetricsTable {
        id: id.into(),
        summary: MetricsSummary::default(),
    };
    let rows = parse_csv(&table.to_csv());
    let figure_row = rows
        .iter()
        .find(|r| r[0] == "figure")
        .expect("figure row present");
    assert_eq!(figure_row[1], id, "RFC-4180 round trip");
}

#[test]
fn json_parses_back_with_the_fixed_key_set() {
    let table = MetricsTable {
        id: "13".into(),
        summary: populated_summary(),
    };
    let doc = json::parse(&table.to_json()).expect("emitted JSON parses");
    let keys: Vec<&str> = doc
        .as_object()
        .expect("top level is an object")
        .keys()
        .map(String::as_str)
        .collect();
    let mut expected = vec![
        "figure",
        "runs",
        "run_cycles",
        "events",
        "packets",
        "suppressed_pumps",
        "peak_live_packets",
        "spe",
        "occupancy_mean_inflight",
        "occupancy_saturated_share",
        "dominant_stall",
        "runs_limited_by",
        "runs_unstalled",
        "rings",
        "banks",
        "faults",
        "latency",
    ];
    expected.sort_unstable(); // JsonValue objects iterate in key order
    assert_eq!(keys, expected);
    assert_eq!(doc.get("figure").and_then(JsonValue::as_str), Some("13"));
    assert_eq!(doc.get("runs").and_then(JsonValue::as_u64), Some(1));

    let paths = doc
        .get("latency")
        .and_then(|l| l.get("paths"))
        .and_then(JsonValue::as_array)
        .expect("latency.paths is an array");
    let names: Vec<&str> = paths
        .iter()
        .map(|p| p.get("path").and_then(JsonValue::as_str).unwrap())
        .collect();
    assert_eq!(
        names,
        ["mem-get", "mem-put", "ls-get", "ls-put"],
        "all four paths present even when idle"
    );
    let faults = doc.get("faults").expect("faults object present");
    for key in [
        "nacks",
        "retries",
        "retries_exhausted",
        "abandoned_packets",
        "degraded_cycles",
    ] {
        assert_eq!(
            faults.get(key).and_then(JsonValue::as_u64),
            Some(0),
            "healthy run must emit zero fault counter '{key}'"
        );
    }

    for p in paths {
        for key in [
            "commands",
            "nacks",
            "retries",
            "retry_backoff_cycles",
            "exhausted_commands",
            "end_to_end",
            "phase_cycles",
            "dominant_commands",
        ] {
            assert!(p.get(key).is_some(), "path missing '{key}'");
        }
        let hist = p.get("end_to_end").unwrap();
        for key in ["count", "total", "max", "p50", "p95", "p99", "buckets"] {
            assert!(hist.get(key).is_some(), "histogram missing '{key}'");
        }
    }

    // The digest rows and the JSON agree on the headline number.
    let get = &paths[0];
    let commands = get.get("commands").and_then(JsonValue::as_u64).unwrap();
    assert_eq!(commands, 16, "64 KiB / 4 KiB = 16 GET commands");
}

#[test]
fn csv_and_json_are_byte_deterministic() {
    let a = MetricsTable {
        id: "8".into(),
        summary: populated_summary(),
    };
    let b = MetricsTable {
        id: "8".into(),
        summary: populated_summary(),
    };
    assert_eq!(a.to_csv(), b.to_csv());
    assert_eq!(a.to_json(), b.to_json());
}

/// The quick figure 8 digest is pinned byte for byte: the fixture was
/// recorded (`repro --quick --figure 8 --metrics`) from the
/// hand-formatted writer that preceded `json::Writer`.
#[test]
fn quick_figure8_json_matches_the_golden() {
    let summary = figure_metrics_with(
        &SweepExecutor::new(2),
        &CellSystem::blade(),
        &ExperimentConfig::quick(),
        "8",
    )
    .unwrap()
    .expect("figure 8 runs on the fabric");
    let table = MetricsTable {
        id: "8".into(),
        summary,
    };
    assert_eq!(
        table.to_json(),
        include_str!("fixtures/metrics_fig8_quick.json")
    );
}
