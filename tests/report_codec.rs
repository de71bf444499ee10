//! The report codec's strictness: `report_from_json` reads back exactly
//! what `report_to_json` wrote, and returns `None` for any document that
//! is not that shape — a missing or mistyped member, a fixed-size array of
//! the wrong length, or an unknown bank. The disk cache and the serve
//! client both rely on this to refuse, rather than half-read, a foreign
//! or damaged report.

use cellsim::diskcache::{report_from_json, report_to_json};
use cellsim::json::{self, JsonValue};
use cellsim::{CellSystem, FaultPlan, Placement, SyncPolicy, TransferPlan};

/// The canonical JSON of an 8-SPE GET+PUT run on a degraded blade, so
/// every section (per-SPE, rings, both banks, faults, all four latency
/// paths) holds non-trivial values. Checks the round trip on the way.
fn faulted_doc() -> JsonValue {
    let faults = FaultPlan::parse(include_str!("../plans/degraded_smoke.json")).unwrap();
    let mut b = TransferPlan::builder();
    for spe in 0..8 {
        b = b.copy_memory(spe, 64 << 10, 4096, SyncPolicy::AfterAll);
    }
    let report = CellSystem::blade()
        .with_faults(faults)
        .try_run(&Placement::identity(), &b.build().unwrap())
        .unwrap();
    assert!(report.metrics.faults.nacks > 0, "the plan injects NACKs");
    let doc = json::parse(&report_to_json(&report)).unwrap();
    assert_eq!(report_from_json(&doc).as_ref(), Some(&report));
    doc
}

/// Follows `path` (object keys, and array indices as decimal strings).
fn at<'a>(v: &'a mut JsonValue, path: &[String]) -> &'a mut JsonValue {
    path.iter().fold(v, |v, step| match v {
        JsonValue::Object(map) => map.get_mut(step).unwrap(),
        JsonValue::Array(items) => &mut items[step.parse::<usize>().unwrap()],
        _ => panic!("{step} does not apply to {v:?}"),
    })
}

fn items(v: &mut JsonValue) -> &mut Vec<JsonValue> {
    match v {
        JsonValue::Array(items) => items,
        _ => panic!("not an array: {v:?}"),
    }
}

/// Paths of every object member, at any depth: leaves (numbers, strings,
/// arrays of numbers), objects and arrays of objects.
fn members(v: &JsonValue, path: &mut Vec<String>, out: &mut Vec<Vec<String>>) {
    for (key, child) in v.as_object().expect("an object") {
        path.push(key.clone());
        out.push(path.clone());
        match child {
            JsonValue::Object(_) => members(child, path, out),
            JsonValue::Array(items) if matches!(items.first(), Some(JsonValue::Object(_))) => {
                for (i, item) in items.iter().enumerate() {
                    path.push(i.to_string());
                    members(item, path, out);
                    path.pop();
                }
            }
            _ => {}
        }
        path.pop();
    }
}

/// Asserts that `doc` no longer decodes once `edit` has changed the
/// value at `path`.
fn refused(doc: &JsonValue, path: &[String], what: &str, edit: impl FnOnce(&mut JsonValue)) {
    let mut copy = doc.clone();
    edit(at(&mut copy, path));
    assert!(
        report_from_json(&copy).is_none(),
        "{path:?} {what} must not decode"
    );
}

fn path(steps: &[&str]) -> Vec<String> {
    steps.iter().map(|s| s.to_string()).collect()
}

#[test]
fn every_member_is_required_and_typed() {
    let doc = faulted_doc();
    let mut paths = Vec::new();
    members(&doc, &mut Vec::new(), &mut paths);
    assert!(paths.len() > 150, "only {} members", paths.len());
    let retype = |v: &mut JsonValue| *v = JsonValue::String("7".into());
    for p in &paths {
        let (key, parent) = p.split_last().unwrap();
        refused(&doc, parent, &format!("without {key}"), |v| {
            let JsonValue::Object(map) = v else {
                unreachable!("a key's parent is an object")
            };
            map.remove(key);
        });
        refused(&doc, p, "as a string", retype);
        let first = [p.clone(), path(&["0"])].concat();
        if let Some([JsonValue::Number(_), ..]) = at(&mut doc.clone(), p).as_array() {
            refused(&doc, &first, "as a string", retype);
        }
    }
}

#[test]
fn fixed_size_arrays_must_have_their_length() {
    let doc = faulted_doc();
    let mut fixed = vec![
        path(&["latency", "paths"]),
        path(&["latency", "element_service", "buckets"]),
    ];
    for i in ["0", "1", "2", "3"] {
        fixed.push(path(&["latency", "paths", i, "end_to_end", "buckets"]));
        fixed.push(path(&["latency", "paths", i, "phase_cycles"]));
        fixed.push(path(&["latency", "paths", i, "dominant_counts"]));
    }
    for p in &fixed {
        let n = items(at(&mut doc.clone(), p)).len();
        assert!([4, 48].contains(&n), "{p:?} holds {n}");
        refused(&doc, p, "one too long", |v| {
            items(v).push(json::parse("0").unwrap())
        });
        refused(&doc, p, "one too short", |v| drop(items(v).pop()));
    }
}

#[test]
fn banks_are_local_or_remote() {
    let doc = faulted_doc();
    let banks = items(at(&mut doc.clone(), &path(&["metrics", "banks"]))).len();
    assert_eq!(banks, 2);
    for i in ["0", "1"] {
        for name in ["Local", "REMOTE", "middle", ""] {
            let bank = path(&["metrics", "banks", i, "bank"]);
            refused(&doc, &bank, &format!("named {name:?}"), |v| {
                *v = JsonValue::String(name.into());
            });
        }
    }
}
