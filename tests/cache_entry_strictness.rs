//! A disk-cache entry is as strict as the wire decoder: an entry whose
//! report is not exactly the canonical shape is refused, discarded and
//! left to be recomputed, even when its checksum matches its bytes. Each
//! edit below is made on the text of a real report and written with the
//! checksum recomputed over the edited text, so only the decoder can
//! refuse it.

use std::fs;
use std::ops::Range;
use std::path::PathBuf;

use cellsim::diskcache::{key_json, report_to_json, DiskCache};
use cellsim::exec::{RunKey, RunSpec, Workload};
use cellsim::experiments::SweepPoint;
use cellsim::json::Reader;
use cellsim::kernel::fnv::fnv1a;
use cellsim::{CellSystem, FabricReport, FaultPlan, Placement};

/// An 8-SPE GET+PUT run on a degraded blade, so every section (per-SPE,
/// rings, both banks, faults, all four latency paths) holds
/// non-trivial values; the same run `tests/report_codec.rs` decodes.
fn faulted_run() -> (RunKey, FabricReport) {
    let faults = FaultPlan::parse(include_str!("../plans/degraded_smoke.json")).unwrap();
    let system = CellSystem::blade().with_faults(faults);
    let point = SweepPoint::new(Workload::dma_elem("mem-copy", 8, 64 << 10, 4096)).unwrap();
    let report = system
        .try_run(&Placement::identity(), point.plan())
        .unwrap();
    assert!(report.metrics.faults.nacks > 0, "the plan injects NACKs");
    let spec = RunSpec::new(&system, &point, Placement::identity());
    (spec.key, report)
}

/// An entry holding `report` verbatim, its checksum taken over exactly
/// those bytes.
fn entry(key: &RunKey, report: &str) -> String {
    format!(
        "{{\"schema\":2,\"checksum\":\"{:016x}\",\"key\":{},\"report\":{report}}}\n",
        fnv1a(report.as_bytes()),
        key_json(key)
    )
}

/// One object member of the canonical text.
struct Member {
    path: String,
    /// `"key":value`, without the comma before or after it.
    span: Range<usize>,
    value: Range<usize>,
    /// The items, when the value is an array.
    items: Vec<Range<usize>>,
}

/// Every object of the text: its members in order and where its `}` is.
struct Object {
    members: Vec<Member>,
    close: usize,
}

/// Records the object at `r` and, depth first, every object inside it.
fn walk(text: &str, r: &mut Reader<'_>, path: &str, out: &mut Vec<Object>) {
    let mut members = Vec::new();
    r.begin_object().unwrap();
    loop {
        let mut start = r.offset();
        let Some(key) = r.next_key().unwrap() else {
            break;
        };
        if text.as_bytes()[start] == b',' {
            start += 1;
        }
        let path = format!("{path}.{key}");
        let at = r.offset();
        let mut items = Vec::new();
        match &text[at..at + 2] {
            "[{" => {
                r.begin_array().unwrap();
                let mut i = 0;
                while r.next_item().unwrap() {
                    let item = r.offset();
                    walk(text, r, &format!("{path}.{i}"), out);
                    items.push(item..r.offset());
                    i += 1;
                }
            }
            s if s.starts_with('[') => {
                r.begin_array().unwrap();
                while r.next_item().unwrap() {
                    let item = r.offset();
                    r.u64().unwrap();
                    items.push(item..r.offset());
                }
            }
            s if s.starts_with('{') => walk(text, r, &path, out),
            _ => {
                r.raw().unwrap();
            }
        }
        members.push(Member {
            path,
            span: start..r.offset(),
            value: at..r.offset(),
            items,
        });
    }
    out.push(Object {
        members,
        close: r.offset() - 1,
    });
}

fn splice(text: &str, range: Range<usize>, with: &str) -> String {
    format!("{}{with}{}", &text[..range.start], &text[range.end..])
}

/// Every text-level edit of the canonical report, named.
fn edits(text: &str) -> Vec<(String, String)> {
    let mut objects = Vec::new();
    walk(text, &mut Reader::new(text), "report", &mut objects);
    let mut out = Vec::new();
    let fixed = |path: &str| {
        path == "report.latency.paths"
            || path.ends_with(".buckets")
            || path.ends_with(".phase_cycles")
            || path.ends_with(".dominant_counts")
    };
    for object in &objects {
        let members = &object.members;
        out.push((
            format!("an extra member before {}", object.close),
            splice(text, object.close..object.close, ",\"extra\":0"),
        ));
        for (i, m) in members.iter().enumerate() {
            // Drop the member and one comma next to it.
            let cut = if i > 0 {
                members[i - 1].span.end..m.span.end
            } else {
                m.span.start..members.get(1).map_or(m.span.end, |n| n.span.start)
            };
            out.push((format!("{} dropped", m.path), splice(text, cut, "")));
            out.push((
                format!("{} as a string", m.path),
                splice(text, m.value.clone(), "\"7\""),
            ));
            if let Some(first) = m
                .items
                .first()
                .filter(|_| text.as_bytes()[m.value.start + 1] != b'{')
            {
                out.push((
                    format!("{}.0 as a string", m.path),
                    splice(text, first.clone(), "\"7\""),
                ));
            }
            if let Some(next) = members.get(i + 1) {
                let swapped = format!("{},{}", &text[next.span.clone()], &text[m.span.clone()]);
                out.push((
                    format!("{} swapped with the next member", m.path),
                    splice(text, m.span.start..next.span.end, &swapped),
                ));
            }
            if fixed(&m.path) {
                let n = m.items.len();
                assert!([4, 48].contains(&n), "{} holds {n}", m.path);
                let last = &text[m.items[n - 1].clone()];
                let end = m.value.end - 1;
                out.push((
                    format!("{} one longer", m.path),
                    splice(text, end..end, &format!(",{last}")),
                ));
                out.push((
                    format!("{} one shorter", m.path),
                    splice(text, m.items[n - 2].end..m.items[n - 1].end, ""),
                ));
            }
            if m.path.ends_with(".bank") {
                for name in ["\"Local\"", "\"REMOTE\"", "\"middle\"", "\"\""] {
                    out.push((
                        format!("{} named {name}", m.path),
                        splice(text, m.value.clone(), name),
                    ));
                }
            }
        }
    }
    out
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cellsim-strict-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Writes `text` as `key`'s entry and asserts the load refuses it,
/// discarding the file.
fn assert_refused(cache: &DiskCache, key: &RunKey, text: &str, what: &str) {
    let before = cache.stats().discarded;
    let path = cache.entry_path(key);
    fs::write(&path, text).unwrap();
    assert!(cache.load(key).is_none(), "{what} must not load");
    assert_eq!(cache.stats().discarded, before + 1, "{what} is discarded");
    assert!(!path.exists(), "{what} is removed");
}

#[test]
fn the_canonical_entry_is_the_stored_entry() {
    let dir = scratch("canonical");
    let cache = DiskCache::open(&dir).unwrap();
    let (key, report) = faulted_run();
    cache.store(&key, &report);
    let stored = fs::read_to_string(cache.entry_path(&key)).unwrap();
    assert_eq!(stored, entry(&key, &report_to_json(&report)));
    assert_eq!(cache.load(&key).as_ref(), Some(&report));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn every_edit_of_the_report_is_refused() {
    let dir = scratch("edits");
    let cache = DiskCache::open(&dir).unwrap();
    let (key, report) = faulted_run();
    let canonical = report_to_json(&report);
    let edits = edits(&canonical);
    let count = |what: &str| edits.iter().filter(|(name, _)| name.contains(what)).count();
    assert!(
        count(" dropped") > 150,
        "only {} members",
        count(" dropped")
    );
    assert_eq!(count(" one longer"), 14);
    assert_eq!(count(".bank named"), 8);
    for (what, text) in &edits {
        assert_ne!(text, &canonical, "{what} changes the text");
        assert_refused(&cache, &key, &entry(&key, text), what);
    }
    // The untouched text still loads.
    fs::write(cache.entry_path(&key), entry(&key, &canonical)).unwrap();
    assert_eq!(cache.load(&key).as_ref(), Some(&report));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn prefixes_and_nesting_bombs_are_refused_without_a_panic() {
    let dir = scratch("prefixes");
    let cache = DiskCache::open(&dir).unwrap();
    let (key, report) = faulted_run();
    let whole = entry(&key, &report_to_json(&report));
    // The trailing newline is optional; anything shorter is not an entry.
    for cut in 0..whole.len() - 1 {
        assert_refused(&cache, &key, &whole[..cut], &format!("a {cut}-byte prefix"));
    }
    let bomb = format!("{}0{}", "[".repeat(100_000), "]".repeat(100_000));
    let key_text = key_json(&key);
    let canonical = report_to_json(&report);
    for (what, text) in [
        ("a bomb for the key", whole.replacen(&key_text, &bomb, 1)),
        ("a bomb for the report", entry(&key, &bomb)),
        (
            "a bomb for the metrics",
            entry(
                &key,
                &canonical.replacen("\"metrics\":{", &format!("\"metrics\":{bomb},\"x\":{{"), 1),
            ),
        ),
    ] {
        assert_refused(&cache, &key, &text, what);
    }
    let _ = fs::remove_dir_all(&dir);
}
