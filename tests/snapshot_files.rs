//! The committed snapshot files survive a read and a write unchanged:
//! `from_json` then `to_json` gives back every byte of
//! `BENCH_baseline.json` and `BENCH_perf.json`, so the shared
//! `"experiment"` block and field readers keep the on-disk format exact.

use cellsim::baseline::Baseline;
use cellsim::core::perf::PerfBaseline;

#[test]
fn committed_baseline_reserializes_byte_for_byte() {
    let text = include_str!("../BENCH_baseline.json");
    let baseline = Baseline::from_json(text).expect("the committed baseline parses");
    assert_eq!(baseline.to_json(), text);
}

#[test]
fn committed_perf_snapshot_reserializes_byte_for_byte() {
    // `events_per_sec` is not read back: it is recomputed from the
    // rounded `wall_seconds`, and still lands on the recorded digits.
    let text = include_str!("../BENCH_perf.json");
    let perf = PerfBaseline::from_json(text).expect("the committed perf snapshot parses");
    assert_eq!(perf.to_json(), text);
}
