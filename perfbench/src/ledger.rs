//! What the benchmark records: named metrics with units, in-memory
//! spans around its own calls into each layer, and the small statistics
//! both need.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Every end-to-end metric, in output order, with its unit. The self-test
/// checks this list against `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cold_wall_s", "s"),
    ("sim_packets_per_s", "packets/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric of the traced run, in output order. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kernel.events", "count"),
    ("kernel.events_per_packet", "ratio"),
    ("kernel.suppressed_pumps", "count"),
    ("kernel.queue_ns_per_op", "ns"),
    ("kernel.self_s", "s"),
    ("eib.grants", "count"),
    ("eib.ring_busy_share", "ratio"),
    ("eib.stall_cycles", "cycles"),
    ("eib.ring_wait_cycles", "cycles"),
    ("eib.ns_per_grant", "ns"),
    ("eib.self_s", "s"),
    ("mfc.packets", "count"),
    ("mfc.slot_stall_cycles", "cycles"),
    ("mfc.sync_stall_cycles", "cycles"),
    ("mfc.slot_wait_cycles", "cycles"),
    ("mfc.ns_per_packet", "ns"),
    ("mfc.self_s", "s"),
    ("mem.accesses", "count"),
    ("mem.conflicts", "count"),
    ("mem.busy_share", "ratio"),
    ("mem.stall_cycles", "cycles"),
    ("mem.ns_per_access", "ns"),
    ("mem.self_s", "s"),
    ("fabric.runs", "count"),
    ("fabric.run_ms_p50", "ms"),
    ("fabric.run_ms_p95", "ms"),
    ("fabric.ns_per_packet", "ns"),
    ("fabric.peak_live_packets", "count"),
    ("fabric.self_s", "s"),
    ("plan.build_s", "s"),
    ("plan.specs", "count"),
    ("plan.self_s", "s"),
    ("exec.batch_s", "s"),
    ("exec.overhead_s", "s"),
    ("exec.hits", "count"),
    ("exec.misses", "count"),
    ("exec.hit_rate", "ratio"),
    ("exec.self_s", "s"),
    ("diskcache.store_us", "us"),
    ("diskcache.load_us", "us"),
    ("diskcache.entry_bytes", "bytes"),
    ("diskcache.self_s", "s"),
    ("tracestore.record_share", "ratio"),
    ("tracestore.bytes_per_event", "bytes"),
    ("tracestore.check_s", "s"),
    ("tracestore.self_s", "s"),
    ("serve.encode_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.wire_bytes_per_run", "bytes"),
    ("serve.queue_peak", "count"),
    ("serve.deduped", "count"),
    ("serve.rejected", "count"),
    ("serve.self_s", "s"),
    ("ppe.figures_s", "s"),
    ("ppe.self_s", "s"),
    ("bench.self_s", "s"),
    ("bench.latency_samples", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
];

/// The layers spans are attributed to; each has a `<layer>.self_s`
/// metric. `bench` is the benchmark's own work between layer calls.
pub const LAYERS: &[&str] = &[
    "kernel",
    "eib",
    "mfc",
    "mem",
    "fabric",
    "plan",
    "exec",
    "diskcache",
    "tracestore",
    "serve",
    "ppe",
    "bench",
];

/// Named metric values; names and units come from [`END_TO_END`] or
/// [`PER_LAYER`].
#[derive(Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The `metrics` object of the result line: exactly the names of
    /// `declared`, in that order, each with its unit. A name nobody set
    /// is a bug in the benchmark, so it panics rather than print 0.
    pub fn to_json(&self, declared: &[(&str, &str)]) -> String {
        let fields: Vec<String> = declared
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was never measured"));
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// One timed call: which layer it entered, when, and the span it ran
/// under (`0` for the root).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub layer: &'static str,
    pub name: String,
    pub start: Duration,
    pub end: Duration,
}

/// Spans kept in memory while the traced run works and written out at
/// its end. Thread-safe: the fabric layer is timed from two threads.
pub struct Tracer {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span of `layer` under `parent`; `f` receives the
    /// new span's id so its own calls can nest under it.
    pub fn span<T>(
        &self,
        parent: u64,
        layer: &'static str,
        name: impl Into<String>,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed();
        let out = f(id);
        let end = self.origin.elapsed();
        self.spans
            .lock()
            .expect("no span holder panics")
            .push(Span {
                id,
                parent,
                layer,
                name: name.into(),
                start,
                end,
            });
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("no span holder panics").clone();
        spans.sort_by_key(|s| (s.start, s.id));
        spans
    }
}

/// Seconds of `span` that none of `children` covers.
fn self_time(span: &Span, children: &[&Span]) -> f64 {
    let mut intervals: Vec<(Duration, Duration)> = children
        .iter()
        .map(|c| (c.start.max(span.start), c.end.min(span.end)))
        .filter(|(s, e)| s < e)
        .collect();
    intervals.sort();
    let mut covered = Duration::ZERO;
    let mut reach = span.start;
    for (s, e) in intervals {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (span.end - span.start)
        .saturating_sub(covered)
        .as_secs_f64()
}

/// Σ self time per layer, in [`LAYERS`] order. Spans run on parallel
/// threads add up, so the total can exceed the wall clock.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, f64)> {
    LAYERS
        .iter()
        .map(|&layer| {
            let total = spans
                .iter()
                .filter(|s| s.layer == layer)
                .map(|s| {
                    let children: Vec<&Span> = spans.iter().filter(|c| c.parent == s.id).collect();
                    self_time(s, &children)
                })
                .fold(0.0, |a, b| a + b);
            (layer, total)
        })
        .collect()
}

/// Spans as JSON lines, in start order.
pub fn spans_json(spans: &[Span]) -> String {
    spans
        .iter()
        .map(|s| {
            format!(
                "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_us\":{},\"end_us\":{}}}\n",
                s.id,
                s.parent,
                s.layer,
                cellsim_core::json::escape(&s.name),
                s.start.as_micros(),
                s.end.as_micros()
            )
        })
        .collect()
}

/// Total seconds of the spans of `layer` whose name starts with `prefix`.
pub fn span_seconds(spans: &[Span], layer: &str, prefix: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name.starts_with(prefix))
        .map(|s| (s.end - s.start).as_secs_f64())
        .fold(0.0, |a, b| a + b)
}

/// The timed phases of every pass of an untraced run. A phase is timed
/// in pieces (one per figure request or batch, or one for the whole
/// phase), the same pieces in the same order every time. A pass has one cold phase
/// and one or more warm phases.
#[derive(Default)]
pub struct Passes {
    cold: Vec<Vec<f64>>,
    warm: Vec<Vec<f64>>,
    /// Request latencies, one set per timed phase that measures them.
    latencies_ms: Vec<Vec<f64>>,
}

/// Per position, the smallest value over `rows`.
fn best_each(rows: &[Vec<f64>]) -> Vec<f64> {
    (0..rows.first().map_or(0, Vec::len))
        .map(|i| rows.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

impl Passes {
    /// Adds a pass's cold phase.
    pub fn cold(&mut self, pieces: Vec<f64>) {
        self.cold.push(pieces);
    }

    /// Adds one warm phase.
    pub fn warm(&mut self, pieces: Vec<f64>) {
        self.warm.push(pieces);
    }

    /// Adds one latency sample set.
    pub fn latencies(&mut self, ms: Vec<f64>) {
        self.latencies_ms.push(ms);
    }

    /// Host ms from the start of the cold phase to the end of each of its
    /// pieces, with every piece taking its best time.
    pub fn cold_envelope_ms(&self) -> Vec<f64> {
        best_each(&self.cold)
            .iter()
            .scan(0.0, |sum, piece| {
                *sum += piece * 1e3;
                Some(*sum)
            })
            .collect()
    }

    /// Records each phase as the sum of its pieces' best times, and the
    /// latency percentiles over every sample set added, pooled.
    /// Interference on a shared host only ever slows work down and comes
    /// in bursts, so the fastest time of each short piece is the
    /// steadiest estimate of the code's speed. Serve latencies are pooled
    /// rather than minimised per request: a request's place in its batch
    /// sets most of its latency, and stalls shift that tail in steps, so
    /// per-request minima jump between runs where the pooled percentile
    /// does not. `packets` is what one pass simulates. Returns a line
    /// describing the samples.
    pub fn record(&self, packets: u64, m: &mut Metrics) -> String {
        let cold: f64 = best_each(&self.cold).iter().sum();
        let warm: f64 = best_each(&self.warm).iter().sum();
        let latencies = self.latencies_ms.concat();
        m.set("wall_s", cold + warm);
        m.set("cold_wall_s", cold);
        m.set("sim_packets_per_s", packets as f64 / cold);
        m.set("latency_p50_ms", quantile(&latencies, 0.5));
        m.set("latency_p95_ms", quantile(&latencies, 0.95));
        m.set("peak_rss_mb", peak_rss_mb());
        // The warm phase is printed, not bounded: on quick-sweep it is
        // ~30 ms and its speed differs by a third between processes.
        let per_pass: Vec<f64> = self.cold.iter().map(|p| p.iter().sum()).collect();
        format!(
            "passes={} latency_samples={} cold phase per pass: {per_pass:.3?} warm phase (best pieces) = {warm} s",
            self.cold.len(),
            latencies.len(),
        )
    }
}

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values`, averaging the middle pair; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Whether a run of `seconds` that began at `start` has room for another
/// pass as long as the last one (`last` seconds). The first pass always
/// runs, and a pass that would end past the run's time is not begun, so
/// a run whose passes are about as long as the run itself makes one pass
/// every time instead of one or two by chance.
pub fn another_pass(start: Instant, last: Option<f64>, seconds: f64) -> bool {
    last.is_none_or(|last| secs(start) + last <= seconds)
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    fn span(id: u64, parent: u64, layer: &'static str, start_ms: u64, end_ms: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: String::new(),
            start: Duration::from_millis(start_ms),
            end: Duration::from_millis(end_ms),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = [
            span(1, 0, "bench", 0, 10),
            span(2, 1, "fabric", 1, 4),
            span(3, 1, "fabric", 3, 6),
            span(4, 2, "mem", 2, 3),
        ];
        let times: HashMap<&str, f64> = self_times(&spans).into_iter().collect();
        let ms = |layer: &str| (times[layer] * 1e3).round();
        assert_eq!(
            ms("bench"),
            5.0,
            "10 ms minus the 1..6 ms its children cover"
        );
        assert_eq!(ms("fabric"), 5.0, "overlapping siblings both count: 2 + 3");
        assert_eq!(ms("mem"), 1.0);
        assert_eq!(ms("exec"), 0.0);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&values, 0.5), 2.0);
        assert_eq!(quantile(&values, 0.95), 4.0);
        assert_eq!(median(&values), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
