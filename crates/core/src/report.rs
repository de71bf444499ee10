//! Result tables: figures, series, and placement-spread summaries.
//!
//! Every experiment in [`crate::experiments`] renders into one of two
//! shapes, matching the paper's plots:
//!
//! * [`Figure`] — bandwidth (GB/s) versus a swept parameter, one
//!   [`Series`] per configuration (e.g. "2 SPEs", "1 thread");
//! * [`SpreadFigure`] — min/median/mean/max over random SPE placements
//!   per swept parameter (the paper's Figures 13 and 16).

use std::fmt;

use cellsim_kernel::stats::Summary;
use cellsim_mfc::DmaPhase;

use crate::diskcache;
use crate::json::Writer;
use crate::latency::{DmaPathClass, LatencyHistogram};
use crate::metrics::MetricsSummary;

/// One plotted point: a swept-parameter label and a bandwidth.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// The x value, already formatted ("128 B", "2 threads", …).
    pub x: String,
    /// Bandwidth in GB/s.
    pub gbps: f64,
}

/// One curve of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label ("2 SPEs", "load 1 thread", …).
    pub label: String,
    /// Points in sweep order.
    pub points: Vec<Point>,
}

/// A reproduced figure: bandwidth versus a swept parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Paper identifier ("3a", "8c", "15b", "§4.2.2", …).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Name of the swept parameter.
    pub x_label: String,
    /// The curves. Every series must cover the same x values, in order.
    pub series: Vec<Series>,
}

impl Figure {
    /// Bandwidth at (`series_label`, `x`), if present — convenient for
    /// assertions.
    pub fn value(&self, series_label: &str, x: &str) -> Option<f64> {
        self.series
            .iter()
            .find(|s| s.label == series_label)?
            .points
            .iter()
            .find(|p| p.x == x)
            .map(|p| p.gbps)
    }
}

impl fmt::Display for Figure {
    /// Renders an aligned text table: rows are x values, columns series.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure {} — {} (GB/s)", self.id, self.title)?;
        let xs: Vec<&str> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|p| p.x.as_str()).collect())
            .unwrap_or_default();
        let x_width = xs
            .iter()
            .map(|x| x.len())
            .chain([self.x_label.len()])
            .max()
            .unwrap_or(8);
        let widths: Vec<usize> = self.series.iter().map(|s| s.label.len().max(7)).collect();
        write!(f, "  {:<x_width$}", self.x_label)?;
        for (s, w) in self.series.iter().zip(&widths) {
            write!(f, "  {:>w$}", s.label)?;
        }
        writeln!(f)?;
        for (row, x) in xs.iter().enumerate() {
            write!(f, "  {x:<x_width$}")?;
            for (s, w) in self.series.iter().zip(&widths) {
                match s.points.get(row) {
                    Some(p) => write!(f, "  {:>w$.2}", p.gbps)?,
                    None => write!(f, "  {:>w$}", "-")?,
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A placement-sensitivity figure: per x value, the min/median/mean/max
/// bandwidth over random logical→physical SPE placements.
#[derive(Debug, Clone, PartialEq)]
pub struct SpreadFigure {
    /// Paper identifier ("13a", "16b", …).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Name of the swept parameter.
    pub x_label: String,
    /// One summary row per swept value.
    pub rows: Vec<(String, Summary)>,
}

impl SpreadFigure {
    /// The largest max−min spread across rows — the headline
    /// placement-sensitivity number.
    pub fn max_spread(&self) -> f64 {
        self.rows
            .iter()
            .map(|(_, s)| s.spread())
            .fold(0.0, f64::max)
    }
}

impl fmt::Display for SpreadFigure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure {} — {} (GB/s over placements)",
            self.id, self.title
        )?;
        let x_width = self
            .rows
            .iter()
            .map(|(x, _)| x.len())
            .chain([self.x_label.len()])
            .max()
            .unwrap_or(8);
        writeln!(
            f,
            "  {:<x_width$}  {:>8}  {:>8}  {:>8}  {:>8}",
            self.x_label, "min", "median", "mean", "max"
        )?;
        for (x, s) in &self.rows {
            writeln!(
                f,
                "  {x:<x_width$}  {:>8.2}  {:>8.2}  {:>8.2}  {:>8.2}",
                s.min, s.median, s.mean, s.max
            )?;
        }
        Ok(())
    }
}

/// RFC-4180 minimal quoting: fields with a comma, quote or newline are
/// wrapped in double quotes, with inner quotes doubled.
pub fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

impl Figure {
    /// Renders the figure as CSV: header `x,<series...>`, one row per
    /// swept value. Ready for any plotting tool.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&csv_field(&self.x_label));
        for s in &self.series {
            out.push(',');
            out.push_str(&csv_field(&s.label));
        }
        out.push('\n');
        let rows = self.series.first().map_or(0, |s| s.points.len());
        for row in 0..rows {
            out.push_str(&csv_field(&self.series[0].points[row].x));
            for s in &self.series {
                out.push(',');
                match s.points.get(row) {
                    Some(p) => out.push_str(&format!("{:.4}", p.gbps)),
                    None => out.push_str(""),
                }
            }
            out.push('\n');
        }
        out
    }
}

impl SpreadFigure {
    /// Renders the spread figure as CSV with min/median/mean/max columns.
    pub fn to_csv(&self) -> String {
        let mut out = format!("{},min,median,mean,max\n", csv_field(&self.x_label));
        for (x, s) in &self.rows {
            out.push_str(&format!(
                "{},{:.4},{:.4},{:.4},{:.4}\n",
                csv_field(x),
                s.min,
                s.median,
                s.mean,
                s.max
            ));
        }
        out
    }
}

/// A figure's fabric-contention digest: the [`MetricsSummary`] over
/// exactly the runs that produced the figure, tagged with the figure id
/// and renderable as an aligned text table, CSV, and JSON.
///
/// The Display form reads the way the paper argues: cycle shares first
/// (what limited each SPE), then the Little's-law occupancy account of
/// the MFC outstanding budget, then where the traffic landed (rings,
/// banks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsTable {
    /// Paper identifier of the figure the digest covers ("8", "10", …).
    pub id: String,
    /// The counters, summed over the figure's whole sweep.
    pub summary: MetricsSummary,
}

impl MetricsTable {
    fn pct(part: u64, whole: u64) -> f64 {
        if whole == 0 {
            0.0
        } else {
            100.0 * part as f64 / whole as f64
        }
    }

    /// Renders the digest as `metric,value` CSV, one counter per row
    /// (histogram buckets and per-ring/per-bank counters included).
    pub fn to_csv(&self) -> String {
        let s = &self.summary;
        let m = &s.spe;
        let mut out = String::from("metric,value\n");
        let mut row = |k: &str, v: String| {
            out.push_str(&csv_field(k));
            out.push(',');
            out.push_str(&csv_field(&v));
            out.push('\n');
        };
        row("figure", self.id.clone());
        row("runs", s.runs.to_string());
        row("run_cycles", s.run_cycles.to_string());
        row("events", s.events.to_string());
        row("packets", s.packets.to_string());
        row("suppressed_pumps", s.suppressed_pumps.to_string());
        row("peak_live_packets", s.peak_live_packets.to_string());
        row("busy_cycles", m.busy_cycles.to_string());
        row("idle_cycles", m.idle_cycles.to_string());
        row("stall_mfc_full_cycles", m.stall_mfc_full_cycles.to_string());
        row("stall_sync_cycles", m.stall_sync_cycles.to_string());
        row("stall_eib_cycles", m.stall_eib_cycles.to_string());
        row("stall_mem_cycles", m.stall_mem_cycles.to_string());
        row(
            "occupancy_mean_inflight",
            format!("{:.4}", s.occupancy_mean_inflight()),
        );
        row(
            "occupancy_saturated_share",
            format!("{:.4}", s.occupancy_saturated_share()),
        );
        row("dominant_stall", s.dominant_stall().0.to_string());
        for (cause, &n) in crate::metrics::STALL_CAUSES.iter().zip(&s.limiter_runs) {
            row(
                &format!("runs_limited_by_{}", cause.replace('-', "_")),
                n.to_string(),
            );
        }
        row("runs_unstalled", s.unstalled_runs.to_string());
        for (k, &cycles) in m.occupancy_cycles.iter().enumerate() {
            row(&format!("occupancy_cycles_{k}"), cycles.to_string());
        }
        for (i, ring) in s.rings.iter().enumerate() {
            row(&format!("ring_{i}_grants"), ring.grants.to_string());
            row(&format!("ring_{i}_bytes"), ring.bytes.to_string());
            row(
                &format!("ring_{i}_busy_cycles"),
                ring.busy_cycles.to_string(),
            );
        }
        for b in &s.banks {
            let name = format!("{:?}", b.bank).to_lowercase();
            row(
                &format!("bank_{name}_accesses"),
                b.stats.accesses.to_string(),
            );
            row(&format!("bank_{name}_bytes"), b.stats.bytes.to_string());
            row(
                &format!("bank_{name}_busy_cycles"),
                b.stats.busy_cycles.to_string(),
            );
            row(
                &format!("bank_{name}_conflicts"),
                b.stats.conflicts.to_string(),
            );
            row(
                &format!("bank_{name}_turnaround_cycles"),
                b.stats.turnaround_cycles.to_string(),
            );
            row(
                &format!("bank_{name}_refresh_cycles"),
                b.stats.refresh_cycles.to_string(),
            );
        }
        // Fault digest: always emitted (zeros included on a healthy run)
        // so the column set is schema-stable.
        row("fault_nacks", s.faults.nacks.to_string());
        row("fault_retries", s.faults.retries.to_string());
        row(
            "fault_retries_exhausted",
            s.faults.retries_exhausted.to_string(),
        );
        row(
            "fault_abandoned_packets",
            s.faults.abandoned_packets.to_string(),
        );
        row(
            "fault_degraded_cycles",
            s.faults.degraded_cycles.to_string(),
        );
        // Latency digest: every path and phase is always emitted (zeros
        // included) so the column set is schema-stable.
        for (pi, path) in DmaPathClass::ALL.iter().enumerate() {
            let p = &s.latency.paths[pi];
            let key = path.name().replace('-', "_");
            let h = &p.end_to_end;
            row(&format!("latency_{key}_commands"), p.commands.to_string());
            row(&format!("latency_{key}_nacks"), p.nacks.to_string());
            row(&format!("latency_{key}_retries"), p.retries.to_string());
            row(
                &format!("latency_{key}_retry_backoff_cycles"),
                p.retry_backoff_cycles.to_string(),
            );
            row(
                &format!("latency_{key}_exhausted_commands"),
                p.exhausted_commands.to_string(),
            );
            row(&format!("latency_{key}_p50"), h.percentile(50).to_string());
            row(&format!("latency_{key}_p95"), h.percentile(95).to_string());
            row(&format!("latency_{key}_p99"), h.percentile(99).to_string());
            row(&format!("latency_{key}_max"), h.max.to_string());
            row(&format!("latency_{key}_mean"), h.mean().to_string());
            for (phase, &cycles) in DmaPhase::ALL.iter().zip(&p.phase_cycles) {
                let pk = phase.name().replace('-', "_");
                row(&format!("latency_{key}_phase_{pk}"), cycles.to_string());
            }
            for (phase, &n) in DmaPhase::ALL.iter().zip(&p.dominant_counts) {
                let pk = phase.name().replace('-', "_");
                row(&format!("latency_{key}_dominant_{pk}"), n.to_string());
            }
        }
        let es = &s.latency.element_service;
        row("latency_element_service_count", es.count.to_string());
        row("latency_element_service_p50", es.percentile(50).to_string());
        row("latency_element_service_p95", es.percentile(95).to_string());
        row("latency_element_service_p99", es.percentile(99).to_string());
        row("latency_element_service_max", es.max.to_string());
        out
    }

    /// One histogram as a JSON object with its digest percentiles and
    /// the log2 bucket counts (trailing zero buckets trimmed — a pure
    /// function of the counts, so still deterministic).
    fn write_hist(w: &mut Writer, h: &LatencyHistogram) {
        let last = h.buckets.iter().rposition(|&n| n > 0).map_or(0, |i| i + 1);
        w.begin_object()
            .key("count")
            .u64(h.count)
            .key("total")
            .u64(h.total)
            .key("max")
            .u64(h.max)
            .key("p50")
            .u64(h.percentile(50))
            .key("p95")
            .u64(h.percentile(95))
            .key("p99")
            .u64(h.percentile(99))
            .key("buckets")
            .u64s(h.buckets[..last].iter().copied())
            .end_object();
    }

    /// Renders the digest as a JSON object. Every value is an integer, a
    /// string, or a fixed-precision float, so the output is
    /// byte-deterministic.
    pub fn to_json(&self) -> String {
        let s = &self.summary;
        let mut w = Writer::with_capacity(8 << 10);
        w.begin_object()
            .key("figure")
            .str(&self.id)
            .key("runs")
            .u64(s.runs)
            .key("run_cycles")
            .u64(s.run_cycles)
            .key("events")
            .u64(s.events)
            .key("packets")
            .u64(s.packets)
            .key("suppressed_pumps")
            .u64(s.suppressed_pumps)
            .key("peak_live_packets")
            .u64(s.peak_live_packets)
            .key("spe");
        diskcache::write_spe(&mut w, &s.spe);
        w.key("occupancy_mean_inflight")
            .raw(&format!("{:.4}", s.occupancy_mean_inflight()))
            .key("occupancy_saturated_share")
            .raw(&format!("{:.4}", s.occupancy_saturated_share()))
            .key("dominant_stall")
            .str(s.dominant_stall().0)
            .key("runs_limited_by")
            .begin_object();
        for (cause, &n) in crate::metrics::STALL_CAUSES.iter().zip(&s.limiter_runs) {
            w.key(cause).u64(n);
        }
        w.end_object()
            .key("runs_unstalled")
            .u64(s.unstalled_runs)
            .key("rings")
            .begin_array();
        for r in &s.rings {
            diskcache::write_ring(&mut w, r);
        }
        w.end_array().key("banks").begin_array();
        for b in &s.banks {
            w.begin_object()
                .key("bank")
                .str(&format!("{:?}", b.bank).to_lowercase())
                .key("accesses")
                .u64(b.stats.accesses)
                .key("bytes")
                .u64(b.stats.bytes)
                .key("busy_cycles")
                .u64(b.stats.busy_cycles)
                .key("conflicts")
                .u64(b.stats.conflicts)
                .key("turnaround_cycles")
                .u64(b.stats.turnaround_cycles)
                .key("refresh_cycles")
                .u64(b.stats.refresh_cycles)
                .end_object();
        }
        w.end_array().key("faults");
        diskcache::write_faults(&mut w, &s.faults);
        w.key("latency").begin_object().key("paths").begin_array();
        for (p, path) in s.latency.paths.iter().zip(DmaPathClass::ALL) {
            w.begin_object()
                .key("path")
                .str(path.name())
                .key("commands")
                .u64(p.commands)
                .key("nacks")
                .u64(p.nacks)
                .key("retries")
                .u64(p.retries)
                .key("retry_backoff_cycles")
                .u64(p.retry_backoff_cycles)
                .key("exhausted_commands")
                .u64(p.exhausted_commands)
                .key("end_to_end");
            Self::write_hist(&mut w, &p.end_to_end);
            w.key("phase_cycles").begin_object();
            for (phase, &n) in DmaPhase::ALL.iter().zip(&p.phase_cycles) {
                w.key(phase.name()).u64(n);
            }
            w.end_object().key("dominant_commands").begin_object();
            for (phase, &n) in DmaPhase::ALL.iter().zip(&p.dominant_counts) {
                w.key(phase.name()).u64(n);
            }
            w.end_object().end_object();
        }
        w.end_array().key("element_service");
        Self::write_hist(&mut w, &s.latency.element_service);
        w.end_object().end_object();
        w.finish()
    }
}

impl fmt::Display for MetricsTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = &self.summary;
        let m = &s.spe;
        let spe_cycles = s.spe_cycles();
        writeln!(
            f,
            "Metrics {} — fabric digest over {} runs ({} bus cycles)",
            self.id, s.runs, s.run_cycles
        )?;
        writeln!(
            f,
            "  SPE cycles  busy {:.1}%  idle {:.1}%  stalled {:.1}% \
             (mfc-slots {:.1}%, sync {:.1}%, eib {:.1}%, mem {:.1}%)",
            Self::pct(m.busy_cycles, spe_cycles),
            Self::pct(m.idle_cycles, spe_cycles),
            Self::pct(m.stall_cycles(), spe_cycles),
            Self::pct(m.stall_mfc_full_cycles, spe_cycles),
            Self::pct(m.stall_sync_cycles, spe_cycles),
            Self::pct(m.stall_eib_cycles, spe_cycles),
            Self::pct(m.stall_mem_cycles, spe_cycles),
        )?;
        let (cause, cycles) = s.dominant_stall();
        writeln!(
            f,
            "  MFC slots   mean {:.2} in flight, {:.1}% of in-flight time \
             saturated; dominant stall: {cause} ({cycles} cycles)",
            s.occupancy_mean_inflight(),
            100.0 * s.occupancy_saturated_share(),
        )?;
        // mfc-slots, eib and mem stalls all require a saturated
        // outstanding budget (that is when the state machine can enter
        // them), so group them: when they dominate, the bandwidth
        // limiter is slot saturation — Little's law — and the detail
        // says what kept the slots occupied.
        let [wire, sync, eib, mem] = s.limiter_runs;
        let mut limiters = Vec::new();
        if wire + eib + mem > 0 {
            let detail: Vec<String> = [("wire", wire), ("eib", eib), ("mem", mem)]
                .iter()
                .filter(|&&(_, n)| n > 0)
                .map(|&(k, n)| format!("{k} {n}"))
                .collect();
            limiters.push(format!(
                "slots-full {} ({})",
                wire + eib + mem,
                detail.join(", ")
            ));
        }
        if sync > 0 {
            limiters.push(format!("sync {sync}"));
        }
        if s.unstalled_runs > 0 {
            limiters.push(format!("none {}", s.unstalled_runs));
        }
        writeln!(
            f,
            "  limiter     runs by dominant stall: {}",
            limiters.join(", ")
        )?;
        // Fault digest (elided on healthy runs; CSV/JSON always carry it).
        if s.faults.any() {
            writeln!(
                f,
                "  faults      {} NACKs → {} retried, {} exhausted \
                 ({} packets abandoned); degraded {:.1}% of run",
                s.faults.nacks,
                s.faults.retries,
                s.faults.retries_exhausted,
                s.faults.abandoned_packets,
                Self::pct(s.faults.degraded_cycles, s.run_cycles),
            )?;
        }
        // Per-path latency digest (empty paths elided from the human
        // view; CSV/JSON always carry all four).
        for (pi, path) in DmaPathClass::ALL.iter().enumerate() {
            let p = &s.latency.paths[pi];
            if p.commands == 0 {
                continue;
            }
            let h = &p.end_to_end;
            let dom = DmaPhase::ALL
                .iter()
                .zip(&p.dominant_counts)
                .max_by_key(|&(_, n)| n)
                .map(|(phase, _)| phase.name())
                .unwrap_or("none");
            writeln!(
                f,
                "  lat {:<8} {} cmds  p50/p95/p99/max {}/{}/{}/{} cyc  \
                 phases q/s/r/b {:.0}%/{:.0}%/{:.0}%/{:.0}%  dominant {}",
                path.name(),
                p.commands,
                h.percentile(50),
                h.percentile(95),
                h.percentile(99),
                h.max,
                Self::pct(p.phase_cycles[0], h.total),
                Self::pct(p.phase_cycles[1], h.total),
                Self::pct(p.phase_cycles[2], h.total),
                Self::pct(p.phase_cycles[3], h.total),
                dom,
            )?;
        }
        for (i, ring) in s.rings.iter().enumerate() {
            writeln!(
                f,
                "  ring {i}      {} in {} grants, busy {:.1}%",
                format_bytes(ring.bytes),
                ring.grants,
                Self::pct(ring.busy_cycles, s.run_cycles),
            )?;
        }
        for b in &s.banks {
            writeln!(
                f,
                "  bank {:<6} {} in {} accesses, busy {:.1}%, {} conflicts",
                format!("{:?}", b.bank).to_lowercase(),
                format_bytes(b.stats.bytes),
                b.stats.accesses,
                Self::pct(b.stats.busy_cycles, s.run_cycles),
                b.stats.conflicts,
            )?;
        }
        Ok(())
    }
}

/// Formats a byte count the way the paper labels its x axes.
pub fn format_bytes(bytes: u64) -> String {
    const MB: u64 = 1024 * 1024;
    if bytes >= MB && bytes.is_multiple_of(MB) {
        format!("{} MB", bytes / MB)
    } else if bytes >= 1024 && bytes.is_multiple_of(1024) {
        format!("{} KB", bytes / 1024)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_figure() -> Figure {
        Figure {
            id: "t1".into(),
            title: "test".into(),
            x_label: "elem".into(),
            series: vec![
                Series {
                    label: "a".into(),
                    points: vec![
                        Point {
                            x: "128 B".into(),
                            gbps: 1.5,
                        },
                        Point {
                            x: "1 KB".into(),
                            gbps: 3.25,
                        },
                    ],
                },
                Series {
                    label: "b".into(),
                    points: vec![
                        Point {
                            x: "128 B".into(),
                            gbps: 2.0,
                        },
                        Point {
                            x: "1 KB".into(),
                            gbps: 4.0,
                        },
                    ],
                },
            ],
        }
    }

    #[test]
    fn value_lookup_finds_cells() {
        let fig = sample_figure();
        assert_eq!(fig.value("a", "1 KB"), Some(3.25));
        assert_eq!(fig.value("b", "128 B"), Some(2.0));
        assert_eq!(fig.value("c", "128 B"), None);
        assert_eq!(fig.value("a", "2 KB"), None);
    }

    #[test]
    fn figure_renders_all_cells() {
        let text = sample_figure().to_string();
        assert!(text.contains("Figure t1"));
        assert!(text.contains("128 B"));
        assert!(text.contains("3.25"));
        assert!(text.contains("4.00"));
    }

    #[test]
    fn spread_figure_renders_and_spreads() {
        let fig = SpreadFigure {
            id: "t2".into(),
            title: "spread".into(),
            x_label: "elem".into(),
            rows: vec![(
                "1 KB".into(),
                Summary::from_samples(&[1.0, 5.0, 3.0]).unwrap(),
            )],
        };
        assert_eq!(fig.max_spread(), 4.0);
        let text = fig.to_string();
        assert!(text.contains("median"));
        assert!(text.contains("5.00"));
    }

    #[test]
    fn csv_round_trips_structure() {
        let csv = sample_figure().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("elem,a,b"));
        assert_eq!(lines.next(), Some("128 B,1.5000,2.0000"));
        assert_eq!(lines.next(), Some("1 KB,3.2500,4.0000"));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn spread_csv_has_summary_columns() {
        let fig = SpreadFigure {
            id: "t3".into(),
            title: "spread".into(),
            x_label: "elem".into(),
            rows: vec![("2 KB".into(), Summary::from_samples(&[2.0, 4.0]).unwrap())],
        };
        let csv = fig.to_csv();
        assert!(csv.starts_with("elem,min,median,mean,max\n"));
        assert!(csv.contains("2 KB,2.0000,3.0000,3.0000,4.0000"));
    }

    #[test]
    fn byte_formatting_matches_paper_axes() {
        assert_eq!(format_bytes(128), "128 B");
        assert_eq!(format_bytes(1024), "1 KB");
        assert_eq!(format_bytes(16384), "16 KB");
        assert_eq!(format_bytes(100), "100 B");
        assert_eq!(format_bytes(32 << 20), "32 MB");
        assert_eq!(format_bytes((1 << 20) + 1024), "1025 KB");
    }

    #[test]
    fn csv_fields_with_delimiters_are_quoted() {
        let mut fig = sample_figure();
        fig.series[0].label = "every 1, eager".into();
        fig.x_label = "elem \"raw\"".into();
        let csv = fig.to_csv();
        assert_eq!(
            csv.lines().next(),
            Some("\"elem \"\"raw\"\"\",\"every 1, eager\",b")
        );
        // Unremarkable fields stay bare.
        assert!(csv.contains("\n128 B,"));
    }

    #[test]
    fn metrics_table_renders_all_three_shapes() {
        use crate::metrics::{FabricMetrics, SpeMetrics};
        let mut summary = MetricsSummary::default();
        summary.accumulate(&FabricMetrics {
            run_cycles: 100,
            per_spe: vec![SpeMetrics {
                busy_cycles: 30,
                idle_cycles: 10,
                stall_mfc_full_cycles: 60,
                occupancy_cycles: vec![40, 10, 50],
                ..SpeMetrics::default()
            }],
            rings: vec![cellsim_eib::RingStats {
                grants: 4,
                bytes: 512,
                busy_cycles: 32,
            }],
            banks: vec![crate::metrics::BankMetrics {
                bank: cellsim_mem::BankId::Local,
                stats: cellsim_mem::BankStats {
                    accesses: 4,
                    bytes: 512,
                    busy_cycles: 32,
                    conflicts: 2,
                    ..cellsim_mem::BankStats::default()
                },
            }],
            ..FabricMetrics::default()
        });
        let table = MetricsTable {
            id: "10".into(),
            summary,
        };

        let text = table.to_string();
        assert!(text.contains("Metrics 10"));
        assert!(text.contains("busy 30.0%"));
        assert!(text.contains("dominant stall: mfc-slots (60 cycles)"));
        assert!(text.contains("runs by dominant stall: slots-full 1 (wire 1)"));
        assert!(text.contains("bank local"));

        // Healthy run: the human view elides the fault line; CSV/JSON
        // still carry the (zero) fault schema.
        assert!(!text.contains("faults"));

        let csv = table.to_csv();
        assert!(csv.starts_with("metric,value\n"));
        assert!(csv.contains("stall_mfc_full_cycles,60\n"));
        assert!(csv.contains("fault_nacks,0\n"));
        assert!(csv.contains("fault_degraded_cycles,0\n"));
        assert!(csv.contains("latency_mem_get_retries,0\n"));
        assert!(csv.contains("runs_limited_by_mfc_slots,1\n"));
        assert!(csv.contains("occupancy_cycles_2,50\n"));
        assert!(csv.contains("ring_0_bytes,512\n"));
        assert!(csv.contains("bank_local_conflicts,2\n"));

        let json = table.to_json();
        assert!(json.starts_with("{\"figure\":\"10\","));
        assert!(json.contains("\"occupancy_cycles\":[40,10,50]"));
        assert!(json.contains("\"dominant_stall\":\"mfc-slots\""));
        assert!(json.contains(
            "\"runs_limited_by\":{\"mfc-slots\":1,\"sync\":0,\"eib\":0,\"mem\":0},\
             \"runs_unstalled\":0"
        ));
        assert!(json.contains("\"bank\":\"local\""));
        assert!(json.contains(
            "\"faults\":{\"nacks\":0,\"retries\":0,\"retries_exhausted\":0,\
             \"abandoned_packets\":0,\"degraded_cycles\":0}"
        ));
        assert!(json.ends_with("}"));
    }

    #[test]
    fn metrics_table_json_parses_back() {
        let table = MetricsTable {
            id: "8".into(),
            summary: MetricsSummary::default(),
        };
        let v = crate::json::parse(&table.to_json()).unwrap();
        assert_eq!(v.get("figure").unwrap().as_str(), Some("8"));
        assert_eq!(
            v.get("latency")
                .unwrap()
                .get("paths")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            4
        );
    }
}
