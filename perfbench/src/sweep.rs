//! The two sweep workloads: `quick-sweep` (every figure of the quick
//! protocol) and `paper-scale` (figure 8 and figure 16 points at the
//! paper's 32 MiB per SPE). Both run as figure requests on one fresh
//! executor: a cold phase that simulates, then a warm phase that asks
//! for the same figures again and is answered from the executor's
//! memory cache.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use cellsim_core::baseline::Baseline;
use cellsim_core::exec::{CacheStats, RunSpec, SweepExecutor};
use cellsim_core::experiments::{self as ex, ExperimentConfig, ExperimentError};
use cellsim_core::json::{self, JsonValue};
use cellsim_core::perf::PerfBaseline;
use cellsim_core::{CellSystem, FabricReport};

use crate::layers;
use crate::ledger::{self, median, secs, Metrics, Tracer};
use crate::{Opts, Outcome, Workload, SETUP_MIN_S, SETUP_REPEATS, WORKERS};

/// The figures that do not simulate the fabric (analytic PPE and SPU
/// models); their time is the `ppe` layer's.
const ANALYTIC: &[&str] = &["3", "4", "6", "4.2.2"];

/// One figure asked of the executor.
pub struct Request {
    pub id: &'static str,
    pub cfg: ExperimentConfig,
}

/// The quick protocol's figures, in `all_figures_with` order.
fn quick_requests(cfg: &ExperimentConfig) -> Vec<Request> {
    [
        "3", "4", "6", "8", "4.2.2", "10", "12", "15", "gups", "stencil", "pairlist", "13", "16",
    ]
    .into_iter()
    .map(|id| Request {
        id,
        cfg: cfg.clone(),
    })
    .collect()
}

/// Figure 8 (GET/PUT/GET+PUT × 1/2/4/8 SPEs) at 128 B and at 16 KiB
/// elements, then figure 16's 8-SPE cycle at 16 KiB, one placement each.
fn paper_requests(volume_per_spe: u64, seed: u64) -> Vec<Request> {
    let cfg = |elem: u32| ExperimentConfig {
        volume_per_spe,
        dma_elem_sizes: vec![elem],
        placements: 1,
        seed,
    };
    vec![
        Request {
            id: "8",
            cfg: cfg(128),
        },
        Request {
            id: "8",
            cfg: cfg(16 << 10),
        },
        Request {
            id: "16",
            cfg: cfg(16 << 10),
        },
    ]
}

/// The quick protocol under `seed` (tiny: a few KiB per SPE, one
/// placement, for the self-test).
pub fn quick_config(seed: u64, tiny: bool) -> ExperimentConfig {
    if tiny {
        ExperimentConfig {
            volume_per_spe: 16 << 10,
            dma_elem_sizes: vec![128, 16 << 10],
            placements: 1,
            seed,
        }
    } else {
        ExperimentConfig {
            seed,
            ..ExperimentConfig::quick()
        }
    }
}

fn requests(opts: &Opts) -> Vec<Request> {
    match opts.workload {
        Workload::PaperScale if opts.tiny => paper_requests(64 << 10, opts.seed),
        Workload::PaperScale => paper_requests(32 << 20, opts.seed),
        _ => quick_requests(&quick_config(opts.seed, opts.tiny)),
    }
}

/// Asks `exec` for one figure through its public entry point.
fn render(exec: &SweepExecutor, system: &CellSystem, r: &Request) -> Result<(), ExperimentError> {
    let cfg = &r.cfg;
    match r.id {
        "3" => drop(ex::figure3(system)),
        "4" => drop(ex::figure4(system)),
        "6" => drop(ex::figure6(system)),
        "4.2.2" => drop(ex::section_4_2_2(system)),
        "8" => drop(ex::figure8_with(exec, system, cfg)?),
        "10" => drop(ex::figure10_with(exec, system, cfg)?),
        "12" => drop(ex::figure12_with(exec, system, cfg)?),
        "13" => drop(ex::figure13_with(exec, system, cfg)?),
        "15" => drop(ex::figure15_with(exec, system, cfg)?),
        "16" => drop(ex::figure16_with(exec, system, cfg)?),
        "gups" => drop(ex::figure_gups_with(exec, system, cfg)?),
        "stencil" => drop(ex::figure_stencil_with(exec, system, cfg)?),
        "pairlist" => drop(ex::figure_pairlist_with(exec, system, cfg)?),
        other => unreachable!("no request names figure {other}"),
    }
    Ok(())
}

fn layer_of(id: &str) -> &'static str {
    if ANALYTIC.contains(&id) {
        "ppe"
    } else {
        "exec"
    }
}

/// The runs behind a list of figure requests.
pub struct Plan {
    /// Specs built, duplicates between figures included.
    pub built: usize,
    /// Distinct specs, in first-seen order.
    pub specs: Vec<RunSpec>,
    /// The first spec of each fabric request.
    pub first: Vec<RunSpec>,
}

/// Builds every request's points, plans and `RunSpec`s: the set-up work
/// of a sweep.
pub fn plan(
    system: &CellSystem,
    reqs: &[(&str, &ExperimentConfig)],
) -> Result<Plan, ExperimentError> {
    let mut out = Plan {
        built: 0,
        specs: Vec::new(),
        first: Vec::new(),
    };
    let mut seen = HashSet::new();
    for &(id, cfg) in reqs {
        let Some(points) = ex::figure_points(cfg, id)? else {
            continue;
        };
        let specs = ex::figure_specs(system, cfg, &points);
        out.built += specs.len();
        out.first.extend(specs.first().cloned());
        for spec in specs {
            if seen.insert(spec.key.clone()) {
                out.specs.push(spec);
            }
        }
    }
    Ok(out)
}

fn plan_requests(system: &CellSystem, reqs: &[Request]) -> Result<Plan, ExperimentError> {
    let pairs: Vec<(&str, &ExperimentConfig)> = reqs.iter().map(|r| (r.id, &r.cfg)).collect();
    plan(system, &pairs)
}

/// One timed pass: the cold phase on a fresh executor, then the warm
/// phase on the same one.
struct Pass {
    exec: SweepExecutor,
    cold: f64,
    warm: f64,
    /// Host ms from the start of the cold phase to each figure's result:
    /// the whole sweep is asked for at once, as `repro` does.
    latencies_ms: Vec<f64>,
    cold_stats: CacheStats,
}

fn run_pass(
    system: &CellSystem,
    reqs: &[Request],
    trace: Option<(&Tracer, u64)>,
) -> Result<Pass, ExperimentError> {
    let exec = SweepExecutor::new(WORKERS);
    let mut latencies_ms = Vec::with_capacity(reqs.len());
    let phase = |name: &str, latencies: Option<&mut Vec<f64>>| {
        let start = Instant::now();
        let mut times = Vec::with_capacity(reqs.len());
        for r in reqs {
            match trace {
                Some((tracer, parent)) => {
                    tracer.span(parent, layer_of(r.id), format!("{name} {}", r.id), |_| {
                        render(&exec, system, r)
                    })?
                }
                None => render(&exec, system, r)?,
            }
            times.push(secs(start) * 1e3);
        }
        if let Some(out) = latencies {
            *out = times;
        }
        Ok::<f64, ExperimentError>(secs(start))
    };
    let cold = phase("cold", Some(&mut latencies_ms))?;
    let cold_stats = exec.stats();
    let warm = phase("warm", None)?;
    Ok(Pass {
        exec,
        cold,
        warm,
        latencies_ms,
        cold_stats,
    })
}

/// The reference files a default-seed run is checked against: the
/// quick sweep's `baseline` and `perf`, or paper-scale's `pinned`.
struct References {
    baseline: Option<Baseline>,
    perf: Option<PerfBaseline>,
    pinned: Option<JsonValue>,
}

/// Reads and parses the reference files `workload` is checked against;
/// an unreadable one is a problem.
fn load_references(opts: &Opts, problems: &mut Vec<String>) -> References {
    fn load<T, E: std::fmt::Display>(
        opts: &Opts,
        file: &str,
        parse: impl Fn(&str) -> Result<T, E>,
        problems: &mut Vec<String>,
    ) -> Option<T> {
        let parsed = std::fs::read_to_string(opts.root.join(file))
            .map_err(|e| e.to_string())
            .and_then(|t| parse(&t).map_err(|e| e.to_string()));
        parsed
            .map_err(|e| problems.push(format!("{file}: {e}")))
            .ok()
    }
    if opts.workload == Workload::PaperScale {
        References {
            baseline: None,
            perf: None,
            pinned: load(opts, "perfbench/pinned.json", json::parse, problems),
        }
    } else {
        References {
            baseline: load(opts, "BENCH_baseline.json", Baseline::from_json, problems),
            perf: load(opts, "BENCH_perf.json", PerfBaseline::from_json, problems),
            pinned: None,
        }
    }
}

/// The pinned paper-scale counters of one request, if the pin file
/// covers its configuration.
fn pinned_counters(pinned: &JsonValue, r: &Request) -> Option<[u64; 3]> {
    let field = |name: &str| pinned.get(name).and_then(JsonValue::as_u64);
    if field("volume_per_spe")? != r.cfg.volume_per_spe
        || field("placements")? != r.cfg.placements as u64
        || field("seed")? != r.cfg.seed
    {
        return None;
    }
    pinned.get("requests")?.as_array()?.iter().find_map(|p| {
        let elem = p.get("elem")?.as_u64()?;
        if p.get("figure")?.as_str()? != r.id
            || Some(&(elem as u32)) != r.cfg.dma_elem_sizes.first()
        {
            return None;
        }
        Some([
            p.get("events")?.as_u64()?,
            p.get("packets")?.as_u64()?,
            p.get("sim_cycles")?.as_u64()?,
        ])
    })
}

/// Checks one pass's figures against whichever reference files cover its
/// configuration. Returns the problems found and whether any reference
/// applied (if none did, the caller checks worker-count identity).
fn check_references(
    workload: Workload,
    refs: &References,
    exec: &SweepExecutor,
    system: &CellSystem,
    reqs: &[Request],
    counters: &mut Vec<String>,
) -> (Vec<String>, bool) {
    let mut problems = Vec::new();
    let mut applied = false;
    let cfg = &reqs[0].cfg;
    if workload == Workload::QuickSweep {
        if let Some(baseline) = refs.baseline.as_ref().filter(|b| &b.experiment == cfg) {
            applied = true;
            match Baseline::collect(exec, system, cfg, 0.0) {
                Ok(current) => problems.extend(
                    baseline
                        .compare(&current, Some(0.0))
                        .iter()
                        .map(|d| format!("BENCH_baseline.json: {d}")),
                ),
                Err(e) => problems.push(format!("baseline collection failed: {e}")),
            }
        }
        if let Some(perf) = refs.perf.as_ref().filter(|p| &p.experiment == cfg) {
            applied = true;
            for fig in &perf.figures {
                match ex::figure_metrics_with(exec, system, cfg, &fig.id) {
                    Ok(Some(s)) => {
                        let got = [s.events, s.packets, s.run_cycles];
                        let want = [fig.events, fig.packets, fig.sim_cycles];
                        if got != want {
                            problems.push(format!(
                                "BENCH_perf.json figure {}: events/packets/sim_cycles {got:?} != {want:?}",
                                fig.id
                            ));
                        }
                    }
                    _ => problems.push(format!("BENCH_perf.json figure {} has no metrics", fig.id)),
                }
            }
        }
        return (problems, applied);
    }
    for r in reqs {
        let got = match ex::figure_metrics_with(exec, system, &r.cfg, r.id) {
            Ok(Some(s)) => [s.events, s.packets, s.run_cycles],
            _ => {
                problems.push(format!("figure {} has no metrics", r.id));
                continue;
            }
        };
        let elem = r.cfg.dma_elem_sizes[0];
        counters.push(format!(
            "counters figure {} @ {elem} B: events={} packets={} sim_cycles={}",
            r.id, got[0], got[1], got[2]
        ));
        if let Some(want) = refs.pinned.as_ref().and_then(|p| pinned_counters(p, r)) {
            applied = true;
            if got != want {
                problems.push(format!(
                    "pinned.json figure {} @ {elem} B: events/packets/sim_cycles {got:?} != {want:?}",
                    r.id
                ));
            }
        }
    }
    (problems, applied)
}

/// With no reference file for this seed: the same runs on one worker
/// must give bit-identical results to the two-worker pass. The quick
/// sweep compares whole baselines; paper-scale re-runs the first run of
/// each figure request.
fn check_worker_identity(
    workload: Workload,
    exec: &SweepExecutor,
    system: &CellSystem,
    reqs: &[Request],
    plan: &Plan,
) -> Vec<String> {
    let cfg = &reqs[0].cfg;
    if workload == Workload::QuickSweep {
        let serial = SweepExecutor::new(1);
        return match (
            Baseline::collect(&serial, system, cfg, 0.0),
            Baseline::collect(exec, system, cfg, 0.0),
        ) {
            (Ok(one), Ok(two)) => one
                .compare(&two, Some(0.0))
                .iter()
                .map(|d| format!("1 vs {WORKERS} workers: {d}"))
                .collect(),
            _ => vec!["baseline collection failed".to_string()],
        };
    }
    let cached = exec.try_run(plan.first.clone());
    plan.first
        .iter()
        .zip(cached)
        .filter(|(spec, two)| {
            let one = spec.system.try_run(&spec.placement, &spec.plan).ok();
            one.as_ref() != two.as_ref().ok().map(|r| &**r)
        })
        .map(|(spec, _)| format!("1 vs {WORKERS} workers differ [{}]", spec.key))
        .collect()
}

/// The pass's distinct runs that succeeded, with their reports from the
/// warm executor.
fn pass_reports(
    exec: &SweepExecutor,
    plan: &Plan,
    problems: &mut Vec<String>,
) -> (Vec<RunSpec>, Vec<Arc<FabricReport>>) {
    let mut ok = (Vec::new(), Vec::new());
    for (spec, result) in plan.specs.iter().zip(exec.try_run(plan.specs.clone())) {
        match result {
            Ok(report) => {
                ok.0.push(spec.clone());
                ok.1.push(report);
            }
            Err(e) => problems.push(e.to_string()),
        }
    }
    ok
}

pub fn run(opts: &Opts) -> Outcome {
    let system = CellSystem::blade();
    let reqs = requests(opts);
    let mut out = Outcome::default();
    let refs = load_references(opts, &mut out.problems);

    // Set-up is timed alone and its plans dropped, so a pass never holds
    // two copies of the (at paper scale, gigabyte) plans.
    let (mut setups, begun) = (Vec::new(), Instant::now());
    while setups.len() < SETUP_REPEATS || secs(begun) < SETUP_MIN_S {
        let start = Instant::now();
        drop(plan_requests(&system, &reqs).expect("the benchmark's configurations are valid"));
        setups.push(secs(start));
    }
    out.metrics.set("setup_s", median(&setups));

    // A pass is checked in two steps: against the reference files, then
    // (with its plan rebuilt outside the timed phases, so no two copies of
    // the gigabyte paper-scale plans coexist) against a 1-worker rerun
    // when no reference applied, which returns the pass's distinct runs.
    let check_refs = |pass: &Pass, out: &mut Outcome| {
        let failures = pass.exec.take_failures();
        out.failed += failures.len() as u64;
        out.problems
            .extend(failures.iter().map(ToString::to_string));
        let mut counters = Vec::new();
        let (problems, applied) = check_references(
            opts.workload,
            &refs,
            &pass.exec,
            &system,
            &reqs,
            &mut counters,
        );
        out.failed += problems.len() as u64;
        out.problems.extend(problems);
        if out.notes.is_empty() {
            out.notes = counters;
        }
        applied
    };
    let mut identity_checked = false;
    let mut check_runs = |pass: &Pass, applied: bool, plan: &Plan, out: &mut Outcome| {
        out.attempted += 2 * plan.built as u64;
        if !applied && !identity_checked {
            identity_checked = true;
            let problems = check_worker_identity(opts.workload, &pass.exec, &system, &reqs, plan);
            out.failed += problems.len() as u64;
            out.problems.extend(problems);
        }
        pass_reports(&pass.exec, plan, &mut out.problems)
    };
    let rebuild =
        || plan_requests(&system, &reqs).expect("the benchmark's configurations are valid");

    if !opts.trace {
        let mut passes = ledger::Passes::default();
        let mut packets = 0;
        let (start, mut last) = (Instant::now(), None);
        while ledger::another_pass(start, last, opts.seconds) {
            let begun = Instant::now();
            let pass =
                run_pass(&system, &reqs, None).expect("the benchmark's configurations are valid");
            let applied = check_refs(&pass, &mut out);
            let (_, reports) = check_runs(&pass, applied, &rebuild(), &mut out);
            packets = reports.iter().map(|r| r.packets).sum();
            // One cold piece per figure request: from the previous
            // figure's result to this one's.
            let mut prev_ms = 0.0;
            passes.cold(
                pass.latencies_ms
                    .iter()
                    .map(|&ms| (ms - std::mem::replace(&mut prev_ms, ms)) / 1e3)
                    .collect(),
            );
            passes.warm(vec![pass.warm]);
            last = Some(secs(begun));
        }
        // A figure's latency is the sum of the best times of the figure
        // requests up to it, as `cold_wall_s` is of all of them. The
        // figures of one pass share its interference, so pooling them
        // over the passes would count one slow stretch thirteen times.
        passes.latencies(passes.cold_envelope_ms());
        let samples = passes.record(packets, &mut out.metrics);
        out.notes.push(format!(
            "{samples} (latency: sweep start to each figure's result, best pieces, cold phase)"
        ));
        return out;
    }

    // Traced run: one untraced pass for the overhead comparison, then the
    // same pass with spans, then the layer drivers.
    let untraced =
        run_pass(&system, &reqs, None).expect("the benchmark's configurations are valid");
    let applied = check_refs(&untraced, &mut out);
    check_runs(&untraced, applied, &rebuild(), &mut out);
    let untraced_wall = untraced.cold + untraced.warm;
    drop(untraced);
    let tracer = Tracer::new();
    let mut m = Metrics::default();
    tracer.span(0, "bench", "traced run", |root| {
        let pass = run_pass(&system, &reqs, Some((&tracer, root)))
            .expect("the benchmark's configurations are valid");
        m.set("trace.overhead_s", pass.cold + pass.warm - untraced_wall);
        m.set("bench.latency_samples", pass.latencies_ms.len() as f64);
        let applied = check_refs(&pass, &mut out);
        let start = Instant::now();
        let plan = tracer.span(root, "plan", "figure_points + figure_specs", |_| rebuild());
        m.set("plan.build_s", secs(start));
        m.set("plan.specs", plan.built as f64);
        let (specs, reports) = check_runs(&pass, applied, &plan, &mut out);
        layers::record_counters(&reports, &mut m);
        let stats = pass.cold_stats;
        m.set("exec.hits", stats.hits as f64);
        m.set("exec.misses", stats.misses as f64);
        m.set("exec.hit_rate", stats.hit_rate());

        let mut problems = Vec::new();
        let direct_s = tracer.span(root, "fabric", "direct runs", |id| {
            layers::time_fabric(&tracer, id, &specs, &reports, &mut m, &mut problems)
        });
        out.attempted += specs.len() as u64;
        out.failed += problems.len() as u64;
        out.problems.extend(problems);
        let spans = tracer.spans();
        let batch = ledger::span_seconds(&spans, "exec", "cold ");
        m.set("exec.batch_s", batch);
        m.set("exec.overhead_s", batch - direct_s / WORKERS as f64);
        m.set(
            "ppe.figures_s",
            ledger::span_seconds(&spans, "ppe", "cold "),
        );
        let shape = layers::Shape::of(&specs, &reports);
        layers::drive_components(&tracer, root, &shape, &mut m);
    });
    crate::finish_trace(&tracer, &mut m, &["diskcache", "tracestore", "serve"]);
    out.metrics = m;
    out.spans = tracer.spans();
    out
}
