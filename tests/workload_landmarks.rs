//! Qualitative landmarks for the application workloads (GUPS random
//! updates, stencil halo exchange, pair-list gather/scatter) and their
//! contracts: the random-access penalty the paper's §5 discussion
//! predicts, determinism across worker counts and the run cache, and
//! composition with seeded fault plans.

use cellsim::exec::SweepExecutor;
use cellsim::experiments::{
    figure8_with, figure_gups_with, figure_pairlist_with, figure_stencil_with, ExperimentConfig,
};
use cellsim::{CellSystem, FaultPlan};

fn cfg() -> ExperimentConfig {
    ExperimentConfig::quick()
}

/// Best streaming GET bandwidth figure 8 reaches at 16 KB elements.
fn streaming_peak(sys: &CellSystem, cfg: &ExperimentConfig) -> f64 {
    let get = &figure8_with(&SweepExecutor::default(), sys, cfg).unwrap()[0];
    ["1 SPE", "2 SPEs", "4 SPEs", "8 SPEs"]
        .iter()
        .map(|s| get.value(s, "16 KB").unwrap())
        .fold(0.0, f64::max)
}

#[test]
fn gups_small_updates_pay_the_random_access_penalty() {
    let sys = CellSystem::blade();
    let c = cfg();
    let exec = SweepExecutor::default();
    let fig = figure_gups_with(&exec, &sys, &c).unwrap();
    let streaming = figure8_with(&exec, &sys, &c).unwrap()[0]
        .value("1 SPE", "16 KB")
        .unwrap();
    // An 8 B random update cycle is an order of magnitude below a
    // single SPE streaming 16 KB blocks — the headline GUPS landmark.
    let tiny = fig.value("1 SPE", "8 B").unwrap();
    assert!(
        tiny < streaming / 8.0,
        "8 B updates ({tiny}) must sit far below streaming ({streaming})"
    );
    for spes in ["1 SPE", "2 SPEs", "4 SPEs", "8 SPEs"] {
        // Fatter update grains recover bandwidth...
        let small = fig.value(spes, "8 B").unwrap();
        let big = fig.value(spes, "128 B").unwrap();
        assert!(big > 4.0 * small, "{spes}: 128 B {big} vs 8 B {small}");
    }
    // ...and independent tables scale with SPE count at fixed grain.
    let one = fig.value("1 SPE", "8 B").unwrap();
    let eight = fig.value("8 SPEs", "8 B").unwrap();
    assert!(
        eight > 6.0 * one,
        "random updates scale across SPEs: {one} -> {eight}"
    );
}

#[test]
fn stencil_approaches_streaming_as_halo_grows() {
    let sys = CellSystem::blade();
    let c = cfg();
    let fig = figure_stencil_with(&SweepExecutor::default(), &sys, &c).unwrap();
    for series in &fig.series {
        let thin = fig.value(&series.label, "1").unwrap();
        let wide = fig.value(&series.label, "8").unwrap();
        // Wider halos amortize the strided face lists; bandwidth must
        // not regress as the halo grows from 1 to 8 cells.
        assert!(
            wide >= thin,
            "{}: halo 8 ({wide}) fell below halo 1 ({thin})",
            series.label
        );
    }
    // The best shape runs close to pure streaming: the interior stream
    // dominates and the face lists cost little.
    let best = fig
        .series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.gbps))
        .fold(0.0, f64::max);
    let peak = streaming_peak(&sys, &c);
    assert!(
        best > 0.7 * peak,
        "best stencil {best} should approach streaming peak {peak}"
    );
}

#[test]
fn pairlist_lands_between_gups_and_streaming() {
    let sys = CellSystem::blade();
    let c = cfg();
    let exec = SweepExecutor::default();
    let pair = figure_pairlist_with(&exec, &sys, &c).unwrap();
    let gups = figure_gups_with(&exec, &sys, &c).unwrap();
    let peak = streaming_peak(&sys, &c);
    for spes in ["1 SPE", "2 SPEs", "4 SPEs", "8 SPEs"] {
        // Gathering 16 B records through DMA lists beats issuing 8 B
        // update cycles element by element...
        let listed = pair.value(spes, "16 B").unwrap();
        let updated = gups.value(spes, "8 B").unwrap();
        assert!(
            listed > updated,
            "{spes}: pairlist {listed} vs gups {updated}"
        );
    }
    // ...but indexed gather/scatter never beats pure streaming.
    for s in &pair.series {
        for p in &s.points {
            assert!(
                p.gbps <= peak * 1.02,
                "{}: pairlist {} exceeds streaming peak {peak}",
                s.label,
                p.gbps
            );
        }
    }
}

#[test]
fn workload_figures_identical_serial_parallel_and_cached() {
    let sys = CellSystem::blade();
    let c = cfg();
    let render = |exec: &SweepExecutor| {
        let g = figure_gups_with(exec, &sys, &c).unwrap();
        let s = figure_stencil_with(exec, &sys, &c).unwrap();
        let p = figure_pairlist_with(exec, &sys, &c).unwrap();
        format!("{g}{}{s}{}{p}{}", g.to_csv(), s.to_csv(), p.to_csv())
    };
    let serial = render(&SweepExecutor::new(1));
    let parallel_exec = SweepExecutor::new(4);
    let parallel = render(&parallel_exec);
    assert_eq!(
        serial, parallel,
        "--jobs 4 must render the workload figures byte-identically to --jobs 1"
    );
    let before = parallel_exec.stats();
    let cached = render(&parallel_exec);
    assert_eq!(serial, cached);
    assert_eq!(
        parallel_exec.stats().misses,
        before.misses,
        "a warm pass must answer all three sweeps from the run cache"
    );
}

#[test]
fn workload_figures_compose_with_fault_plans() {
    let c = cfg();
    let healthy = CellSystem::blade();
    let mut plan = FaultPlan {
        seed: 77,
        ..FaultPlan::default()
    };
    plan.local_bank.nack_ppm = 60_000;
    plan.remote_bank.nack_ppm = 30_000;
    plan.validate().expect("valid plan");
    let faulty = CellSystem::blade().with_faults(plan);

    let render = |exec: &SweepExecutor, sys: &CellSystem| {
        let g = figure_gups_with(exec, sys, &c).unwrap();
        let s = figure_stencil_with(exec, sys, &c).unwrap();
        let p = figure_pairlist_with(exec, sys, &c).unwrap();
        format!("{g}{s}{p}")
    };
    // Faulted sweeps stay job-count invariant...
    let serial = render(&SweepExecutor::new(1), &faulty);
    let parallel = render(&SweepExecutor::new(4), &faulty);
    assert_eq!(serial, parallel, "faulted workloads must be deterministic");
    // ...and bank NACKs cost bandwidth overall. Retry-shifted packet
    // timing can nudge an individual point a hair either way, so each
    // point gets a small tolerance while the aggregate must drop.
    let h = figure_gups_with(&SweepExecutor::default(), &healthy, &c).unwrap();
    let f = figure_gups_with(&SweepExecutor::new(4), &faulty, &c).unwrap();
    let (mut healthy_sum, mut faulty_sum, mut slowed) = (0.0, 0.0, 0);
    for (hs, fs) in h.series.iter().zip(&f.series) {
        for (hp, fp) in hs.points.iter().zip(&fs.points) {
            assert!(
                fp.gbps <= hp.gbps * 1.02,
                "{}: NACKs sped up a run? {} -> {}",
                hs.label,
                hp.gbps,
                fp.gbps
            );
            healthy_sum += hp.gbps;
            faulty_sum += fp.gbps;
            if fp.gbps < hp.gbps * 0.999 {
                slowed += 1;
            }
        }
    }
    assert!(slowed > 0, "a 6% NACK rate must visibly slow some points");
    assert!(
        faulty_sum < healthy_sum,
        "aggregate GUPS bandwidth must drop under NACKs: {healthy_sum} -> {faulty_sum}"
    );
}
