//! End-to-end pipeline benchmarks: each bdrmapIT phase in isolation and the
//! whole algorithm at two scales — the "efficient for Internet-scale graph
//! processing" claim made measurable.

use as_rel::CustomerCones;
use bdrmapit_core::{AnnotationState, Bdrmapit, Config, IrGraph};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eval::Scenario;
use topo_gen::GeneratorConfig;

fn bench_phases(c: &mut Criterion) {
    let fx = bench::Fixture::standard();
    let s = &fx.scenario;
    let cones = CustomerCones::compute(&s.rels);
    let cfg = Config::default();

    let mut g = c.benchmark_group("phases");
    g.bench_function("phase1_construct_graph", |b| {
        b.iter(|| {
            IrGraph::build(
                &fx.bundle.traces,
                &fx.bundle.aliases,
                &s.ip2as,
                &cfg,
                &s.rels,
                &cones,
            )
        });
    });

    let graph = IrGraph::build(
        &fx.bundle.traces,
        &fx.bundle.aliases,
        &s.ip2as,
        &cfg,
        &s.rels,
        &cones,
    );
    g.bench_function("phase2_last_hops", |b| {
        b.iter(|| {
            let mut state = AnnotationState::new(&graph);
            bdrmapit_core::lasthop::annotate_last_hops(&graph, &s.rels, &cones, &mut state);
            state
        });
    });
    g.bench_function("phase3_refinement", |b| {
        b.iter(|| {
            let mut state = AnnotationState::new(&graph);
            bdrmapit_core::lasthop::annotate_last_hops(&graph, &s.rels, &cones, &mut state);
            bdrmapit_core::refine::refine(&graph, &s.rels, &cones, &cfg, &mut state);
            state
        });
    });
    g.finish();
}

/// Serial vs. parallel refinement on one prebuilt graph: the state after
/// phase 2 is cloned into every timing iteration, so the numbers isolate
/// `refine` itself. The 4-thread point is the acceptance gauge for the
/// sharded engine (≥1.5× over serial on a 4-core runner); results are
/// bit-identical across the sweep, so this measures pure scheduling.
fn bench_refine_threads(c: &mut Criterion) {
    let fx = bench::Fixture::standard();
    let s = &fx.scenario;
    let cones = CustomerCones::compute(&s.rels);
    let base = Config::default();
    let graph = IrGraph::build(
        &fx.bundle.traces,
        &fx.bundle.aliases,
        &s.ip2as,
        &base,
        &s.rels,
        &cones,
    );
    let mut annotated = AnnotationState::new(&graph);
    bdrmapit_core::lasthop::annotate_last_hops(&graph, &s.rels, &cones, &mut annotated);

    let mut g = c.benchmark_group("phase3_refine");
    for threads in [1usize, 2, 4] {
        let cfg = Config {
            threads,
            ..Config::default()
        };
        g.bench_with_input(BenchmarkId::new("threads", threads), &cfg, |b, cfg| {
            b.iter(|| {
                let mut state = annotated.clone();
                bdrmapit_core::refine::refine(&graph, &s.rels, &cones, cfg, &mut state);
                state
            });
        });
    }
    g.finish();
}

/// Front-end thread sweep: the sharded probe campaign and the interned
/// phase-1 graph build at 1/2/4 workers. Output is bit-identical across the
/// sweep (enforced by `tests/front_end_determinism.rs`), so — as with the
/// refinement sweep above — this measures pure scheduling.
fn bench_front_end_threads(c: &mut Criterion) {
    let fx = bench::Fixture::standard();
    let s = &fx.scenario;
    let cones = CustomerCones::compute(&s.rels);
    let probe_cfg = traceroute::sim::ProbeConfig::default();

    let mut g = c.benchmark_group("front_end");
    for threads in [1usize, 2, 4] {
        g.bench_with_input(
            BenchmarkId::new("campaign_threads", threads),
            &threads,
            |b, &t| {
                b.iter(|| {
                    traceroute::sim::probe_campaign_sharded(&s.net, &fx.bundle.vps, &probe_cfg, t)
                });
            },
        );
        let cfg = Config {
            threads,
            ..Config::default()
        };
        g.bench_with_input(
            BenchmarkId::new("graph_threads", threads),
            &cfg,
            |b, cfg| {
                b.iter(|| {
                    IrGraph::build(
                        &fx.bundle.traces,
                        &fx.bundle.aliases,
                        &s.ip2as,
                        cfg,
                        &s.rels,
                        &cones,
                    )
                });
            },
        );
    }
    g.finish();
}

/// The phase-1 graph build alone on the itdk topology's 20-VP corpus (the
/// VPs `forwarding_itdk` samples), at 1 and 2 workers on a pool that lives
/// across iterations, as the pipeline's does.
fn bench_graph_itdk(c: &mut Criterion) {
    let s = Scenario::build(GeneratorConfig::itdk_scale(2018));
    let vps = traceroute::sim::select_vps(&s.net, 20, &[], 2018);
    let bundle = s.campaign_from(&vps, 2018);
    let cones = CustomerCones::compute(&s.rels);
    let rec = obs::Recorder::disabled();

    let mut g = c.benchmark_group("graph_itdk");
    g.sample_size(10);
    for threads in [1usize, 2] {
        let cfg = Config {
            threads,
            ..Config::default()
        };
        let wp = pool::WorkerPool::new(threads);
        g.bench_with_input(BenchmarkId::new("build", threads), &cfg, |b, cfg| {
            b.iter(|| {
                IrGraph::build_in_pool(
                    &bundle.traces,
                    &bundle.aliases,
                    &s.ip2as,
                    cfg,
                    &s.rels,
                    &cones,
                    &wp,
                    &rec,
                )
            });
        });
    }
    g.finish();
}

fn bench_full_algorithm(c: &mut Criterion) {
    let mut g = c.benchmark_group("bdrmapit_end_to_end");
    g.sample_size(10);
    for (label, cfg, vps) in [
        ("tiny", GeneratorConfig::tiny(2018), 8),
        (
            "default",
            GeneratorConfig {
                seed: 2018,
                ..GeneratorConfig::default()
            },
            12,
        ),
    ] {
        let fx = bench::Fixture::at(cfg, vps);
        let runner = Bdrmapit::new(Config::default());
        g.bench_with_input(BenchmarkId::from_parameter(label), &fx, |b, fx| {
            b.iter(|| {
                runner.run(
                    &fx.bundle.traces,
                    &fx.bundle.aliases,
                    &fx.scenario.ip2as,
                    &fx.scenario.rels,
                )
            });
        });
    }
    g.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let fx = bench::Fixture::standard();
    let mut g = c.benchmark_group("baselines");
    g.bench_function("mapit", |b| {
        b.iter(|| {
            let mut m = mapit::Mapit::build(&fx.bundle.traces, &fx.scenario.ip2as);
            m.run(&mapit::MapitConfig::default());
            m.links()
        });
    });
    let target = fx.scenario.validation.large_access;
    let single = fx.scenario.single_vp_campaign(target, 3);
    g.bench_function("bdrmap_single_vp", |b| {
        b.iter(|| {
            bdrmap::run(
                &single.traces,
                &single.aliases,
                &fx.scenario.ip2as,
                &fx.scenario.rels,
                Some(target),
            )
        });
    });
    g.finish();
}

criterion_group! {
    name = pipeline;
    config = Criterion::default().sample_size(20);
    targets = bench_phases, bench_refine_threads, bench_front_end_threads, bench_graph_itdk,
              bench_full_algorithm, bench_baselines
}
criterion_main!(pipeline);
