//! Criterion benchmarks of the tool itself — the "computationally
//! intensive formal verification" (§II-D) and the simulators. One group
//! per experiment family.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dfs_core::perf::{howard::howard_mcr, mcr::maximum_cycle_ratio, EventGraph};
use dfs_core::pipelines::{build_pipeline, PipelineSpec};
use dfs_core::timed::{measure_throughput, ChoicePolicy};
use dfs_core::{to_petri, Lts};
use rap_petri::reachability::{explore, explore_naive_truncated, ExploreConfig};

fn bench_reachability(c: &mut Criterion) {
    let p = build_pipeline(&PipelineSpec::reconfigurable_depth(2, 2).unwrap()).unwrap();
    let img = to_petri(&p.dfs);
    c.bench_function("pn_reachability_reconfig_2stage", |b| {
        b.iter(|| explore(&img.net, ExploreConfig::default()).unwrap().len())
    });
    c.bench_function("direct_lts_reconfig_2stage", |b| {
        b.iter(|| Lts::explore(&p.dfs, 10_000_000).unwrap().len())
    });
}

/// Old-vs-new exploration on the same shape: the naive (seed) explorers
/// against the incremental engine the production paths now use. The wider
/// sweep (and the recorded JSON) lives in the `state_space_scaling` binary.
fn bench_state_space_engine(c: &mut Criterion) {
    let p = build_pipeline(&PipelineSpec::reconfigurable_depth(2, 2).unwrap()).unwrap();
    let img = to_petri(&p.dfs);
    c.bench_function("pn_explore_naive_reconfig_2stage", |b| {
        b.iter(|| explore_naive_truncated(&img.net, ExploreConfig::default()).len())
    });
    c.bench_function("pn_explore_engine_reconfig_2stage", |b| {
        b.iter(|| explore(&img.net, ExploreConfig::default()).unwrap().len())
    });
    c.bench_function("lts_explore_naive_reconfig_2stage", |b| {
        b.iter(|| Lts::explore_naive_truncated(&p.dfs, 10_000_000).len())
    });
    c.bench_function("lts_explore_engine_reconfig_2stage", |b| {
        b.iter(|| Lts::explore(&p.dfs, 10_000_000).unwrap().len())
    });
}

fn bench_translation(c: &mut Criterion) {
    let p = build_pipeline(&PipelineSpec::reconfigurable_depth(18, 9).unwrap()).unwrap();
    c.bench_function("to_petri_ope18", |b| {
        b.iter(|| to_petri(&p.dfs).net.transition_count())
    });
}

fn bench_timed_sim(c: &mut Criterion) {
    let p = build_pipeline(&PipelineSpec::reconfigurable_depth(6, 6).unwrap()).unwrap();
    c.bench_function("timed_sim_6stage_100tokens", |b| {
        b.iter(|| measure_throughput(&p.dfs, p.output, 5, 100, ChoicePolicy::AlwaysTrue).unwrap())
    });
}

fn bench_mcr(c: &mut Criterion) {
    let p = build_pipeline(&PipelineSpec::fully_static(18)).unwrap();
    let g = EventGraph::build(&p.dfs);
    c.bench_function("mcr_binary_search_ope18", |b| {
        b.iter(|| maximum_cycle_ratio(&g).unwrap().ratio)
    });
    c.bench_function("mcr_howard_ope18", |b| {
        b.iter(|| howard_mcr(&g).unwrap().ratio)
    });
}

fn bench_ope_encoders(c: &mut Criterion) {
    let stream: Vec<u16> = rap_ope::Lfsr::new(77).items(10_000);
    c.bench_function("ope_reference_10k_n18", |b| {
        b.iter_batched(
            || rap_ope::reference::ReferenceEncoder::new(18),
            |mut enc| stream.iter().filter_map(|&x| enc.push(x)).count(),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("ope_incremental_10k_n18", |b| {
        b.iter_batched(
            || rap_ope::incremental::IncrementalOpe::new(18),
            |mut enc| stream.iter().filter_map(|&x| enc.push(x)).count(),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("ope_pipelined_10k_n18", |b| {
        b.iter_batched(
            || rap_ope::PipelinedOpe::new(18),
            |mut enc| enc.encode_stream(&stream).len(),
            BatchSize::SmallInput,
        )
    });
}

fn bench_gate_sim(c: &mut Criterion) {
    use dfs_core::DfsBuilder;
    use rap_silicon::map::{map_dfs, MapConfig};
    use rap_silicon::sim::{SimConfig, Simulator};
    let mut b = DfsBuilder::new();
    let r0 = b.register("r0").marked().build();
    let r1 = b.register("r1").build();
    let r2 = b.register("r2").build();
    b.connect(r0, r1);
    b.connect(r1, r2);
    b.connect(r2, r0);
    let dfs = b.finish().unwrap();
    let mapped = map_dfs(&dfs, &MapConfig::with_width(8)).unwrap();
    c.bench_function("gate_sim_ncl_ring_10k_events", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(&mapped.netlist, SimConfig::default());
            sim.run_until_quiet(10_000);
            sim.event_count()
        })
    });
}

criterion_group!(
    benches,
    bench_reachability,
    bench_state_space_engine,
    bench_translation,
    bench_timed_sim,
    bench_mcr,
    bench_ope_encoders,
    bench_gate_sim
);
criterion_main!(benches);
