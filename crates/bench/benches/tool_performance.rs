//! Criterion benchmarks of the simulators and the OPE encoders: the parts
//! of the tool nothing else times. Exploration, translation and the
//! cycle-ratio solver are measured layer by layer by `perfbench --trace 1`
//! and the `state_space_scaling` sweep.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dfs_core::pipelines::{build_pipeline, PipelineSpec};
use dfs_core::timed::{measure_throughput, ChoicePolicy};

fn bench_timed_sim(c: &mut Criterion) {
    let p = build_pipeline(&PipelineSpec::reconfigurable_depth(6, 6).unwrap()).unwrap();
    c.bench_function("timed_sim_6stage_100tokens", |b| {
        b.iter(|| measure_throughput(&p.dfs, p.output, 5, 100, ChoicePolicy::AlwaysTrue).unwrap())
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

criterion_group!(benches, bench_timed_sim, bench_ope_encoders, bench_gate_sim);
criterion_main!(benches);
