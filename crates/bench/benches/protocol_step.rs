//! Criterion bench: full world rounds for SF, SSF and the baselines —
//! the end-to-end cost the experiment sweeps pay per simulated round.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use noisy_pull::params::{SfParams, SsfParams};
use noisy_pull::sf::SourceFilter;
use noisy_pull::ssf::SelfStabilizingSourceFilter;
use np_baselines::majority::HMajority;
use np_baselines::voter::ZealotVoter;
use np_engine::channel::ChannelKind;
use np_engine::population::PopulationConfig;
use np_engine::protocol::ColumnarProtocol;
use np_engine::world::World;
use np_linalg::noise::NoiseMatrix;

fn bench_world_step<P: ColumnarProtocol>(
    c: &mut Criterion,
    label: &str,
    proto: &P,
    config: PopulationConfig,
    delta: f64,
) {
    let noise = NoiseMatrix::uniform(proto.alphabet_size(), delta).unwrap();
    let mut group = c.benchmark_group("world_step");
    group.throughput(Throughput::Elements(config.n() as u64));
    group.bench_with_input(BenchmarkId::new(label, config.n()), &(), |b, _| {
        let mut world = World::new(proto, config, &noise, ChannelKind::Aggregated, 7).unwrap();
        b.iter(|| {
            world.step();
            world.round()
        })
    });
    group.finish();
}

fn bench_protocols(c: &mut Criterion) {
    for &n in &[1024usize, 4096] {
        let config = PopulationConfig::new(n, 0, 1, n).unwrap();
        let sf_params = SfParams::derive(&config, 0.2, 1.0).unwrap();
        bench_world_step(c, "sf", &SourceFilter::new(sf_params), config, 0.2);
        let ssf_params = SsfParams::derive(&config, 0.1, 4.0).unwrap();
        bench_world_step(
            c,
            "ssf",
            &SelfStabilizingSourceFilter::new(ssf_params),
            config,
            0.1,
        );
        bench_world_step(c, "voter", &ZealotVoter, config, 0.2);
        bench_world_step(c, "majority", &HMajority, config, 0.2);
    }
}

/// One `World::step` at 1 vs 4 worker threads over the lane kernels —
/// the speedup the per-agent-stream refactor buys on large populations.
/// Trajectories are identical at every thread count, so the two variants
/// measure the same work, only scheduled differently.
fn bench_serial_vs_chunked<P: ColumnarProtocol>(
    c: &mut Criterion,
    label: &str,
    proto: &P,
    config: PopulationConfig,
    delta: f64,
) {
    let noise = NoiseMatrix::uniform(proto.alphabet_size(), delta).unwrap();
    let mut group = c.benchmark_group("world_step_threads");
    group.throughput(Throughput::Elements(config.n() as u64));
    for &threads in &[1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new(format!("{label}_t{threads}"), config.n()),
            &(),
            |b, _| {
                let mut world =
                    World::new(proto, config, &noise, ChannelKind::Aggregated, 7).unwrap();
                world.set_threads(threads);
                b.iter(|| {
                    world.step();
                    world.round()
                })
            },
        );
    }
    group.finish();
}

fn bench_chunked_scaling(c: &mut Criterion) {
    for &n in &[10_000usize, 100_000] {
        let config = PopulationConfig::new(n, 0, 1, n).unwrap();
        let sf_params = SfParams::derive(&config, 0.2, 1.0).unwrap();
        bench_serial_vs_chunked(c, "sf", &SourceFilter::new(sf_params), config, 0.2);
        let ssf_params = SsfParams::derive(&config, 0.1, 4.0).unwrap();
        bench_serial_vs_chunked(
            c,
            "ssf",
            &SelfStabilizingSourceFilter::new(ssf_params),
            config,
            0.1,
        );
    }
}

fn bench_push_world(c: &mut Criterion) {
    use np_baselines::push_spreading::{PushSpreading, PushSpreadingParams};
    use np_engine::push::PushWorld;
    let mut group = c.benchmark_group("push_world_step");
    for &n in &[1024usize, 4096] {
        let params = PushSpreadingParams::derive(n, 1, 0.1);
        let config = PopulationConfig::new(n, 0, 1, 1).unwrap();
        let noise = NoiseMatrix::uniform(2, 0.1).unwrap();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("push_spreading", n), &(), |b, _| {
            let mut world =
                PushWorld::new(&PushSpreading::new(params), config, &noise, 11).unwrap();
            b.iter(|| {
                world.step();
                world.round()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_protocols,
    bench_chunked_scaling,
    bench_push_world
);
criterion_main!(benches);
