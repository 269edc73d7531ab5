//! Lane-kernels-vs-per-agent bit-equality matrix. Each protocol runs as
//! its lane state (`World<P>`: struct-of-arrays chunk kernels, packed
//! bit-plane displays, lazily created update RNGs) and as the per-agent
//! reference (`World<PerAgent<P>>`: the same record stepped one agent at
//! a time through the engine's `ScalarState` adapter, with eager RNG
//! streams). Under both channels and every thread count, the packed
//! displays must equal the reference's symbols and every agent record
//! must equal the reference's, round by round — including SSF from an
//! adversarially poisoned start. Populations are sized so n % 64 ≠ 0
//! (ragged final words).

use std::fmt::Debug;

use noisy_pull::adversary::SsfAdversary;
use noisy_pull::params::{SfParams, SsfParams};
use noisy_pull::sf::SourceFilter;
use noisy_pull::sf_alternating::AlternatingSourceFilter;
use noisy_pull::ssf::{SelfStabilizingSourceFilter, SsfAgent};
use np_engine::channel::ChannelKind;
use np_engine::packed::{chunk_len_for, PackedDisplays};
use np_engine::population::PopulationConfig;
use np_engine::protocol::{AgentState, ColumnarProtocol, ColumnarState, Protocol};
use np_engine::streams::{RoundStreams, StreamRng, StreamStage};
use np_engine::world::World;
use np_linalg::noise::NoiseMatrix;

#[path = "../../../tests/support/per_agent.rs"]
mod per_agent;
use per_agent::PerAgent;

const THREAD_MATRIX: [usize; 3] = [1, 2, 7];
const SEED: u64 = 4242;

/// Packs the state's displays through `display_chunk_packed` under each
/// thread count's chunking, unpacks, and demands bit-equality with the
/// reference symbols `want`.
fn assert_packed_matches<S: ColumnarState>(state: &S, want: &[usize], d: usize, context: &str) {
    let n = state.len();
    let streams = RoundStreams::new(SEED, 0);
    for threads in THREAD_MATRIX {
        let mut packed = PackedDisplays::new(n, d);
        for mut chunk in packed.chunks_mut(chunk_len_for(n, threads)) {
            let start = chunk.start();
            let len = chunk.len();
            state.display_chunk_packed(start..start + len, &mut chunk, &streams);
        }
        let mut unpacked = vec![0usize; n];
        packed.unpack_into(&mut unpacked);
        assert_eq!(unpacked, want, "{context}: displays, threads {threads}");
        // The popcount histogram agrees with a naive tally of the same
        // symbols.
        let mut hist = vec![0u64; d];
        packed.histogram_into(&mut hist);
        let mut naive = vec![0u64; d];
        for &s in want {
            naive[s] += 1;
        }
        assert_eq!(hist, naive, "{context}: histogram, threads {threads}");
    }
}

/// Steps lane worlds at every thread count in lockstep with the
/// per-agent reference, under both channels, checking displays and whole
/// agent records every round. `corrupt` is applied to every world before
/// round 1.
fn check_protocol<P, A>(
    proto: P,
    config: PopulationConfig,
    rounds: u64,
    label: &str,
    corrupt: impl Fn(usize, &mut A, &mut StreamRng),
) where
    P: ColumnarProtocol + Clone,
    P::State: ColumnarState<Agent = A>,
    PerAgent<P>: Protocol<Agent = A>,
    A: AgentState + PartialEq + Debug,
{
    let d = proto.alphabet_size();
    let noise = NoiseMatrix::uniform(d, 0.12).unwrap();
    let reference_proto = PerAgent(proto.clone());
    for kind in [ChannelKind::Aggregated, ChannelKind::Exact] {
        let mut reference = World::new(&reference_proto, config, &noise, kind, SEED).unwrap();
        reference.corrupt_agents(&corrupt);
        let mut lanes: Vec<World<P>> = THREAD_MATRIX
            .iter()
            .map(|&threads| {
                let mut w = World::new(&proto, config, &noise, kind, SEED).unwrap();
                w.set_threads(threads);
                w.corrupt_agents(&corrupt);
                w
            })
            .collect();
        for round in 0..=rounds {
            let context = format!("{label} {kind:?} round {round}");
            let streams = RoundStreams::new(SEED, round);
            let records: Vec<A> = reference.iter_agents().collect();
            let want: Vec<usize> = records
                .iter()
                .enumerate()
                .map(|(id, a)| a.display(&mut streams.rng(id, StreamStage::Display)))
                .collect();
            for (world, threads) in lanes.iter_mut().zip(THREAD_MATRIX) {
                assert_packed_matches(world.state(), &want, d, &context);
                assert!(
                    world.iter_agents().eq(records.iter().cloned()),
                    "{context}: records differ at {threads} threads"
                );
                world.step();
            }
            reference.step();
        }
    }
}

#[test]
fn sf_lanes_match_per_agent_reference() {
    let config = PopulationConfig::new(197, 1, 2, 197).unwrap();
    let params = SfParams::derive(&config, 0.12, 1.0).unwrap();
    let rounds = params.total_rounds();
    check_protocol(
        SourceFilter::new(params),
        config,
        rounds,
        "SF",
        |_, _, _| {},
    );
}

#[test]
fn ssf_lanes_match_per_agent_reference() {
    let config = PopulationConfig::new(197, 1, 3, 197).unwrap();
    let params = SsfParams::derive(&config, 0.12, 1.0).unwrap();
    let rounds = 3 * params.update_interval();
    check_protocol(
        SelfStabilizingSourceFilter::new(params),
        config,
        rounds,
        "SSF",
        |_, _: &mut SsfAgent, _| {},
    );
}

/// The adversarial start of the self-stabilization experiments: every
/// memory poisoned to capacity with wrong source-tagged messages. Lanes
/// and reference must flush it identically.
#[test]
fn ssf_lanes_match_per_agent_reference_from_poisoned_memory() {
    let config = PopulationConfig::new(197, 1, 3, 197).unwrap();
    let params = SsfParams::derive(&config, 0.12, 1.0).unwrap();
    let (correct, m) = (config.correct_opinion(), params.m());
    let rounds = 3 * params.update_interval();
    check_protocol(
        SelfStabilizingSourceFilter::new(params),
        config,
        rounds,
        "SSF poisoned",
        |id, agent: &mut SsfAgent, rng| {
            SsfAdversary::PoisonedMemory.corrupt(agent, correct, m, id, rng);
        },
    );
}

#[test]
fn sf_alt_lanes_match_per_agent_reference() {
    let config = PopulationConfig::new(197, 1, 2, 197).unwrap();
    let params = SfParams::derive(&config, 0.12, 1.0).unwrap();
    let rounds = params.total_rounds();
    check_protocol(
        AlternatingSourceFilter::new(params),
        config,
        rounds,
        "SF-ALT",
        |_, _, _| {},
    );
}
