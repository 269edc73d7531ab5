//! Golden snapshots: four `World::snapshot` buffers committed as test
//! data, each recorded together with the digest of the run it continues
//! into.
//!
//! * `sf-trace-v1.snap` — SF with a recorded trace (np-snap/v1);
//! * `ssf-sleep-v1.snap` — SSF with a trace, taken while agents of a
//!   sleep fault are still asleep (live sleep horizons);
//! * `sf-ring4-v2.snap` — SF on `ring:4` (np-snap/v2, topology section);
//! * `sf-series-v1.snap` — SF taken while the since-removed opinion
//!   series was recording, so its series flag byte is `true`.
//!
//! Today's code must write the first three byte for byte, and all four
//! must restore and continue to the recorded digest. The fourth pins
//! that old files with a series section still restore after the series
//! recorder was dropped. The files are fixed references, not
//! regenerated outputs: a code change that alters them is a format
//! change and needs its own golden.
//!
//! The first three also seed a property test of `World::restore` as a
//! decoder of outside bytes: every single-byte flip, truncation and
//! extension of them must come back `Ok` or as a typed error, never as a
//! panic.

use std::path::{Path, PathBuf};

use noisy_pull_repro::engine::snapshot::{SnapWriter, SnapshotState};
use noisy_pull_repro::engine::EngineError;
use noisy_pull_repro::prelude::*;
use np_bench::report::trace_jsonl;
use proptest::prelude::*;

fn golden(name: &str) -> Vec<u8> {
    let path: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()))
}

/// The digest recorded for `name` in `snapshot-continuation.digests`.
fn recorded_digest(name: &str) -> String {
    let text = String::from_utf8(golden("snapshot-continuation.digests")).unwrap();
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no digest recorded for {name}"))
        .to_string()
}

/// FNV-1a over the round count, the encoded population state and the
/// trace JSONL (when a trace is recorded): counters, memories and every
/// recorded round, not just the final opinions.
fn continuation_digest<P>(world: &World<P>) -> String
where
    P: ColumnarProtocol,
    P::State: SnapshotState,
{
    let mut w = SnapWriter::new();
    world.state().encode_state(&mut w);
    let trace = world.trace().map(|t| trace_jsonl(t.rounds()));
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let bytes = world.round().to_le_bytes();
    let state = w.into_bytes();
    let trace = trace.unwrap_or_default();
    for &byte in bytes.iter().chain(&state).chain(trace.as_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:#018x}")
}

fn sf() -> (SourceFilter, PopulationConfig, NoiseMatrix, SfParams) {
    let config = PopulationConfig::new(64, 0, 1, 64).unwrap();
    let params = SfParams::derive(&config, 0.2, 1.0).unwrap();
    let noise = NoiseMatrix::uniform(2, 0.2).unwrap();
    (SourceFilter::new(params), config, noise, params)
}

fn ssf() -> (
    SelfStabilizingSourceFilter,
    PopulationConfig,
    NoiseMatrix,
    SsfParams,
) {
    let config = PopulationConfig::new(64, 0, 1, 64).unwrap();
    let params = SsfParams::derive(&config, 0.1, 4.0).unwrap();
    let noise = NoiseMatrix::uniform(4, 0.1).unwrap();
    (
        SelfStabilizingSourceFilter::new(params),
        config,
        noise,
        params,
    )
}

/// SF with a trace, snapshot after 10 rounds.
fn sf_trace_world() -> World<SourceFilter> {
    let (protocol, config, noise, _) = sf();
    let mut world = World::new(&protocol, config, &noise, ChannelKind::Aggregated, 7).unwrap();
    world.record_trace();
    world.run(10);
    world
}

/// SSF with a trace; a sleep fault at round 3 puts agents to sleep for
/// 6 rounds, and the snapshot at round 5 catches them mid-nap.
fn ssf_sleep_world() -> World<SelfStabilizingSourceFilter> {
    let (protocol, config, noise, _) = ssf();
    let mut world = World::new(&protocol, config, &noise, ChannelKind::Aggregated, 11).unwrap();
    world.record_trace();
    world
        .set_fault_plan(FaultPlan::new().at(
            3,
            FaultEvent::Sleep {
                frac: 0.3,
                rounds: 6,
            },
        ))
        .unwrap();
    world.run(5);
    world
}

/// SF on a ring with k = 4 (degree 8), snapshot after 10 rounds.
fn sf_ring_world() -> World<SourceFilter> {
    let (protocol, config, noise, _) = sf();
    let mut world = World::new(&protocol, config, &noise, ChannelKind::Aggregated, 13).unwrap();
    world.set_topology(TopologySpec::Ring { k: 4 }).unwrap();
    world.run(10);
    world
}

#[test]
fn today_writes_the_golden_snapshot_bytes() {
    assert!(sf_trace_world().snapshot() == golden("sf-trace-v1.snap"));
    assert!(ssf_sleep_world().snapshot() == golden("ssf-sleep-v1.snap"));
    assert!(sf_ring_world().snapshot() == golden("sf-ring4-v2.snap"));
}

#[test]
fn sf_golden_snapshots_restore_and_continue_to_their_digests() {
    let (protocol, _, _, params) = sf();
    for name in ["sf-trace-v1.snap", "sf-ring4-v2.snap", "sf-series-v1.snap"] {
        let mut world = World::restore(&protocol, &golden(name)).unwrap();
        assert_eq!(world.round(), 10, "{name}");
        world.run(params.total_rounds() - 10);
        assert_eq!(continuation_digest(&world), recorded_digest(name), "{name}");
    }
}

#[test]
fn ssf_golden_snapshot_restores_and_continues_to_its_digest() {
    let (protocol, _, _, params) = ssf();
    let mut world = World::restore(&protocol, &golden("ssf-sleep-v1.snap")).unwrap();
    assert_eq!(world.round(), 5);
    assert!(!world.has_fault_plan(), "the only event has fired");
    world.run(2 * params.update_interval() - 5);
    assert_eq!(
        continuation_digest(&world),
        recorded_digest("ssf-sleep-v1.snap")
    );
}

/// Restores `bytes` into a world of the golden's protocol.
fn restore_golden(name: &str, bytes: &[u8]) -> Result<(), EngineError> {
    if name.starts_with("ssf") {
        World::restore(&ssf().0, bytes).map(drop)
    } else {
        World::restore(&sf().0, bytes).map(drop)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn restore_never_panics_on_mutated_snapshots(
        which in 0usize..3,
        mutation in 0u32..3,
        at in any::<u64>(),
        mask in 1u32..256,
        tail in prop::collection::vec(any::<u8>(), 1..24),
    ) {
        let name = ["sf-trace-v1.snap", "ssf-sleep-v1.snap", "sf-ring4-v2.snap"][which];
        let mut bytes = golden(name);
        prop_assert!(restore_golden(name, &bytes).is_ok(), "{name} restores unmutated");
        let at = (at % bytes.len() as u64) as usize;
        match mutation {
            0 => bytes[at] ^= mask as u8,
            1 => bytes.truncate(at),
            _ => bytes.extend_from_slice(&tail),
        }
        // Any `EngineError` is a typed answer; only a panic fails here.
        let restored = restore_golden(name, &bytes);
        prop_assert!(
            mutation == 0 || restored.is_err(),
            "{name}: a resized buffer restored"
        );
    }
}
