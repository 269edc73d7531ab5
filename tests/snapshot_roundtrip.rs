//! Property tests for `np-snap/v1`: snapshot → restore → snapshot must
//! reproduce the exact bytes, for arbitrary populations and seeds, at
//! any point in a run — including a snapshot taken mid fault plan, with
//! some events already applied and others still pending.

use noisy_pull_repro::prelude::*;
use proptest::prelude::*;

proptest! {
    // Each case builds and runs a world; keep the counts modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sf_snapshot_bytes_roundtrip(
        n in 8usize..96,
        s1 in 1usize..3,
        delta in 0.0f64..0.3,
        seed in any::<u64>(),
        ran in 0u64..12,
    ) {
        let config = PopulationConfig::new(n, 0, s1, n).unwrap();
        let params = SfParams::derive(&config, delta, 1.0).unwrap();
        let noise = NoiseMatrix::uniform(2, delta).unwrap();
        let protocol = SourceFilter::new(params);
        let mut world =
            World::new(&protocol, config, &noise, ChannelKind::Aggregated, seed).unwrap();
        world.record_trace();
        world.run(ran);
        let bytes = world.snapshot();
        let restored = World::restore(&protocol, &bytes).unwrap();
        prop_assert_eq!(restored.round(), ran);
        prop_assert_eq!(restored.snapshot(), bytes);
    }

    #[test]
    fn ssf_snapshot_bytes_roundtrip(
        seed in any::<u64>(),
        ran in 0u64..20,
    ) {
        let config = PopulationConfig::new(32, 0, 1, 32).unwrap();
        let params = SsfParams::derive(&config, 0.1, 8.0).unwrap();
        let noise = NoiseMatrix::uniform(4, 0.1).unwrap();
        let protocol = SelfStabilizingSourceFilter::new(params);
        let mut world =
            World::new(&protocol, config, &noise, ChannelKind::Aggregated, seed).unwrap();
        world.run(ran);
        let bytes = world.snapshot();
        let restored = World::restore(&protocol, &bytes).unwrap();
        prop_assert_eq!(restored.round(), ran);
        prop_assert_eq!(restored.snapshot(), bytes);
    }

    #[test]
    fn snapshot_mid_fault_plan_roundtrips_with_pending_events(
        seed in any::<u64>(),
        delta in 0.05f64..0.25,
    ) {
        let config = PopulationConfig::new(48, 0, 1, 48).unwrap();
        let params = SfParams::derive(&config, delta, 1.0).unwrap();
        let noise = NoiseMatrix::uniform(2, delta).unwrap();
        let protocol = SourceFilter::new(params);
        let mut world =
            World::new(&protocol, config, &noise, ChannelKind::Aggregated, seed).unwrap();
        let plan = || {
            FaultPlan::new()
                .at(2, FaultEvent::FlipSources)
                .at(100, FaultEvent::Sleep { frac: 0.5, rounds: 3 })
        };
        world.set_fault_plan(plan()).unwrap();
        // Round 5: the flip has fired, the sleep is still pending — the
        // snapshot must carry the fault cursor, not the plan itself.
        world.run(5);
        let bytes = world.snapshot();
        let mut restored = World::restore(&protocol, &bytes).unwrap();
        prop_assert_eq!(restored.round(), 5);
        prop_assert_eq!(restored.snapshot(), bytes);
        // Re-attaching the same plan validates against the saved cursor
        // (the already-applied round-2 event must not be rejected as
        // being in the past) and the run continues.
        restored.reattach_fault_plan(plan()).unwrap();
        restored.run(3);
        prop_assert_eq!(restored.round(), 8);
    }
}

/// Snapshots written while SF and SSF still ran on per-agent records
/// carry the `sf-agent/v1` / `ssf-agent/v1` state codecs. Restoring one
/// into today's lane states is a typed tag mismatch, never a panic. The
/// two files are `run sf|ssf --n 16 --seed 7 --checkpoint` outputs from
/// that format.
#[test]
fn per_agent_format_snapshots_fail_with_a_tag_mismatch() {
    let golden = |name: &str| {
        std::fs::read(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("tests/golden")
                .join(name),
        )
        .unwrap()
    };
    let config = PopulationConfig::new(16, 0, 1, 16).unwrap();
    let expect_mismatch = |err: np_engine::EngineError, old: &str, new: &str| match err {
        np_engine::EngineError::BadSnapshot { detail } => {
            assert!(detail.contains("state tag mismatch"), "{detail}");
            assert!(detail.contains(old) && detail.contains(new), "{detail}");
        }
        other => panic!("expected a tag mismatch, got {other:?}"),
    };

    let sf = SourceFilter::new(SfParams::derive(&config, 0.2, 1.0).unwrap());
    let err = World::restore(&sf, &golden("sf-agent-v1.snap")).unwrap_err();
    expect_mismatch(err, "sf-agent/v1", "sf-columns/v1");

    let ssf = SelfStabilizingSourceFilter::new(SsfParams::derive(&config, 0.2, 1.0).unwrap());
    let err = World::restore(&ssf, &golden("ssf-agent-v1.snap")).unwrap_err();
    expect_mismatch(err, "ssf-agent/v1", "ssf-columns/v1");
}
