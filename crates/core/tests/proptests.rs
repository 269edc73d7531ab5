//! Property-based tests for the protocol crate: schedule invariants,
//! state-machine bookkeeping under arbitrary observation streams, and the
//! reduction's conservation laws.

use noisy_pull::params::{SfParams, SsfParams};
use noisy_pull::sf::SourceFilter;
use noisy_pull::ssf::{decode, encode, SelfStabilizingSourceFilter};
use noisy_pull::theory;
use np_engine::opinion::Opinion;
use np_engine::population::{PopulationConfig, Role};
use np_engine::protocol::{AgentState, ColumnarProtocol};
use np_engine::streams::StreamRng;
use proptest::prelude::*;
use rand::SeedableRng;

fn config(n: usize, h: usize) -> PopulationConfig {
    PopulationConfig::new(n, 0, 1, h).unwrap()
}

proptest! {
    #[test]
    fn sf_schedule_covers_budgets(
        n in 8usize..10_000,
        h in 1usize..512,
        delta in 0.0f64..0.49,
        c1 in 0.1f64..8.0
    ) {
        let cfg = config(n, h);
        let p = SfParams::derive(&cfg, delta, c1).unwrap();
        // Each listening phase delivers at least m messages.
        prop_assert!(p.phase_len() as u128 * h as u128 >= p.m() as u128);
        // Each short sub-phase delivers at least w messages.
        prop_assert!(p.subphase_len() as u128 * h as u128 >= p.w() as u128);
        // Total is the sum of its parts.
        prop_assert_eq!(
            p.total_rounds(),
            2 * p.phase_len() + p.num_short_subphases() * p.subphase_len() + p.final_subphase_len()
        );
    }

    #[test]
    fn sf_m_is_monotone_in_delta_and_c1(
        n in 64usize..4096,
        h in 1usize..64,
        d1 in 0.0f64..0.4,
        bump in 0.001f64..0.05,
        c1 in 0.5f64..4.0
    ) {
        let cfg = config(n, h);
        let lo = SfParams::derive(&cfg, d1, c1).unwrap();
        let hi = SfParams::derive(&cfg, d1 + bump, c1).unwrap();
        prop_assert!(hi.m() >= lo.m());
        let scaled = SfParams::derive(&cfg, d1, c1 * 2.0).unwrap();
        prop_assert!(scaled.m() >= lo.m());
    }

    #[test]
    fn ssf_m_at_least_c1_n(
        n in 16usize..8192,
        delta in 0.0f64..0.24,
        c1 in 0.5f64..8.0
    ) {
        let cfg = config(n, n);
        let p = SsfParams::derive(&cfg, delta, c1).unwrap();
        prop_assert!(p.m() as f64 >= c1 * n as f64 - 1.0);
        prop_assert!(p.update_interval() >= 1);
    }

    #[test]
    fn ssf_encode_decode_roundtrip(tag in any::<bool>(), bit in any::<bool>()) {
        let value = Opinion::from_bool(bit);
        let (t, v) = decode(encode(tag, value));
        prop_assert_eq!(t, tag);
        prop_assert_eq!(v, value);
    }

    /// Feed an SF agent an arbitrary observation stream and check the
    /// bookkeeping invariants the analysis relies on.
    #[test]
    fn sf_agent_bookkeeping_under_arbitrary_observations(
        obs in prop::collection::vec((0u64..20, 0u64..20), 1..120),
        seed in any::<u64>()
    ) {
        let cfg = config(8, 8);
        let params = SfParams::derive(&cfg, 0.1, 1.0).unwrap().with_m(32).unwrap();
        let proto = SourceFilter::new(params);
        let mut rng = StreamRng::seed_from_u64(seed);
        let mut agent = proto.init_agent(Role::NonSource, &mut rng);
        let phase_len = params.phase_len();
        prop_assert!(agent.weak_opinion().is_none());
        for (i, &(zeros, ones)) in obs.iter().enumerate() {
            let round = i as u64 + 1;
            agent.update(&[zeros, ones], &mut rng);
            // The weak opinion exists exactly once both phases are done.
            prop_assert_eq!(agent.weak_opinion().is_some(), round >= 2 * phase_len);
            if round < phase_len {
                // Still in Phase 0: counter0 untouched.
                prop_assert_eq!(agent.counter0(), 0);
            }
        }
        // Counters only ever count the phase-specific symbol.
        let phase0: u64 = obs.iter().take(phase_len as usize).map(|&(_, o)| o).sum();
        prop_assert_eq!(agent.counter1(), phase0.min(agent.counter1()).max(agent.counter1()));
        if obs.len() as u64 >= phase_len {
            prop_assert_eq!(agent.counter1(), phase0);
        }
    }

    /// SSF memory bookkeeping: size always equals the sum of counts and
    /// never exceeds m + h after an update round.
    #[test]
    fn ssf_agent_memory_never_leaks(
        obs in prop::collection::vec([0u64..10, 0u64..10, 0u64..10, 0u64..10], 1..80),
        m in 8u64..64,
        seed in any::<u64>()
    ) {
        let cfg = config(8, 8);
        let params = SsfParams::derive(&cfg, 0.1, 1.0).unwrap().with_m(m).unwrap();
        let proto = SelfStabilizingSourceFilter::new(params);
        let mut rng = StreamRng::seed_from_u64(seed);
        let mut agent = proto.init_agent(Role::NonSource, &mut rng);
        for o in &obs {
            let before = agent.memory_size();
            let batch: u64 = o.iter().sum();
            agent.update(o, &mut rng);
            let after = agent.memory_size();
            prop_assert_eq!(after, agent.memory().iter().sum::<u64>());
            // Either accumulated, or flushed by an update round.
            prop_assert!(after == before + batch || after == 0);
            if before + batch > m {
                prop_assert_eq!(after, 0, "threshold crossing must flush");
            }
            prop_assert!(after <= m, "memory retained beyond capacity");
        }
    }

    /// Displays always come from the declared alphabet.
    #[test]
    fn displays_stay_in_alphabet(seed in any::<u64>(), source_bit in any::<bool>()) {
        let cfg = config(8, 8);
        let mut rng = StreamRng::seed_from_u64(seed);
        let sf = SourceFilter::new(SfParams::derive(&cfg, 0.2, 1.0).unwrap());
        let role = if source_bit {
            Role::Source(Opinion::One)
        } else {
            Role::NonSource
        };
        let agent = sf.init_agent(role, &mut rng);
        prop_assert!(agent.display(&mut rng) < sf.alphabet_size());

        let ssf = SelfStabilizingSourceFilter::new(SsfParams::derive(&cfg, 0.1, 1.0).unwrap());
        let agent = ssf.init_agent(role, &mut rng);
        prop_assert!(agent.display(&mut rng) < ssf.alphabet_size());
    }

    #[test]
    fn theory_bounds_are_positive_and_monotone_in_n(
        exp in 6u32..16,
        h in 1usize..64,
        delta in 0.01f64..0.24
    ) {
        let n = 1usize << exp;
        let small = theory::sf_upper_bound_rounds(n, h, 0, 1, delta).unwrap();
        let large = theory::sf_upper_bound_rounds(2 * n, h, 0, 1, delta).unwrap();
        prop_assert!(small > 0.0);
        prop_assert!(large > small);
        let lb_small = theory::lower_bound_rounds(n, h, 1, delta, 2).unwrap();
        let lb_large = theory::lower_bound_rounds(2 * n, h, 1, delta, 2).unwrap();
        prop_assert!(lb_large > lb_small);
        // Upper bound dominates lower bound (same constant conventions).
        prop_assert!(small >= lb_small / 10.0);
        let ssf_small = theory::ssf_upper_bound_rounds(n, h, delta).unwrap();
        let ssf_large = theory::ssf_upper_bound_rounds(2 * n, h, delta).unwrap();
        prop_assert!(ssf_large > ssf_small);
    }

    #[test]
    fn f_delta_stays_in_range_for_random_inputs(d in 2usize..10, frac in 0.0f64..0.999) {
        let delta = frac / d as f64;
        let f = theory::f_delta(d, delta).unwrap();
        prop_assert!((0.0..1.0 / d as f64).contains(&f));
        prop_assert!(f >= delta - 1e-12, "uniformization reduced noise");
    }
}
