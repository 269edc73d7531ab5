//! Integration: Theorem 5's self-stabilization — every adversarial
//! corruption strategy is flushed, and the consensus persists.

use noisy_pull_repro::prelude::*;
use np_sweep::driver::{settle, StopRule};

fn corrupted_world(
    adversary: SsfAdversary,
    n: usize,
    seed: u64,
) -> (World<SelfStabilizingSourceFilter>, SsfParams) {
    let config = PopulationConfig::new(n, 0, 1, n).unwrap();
    let params = SsfParams::derive(&config, 0.1, 8.0).unwrap();
    let noise = NoiseMatrix::uniform(4, 0.1).unwrap();
    let mut world = World::new(
        &SelfStabilizingSourceFilter::new(params),
        config,
        &noise,
        ChannelKind::Aggregated,
        seed,
    )
    .unwrap();
    let correct = config.correct_opinion();
    let m = params.m();
    world.corrupt_agents(|id, agent, rng| adversary.corrupt(agent, correct, m, id, rng));
    (world, params)
}

/// Runs `world` to round `budget` and returns `true` if it ended in the
/// correct consensus, reached and kept (Definition 2), after holding it
/// for at least one update interval.
fn stabilizes(
    world: &mut World<SelfStabilizingSourceFilter>,
    budget: u64,
    params: &SsfParams,
) -> bool {
    let finish = settle(world, budget, StopRule::FullBudget);
    finish
        .settled
        .is_some_and(|from| finish.round + 1 - from >= params.update_interval())
}

#[test]
fn recovers_from_every_adversary() {
    for adversary in SsfAdversary::ALL {
        let (mut world, params) = corrupted_world(adversary, 256, 0xAD);
        let budget = 8 * params.update_interval();
        assert!(
            stabilizes(&mut world, budget, &params),
            "{adversary}: {}/256 at budget",
            world.correct_count()
        );
    }
}

#[test]
fn poisoned_memory_is_flushed_within_two_updates() {
    // Lemma 36(i)'s mechanism: after the first honest update the fake
    // samples are gone; after the second, weak opinions rest entirely on
    // genuinely sampled messages.
    let (mut world, params) = corrupted_world(SsfAdversary::PoisonedMemory, 256, 0xAE);
    // Immediately after corruption, memories are full of tagged-wrong
    // messages.
    let all_poisoned = world
        .iter_agents()
        .all(|a| a.memory()[noisy_pull::ssf::encode(true, Opinion::Zero)] == params.m());
    assert!(all_poisoned);
    world.run(2 * params.update_interval() + 1);
    // Weak opinions must have recovered a correct majority.
    let weak_correct = world
        .iter_agents()
        .filter(|a| a.weak_opinion() == Opinion::One)
        .count();
    assert!(
        weak_correct > 128,
        "weak majority not recovered: {weak_correct}/256"
    );
}

#[test]
fn consensus_persists_for_many_update_cycles() {
    let (mut world, params) = corrupted_world(SsfAdversary::AllWrong, 256, 0xAF);
    world.run(params.expected_convergence_rounds() + 2);
    assert!(world.is_consensus());
    // Definition 2 requires persistence for poly(n) rounds; we spot-check
    // 10 full update cycles (every opinion is re-derived from scratch ~10
    // times).
    for _ in 0..10 * params.update_interval() {
        world.step();
        assert!(
            world.is_consensus(),
            "lost consensus at round {}",
            world.round()
        );
    }
}

#[test]
fn desynchronized_updates_still_converge() {
    // RandomDesync staggers every agent's update round; convergence must
    // not depend on synchronized update cycles (the whole point of SSF).
    let (mut world, params) = corrupted_world(SsfAdversary::RandomDesync, 256, 0xB0);
    // Verify the desync actually happened: memory sizes differ.
    let sizes: std::collections::HashSet<u64> =
        world.iter_agents().map(|a| a.memory_size()).collect();
    assert!(sizes.len() > 10, "adversary failed to desynchronize");
    let budget = 8 * params.update_interval();
    assert!(
        stabilizes(&mut world, budget, &params),
        "{}/256 at budget",
        world.correct_count()
    );
}

#[test]
fn recovers_from_every_adversary_injected_mid_run() {
    // Theorem 5 again, but with the corruption striking a *settled*
    // system instead of the initial configuration: every strategy must
    // re-converge within a few update intervals of the injection.
    for adversary in SsfAdversary::ALL {
        let (mut world, params) = corrupted_world(SsfAdversary::None, 256, 0xB2);
        let interval = params.update_interval();
        let inject = 4 * interval;
        let correct = world.correct_opinion();
        world
            .set_fault_plan(
                FaultPlan::new().at(inject, adversary.fault_event(1.0, correct, params.m())),
            )
            .unwrap();
        world.record_trace();
        // A fixed budget (not an early-exit runner): the run must pass
        // through the injection round for the fault to fire at all.
        world.run(12 * interval);
        assert!(
            world.is_consensus(),
            "{adversary}: {}/256 at budget",
            world.correct_count()
        );
        let trace = world.take_trace().unwrap();
        let recoveries = recovery_times(trace.rounds());
        assert_eq!(recoveries.len(), 1, "{adversary}: one event, one window");
        assert_eq!(recoveries[0].round, inject);
        let recovery = recoveries[0]
            .recovery_rounds()
            .unwrap_or_else(|| panic!("{adversary}: no recovery in trace window"));
        assert!(
            recovery <= 4 * interval,
            "{adversary}: recovery took {recovery} rounds (> 4 intervals of {interval})"
        );
    }
}

#[test]
fn trend_change_flips_the_target_and_ssf_follows() {
    // The "trend change" scenario: mid-run, the environment inverts every
    // source's preference. SSF must abandon the old consensus and settle
    // on the new trend — self-stabilization against a moving target.
    let (mut world, params) = corrupted_world(SsfAdversary::None, 256, 0xB3);
    let interval = params.update_interval();
    assert!(stabilizes(&mut world, 8 * interval, &params));
    assert_eq!(world.correct_opinion(), Opinion::One);
    let flip_round = world.round() + 1;
    world
        .set_fault_plan(FaultPlan::new().at(flip_round, FaultEvent::FlipSources))
        .unwrap();
    world.step();
    assert_eq!(world.correct_opinion(), Opinion::Zero, "trend flipped");
    assert!(
        stabilizes(&mut world, flip_round + 12 * interval, &params),
        "never adopted the new trend: {}/256 agree",
        world.correct_count()
    );
}

#[test]
fn sf_is_not_self_stabilizing_motivating_ssf() {
    // Contrast test: corrupt SF's *clock* analog by scrambling opinions
    // after its schedule completed — SF never recovers (it is Done), while
    // SSF would. This documents the gap SSF closes.
    let config = PopulationConfig::new(128, 0, 1, 128).unwrap();
    let params = SfParams::derive(&config, 0.1, 1.0).unwrap();
    let noise = NoiseMatrix::uniform(2, 0.1).unwrap();
    let mut world = World::new(
        &SourceFilter::new(params),
        config,
        &noise,
        ChannelKind::Aggregated,
        0xB1,
    )
    .unwrap();
    world.run(params.total_rounds());
    assert!(world.is_consensus());
    // Adversary strikes after convergence.
    world.corrupt_agents(|_, agent, _| agent.force_boost_stage(Opinion::Zero));
    // force_boost_stage restarts boosting from an all-wrong configuration:
    // majority dynamics now amplify the wrong opinion forever.
    world.run(params.total_rounds());
    assert!(
        !world.is_consensus(),
        "SF recovered from adversarial corruption — unexpected"
    );
}
