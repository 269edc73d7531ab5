//! Self-stabilization: SSF recovers from adversarially corrupted initial
//! states (Theorem 5, Definition 2).
//!
//! An adversary poisons every agent's memory with fake "source says 0"
//! messages and sets all opinions to 0; the single genuine source knows
//! the truth is 1. SSF must flush the poison within two update cycles and
//! converge — then *stay* converged.
//!
//! ```text
//! cargo run --release --example self_stabilizing
//! ```

use noisy_pull_repro::prelude::*;
use np_sweep::driver::{settle, StopRule};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 1024;
    let delta = 0.1;
    let config = PopulationConfig::new(n, 0, 1, n)?;
    let params = SsfParams::derive(&config, delta, 16.0)?;
    let noise = NoiseMatrix::uniform(4, delta)?;

    println!(
        "{n} agents, 1 source, δ = {delta}, memory capacity m = {}",
        params.m()
    );
    println!(
        "update interval: every {} rounds\n",
        params.update_interval()
    );

    for adversary in SsfAdversary::ALL {
        let mut world = World::new(
            &SelfStabilizingSourceFilter::new(params),
            config,
            &noise,
            ChannelKind::Aggregated,
            17,
        )?;
        let correct = config.correct_opinion();
        let m = params.m();
        world.corrupt_agents(|id, agent, rng| adversary.corrupt(agent, correct, m, id, rng));

        let before = world.correct_count();
        // Run the whole budget: the settle round is the first from which
        // consensus held to the end (reached *and* kept).
        let finish = settle(
            &mut world,
            10 * params.update_interval(),
            StopRule::FullBudget,
        );
        match finish.settled {
            Some(round) => println!(
                "{adversary:>16}: start {before:>4}/{n} correct → stable consensus from round {round}"
            ),
            None => println!(
                "{adversary:>16}: start {before:>4}/{n} correct → FAILED ({}/{n} at budget)",
                finish.correct
            ),
        }
        assert!(
            finish.converged(),
            "SSF must self-stabilize under {adversary}"
        );

        // Persistence: spot-check another three update cycles.
        for _ in 0..3 * params.update_interval() {
            world.step();
            assert!(world.is_consensus(), "consensus lost under {adversary}");
        }
    }

    println!(
        "\nevery corruption strategy — poisoned memories, fake consensus,\n\
         desynchronized clocks, split-brain — is flushed within a few update\n\
         cycles, and the consensus then persists (Definition 2)."
    );
    Ok(())
}
