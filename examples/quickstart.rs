//! Quickstart: spread one bit from a single source to the whole
//! population under heavy observation noise, in logarithmic time.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use noisy_pull_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 1024; // population size
    let delta = 0.2; // every observation is wrong with probability 20%
    let seed = 42;

    // One source knows the correct bit (1); everyone samples the whole
    // population each round (h = n) — the "sense the average tendency"
    // regime of the paper.
    let config = PopulationConfig::new(n, 0, 1, n)?;
    let params = SfParams::derive(&config, delta, 1.0)?;
    let noise = NoiseMatrix::uniform(2, delta)?;

    println!("population           : {n} agents, 1 source, h = n");
    println!("noise                : δ = {delta} (uniform binary)");
    println!("message budget m     : {}", params.m());
    println!(
        "schedule             : {} rounds total",
        params.total_rounds()
    );
    println!(
        "  = 2 listening phases of {} + {} boosting sub-phases of {} + final {}",
        params.phase_len(),
        params.num_short_subphases(),
        params.subphase_len(),
        params.final_subphase_len()
    );

    let mut world = World::new(
        &SourceFilter::new(params),
        config,
        &noise,
        ChannelKind::Aggregated,
        seed,
    )?;

    // Run phase by phase, narrating progress.
    world.run(2 * params.phase_len());
    let weak_correct = world
        .iter_agents()
        .filter(|a| a.weak_opinion() == Some(Opinion::One))
        .count();
    println!(
        "\nafter listening      : {weak_correct}/{n} weak opinions correct \
         ({:.1}% — a slim but real edge)",
        100.0 * weak_correct as f64 / n as f64
    );

    let remaining = params.total_rounds() - world.round();
    world.run(remaining);
    println!(
        "after boosting       : {}/{n} opinions correct",
        world.correct_count()
    );

    assert!(world.is_consensus(), "SF should reach consensus");
    println!(
        "\nconsensus in {} rounds — versus the Ω(n) = Ω({n}) bound for h = O(1); \
         ln n = {:.1}",
        world.round(),
        (n as f64).ln()
    );
    Ok(())
}
