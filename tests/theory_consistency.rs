//! Integration: measured behaviour against the paper's closed forms —
//! small-scale versions of EXP-T4-*, EXP-LB and EXP-WEAK that run in CI.

use noisy_pull_repro::core::theory;
use noisy_pull_repro::prelude::*;
use np_stats::seeds::SeedSequence;
use np_sweep::driver::{auto_channel, run_seeds, summarize, StopRule};
use np_sweep::spec::{JobSpec, ProtocolKind};

/// Mean settle round of `runs` seeded runs of `job` (all must converge).
fn mean_settle(job: &JobSpec, master: u64, runs: usize) -> f64 {
    let records = run_seeds(job, SeedSequence::new(master), runs, StopRule::FullBudget).unwrap();
    summarize(&records).1.expect("converges").mean()
}

/// Single source, `h` samples, `c1 = 1`.
fn sf(n: usize, h: usize, delta: f64) -> JobSpec {
    JobSpec {
        h,
        channel: auto_channel(h),
        ..JobSpec::new(ProtocolKind::Sf, n, delta)
    }
}

#[test]
fn doubling_h_roughly_halves_time_in_the_h_bound_regime() {
    // n modest, h ≪ n: the 1/h term dominates the schedule.
    let t_base = mean_settle(&sf(256, 4, 0.1), 1, 6);
    let t_fast = mean_settle(&sf(256, 8, 0.1), 2, 6);
    let ratio = t_base / t_fast;
    assert!(
        (1.5..=2.6).contains(&ratio),
        "halving ratio {ratio} outside [1.5, 2.6]"
    );
}

#[test]
fn settle_time_at_h_equals_n_is_logarithmic_not_linear() {
    // Quadrupling n must NOT quadruple the time (it should grow ~ln n).
    let t_small = mean_settle(&sf(128, 128, 0.2), 3, 6);
    let t_large = mean_settle(&sf(512, 512, 0.2), 4, 6);
    let growth = t_large / t_small;
    let linear_growth = 4.0;
    assert!(
        growth < linear_growth / 1.5,
        "time grew {growth}× for 4× population — not logarithmic"
    );
}

#[test]
fn measured_time_within_log_factor_of_lower_bound() {
    let measured = mean_settle(&sf(512, 512, 0.2), 5, 6);
    let lb = theory::lower_bound_rounds(512, 512, 1, 0.2, 2).unwrap();
    let ratio = measured / lb.max(1.0);
    let log_n = (512f64).ln();
    assert!(
        ratio < 60.0 * log_n,
        "measured/lower = {ratio}, far beyond O(log n) = {log_n}"
    );
}

#[test]
fn sf_weak_opinions_have_the_advertised_advantage() {
    // Lemma 28 shape: advantage ≥ ~c·√(ln n / n) for some constant c > 0.
    let n = 256;
    let config = PopulationConfig::new(n, 0, 1, n).unwrap();
    let params = SfParams::derive(&config, 0.2, 1.0).unwrap();
    let noise = NoiseMatrix::uniform(2, 0.2).unwrap();
    let mut correct = 0u64;
    let mut total = 0u64;
    for seed in 0..30 {
        let mut world = World::new(
            &SourceFilter::new(params),
            config,
            &noise,
            ChannelKind::Aggregated,
            0x3A + seed,
        )
        .unwrap();
        world.run(2 * params.phase_len());
        for agent in world.iter_agents() {
            correct += u64::from(agent.weak_opinion() == Some(Opinion::One));
            total += 1;
        }
    }
    let measured = correct as f64 / total as f64;
    let advantage = measured - 0.5;
    let yardstick = ((n as f64).ln() / n as f64).sqrt();
    assert!(
        advantage > 0.2 * yardstick,
        "advantage {advantage} below 0.2×√(ln n/n) = {}",
        0.2 * yardstick
    );
    // And the Claim 29 evidence model predicts the measured accuracy
    // within sampling error (~7.7k weak-opinion samples → 3σ ≈ 0.017).
    let model = theory::sf_weak_opinion_model(n, 0, 1, 0.2, params.m()).unwrap();
    assert!(
        (measured - model).abs() < 0.02,
        "measured {measured} vs Claim-29 model {model}"
    );
}

#[test]
fn theorem_formulas_bound_schedules_consistently() {
    // The derived schedule length must scale with the Theorem 4 formula
    // across a parameter sweep (fixed constant ratio band).
    let mut ratios = Vec::new();
    for &(n, h, delta) in &[
        (512usize, 512usize, 0.1f64),
        (512, 512, 0.3),
        (1024, 1024, 0.2),
        (1024, 64, 0.2),
        (2048, 2048, 0.2),
    ] {
        let schedule = sf(n, h, delta).budget().unwrap() as f64;
        let formula = theory::sf_upper_bound_rounds(n, h, 0, 1, delta).unwrap();
        ratios.push(schedule / formula);
    }
    let max = ratios.iter().cloned().fold(f64::MIN, f64::max);
    let min = ratios.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        max / min < 30.0,
        "schedule/formula ratios vary too widely: {ratios:?}"
    );
}
