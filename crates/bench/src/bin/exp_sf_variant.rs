//! EXP-VARIANT — testing the Remark in §2.1: does the "more natural"
//! alternating-display variant (SF-ALT) work as well as SF?
//!
//! Same schedule, same budgets: we compare end-to-end success and
//! weak-opinion accuracy. Expected: SF-ALT converges too (confirming the
//! paper's plausibility claim), with slightly lower weak-opinion accuracy
//! at equal `m` — the alternating background contributes `Bernoulli(½)`
//! variance per observation where SF's within-phase background is
//! deterministic.

use noisy_pull::sf::SourceFilter;
use noisy_pull::sf_alternating::AlternatingSourceFilter;
use np_bench::report::{fmt_f64, Table};
use np_engine::opinion::Opinion;
use np_engine::protocol::{AgentState, ColumnarProtocol};
use np_engine::snapshot::SnapshotState;
use np_engine::world::World;
use np_sweep::driver::StopRule;
use np_sweep::spec::{JobSpec, ProtocolKind};

struct VariantStats {
    success: f64,
    settle_mean: f64,
    weak_accuracy: f64,
}

fn measure(job: &JobSpec, runs: u64) -> VariantStats {
    let params = job.sf_params().expect("grid");
    let listening_rounds = 2 * params.phase_len();
    let mut wins = 0u64;
    let mut settle_acc = 0.0;
    let mut weak_correct = 0u64;
    let mut weak_total = 0u64;
    for seed in 0..runs {
        let job = JobSpec {
            seed: 0xFA ^ seed,
            ..job.clone()
        };
        // Weak accuracy pass.
        let (correct, total) = if job.protocol == ProtocolKind::SfAlt {
            weak_opinions(
                &job,
                &AlternatingSourceFilter::new(params),
                listening_rounds,
            )
        } else {
            weak_opinions(&job, &SourceFilter::new(params), listening_rounds)
        };
        weak_correct += correct;
        weak_total += total;
        // Fresh end-to-end pass (same seed, full schedule).
        let finish = job.run(StopRule::FullBudget).expect("grid");
        if let Some(r) = finish.settled {
            wins += 1;
            settle_acc += r as f64;
        }
    }
    VariantStats {
        success: wins as f64 / runs as f64,
        settle_mean: if wins > 0 {
            settle_acc / wins as f64
        } else {
            f64::NAN
        },
        weak_accuracy: weak_correct as f64 / weak_total.max(1) as f64,
    }
}

/// (correct, formed) weak opinions after the listening phases.
fn weak_opinions<P>(job: &JobSpec, protocol: &P, listening_rounds: u64) -> (u64, u64)
where
    P: ColumnarProtocol,
    P::State: SnapshotState,
{
    let mut world: World<P> = job.world(protocol, None).expect("alphabets match");
    world.run(listening_rounds);
    let mut correct = 0;
    let mut total = 0;
    for agent in world.iter_agents() {
        if let Some(w) = agent.weak_opinion() {
            correct += u64::from(w == Opinion::One);
            total += 1;
        }
    }
    (correct, total)
}

fn main() {
    let quick = std::env::var("NP_QUICK").is_ok();
    let sizes: &[usize] = if quick { &[256] } else { &[256, 1024, 4096] };
    let runs = if quick { 5 } else { 15 };
    let delta = 0.2;

    let mut table = Table::new(
        "EXP-VARIANT: SF vs SF-ALT (alternating displays, §2.1 Remark), h = n, single source",
        &["n", "variant", "success", "settle_mean", "weak_accuracy"],
    );
    for &n in sizes {
        for (protocol, name) in [(ProtocolKind::Sf, "SF"), (ProtocolKind::SfAlt, "SF-ALT")] {
            let stats = measure(&JobSpec::new(protocol, n, delta), runs);
            table.push_row(&[
                &n,
                &name,
                &fmt_f64(stats.success),
                &fmt_f64(stats.settle_mean),
                &fmt_f64(stats.weak_accuracy),
            ]);
        }
    }
    table.emit("sf_variant");
    println!(
        "expected: SF-ALT succeeds too (the Remark's plausibility claim \
         holds) with weak accuracy a little below SF's at equal m — the \
         price of a stochastic instead of deterministic neutral background."
    );
}
