//! EXP-T5 — Theorem 5: SSF converges from *any* adversarially corrupted
//! initial configuration and then keeps the consensus.
//!
//! For every corruption strategy in [`noisy_pull::adversary::SsfAdversary`]
//! we run SSF with a single source and `h = n`, for a budget of several
//! update intervals, and require the system to settle on the correct
//! consensus *and hold it to the end of the budget* (the settle metric is
//! exactly Definition 2's reach-and-stay). The settle round should land
//! within ~3 update intervals regardless of the strategy: one cycle to
//! flush fake memory, one to form honest weak opinions, one for opinions
//! to follow.

use noisy_pull::adversary::SsfAdversary;
use np_bench::report::{fmt_f64, Table};
use np_stats::seeds::SeedSequence;
use np_sweep::driver::{run_seeds, summarize, StopRule};
use np_sweep::spec::{JobSpec, ProtocolKind};

fn main() {
    let quick = std::env::var("NP_QUICK").is_ok();
    let sizes: &[usize] = if quick { &[256] } else { &[256, 1024, 4096] };
    let runs = if quick { 5 } else { 12 };
    let delta = 0.1;
    let c1 = 16.0;
    let budget_intervals = 10;

    let mut table = Table::new(
        "EXP-T5: SSF self-stabilization (h = n, δ = 0.1, single source)",
        &[
            "n",
            "adversary",
            "runs",
            "success",
            "settle_mean",
            "update_interval",
            "settle/interval",
        ],
    );
    for &n in sizes {
        for adversary in SsfAdversary::ALL {
            let job = JobSpec {
                c1,
                adversary,
                budget_intervals,
                ..JobSpec::new(ProtocolKind::Ssf, n, delta)
            };
            let seeds = SeedSequence::new(0x55F ^ (n as u64) << 3);
            let records = run_seeds(&job, seeds, runs, StopRule::FullBudget).expect("valid grid");
            let (rate, summary) = summarize(&records);
            let interval = job.ssf_params().expect("valid grid").update_interval();
            match summary {
                Some(s) => {
                    table.push_row(&[
                        &n,
                        &adversary,
                        &runs,
                        &fmt_f64(rate),
                        &fmt_f64(s.mean()),
                        &interval,
                        &fmt_f64(s.mean() / interval as f64),
                    ]);
                }
                None => {
                    table.push_row(&[&n, &adversary, &runs, &fmt_f64(rate), &"-", &interval, &"-"]);
                }
            }
        }
    }
    table.emit("self_stab");
    println!(
        "expected shape: success = 1 for every adversary; settle within \
         ~2–4 update intervals, independent of the corruption strategy."
    );
}
