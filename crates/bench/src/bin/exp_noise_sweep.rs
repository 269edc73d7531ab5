//! EXP-T4-D — Theorem 4's dependence on the noise level δ.
//!
//! With `h = n` and a single source, the message budget (and hence the
//! time) grows like `δ/(1−2δ)²` plus lower-order terms. We sweep δ and
//! compare measured settle rounds against the Theorem 4 formula evaluated
//! with constant 1 — shapes should track (monotone growth, sharp blow-up
//! approaching δ = ½), with success staying at 1 throughout.

use noisy_pull::theory::sf_upper_bound_rounds;
use np_bench::report::{fmt_f64, Table};
use np_stats::seeds::SeedSequence;
use np_sweep::driver::{run_seeds, summarize, StopRule};
use np_sweep::spec::{JobSpec, ProtocolKind};

fn main() {
    let quick = std::env::var("NP_QUICK").is_ok();
    let n = if quick { 512 } else { 2048 };
    let runs = if quick { 5 } else { 15 };
    let c1 = 1.0;
    let deltas = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45];

    let mut table = Table::new(
        "EXP-T4-D: SF settle round vs δ (h = n, single source)",
        &[
            "delta",
            "runs",
            "success",
            "settle_mean",
            "schedule_len",
            "thm4_formula",
            "settle/formula",
        ],
    );
    for &delta in &deltas {
        let job = JobSpec {
            c1,
            ..JobSpec::new(ProtocolKind::Sf, n, delta)
        };
        let seeds = SeedSequence::new(0xD0_5EED ^ (delta * 1000.0) as u64);
        let records = run_seeds(&job, seeds, runs, StopRule::FullBudget).expect("valid grid");
        let (rate, summary) = summarize(&records);
        let schedule = job.budget().expect("valid grid");
        let formula = sf_upper_bound_rounds(n, n, 0, 1, delta).expect("valid grid");
        match summary {
            Some(s) => {
                table.push_row(&[
                    &fmt_f64(delta),
                    &runs,
                    &fmt_f64(rate),
                    &fmt_f64(s.mean()),
                    &schedule,
                    &fmt_f64(formula),
                    &fmt_f64(s.mean() / formula),
                ]);
            }
            None => {
                table.push_row(&[
                    &fmt_f64(delta),
                    &runs,
                    &fmt_f64(rate),
                    &"-",
                    &schedule,
                    &fmt_f64(formula),
                    &"-",
                ]);
            }
        }
    }
    table.emit("noise_sweep");
    println!(
        "expected shape: settle_mean grows monotonically in δ and blows up \
         toward δ = 0.5; settle/formula stays within a bounded band."
    );
}
