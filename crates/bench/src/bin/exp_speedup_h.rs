//! EXP-T4-H — claim C1 of Theorem 4: sample size linearly accelerates
//! information spreading (`T ∝ 1/h` until the `log n` floor).
//!
//! Fixed `n`, δ and a single source; `h` sweeps over powers of two. The
//! diagnostic column `settle × h` should be roughly constant while the
//! `1/h` term dominates, then flatten into the additive `Θ(log n)` floor
//! at large `h` (so `settle × h` starts growing once `settle` hits the
//! floor — both regimes are visible in the table).

use np_bench::report::{fmt_f64, Table};
use np_stats::seeds::SeedSequence;
use np_sweep::driver::{auto_channel, run_seeds, summarize, StopRule};
use np_sweep::spec::{JobSpec, ProtocolKind};

fn main() {
    let quick = std::env::var("NP_QUICK").is_ok();
    let n = if quick { 256 } else { 512 };
    let runs = if quick { 5 } else { 15 };
    let delta = 0.2;
    let c1 = 1.0;
    let hs: Vec<usize> = (0..).map(|k| 1usize << k).take_while(|&h| h <= n).collect();

    let mut table = Table::new(
        "EXP-T4-H: SF settle round vs h (n fixed, δ = 0.2, single source)",
        &[
            "h",
            "runs",
            "success",
            "settle_mean",
            "schedule_len",
            "settle*h",
            "halving_ratio",
        ],
    );
    let mut prev_mean: Option<f64> = None;
    for &h in &hs {
        let job = JobSpec {
            h,
            c1,
            channel: auto_channel(h),
            ..JobSpec::new(ProtocolKind::Sf, n, delta)
        };
        let seeds = SeedSequence::new(0xA11CE ^ h as u64);
        let records = run_seeds(&job, seeds, runs, StopRule::FullBudget).expect("valid grid");
        let (rate, summary) = summarize(&records);
        let schedule = job.budget().expect("valid grid");
        match summary {
            Some(s) => {
                let ratio = prev_mean
                    .map(|p| fmt_f64(p / s.mean()))
                    .unwrap_or_else(|| "-".to_string());
                table.push_row(&[
                    &h,
                    &runs,
                    &fmt_f64(rate),
                    &fmt_f64(s.mean()),
                    &schedule,
                    &fmt_f64(s.mean() * h as f64),
                    &ratio,
                ]);
                prev_mean = Some(s.mean());
            }
            None => {
                table.push_row(&[&h, &runs, &fmt_f64(rate), &"-", &schedule, &"-", &"-"]);
                prev_mean = None;
            }
        }
    }
    table.emit("speedup_h");
    println!(
        "expected shape: halving_ratio ≈ 2 while the 1/h term dominates \
         (doubling h halves the time), decaying toward 1 at the log-n floor."
    );
}
