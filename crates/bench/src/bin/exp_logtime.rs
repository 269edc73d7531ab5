//! EXP-T4-N — claim C2 of Theorem 4: with `h = n`, constant noise and a
//! single source, SF spreads information in `O(log n)` rounds.
//!
//! We sweep `n` over powers of two and report the measured settle round
//! (first round from which full correct consensus held to the end). The
//! diagnostic column `settle / ln n` must stay bounded (flat-ish) as `n`
//! grows — that is the logarithmic-time signature. For contrast, the
//! `Ω(n)` lower bound at `h = O(1)` would make `settle / ln n` grow like
//! `n / ln n`.

use np_bench::report::{fmt_f64, Table};
use np_stats::seeds::SeedSequence;
use np_sweep::driver::{run_seeds, summarize, StopRule};
use np_sweep::spec::{JobSpec, ProtocolKind};

fn main() {
    let quick = std::env::var("NP_QUICK").is_ok();
    let sizes: &[usize] = if quick {
        &[256, 512, 1024, 2048]
    } else {
        &[256, 512, 1024, 2048, 4096, 8192, 16384]
    };
    let runs = if quick { 5 } else { 20 };
    let delta = 0.2;
    let c1 = 1.0;

    let mut table = Table::new(
        "EXP-T4-N: SF settle round vs n (h = n, δ = 0.2, single source)",
        &[
            "n",
            "runs",
            "success",
            "settle_mean",
            "settle_p50",
            "schedule_len",
            "settle/ln(n)",
        ],
    );
    for &n in sizes {
        let job = JobSpec {
            c1,
            ..JobSpec::new(ProtocolKind::Sf, n, delta)
        };
        let seeds = SeedSequence::new(0x51F0 ^ n as u64);
        let records = run_seeds(&job, seeds, runs, StopRule::FullBudget).expect("valid grid");
        let (rate, summary) = summarize(&records);
        let schedule = job.budget().expect("valid grid");
        match summary {
            Some(s) => {
                let per_log = s.mean() / (n as f64).ln();
                table.push_row(&[
                    &n,
                    &runs,
                    &fmt_f64(rate),
                    &fmt_f64(s.mean()),
                    &fmt_f64(s.median()),
                    &schedule,
                    &fmt_f64(per_log),
                ]);
            }
            None => {
                table.push_row(&[&n, &runs, &fmt_f64(rate), &"-", &"-", &schedule, &"-"]);
            }
        }
    }
    table.emit("logtime");
    println!("expected shape: success ≈ 1 everywhere; settle/ln(n) bounded (no growth with n).");
}
