//! EXP-LB — tightness against the Theorem 3 lower bound.
//!
//! The paper's headline: SF's upper bound matches Boczkowski et al.'s
//! `Ω(nδ/(h·s²·(1−δ|Σ|)²))` lower bound up to a `log n` factor (in the
//! regime `δ ≥ (s0+s1)/√n`, `s0, s1 ≤ √n`). We measure SF's settle time
//! across a `(n, h, δ, s)` grid and report
//! `ratio = settle / lower_bound` and `ratio / ln n`: the latter should
//! stay within a bounded band across the entire grid, while `ratio`
//! itself may grow logarithmically.

use noisy_pull::theory::lower_bound_rounds;
use np_bench::report::{fmt_f64, Table};
use np_stats::seeds::SeedSequence;
use np_sweep::driver::{auto_channel, run_seeds, summarize, StopRule};
use np_sweep::spec::{JobSpec, ProtocolKind};

fn main() {
    let quick = std::env::var("NP_QUICK").is_ok();
    let runs = if quick { 4 } else { 10 };
    let c1 = 1.0;

    // Grid chosen inside the theorem's tightness regime:
    // δ ≥ (s0+s1)/√n and s ≤ √n.
    let grid: &[(usize, usize, f64, usize)] = if quick {
        &[(512, 512, 0.2, 1), (512, 64, 0.2, 1), (512, 512, 0.3, 2)]
    } else {
        &[
            (512, 512, 0.2, 1),
            (512, 64, 0.2, 1),
            (1024, 1024, 0.2, 1),
            (1024, 128, 0.2, 1),
            (1024, 1024, 0.3, 1),
            (1024, 1024, 0.1, 1),
            (2048, 2048, 0.2, 1),
            (2048, 2048, 0.2, 2),
            (2048, 2048, 0.2, 4),
            (4096, 4096, 0.2, 1),
        ]
    };

    let mut table = Table::new(
        "EXP-LB: measured SF settle vs Theorem 3 lower bound",
        &[
            "n",
            "h",
            "delta",
            "s",
            "success",
            "settle_mean",
            "lower_bound",
            "ratio",
            "ratio/ln(n)",
        ],
    );
    for &(n, h, delta, s) in grid {
        let job = JobSpec {
            h,
            s1: s,
            c1,
            channel: auto_channel(h),
            ..JobSpec::new(ProtocolKind::Sf, n, delta)
        };
        let seeds = SeedSequence::new(
            0x1B ^ (n as u64)
                .wrapping_mul(31)
                .wrapping_add(h as u64)
                .wrapping_add((delta * 100.0) as u64),
        );
        let records = run_seeds(&job, seeds, runs, StopRule::FullBudget).expect("valid grid");
        let (rate, summary) = summarize(&records);
        let lb = lower_bound_rounds(n, h, s, delta, 2).expect("valid grid");
        match summary {
            Some(sm) => {
                let ratio = sm.mean() / lb.max(1.0);
                table.push_row(&[
                    &n,
                    &h,
                    &fmt_f64(delta),
                    &s,
                    &fmt_f64(rate),
                    &fmt_f64(sm.mean()),
                    &fmt_f64(lb),
                    &fmt_f64(ratio),
                    &fmt_f64(ratio / (n as f64).ln()),
                ]);
            }
            None => {
                table.push_row(&[
                    &n,
                    &h,
                    &fmt_f64(delta),
                    &s,
                    &fmt_f64(rate),
                    &"-",
                    &fmt_f64(lb),
                    &"-",
                    &"-",
                ]);
            }
        }
    }
    table.emit("lb_tightness");
    println!(
        "expected shape: ratio/ln(n) bounded across the grid — measured time \
         sits within an O(log n) factor of the lower bound (Theorem 4 remark)."
    );
}
