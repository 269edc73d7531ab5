//! EXP-T4-S — Theorem 4's dependence on the source bias `s`.
//!
//! The dominant `n·δ/(min{s², n}(1−2δ)²)` term means quadrupling the bias
//! should cut the message budget (and the listening time) by ~16× until
//! `s² ≥ n` caps the gain. We sweep `s = s1` (all sources agreeing) with
//! `h = n` and report settle rounds alongside the budget `m`.

use np_bench::report::{fmt_f64, Table};
use np_stats::seeds::SeedSequence;
use np_sweep::driver::{run_seeds, summarize, StopRule};
use np_sweep::spec::{JobSpec, ProtocolKind};

fn main() {
    let quick = std::env::var("NP_QUICK").is_ok();
    let n = if quick { 512 } else { 2048 };
    let runs = if quick { 5 } else { 15 };
    let delta = 0.2;
    let c1 = 1.0;
    let biases: &[usize] = if quick {
        &[1, 2, 4, 8, 16]
    } else {
        &[1, 2, 4, 8, 16, 32, 64]
    };

    let mut table = Table::new(
        "EXP-T4-S: SF settle round vs bias s (h = n, δ = 0.2, agreeing sources)",
        &["s", "runs", "success", "m", "settle_mean", "schedule_len"],
    );
    for &s in biases {
        let job = JobSpec {
            s1: s,
            c1,
            ..JobSpec::new(ProtocolKind::Sf, n, delta)
        };
        let seeds = SeedSequence::new(0xB1A5 ^ s as u64);
        let records = run_seeds(&job, seeds, runs, StopRule::FullBudget).expect("valid grid");
        let (rate, summary) = summarize(&records);
        let params = job.sf_params().expect("valid grid");
        match summary {
            Some(sm) => {
                table.push_row(&[
                    &s,
                    &runs,
                    &fmt_f64(rate),
                    &params.m(),
                    &fmt_f64(sm.mean()),
                    &params.total_rounds(),
                ]);
            }
            None => {
                table.push_row(&[
                    &s,
                    &runs,
                    &fmt_f64(rate),
                    &params.m(),
                    &"-",
                    &params.total_rounds(),
                ]);
            }
        }
    }
    table.emit("bias_sweep");
    println!(
        "expected shape: m (and the schedule) shrink rapidly with s — \
         roughly 1/s² on the dominant term — then flatten at the h·log n floor."
    );
}
