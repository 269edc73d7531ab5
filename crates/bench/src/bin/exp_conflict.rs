//! EXP-CONFLICT — claim C3: convergence to the *plurality* among
//! conflicting sources, even at the minimal bias `s = 1`.
//!
//! We fix `s1 = s0 + 1` (bias 1) and grow the total number of sources
//! toward `√n`. Both protocols must keep converging to opinion 1 — the
//! strict-majority preference — even though almost half the sources argue
//! for 0. The message budget `m` grows with `s0 + s1` (the `(s0+s1)/s²`
//! term of Eq. (19)): more conflicting sources genuinely slow SF down,
//! visible in the schedule column.

use np_bench::report::{fmt_f64, Table};
use np_stats::seeds::SeedSequence;
use np_sweep::driver::{run_seeds, summarize, StopRule};
use np_sweep::spec::{JobSpec, ProtocolKind};

fn main() {
    let quick = std::env::var("NP_QUICK").is_ok();
    let n = if quick { 512 } else { 2048 };
    let runs = if quick { 5 } else { 12 };
    let totals: &[usize] = if quick {
        &[1, 5, 17]
    } else {
        &[1, 3, 9, 17, 33, 45]
    };

    let mut table = Table::new(
        "EXP-CONFLICT: bias-1 plurality consensus vs number of conflicting sources",
        &[
            "s0+s1",
            "s0",
            "s1",
            "protocol",
            "success",
            "settle_mean",
            "schedule_len",
        ],
    );
    for &total in totals {
        let s1 = total / 2 + 1;
        let s0 = total - s1;
        assert_eq!(s1 - s0, 1, "bias must be exactly 1");

        let sf = JobSpec {
            s0,
            s1,
            ..JobSpec::new(ProtocolKind::Sf, n, 0.15)
        };
        let seeds = SeedSequence::new(0xC0F ^ total as u64);
        let records = run_seeds(&sf, seeds, runs, StopRule::FullBudget).expect("valid grid");
        let (rate, summary) = summarize(&records);
        let schedule = sf.budget().expect("valid grid");
        match summary {
            Some(s) => table.push_row(&[
                &total,
                &s0,
                &s1,
                &"SF",
                &fmt_f64(rate),
                &fmt_f64(s.mean()),
                &schedule,
            ]),
            None => table.push_row(&[&total, &s0, &s1, &"SF", &fmt_f64(rate), &"-", &schedule]),
        }

        let ssf = JobSpec {
            s0,
            s1,
            c1: 16.0,
            budget_intervals: 10,
            ..JobSpec::new(ProtocolKind::Ssf, n, 0.1)
        };
        let seeds = SeedSequence::new(0xC1F ^ total as u64);
        let records = run_seeds(&ssf, seeds, runs, StopRule::FullBudget).expect("valid grid");
        let (rate, summary) = summarize(&records);
        let budget = ssf.budget().expect("valid grid");
        match summary {
            Some(s) => table.push_row(&[
                &total,
                &s0,
                &s1,
                &"SSF",
                &fmt_f64(rate),
                &fmt_f64(s.mean()),
                &budget,
            ]),
            None => table.push_row(&[&total, &s0, &s1, &"SSF", &fmt_f64(rate), &"-", &budget]),
        }
    }
    table.emit("conflict");
    println!(
        "expected: success = 1 for both protocols at every source count — \
         plurality wins at bias 1; SF's schedule grows with s0+s1 \
         (the (s0+s1)/s² term), while SSF's budget is bias-independent \
         (Theorem 5 does not use s)."
    );
}
