//! Experiment harness for the noisy PULL reproduction.
//!
//! One binary per figure/claim of the paper lives in `src/bin/` (see the
//! experiment index in `DESIGN.md` and results in `EXPERIMENTS.md`);
//! Criterion micro-benchmarks of the hot paths live in `benches/`.
//!
//! The library part is [`report`]: aligned console tables plus CSV output
//! under `target/experiments/`, JSONL traces, run summaries and the
//! `BENCH_*.json` writer. Running experiments is not done here: every
//! binary describes its grid as `np_sweep::spec::JobSpec`s and runs them
//! through the shared driver (`np_sweep::driver` — one world builder, one
//! settle loop, one seeded batch runner), the same code the CLI and the
//! sweep scheduler use.
//!
//! Run all experiments with:
//!
//! ```text
//! for exp in exp_fig1 exp_logtime exp_speedup_h exp_noise_sweep exp_bias_sweep \
//!            exp_self_stab exp_lb_tightness exp_weak_opinion exp_boosting \
//!            exp_reduction exp_baselines exp_conflict; do
//!     cargo run --release -p np-bench --bin $exp
//! done
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
