//! EXP-CLUSTER — the node runtime under transport conditions.
//!
//! Every other bench in this repo runs the round engine: a global
//! barrier, all agents stepping in lockstep. The [`np_net`] runtime has
//! no barrier — each node keeps a local round clock and pull replies
//! race real (simulated) network latency, jitter and loss. This
//! experiment maps what that asynchrony costs: SSF on the deterministic
//! simulated-time transport across a latency × drop grid, single
//! source, δ = 0.05.
//!
//! Per point we record the convergence rate across seeds, the mean
//! all-correct local round, the median/p95 *virtual* completion time
//! (the scheduler clock, in ms — reproducible, unlike wall time), and
//! the total message count actually put on the wire (`messages_total`,
//! measured at the transport rather than derived as n·h·rounds — drops
//! and skipped rounds make the closed form wrong here). The committed
//! artifact is `BENCH_cluster.json` (np-bench/v1).
//!
//! Expected shape: latency well under the tick is free — nodes close
//! rounds with a full sample and the runtime tracks the round engine.
//! Message loss thins each round's sample instead of failing it (the
//! protocol's "breathe before speaking" rule tolerates empty rounds),
//! so convergence survives heavy drop at a modest cost in rounds; only
//! when the jittered round trip approaches the tick do replies go stale
//! and the settle round drift up.

use noisy_pull::params::SsfParams;
use noisy_pull::ssf::SelfStabilizingSourceFilter;
use np_bench::report::{fmt_f64, save_bench_json, Table};
use np_engine::runner::{run_batch, suggested_threads};
use np_net::cluster::{ClusterConfig, ClusterReport};
use np_net::faults::NetFaultPlan;
use np_net::sim::SimCluster;
use np_stats::estimate::Running;
use np_stats::seeds::SeedSequence;
use np_sweep::perf::{wall_quantiles, PerfPoint};

const SSF_C1: f64 = 1.0;
/// Round budget, in SSF update intervals.
const BUDGET_INTERVALS: u64 = 30;
const DELTA: f64 = 0.05;
const MASTER_SEED: u64 = 0x90a1;

/// One seeded simulated-time cluster run.
fn run_cluster(n: usize, latency_us: u64, drop: f64, seed: u64) -> ClusterReport {
    let mut cfg = ClusterConfig::new(n, 0, 1, (n as f64).ln().ceil() as usize, DELTA, seed);
    cfg.min_latency_ns = latency_us * 1_000;
    cfg.jitter_ns = cfg.min_latency_ns;
    cfg.drop_rate = drop;
    let pop = cfg.population().expect("valid grid");
    let params = SsfParams::derive(&pop, DELTA, SSF_C1).expect("valid grid");
    let protocol = SelfStabilizingSourceFilter::new(params);
    let budget = BUDGET_INTERVALS * params.update_interval();
    let mut cluster =
        SimCluster::new(&cfg, &protocol, &NetFaultPlan::new()).expect("valid cluster");
    cluster.run_until_correct(budget).expect("sim never fails");
    cluster.report()
}

/// Runs one batch of seeds and aggregates it into a perf point.
fn measure_point(n: usize, runs: usize, latency_us: u64, drop: f64) -> PerfPoint {
    let label = format!("ssf cluster lat={latency_us}us drop={drop}");
    let master = SeedSequence::new(MASTER_SEED).child_of_label(&label);
    let reports = run_batch(master, runs, suggested_threads(), move |seed| {
        run_cluster(n, latency_us, drop, seed)
    });
    let mut rounds = Running::new();
    let mut virtual_ms = Vec::with_capacity(reports.len());
    let mut converged = 0usize;
    let mut messages = 0u64;
    for r in &reports {
        messages += r.messages_total;
        if r.converged {
            converged += 1;
            if let Some(at) = r.convergence_round {
                rounds.push(at as f64);
            }
            // Virtual scheduler time, not wall time: a pure function of
            // the seed, so the quantiles are reproducible.
            virtual_ms.push(r.elapsed_ms);
        }
    }
    let (median, p95) = match wall_quantiles(&virtual_ms) {
        Some((m, p)) => (Some(m), Some(p)),
        None => (None, None),
    };
    let mean = virtual_ms.iter().sum::<f64>() / virtual_ms.len().max(1) as f64;
    PerfPoint {
        label,
        n,
        runs,
        converged,
        mean_rounds: rounds.mean().ok(),
        mean_wall_ms: mean,
        median_wall_ms: median,
        p95_wall_ms: p95,
        backend: Some("sim-cluster".to_string()),
        convergence_rate: Some(converged as f64 / runs.max(1) as f64),
        messages_total: Some(messages),
        ..PerfPoint::default()
    }
}

fn main() {
    let quick = std::env::var("NP_QUICK").is_ok();
    let n = if quick { 64 } else { 128 };
    let runs = if quick { 4 } else { 8 };
    // Tick is 1 ms; the last latency row (250 + U[0,250] µs each way)
    // pushes the worst-case round trip to the full tick, so late
    // requests in a round can come back stale.
    let latencies_us = [50u64, 150, 250];
    let drops = [0.0, 0.2, 0.5];

    let mut points = Vec::new();
    let mut table = Table::new(
        &format!("EXP-CLUSTER: node runtime over latency x drop (n = {n}, {runs} seeds)"),
        &["point", "rate", "settle_mean", "virtual_ms_p50", "messages"],
    );
    for &latency_us in &latencies_us {
        for &drop in &drops {
            let point = measure_point(n, runs, latency_us, drop);
            let rate = point.convergence_rate.unwrap_or(0.0);
            let median = point.median_wall_ms.unwrap_or(0.0);
            let messages = point.messages_total.unwrap_or(0);
            match point.mean_rounds {
                Some(mean) => table.push_row(&[
                    &point.label,
                    &fmt_f64(rate),
                    &fmt_f64(mean),
                    &fmt_f64(median),
                    &messages,
                ]),
                None => table.push_row(&[
                    &point.label,
                    &fmt_f64(rate),
                    &"-",
                    &fmt_f64(median),
                    &messages,
                ]),
            }
            points.push(point);
        }
    }

    table.emit("cluster");
    match save_bench_json("cluster", &points) {
        Ok(path) => println!("[bench] {}", path.display()),
        Err(e) => println!("[bench] write failed: {e}"),
    }
    println!(
        "expected shape: sub-tick latency rows all converge with settle \
         rounds near the round engine's; drop rows converge late rather \
         than failing (thinned samples, skipped rounds); the 250 us row \
         adds stale replies without breaking convergence."
    );
}
