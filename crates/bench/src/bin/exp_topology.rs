//! EXP-TOPO — graph-restricted PULL: convergence over degree × δ.
//!
//! The paper's analysis (and every other bench in this repo) lives on the
//! complete graph: each of the `h` observations is drawn from the whole
//! population. The [`np_engine::topology`] subsystem restricts sampling
//! to a neighborhood; this experiment maps what that restriction costs.
//!
//! Both protocols (SF and SSF, single source, `h = n` draws with
//! replacement from the neighborhood) run on ring lattices of increasing
//! degree — ring:2/8/32, i.e. degrees 4/16/64 — plus the complete graph
//! as the reference row, across four uniform noise levels up to the
//! δ < ¼ threshold. Each point records the convergence rate, the mean
//! settle round and the mean/median/p95 wall time per run; the committed
//! artifact is `BENCH_topology.json` (np-bench/v1 with the trailing
//! `degree`/`convergence_rate` keys).
//!
//! Expected shape: the complete graph and the degree-64 ring converge
//! everywhere below threshold; as the degree drops, the δ-cliff slides
//! left — sparse neighborhoods re-sample the same few displays, so the
//! effective noise a weak-opinion estimator sees is higher than δ and
//! the degree-4 ring gives up well before δ = 0.20.

use np_bench::report::{fmt_f64, save_bench_json, Table};
use np_engine::topology::{Topology, TopologySpec};
use np_stats::seeds::SeedSequence;
use np_sweep::driver::{auto_channel, run_seeds, StopRule};
use np_sweep::perf::{perf_point, PerfPoint};
use np_sweep::spec::{JobSpec, ProtocolKind};

const SF_C1: f64 = 1.0;
const SSF_C1: f64 = 8.0;
/// SSF round budget, in update intervals.
const SSF_BUDGET_INTERVALS: u64 = 8;
const MASTER_SEED: u64 = 0x7090;

/// Runs one batch and aggregates it into a degree-tagged perf point with
/// per-run wall times.
fn measure_point(
    protocol: ProtocolKind,
    n: usize,
    runs: usize,
    delta: f64,
    topo: TopologySpec,
) -> PerfPoint {
    let label = format!("{} {} d={delta}", protocol.name(), topo.label());
    let job = JobSpec {
        c1: if protocol == ProtocolKind::Sf {
            SF_C1
        } else {
            SSF_C1
        },
        budget_intervals: SSF_BUDGET_INTERVALS,
        topology: topo,
        channel: auto_channel(n),
        ..JobSpec::new(protocol, n, delta)
    };
    let seeds = SeedSequence::new(MASTER_SEED).child_of_label(&label);
    let records = run_seeds(&job, seeds, runs, StopRule::FullBudget).expect("valid grid");
    let mut point = perf_point(
        &label,
        n,
        records.iter().map(|r| (r.finish.settled, r.wall)),
    );
    // Ring degrees are uniform and the complete graph's is n - 1, so the
    // minimum degree is *the* degree of every point in this sweep.
    let degree = Topology::build(topo, n, 0)
        .expect("realizable topology")
        .min_degree() as u64;
    point.degree = Some(degree.max(1));
    point.convergence_rate = Some(point.converged as f64 / runs.max(1) as f64);
    point
}

fn main() {
    let quick = std::env::var("NP_QUICK").is_ok();
    let n = if quick { 128 } else { 256 };
    let runs = if quick { 4 } else { 8 };
    let topologies = [
        TopologySpec::Ring { k: 2 },
        TopologySpec::Ring { k: 8 },
        TopologySpec::Ring { k: 32 },
        TopologySpec::Complete,
    ];
    let deltas = [0.10, 0.15, 0.20, 0.24];

    let mut points = Vec::new();
    let mut table = Table::new(
        &format!("EXP-TOPO: convergence over degree x delta (n = {n}, h = n, {runs} runs)"),
        &["point", "degree", "delta", "rate", "settle_mean"],
    );
    for protocol in [ProtocolKind::Sf, ProtocolKind::Ssf] {
        for &topo in &topologies {
            for &delta in &deltas {
                let point = measure_point(protocol, n, runs, delta, topo);
                let rate = point.convergence_rate.unwrap_or(0.0);
                let degree = point.degree.unwrap_or(0);
                match point.mean_rounds {
                    Some(mean) => table.push_row(&[
                        &point.label,
                        &degree,
                        &delta,
                        &fmt_f64(rate),
                        &fmt_f64(mean),
                    ]),
                    None => table.push_row(&[&point.label, &degree, &delta, &fmt_f64(rate), &"-"]),
                }
                points.push(point);
            }
        }
    }

    table.emit("topology");
    match save_bench_json("topology", &points) {
        Ok(path) => println!("[bench] {}", path.display()),
        Err(e) => println!("[bench] write failed: {e}"),
    }
    println!(
        "expected shape: complete-graph rows converge at every delta below \
         1/4; ring rows lose convergence as the degree drops, with the \
         cliff moving from delta = 0.20 toward 0.10 on the degree-4 ring."
    );
}
