//! EXP-SCALE — the aggregated channel's headline: simulate the paper's
//! `h = n` regime at populations where the literal model would exchange
//! `Θ(n²)` messages per round.
//!
//! At `n = 131072` and `h = n`, one round of the literal model is ~17
//! billion noisy messages; the aggregated channel simulates it exactly
//! (same joint distribution) in `O(n)` work. Above that, the mean-field
//! counts backend ([`np_engine::counts::CountsWorld`]) drops the cost to
//! `O(states)` per round — distribution-identical class-count dynamics —
//! which pushes the same experiment to `n = 10⁷` and `10⁸`. This binary
//! runs SF end-to-end across both backends and seed batches and reports
//! a human-readable table plus the machine-readable perf trajectory
//! (`BENCH_scale.json` at the workspace root): the `O(log n)` convergence
//! claim measured from `n = 2¹⁴` to `n = 10⁸` on a laptop.

use np_bench::report::{fmt_f64, save_bench_json, Table};
use np_stats::seeds::SeedSequence;
use np_sweep::driver::{run_seeds, StopRule};
use np_sweep::perf::{perf_point, PerfPoint};
use np_sweep::spec::{BackendKind, JobSpec, ProtocolKind};

const DELTA: f64 = 0.2;

/// One batch of SF runs to first consensus on `backend`: the perf point
/// and the schedule length.
fn measure(backend: BackendKind, n: usize, runs: usize) -> (PerfPoint, u64) {
    let job = JobSpec {
        backend,
        ..JobSpec::new(ProtocolKind::Sf, n, DELTA)
    };
    let seeds = SeedSequence::new(0x5CA1E);
    let records = run_seeds(&job, seeds, runs, StopRule::FirstConsensus).expect("valid grid");
    let mut point = perf_point(
        &format!("n={n}"),
        n,
        records.iter().map(|r| (r.finish.settled, r.wall)),
    );
    point.backend = Some(backend.name().to_string());
    (point, job.budget().expect("valid grid"))
}

fn main() {
    let quick = std::env::var("NP_QUICK").is_ok();
    // Per-agent covers the classic sizes; mean-field overlaps at 2¹⁷
    // (sanity: same rounds, much lower wall) and extends to 10⁷–10⁸.
    let (agent_sizes, field_sizes, runs): (&[usize], &[usize], usize) = if quick {
        (&[1 << 14], &[1 << 14, 10_000_000], 2)
    } else {
        (
            &[1 << 14, 1 << 15, 1 << 16, 1 << 17],
            &[1 << 17, 10_000_000, 100_000_000],
            4,
        )
    };

    let mut table = Table::new(
        "EXP-SCALE: SF at h = n on large populations (δ = 0.2, single source)",
        &[
            "backend",
            "n",
            "messages/round",
            "schedule_len",
            "runs",
            "converged",
            "mean_settle",
            "mean_wall_ms",
        ],
    );
    let mut points = Vec::with_capacity(agent_sizes.len() + field_sizes.len());
    let mut push = |table: &mut Table, point: PerfPoint, schedule: u64| {
        table.push_row(&[
            &point.backend.clone().unwrap_or_default(),
            &point.n,
            &format!("{:.1e}", (point.n as f64) * (point.n as f64)),
            &schedule,
            &point.runs,
            &point.converged,
            &point.mean_rounds.map_or_else(|| "-".to_string(), fmt_f64),
            &fmt_f64(point.mean_wall_ms),
        ]);
        points.push(point);
    };
    for &n in agent_sizes {
        let (point, schedule) = measure(BackendKind::PerAgent, n, runs);
        push(&mut table, point, schedule);
    }
    for &n in field_sizes {
        let (point, schedule) = measure(BackendKind::MeanField, n, runs);
        push(&mut table, point, schedule);
    }
    table.emit("scale");
    match save_bench_json("scale", &points) {
        Ok(path) => println!("[bench] {}", path.display()),
        Err(e) => println!("[bench] write failed: {e}"),
    }
    println!(
        "expected: every run converges at every size; settle grows \
         ~logarithmically while messages/round grows quadratically. The \
         aggregated channel makes h = n a laptop workload to n = 131072; \
         the mean-field counts backend carries the same distribution to \
         n = 10^8, with n = 10^7 settling in well under 10 s of \
         single-thread wall clock."
    );
}
