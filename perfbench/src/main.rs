//! End-to-end and per-layer benchmark of the noisy PULL backends: the
//! packed per-agent `World`, the mean-field `CountsWorld` and the
//! simulated-time `SimCluster`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics, `--trace 1` the
//! per-layer split. Either way the last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. A failed
//! outcome check makes the command exit with code 1; bad arguments with
//! code 2. `NOTES.md` says why each workload and metric is there.

mod host;
mod layers;
mod stats;
mod workloads;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use np_stats::seeds::SeedSequence;

use workloads::{ClusterSim, MeanField, SfComplete, SsfSelfStab, Workload, STEP_THREADS};

/// End-to-end metrics `--trace 0` reports, with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("time_to_consensus_s", "s"),
    ("rounds_per_s", "1/s"),
    ("cpu_s", "s"),
    ("rounds_to_consensus", "rounds"),
    ("settled_share", "share"),
    ("peak_rss_mb", "MB"),
    ("messages_per_s", "1/s"),
];

/// Per-layer metrics `--trace 1` reports, with their units. A layer a
/// workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("channel.fill_s", "s"),
    ("channel.samples", "count"),
    ("channel.ns_per_sample", "ns"),
    ("stats.binomial_ns", "ns"),
    ("display.busy_s", "s"),
    ("update.busy_s", "s"),
    ("channel.law_s", "s"),
    ("runner.overhead_s", "s"),
    ("runner.speedup_vs_1t", "ratio"),
    ("metrics.sweep_s", "s"),
    ("snapshot.encode_s", "s"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.decode_s", "s"),
    ("counts.law_rounds", "rounds"),
    ("counts.law_round_s", "s"),
    ("counts.plain_round_s", "s"),
    ("counts.flush_law_s", "s"),
    ("counts.sf_boundary_law_s", "s"),
    ("sim.messages", "count"),
    ("sim.drops", "count"),
    ("sim.stale", "count"),
    ("sim.skipped_rounds", "rounds"),
    ("sim.useful_share", "share"),
    ("sim.ns_per_message", "ns"),
    ("channel.observe_one_ns", "ns"),
    ("step.p50_ms", "ms"),
    ("step.tail_ms", "ms"),
    ("trace.overhead_share", "share"),
    ("host.runqueue_wait_s", "s"),
    ("host.cpu_s", "s"),
    ("host.steal_s", "s"),
    ("host.parallelism", "count"),
    ("host.threads", "count"),
];

const WORKLOADS: [&str; 4] = [
    "sf-complete-64k",
    "ssf-selfstab-1k",
    "meanfield",
    "cluster-sim-512",
];

const USAGE: &str = "usage: perfbench --workload <sf-complete-64k|ssf-selfstab-1k|meanfield|\
                     cluster-sim-512> --seed <n> --seconds <s> --trace <0|1>";

/// Seeds a run covers at least, however short `--seconds` is.
const MIN_SEEDS: u64 = 2;
/// Each seed runs this many times; every repetition must end alike.
const REPETITIONS: usize = 2;
/// Share of `--seconds` spent on extra set-ups for `setup_s`.
const SETUP_SHARE: f64 = 0.1;
/// Blocks of set-ups per allowed CPU.
const SETUP_BLOCKS_PER_CPU: usize = 4;
/// Bounds on the number of set-ups behind `setup_s`.
const SETUPS: (usize, usize) = (21, 2000);

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a u64"))?),
            "--seconds" => match value.parse::<u32>() {
                Ok(s) if s >= 1 => seconds = Some(f64::from(s)),
                _ => return Err(bad("not a whole number of seconds ≥ 1")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("not 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Metric values, in the order of a name list.
#[derive(Debug, Clone)]
pub struct Metrics {
    names: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl Metrics {
    pub fn new(names: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            names,
            values: vec![0.0; names.len()],
        }
    }

    fn index(&self, name: &str) -> usize {
        self.names
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the list"))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self.index(name);
        self.values[i] = value;
    }

    fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.names
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit), &v)| (name, v, unit))
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`. Values are printed
    /// with every digit (shortest round-trip form).
    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .iter()
            .map(|(name, v, unit)| {
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The result of one benchmark run.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.values.iter().all(|v| v.is_finite())
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The untraced run: repeated set-ups for `setup_s`, then seed runs —
/// each seed `REPETITIONS` times — until `--seconds` have passed.
///
/// Set-ups and seed runs are pinned to each allowed CPU in turn, and every timing is a median taken per CPU
/// and averaged: on a shared host one CPU can run the same code far
/// slower than another, and which one a process lands on is luck.
fn end_to_end<W: Workload>(w: &W, args: &Args) -> Outcome {
    print_host(args);
    let seeds = SeedSequence::new(args.seed);
    let cpus = host::allowed_cpus();
    let on_cpu = |i: usize| {
        let c = i % cpus.len();
        host::pin(&cpus[c..=c]);
        c
    };

    // Set-ups run in blocks, each pinned to one CPU after an untimed
    // warm-up set-up, so no timed set-up follows a migration.
    let mut setups = Vec::new();
    let blocks = SETUP_BLOCKS_PER_CPU * cpus.len();
    let per_block = (SETUPS.0.div_ceil(blocks), SETUPS.1 / blocks);
    let budget = Duration::from_secs_f64(args.seconds * SETUP_SHARE);
    let start = Instant::now();
    for b in 0..blocks {
        let c = on_cpu(b);
        drop(black_box(w.setup(seeds.seed_at(0))));
        let end = budget.mul_f64((b + 1) as f64 / blocks as f64);
        let mut count = 0;
        while count < per_block.0 || (start.elapsed() < end && count < per_block.1) {
            let seed = seeds.seed_at(setups.len() as u64);
            let t = Instant::now();
            let inst = black_box(w.setup(seed));
            setups.push((c, secs(t.elapsed())));
            drop(inst);
            count += 1;
        }
    }

    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut walls, mut to_consensus) = (Vec::new(), Vec::new());
    let (mut cpu_times, mut round_rates, mut message_rates) = (Vec::new(), Vec::new(), Vec::new());
    let (wait0, steal0) = (host::thread_runqueue_wait_s(), host::steal_s());
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut k = 0;
    while k < MIN_SEEDS || start.elapsed() < budget {
        let seed = seeds.seed_at(k);
        k += 1;
        let mut first: Option<(u64, u64)> = None;
        for rep in 0..REPETITIONS {
            attempted += 1;
            let c = on_cpu(attempted as usize);
            let mut inst = w.setup(seed);
            let (cpu0, t) = (host::process_cpu_s(), Instant::now());
            let driven = w.drive(&mut inst);
            let (wall, cpu_used) = (secs(t.elapsed()), host::process_cpu_s() - cpu0);
            let checked = driven.and_then(|d| {
                let digest = w.finish(inst, &d)?;
                match first {
                    Some(f) if f != (digest, d.to_consensus) => Err(format!(
                        "ended at digest {digest:#018x} after {} rounds, \
                         the first repetition at {:#018x} after {}",
                        d.to_consensus, f.0, f.1
                    )),
                    _ => Ok((digest, d)),
                }
            });
            match checked {
                Ok((digest, d)) => {
                    first.get_or_insert((digest, d.to_consensus));
                    walls.push((c, wall));
                    to_consensus.push(d.to_consensus as f64);
                    cpu_times.push((c, cpu_used));
                    round_rates.push((c, d.rounds as f64 / wall));
                    message_rates.push((c, d.messages as f64 / wall));
                }
                Err(e) => {
                    failed += 1;
                    eprintln!("perfbench: seed {seed:#x} repetition {rep}: {e}");
                }
            }
        }
    }
    host::pin(&cpus);
    let (wait, steal) = (
        host::thread_runqueue_wait_s() - wait0,
        host::steal_s() - steal0,
    );

    let settled = walls.len();
    let mut metrics = Metrics::new(&END_TO_END);
    metrics.set("setup_s", stats::balanced_median(&setups).unwrap_or(0.0));
    metrics.set(
        "time_to_consensus_s",
        stats::balanced_median(&walls).unwrap_or(0.0),
    );
    metrics.set(
        "rounds_per_s",
        stats::balanced_median(&round_rates).unwrap_or(0.0),
    );
    metrics.set("cpu_s", stats::balanced_median(&cpu_times).unwrap_or(0.0));
    metrics.set(
        "rounds_to_consensus",
        stats::median(&to_consensus).unwrap_or(0.0),
    );
    metrics.set("settled_share", settled as f64 / attempted as f64);
    metrics.set("peak_rss_mb", host::peak_rss_mb());
    metrics.set(
        "messages_per_s",
        stats::balanced_median(&message_rates).unwrap_or(0.0),
    );

    println!(
        "samples: {settled} seed runs ({k} seeds x {REPETITIONS}), {} set-ups, CPUs {cpus:?}",
        setups.len()
    );
    for (name, sample) in [("setup_s", &setups), ("time_to_consensus_s", &walls)] {
        for (c, id) in cpus.iter().enumerate() {
            let xs: Vec<f64> = sample.iter().filter(|s| s.0 == c).map(|s| s.1).collect();
            let Some(m) = stats::median(&xs) else {
                continue;
            };
            let tail = stats::tail(&xs).map_or(String::new(), |(p, v)| format!(", p{p} {v:.9} s"));
            println!(
                "{name} on CPU {id}: median {m:.9} s{tail}, {} samples",
                xs.len()
            );
        }
    }
    println!(
        "host: while stepping, main-thread runqueue wait {wait:.4} s, \
         hypervisor steal {steal:.2} s (all CPUs)"
    );
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

fn run(args: &Args) -> Outcome {
    match (args.workload.as_str(), args.trace) {
        ("sf-complete-64k", false) => end_to_end(&SfComplete, args),
        ("sf-complete-64k", true) => layers::per_agent(&SfComplete, args, SfComplete::N as u64),
        ("ssf-selfstab-1k", false) => end_to_end(&SsfSelfStab, args),
        ("ssf-selfstab-1k", true) => layers::per_agent(&SsfSelfStab, args, SsfSelfStab::N as u64),
        ("meanfield", false) => end_to_end(&MeanField, args),
        ("meanfield", true) => layers::counts(&MeanField, args),
        ("cluster-sim-512", false) => end_to_end(&ClusterSim, args),
        ("cluster-sim-512", true) => layers::cluster(&ClusterSim, args),
        (other, _) => unreachable!("workload {other} was validated"),
    }
}

/// Prints the host context every run records.
fn print_host(args: &Args) {
    println!(
        "host: {} ({} CPUs available), {STEP_THREADS} worker thread(s); workload {} seed {} \
         for {} s, trace {}",
        host::cpu_model(),
        host::parallelism(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cpu0 = host::process_cpu_s();
    let outcome = run(&args);
    println!("host: process CPU {:.3} s", host::process_cpu_s() - cpu0);
    for (name, v, unit) in outcome.metrics.iter() {
        println!("{name} = {v} {unit}");
    }
    let correct = outcome.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        outcome.metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(list: &[&str]) -> impl Iterator<Item = String> {
        list.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    /// `(name, unit)` pairs of one section of `BENCHMARK.json`, in order.
    fn declared(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let body = json
            .split(&format!("\"{section}\""))
            .nth(1)
            .expect("section present");
        let body = &body[..body.find(']').expect("section is a list")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|entry| {
                let name = &entry[..entry.find('"').expect("closing quote")];
                let unit = entry.split("\"unit\": \"").nth(1).expect("unit given");
                (
                    name.to_string(),
                    unit[..unit.find('"').expect("quote")].to_string(),
                )
            })
            .collect()
    }

    fn listed(names: &[(&str, &str)]) -> Vec<(String, String)> {
        names
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn emitted_metrics_match_benchmark_json() {
        assert_eq!(listed(&END_TO_END), declared("end_to_end"));
        assert_eq!(listed(&PER_LAYER), declared("per_layer"));
        let workloads: Vec<String> = declared_workloads();
        assert_eq!(workloads, WORKLOADS.map(String::from).to_vec());
    }

    fn declared_workloads() -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let body = json
            .split("\"workloads\"")
            .nth(1)
            .expect("workloads listed");
        let body = &body[..body.find(']').expect("a list")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|e| e[..e.find('"').expect("closing quote")].to_string())
            .collect()
    }

    #[test]
    fn metric_names_use_the_allowed_characters() {
        for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
    }

    #[test]
    fn json_prints_every_digit() {
        let mut m = Metrics::new(&END_TO_END);
        m.set("setup_s", 0.000_123_456_789_012_3);
        assert!(m
            .to_json()
            .contains("\"setup_s\": {\"value\": 0.0001234567890123, \"unit\": \"s\"}"));
        assert!(m
            .to_json()
            .contains("\"peak_rss_mb\": {\"value\": 0.0, \"unit\": \"MB\"}"));
    }

    #[test]
    fn arguments_are_checked() {
        let ok = parse_args(argv(&[
            "--workload",
            "meanfield",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]));
        assert_eq!(
            ok,
            Ok(Args {
                workload: "meanfield".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            })
        );
        for bad in [
            &[
                "--workload",
                "hit",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ][..],
            &[
                "--workload",
                "meanfield",
                "--seed",
                "x",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "meanfield",
                "--seed",
                "1",
                "--seconds",
                "0",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "meanfield",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &["--workload", "meanfield", "--seed", "1", "--seconds", "1"],
            &[
                "--workload",
                "meanfield",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
                "--x",
                "1",
            ],
            &["--workload"],
        ] {
            assert!(parse_args(argv(bad)).is_err(), "{bad:?}");
        }
    }
}
