//! The traced run: per-layer numbers taken from outside the program by
//! timing calls into each layer's public functions. The program itself
//! carries no tracing.
//!
//! * Per-agent workloads re-drive the rounds of `World::step` call by
//!   call (display, law, fill, update, metrics sweep) from the state the
//!   workload's set-up produced, in lockstep with a timed `World::step`,
//!   and must reach the untraced run's state digest for the same seed and
//!   round count.
//! * `meanfield` times each `CountsWorld::step` and calls the law
//!   functions with the run's own sample counts and observation laws.
//! * `cluster-sim-512` reads the transport's counters and times
//!   `SimCluster::run_until_round` one local round per call.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use noisy_pull::counts::ssf_flush_law;
use np_engine::channel::{Channel, ChannelKind};
use np_engine::counts::{CountsProtocol, CountsState, CountsWorld};
use np_engine::opinion::Opinion;
use np_engine::packed::{self, PackedDisplays};
use np_engine::protocol::{ColumnarProtocol, ColumnarState};
use np_engine::runner;
use np_engine::snapshot::SnapshotState;
use np_engine::streams::{RoundStreams, StreamStage};
use np_engine::world::World;
use np_linalg::noise::NoiseMatrix;
use np_stats::binomial::{exceeds_prob_unchecked, sample_unchecked};
use np_stats::seeds::SeedSequence;

use crate::workloads::{
    counts_to_consensus, state_digest, AgentInst, ClusterSim, MeanField, SfComplete, SsfSelfStab,
    Workload, STEP_THREADS,
};
use crate::{host, secs, stats, Args, Metrics, Outcome, MIN_SEEDS, PER_LAYER};

/// How long each micro-benchmark of a single draw runs.
const MICRO: Duration = Duration::from_millis(50);

/// Per-layer values of one seed, by metric name.
type SeedValues = Vec<(&'static str, f64)>;

/// What one traced seed produced.
struct SeedTrace {
    values: SeedValues,
    /// Wall time of each round (or call), in seconds.
    steps: Vec<f64>,
}

/// Runs `trace_seed` over seeds from `--seed` until `--seconds` have
/// passed, then reports the median over seeds of every per-seed value,
/// the pooled step percentiles and the host context. `extra` adds the
/// run-wide values (micro-benchmarks) once the seeds are done.
fn traced_run(
    args: &Args,
    mut trace_seed: impl FnMut(u64) -> Result<SeedTrace, String>,
    extra: impl FnOnce(&mut Metrics),
) -> Outcome {
    crate::print_host(args);
    let seeds = SeedSequence::new(args.seed);
    let budget = Duration::from_secs_f64(args.seconds);
    let (cpu0, wait0, steal0) = (
        host::process_cpu_s(),
        host::thread_runqueue_wait_s(),
        host::steal_s(),
    );
    let start = Instant::now();
    let mut per_seed: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut steps = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut k = 0;
    while k < MIN_SEEDS || start.elapsed() < budget {
        let seed = seeds.seed_at(k);
        k += 1;
        attempted += 1;
        match trace_seed(seed) {
            Ok(trace) => {
                for (name, v) in trace.values {
                    per_seed.entry(name).or_default().push(v);
                }
                steps.extend(trace.steps);
            }
            Err(e) => {
                failed += 1;
                eprintln!("perfbench: seed {seed:#x}: {e}");
            }
        }
    }
    let mut metrics = Metrics::new(&PER_LAYER);
    for (name, values) in &per_seed {
        metrics.set(name, stats::median(values).unwrap_or(0.0));
    }
    let ms: Vec<f64> = steps.iter().map(|s| s * 1e3).collect();
    let p50 = stats::median(&ms).unwrap_or(0.0);
    metrics.set("step.p50_ms", p50);
    metrics.set("step.tail_ms", stats::tail(&ms).map_or(p50, |(_, v)| v));
    extra(&mut metrics);
    metrics.set(
        "host.runqueue_wait_s",
        host::thread_runqueue_wait_s() - wait0,
    );
    metrics.set("host.cpu_s", host::process_cpu_s() - cpu0);
    metrics.set("host.steal_s", host::steal_s() - steal0);
    metrics.set("host.parallelism", host::parallelism() as f64);
    metrics.set("host.threads", STEP_THREADS as f64);
    if let Some((p, v)) = stats::tail(&ms) {
        println!(
            "step: {} samples, p50 {p50:.4} ms, p{p} {v:.4} ms",
            ms.len()
        );
    }
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

/// ns per call of `draw`, run for [`MICRO`].
fn ns_per_call(mut draw: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < MICRO {
        for _ in 0..1000 {
            black_box(draw());
        }
        calls += 1000;
    }
    secs(start.elapsed()) * 1e9 / calls as f64
}

/// Time of a re-driven job's first and second layer call.
type Slot = (Duration, Duration);

/// Layer times summed over the re-driven rounds of one seed.
#[derive(Debug, Default)]
struct LayerTimes {
    display: Duration,
    law: Duration,
    fill: Duration,
    update: Duration,
    sweep: Duration,
    /// Wall time of the re-driven rounds, timers included.
    wall: Duration,
    /// `q₀` of the round-1 observation law.
    q0: f64,
}

/// Re-drives the rounds of `World::step` on its own copy of a state
/// through the public layer calls, in the order `World::step` makes them,
/// on a complete graph with the aggregated channel, no faults and
/// `STEP_THREADS` workers.
struct LayerReplay<S: ColumnarState> {
    state: S,
    channel: Channel,
    h: usize,
    seed: u64,
    /// With `Some(correct)`, each round ends with the metrics sweep an
    /// observed world makes.
    sweep_for: Option<Opinion>,
    chunk: usize,
    planes: PackedDisplays,
    /// The aggregated channel never reads scalar displays; `World::step`
    /// hands it a stale vector of this length too.
    displays: Vec<usize>,
    observations: Vec<u64>,
    times: LayerTimes,
}

impl<S: ColumnarState> LayerReplay<S> {
    fn new(state: S, channel: Channel, h: usize, seed: u64, sweep_for: Option<Opinion>) -> Self {
        let (n, d) = (state.len(), channel.alphabet_size());
        LayerReplay {
            state,
            channel,
            h,
            seed,
            sweep_for,
            chunk: packed::chunk_len_for(n, STEP_THREADS),
            planes: PackedDisplays::new(n, d),
            displays: vec![0; n],
            observations: vec![0; n * d],
            times: LayerTimes::default(),
        }
    }

    /// Runs round `round + 1` (streams are addressed by the rounds
    /// completed before it, as in `World::step`).
    fn round(&mut self, round: u64) {
        let start = Instant::now();
        let (d, h, chunk) = (self.channel.alphabet_size(), self.h, self.chunk);
        let streams = RoundStreams::new(self.seed, round);

        let plane_chunks = self.planes.chunks_mut(chunk);
        let mut hists = vec![0u64; plane_chunks.len() * d];
        let mut slots: Vec<Slot> = vec![Slot::default(); plane_chunks.len()];
        {
            let state = &self.state;
            let jobs: Vec<_> = plane_chunks
                .into_iter()
                .zip(hists.chunks_mut(d))
                .zip(slots.iter_mut())
                .collect();
            runner::scatter(STEP_THREADS, jobs, |((mut plane_chunk, hist), slot)| {
                let t = Instant::now();
                let first = plane_chunk.start();
                let len = plane_chunk.len();
                state.display_chunk_packed(first..first + len, &mut plane_chunk, &streams);
                plane_chunk.histogram_into(hist);
                slot.0 = t.elapsed();
            });
        }
        let display: Duration = slots.iter().map(|s| s.0).sum();
        let mut counts = vec![0u64; d];
        for partial in hists.chunks(d) {
            for (total, part) in counts.iter_mut().zip(partial) {
                *total += part;
            }
        }

        let t = Instant::now();
        let ctx = self
            .channel
            .begin_round_from_counts(counts, h)
            .expect("a nonempty display histogram of the channel's alphabet");
        let law = t.elapsed();
        if round == 0 {
            self.times.q0 = ctx.obs_law()[0];
        }

        let mut slots: Vec<Slot> = vec![Slot::default(); self.state.len().div_ceil(chunk)];
        {
            let (channel, displays) = (&self.channel, &self.displays);
            let jobs: Vec<_> = self
                .state
                .chunks_mut(chunk)
                .into_iter()
                .zip(self.observations.chunks_mut(chunk * d))
                .zip(slots.iter_mut())
                .enumerate()
                .map(|(i, ((view, obs), slot))| (i * chunk, view, obs, slot))
                .collect();
            runner::scatter(STEP_THREADS, jobs, |(first, mut view, obs, slot)| {
                let range = first..first + obs.len() / d;
                let t = Instant::now();
                channel.fill_observations_chunk(&ctx, displays, h, range.clone(), &streams, obs);
                slot.0 = t.elapsed();
                np_engine::invariants::check_observation_chunk(first, obs, d, h as u64);
                let t = Instant::now();
                S::step_chunk(&mut view, range, obs, d, &streams, None);
                slot.1 = t.elapsed();
            });
        }
        let fill: Duration = slots.iter().map(|s| s.0).sum();
        let update: Duration = slots.iter().map(|s| s.1).sum();

        let mut sweep = Duration::ZERO;
        if let Some(correct) = self.sweep_for {
            let t = Instant::now();
            black_box(self.state.metrics_sweep(correct));
            sweep = t.elapsed();
        }

        let times = &mut self.times;
        times.display += display;
        times.law += law;
        times.fill += fill;
        times.update += update;
        times.sweep += sweep;
        times.wall += start.elapsed();
    }
}

/// A per-agent workload whose rounds the traced run can re-drive.
pub trait AgentWorkload: Workload<Inst = AgentInst<Self::Protocol>> {
    type Protocol: ColumnarProtocol<State: Clone + SnapshotState>;
    const DELTA: f64;
    /// Whether `World::step` collects round metrics (a trace or an
    /// observer is attached).
    const OBSERVED: bool;
    /// Whether to time the same rounds at [`SPEEDUP_THREADS`] as well.
    const SPEEDUP: bool;
}

/// Thread count `runner.speedup_vs_1t` compares one thread against.
const SPEEDUP_THREADS: usize = 2;

impl AgentWorkload for SfComplete {
    type Protocol = noisy_pull::sf::SourceFilter;
    const DELTA: f64 = SfComplete::DELTA;
    const OBSERVED: bool = false;
    const SPEEDUP: bool = true;
}

impl AgentWorkload for SsfSelfStab {
    type Protocol = noisy_pull::ssf::SelfStabilizingSourceFilter;
    const DELTA: f64 = SsfSelfStab::DELTA;
    const OBSERVED: bool = true;
    const SPEEDUP: bool = false;
}

fn agent_seed<W: AgentWorkload>(w: &W, seed: u64, q0: &Cell<f64>) -> Result<SeedTrace, String> {
    // Untraced reference run, with its outcome checks.
    let mut inst = w.setup(seed);
    let driven = w.drive(&mut inst)?;
    let rounds = driven.rounds;
    let digest = w.finish(inst, &driven)?;

    // The same rounds twice in lockstep, so both see the same host: each
    // `World::step` timed (with the run's snapshots), then the same round
    // re-driven layer by layer.
    let mut inst = w.setup(seed);
    let noise =
        NoiseMatrix::uniform(inst.protocol.alphabet_size(), W::DELTA).map_err(|e| e.to_string())?;
    let world = &mut inst.world;
    let mut replay = LayerReplay::new(
        world.state().clone(),
        Channel::new(&noise, ChannelKind::Aggregated),
        world.config().h(),
        seed,
        W::OBSERVED.then(|| world.correct_opinion()),
    );
    let (mut steps, mut stepping) = (Vec::with_capacity(rounds as usize), Duration::ZERO);
    let (mut encode, mut snapshot) = (Duration::ZERO, None);
    for round in 0..rounds {
        let t = Instant::now();
        world.step();
        let dt = t.elapsed();
        stepping += dt;
        steps.push(secs(dt));
        if inst.interval > 0 && round + 1 < rounds && (round + 1).is_multiple_of(inst.interval) {
            let t = Instant::now();
            snapshot = Some(world.snapshot());
            encode += t.elapsed();
        }
        replay.round(round);
    }
    if state_digest(world.round(), world.state()) != digest {
        return Err("timed World::step run ended at another digest".into());
    }
    if state_digest(rounds, &replay.state) != digest {
        return Err(format!(
            "layer re-drive of {rounds} rounds ended at another digest than World::step"
        ));
    }
    let mut values = SeedValues::new();
    if let Some(bytes) = &snapshot {
        let t = Instant::now();
        let restored = World::restore(&inst.protocol, bytes).map_err(|e| e.to_string())?;
        let decode = t.elapsed();
        black_box(restored);
        values.extend([
            ("snapshot.encode_s", secs(encode)),
            ("snapshot.bytes", bytes.len() as f64),
            ("snapshot.decode_s", secs(decode)),
        ]);
    }

    if W::SPEEDUP {
        let mut inst = w.setup(seed);
        inst.world.set_threads(SPEEDUP_THREADS);
        let t = Instant::now();
        inst.world.run(rounds);
        let elapsed = t.elapsed();
        if state_digest(inst.world.round(), inst.world.state()) != digest {
            return Err(format!(
                "{SPEEDUP_THREADS} threads ended at another digest than 1"
            ));
        }
        values.push(("runner.speedup_vs_1t", secs(stepping) / secs(elapsed)));
    }

    let layers = &replay.times;
    q0.set(layers.q0);
    let samples = (rounds * (replay.state.len() * replay.h) as u64) as f64;
    values.extend([
        ("display.busy_s", secs(layers.display)),
        ("channel.law_s", secs(layers.law)),
        ("channel.fill_s", secs(layers.fill)),
        ("channel.samples", samples),
        ("channel.ns_per_sample", secs(layers.fill) * 1e9 / samples),
        ("update.busy_s", secs(layers.update)),
        ("metrics.sweep_s", secs(layers.sweep)),
        (
            "runner.overhead_s",
            secs(stepping)
                - secs(layers.display + layers.law + layers.fill + layers.update + layers.sweep),
        ),
        ("trace.overhead_share", secs(layers.wall) / secs(stepping)),
    ]);
    Ok(SeedTrace { values, steps })
}

/// The traced run of a per-agent workload.
pub fn per_agent<W: AgentWorkload>(w: &W, args: &Args, h: u64) -> Outcome {
    let q0 = Cell::new(0.5);
    let seed = args.seed;
    traced_run(
        args,
        |s| agent_seed(w, s, &q0),
        |m| {
            let mut rng = RoundStreams::new(seed, 0).rng(0, StreamStage::Observe);
            let p = q0.get();
            m.set(
                "stats.binomial_ns",
                ns_per_call(|| sample_unchecked(&mut rng, h, p)),
            );
        },
    )
}

/// The observation law a counts world's current displays induce.
fn obs_law<P: CountsProtocol>(world: &CountsWorld<P>, channel: &Channel) -> Vec<f64> {
    let mut hist = vec![0u64; channel.alphabet_size()];
    world.state().display_histogram(&mut hist);
    channel
        .begin_round_from_counts(hist, world.config().h())
        .expect("a nonempty display histogram of the channel's alphabet")
        .obs_law()
        .to_vec()
}

/// Steps a counts world to consensus like the untraced run, timing every
/// `CountsWorld::step`. `before` sees the world ahead of each step.
/// Appends each step's time and whether it evaluated a transition law.
fn timed_counts<P: CountsProtocol>(
    world: &mut CountsWorld<P>,
    budget: u64,
    is_law_round: impl Fn(u64) -> bool,
    mut before: impl FnMut(&CountsWorld<P>),
    steps: &mut Vec<(f64, bool)>,
) -> Result<(), String> {
    counts_to_consensus(world, budget, |world| {
        before(world);
        let t = Instant::now();
        world.step();
        steps.push((secs(t.elapsed()), is_law_round(world.round())));
    })?;
    Ok(())
}

fn counts_seed(w: &MeanField, seed: u64) -> Result<SeedTrace, String> {
    let mut inst = w.setup(seed);
    let t = Instant::now();
    let driven = w.drive(&mut inst)?;
    let untraced = t.elapsed();
    w.finish(inst, &driven)?;

    let mut inst = w.setup(seed);
    let sf = inst.sf_params;
    let (t_len, sub, last, short) = (
        sf.phase_len(),
        sf.subphase_len(),
        sf.final_subphase_len(),
        sf.num_short_subphases(),
    );
    // SF evaluates a law where listening ends (weak formation) and where
    // each boosting sub-phase ends.
    let sf_law_round = |r: u64| {
        r == 2 * t_len
            || (r > 2 * t_len
                && r <= 2 * t_len + short * sub
                && (r - 2 * t_len).is_multiple_of(sub))
            || r == 2 * t_len + short * sub + last
    };
    let sf_channel = Channel::new(
        &NoiseMatrix::uniform(2, MeanField::SF_DELTA).map_err(|e| e.to_string())?,
        ChannelKind::Aggregated,
    );
    let (mut listen0, mut listen1) = (Vec::new(), Vec::new());
    let mut steps = Vec::new();
    let t = Instant::now();
    let capture = |world: &CountsWorld<_>| {
        if world.round() == 0 {
            listen0 = obs_law(world, &sf_channel);
        } else if world.round() == t_len {
            listen1 = obs_law(world, &sf_channel);
        }
    };
    timed_counts(
        &mut inst.sf,
        sf.total_rounds(),
        sf_law_round,
        capture,
        &mut steps,
    )?;

    let interval = inst.ssf_params.update_interval();
    let ssf_channel = Channel::new(
        &NoiseMatrix::uniform(4, MeanField::SSF_DELTA).map_err(|e| e.to_string())?,
        ChannelKind::Aggregated,
    );
    let mut interval_laws = Vec::new();
    let capture = |world: &CountsWorld<_>| {
        if world.round().is_multiple_of(interval) {
            interval_laws.push(obs_law(world, &ssf_channel));
        }
    };
    let flush_round = |r: u64| r.is_multiple_of(interval);
    timed_counts(
        &mut inst.ssf,
        inst.ssf_budget,
        flush_round,
        capture,
        &mut steps,
    )?;
    let traced = t.elapsed();
    let rounds = inst.sf.round() + inst.ssf.round();
    if rounds != driven.to_consensus {
        return Err(format!(
            "timed steps reached consensus after {rounds} rounds, the run after {}",
            driven.to_consensus
        ));
    }

    // The law functions, with the run's own sample counts and laws.
    let trials = t_len * MeanField::SF_N as u64;
    let t = Instant::now();
    black_box(exceeds_prob_unchecked(
        trials, listen0[1], trials, listen1[0],
    ));
    let sf_boundary = t.elapsed();
    let flush_samples = interval * MeanField::SSF_N as u64;
    let flushes = (inst.ssf.round() / interval) as usize;
    let t = Instant::now();
    for q in interval_laws.iter().take(flushes) {
        let q: [f64; 4] = q
            .as_slice()
            .try_into()
            .map_err(|_| "SSF law of 4 symbols")?;
        black_box(ssf_flush_law(flush_samples, &q));
    }
    let flush = t.elapsed();

    let law: Vec<f64> = steps.iter().filter(|s| s.1).map(|s| s.0).collect();
    let plain: f64 = steps.iter().filter(|s| !s.1).map(|s| s.0).sum();
    Ok(SeedTrace {
        values: vec![
            ("counts.law_rounds", law.len() as f64),
            ("counts.law_round_s", law.iter().sum()),
            ("counts.plain_round_s", plain),
            ("counts.sf_boundary_law_s", secs(sf_boundary)),
            ("counts.flush_law_s", secs(flush)),
            ("trace.overhead_share", secs(traced) / secs(untraced)),
        ],
        steps: steps.into_iter().map(|s| s.0).collect(),
    })
}

/// The traced run of `meanfield`.
pub fn counts(w: &MeanField, args: &Args) -> Outcome {
    traced_run(args, |s| counts_seed(w, s), |_| {})
}

fn cluster_seed(w: &ClusterSim, seed: u64) -> Result<SeedTrace, String> {
    let mut inst = w.setup(seed);
    let t = Instant::now();
    let driven = w.drive(&mut inst)?;
    let untraced = t.elapsed();
    let report = inst.cluster.report();
    w.finish(inst, &driven)?;

    let mut inst = w.setup(seed);
    let mut steps = Vec::new();
    let t = Instant::now();
    let mut round = 0;
    while !inst.cluster.all_correct() {
        if round >= inst.budget {
            return Err(format!(
                "not every node correct within {} rounds",
                inst.budget
            ));
        }
        round += 1;
        let t = Instant::now();
        inst.cluster
            .run_until_round(round)
            .map_err(|e| e.to_string())?;
        steps.push(secs(t.elapsed()));
    }
    let traced = t.elapsed();

    let messages = report.messages_total as f64;
    let useful = report.messages_total - report.drops_total - report.stale_total;
    Ok(SeedTrace {
        values: vec![
            ("sim.messages", messages),
            ("sim.drops", report.drops_total as f64),
            ("sim.stale", report.stale_total as f64),
            ("sim.skipped_rounds", report.skipped_total as f64),
            ("sim.useful_share", useful as f64 / messages),
            ("sim.ns_per_message", secs(untraced) * 1e9 / messages),
            ("trace.overhead_share", secs(traced) / secs(untraced)),
        ],
        steps,
    })
}

/// The traced run of `cluster-sim-512`.
pub fn cluster(w: &ClusterSim, args: &Args) -> Outcome {
    let seed = args.seed;
    traced_run(
        args,
        |s| cluster_seed(w, s),
        |m| {
            let noise = NoiseMatrix::uniform(4, ClusterSim::DELTA).expect("valid noise level");
            // The transport applies the exact channel, one message at a time.
            let channel = Channel::new(&noise, ChannelKind::Exact);
            let mut rng = RoundStreams::new(seed, 0).rng(0, StreamStage::Observe);
            let mut symbol = 0;
            m.set(
                "channel.observe_one_ns",
                ns_per_call(|| {
                    symbol = (symbol + 1) % 4;
                    channel.observe_one(&mut rng, symbol) as u64
                }),
            );
        },
    )
}
