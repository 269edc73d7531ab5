//! The four workloads. Each one builds its inputs from a seed, runs the
//! stepping phase through the public entry points the CLI uses, and
//! checks the outcome. Why each workload exists is in `NOTES.md`.

use noisy_pull::adversary::SsfAdversary;
use noisy_pull::params::{SfParams, SsfParams};
use noisy_pull::sf::SourceFilter;
use noisy_pull::ssf::SelfStabilizingSourceFilter;
use np_engine::channel::ChannelKind;
use np_engine::counts::{CountsProtocol, CountsWorld};
use np_engine::metrics::RunOutcome;
use np_engine::population::PopulationConfig;
use np_engine::protocol::{ColumnarProtocol, ColumnarState};
use np_engine::snapshot::{SnapWriter, SnapshotState};
use np_engine::world::World;
use np_linalg::noise::NoiseMatrix;
use np_net::cluster::{ClusterConfig, Digest};
use np_net::faults::NetFaultPlan;
use np_net::sim::SimCluster;

/// What the stepping phase of one seed run produced.
#[derive(Debug, Clone, Copy)]
pub struct Driven {
    /// Rounds stepped (local rounds closed, on the cluster).
    pub rounds: u64,
    /// Rounds to the stopping condition: an exact per-seed count that
    /// must repeat on every repetition of the seed.
    pub to_consensus: u64,
    /// Messages pulled: `n·h` observations per round on the round
    /// engines, transport-counted messages on the cluster.
    pub messages: u64,
}

/// Worker threads every workload steps on. With two on a host of two
/// shared vCPUs, every round waits for whichever vCPU the hypervisor
/// stalls: ten 20-second runs of `sf-complete-64k` at two threads spread
/// by 0.60 (IQR ÷ median), two of them taking twice as long.
pub const STEP_THREADS: usize = 1;

/// One workload: set-up, the timed stepping phase, and outcome checks.
pub trait Workload {
    /// A set-up instance, ready for round 1.
    type Inst;
    /// Everything before round 1: parameters, construction, corruption.
    fn setup(&self, seed: u64) -> Self::Inst;
    /// The stepping phase, run to the stopping condition.
    fn drive(&self, inst: &mut Self::Inst) -> Result<Driven, String>;
    /// Checks the outcome and returns the digest of the final state.
    fn finish(&self, inst: Self::Inst, driven: &Driven) -> Result<u64, String>;
}

/// FNV-1a over the round count and the whole encoded population state
/// (the state section of a snapshot). Opinions alone would not do: at
/// consensus every trajectory ends with the same opinion vector, while
/// counters and memories still differ.
pub fn state_digest<S: SnapshotState>(round: u64, state: &S) -> u64 {
    let mut w = SnapWriter::new();
    state.encode_state(&mut w);
    let mut d = Digest::new();
    d.update_u64(round);
    d.update(&w.into_bytes());
    d.value()
}

/// Checks that every agent holds the sources' majority opinion and that
/// the world counts that opinion as correct.
fn check_majority<P: ColumnarProtocol>(world: &World<P>) -> Result<(), String> {
    let majority = world.config().correct_opinion();
    let n = world.config().n();
    let holding = world.state().count_opinion(majority);
    if world.correct_opinion() != majority || holding != n {
        return Err(format!(
            "round {}: {holding}/{n} agents hold the sources' majority opinion",
            world.round()
        ));
    }
    Ok(())
}

fn converged(outcome: RunOutcome) -> Result<u64, String> {
    match outcome {
        RunOutcome::Converged { rounds } => Ok(rounds),
        RunOutcome::TimedOut {
            budget,
            correct_at_end,
        } => Err(format!(
            "no consensus within {budget} rounds ({correct_at_end} correct)"
        )),
    }
}

/// One source and `h = n`: the paper's O(log n) regime.
fn single_source(n: usize) -> PopulationConfig {
    PopulationConfig::new(n, 0, 1, n).expect("a single-source population with h = n is valid")
}

/// `sf-complete-64k`: SF, n = 65 536, h = n, δ = 0.2, no observer, run
/// to consensus.
#[derive(Debug)]
pub struct SfComplete;

impl SfComplete {
    pub const N: usize = 65_536;
    pub const DELTA: f64 = 0.2;
}

/// A per-agent world and the protocol it was built from.
pub struct AgentInst<P: ColumnarProtocol> {
    pub world: World<P>,
    pub protocol: P,
    /// Round budget of the stopping rule.
    pub budget: u64,
    /// SSF update interval (the stable-consensus window and snapshot
    /// cadence); 0 for SF.
    pub interval: u64,
    /// The latest in-memory snapshot.
    pub snapshot: Option<Vec<u8>>,
}

impl Workload for SfComplete {
    type Inst = AgentInst<SourceFilter>;

    fn setup(&self, seed: u64) -> Self::Inst {
        let config = single_source(Self::N);
        let params = SfParams::derive(&config, Self::DELTA, 1.0).expect("valid SF parameters");
        let noise = NoiseMatrix::uniform(2, Self::DELTA).expect("valid noise level");
        let protocol = SourceFilter::new(params);
        let mut world = World::new(&protocol, config, &noise, ChannelKind::Aggregated, seed)
            .expect("alphabet sizes match");
        world.set_threads(STEP_THREADS);
        AgentInst {
            world,
            protocol,
            budget: params.total_rounds(),
            interval: 0,
            snapshot: None,
        }
    }

    fn drive(&self, inst: &mut Self::Inst) -> Result<Driven, String> {
        let rounds = converged(inst.world.run_until_consensus(inst.budget))?;
        Ok(Driven {
            rounds,
            to_consensus: rounds,
            messages: rounds * (Self::N * Self::N) as u64,
        })
    }

    fn finish(&self, inst: Self::Inst, _: &Driven) -> Result<u64, String> {
        check_majority(&inst.world)?;
        Ok(state_digest(inst.world.round(), inst.world.state()))
    }
}

/// `ssf-selfstab-1k`: SSF, n = 1024, h = n, δ = 0.2, c1 = 16, from
/// poisoned memories, trace recorded, a snapshot every update interval,
/// one thread, stopped once consensus has held for one interval.
#[derive(Debug)]
pub struct SsfSelfStab;

impl SsfSelfStab {
    pub const N: usize = 1024;
    pub const DELTA: f64 = 0.2;
    const C1: f64 = 16.0;
    /// Budget in update intervals; consensus holds from about 2 in.
    const BUDGET_INTERVALS: u64 = 20;
}

impl Workload for SsfSelfStab {
    type Inst = AgentInst<SelfStabilizingSourceFilter>;

    fn setup(&self, seed: u64) -> Self::Inst {
        let config = single_source(Self::N);
        let params =
            SsfParams::derive(&config, Self::DELTA, Self::C1).expect("valid SSF parameters");
        let noise = NoiseMatrix::uniform(4, Self::DELTA).expect("valid noise level");
        let protocol = SelfStabilizingSourceFilter::new(params);
        let mut world = World::new(&protocol, config, &noise, ChannelKind::Aggregated, seed)
            .expect("alphabet sizes match");
        world.set_threads(STEP_THREADS);
        let (correct, m) = (config.correct_opinion(), params.m());
        world.corrupt_agents(|id, agent, rng| {
            SsfAdversary::PoisonedMemory.corrupt(agent, correct, m, id, rng);
        });
        world.record_trace();
        let interval = params.update_interval();
        AgentInst {
            world,
            protocol,
            budget: Self::BUDGET_INTERVALS * interval,
            interval,
            snapshot: None,
        }
    }

    /// `run_until_stable_consensus(budget, interval)` with a snapshot
    /// taken every `interval` rounds, which that call has no hook for.
    fn drive(&self, inst: &mut Self::Inst) -> Result<Driven, String> {
        let world = &mut inst.world;
        let mut streak = 0;
        while streak < inst.interval {
            if world.round() >= inst.budget {
                return Err(format!(
                    "consensus did not hold for {} rounds within {} ({} correct)",
                    inst.interval,
                    inst.budget,
                    world.correct_count()
                ));
            }
            world.step();
            streak = if world.is_consensus() { streak + 1 } else { 0 };
            // Not at the final round, so the restore check in `finish`
            // always has rounds to replay.
            if streak < inst.interval && world.round().is_multiple_of(inst.interval) {
                inst.snapshot = Some(world.snapshot());
            }
        }
        let rounds = world.round();
        Ok(Driven {
            rounds,
            to_consensus: rounds + 1 - inst.interval,
            messages: rounds * (Self::N * Self::N) as u64,
        })
    }

    /// Besides consensus, restores the last snapshot, continues it to the
    /// final round and requires the same digest.
    fn finish(&self, inst: Self::Inst, _: &Driven) -> Result<u64, String> {
        check_majority(&inst.world)?;
        let digest = state_digest(inst.world.round(), inst.world.state());
        let bytes = inst.snapshot.ok_or("no snapshot was taken")?;
        let mut restored = World::restore(&inst.protocol, &bytes).map_err(|e| e.to_string())?;
        restored.set_threads(STEP_THREADS);
        let from = restored.round();
        restored.run(inst.world.round().saturating_sub(from));
        let resumed = state_digest(restored.round(), restored.state());
        if resumed != digest {
            return Err(format!(
                "snapshot from round {from} resumed to digest {resumed:#018x}, \
                 the straight run ended at {digest:#018x}"
            ));
        }
        Ok(digest)
    }
}

/// `meanfield`: the counts backend on SF at n = 3·10⁵ and SSF at n = 256
/// (c1 = 4), both run to consensus in one seed run.
#[derive(Debug)]
pub struct MeanField;

impl MeanField {
    pub const SF_N: usize = 300_000;
    pub const SF_DELTA: f64 = 0.2;
    pub const SSF_N: usize = 256;
    pub const SSF_DELTA: f64 = 0.1;
    const SSF_C1: f64 = 4.0;
    const SSF_BUDGET_INTERVALS: u64 = 20;
}

/// The two counts worlds of one `meanfield` seed run.
pub struct CountsInst {
    pub sf: CountsWorld<SourceFilter>,
    pub ssf: CountsWorld<SelfStabilizingSourceFilter>,
    pub sf_params: SfParams,
    pub ssf_params: SsfParams,
    pub ssf_budget: u64,
}

/// Steps a counts world until consensus, one `step(world)` call per
/// round (`CountsWorld::step` itself, or a timed wrapper around it).
pub fn counts_to_consensus<P: CountsProtocol>(
    world: &mut CountsWorld<P>,
    budget: u64,
    mut step: impl FnMut(&mut CountsWorld<P>),
) -> Result<u64, String> {
    while !world.is_consensus() {
        if world.round() >= budget {
            return Err(format!(
                "no mean-field consensus within {budget} rounds ({} of {} correct)",
                world.correct_count(),
                world.config().n()
            ));
        }
        step(world);
    }
    Ok(world.round())
}

fn check_counts_majority<P: CountsProtocol>(world: &CountsWorld<P>) -> Result<(), String> {
    if world.correct_opinion() != world.config().correct_opinion() || !world.is_consensus() {
        return Err(format!(
            "mean-field round {}: {} of {} hold the sources' majority opinion",
            world.round(),
            world.correct_count(),
            world.config().n()
        ));
    }
    Ok(())
}

impl Workload for MeanField {
    type Inst = CountsInst;

    fn setup(&self, seed: u64) -> Self::Inst {
        let sf_config = single_source(Self::SF_N);
        let sf_params =
            SfParams::derive(&sf_config, Self::SF_DELTA, 1.0).expect("valid SF parameters");
        let sf_noise = NoiseMatrix::uniform(2, Self::SF_DELTA).expect("valid noise level");
        let sf = CountsWorld::new(&SourceFilter::new(sf_params), sf_config, &sf_noise, seed)
            .expect("alphabet sizes match");
        let ssf_config = single_source(Self::SSF_N);
        let ssf_params = SsfParams::derive(&ssf_config, Self::SSF_DELTA, Self::SSF_C1)
            .expect("valid SSF parameters");
        let ssf_noise = NoiseMatrix::uniform(4, Self::SSF_DELTA).expect("valid noise level");
        let ssf = CountsWorld::new(
            &SelfStabilizingSourceFilter::new(ssf_params),
            ssf_config,
            &ssf_noise,
            seed,
        )
        .expect("alphabet sizes match");
        CountsInst {
            sf,
            ssf,
            sf_params,
            ssf_budget: Self::SSF_BUDGET_INTERVALS * ssf_params.update_interval(),
            ssf_params,
        }
    }

    fn drive(&self, inst: &mut Self::Inst) -> Result<Driven, String> {
        let sf = counts_to_consensus(&mut inst.sf, inst.sf_params.total_rounds(), |w| w.step())?;
        let ssf = counts_to_consensus(&mut inst.ssf, inst.ssf_budget, |w| w.step())?;
        Ok(Driven {
            rounds: sf + ssf,
            to_consensus: sf + ssf,
            messages: sf * (Self::SF_N * Self::SF_N) as u64
                + ssf * (Self::SSF_N * Self::SSF_N) as u64,
        })
    }

    fn finish(&self, inst: Self::Inst, _: &Driven) -> Result<u64, String> {
        check_counts_majority(&inst.sf)?;
        check_counts_majority(&inst.ssf)?;
        let mut d = Digest::new();
        let (sf, ssf) = (inst.sf.state(), inst.ssf.state());
        for v in [
            inst.sf.round(),
            sf.ones(),
            sf.weak_ones().unwrap_or(u64::MAX),
            inst.ssf.round(),
            ssf.ones(),
            ssf.non_source_weak_ones(),
            ssf.updates(),
        ] {
            d.update_u64(v);
        }
        Ok(d.value())
    }
}

/// `cluster-sim-512`: SSF on the simulated-time cluster, n = 512,
/// h = ⌈ln n⌉ = 7, δ = 0.02, c1 = 1, 150 µs + 150 µs jitter latency,
/// 20% drops, run until every node is correct.
#[derive(Debug)]
pub struct ClusterSim;

impl ClusterSim {
    pub const N: usize = 512;
    pub const H: usize = 7;
    pub const DELTA: f64 = 0.02;
    const BUDGET_INTERVALS: u64 = 50;
}

/// A simulated cluster and its local-round budget.
pub struct ClusterInst {
    pub cluster: SimCluster<noisy_pull::ssf::SsfAgent>,
    pub budget: u64,
}

impl Workload for ClusterSim {
    type Inst = ClusterInst;

    fn setup(&self, seed: u64) -> Self::Inst {
        let mut cfg = ClusterConfig::new(Self::N, 0, 1, Self::H, Self::DELTA, seed);
        cfg.min_latency_ns = 150_000;
        cfg.jitter_ns = 150_000;
        cfg.drop_rate = 0.2;
        let population = cfg.population().expect("valid cluster population");
        let params =
            SsfParams::derive(&population, Self::DELTA, 1.0).expect("valid SSF parameters");
        let protocol = SelfStabilizingSourceFilter::new(params);
        let cluster =
            SimCluster::new(&cfg, &protocol, &NetFaultPlan::new()).expect("valid cluster config");
        ClusterInst {
            cluster,
            budget: Self::BUDGET_INTERVALS * params.update_interval(),
        }
    }

    fn drive(&self, inst: &mut Self::Inst) -> Result<Driven, String> {
        let at = inst
            .cluster
            .run_until_correct(inst.budget)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("not every node correct within {} rounds", inst.budget))?;
        Ok(Driven {
            rounds: inst.cluster.max_closed_round(),
            to_consensus: at,
            messages: inst.cluster.messages_total(),
        })
    }

    fn finish(&self, inst: Self::Inst, _: &Driven) -> Result<u64, String> {
        let report = inst.cluster.report();
        if !report.converged || report.final_correct != report.n {
            return Err(format!(
                "{} of {} nodes hold the sources' majority opinion",
                report.final_correct, report.n
            ));
        }
        Ok(report.digest)
    }
}
