//! The run driver every caller shares: [`JobSpec`] → world, one step loop
//! ([`drive`]) with two stop rules, one checkpoint policy and atomic
//! writer ([`checkpoint`]), and the seeded batch runner the experiment
//! binaries use ([`run_seeds`]).
//!
//! Every experiment measures the paper's Definition 2: reach the correct
//! consensus and keep it. The driver reports it as the *settle round* —
//! the first round from which consensus held to the end of the run
//! ([`StopRule::FullBudget`]). Sweeps and the scale bench only need the
//! first consensus round ([`StopRule::FirstConsensus`]) and stop there.

use std::io::Write;
use std::ops::ControlFlow;
use std::path::Path;
use std::time::{Duration, Instant};

use noisy_pull::adversary::SsfAdversary;
use noisy_pull::params::{SfParams, SsfParams};
use noisy_pull::sf::SourceFilter;
use noisy_pull::sf_alternating::AlternatingSourceFilter;
use noisy_pull::ssf::SelfStabilizingSourceFilter;
use np_engine::channel::ChannelKind;
use np_engine::counts::{CountsProtocol, CountsWorld};
use np_engine::population::PopulationConfig;
use np_engine::protocol::ColumnarProtocol;
use np_engine::push::{PushProtocol, PushWorld};
use np_engine::runner::{run_batch, suggested_threads};
use np_engine::snapshot::SnapshotState;
use np_engine::world::World;
use np_linalg::noise::NoiseMatrix;
use np_stats::estimate::Summary;
use np_stats::seeds::SeedSequence;

use crate::spec::{BackendKind, JobSpec, ProtocolKind};
use crate::{err, SweepError};

/// What [`drive`] needs from a world: step it and read its consensus.
pub trait Steps {
    /// Executes one synchronous round.
    fn step(&mut self);
    /// Rounds completed so far.
    fn round(&self) -> u64;
    /// Returns `true` if every agent holds the correct opinion.
    fn is_consensus(&self) -> bool;
    /// Agents holding the correct opinion.
    fn correct_count(&self) -> usize;
}

impl<P: ColumnarProtocol> Steps for World<P> {
    fn step(&mut self) {
        World::step(self);
    }
    fn round(&self) -> u64 {
        World::round(self)
    }
    fn is_consensus(&self) -> bool {
        World::is_consensus(self)
    }
    fn correct_count(&self) -> usize {
        World::correct_count(self)
    }
}

impl<P: CountsProtocol> Steps for CountsWorld<P> {
    fn step(&mut self) {
        CountsWorld::step(self);
    }
    fn round(&self) -> u64 {
        CountsWorld::round(self)
    }
    fn is_consensus(&self) -> bool {
        CountsWorld::is_consensus(self)
    }
    fn correct_count(&self) -> usize {
        CountsWorld::correct_count(self)
    }
}

impl<P: PushProtocol> Steps for PushWorld<P> {
    fn step(&mut self) {
        PushWorld::step(self);
    }
    fn round(&self) -> u64 {
        PushWorld::round(self)
    }
    fn is_consensus(&self) -> bool {
        PushWorld::is_consensus(self)
    }
    fn correct_count(&self) -> usize {
        PushWorld::correct_count(self)
    }
}

/// When [`drive`] stops before the budget is spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopRule {
    /// Stop at the first round in correct consensus.
    FirstConsensus,
    /// Run the whole budget, so the settle round is the first round from
    /// which consensus held to the end (Definition 2's reach-and-stay).
    FullBudget,
}

/// How a driven run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Finish {
    /// Rounds completed (the world's round counter).
    pub round: u64,
    /// Agents holding the correct opinion at the end.
    pub correct: usize,
    /// First round from which correct consensus held to the end of the
    /// run; `None` if the run ended out of consensus.
    pub settled: Option<u64>,
}

impl Finish {
    /// Returns `true` if the run ended in correct consensus.
    pub fn converged(&self) -> bool {
        self.settled.is_some()
    }
}

/// The one step loop. Steps `world` while `round < budget` (so a restored
/// world runs only what is left), tracking the last round out of
/// consensus. Under [`StopRule::FirstConsensus`] it stops at the first
/// round in consensus, before the hook. `on_round` runs after every other
/// step and may end the run early with [`ControlFlow::Break`]; the run
/// then finishes where it stands.
///
/// # Errors
///
/// Propagates the first error `on_round` returns.
pub fn drive<W: Steps, E>(
    world: &mut W,
    budget: u64,
    rule: StopRule,
    mut on_round: impl FnMut(&W) -> Result<ControlFlow<()>, E>,
) -> Result<Finish, E> {
    let mut last_bad = world.round();
    while world.round() < budget {
        world.step();
        if !world.is_consensus() {
            last_bad = world.round();
        } else if rule == StopRule::FirstConsensus {
            break;
        }
        if on_round(world)?.is_break() {
            break;
        }
    }
    Ok(Finish {
        round: world.round(),
        correct: world.correct_count(),
        settled: world.is_consensus().then_some(last_bad + 1),
    })
}

/// [`drive`] without a per-round hook.
pub fn settle<W: Steps>(world: &mut W, budget: u64, rule: StopRule) -> Finish {
    let Ok(finish) = drive(world, budget, rule, |_| {
        Ok::<_, std::convert::Infallible>(ControlFlow::Continue(()))
    });
    finish
}

/// The one checkpoint policy: after a step, out of consensus, on the
/// `every`-round cadence and with budget left, write `world`'s snapshot
/// to `path` atomically. A checkpoint therefore always has live work
/// after it. Returns whether a checkpoint was written.
///
/// # Errors
///
/// Returns [`SweepError`] for I/O failures.
pub fn checkpoint<P>(
    world: &World<P>,
    every: u64,
    budget: u64,
    path: &Path,
) -> Result<bool, SweepError>
where
    P: ColumnarProtocol,
    P::State: SnapshotState,
{
    if world.is_consensus() || !world.round().is_multiple_of(every) || world.round() >= budget {
        return Ok(false);
    }
    write_atomic(path, &world.snapshot())?;
    Ok(true)
}

/// Writes `bytes` to `path` atomically and durably: a `.tmp` sibling,
/// synced to disk, then a rename, then a sync of the directory holding
/// the new name — so a crash never leaves a torn file, and once this
/// returns (before any manifest record names the file) the bytes survive
/// a power loss. Creates parent directories.
///
/// # Errors
///
/// Propagates I/O errors.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    std::fs::create_dir_all(dir)?;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    // A rename is durable only once its directory entry is. Directories
    // open as files on Unix; elsewhere the rename's own guarantees stand.
    #[cfg(unix)]
    std::fs::File::open(dir)?.sync_all()?;
    Ok(())
}

/// Picks the cheaper of the two distribution-identical channels: literal
/// sampling for tiny `h`, aggregated binomial counts otherwise.
pub fn auto_channel(h: usize) -> ChannelKind {
    if h <= 8 {
        ChannelKind::Exact
    } else {
        ChannelKind::Aggregated
    }
}

/// What runs a job's world once [`JobSpec::build`] has made it: one
/// method per backend, each generic over the protocol.
pub(crate) trait RunWorld {
    /// What running the world produces.
    type Output;
    /// Runs a per-agent world for `budget` rounds at most.
    fn per_agent<P>(self, world: World<P>, budget: u64) -> Result<Self::Output, SweepError>
    where
        P: ColumnarProtocol,
        P::State: SnapshotState;
    /// Runs a mean-field world for `budget` rounds at most.
    fn mean_field<P: CountsProtocol>(
        self,
        world: CountsWorld<P>,
        budget: u64,
    ) -> Result<Self::Output, SweepError>;
}

impl JobSpec {
    /// The job's population.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError`] for invalid population parameters.
    pub fn config(&self) -> Result<PopulationConfig, SweepError> {
        PopulationConfig::new(self.n, self.s0, self.s1, self.h).map_err(err)
    }

    /// SF (and SF-ALT) parameters derived from the job.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError`] for invalid parameters.
    pub fn sf_params(&self) -> Result<SfParams, SweepError> {
        SfParams::derive(&self.config()?, self.delta, self.c1).map_err(err)
    }

    /// SSF parameters derived from the job.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError`] for invalid parameters.
    pub fn ssf_params(&self) -> Result<SsfParams, SweepError> {
        SsfParams::derive(&self.config()?, self.delta, self.c1).map_err(err)
    }

    /// The job's round budget: SF and SF-ALT run their full schedule, SSF
    /// runs `budget_intervals` update intervals.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError`] for invalid parameters.
    pub fn budget(&self) -> Result<u64, SweepError> {
        Ok(match self.protocol {
            ProtocolKind::Sf | ProtocolKind::SfAlt => self.sf_params()?.total_rounds(),
            ProtocolKind::Ssf => self.budget_intervals * self.ssf_params()?.update_interval(),
        })
    }

    /// The job's cross-field rules, checked here and nowhere else: an
    /// adversary needs SSF, and the mean-field backend — which has no
    /// per-agent rows and assumes exchangeability — runs neither SF-ALT,
    /// a restricted topology, an adversary nor the exact channel.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError`] naming the first rule the job breaks.
    pub fn check(&self) -> Result<(), SweepError> {
        if self.adversary != SsfAdversary::None && self.protocol != ProtocolKind::Ssf {
            return Err(SweepError(format!(
                "adversary {} needs protocol ssf, not {}",
                self.adversary,
                self.protocol.name()
            )));
        }
        if self.backend != BackendKind::MeanField {
            return Ok(());
        }
        let reject = |what: String, why: &str| {
            Err(SweepError(format!(
                "backend mean-field does not support {what}: {why}"
            )))
        };
        if self.protocol == ProtocolKind::SfAlt {
            return reject(
                "protocol sf-alt".into(),
                "no counts port of the alternating display",
            );
        }
        if !self.topology.is_complete() {
            return reject(
                format!("topology {}", self.topology.label()),
                "the counts engine assumes exchangeability over the complete graph",
            );
        }
        if self.adversary != SsfAdversary::None {
            return reject(
                format!("adversary {}", self.adversary),
                "initial corruption addresses individual agents",
            );
        }
        if self.channel == ChannelKind::Exact {
            return reject(
                "channel exact".into(),
                "the counts engine is defined over the aggregated with-replacement channel",
            );
        }
        Ok(())
    }

    /// The job's per-agent world for `protocol`: restored from `snapshot`
    /// when given (a snapshot carries its own seed, topology and state),
    /// otherwise fresh — uniform noise, the job's channel and seed, and
    /// its topology.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError`] if the job breaks [`Self::check`] or the
    /// world cannot be built or restored.
    pub fn world<P>(&self, protocol: &P, snapshot: Option<&[u8]>) -> Result<World<P>, SweepError>
    where
        P: ColumnarProtocol,
        P::State: SnapshotState,
    {
        self.check()?;
        if let Some(bytes) = snapshot {
            return World::restore(protocol, bytes).map_err(err);
        }
        let noise = NoiseMatrix::uniform(protocol.alphabet_size(), self.delta).map_err(err)?;
        let mut world =
            World::new(protocol, self.config()?, &noise, self.channel, self.seed).map_err(err)?;
        if !self.topology.is_complete() {
            world.set_topology(self.topology).map_err(err)?;
        }
        Ok(world)
    }

    /// [`Self::world`] for SSF, with the job's adversary corrupting a
    /// fresh world's initial states (a restored world already carries
    /// its effects).
    ///
    /// # Errors
    ///
    /// As [`Self::world`].
    pub fn ssf_world(
        &self,
        protocol: &SelfStabilizingSourceFilter,
        snapshot: Option<&[u8]>,
    ) -> Result<World<SelfStabilizingSourceFilter>, SweepError> {
        let mut world = self.world(protocol, snapshot)?;
        if snapshot.is_none() && self.adversary != SsfAdversary::None {
            let adversary = self.adversary;
            let correct = world.config().correct_opinion();
            let m = protocol.params().m();
            world.corrupt_agents(|id, agent, rng| adversary.corrupt(agent, correct, m, id, rng));
        }
        Ok(world)
    }

    /// The job's mean-field world for `protocol`.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError`] if the job breaks [`Self::check`] or the
    /// world cannot be built.
    pub fn counts_world<P: CountsProtocol>(
        &self,
        protocol: &P,
    ) -> Result<CountsWorld<P>, SweepError> {
        self.check()?;
        let noise = NoiseMatrix::uniform(protocol.alphabet_size(), self.delta).map_err(err)?;
        CountsWorld::new(protocol, self.config()?, &noise, self.seed).map_err(err)
    }

    /// Builds the job's world — per-agent (fresh or restored from
    /// `snapshot`) or mean-field, for its protocol — and hands it with
    /// the job's budget to `run`.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError`] for invalid jobs, or whatever `run` returns.
    pub(crate) fn build<R: RunWorld>(
        &self,
        snapshot: Option<&[u8]>,
        run: R,
    ) -> Result<R::Output, SweepError> {
        self.check()?;
        let budget = self.budget()?;
        match (self.backend, self.protocol) {
            (BackendKind::PerAgent, ProtocolKind::Sf) => {
                let protocol = SourceFilter::new(self.sf_params()?);
                run.per_agent(self.world(&protocol, snapshot)?, budget)
            }
            (BackendKind::PerAgent, ProtocolKind::SfAlt) => {
                let protocol = AlternatingSourceFilter::new(self.sf_params()?);
                run.per_agent(self.world(&protocol, snapshot)?, budget)
            }
            (BackendKind::PerAgent, ProtocolKind::Ssf) => {
                let protocol = SelfStabilizingSourceFilter::new(self.ssf_params()?);
                run.per_agent(self.ssf_world(&protocol, snapshot)?, budget)
            }
            (BackendKind::MeanField, ProtocolKind::Sf) => {
                let protocol = SourceFilter::new(self.sf_params()?);
                run.mean_field(self.counts_world(&protocol)?, budget)
            }
            (BackendKind::MeanField, ProtocolKind::Ssf) => {
                let protocol = SelfStabilizingSourceFilter::new(self.ssf_params()?);
                run.mean_field(self.counts_world(&protocol)?, budget)
            }
            // `check` rejects this pair; the arm only keeps the match total.
            (BackendKind::MeanField, ProtocolKind::SfAlt) => Err(SweepError(
                "backend mean-field does not support protocol sf-alt".into(),
            )),
        }
    }

    /// Runs the job in a fresh world to `rule`. The world runs one engine
    /// thread: batch callers parallelize across jobs, and stacking
    /// intra-round threads on top would only oversubscribe cores.
    /// Outcomes are thread-count-invariant either way.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError`] for invalid jobs.
    pub fn run(&self, rule: StopRule) -> Result<Finish, SweepError> {
        struct Settle(StopRule);
        impl RunWorld for Settle {
            type Output = Finish;
            fn per_agent<P>(self, mut world: World<P>, budget: u64) -> Result<Finish, SweepError>
            where
                P: ColumnarProtocol,
                P::State: SnapshotState,
            {
                world.set_threads(1);
                Ok(settle(&mut world, budget, self.0))
            }
            fn mean_field<P: CountsProtocol>(
                self,
                mut world: CountsWorld<P>,
                budget: u64,
            ) -> Result<Finish, SweepError> {
                Ok(settle(&mut world, budget, self.0))
            }
        }
        self.build(None, Settle(rule))
    }
}

/// One run of a seeded batch: the seed, how the run finished, and its
/// wall time (measured inside the batch worker, so it includes scheduler
/// contention; it feeds perf points, never byte-compared output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunRecord {
    /// The run's seed, drawn from the batch's [`SeedSequence`].
    pub seed: u64,
    /// How the run finished.
    pub finish: Finish,
    /// Wall-clock time of the run.
    pub wall: Duration,
}

/// Runs `runs` copies of `job`, the `i`-th with seed `seeds.seed_at(i)`,
/// in parallel across runs ([`suggested_threads`] workers). Records come
/// back in seed order and, wall times aside, depend only on the
/// arguments.
///
/// # Errors
///
/// Returns [`SweepError`] for invalid jobs.
pub fn run_seeds(
    job: &JobSpec,
    seeds: SeedSequence,
    runs: usize,
    rule: StopRule,
) -> Result<Vec<RunRecord>, SweepError> {
    run_batch(seeds, runs, suggested_threads(), |seed| {
        let job = JobSpec {
            seed,
            ..job.clone()
        };
        // xtask-allow: wall-clock (per-run timing feeds perf points only)
        let start = Instant::now();
        let finish = job.run(rule)?;
        Ok(RunRecord {
            seed,
            finish,
            wall: start.elapsed(),
        })
    })
    .into_iter()
    .collect()
}

/// Success rate of a batch plus a [`Summary`] of the settle rounds of its
/// converged runs (`None` if none converged).
pub fn summarize(records: &[RunRecord]) -> (f64, Option<Summary>) {
    if records.is_empty() {
        return (0.0, None);
    }
    let settled: Vec<f64> = records
        .iter()
        .filter_map(|r| r.finish.settled.map(|s| s as f64))
        .collect();
    let rate = settled.len() as f64 / records.len() as f64;
    (rate, Summary::from_values(&settled).ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_engine::topology::TopologySpec;

    #[test]
    fn settle_reports_the_first_stable_round() {
        let job = JobSpec::new(ProtocolKind::Sf, 64, 0.1);
        let finish = job.run(StopRule::FullBudget).unwrap();
        assert!(finish.converged(), "{finish:?}");
        assert_eq!(finish.round, job.budget().unwrap());
        let first = job.run(StopRule::FirstConsensus).unwrap();
        assert!(first.round <= finish.settled.unwrap());
        assert_eq!(first.settled, Some(first.round));
    }

    #[test]
    fn hook_can_stop_a_run_and_a_restored_world_runs_the_rest() {
        let job = JobSpec {
            seed: 3,
            ..JobSpec::new(ProtocolKind::Ssf, 64, 0.1)
        };
        let protocol = SelfStabilizingSourceFilter::new(job.ssf_params().unwrap());
        let budget = job.budget().unwrap();
        let mut straight = job.ssf_world(&protocol, None).unwrap();
        let want = settle(&mut straight, budget, StopRule::FullBudget);

        let mut world = job.ssf_world(&protocol, None).unwrap();
        let stopped = drive(&mut world, budget, StopRule::FullBudget, |w| {
            Ok::<_, SweepError>(if w.round() == 5 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            })
        })
        .unwrap();
        assert_eq!(stopped.round, 5);
        let snapshot = world.snapshot();
        let mut restored = job.ssf_world(&protocol, Some(&snapshot)).unwrap();
        let got = settle(&mut restored, budget, StopRule::FullBudget);
        assert_eq!(got.round, want.round);
        assert_eq!(got.correct, want.correct);
        assert_eq!(got.converged(), want.converged());
    }

    #[test]
    fn checkpoint_policy_and_atomic_write() {
        let dir = std::env::temp_dir().join("np_sweep_driver_checkpoint");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("nested").join("w.snap");
        let job = JobSpec::new(ProtocolKind::Sf, 32, 0.2);
        let protocol = SourceFilter::new(job.sf_params().unwrap());
        let mut world = job.world(&protocol, None).unwrap();
        world.step();
        // Off-cadence and at-budget rounds write nothing.
        assert!(!checkpoint(&world, 2, 100, &path).unwrap());
        assert!(!checkpoint(&world, 1, 1, &path).unwrap());
        assert!(!path.exists());
        assert!(checkpoint(&world, 1, 100, &path).unwrap());
        assert_eq!(std::fs::read(&path).unwrap(), world.snapshot());
        assert!(!dir.join("nested").join("w.snap.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_holds_the_mean_field_rules() {
        let mean_field = |protocol| JobSpec {
            backend: BackendKind::MeanField,
            ..JobSpec::new(protocol, 32, 0.1)
        };
        let reason = |job: JobSpec| job.check().unwrap_err().to_string();
        assert!(mean_field(ProtocolKind::Sf).check().is_ok());
        assert!(reason(mean_field(ProtocolKind::SfAlt)).contains("protocol sf-alt"));
        let ring = JobSpec {
            topology: TopologySpec::Ring { k: 2 },
            ..mean_field(ProtocolKind::Sf)
        };
        assert!(reason(ring).contains("topology ring:2"));
        let adversary = JobSpec {
            adversary: SsfAdversary::AllWrong,
            ..mean_field(ProtocolKind::Ssf)
        };
        assert!(reason(adversary).contains("adversary all-wrong"));
        let exact = JobSpec {
            channel: ChannelKind::Exact,
            ..mean_field(ProtocolKind::Sf)
        };
        assert!(reason(exact).contains("channel exact"));
        let sf_adversary = JobSpec {
            adversary: SsfAdversary::AllWrong,
            ..JobSpec::new(ProtocolKind::Sf, 32, 0.1)
        };
        assert!(reason(sf_adversary).contains("needs protocol ssf"));
        assert!(mean_field(ProtocolKind::SfAlt)
            .run(StopRule::FullBudget)
            .is_err());
    }

    #[test]
    fn run_seeds_is_seed_deterministic() {
        let job = JobSpec::new(ProtocolKind::Sf, 64, 0.1);
        let a = run_seeds(&job, SeedSequence::new(7), 4, StopRule::FullBudget).unwrap();
        let b = run_seeds(&job, SeedSequence::new(7), 4, StopRule::FullBudget).unwrap();
        let finishes = |r: &[RunRecord]| r.iter().map(|r| (r.seed, r.finish)).collect::<Vec<_>>();
        assert_eq!(finishes(&a), finishes(&b));
        let sequence = SeedSequence::new(7);
        let seeds: Vec<u64> = a.iter().map(|r| r.seed).collect();
        assert_eq!(
            seeds,
            (0..4).map(|i| sequence.seed_at(i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn summarize_reports_rates() {
        let record = |settled| RunRecord {
            seed: 0,
            finish: Finish {
                round: 100,
                correct: 0,
                settled,
            },
            wall: Duration::ZERO,
        };
        let (rate, summary) = summarize(&[record(Some(10)), record(None)]);
        assert_eq!(rate, 0.5);
        assert_eq!(summary.unwrap().mean(), 10.0);
        let (zero_rate, none) = summarize(&[]);
        assert_eq!(zero_rate, 0.0);
        assert!(none.is_none());
    }
}
