//! Repeated local majority over the `h` per-round observations.
//!
//! Majority dynamics converge extremely fast — to whichever opinion
//! already dominates the displays. With a handful of sources in a sea of
//! arbitrary initial opinions, the source signal (order `s/n` per
//! observation) is invisible to a single-round majority, so the population
//! locks into its initial majority regardless of the correct opinion. SF's
//! listening phases exist precisely to manufacture a population-wide bias
//! *before* switching to majority amplification; this baseline is that
//! amplification step alone.

use std::ops::Range;

use np_engine::opinion::Opinion;
use np_engine::population::{PopulationConfig, Role};
use np_engine::protocol::{AgentState, ColumnarProtocol, ColumnarState, Protocol};
use np_engine::streams::StreamRng;
use np_engine::streams::{RoundStreams, StreamStage};
use rand::Rng;

/// The h-majority baseline. Binary alphabet; sources display and keep
/// their preference, non-sources adopt the majority of each round's
/// observations (ties random).
///
/// # Example
///
/// ```
/// use np_baselines::majority::HMajority;
/// use np_engine::{channel::ChannelKind, population::PopulationConfig, world::World};
/// use np_linalg::noise::NoiseMatrix;
///
/// let config = PopulationConfig::new(64, 0, 1, 64)?;
/// let noise = NoiseMatrix::uniform(2, 0.1)?;
/// let mut world = World::new(&HMajority, config, &noise, ChannelKind::Aggregated, 2)?;
/// world.run(50);
/// // A single source cannot tip majority dynamics: on this seed the
/// // initial coin flips lock in the wrong side, so no consensus on 1.
/// assert!(!world.is_consensus());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HMajority;

/// Per-agent state of the h-majority baseline.
#[derive(Debug, Clone)]
pub struct MajorityAgent {
    role: Role,
    opinion: Opinion,
}

impl MajorityAgent {
    /// The agent's role.
    pub fn role(&self) -> Role {
        self.role
    }
}

impl Protocol for HMajority {
    type Agent = MajorityAgent;

    fn alphabet_size(&self) -> usize {
        2
    }

    fn init_agent(&self, role: Role, rng: &mut StreamRng) -> MajorityAgent {
        MajorityAgent {
            role,
            opinion: role.preference().unwrap_or(Opinion::from_bool(rng.gen())),
        }
    }
}

impl AgentState for MajorityAgent {
    fn display(&self, _rng: &mut StreamRng) -> usize {
        self.opinion.as_index()
    }

    fn update(&mut self, observed: &[u64], rng: &mut StreamRng) {
        if let Role::Source(pref) = self.role {
            self.opinion = pref;
            return;
        }
        self.opinion = match observed[1].cmp(&observed[0]) {
            std::cmp::Ordering::Greater => Opinion::One,
            std::cmp::Ordering::Less => Opinion::Zero,
            std::cmp::Ordering::Equal => Opinion::from_bool(rng.gen()),
        };
    }

    fn opinion(&self) -> Opinion {
        self.opinion
    }

    /// Memoryless dynamics: every agent is always in the single stage 0.
    /// Stated explicitly (the trait default is the same) so the baseline
    /// documents its lack of phase structure next to SF's schedule.
    fn stage_id(&self) -> u32 {
        0
    }
}

/// Columnar h-majority: bit-identical to [`HMajority`] on the same world
/// arguments (pinned round by round by this module's tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ColumnarHMajority;

/// Struct-of-arrays population state of the columnar h-majority baseline.
#[derive(Debug, Clone)]
pub struct MajorityColumns {
    role: Vec<Role>,
    opinion: Vec<Opinion>,
}

/// Disjoint mutable chunk view over [`MajorityColumns`].
#[derive(Debug)]
pub struct MajorityChunkMut<'a> {
    role: &'a [Role],
    opinion: &'a mut [Opinion],
}

impl ColumnarProtocol for ColumnarHMajority {
    type State = MajorityColumns;

    fn alphabet_size(&self) -> usize {
        2
    }

    fn init_state(&self, config: &PopulationConfig, streams: &RoundStreams) -> MajorityColumns {
        let n = config.n();
        let mut cols = MajorityColumns {
            role: Vec::with_capacity(n),
            opinion: Vec::with_capacity(n),
        };
        for (id, role) in config.iter_roles().enumerate() {
            // The scalar init evaluates `unwrap_or(coin)` eagerly, so the
            // coin is drawn for sources too; replicate that.
            let mut rng = streams.rng(id, StreamStage::Init);
            let coin = Opinion::from_bool(rng.gen());
            cols.role.push(role);
            cols.opinion.push(role.preference().unwrap_or(coin));
        }
        cols
    }
}

impl ColumnarState for MajorityColumns {
    type ChunkMut<'a>
        = MajorityChunkMut<'a>
    where
        Self: 'a;

    type Agent = MajorityAgent;

    fn len(&self) -> usize {
        self.role.len()
    }

    fn agent(&self, id: usize) -> MajorityAgent {
        MajorityAgent {
            role: self.role[id],
            opinion: self.opinion[id],
        }
    }

    fn set_agent(&mut self, id: usize, agent: MajorityAgent) {
        self.role[id] = agent.role;
        self.opinion[id] = agent.opinion;
    }

    fn display_chunk(&self, range: Range<usize>, out: &mut [usize], _streams: &RoundStreams) {
        for (slot, id) in out.iter_mut().zip(range) {
            *slot = self.opinion[id].as_index();
        }
    }

    fn display_chunk_packed(
        &self,
        range: Range<usize>,
        chunk: &mut np_engine::packed::PackedChunkMut<'_>,
        _streams: &RoundStreams,
    ) {
        debug_assert_eq!(chunk.start(), range.start);
        debug_assert_eq!(chunk.len(), range.len());
        // One plane (d = 2): the display is the opinion bit itself.
        for (w, opinions) in self.opinion[range].chunks(64).enumerate() {
            let mut bits = 0u64;
            for (b, &op) in opinions.iter().enumerate() {
                bits |= (op.as_index() as u64) << b;
            }
            chunk.set_plane_word(0, w, bits);
        }
    }

    fn chunks_mut(&mut self, chunk_len: usize) -> Vec<MajorityChunkMut<'_>> {
        let chunk_len = chunk_len.max(1);
        self.role
            .chunks(chunk_len)
            .zip(self.opinion.chunks_mut(chunk_len))
            .map(|(role, opinion)| MajorityChunkMut { role, opinion })
            .collect()
    }

    fn step_chunk(
        chunk: &mut MajorityChunkMut<'_>,
        range: Range<usize>,
        observed: &[u64],
        d: usize,
        streams: &RoundStreams,
        awake: Option<&[bool]>,
    ) {
        debug_assert_eq!(d, 2);
        for ((i, id), obs) in (0..chunk.role.len())
            .zip(range)
            .zip(observed.chunks_exact(d))
        {
            if awake.is_some_and(|mask| !mask[i]) {
                continue;
            }
            if let Role::Source(pref) = chunk.role[i] {
                chunk.opinion[i] = pref;
                continue;
            }
            chunk.opinion[i] = match obs[1].cmp(&obs[0]) {
                std::cmp::Ordering::Greater => Opinion::One,
                std::cmp::Ordering::Less => Opinion::Zero,
                std::cmp::Ordering::Equal => {
                    let mut rng = streams.rng(id, StreamStage::Update);
                    Opinion::from_bool(rng.gen())
                }
            };
        }
    }

    fn opinion(&self, id: usize) -> Opinion {
        self.opinion[id]
    }

    fn count_opinion(&self, opinion: Opinion) -> usize {
        self.opinion.iter().filter(|&&o| o == opinion).count()
    }

    /// Fused sweep: memoryless dynamics put every agent in stage 0 with
    /// no weak opinion, so only the correct count needs a lane pass —
    /// value-identical to the per-agent walk.
    fn metrics_sweep(&self, correct: Opinion) -> np_engine::metrics::MetricsSweep {
        let stages = if self.opinion.is_empty() {
            Vec::new()
        } else {
            vec![(0, self.opinion.len())]
        };
        np_engine::metrics::MetricsSweep {
            correct: self.opinion.iter().filter(|&&o| o == correct).count(),
            stages,
            ..Default::default()
        }
    }
}

impl np_engine::snapshot::SnapshotAgent for MajorityAgent {
    const SNAP_TAG: &'static str = "majority-agent/v1";

    fn encode_agent(&self, w: &mut np_engine::snapshot::SnapWriter) {
        w.put_role(self.role);
        w.put_opinion(self.opinion);
    }

    fn decode_agent(r: &mut np_engine::snapshot::SnapReader<'_>) -> np_engine::Result<Self> {
        Ok(MajorityAgent {
            role: r.take_role()?,
            opinion: r.take_opinion()?,
        })
    }
}

impl np_engine::snapshot::SnapshotState for MajorityColumns {
    const SNAP_TAG: &'static str = "majority-columns/v1";

    fn encode_state(&self, w: &mut np_engine::snapshot::SnapWriter) {
        let n = self.role.len();
        w.put_usize(n);
        for &role in &self.role {
            w.put_role(role);
        }
        for &opinion in &self.opinion {
            w.put_opinion(opinion);
        }
    }

    fn decode_state(r: &mut np_engine::snapshot::SnapReader<'_>) -> np_engine::Result<Self> {
        let n = r.take_usize()?;
        let cap = n.min(r.remaining());
        let mut role = Vec::with_capacity(cap);
        for _ in 0..n {
            role.push(r.take_role()?);
        }
        let mut opinion = Vec::with_capacity(cap);
        for _ in 0..n {
            opinion.push(r.take_opinion()?);
        }
        Ok(MajorityColumns { role, opinion })
    }
}

/// Mean-field class-count state of the h-majority baseline
/// ([`np_engine::counts`] backend).
///
/// Majority's memory is one round deep, so the class structure is a
/// single count: non-source agents holding opinion 1. Sources are
/// stubborn at their preference; each round every non-source
/// independently adopts the majority of `h` fresh observations from the
/// collapsed law (fair coin on ties), so the new count is
/// `Binom(#non-sources, majority_prob(h, q₁))` — exact under the
/// aggregated with-replacement collapse.
#[derive(Debug, Clone)]
pub struct MajorityCountsState {
    n: u64,
    s0: u64,
    s1: u64,
    /// Non-source agents holding opinion 1.
    non_ones: u64,
}

impl MajorityCountsState {
    /// Agents (sources included) currently holding opinion 1.
    pub fn ones(&self) -> u64 {
        self.non_ones + self.s1
    }
}

impl np_engine::counts::CountsProtocol for HMajority {
    type State = MajorityCountsState;

    fn alphabet_size(&self) -> usize {
        2
    }

    fn init_counts(&self, config: &PopulationConfig, rng: &mut StreamRng) -> MajorityCountsState {
        let n = config.n() as u64;
        let s0 = config.s0() as u64;
        let s1 = config.s1() as u64;
        // Sources start at their preference; non-sources flip a fair coin
        // (same law as `init_agent`).
        let non_ones = np_stats::binomial::sample_unchecked(rng, n - s0 - s1, 0.5);
        MajorityCountsState {
            n,
            s0,
            s1,
            non_ones,
        }
    }
}

impl np_engine::counts::CountsState for MajorityCountsState {
    fn display_histogram(&self, out: &mut [u64]) {
        out[1] = self.ones();
        out[0] = self.n - out[1];
    }

    fn advance_round(&mut self, obs_law: &[f64], h: u64, rng: &mut StreamRng) {
        let p_one = np_stats::binomial::majority_prob_unchecked(h, obs_law[1]);
        let non = self.n - self.s0 - self.s1;
        self.non_ones = np_stats::binomial::sample_unchecked(rng, non, p_one);
    }

    fn metrics_sweep(&self, correct: Opinion) -> np_engine::metrics::MetricsSweep {
        let n = self.n as usize;
        let ones = self.ones() as usize;
        np_engine::metrics::MetricsSweep {
            correct: match correct {
                Opinion::One => ones,
                Opinion::Zero => n - ones,
            },
            stages: vec![(0, n)],
            weak_formed: 0,
            weak_correct: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_engine::channel::ChannelKind;
    use np_engine::counts::CountsWorld;
    use np_engine::population::PopulationConfig;
    use np_engine::world::World;
    use np_linalg::noise::NoiseMatrix;
    use rand::SeedableRng;

    #[test]
    fn counts_port_converges_with_source_majority() {
        // Mirrors the engine's toy example: 40 one-sources out of 64 under
        // 10% noise drive majority dynamics to consensus.
        let config = PopulationConfig::new(64, 0, 40, 64).unwrap();
        let noise = NoiseMatrix::uniform(2, 0.1).unwrap();
        let mut w = CountsWorld::new(&HMajority, config, &noise, 42).unwrap();
        assert!(w.run_until_consensus(500).converged());
        assert_eq!(w.state().ones(), 64);
    }

    #[test]
    fn sources_are_stubborn() {
        let mut rng = StreamRng::seed_from_u64(0);
        let mut agent = HMajority.init_agent(Role::Source(Opinion::Zero), &mut rng);
        agent.update(&[0, 99], &mut rng);
        assert_eq!(agent.opinion(), Opinion::Zero);
    }

    #[test]
    fn non_source_takes_majority() {
        let mut rng = StreamRng::seed_from_u64(1);
        let mut agent = HMajority.init_agent(Role::NonSource, &mut rng);
        agent.update(&[2, 6], &mut rng);
        assert_eq!(agent.opinion(), Opinion::One);
        agent.update(&[6, 2], &mut rng);
        assert_eq!(agent.opinion(), Opinion::Zero);
    }

    #[test]
    fn ties_break_randomly() {
        let mut rng = StreamRng::seed_from_u64(2);
        let mut counts = [0u32; 2];
        for _ in 0..400 {
            let mut agent = HMajority.init_agent(Role::NonSource, &mut rng);
            agent.update(&[4, 4], &mut rng);
            counts[agent.opinion().as_index()] += 1;
        }
        assert!(counts[0] > 100 && counts[1] > 100, "{counts:?}");
    }

    #[test]
    fn amplifies_existing_majority_fast() {
        // Majority of stubborn sources: convergence in a handful of
        // rounds even under noise.
        let config = PopulationConfig::new(128, 0, 80, 128).unwrap();
        let noise = NoiseMatrix::uniform(2, 0.1).unwrap();
        let mut world = World::new(&HMajority, config, &noise, ChannelKind::Aggregated, 3).unwrap();
        let outcome = world.run_until_consensus(100);
        assert!(outcome.converged());
        assert!(outcome.rounds().unwrap() < 20);
    }

    #[test]
    fn columnar_matches_scalar_round_by_round() {
        let config = PopulationConfig::new(64, 2, 5, 64).unwrap();
        let noise = NoiseMatrix::uniform(2, 0.2).unwrap();
        let mut scalar =
            World::new(&HMajority, config, &noise, ChannelKind::Aggregated, 17).unwrap();
        let mut columnar = World::new(
            &ColumnarHMajority,
            config,
            &noise,
            ChannelKind::Aggregated,
            17,
        )
        .unwrap();
        assert_eq!(scalar.opinions(), columnar.opinions(), "init");
        for round in 0..40 {
            scalar.step();
            columnar.step();
            assert_eq!(scalar.opinions(), columnar.opinions(), "round {round}");
        }
    }

    #[test]
    fn cannot_reliably_spread_from_single_source() {
        // The failure that motivates SF: one source among random initial
        // opinions. Majority dynamics lock into whichever side the initial
        // coin flips favor — the source's signal (1/n per observation) is
        // invisible — so success is a ~fair coin per run. Twelve
        // consecutive successes would be a 2^-12 event.
        let mut converged = 0;
        for seed in 0..12 {
            let config = PopulationConfig::new(256, 0, 1, 256).unwrap();
            let noise = NoiseMatrix::uniform(2, 0.2).unwrap();
            let mut world =
                World::new(&HMajority, config, &noise, ChannelKind::Aggregated, seed).unwrap();
            if world.run_until_consensus(300).converged() {
                converged += 1;
            }
        }
        assert!(
            converged < 12,
            "single-source majority succeeded in all runs — it should behave like a coin flip"
        );
    }
}
