//! The protocol abstraction: what a spreading algorithm must provide to run
//! on the engine.
//!
//! Two levels exist:
//!
//! * The **population** level — [`ColumnarProtocol`] / [`ColumnarState`] —
//!   one struct-of-arrays state for the whole population, processed in
//!   agent *chunks*. This is what [`crate::world::World`] runs: chunks go
//!   to scoped threads, and per-agent RNG streams ([`crate::streams`])
//!   keep the result bit-identical for any thread count or chunk size.
//!   Every state also reads and writes one agent at a time as a plain
//!   record ([`ColumnarState::agent`] / [`ColumnarState::set_agent`]), the
//!   seam for per-agent inspection, adversarial corruption and
//!   message-passing nodes.
//!
//! * The **agent** level — [`Protocol`] / [`AgentState`] — one state
//!   machine per agent. An [`AgentState`] is the record type of a
//!   population state and steps on its own (the message-passing runtime
//!   drives records node by node). A [`Protocol`] is the short way to write
//!   a simple protocol: the blanket adapter
//!   (`impl<P: Protocol> ColumnarProtocol for P`) runs it on a
//!   [`ScalarState`], a plain `Vec` of agents chunked by sub-slices.
//!
//! # Why observations are count vectors
//!
//! In the noisy PULL model agents are anonymous: an observation carries no
//! sender identity, only a (noisy) symbol. Every algorithm in the paper —
//! SF's counters, SSF's majority-over-memory, the boosting majority — is a
//! symmetric function of the received *multiset* of symbols, and a multiset
//! over `Σ` is exactly a count vector of length `|Σ|`. Delivering counts is
//! therefore lossless, and it is what allows the aggregated channel to skip
//! materializing individual messages.

use std::ops::Range;

use crate::streams::StreamRng;

use crate::metrics::MetricsSweep;
use crate::opinion::Opinion;
use crate::packed::PackedChunkMut;
use crate::population::{PopulationConfig, Role};
use crate::streams::{RoundStreams, StreamStage};

/// A spreading algorithm: a factory of per-agent state machines plus static
/// protocol metadata.
pub trait Protocol {
    /// The per-agent state machine type.
    type Agent: AgentState;

    /// Size of the communication alphabet `|Σ|` (2 for SF, 4 for SSF).
    fn alphabet_size(&self) -> usize;

    /// Creates the initial state for an agent with the given role.
    ///
    /// `rng` may be used for randomized initialization; the engine passes
    /// the agent's [`StreamStage::Init`] stream.
    fn init_agent(&self, role: Role, rng: &mut StreamRng) -> Self::Agent;
}

/// The per-agent, per-round behaviour of a protocol.
///
/// `Send + Sync` is required because the world shares agent state across
/// chunk workers, and `Clone` because population states hand out copies
/// of their records ([`ColumnarState::agent`]); agent states are plain
/// data, so the bounds are free.
pub trait AgentState: Clone + Send + Sync {
    /// The symbol (index into `Σ`) this agent displays this round.
    ///
    /// Called exactly once per round, *before* any observations are
    /// delivered, matching step 1 of the model. `rng` is the agent's
    /// [`StreamStage::Display`] stream for the round.
    fn display(&self, rng: &mut StreamRng) -> usize;

    /// Consumes this round's observations: `observed[σ]` is how many of the
    /// agent's `h` samples arrived (post-noise) as symbol `σ`. `rng` is the
    /// agent's [`StreamStage::Update`] stream for the round.
    fn update(&mut self, observed: &[u64], rng: &mut StreamRng);

    /// The agent's current opinion `Y ∈ {0, 1}`.
    fn opinion(&self) -> Opinion;

    /// A small integer naming the agent's current phase/stage, for
    /// observability only (stage-occupancy counts in
    /// [`crate::metrics::RoundMetrics`]). Protocols with phase structure
    /// override this (e.g. SF reports Listen₀ → Listen₁ → Boost(k) → Done);
    /// the default reports a single stage `0`. Must not consume randomness
    /// or mutate state.
    fn stage_id(&self) -> u32 {
        0
    }

    /// The agent's weak opinion `Y_w`, once formed — `None` before it
    /// exists or for protocols without one. Observability only; the
    /// default reports `None`.
    fn weak_opinion(&self) -> Option<Opinion> {
        None
    }

    /// Inverts this agent's source preference, if it has one — the
    /// "trend change" fault of [`crate::faults`] (the environment's
    /// ground truth flips mid-run). Returns `true` if a preference was
    /// flipped. The default is a no-op: protocols whose roles carry a
    /// preference opt in.
    fn flip_source_preference(&mut self) -> bool {
        false
    }
}

/// A spreading algorithm in columnar form: a factory for one
/// struct-of-arrays population state.
///
/// Implemented automatically for every [`Protocol`] (via [`ScalarState`]);
/// implement it directly to run on struct-of-arrays lanes.
pub trait ColumnarProtocol {
    /// The whole-population state type.
    type State: ColumnarState;

    /// Size of the communication alphabet `|Σ|`.
    fn alphabet_size(&self) -> usize;

    /// Builds the initial population state. Implementations must draw each
    /// agent's initialization randomness from
    /// `streams.rng(id, StreamStage::Init)`, so every consumer of the
    /// state — the world, a message-passing cluster, a per-agent reference
    /// run — starts from the same agents.
    fn init_state(&self, config: &PopulationConfig, streams: &RoundStreams) -> Self::State;
}

/// Whole-population protocol state, processable in agent chunks.
///
/// The world drives one round as: [`ColumnarState::display_chunk_packed`]
/// over disjoint ranges (shared `&self`), then the channel fills
/// observations, then [`ColumnarState::step_chunk`] over the disjoint
/// mutable views produced by [`ColumnarState::chunks_mut`]. Everything
/// else — inspection, corruption, the trend-change fault, message-passing
/// nodes — goes one agent at a time through the record seam
/// ([`ColumnarState::agent`] / [`ColumnarState::set_agent`]). All
/// randomness comes from the per-agent streams passed in, never from
/// shared state — that is the whole-engine invariant making results
/// independent of chunking.
pub trait ColumnarState: Send + Sync {
    /// A mutable view of one contiguous agent chunk, safe to hand to a
    /// worker thread.
    type ChunkMut<'a>: Send
    where
        Self: 'a;

    /// The plain per-agent record of this state: what the per-agent
    /// surfaces — [`crate::world::World::agent`], adversarial corruption,
    /// message-passing nodes — read and write.
    type Agent: AgentState;

    /// Number of agents.
    fn len(&self) -> usize;

    /// A copy of agent `id`'s record.
    ///
    /// # Panics
    ///
    /// Panics if `id >= self.len()`.
    fn agent(&self, id: usize) -> Self::Agent;

    /// Overwrites agent `id`'s record.
    ///
    /// # Panics
    ///
    /// Panics if `id >= self.len()`.
    fn set_agent(&mut self, id: usize, agent: Self::Agent);

    /// Returns `true` for an empty population (never built by the world;
    /// provided for completeness).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes the displayed symbols of agents `range` into a packed
    /// bit-plane chunk ([`crate::packed`]) — the representation the round
    /// loop runs on. `chunk` covers exactly the agents of `range`
    /// (`chunk.start() == range.start`, `chunk.len() == range.len()`);
    /// implementations must clear it first (or overwrite every word) and
    /// must produce **the same symbols** as [`AgentState::display`] on
    /// each agent's record for the same streams — the
    /// packed-vs-per-agent equivalence tests hold every implementation to
    /// that. Implementations needing display randomness must use
    /// `streams.rng(id, StreamStage::Display)` per agent.
    ///
    /// The blanket [`ScalarState`] adapter displays agent by agent in
    /// 64-agent windows; lane states write bit planes directly.
    fn display_chunk_packed(
        &self,
        range: Range<usize>,
        chunk: &mut PackedChunkMut<'_>,
        streams: &RoundStreams,
    );

    /// Splits the population into disjoint mutable chunk views of
    /// `chunk_len` agents each (the last may be shorter), in agent order.
    fn chunks_mut(&mut self, chunk_len: usize) -> Vec<Self::ChunkMut<'_>>;

    /// Updates the agents of one chunk. `range` holds the global agent ids
    /// covered by `chunk`; `observed` is the flattened
    /// `range.len() × d` observation-count matrix for exactly those
    /// agents. Update randomness comes from
    /// `streams.rng(id, StreamStage::Update)` per agent.
    ///
    /// `awake`, when present, is the chunk-local sleep mask of the fault
    /// subsystem ([`crate::faults`]): agents with `awake[i] == false` are
    /// asleep this round — they displayed, but their update is skipped
    /// entirely (state untouched, no update randomness drawn). `None`
    /// means everyone is awake (the fault-free fast path).
    ///
    /// An associated function (no `&self`) so the world needs no protocol
    /// reference after initialization.
    fn step_chunk(
        chunk: &mut Self::ChunkMut<'_>,
        range: Range<usize>,
        observed: &[u64],
        d: usize,
        streams: &RoundStreams,
        awake: Option<&[bool]>,
    );

    /// Number of agents currently holding `opinion` — a sweep of the
    /// opinion column, run after every round by the consensus checks.
    fn count_opinion(&self, opinion: Opinion) -> usize;

    /// One observability sweep over the population: correct-opinion
    /// count, stage occupancy, and weak-opinion accuracy, all relative to
    /// `correct` — what [`crate::world::World`] collects into
    /// [`crate::metrics::RoundMetrics`] each observed round. It must equal
    /// [`MetricsSweep::from_agents`] over every agent's record (the
    /// run-summary artifacts are byte-compared); lane states compute it
    /// in one fused pass over their lanes.
    fn metrics_sweep(&self, correct: Opinion) -> MetricsSweep;
}

/// The adapter state behind the blanket `Protocol → ColumnarProtocol`
/// impl: a plain vector of agents, chunked by sub-slices.
#[derive(Debug, Clone)]
pub struct ScalarState<A> {
    agents: Vec<A>,
}

impl<A> ScalarState<A> {
    /// Builds a state from agents in id order.
    pub fn from_agents(agents: Vec<A>) -> Self {
        ScalarState { agents }
    }

    /// Read access to the underlying agents, in id order.
    pub fn agents(&self) -> &[A] {
        &self.agents
    }
}

impl<A: AgentState> ColumnarState for ScalarState<A> {
    type ChunkMut<'a>
        = &'a mut [A]
    where
        Self: 'a;

    type Agent = A;

    fn len(&self) -> usize {
        self.agents.len()
    }

    fn agent(&self, id: usize) -> A {
        self.agents[id].clone()
    }

    fn set_agent(&mut self, id: usize, agent: A) {
        self.agents[id] = agent;
    }

    fn display_chunk_packed(
        &self,
        range: Range<usize>,
        chunk: &mut PackedChunkMut<'_>,
        streams: &RoundStreams,
    ) {
        debug_assert_eq!(chunk.start(), range.start);
        debug_assert_eq!(chunk.len(), range.len());
        chunk.clear();
        let d = chunk.alphabet_size();
        // Agents produce symbols one at a time; pack through a stack
        // window so the alphabet invariant is checked before any symbol
        // reaches the planes, with a panic naming the global agent id.
        let mut window = [0usize; 64];
        let mut start = range.start;
        let mut local = 0;
        while start < range.end {
            let take = 64.min(range.end - start);
            let buf = &mut window[..take];
            for (slot, id) in buf.iter_mut().zip(start..) {
                let mut rng = streams.rng(id, StreamStage::Display);
                *slot = self.agents[id].display(&mut rng);
            }
            crate::invariants::check_displays_chunk(start, buf, d);
            for (k, &s) in buf.iter().enumerate() {
                chunk.set(local + k, s);
            }
            start += take;
            local += take;
        }
    }

    fn chunks_mut(&mut self, chunk_len: usize) -> Vec<Self::ChunkMut<'_>> {
        self.agents.chunks_mut(chunk_len.max(1)).collect()
    }

    fn step_chunk(
        chunk: &mut Self::ChunkMut<'_>,
        range: Range<usize>,
        observed: &[u64],
        d: usize,
        streams: &RoundStreams,
        awake: Option<&[bool]>,
    ) {
        for (i, ((agent, id), obs)) in chunk
            .iter_mut()
            .zip(range)
            .zip(observed.chunks_exact(d))
            .enumerate()
        {
            if awake.is_some_and(|mask| !mask[i]) {
                continue;
            }
            let mut rng = streams.rng(id, StreamStage::Update);
            agent.update(obs, &mut rng);
        }
    }

    fn count_opinion(&self, opinion: Opinion) -> usize {
        self.agents
            .iter()
            .filter(|a| a.opinion() == opinion)
            .count()
    }

    fn metrics_sweep(&self, correct: Opinion) -> MetricsSweep {
        MetricsSweep::from_agents(
            correct,
            self.agents
                .iter()
                .map(|a| (a.opinion(), a.stage_id(), a.weak_opinion())),
        )
    }
}

impl<P: Protocol> ColumnarProtocol for P {
    type State = ScalarState<P::Agent>;

    fn alphabet_size(&self) -> usize {
        Protocol::alphabet_size(self)
    }

    fn init_state(&self, config: &PopulationConfig, streams: &RoundStreams) -> Self::State {
        let agents = config
            .iter_roles()
            .enumerate()
            .map(|(id, role)| {
                let mut rng = streams.rng(id, StreamStage::Init);
                self.init_agent(role, &mut rng)
            })
            .collect();
        ScalarState { agents }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationConfig;
    use rand::SeedableRng;

    /// A protocol that displays its opinion and never changes it — enough
    /// to exercise the trait plumbing.
    struct Stubborn;
    #[derive(Clone)]
    struct StubbornAgent(Opinion);

    impl Protocol for Stubborn {
        type Agent = StubbornAgent;
        fn alphabet_size(&self) -> usize {
            2
        }
        fn init_agent(&self, role: Role, _rng: &mut StreamRng) -> StubbornAgent {
            StubbornAgent(role.preference().unwrap_or(Opinion::Zero))
        }
    }

    impl AgentState for StubbornAgent {
        fn display(&self, _rng: &mut StreamRng) -> usize {
            self.0.as_index()
        }
        fn update(&mut self, _observed: &[u64], _rng: &mut StreamRng) {}
        fn opinion(&self) -> Opinion {
            self.0
        }
    }

    #[test]
    fn trait_plumbing_works() {
        let mut rng = StreamRng::seed_from_u64(0);
        let cfg = PopulationConfig::new(4, 1, 2, 1).unwrap();
        let agents: Vec<StubbornAgent> = cfg
            .iter_roles()
            .map(|r| Stubborn.init_agent(r, &mut rng))
            .collect();
        assert_eq!(agents[0].opinion(), Opinion::One);
        assert_eq!(agents[2].opinion(), Opinion::Zero);
        assert_eq!(agents[3].opinion(), Opinion::Zero);
        assert_eq!(agents[0].display(&mut rng), 1);
        assert_eq!(Protocol::alphabet_size(&Stubborn), 2);
    }

    #[test]
    fn blanket_adapter_builds_scalar_state() {
        let cfg = PopulationConfig::new(5, 1, 2, 1).unwrap();
        let streams = RoundStreams::new(9, 0);
        let state = ColumnarProtocol::init_state(&Stubborn, &cfg, &streams);
        assert_eq!(state.len(), 5);
        assert!(!state.is_empty());
        assert_eq!(state.agent(0).opinion(), Opinion::One);
        assert_eq!(state.count_opinion(Opinion::One), 2);
        assert_eq!(state.count_opinion(Opinion::Zero), 3);
        assert_eq!(ColumnarProtocol::alphabet_size(&Stubborn), 2);
    }

    #[test]
    fn observability_defaults_report_single_stage() {
        let cfg = PopulationConfig::new(3, 1, 2, 1).unwrap();
        let streams = RoundStreams::new(2, 0);
        let state = ColumnarProtocol::init_state(&Stubborn, &cfg, &streams);
        // Stubborn does not override the observability hooks, so every
        // agent sits in the default single stage with no weak opinion.
        let sweep = state.metrics_sweep(Opinion::One);
        assert_eq!(sweep.stages, vec![(0, 3)]);
        assert_eq!((sweep.correct, sweep.weak_formed), (2, 0));
    }

    #[test]
    fn scalar_state_chunks_cover_population_in_order() {
        let cfg = PopulationConfig::new(7, 0, 3, 1).unwrap();
        let streams = RoundStreams::new(1, 0);
        let mut state = ColumnarProtocol::init_state(&Stubborn, &cfg, &streams);
        let chunks = state.chunks_mut(3);
        let sizes: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
        assert_eq!(sizes, vec![3, 3, 1]);
    }

    #[test]
    fn scalar_state_packs_each_agents_display() {
        let cfg = PopulationConfig::new(70, 2, 3, 1).unwrap();
        let streams = RoundStreams::new(4, 0);
        let state = ColumnarProtocol::init_state(&Stubborn, &cfg, &streams);
        let mut planes = crate::packed::PackedDisplays::new(70, 2);
        for mut chunk in planes.chunks_mut(64) {
            let start = chunk.start();
            let len = chunk.len();
            state.display_chunk_packed(start..start + len, &mut chunk, &streams);
        }
        let mut got = vec![0usize; 70];
        planes.unpack_into(&mut got);
        let want: Vec<usize> = state.agents().iter().map(|a| a.0.as_index()).collect();
        assert_eq!(got, want);
    }
}
