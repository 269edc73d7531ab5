//! Algorithm SSF — *Self-stabilizing Source Filter* (Algorithm 2 of the
//! paper).
//!
//! SSF removes SF's simultaneous-wake-up assumption at the cost of 2-bit
//! messages. Each message is a pair `(tag, value) ∈ {0,1}²`:
//!
//! * sources always display `(1, preference)`;
//! * non-sources display `(0, weak_opinion)`.
//!
//! Every agent accumulates received messages in a bounded multiset `M`.
//! As soon as `|M|` reaches the capacity `m` — the agent has accumulated
//! `m` messages — it performs an *update round*:
//!
//! * the new **weak opinion** is the majority of the second bits among
//!   messages whose first bit is 1 (ties random) — messages that *claim* to
//!   come from a source;
//! * the new **opinion** is the majority of the second bits of *all*
//!   messages (ties random);
//! * `M` is emptied.
//!
//! Why the source tag is usable even though it is noisy: under δ-uniform
//! noise, a non-source message `(0, x)` whose first bit got flipped to 1
//! has a second bit *independent* of `x` (every corruption is equally
//! likely), so falsely-tagged messages are symmetric noise on the weak
//! opinion, while truly-tagged ones carry the source bias (Lemma 36). The
//! protocol is self-stabilizing because two update cycles flush any
//! adversarially planted memory (see [`crate::adversary`] for the
//! corruption strategies used in experiments).
//!
//! # One rule, two shapes
//!
//! The update rule (`update`) and the display rule (`display`) are
//! written once, over references to one agent's lanes. The population
//! state [`SsfColumns`] runs them in chunk kernels over one `Vec` lane per
//! field (four for the memory); the per-agent record [`SsfAgent`] runs
//! the same two functions through its [`AgentState`] impl.
//!
//! # Message encoding
//!
//! Symbols index the alphabet as `index = 2·tag + value`:
//! `0 = (0,0)`, `1 = (0,1)`, `2 = (1,0)`, `3 = (1,1)`.

use std::ops::Range;

use np_engine::metrics::MetricsSweep;
use np_engine::opinion::Opinion;
use np_engine::packed::PackedChunkMut;
use np_engine::population::{PopulationConfig, Role};
use np_engine::protocol::{AgentState, ColumnarProtocol, ColumnarState};
use np_engine::snapshot::{SnapReader, SnapWriter, SnapshotState};
use np_engine::streams::{RoundStreams, StreamRng, StreamStage};
use rand::Rng;

use crate::kernel::{flip_preference, majority, split_head, LazyRng};
use crate::params::SsfParams;

/// Symbol index of the message `(tag, value)`.
pub fn encode(tag: bool, value: Opinion) -> usize {
    2 * usize::from(tag) + value.as_index()
}

/// Decodes a symbol index into `(tag, value)`.
///
/// # Panics
///
/// Panics if `symbol >= 4`.
pub fn decode(symbol: usize) -> (bool, Opinion) {
    assert!(symbol < 4, "symbol {symbol} outside the 2-bit alphabet");
    (
        symbol >= 2,
        // xtask-allow: unwrap (symbol % 2 is always a valid Opinion index)
        Opinion::from_index(symbol % 2).expect("index in {0,1}"),
    )
}

/// The Self-stabilizing Source Filter protocol (Algorithm 2).
///
/// # Example
///
/// ```
/// use noisy_pull::{params::SsfParams, ssf::SelfStabilizingSourceFilter};
/// use np_engine::{channel::ChannelKind, population::PopulationConfig, world::World};
/// use np_linalg::noise::NoiseMatrix;
///
/// let config = PopulationConfig::new(256, 0, 1, 256)?;
/// let params = SsfParams::derive(&config, 0.1, 4.0)?;
/// let noise = NoiseMatrix::uniform(4, 0.1)?;
/// let mut world = World::new(
///     &SelfStabilizingSourceFilter::new(params),
///     config,
///     &noise,
///     ChannelKind::Aggregated,
///     5,
/// )?;
/// world.run(params.expected_convergence_rounds() + 2);
/// assert!(world.is_consensus());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelfStabilizingSourceFilter {
    params: SsfParams,
}

impl SelfStabilizingSourceFilter {
    /// Creates the protocol from derived parameters.
    pub fn new(params: SsfParams) -> Self {
        SelfStabilizingSourceFilter { params }
    }

    /// The parameters in use.
    pub fn params(&self) -> &SsfParams {
        &self.params
    }

    /// The initial record of an agent with the given role; `rng` is its
    /// [`StreamStage::Init`] stream.
    pub fn init_agent(&self, role: Role, rng: &mut StreamRng) -> SsfAgent {
        SsfAgent {
            role,
            m: self.params.m(),
            mem: [0; 4],
            mem_size: 0,
            weak: Opinion::from_bool(rng.gen()),
            opinion: Opinion::from_bool(rng.gen()),
            updates: 0,
        }
    }
}

/// The SSF display rule: sources display `(1, preference)`, non-sources
/// `(0, weak opinion)`. Draws nothing.
fn display(role: Role, weak: Opinion) -> usize {
    match role {
        Role::Source(pref) => encode(true, pref),
        Role::NonSource => encode(false, weak),
    }
}

/// The trace stage of an agent that completed `updates` update rounds,
/// saturated into `u32`.
fn flush_stage(updates: u64) -> u32 {
    u32::try_from(updates).unwrap_or(u32::MAX)
}

/// One agent's update-phase lanes.
struct Lanes<'a> {
    /// Message multiset `M` as per-symbol counts (see the module docs for
    /// the encoding).
    mem: &'a mut [u64; 4],
    /// `|M|`.
    mem_size: &'a mut u64,
    weak: &'a mut Opinion,
    opinion: &'a mut Opinion,
    /// Completed update rounds (memory flushes), for traces.
    updates: &'a mut u64,
}

/// The SSF update rule — the memory-flush majority: add the round's
/// messages to `M`; once `|M|` reaches the capacity `m`, set the weak
/// opinion to the majority among source-tagged messages and the opinion
/// to the majority of all messages, then empty `M`. `coin` is a fair coin
/// from the agent's [`StreamStage::Update`] stream, drawn only on ties
/// (weak tie first, then opinion tie).
fn update(m: u64, a: Lanes<'_>, obs: &[u64], coin: &mut impl FnMut() -> bool) {
    debug_assert_eq!(obs.len(), 4);
    for (slot, &c) in a.mem.iter_mut().zip(obs) {
        *slot += c;
    }
    *a.mem_size += obs.iter().sum::<u64>();
    np_engine::invariants::check_counter_bounded(
        "SSF memory counters",
        a.mem.iter().sum::<u64>(),
        *a.mem_size,
    );
    if *a.mem_size >= m {
        let [m0, m1, m2, m3] = *a.mem;
        // Weak opinion: majority of second bits among source-tagged
        // messages — (1,1) vs (1,0).
        *a.weak = majority(m3.cmp(&m2), coin);
        // Opinion: majority of all second bits — (·,1) vs (·,0).
        *a.opinion = majority((m1 + m3).cmp(&(m0 + m2)), coin);
        *a.mem = [0; 4];
        *a.mem_size = 0;
        *a.updates = a.updates.saturating_add(1);
    }
}

/// Per-agent record of Algorithm SSF.
///
/// All fields the adversary of the self-stabilizing setting may corrupt are
/// reachable through [`SsfAgent::corrupt_state`]; the role and the
/// knowledge of `m` are protected, matching Section 1.3.
#[derive(Debug, Clone, PartialEq)]
pub struct SsfAgent {
    role: Role,
    m: u64,
    /// Message multiset as per-symbol counts (see module docs for the
    /// encoding).
    mem: [u64; 4],
    mem_size: u64,
    weak: Opinion,
    opinion: Opinion,
    /// Completed update rounds (memory flushes) — pure observability
    /// bookkeeping for traces; SSF has no phase schedule, so the flush
    /// count is its stage. Not corruptible (the adversary rewrites
    /// opinions and memory, not the trace clock).
    updates: u64,
}

impl SsfAgent {
    /// The current weak opinion `Ỹ`.
    pub fn weak_opinion(&self) -> Opinion {
        self.weak
    }

    /// Number of completed update rounds (memory flushes) so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// The agent's role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Current memory occupancy `|M|`.
    pub fn memory_size(&self) -> u64 {
        self.mem_size
    }

    /// Current memory contents as per-symbol counts.
    pub fn memory(&self) -> [u64; 4] {
        self.mem
    }

    /// Overwrites the corruptible state — the adversary hook of the
    /// self-stabilizing setting (Section 1.3). The role and the capacity
    /// `m` are not corruptible.
    ///
    /// `memory` may contain arbitrary fake samples; its total may even
    /// exceed `m` (the next update will consume and flush it).
    #[inline]
    pub fn corrupt_state(&mut self, weak: Opinion, opinion: Opinion, memory: [u64; 4]) {
        self.weak = weak;
        self.opinion = opinion;
        self.mem = memory;
        self.mem_size = memory.iter().sum();
    }
}

impl AgentState for SsfAgent {
    fn display(&self, _rng: &mut StreamRng) -> usize {
        display(self.role, self.weak)
    }

    fn update(&mut self, observed: &[u64], rng: &mut StreamRng) {
        let lanes = Lanes {
            mem: &mut self.mem,
            mem_size: &mut self.mem_size,
            weak: &mut self.weak,
            opinion: &mut self.opinion,
            updates: &mut self.updates,
        };
        update(self.m, lanes, observed, &mut || rng.gen());
    }

    fn opinion(&self) -> Opinion {
        self.opinion
    }

    /// SSF has no phase schedule; the trace stage is the number of
    /// completed update rounds (saturated into `u32`), so stage
    /// transitions show the `m`-sample cadence of Theorem 5.
    fn stage_id(&self) -> u32 {
        flush_stage(self.updates)
    }

    fn weak_opinion(&self) -> Option<Opinion> {
        Some(self.weak)
    }

    /// The role is protected from the *adversary*, but the trend-change
    /// fault is the environment itself revising the ground truth — only
    /// this engine hook may touch the preference.
    fn flip_source_preference(&mut self) -> bool {
        flip_preference(&mut self.role)
    }
}

/// Struct-of-arrays population state of SSF: one lane per field of
/// [`SsfAgent`].
#[derive(Debug, Clone)]
pub struct SsfColumns {
    m: u64,
    role: Vec<Role>,
    /// Memory `M` as per-symbol counts (see [`encode`]); the four counts
    /// of an agent are always updated together.
    mem: Vec<[u64; 4]>,
    mem_size: Vec<u64>,
    weak: Vec<Opinion>,
    opinion: Vec<Opinion>,
    updates: Vec<u64>,
}

/// Disjoint mutable chunk view over the update-phase lanes of
/// [`SsfColumns`].
#[derive(Debug)]
pub struct SsfChunkMut<'a> {
    m: u64,
    mem: &'a mut [[u64; 4]],
    mem_size: &'a mut [u64],
    weak: &'a mut [Opinion],
    opinion: &'a mut [Opinion],
    updates: &'a mut [u64],
}

impl SsfChunkMut<'_> {
    fn lanes(&mut self, i: usize) -> Lanes<'_> {
        Lanes {
            mem: &mut self.mem[i],
            mem_size: &mut self.mem_size[i],
            weak: &mut self.weak[i],
            opinion: &mut self.opinion[i],
            updates: &mut self.updates[i],
        }
    }
}

impl ColumnarProtocol for SelfStabilizingSourceFilter {
    type State = SsfColumns;

    fn alphabet_size(&self) -> usize {
        4
    }

    /// Only the role and the two init coins differ between initial
    /// records, so the other lanes start filled (zeroed lanes cost no page
    /// touches); debug builds check every agent against
    /// [`SelfStabilizingSourceFilter::init_agent`].
    fn init_state(&self, config: &PopulationConfig, streams: &RoundStreams) -> SsfColumns {
        let n = config.n();
        let mut cols = SsfColumns {
            m: self.params.m(),
            role: Vec::with_capacity(n),
            mem: vec![[0; 4]; n],
            mem_size: vec![0; n],
            weak: Vec::with_capacity(n),
            opinion: Vec::with_capacity(n),
            updates: vec![0; n],
        };
        for (id, role) in config.iter_roles().enumerate() {
            let a = self.init_agent(role, &mut streams.rng(id, StreamStage::Init));
            cols.role.push(a.role);
            cols.weak.push(a.weak);
            cols.opinion.push(a.opinion);
            debug_assert_eq!(cols.agent(id), a);
        }
        cols
    }
}

impl ColumnarState for SsfColumns {
    type ChunkMut<'a>
        = SsfChunkMut<'a>
    where
        Self: 'a;

    type Agent = SsfAgent;

    fn len(&self) -> usize {
        self.role.len()
    }

    // Per-agent loops (corruption, cluster set-up) copy records in and
    // out; inlined, the copies of fields they overwrite fold away.
    #[inline(always)]
    fn agent(&self, id: usize) -> SsfAgent {
        SsfAgent {
            role: self.role[id],
            m: self.m,
            mem: self.mem[id],
            mem_size: self.mem_size[id],
            weak: self.weak[id],
            opinion: self.opinion[id],
            updates: self.updates[id],
        }
    }

    #[inline(always)]
    fn set_agent(&mut self, id: usize, a: SsfAgent) {
        self.role[id] = a.role;
        self.mem[id] = a.mem;
        self.mem_size[id] = a.mem_size;
        self.weak[id] = a.weak;
        self.opinion[id] = a.opinion;
        self.updates[id] = a.updates;
    }

    fn display_chunk_packed(
        &self,
        range: Range<usize>,
        chunk: &mut PackedChunkMut<'_>,
        _streams: &RoundStreams,
    ) {
        debug_assert_eq!(chunk.start(), range.start);
        debug_assert_eq!(chunk.len(), range.len());
        // Two planes (d = 4): plane 1 carries the source tag, plane 0 the
        // displayed value — the bit layout of [`encode`] — built one
        // 64-agent word per store.
        let role = &self.role[range.clone()];
        let weak = &self.weak[range];
        for (w, (roles, weaks)) in role.chunks(64).zip(weak.chunks(64)).enumerate() {
            let mut low = 0u64;
            let mut high = 0u64;
            for (b, (&ro, &wk)) in roles.iter().zip(weaks).enumerate() {
                let sym = display(ro, wk);
                low |= ((sym & 1) as u64) << b;
                high |= ((sym >> 1) as u64) << b;
            }
            chunk.set_plane_word(0, w, low);
            chunk.set_plane_word(1, w, high);
        }
    }

    fn chunks_mut(&mut self, chunk_len: usize) -> Vec<SsfChunkMut<'_>> {
        let chunk_len = chunk_len.max(1);
        let m = self.m;
        let mut out = Vec::with_capacity(self.role.len().div_ceil(chunk_len));
        let mut mem = self.mem.as_mut_slice();
        let mut mem_size = self.mem_size.as_mut_slice();
        let mut weak = self.weak.as_mut_slice();
        let mut opinion = self.opinion.as_mut_slice();
        let mut updates = self.updates.as_mut_slice();
        while !mem_size.is_empty() {
            let take = chunk_len.min(mem_size.len());
            out.push(SsfChunkMut {
                m,
                mem: split_head(&mut mem, take),
                mem_size: split_head(&mut mem_size, take),
                weak: split_head(&mut weak, take),
                opinion: split_head(&mut opinion, take),
                updates: split_head(&mut updates, take),
            });
        }
        out
    }

    fn step_chunk(
        chunk: &mut SsfChunkMut<'_>,
        range: Range<usize>,
        observed: &[u64],
        d: usize,
        streams: &RoundStreams,
        awake: Option<&[bool]>,
    ) {
        debug_assert_eq!(d, 4);
        let m = chunk.m;
        for ((i, id), obs) in (0..chunk.mem_size.len())
            .zip(range)
            .zip(observed.chunks_exact(d))
        {
            if awake.is_some_and(|mask| !mask[i]) {
                continue;
            }
            let mut rng = LazyRng::new(streams, id, StreamStage::Update);
            update(m, chunk.lanes(i), obs, &mut || rng.coin());
        }
    }

    fn count_opinion(&self, opinion: Opinion) -> usize {
        self.opinion.iter().filter(|&&o| o == opinion).count()
    }

    /// Fused lane sweep over the opinion, update-count and weak lanes
    /// (every SSF agent always has a weak opinion).
    fn metrics_sweep(&self, correct: Opinion) -> MetricsSweep {
        let lanes = self.opinion.iter().zip(&self.updates).zip(&self.weak);
        MetricsSweep::from_agents(
            correct,
            lanes.map(|((&op, &updates), &weak)| (op, flush_stage(updates), Some(weak))),
        )
    }
}

impl SnapshotState for SsfColumns {
    const SNAP_TAG: &'static str = "ssf-columns/v1";

    fn encode_state(&self, w: &mut SnapWriter) {
        let n = self.role.len();
        w.put_usize(n);
        w.put_u64(self.m);
        for &role in &self.role {
            w.put_role(role);
        }
        // Symbol-major, one lane per symbol.
        for k in 0..4 {
            for counts in &self.mem {
                w.put_u64(counts[k]);
            }
        }
        for lane in [&self.mem_size, &self.updates] {
            for &x in lane {
                w.put_u64(x);
            }
        }
        for &weak in &self.weak {
            w.put_opinion(weak);
        }
        for &opinion in &self.opinion {
            w.put_opinion(opinion);
        }
    }

    fn decode_state(r: &mut SnapReader<'_>) -> np_engine::Result<Self> {
        let n = r.take_usize()?;
        let m = r.take_u64()?;
        let cap = n.min(r.remaining());
        let mut role = Vec::with_capacity(cap);
        for _ in 0..n {
            role.push(r.take_role()?);
        }
        let mut u64_lane = || -> np_engine::Result<Vec<u64>> {
            let mut lane = Vec::with_capacity(cap);
            for _ in 0..n {
                lane.push(r.take_u64()?);
            }
            Ok(lane)
        };
        let lanes = [u64_lane()?, u64_lane()?, u64_lane()?, u64_lane()?];
        let mem = (0..n)
            .map(|id| std::array::from_fn(|k| lanes[k][id]))
            .collect();
        let mem_size = u64_lane()?;
        let updates = u64_lane()?;
        let mut weak = Vec::with_capacity(cap);
        for _ in 0..n {
            weak.push(r.take_opinion()?);
        }
        let mut opinion = Vec::with_capacity(cap);
        for _ in 0..n {
            opinion.push(r.take_opinion()?);
        }
        Ok(SsfColumns {
            m,
            role,
            mem,
            mem_size,
            weak,
            opinion,
            updates,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_engine::channel::ChannelKind;
    use np_engine::population::PopulationConfig;
    use np_engine::world::World;
    use np_linalg::noise::NoiseMatrix;
    use rand::SeedableRng;

    fn ssf_world(
        n: usize,
        s0: usize,
        s1: usize,
        h: usize,
        delta: f64,
        seed: u64,
    ) -> (World<SelfStabilizingSourceFilter>, SsfParams) {
        let config = PopulationConfig::new(n, s0, s1, h).unwrap();
        let params = SsfParams::derive(&config, delta, 8.0).unwrap();
        let noise = NoiseMatrix::uniform(4, delta).unwrap();
        let world = World::new(
            &SelfStabilizingSourceFilter::new(params),
            config,
            &noise,
            ChannelKind::Aggregated,
            seed,
        )
        .unwrap();
        (world, params)
    }

    #[test]
    fn encoding_roundtrip() {
        for tag in [false, true] {
            for value in Opinion::ALL {
                let (t, v) = decode(encode(tag, value));
                assert_eq!((t, v), (tag, value));
            }
        }
        assert_eq!(encode(false, Opinion::Zero), 0);
        assert_eq!(encode(false, Opinion::One), 1);
        assert_eq!(encode(true, Opinion::Zero), 2);
        assert_eq!(encode(true, Opinion::One), 3);
    }

    #[test]
    #[should_panic(expected = "outside the 2-bit alphabet")]
    fn decode_out_of_range_panics() {
        let _ = decode(4);
    }

    #[test]
    fn displays_follow_roles() {
        let config = PopulationConfig::new(8, 1, 2, 8).unwrap();
        let params = SsfParams::derive(&config, 0.1, 1.0).unwrap();
        let proto = SelfStabilizingSourceFilter::new(params);
        let mut rng = StreamRng::seed_from_u64(0);
        let src = proto.init_agent(Role::Source(Opinion::One), &mut rng);
        assert_eq!(src.display(&mut rng), encode(true, Opinion::One));
        let src0 = proto.init_agent(Role::Source(Opinion::Zero), &mut rng);
        assert_eq!(src0.display(&mut rng), encode(true, Opinion::Zero));
        let non = proto.init_agent(Role::NonSource, &mut rng);
        assert_eq!(non.display(&mut rng), encode(false, non.weak_opinion()));
    }

    #[test]
    fn update_round_fires_exactly_at_m() {
        // Regression: the trigger used to be `mem_size > m`, silently
        // making the cadence m+1 per cycle. The paper accumulates exactly
        // `m` messages, then updates.
        let config = PopulationConfig::new(8, 0, 1, 8).unwrap();
        let params = SsfParams::derive(&config, 0.0, 1.0)
            .unwrap()
            .with_m(10)
            .unwrap();
        let proto = SelfStabilizingSourceFilter::new(params);
        let mut rng = StreamRng::seed_from_u64(2);
        let mut agent = proto.init_agent(Role::NonSource, &mut rng);
        // 9 messages: still below m = 10, no update.
        agent.update(&[0, 0, 0, 9], &mut rng);
        assert_eq!(agent.memory_size(), 9);
        assert_eq!(agent.updates(), 0);
        // The m-th message triggers the update: memory flushed, weak from
        // (1,1) vs (1,0).
        agent.update(&[0, 0, 0, 1], &mut rng);
        assert_eq!(agent.memory_size(), 0);
        assert_eq!(agent.updates(), 1);
        assert_eq!(agent.weak_opinion(), Opinion::One);
        assert_eq!(agent.opinion(), Opinion::One);
    }

    #[test]
    fn weak_opinion_uses_only_tagged_messages() {
        let config = PopulationConfig::new(8, 0, 1, 8).unwrap();
        let params = SsfParams::derive(&config, 0.0, 1.0)
            .unwrap()
            .with_m(10)
            .unwrap();
        let proto = SelfStabilizingSourceFilter::new(params);
        let mut rng = StreamRng::seed_from_u64(3);
        let mut agent = proto.init_agent(Role::NonSource, &mut rng);
        // 9 untagged zeros + 2 tagged ones: weak must follow the tagged
        // ones; opinion follows the overall majority (zeros).
        agent.update(&[9, 0, 0, 2], &mut rng);
        assert_eq!(agent.weak_opinion(), Opinion::One);
        assert_eq!(agent.opinion(), Opinion::Zero);
    }

    #[test]
    fn tie_breaks_are_random() {
        let config = PopulationConfig::new(8, 0, 1, 8).unwrap();
        let params = SsfParams::derive(&config, 0.0, 1.0)
            .unwrap()
            .with_m(3)
            .unwrap();
        let proto = SelfStabilizingSourceFilter::new(params);
        let mut outcomes = [0u32; 2];
        for seed in 0..200 {
            let mut rng = StreamRng::seed_from_u64(seed);
            let mut agent = proto.init_agent(Role::NonSource, &mut rng);
            // (1,0) and (1,1) tied at 2 each.
            agent.update(&[0, 0, 2, 2], &mut rng);
            outcomes[agent.weak_opinion().as_index()] += 1;
        }
        assert!(
            outcomes[0] > 50 && outcomes[1] > 50,
            "biased ties: {outcomes:?}"
        );
    }

    #[test]
    fn converges_from_clean_start() {
        let (mut world, params) = ssf_world(256, 0, 1, 256, 0.1, 7);
        world.run(params.expected_convergence_rounds() + 2);
        assert!(
            world.is_consensus(),
            "correct: {}/256",
            world.correct_count()
        );
    }

    #[test]
    fn converges_to_zero_and_converts_minority_sources() {
        let (mut world, params) = ssf_world(256, 3, 1, 256, 0.1, 9);
        world.run(params.expected_convergence_rounds() + 2);
        assert!(world.is_consensus());
        assert!(world.iter_agents().all(|a| a.opinion() == Opinion::Zero));
    }

    #[test]
    fn converges_from_adversarial_all_wrong() {
        let (mut world, params) = ssf_world(256, 0, 1, 256, 0.1, 11);
        // Adversary: every agent starts convinced of the wrong opinion with
        // a memory stuffed with fake all-wrong source messages.
        world.corrupt_agents(|_, agent, _| {
            let m = agent.m;
            agent.corrupt_state(Opinion::Zero, Opinion::Zero, [0, 0, m, 0]);
        });
        assert_eq!(world.correct_count(), 0);
        world.run(2 * params.expected_convergence_rounds() + 4);
        assert!(
            world.is_consensus(),
            "correct: {}/256",
            world.correct_count()
        );
    }

    #[test]
    fn consensus_persists() {
        let (mut world, params) = ssf_world(128, 0, 1, 128, 0.1, 13);
        world.run(params.expected_convergence_rounds() + 2);
        assert!(world.is_consensus());
        // Run through several more full update cycles: consensus must hold
        // at every round (Definition 2's persistence requirement, spot
        // check).
        for _ in 0..4 * params.update_interval() {
            world.step();
            assert!(
                world.is_consensus(),
                "consensus lost at round {}",
                world.round()
            );
        }
    }

    #[test]
    fn corrupt_state_respects_protected_fields() {
        let config = PopulationConfig::new(8, 0, 1, 8).unwrap();
        let params = SsfParams::derive(&config, 0.1, 1.0).unwrap();
        let proto = SelfStabilizingSourceFilter::new(params);
        let mut rng = StreamRng::seed_from_u64(0);
        let mut agent = proto.init_agent(Role::Source(Opinion::One), &mut rng);
        agent.corrupt_state(Opinion::Zero, Opinion::Zero, [7, 7, 7, 7]);
        assert_eq!(agent.memory_size(), 28);
        assert_eq!(agent.memory(), [7, 7, 7, 7]);
        assert_eq!(agent.opinion(), Opinion::Zero);
        // The display still reflects the protected role and preference.
        assert_eq!(agent.display(&mut rng), encode(true, Opinion::One));
        assert_eq!(agent.role(), Role::Source(Opinion::One));
    }

    #[test]
    fn protocol_accessors() {
        let config = PopulationConfig::new(8, 0, 1, 8).unwrap();
        let params = SsfParams::derive(&config, 0.1, 1.0).unwrap();
        let proto = SelfStabilizingSourceFilter::new(params);
        assert_eq!(proto.alphabet_size(), 4);
        assert_eq!(proto.params(), &params);
    }
}
