//! Algorithm SF — *Source Filter* (Algorithm 1 of the paper).
//!
//! The fastest protocol: binary messages, synchronous start. Three phases:
//!
//! * **Phase 0** (`T = ⌈m/h⌉` rounds): sources display their preference,
//!   non-sources display `0`; every agent counts observed `1`s
//!   (`Counter₁`).
//! * **Phase 1** (`T` rounds): sources display their preference,
//!   non-sources display `1`; every agent counts observed `0`s
//!   (`Counter₀`).
//! * **Weak opinion**: `Ỹ = 1{Counter₁ > Counter₀}`, ties broken by a fair
//!   coin. The two-phase construction makes the counting *symmetric*:
//!   noise-corrupted non-source messages contribute equally to both
//!   counters in expectation, so the source bias "stands out".
//! * **Majority Boosting** (`⌈10·ln n⌉` sub-phases of `⌈w/h⌉` rounds each
//!   plus one final sub-phase of `T` rounds): everyone displays their
//!   current opinion and replaces it with the majority of the messages
//!   gathered during each sub-phase.
//!
//! The weak opinions are mutually independent across agents (they depend
//! only on the agent's own samples, noise, and tie-breaking coin — Lemma
//! 28), each correct with probability `≥ ½ + 4√(ln n / n)`, and boosting
//! amplifies that margin to consensus w.h.p.
//!
//! # One rule, two shapes
//!
//! The update rule (`update`) and the display rule (`display`) are
//! written once, over references to one agent's lanes. The population
//! state [`SfColumns`] keeps one `Vec` lane per field and runs them in
//! chunk kernels (`step_chunk`, `display_chunk_packed`); the per-agent
//! record [`SfAgent`] runs the very same two functions through its
//! [`AgentState`] impl, for the message-passing runtime and per-agent
//! reference runs.

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
use crate::params::SfParams;

/// The Source Filter protocol (Algorithm 1). Construct with derived
/// [`SfParams`] and run on an [`np_engine::world::World`].
///
/// # Example
///
/// ```
/// use noisy_pull::{params::SfParams, sf::SourceFilter};
/// use np_engine::{channel::ChannelKind, population::PopulationConfig, world::World};
/// use np_linalg::noise::NoiseMatrix;
///
/// let config = PopulationConfig::new(256, 0, 1, 256)?; // single source, h = n
/// let params = SfParams::derive(&config, 0.2, 1.0)?;
/// let noise = NoiseMatrix::uniform(2, 0.2)?;
/// let mut world = World::new(
///     &SourceFilter::new(params),
///     config,
///     &noise,
///     ChannelKind::Aggregated,
///     7,
/// )?;
/// world.run(params.total_rounds());
/// assert!(world.is_consensus());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceFilter {
    params: SfParams,
}

impl SourceFilter {
    /// Creates the protocol from a derived schedule.
    pub fn new(params: SfParams) -> Self {
        SourceFilter { params }
    }

    /// The schedule in use.
    pub fn params(&self) -> &SfParams {
        &self.params
    }

    /// The initial record of an agent with the given role; `rng` is its
    /// [`StreamStage::Init`] stream.
    pub fn init_agent(&self, role: Role, rng: &mut StreamRng) -> SfAgent {
        SfAgent {
            params: self.params,
            role,
            stage: LISTEN0,
            round_in_stage: 0,
            counter1: 0,
            counter0: 0,
            weak: None,
            // The opinion is undefined until the weak opinion exists; a
            // fair coin avoids a spurious all-correct configuration at
            // round zero.
            opinion: Opinion::from_bool(rng.gen()),
            mem0: 0,
            mem1: 0,
            gathered: 0,
        }
    }
}

// Execution stage of an SF agent, held as its trace stage id.
/// Phase 0: neutral agents display 0, everyone counts observed 1s.
const LISTEN0: u32 = 0;
/// Phase 1: neutral agents display 1, everyone counts observed 0s.
const LISTEN1: u32 = 1;
/// Majority boosting sub-phase `k` is stage `BOOST0 + k`
/// (`k ∈ 0..=num_short_subphases`, the last being the long one).
const BOOST0: u32 = 2;
/// Schedule complete; the opinion is final.
const DONE: u32 = u32::MAX;

/// The SF display rule: sources display their preference while
/// listening, non-sources the phase's fixed symbol (0 in Phase 0, 1 in
/// Phase 1); from boosting on everyone displays their opinion. Draws
/// nothing.
fn display(stage: u32, role: Role, opinion: Opinion) -> usize {
    match (stage, role) {
        (LISTEN0 | LISTEN1, Role::Source(pref)) => pref.as_index(),
        (LISTEN0, Role::NonSource) => 0,
        (LISTEN1, Role::NonSource) => 1,
        _ => opinion.as_index(),
    }
}

/// One agent's update-phase lanes.
struct Lanes<'a> {
    /// The stage id (see [`LISTEN0`] … [`DONE`]).
    stage: &'a mut u32,
    round_in_stage: &'a mut u64,
    /// 1-messages observed during Phase 0 (`Counter₁`).
    counter1: &'a mut u64,
    /// 0-messages observed during Phase 1 (`Counter₀`).
    counter0: &'a mut u64,
    weak: &'a mut Option<Opinion>,
    opinion: &'a mut Opinion,
    /// Boosting memory: 0- and 1-messages of the current sub-phase.
    mem0: &'a mut u64,
    mem1: &'a mut u64,
    /// Messages observed in the current stage — invariant bookkeeping:
    /// every counter is bounded by it (see
    /// [`np_engine::invariants::check_counter_bounded`]).
    gathered: &'a mut u64,
}

/// The SF update rule: count the phase's symbol while listening, form
/// the weak opinion `Ỹ = 1{Counter₁ > Counter₀}` after Phase 1, then take
/// the majority of each boosting sub-phase. `coin` is a fair coin from
/// the agent's [`StreamStage::Update`] stream, drawn only on a tie.
fn update(params: &SfParams, a: Lanes<'_>, obs: &[u64], coin: &mut impl FnMut() -> bool) {
    debug_assert_eq!(obs.len(), 2);
    let next = match *a.stage {
        LISTEN0 => {
            *a.counter1 += obs[1];
            *a.gathered += obs[0] + obs[1];
            np_engine::invariants::check_counter_bounded("SF Counter₁", *a.counter1, *a.gathered);
            (*a.round_in_stage + 1 >= params.phase_len()).then_some(LISTEN1)
        }
        LISTEN1 => {
            *a.counter0 += obs[0];
            *a.gathered += obs[0] + obs[1];
            np_engine::invariants::check_counter_bounded("SF Counter₀", *a.counter0, *a.gathered);
            (*a.round_in_stage + 1 >= params.phase_len()).then(|| {
                let weak = majority((*a.counter1).cmp(a.counter0), coin);
                *a.weak = Some(weak);
                *a.opinion = weak;
                BOOST0
            })
        }
        DONE => return,
        boost => {
            *a.mem0 += obs[0];
            *a.mem1 += obs[1];
            *a.gathered += obs[0] + obs[1];
            np_engine::invariants::check_counter_bounded(
                "SF boosting memory",
                *a.mem0 + *a.mem1,
                *a.gathered,
            );
            let last = u64::from(boost - BOOST0) >= params.num_short_subphases();
            let len = if last {
                params.final_subphase_len()
            } else {
                params.subphase_len()
            };
            (*a.round_in_stage + 1 >= len).then(|| {
                *a.opinion = majority((*a.mem1).cmp(a.mem0), coin);
                if last {
                    DONE
                } else {
                    boost + 1
                }
            })
        }
    };
    match next {
        // Every stage starts with empty per-stage counters.
        Some(stage) => {
            *a.stage = stage;
            *a.round_in_stage = 0;
            *a.gathered = 0;
            *a.mem0 = 0;
            *a.mem1 = 0;
        }
        None => *a.round_in_stage += 1,
    }
}

/// Per-agent record of Algorithm SF.
///
/// Inspect [`SfAgent::weak_opinion`] after the listening phases for the
/// weak-opinion experiments (Lemma 28).
#[derive(Debug, Clone, PartialEq)]
pub struct SfAgent {
    params: SfParams,
    role: Role,
    stage: u32,
    round_in_stage: u64,
    counter1: u64,
    counter0: u64,
    weak: Option<Opinion>,
    opinion: Opinion,
    mem0: u64,
    mem1: u64,
    gathered: u64,
}

impl SfAgent {
    /// The weak opinion `Ỹ`, available once Phases 0 and 1 are complete.
    pub fn weak_opinion(&self) -> Option<Opinion> {
        self.weak
    }

    /// The agent's role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// `Counter₁` (1s observed in Phase 0) — exposed for analysis
    /// experiments.
    pub fn counter1(&self) -> u64 {
        self.counter1
    }

    /// `Counter₀` (0s observed in Phase 1) — exposed for analysis
    /// experiments.
    pub fn counter0(&self) -> u64 {
        self.counter0
    }

    /// Returns `true` once the schedule has completed.
    pub fn is_done(&self) -> bool {
        self.stage == DONE
    }

    /// Jumps the agent straight to the start of the Majority Boosting
    /// phase with the given opinion, skipping the listening phases.
    ///
    /// This exists for the Lemma 33 experiment, which measures how
    /// boosting amplifies a *controlled* initial margin; it is not part of
    /// the protocol itself.
    pub fn force_boost_stage(&mut self, opinion: Opinion) {
        self.stage = BOOST0;
        self.round_in_stage = 0;
        self.weak = Some(opinion);
        self.opinion = opinion;
        self.mem0 = 0;
        self.mem1 = 0;
        self.gathered = 0;
    }
}

impl AgentState for SfAgent {
    fn display(&self, _rng: &mut StreamRng) -> usize {
        display(self.stage, self.role, self.opinion)
    }

    fn update(&mut self, observed: &[u64], rng: &mut StreamRng) {
        let lanes = Lanes {
            stage: &mut self.stage,
            round_in_stage: &mut self.round_in_stage,
            counter1: &mut self.counter1,
            counter0: &mut self.counter0,
            weak: &mut self.weak,
            opinion: &mut self.opinion,
            mem0: &mut self.mem0,
            mem1: &mut self.mem1,
            gathered: &mut self.gathered,
        };
        update(&self.params, lanes, observed, &mut || rng.gen());
    }

    fn opinion(&self) -> Opinion {
        self.opinion
    }

    fn stage_id(&self) -> u32 {
        self.stage
    }

    fn weak_opinion(&self) -> Option<Opinion> {
        self.weak
    }

    /// Trend-change fault hook: the environment revises the ground truth
    /// (only sources carry a preference to flip).
    fn flip_source_preference(&mut self) -> bool {
        flip_preference(&mut self.role)
    }
}

/// Struct-of-arrays population state of SF: one lane per field of
/// [`SfAgent`].
#[derive(Debug, Clone)]
pub struct SfColumns {
    params: SfParams,
    role: Vec<Role>,
    stage: Vec<u32>,
    round_in_stage: Vec<u64>,
    counter1: Vec<u64>,
    counter0: Vec<u64>,
    weak: Vec<Option<Opinion>>,
    opinion: Vec<Opinion>,
    mem0: Vec<u64>,
    mem1: Vec<u64>,
    gathered: Vec<u64>,
}

/// Disjoint mutable chunk view over the update-phase lanes of
/// [`SfColumns`].
#[derive(Debug)]
pub struct SfChunkMut<'a> {
    params: SfParams,
    stage: &'a mut [u32],
    round_in_stage: &'a mut [u64],
    counter1: &'a mut [u64],
    counter0: &'a mut [u64],
    weak: &'a mut [Option<Opinion>],
    opinion: &'a mut [Opinion],
    mem0: &'a mut [u64],
    mem1: &'a mut [u64],
    gathered: &'a mut [u64],
}

impl SfChunkMut<'_> {
    fn lanes(&mut self, i: usize) -> Lanes<'_> {
        Lanes {
            stage: &mut self.stage[i],
            round_in_stage: &mut self.round_in_stage[i],
            counter1: &mut self.counter1[i],
            counter0: &mut self.counter0[i],
            weak: &mut self.weak[i],
            opinion: &mut self.opinion[i],
            mem0: &mut self.mem0[i],
            mem1: &mut self.mem1[i],
            gathered: &mut self.gathered[i],
        }
    }
}

impl ColumnarProtocol for SourceFilter {
    type State = SfColumns;

    fn alphabet_size(&self) -> usize {
        2
    }

    /// Only the role and the opinion coin differ between initial records,
    /// so the other lanes start filled (zeroed lanes cost no page
    /// touches); debug builds check every agent against
    /// [`SourceFilter::init_agent`].
    fn init_state(&self, config: &PopulationConfig, streams: &RoundStreams) -> SfColumns {
        let n = config.n();
        let mut cols = SfColumns {
            params: self.params,
            role: Vec::with_capacity(n),
            stage: vec![LISTEN0; n],
            round_in_stage: vec![0; n],
            counter1: vec![0; n],
            counter0: vec![0; n],
            weak: vec![None; n],
            opinion: Vec::with_capacity(n),
            mem0: vec![0; n],
            mem1: vec![0; n],
            gathered: vec![0; n],
        };
        for (id, role) in config.iter_roles().enumerate() {
            let a = self.init_agent(role, &mut streams.rng(id, StreamStage::Init));
            cols.role.push(a.role);
            cols.opinion.push(a.opinion);
            debug_assert_eq!(cols.agent(id), a);
        }
        cols
    }
}

impl ColumnarState for SfColumns {
    type ChunkMut<'a>
        = SfChunkMut<'a>
    where
        Self: 'a;

    type Agent = SfAgent;

    fn len(&self) -> usize {
        self.role.len()
    }

    // Per-agent loops (corruption, cluster set-up) copy records in and
    // out; inlined, the copies of fields they overwrite fold away.
    #[inline(always)]
    fn agent(&self, id: usize) -> SfAgent {
        SfAgent {
            params: self.params,
            role: self.role[id],
            stage: self.stage[id],
            round_in_stage: self.round_in_stage[id],
            counter1: self.counter1[id],
            counter0: self.counter0[id],
            weak: self.weak[id],
            opinion: self.opinion[id],
            mem0: self.mem0[id],
            mem1: self.mem1[id],
            gathered: self.gathered[id],
        }
    }

    #[inline(always)]
    fn set_agent(&mut self, id: usize, a: SfAgent) {
        self.role[id] = a.role;
        self.stage[id] = a.stage;
        self.round_in_stage[id] = a.round_in_stage;
        self.counter1[id] = a.counter1;
        self.counter0[id] = a.counter0;
        self.weak[id] = a.weak;
        self.opinion[id] = a.opinion;
        self.mem0[id] = a.mem0;
        self.mem1[id] = a.mem1;
        self.gathered[id] = a.gathered;
    }

    fn display_chunk(&self, range: Range<usize>, out: &mut [usize], _streams: &RoundStreams) {
        for (slot, id) in out.iter_mut().zip(range) {
            *slot = display(self.stage[id], self.role[id], self.opinion[id]);
        }
    }

    fn display_chunk_packed(
        &self,
        range: Range<usize>,
        chunk: &mut PackedChunkMut<'_>,
        _streams: &RoundStreams,
    ) {
        debug_assert_eq!(chunk.start(), range.start);
        debug_assert_eq!(chunk.len(), range.len());
        // One plane (d = 2): each 64-agent word is built from the lanes
        // and written with one store.
        let stage = &self.stage[range.clone()];
        let role = &self.role[range.clone()];
        let opinion = &self.opinion[range];
        for (w, ((stages, roles), opinions)) in stage
            .chunks(64)
            .zip(role.chunks(64))
            .zip(opinion.chunks(64))
            .enumerate()
        {
            let mut bits = 0u64;
            for (b, ((&st, &ro), &op)) in stages.iter().zip(roles).zip(opinions).enumerate() {
                bits |= (display(st, ro, op) as u64) << b;
            }
            chunk.set_plane_word(0, w, bits);
        }
    }

    fn chunks_mut(&mut self, chunk_len: usize) -> Vec<SfChunkMut<'_>> {
        let chunk_len = chunk_len.max(1);
        let params = self.params;
        let mut out = Vec::with_capacity(self.role.len().div_ceil(chunk_len));
        let mut stage = self.stage.as_mut_slice();
        let mut round_in_stage = self.round_in_stage.as_mut_slice();
        let mut counter1 = self.counter1.as_mut_slice();
        let mut counter0 = self.counter0.as_mut_slice();
        let mut weak = self.weak.as_mut_slice();
        let mut opinion = self.opinion.as_mut_slice();
        let mut mem0 = self.mem0.as_mut_slice();
        let mut mem1 = self.mem1.as_mut_slice();
        let mut gathered = self.gathered.as_mut_slice();
        while !stage.is_empty() {
            let take = chunk_len.min(stage.len());
            out.push(SfChunkMut {
                params,
                stage: split_head(&mut stage, take),
                round_in_stage: split_head(&mut round_in_stage, take),
                counter1: split_head(&mut counter1, take),
                counter0: split_head(&mut counter0, take),
                weak: split_head(&mut weak, take),
                opinion: split_head(&mut opinion, take),
                mem0: split_head(&mut mem0, take),
                mem1: split_head(&mut mem1, take),
                gathered: split_head(&mut gathered, take),
            });
        }
        out
    }

    fn step_chunk(
        chunk: &mut SfChunkMut<'_>,
        range: Range<usize>,
        observed: &[u64],
        d: usize,
        streams: &RoundStreams,
        awake: Option<&[bool]>,
    ) {
        debug_assert_eq!(d, 2);
        let params = chunk.params;
        for ((i, id), obs) in (0..chunk.stage.len())
            .zip(range)
            .zip(observed.chunks_exact(d))
        {
            if awake.is_some_and(|mask| !mask[i]) {
                continue;
            }
            let mut rng = LazyRng::new(streams, id, StreamStage::Update);
            update(&params, chunk.lanes(i), obs, &mut || rng.coin());
        }
    }

    fn opinion(&self, id: usize) -> Opinion {
        self.opinion[id]
    }

    fn count_opinion(&self, opinion: Opinion) -> usize {
        self.opinion.iter().filter(|&&o| o == opinion).count()
    }

    /// Fused lane sweep over the opinion, stage and weak lanes.
    fn metrics_sweep(&self, correct: Opinion) -> MetricsSweep {
        let lanes = self.opinion.iter().zip(&self.stage).zip(&self.weak);
        MetricsSweep::from_agents(correct, lanes.map(|((&op, &st), &weak)| (op, st, weak)))
    }

    /// The lane form of [`SfAgent`]'s trend-change hook.
    fn flip_source_preferences(&mut self) -> usize {
        self.role
            .iter_mut()
            .map(flip_preference)
            .filter(|&f| f)
            .count()
    }
}

impl SnapshotState for SfColumns {
    const SNAP_TAG: &'static str = "sf-columns/v1";

    fn encode_state(&self, w: &mut SnapWriter) {
        let n = self.role.len();
        w.put_usize(n);
        self.params.encode_snap(w);
        for &role in &self.role {
            w.put_role(role);
        }
        for &stage in &self.stage {
            match stage {
                LISTEN0 => w.put_u8(0),
                LISTEN1 => w.put_u8(1),
                DONE => w.put_u8(3),
                boost => {
                    w.put_u8(2);
                    w.put_u64(u64::from(boost - BOOST0));
                }
            }
        }
        for lane in [
            &self.round_in_stage,
            &self.counter1,
            &self.counter0,
            &self.mem0,
            &self.mem1,
            &self.gathered,
        ] {
            for &x in lane {
                w.put_u64(x);
            }
        }
        for &weak in &self.weak {
            w.put_opt_opinion(weak);
        }
        for &opinion in &self.opinion {
            w.put_opinion(opinion);
        }
    }

    fn decode_state(r: &mut SnapReader<'_>) -> np_engine::Result<Self> {
        let n = r.take_usize()?;
        let params = SfParams::decode_snap(r)?;
        let cap = n.min(r.remaining());
        let mut role = Vec::with_capacity(cap);
        for _ in 0..n {
            role.push(r.take_role()?);
        }
        let mut stage = Vec::with_capacity(cap);
        for _ in 0..n {
            stage.push(match r.take_u8()? {
                0 => LISTEN0,
                1 => LISTEN1,
                2 => {
                    let k = r.take_u64()?;
                    u32::try_from(k)
                        .ok()
                        .and_then(|k| k.checked_add(BOOST0))
                        .filter(|&stage| stage != DONE)
                        .ok_or_else(|| np_engine::EngineError::BadSnapshot {
                            detail: format!("SF boost sub-phase {k} out of range"),
                        })?
                }
                3 => DONE,
                x => {
                    return Err(np_engine::EngineError::BadSnapshot {
                        detail: format!("invalid SF stage byte {x}"),
                    })
                }
            });
        }
        let mut u64_lane = || -> np_engine::Result<Vec<u64>> {
            let mut lane = Vec::with_capacity(cap);
            for _ in 0..n {
                lane.push(r.take_u64()?);
            }
            Ok(lane)
        };
        let round_in_stage = u64_lane()?;
        let counter1 = u64_lane()?;
        let counter0 = u64_lane()?;
        let mem0 = u64_lane()?;
        let mem1 = u64_lane()?;
        let gathered = u64_lane()?;
        let mut weak = Vec::with_capacity(cap);
        for _ in 0..n {
            weak.push(r.take_opt_opinion()?);
        }
        let mut opinion = Vec::with_capacity(cap);
        for _ in 0..n {
            opinion.push(r.take_opinion()?);
        }
        Ok(SfColumns {
            params,
            role,
            stage,
            round_in_stage,
            counter1,
            counter0,
            weak,
            opinion,
            mem0,
            mem1,
            gathered,
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

    fn sf_world(
        n: usize,
        s0: usize,
        s1: usize,
        h: usize,
        delta: f64,
        seed: u64,
    ) -> (World<SourceFilter>, SfParams) {
        let config = PopulationConfig::new(n, s0, s1, h).unwrap();
        let params = SfParams::derive(&config, delta, 1.0).unwrap();
        let noise = NoiseMatrix::uniform(2, delta).unwrap();
        let world = World::new(
            &SourceFilter::new(params),
            config,
            &noise,
            ChannelKind::Aggregated,
            seed,
        )
        .unwrap();
        (world, params)
    }

    #[test]
    fn displays_follow_phase_script() {
        let config = PopulationConfig::new(8, 1, 2, 8).unwrap();
        let params = SfParams::derive(&config, 0.1, 1.0).unwrap();
        let proto = SourceFilter::new(params);
        let mut rng = StreamRng::seed_from_u64(0);
        let src1 = proto.init_agent(Role::Source(Opinion::One), &mut rng);
        let src0 = proto.init_agent(Role::Source(Opinion::Zero), &mut rng);
        let non = proto.init_agent(Role::NonSource, &mut rng);
        // Phase 0: sources display preference, non-sources display 0.
        assert_eq!(src1.display(&mut rng), 1);
        assert_eq!(src0.display(&mut rng), 0);
        assert_eq!(non.display(&mut rng), 0);
        // Advance a non-source into Phase 1 by feeding phase_len updates.
        let mut non1 = non.clone();
        for _ in 0..params.phase_len() {
            non1.update(&[8, 0], &mut rng);
        }
        assert_eq!(non1.display(&mut rng), 1);
        assert!(non1.weak_opinion().is_none());
    }

    #[test]
    fn counters_accumulate_per_phase() {
        let config = PopulationConfig::new(8, 0, 1, 8).unwrap();
        let params = SfParams::derive(&config, 0.1, 1.0)
            .unwrap()
            .with_m(16)
            .unwrap();
        let proto = SourceFilter::new(params);
        let mut rng = StreamRng::seed_from_u64(1);
        let mut agent = proto.init_agent(Role::NonSource, &mut rng);
        // Phase 0 lasts 2 rounds (m=16, h=8): counts only 1s.
        agent.update(&[5, 3], &mut rng);
        agent.update(&[6, 2], &mut rng);
        assert_eq!(agent.counter1(), 5);
        assert_eq!(agent.counter0(), 0);
        // Phase 1: counts only 0s.
        agent.update(&[7, 1], &mut rng);
        agent.update(&[8, 0], &mut rng);
        assert_eq!(agent.counter0(), 15);
        // Weak opinion: counter1 (5) < counter0 (15) ⇒ Zero.
        assert_eq!(agent.weak_opinion(), Some(Opinion::Zero));
        assert_eq!(agent.opinion(), Opinion::Zero);
    }

    #[test]
    fn weak_opinion_tie_breaks_randomly() {
        let config = PopulationConfig::new(8, 0, 1, 8).unwrap();
        let params = SfParams::derive(&config, 0.1, 1.0)
            .unwrap()
            .with_m(8)
            .unwrap();
        let proto = SourceFilter::new(params);
        let mut outcomes = [0u32; 2];
        for seed in 0..200 {
            let mut rng = StreamRng::seed_from_u64(seed);
            let mut agent = proto.init_agent(Role::NonSource, &mut rng);
            agent.update(&[4, 4], &mut rng); // counter1 = 4
            agent.update(&[4, 4], &mut rng); // counter0 = 4 → tie
            outcomes[agent.weak_opinion().unwrap().as_index()] += 1;
        }
        assert!(
            outcomes[0] > 50 && outcomes[1] > 50,
            "tie-break biased: {outcomes:?}"
        );
    }

    #[test]
    fn boosting_takes_majority_each_subphase() {
        let config = PopulationConfig::new(8, 0, 1, 8).unwrap();
        let params = SfParams::derive(&config, 0.1, 1.0)
            .unwrap()
            .with_m(8)
            .unwrap();
        let proto = SourceFilter::new(params);
        let mut rng = StreamRng::seed_from_u64(3);
        let mut agent = proto.init_agent(Role::NonSource, &mut rng);
        agent.update(&[0, 8], &mut rng); // phase 0: counter1 = 8
        agent.update(&[8, 0], &mut rng); // phase 1: counter0 = 8... tie
                                         // (counter1 = 8 vs counter0 = 8 → coin; force by re-running until
                                         // set, then drive boosting deterministically).
        let w_rounds = params.subphase_len();
        // Feed all-ones for one sub-phase: opinion must become One.
        for _ in 0..w_rounds {
            agent.update(&[0, 8], &mut rng);
        }
        assert_eq!(agent.opinion(), Opinion::One);
        // Feed all-zeros for the next sub-phase: opinion must flip.
        for _ in 0..w_rounds {
            agent.update(&[8, 0], &mut rng);
        }
        assert_eq!(agent.opinion(), Opinion::Zero);
    }

    #[test]
    fn agent_reaches_done_after_total_rounds() {
        let (mut world, params) = sf_world(32, 0, 1, 32, 0.1, 5);
        world.run(params.total_rounds());
        assert!(world.iter_agents().all(|a| a.is_done()));
        // One more round is a no-op for state.
        let before: Vec<Opinion> = world.iter_agents().map(|a| a.opinion()).collect();
        world.run(1);
        let after: Vec<Opinion> = world.iter_agents().map(|a| a.opinion()).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn converges_single_source_h_equals_n() {
        let (mut world, params) = sf_world(256, 0, 1, 256, 0.2, 11);
        world.run(params.total_rounds());
        assert!(
            world.is_consensus(),
            "correct: {}/256",
            world.correct_count()
        );
    }

    #[test]
    fn converges_to_zero_majority() {
        // Correct opinion 0 must also win (symmetry).
        let (mut world, params) = sf_world(256, 3, 1, 256, 0.2, 13);
        world.run(params.total_rounds());
        assert!(world.is_consensus());
        assert!(world.iter_agents().all(|a| a.opinion() == Opinion::Zero));
    }

    #[test]
    fn converges_with_conflicting_sources() {
        // 5 vs 4 sources: plurality (One) must win and convert the four
        // 0-preferring sources too.
        let (mut world, params) = sf_world(256, 4, 5, 256, 0.15, 17);
        world.run(params.total_rounds());
        assert!(world.is_consensus());
    }

    #[test]
    fn converges_under_exact_channel_too() {
        let config = PopulationConfig::new(128, 0, 1, 64).unwrap();
        let params = SfParams::derive(&config, 0.15, 1.0).unwrap();
        let noise = NoiseMatrix::uniform(2, 0.15).unwrap();
        let mut world = World::new(
            &SourceFilter::new(params),
            config,
            &noise,
            ChannelKind::Exact,
            19,
        )
        .unwrap();
        world.run(params.total_rounds());
        assert!(world.is_consensus());
    }

    #[test]
    fn converges_noiseless() {
        let (mut world, params) = sf_world(64, 0, 1, 64, 0.0, 23);
        world.run(params.total_rounds());
        assert!(world.is_consensus());
    }

    #[test]
    fn weak_opinions_beat_a_half_on_average() {
        // Lemma 28 (shape check): across seeds, the fraction of correct
        // weak opinions exceeds 1/2.
        let mut correct = 0u64;
        let mut total = 0u64;
        for seed in 0..20 {
            let (mut world, params) = sf_world(128, 0, 1, 128, 0.2, 100 + seed);
            world.run(2 * params.phase_len());
            for agent in world.iter_agents() {
                if agent.weak_opinion() == Some(Opinion::One) {
                    correct += 1;
                }
                total += 1;
            }
        }
        let frac = correct as f64 / total as f64;
        assert!(frac > 0.5, "weak-opinion accuracy {frac} ≤ 1/2");
    }

    #[test]
    fn protocol_accessors() {
        let config = PopulationConfig::new(8, 0, 1, 8).unwrap();
        let params = SfParams::derive(&config, 0.1, 1.0).unwrap();
        let proto = SourceFilter::new(params);
        assert_eq!(proto.alphabet_size(), 2);
        assert_eq!(proto.params(), &params);
        let mut rng = StreamRng::seed_from_u64(0);
        let agent = proto.init_agent(Role::Source(Opinion::One), &mut rng);
        assert_eq!(agent.role(), Role::Source(Opinion::One));
        assert!(!agent.is_done());
    }
}
