//! SF-ALT — the "more natural" variant from the Remark in §2.1 of the
//! paper.
//!
//! > *"Perhaps a more natural algorithm would allow each agent to first
//! > flip a fair coin to determine the message it will present on the
//! > first round, and then, over the following rounds, deterministically
//! > alternate between 0 and 1. While it is plausible that such a scheme
//! > would work as well, it does add some complexity to the analysis."*
//!
//! This module implements that scheme so the plausibility claim can be
//! tested (experiment EXP-VARIANT). During a single combined listening
//! stage of `2T` rounds, each non-source displays
//! `b, 1−b, b, …` for a fair coin `b`, while sources display their
//! preference; every agent accumulates the *signed difference*
//! `#1s − #0s` over all observations. Over an even number of rounds every
//! non-source displays each value exactly `T` times, so the background
//! cancels *exactly* in expectation and the source bias is the only
//! systematic drift — the same effect SF achieves with its two all-0 /
//! all-1 phases, without the population-wide phase switch. The weak
//! opinion is the sign of the difference; Majority Boosting is then
//! identical to SF's.
//!
//! The measurable trade-off: here a sampled non-source contributes a
//! `Bernoulli(≈½)` value (extra variance per observation), whereas SF's
//! phases make the background deterministic within each phase; SF-ALT's
//! weak opinions are therefore expected to be slightly *less* accurate at
//! equal `m` — quantified in EXP-VARIANT.
//!
//! As in [`crate::sf`], the update rule (`update`) and the display rule
//! (`display`) are written once over one agent's lanes and shared by the
//! lane state [`AltSfColumns`] and the per-agent record [`AltSfAgent`].

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

/// The alternating-display Source Filter variant (Remark, §2.1). Shares
/// [`SfParams`] with [`crate::sf::SourceFilter`]: the same `m`, phase
/// lengths and boosting schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlternatingSourceFilter {
    params: SfParams,
}

impl AlternatingSourceFilter {
    /// Creates the protocol from a derived schedule.
    pub fn new(params: SfParams) -> Self {
        AlternatingSourceFilter { params }
    }

    /// The schedule in use.
    pub fn params(&self) -> &SfParams {
        &self.params
    }

    /// The initial record of an agent with the given role; `rng` is its
    /// [`StreamStage::Init`] stream.
    pub fn init_agent(&self, role: Role, rng: &mut StreamRng) -> AltSfAgent {
        AltSfAgent {
            params: self.params,
            role,
            stage: LISTENING,
            round_in_stage: 0,
            base_display: Opinion::from_bool(rng.gen()),
            diff: 0,
            weak: None,
            opinion: Opinion::from_bool(rng.gen()),
            mem0: 0,
            mem1: 0,
        }
    }
}

// Execution stage of an SF-ALT agent, held as its trace stage id. Stage
// 1 is left unused so boost stages line up with plain SF's numbering.
/// The combined listening stage (`2T` rounds).
const LISTENING: u32 = 0;
/// Majority boosting sub-phase `k` is stage `BOOST0 + k`.
const BOOST0: u32 = 2;
/// Schedule complete.
const DONE: u32 = u32::MAX;

/// The SF-ALT display rule: while listening, sources display their
/// preference and non-sources alternate `b, 1−b, b, …` from their initial
/// coin `b`; from boosting on everyone displays their opinion. Draws
/// nothing.
fn display(stage: u32, role: Role, round_in_stage: u64, base: Opinion, opinion: Opinion) -> usize {
    match (stage, role) {
        (LISTENING, Role::Source(pref)) => pref.as_index(),
        (LISTENING, Role::NonSource) if round_in_stage.is_multiple_of(2) => base.as_index(),
        (LISTENING, Role::NonSource) => (!base).as_index(),
        _ => opinion.as_index(),
    }
}

/// One agent's update-phase lanes.
struct Lanes<'a> {
    /// The stage id (see [`LISTENING`] … [`DONE`]).
    stage: &'a mut u32,
    round_in_stage: &'a mut u64,
    /// Running `#1s − #0s` over all listening observations.
    diff: &'a mut i64,
    weak: &'a mut Option<Opinion>,
    opinion: &'a mut Opinion,
    /// Boosting memory: 0- and 1-messages of the current sub-phase.
    mem0: &'a mut u64,
    mem1: &'a mut u64,
}

/// The SF-ALT update rule: accumulate the signed evidence `#1s − #0s`
/// over the `2T` listening rounds, take its sign as the weak opinion,
/// then boost exactly as SF does. `coin` is a fair coin from the agent's
/// [`StreamStage::Update`] stream, drawn only on a tie.
fn update(params: &SfParams, a: Lanes<'_>, obs: &[u64], coin: &mut impl FnMut() -> bool) {
    debug_assert_eq!(obs.len(), 2);
    let next = match *a.stage {
        LISTENING => {
            *a.diff += obs[1] as i64 - obs[0] as i64;
            (*a.round_in_stage + 1 >= 2 * params.phase_len()).then(|| {
                let weak = majority((*a.diff).cmp(&0), coin);
                *a.weak = Some(weak);
                *a.opinion = weak;
                BOOST0
            })
        }
        DONE => return,
        boost => {
            *a.mem0 += obs[0];
            *a.mem1 += obs[1];
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
        // Every stage starts with an empty boosting memory.
        Some(stage) => {
            *a.stage = stage;
            *a.round_in_stage = 0;
            *a.mem0 = 0;
            *a.mem1 = 0;
        }
        None => *a.round_in_stage += 1,
    }
}

/// Per-agent record of SF-ALT.
#[derive(Debug, Clone, PartialEq)]
pub struct AltSfAgent {
    params: SfParams,
    role: Role,
    stage: u32,
    round_in_stage: u64,
    /// The value displayed on even listening rounds (the initial coin).
    base_display: Opinion,
    diff: i64,
    weak: Option<Opinion>,
    opinion: Opinion,
    mem0: u64,
    mem1: u64,
}

impl AltSfAgent {
    /// The weak opinion, available once the listening stage completed.
    pub fn weak_opinion(&self) -> Option<Opinion> {
        self.weak
    }

    /// The running signed evidence `#1s − #0s`.
    pub fn evidence(&self) -> i64 {
        self.diff
    }

    /// Returns `true` once the schedule has completed.
    pub fn is_done(&self) -> bool {
        self.stage == DONE
    }
}

impl AgentState for AltSfAgent {
    fn display(&self, _rng: &mut StreamRng) -> usize {
        display(
            self.stage,
            self.role,
            self.round_in_stage,
            self.base_display,
            self.opinion,
        )
    }

    fn update(&mut self, observed: &[u64], rng: &mut StreamRng) {
        let lanes = Lanes {
            stage: &mut self.stage,
            round_in_stage: &mut self.round_in_stage,
            diff: &mut self.diff,
            weak: &mut self.weak,
            opinion: &mut self.opinion,
            mem0: &mut self.mem0,
            mem1: &mut self.mem1,
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

/// Struct-of-arrays population state of SF-ALT: one lane per field of
/// [`AltSfAgent`].
#[derive(Debug, Clone)]
pub struct AltSfColumns {
    params: SfParams,
    role: Vec<Role>,
    stage: Vec<u32>,
    round_in_stage: Vec<u64>,
    base_display: Vec<Opinion>,
    diff: Vec<i64>,
    weak: Vec<Option<Opinion>>,
    opinion: Vec<Opinion>,
    mem0: Vec<u64>,
    mem1: Vec<u64>,
}

/// Disjoint mutable chunk view over the update-phase lanes of
/// [`AltSfColumns`].
#[derive(Debug)]
pub struct AltSfChunkMut<'a> {
    params: SfParams,
    stage: &'a mut [u32],
    round_in_stage: &'a mut [u64],
    diff: &'a mut [i64],
    weak: &'a mut [Option<Opinion>],
    opinion: &'a mut [Opinion],
    mem0: &'a mut [u64],
    mem1: &'a mut [u64],
}

impl AltSfChunkMut<'_> {
    fn lanes(&mut self, i: usize) -> Lanes<'_> {
        Lanes {
            stage: &mut self.stage[i],
            round_in_stage: &mut self.round_in_stage[i],
            diff: &mut self.diff[i],
            weak: &mut self.weak[i],
            opinion: &mut self.opinion[i],
            mem0: &mut self.mem0[i],
            mem1: &mut self.mem1[i],
        }
    }
}

impl ColumnarProtocol for AlternatingSourceFilter {
    type State = AltSfColumns;

    fn alphabet_size(&self) -> usize {
        2
    }

    /// Only the role and the two init coins differ between initial
    /// records, so the other lanes start filled (zeroed lanes cost no page
    /// touches); debug builds check every agent against
    /// [`AlternatingSourceFilter::init_agent`].
    fn init_state(&self, config: &PopulationConfig, streams: &RoundStreams) -> AltSfColumns {
        let n = config.n();
        let mut cols = AltSfColumns {
            params: self.params,
            role: Vec::with_capacity(n),
            stage: vec![LISTENING; n],
            round_in_stage: vec![0; n],
            base_display: Vec::with_capacity(n),
            diff: vec![0; n],
            weak: vec![None; n],
            opinion: Vec::with_capacity(n),
            mem0: vec![0; n],
            mem1: vec![0; n],
        };
        for (id, role) in config.iter_roles().enumerate() {
            let a = self.init_agent(role, &mut streams.rng(id, StreamStage::Init));
            cols.role.push(a.role);
            cols.base_display.push(a.base_display);
            cols.opinion.push(a.opinion);
            debug_assert_eq!(cols.agent(id), a);
        }
        cols
    }
}

impl ColumnarState for AltSfColumns {
    type ChunkMut<'a>
        = AltSfChunkMut<'a>
    where
        Self: 'a;

    type Agent = AltSfAgent;

    fn len(&self) -> usize {
        self.role.len()
    }

    // Per-agent loops (corruption, cluster set-up) copy records in and
    // out; inlined, the copies of fields they overwrite fold away.
    #[inline(always)]
    fn agent(&self, id: usize) -> AltSfAgent {
        AltSfAgent {
            params: self.params,
            role: self.role[id],
            stage: self.stage[id],
            round_in_stage: self.round_in_stage[id],
            base_display: self.base_display[id],
            diff: self.diff[id],
            weak: self.weak[id],
            opinion: self.opinion[id],
            mem0: self.mem0[id],
            mem1: self.mem1[id],
        }
    }

    #[inline(always)]
    fn set_agent(&mut self, id: usize, a: AltSfAgent) {
        self.role[id] = a.role;
        self.stage[id] = a.stage;
        self.round_in_stage[id] = a.round_in_stage;
        self.base_display[id] = a.base_display;
        self.diff[id] = a.diff;
        self.weak[id] = a.weak;
        self.opinion[id] = a.opinion;
        self.mem0[id] = a.mem0;
        self.mem1[id] = a.mem1;
    }

    fn display_chunk(&self, range: Range<usize>, out: &mut [usize], _streams: &RoundStreams) {
        for (slot, id) in out.iter_mut().zip(range) {
            *slot = display(
                self.stage[id],
                self.role[id],
                self.round_in_stage[id],
                self.base_display[id],
                self.opinion[id],
            );
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
        // One plane (d = 2), built one 64-agent word per store.
        let stage = &self.stage[range.clone()];
        let role = &self.role[range.clone()];
        let round_in_stage = &self.round_in_stage[range.clone()];
        let base = &self.base_display[range.clone()];
        let opinion = &self.opinion[range];
        for (w, ((((stages, roles), rounds), bases), opinions)) in stage
            .chunks(64)
            .zip(role.chunks(64))
            .zip(round_in_stage.chunks(64))
            .zip(base.chunks(64))
            .zip(opinion.chunks(64))
            .enumerate()
        {
            let mut bits = 0u64;
            for (b, ((((&st, &ro), &r), &bd), &op)) in stages
                .iter()
                .zip(roles)
                .zip(rounds)
                .zip(bases)
                .zip(opinions)
                .enumerate()
            {
                bits |= (display(st, ro, r, bd, op) as u64) << b;
            }
            chunk.set_plane_word(0, w, bits);
        }
    }

    fn chunks_mut(&mut self, chunk_len: usize) -> Vec<AltSfChunkMut<'_>> {
        let chunk_len = chunk_len.max(1);
        let params = self.params;
        let mut out = Vec::with_capacity(self.role.len().div_ceil(chunk_len));
        let mut stage = self.stage.as_mut_slice();
        let mut round_in_stage = self.round_in_stage.as_mut_slice();
        let mut diff = self.diff.as_mut_slice();
        let mut weak = self.weak.as_mut_slice();
        let mut opinion = self.opinion.as_mut_slice();
        let mut mem0 = self.mem0.as_mut_slice();
        let mut mem1 = self.mem1.as_mut_slice();
        while !stage.is_empty() {
            let take = chunk_len.min(stage.len());
            out.push(AltSfChunkMut {
                params,
                stage: split_head(&mut stage, take),
                round_in_stage: split_head(&mut round_in_stage, take),
                diff: split_head(&mut diff, take),
                weak: split_head(&mut weak, take),
                opinion: split_head(&mut opinion, take),
                mem0: split_head(&mut mem0, take),
                mem1: split_head(&mut mem1, take),
            });
        }
        out
    }

    fn step_chunk(
        chunk: &mut AltSfChunkMut<'_>,
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

    /// The lane form of [`AltSfAgent`]'s trend-change hook.
    fn flip_source_preferences(&mut self) -> usize {
        self.role
            .iter_mut()
            .map(flip_preference)
            .filter(|&f| f)
            .count()
    }
}

impl SnapshotState for AltSfColumns {
    const SNAP_TAG: &'static str = "sf-alt-columns/v1";

    fn encode_state(&self, w: &mut SnapWriter) {
        let n = self.role.len();
        w.put_usize(n);
        self.params.encode_snap(w);
        for &role in &self.role {
            w.put_role(role);
        }
        for &stage in &self.stage {
            match stage {
                LISTENING => w.put_u8(0),
                DONE => w.put_u8(2),
                boost => {
                    w.put_u8(1);
                    w.put_u64(u64::from(boost - BOOST0));
                }
            }
        }
        for lane in [&self.round_in_stage, &self.mem0, &self.mem1] {
            for &x in lane {
                w.put_u64(x);
            }
        }
        for &base in &self.base_display {
            w.put_opinion(base);
        }
        for &d in &self.diff {
            w.put_i64(d);
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
                0 => LISTENING,
                1 => {
                    let k = r.take_u64()?;
                    u32::try_from(k)
                        .ok()
                        .and_then(|k| k.checked_add(BOOST0))
                        .filter(|&stage| stage != DONE)
                        .ok_or_else(|| np_engine::EngineError::BadSnapshot {
                            detail: format!("SF-ALT boost sub-phase {k} out of range"),
                        })?
                }
                2 => DONE,
                x => {
                    return Err(np_engine::EngineError::BadSnapshot {
                        detail: format!("invalid SF-ALT stage byte {x}"),
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
        let mem0 = u64_lane()?;
        let mem1 = u64_lane()?;
        let mut base_display = Vec::with_capacity(cap);
        for _ in 0..n {
            base_display.push(r.take_opinion()?);
        }
        let mut diff = Vec::with_capacity(cap);
        for _ in 0..n {
            diff.push(r.take_i64()?);
        }
        let mut weak = Vec::with_capacity(cap);
        for _ in 0..n {
            weak.push(r.take_opt_opinion()?);
        }
        let mut opinion = Vec::with_capacity(cap);
        for _ in 0..n {
            opinion.push(r.take_opinion()?);
        }
        Ok(AltSfColumns {
            params,
            role,
            stage,
            round_in_stage,
            base_display,
            diff,
            weak,
            opinion,
            mem0,
            mem1,
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

    fn params(n: usize, h: usize, delta: f64) -> SfParams {
        let config = PopulationConfig::new(n, 0, 1, h).unwrap();
        SfParams::derive(&config, delta, 1.0).unwrap()
    }

    #[test]
    fn non_source_alternates_displays() {
        let proto = AlternatingSourceFilter::new(params(8, 8, 0.1));
        let mut rng = StreamRng::seed_from_u64(0);
        let mut agent = proto.init_agent(Role::NonSource, &mut rng);
        let first = agent.display(&mut rng);
        agent.update(&[4, 4], &mut rng);
        let second = agent.display(&mut rng);
        assert_ne!(first, second, "display must alternate");
        agent.update(&[4, 4], &mut rng);
        assert_eq!(agent.display(&mut rng), first);
    }

    #[test]
    fn initial_display_coin_is_fair() {
        let proto = AlternatingSourceFilter::new(params(8, 8, 0.1));
        let mut ones = 0;
        for seed in 0..400 {
            let mut rng = StreamRng::seed_from_u64(seed);
            let agent = proto.init_agent(Role::NonSource, &mut rng);
            ones += agent.display(&mut rng);
        }
        assert!((120..280).contains(&ones), "biased coin: {ones}/400");
    }

    #[test]
    fn sources_display_preference_throughout_listening() {
        let proto = AlternatingSourceFilter::new(params(8, 8, 0.1));
        let mut rng = StreamRng::seed_from_u64(1);
        let mut agent = proto.init_agent(Role::Source(Opinion::One), &mut rng);
        for _ in 0..5 {
            assert_eq!(agent.display(&mut rng), 1);
            agent.update(&[4, 4], &mut rng);
        }
    }

    #[test]
    fn evidence_accumulates_signed_difference() {
        let proto = AlternatingSourceFilter::new(params(8, 8, 0.1));
        let mut rng = StreamRng::seed_from_u64(2);
        let mut agent = proto.init_agent(Role::NonSource, &mut rng);
        agent.update(&[2, 6], &mut rng);
        assert_eq!(agent.evidence(), 4);
        agent.update(&[7, 1], &mut rng);
        assert_eq!(agent.evidence(), -2);
        assert!(agent.weak_opinion().is_none());
    }

    #[test]
    fn weak_opinion_is_sign_of_evidence() {
        let p = params(8, 8, 0.1).with_m(8).unwrap(); // phase_len = 1, listening = 2 rounds
        let proto = AlternatingSourceFilter::new(p);
        let mut rng = StreamRng::seed_from_u64(3);
        let mut agent = proto.init_agent(Role::NonSource, &mut rng);
        agent.update(&[1, 7], &mut rng);
        agent.update(&[3, 5], &mut rng);
        assert_eq!(agent.weak_opinion(), Some(Opinion::One));
        assert_eq!(agent.opinion(), Opinion::One);
    }

    #[test]
    fn converges_single_source_h_equals_n() {
        let n = 256;
        let p = params(n, n, 0.2);
        let config = PopulationConfig::new(n, 0, 1, n).unwrap();
        let noise = NoiseMatrix::uniform(2, 0.2).unwrap();
        let mut world = World::new(
            &AlternatingSourceFilter::new(p),
            config,
            &noise,
            ChannelKind::Aggregated,
            7,
        )
        .unwrap();
        world.run(p.total_rounds());
        assert!(world.is_consensus(), "{}/{n}", world.correct_count());
        assert!(world.iter_agents().all(|a| a.is_done()));
    }

    #[test]
    fn converges_with_conflicting_sources() {
        // c₁ = 2: SF-ALT pays extra background variance relative to SF
        // (see module docs), so at this small n the default budget leaves
        // a few percent failure probability per run.
        let n = 256;
        let config = PopulationConfig::new(n, 2, 3, n).unwrap();
        let p = SfParams::derive(&config, 0.15, 2.0).unwrap();
        let noise = NoiseMatrix::uniform(2, 0.15).unwrap();
        let mut world = World::new(
            &AlternatingSourceFilter::new(p),
            config,
            &noise,
            ChannelKind::Aggregated,
            9,
        )
        .unwrap();
        world.run(p.total_rounds());
        assert!(world.is_consensus());
    }

    #[test]
    fn accessors() {
        let p = params(8, 8, 0.1);
        let proto = AlternatingSourceFilter::new(p);
        assert_eq!(proto.alphabet_size(), 2);
        assert_eq!(proto.params(), &p);
    }
}
