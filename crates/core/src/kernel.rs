//! Plumbing shared by the protocols' lane kernels: lazily created update
//! RNGs, the tie-breaking majority, chunk splitting of lanes and the
//! trend-change flip.

use std::cmp::Ordering;

use np_engine::opinion::Opinion;
use np_engine::population::Role;
use np_engine::streams::{RoundStreams, StreamRng, StreamStage};
use rand::Rng;

/// A per-agent RNG created only if a draw actually happens. Streams are
/// independent and the first draw from a fresh stream is deterministic,
/// so deferring creation until the first draw is observationally
/// identical to creating it up front — and most rounds draw nothing (SF
/// draws only at phase boundaries, SSF only on ties in an update round).
pub(crate) struct LazyRng<'a> {
    streams: &'a RoundStreams,
    agent: usize,
    stage: StreamStage,
    rng: Option<StreamRng>,
}

impl<'a> LazyRng<'a> {
    pub(crate) fn new(streams: &'a RoundStreams, agent: usize, stage: StreamStage) -> Self {
        LazyRng {
            streams,
            agent,
            stage,
            rng: None,
        }
    }

    /// A fair coin, drawn from the underlying stream (created on first
    /// use). Matches `rng.gen::<bool>()` on an eagerly created stream.
    pub(crate) fn coin(&mut self) -> bool {
        let (streams, agent, stage) = (self.streams, self.agent, self.stage);
        self.rng
            .get_or_insert_with(|| streams.rng(agent, stage))
            .gen()
    }
}

/// The majority rule of SF, SSF and SF-ALT: `One` when the evidence for 1
/// compares `Greater`, `Zero` when `Less`, a fair coin on a tie. Draws
/// only on an actual tie.
pub(crate) fn majority(ones_vs_zeros: Ordering, coin: &mut impl FnMut() -> bool) -> Opinion {
    match ones_vs_zeros {
        Ordering::Greater => Opinion::One,
        Ordering::Less => Opinion::Zero,
        Ordering::Equal => Opinion::from_bool(coin()),
    }
}

/// Splits the first `take` elements off `lane`, leaving the rest in
/// place — the step of `chunks_mut` that carves disjoint chunk views out
/// of every lane in lockstep.
pub(crate) fn split_head<'a, T>(lane: &mut &'a mut [T], take: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(lane).split_at_mut(take);
    *lane = tail;
    head
}

/// Inverts a source's preference — the trend-change fault: the
/// environment revises the ground truth. Returns `false` for a
/// non-source, which has no preference to flip.
pub(crate) fn flip_preference(role: &mut Role) -> bool {
    if let Role::Source(pref) = *role {
        *role = Role::Source(!pref);
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazy_rng_matches_eager_stream_rng() {
        let streams = RoundStreams::new(11, 3);
        let mut eager = streams.rng(5, StreamStage::Update);
        let mut lazy = LazyRng::new(&streams, 5, StreamStage::Update);
        for _ in 0..8 {
            assert_eq!(lazy.coin(), eager.gen::<bool>());
        }
    }

    #[test]
    fn majority_breaks_ties_only() {
        let mut draws = 0;
        let mut coin = || {
            draws += 1;
            true
        };
        assert_eq!(majority(3.cmp(&1), &mut coin), Opinion::One);
        assert_eq!(majority(1.cmp(&3), &mut coin), Opinion::Zero);
        assert_eq!(majority(2.cmp(&2), &mut coin), Opinion::One);
        assert_eq!(draws, 1, "only the tie draws");
    }

    #[test]
    fn split_head_carves_in_order() {
        let mut data = [1, 2, 3, 4, 5];
        let mut lane = &mut data[..];
        assert_eq!(split_head(&mut lane, 2), &[1, 2]);
        assert_eq!(split_head(&mut lane, 3), &[3, 4, 5]);
        assert!(lane.is_empty());
    }
}
