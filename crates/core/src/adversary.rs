//! Adversarial initial-state corruption strategies for the
//! self-stabilization experiments (Theorem 5 / Definition 2).
//!
//! The paper's adversary may set each agent's internal state arbitrarily —
//! planting fake samples in memories, corrupting opinions and clocks — but
//! may not alter roles, preferences, or the agents' knowledge of `n` and
//! the noise matrix. These strategies are applied through
//! [`crate::ssf::SsfAgent::corrupt_state`], which enforces exactly that
//! boundary.

use std::sync::Arc;

use np_engine::faults::FaultEvent;
use np_engine::opinion::Opinion;
use np_engine::protocol::ColumnarState;
use np_engine::streams::StreamRng;
use rand::Rng;

use crate::ssf::{SsfAgent, SsfColumns};

/// A named corruption strategy. `Wrong` below always refers to the
/// complement of the correct opinion, i.e. the worst case for the
/// protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SsfAdversary {
    /// No corruption: clean random initialization (control).
    None,
    /// Every agent starts with the wrong weak opinion and opinion, empty
    /// memory.
    AllWrong,
    /// Every agent's memory is stuffed to capacity with fake source-tagged
    /// messages carrying the wrong value — the strongest "poisoned
    /// history": the very first update round re-derives wrong opinions.
    PoisonedMemory,
    /// Weak opinions, opinions and memory contents are fully random, and
    /// memory *sizes* are random too, desynchronizing every agent's update
    /// rounds (the "corrupted clocks" scenario).
    RandomDesync,
    /// Agents split into two camps: even ids are certain of the wrong
    /// opinion with poisoned memory, odd ids are certain of the correct
    /// one — a polarized configuration that simple copy dynamics cannot
    /// leave.
    SplitBrain,
    /// All agents appear already converged on the *wrong* opinion with
    /// almost-full coherent memories — a fake consensus.
    FakeConsensus,
}

impl SsfAdversary {
    /// Every strategy, for sweep experiments.
    pub const ALL: [SsfAdversary; 6] = [
        SsfAdversary::None,
        SsfAdversary::AllWrong,
        SsfAdversary::PoisonedMemory,
        SsfAdversary::RandomDesync,
        SsfAdversary::SplitBrain,
        SsfAdversary::FakeConsensus,
    ];

    /// A short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            SsfAdversary::None => "none",
            SsfAdversary::AllWrong => "all-wrong",
            SsfAdversary::PoisonedMemory => "poisoned-memory",
            SsfAdversary::RandomDesync => "random-desync",
            SsfAdversary::SplitBrain => "split-brain",
            SsfAdversary::FakeConsensus => "fake-consensus",
        }
    }

    /// Applies the strategy to one agent.
    ///
    /// * `correct` — the correct opinion (so strategies can be maximally
    ///   adversarial); the real adversary knows it since it chose the
    ///   sources.
    /// * `m` — the protocol's memory capacity (used to size fake
    ///   memories).
    /// * `id` — the agent id (used by id-dependent strategies).
    #[inline]
    pub fn corrupt(
        self,
        agent: &mut SsfAgent,
        correct: Opinion,
        m: u64,
        id: usize,
        rng: &mut StreamRng,
    ) {
        let wrong = !correct;
        match self {
            SsfAdversary::None => {}
            SsfAdversary::AllWrong => {
                agent.corrupt_state(wrong, wrong, [0; 4]);
            }
            SsfAdversary::PoisonedMemory => {
                let mut mem = [0u64; 4];
                mem[crate::ssf::encode(true, wrong)] = m;
                agent.corrupt_state(wrong, wrong, mem);
            }
            SsfAdversary::RandomDesync => {
                let weak = Opinion::from_bool(rng.gen());
                let opinion = Opinion::from_bool(rng.gen());
                let size = rng.gen_range(0..=m);
                // Uniform composition: each of the `size` fake messages
                // lands in one of the 4 symbol slots independently. (A
                // sequential `gen_range(0..=left)` split is *not* uniform —
                // it gives slot 0 half the remaining mass in expectation.)
                let mut mem = [0u64; 4];
                np_stats::multinomial::sample_into(rng, size, &[0.25; 4], &mut mem);
                agent.corrupt_state(weak, opinion, mem);
            }
            SsfAdversary::SplitBrain => {
                let mine = if id.is_multiple_of(2) { wrong } else { correct };
                let mut mem = [0u64; 4];
                mem[crate::ssf::encode(true, mine)] = m / 2;
                mem[crate::ssf::encode(false, mine)] = m / 2;
                agent.corrupt_state(mine, mine, mem);
            }
            SsfAdversary::FakeConsensus => {
                let mut mem = [0u64; 4];
                // Coherent history: mostly untagged wrong values with a few
                // tagged ones, sized just under the update threshold.
                let size = m.saturating_sub(1);
                let tagged = size / 16;
                mem[crate::ssf::encode(true, wrong)] = tagged;
                mem[crate::ssf::encode(false, wrong)] = size - tagged;
                agent.corrupt_state(wrong, wrong, mem);
            }
        }
    }

    /// A mid-run [`FaultEvent::Corrupt`] that re-applies this strategy to
    /// each agent independently with probability `frac`, from the agents'
    /// fault streams, labelled with [`SsfAdversary::name`].
    pub fn fault_event(self, frac: f64, correct: Opinion, m: u64) -> FaultEvent<SsfColumns> {
        FaultEvent::Corrupt {
            frac,
            label: self.name().to_string(),
            fault: Arc::new(
                move |state: &mut SsfColumns, id: usize, rng: &mut StreamRng| {
                    let mut agent = state.agent(id);
                    self.corrupt(&mut agent, correct, m, id, rng);
                    state.set_agent(id, agent);
                },
            ),
        }
    }
}

impl std::fmt::Display for SsfAdversary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SsfParams;
    use crate::ssf::SelfStabilizingSourceFilter;
    use np_engine::population::{PopulationConfig, Role};
    use np_engine::protocol::AgentState;
    use rand::SeedableRng;

    fn fresh_agent(m: u64) -> SsfAgent {
        let config = PopulationConfig::new(64, 0, 1, 8).unwrap();
        let params = SsfParams::derive(&config, 0.1, 1.0)
            .unwrap()
            .with_m(m)
            .unwrap();
        let proto = SelfStabilizingSourceFilter::new(params);
        let mut rng = StreamRng::seed_from_u64(1);
        proto.init_agent(Role::NonSource, &mut rng)
    }

    #[test]
    fn names_are_unique_and_nonempty() {
        let names: std::collections::HashSet<_> =
            SsfAdversary::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), SsfAdversary::ALL.len());
        assert!(names.iter().all(|n| !n.is_empty()));
        assert_eq!(SsfAdversary::AllWrong.to_string(), "all-wrong");
    }

    #[test]
    fn none_leaves_agent_untouched() {
        let mut agent = fresh_agent(100);
        let before_mem = agent.memory();
        let mut rng = StreamRng::seed_from_u64(2);
        SsfAdversary::None.corrupt(&mut agent, Opinion::One, 100, 0, &mut rng);
        assert_eq!(agent.memory(), before_mem);
    }

    #[test]
    fn all_wrong_sets_wrong_opinions() {
        let mut agent = fresh_agent(100);
        let mut rng = StreamRng::seed_from_u64(3);
        SsfAdversary::AllWrong.corrupt(&mut agent, Opinion::One, 100, 0, &mut rng);
        assert_eq!(agent.opinion(), Opinion::Zero);
        assert_eq!(agent.weak_opinion(), Opinion::Zero);
        assert_eq!(agent.memory_size(), 0);
    }

    #[test]
    fn poisoned_memory_fills_with_tagged_wrong() {
        let mut agent = fresh_agent(100);
        let mut rng = StreamRng::seed_from_u64(4);
        SsfAdversary::PoisonedMemory.corrupt(&mut agent, Opinion::One, 100, 0, &mut rng);
        assert_eq!(agent.memory()[crate::ssf::encode(true, Opinion::Zero)], 100);
        assert_eq!(agent.memory_size(), 100);
    }

    #[test]
    fn random_desync_produces_varied_sizes() {
        let mut rng = StreamRng::seed_from_u64(5);
        let mut sizes = std::collections::HashSet::new();
        for id in 0..50 {
            let mut agent = fresh_agent(1000);
            SsfAdversary::RandomDesync.corrupt(&mut agent, Opinion::One, 1000, id, &mut rng);
            assert!(agent.memory_size() <= 1000);
            sizes.insert(agent.memory_size());
        }
        assert!(sizes.len() > 10, "sizes not varied: {sizes:?}");
    }

    #[test]
    fn random_desync_split_is_unbiased_across_slots() {
        // Regression: the old sequential `gen_range(0..=left)` split gave
        // slot 0 half the remaining mass in expectation. Under the uniform
        // composition each slot must carry ~1/4 of the total mass.
        let mut rng = StreamRng::seed_from_u64(8);
        let mut totals = [0u64; 4];
        let mut grand = 0u64;
        for id in 0..2000 {
            let mut agent = fresh_agent(1000);
            SsfAdversary::RandomDesync.corrupt(&mut agent, Opinion::One, 1000, id, &mut rng);
            let mem = agent.memory();
            assert_eq!(mem.iter().sum::<u64>(), agent.memory_size());
            for (total, count) in totals.iter_mut().zip(mem) {
                *total += count;
            }
            grand += agent.memory_size();
        }
        for (slot, &total) in totals.iter().enumerate() {
            let share = total as f64 / grand as f64;
            assert!(
                (0.23..0.27).contains(&share),
                "slot {slot} holds {share:.3} of the mass: {totals:?}"
            );
        }
    }

    #[test]
    fn split_brain_alternates_camps() {
        let mut rng = StreamRng::seed_from_u64(6);
        let mut even = fresh_agent(100);
        SsfAdversary::SplitBrain.corrupt(&mut even, Opinion::One, 100, 0, &mut rng);
        assert_eq!(even.opinion(), Opinion::Zero);
        let mut odd = fresh_agent(100);
        SsfAdversary::SplitBrain.corrupt(&mut odd, Opinion::One, 100, 1, &mut rng);
        assert_eq!(odd.opinion(), Opinion::One);
    }

    #[test]
    fn fake_consensus_sits_below_update_threshold() {
        let mut agent = fresh_agent(64);
        let mut rng = StreamRng::seed_from_u64(7);
        SsfAdversary::FakeConsensus.corrupt(&mut agent, Opinion::One, 64, 0, &mut rng);
        assert_eq!(agent.memory_size(), 63);
        assert_eq!(agent.opinion(), Opinion::Zero);
    }
}
