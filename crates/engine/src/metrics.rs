//! Run metrics: convergence outcomes, the per-round record
//! ([`RoundMetrics`]), and the per-round observer hook ([`RunObserver`] /
//! [`TraceRecorder`]).
//!
//! # Determinism vs. timing
//!
//! [`RoundMetrics`] is a pure function of the trajectory, so traces built
//! from it are byte-identical across thread counts — the same contract as
//! the trajectory itself. [`StageTimings`] is *wall-clock* data and
//! therefore inherently nondeterministic; it is delivered alongside the
//! metrics but must never be mixed into artifacts that are byte-compared
//! across runs (the JSONL/summary writers in `np-bench` keep it out).

use std::time::Duration;

use crate::opinion::Opinion;

/// The outcome of a bounded run: did the system reach consensus on the
/// correct opinion, and when.
///
/// Produced by [`crate::world::World::run_until_consensus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunOutcome {
    /// All agents held the correct opinion at the end of the given round
    /// (1-based count of completed rounds).
    Converged {
        /// Rounds executed until the first all-correct configuration.
        rounds: u64,
    },
    /// The round budget was exhausted first.
    TimedOut {
        /// The budget that was exhausted.
        budget: u64,
        /// Number of agents holding the correct opinion at the end.
        correct_at_end: usize,
    },
}

impl RunOutcome {
    /// Returns `true` if the run converged within budget.
    pub fn converged(&self) -> bool {
        matches!(self, RunOutcome::Converged { .. })
    }

    /// Rounds to convergence, if the run converged.
    pub fn rounds(&self) -> Option<u64> {
        match self {
            RunOutcome::Converged { rounds } => Some(*rounds),
            RunOutcome::TimedOut { .. } => None,
        }
    }
}

/// Deterministic snapshot of the system after one completed round,
/// collected by the observer hook (enable with
/// [`crate::world::World::record_trace`] or
/// [`crate::world::World::set_observer`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundMetrics {
    /// 1-based count of completed rounds when the snapshot was taken.
    pub round: u64,
    /// Population size.
    pub n: usize,
    /// Agents holding the correct opinion.
    pub correct: usize,
    /// Stage occupancy: `(stage_id, agents in that stage)`, sorted by
    /// stage id, omitting empty stages. Stage ids come from
    /// [`crate::protocol::AgentState::stage_id`].
    pub stages: Vec<(u32, usize)>,
    /// Agents whose weak opinion has formed
    /// ([`crate::protocol::AgentState::weak_opinion`] is `Some`).
    pub weak_formed: usize,
    /// Of those, how many weak opinions are correct.
    pub weak_correct: usize,
    /// Labels of the fault events injected just before this round executed
    /// ([`crate::faults`]); empty for fault-free rounds. Part of the
    /// deterministic trajectory (a pure function of the fault plan), so it
    /// may flow into byte-compared artifacts.
    pub faults: Vec<String>,
}

impl RoundMetrics {
    /// Assembles one round's record from the state's observability sweep
    /// — the one constructor every backend builds its trace through.
    pub(crate) fn from_sweep(
        round: u64,
        n: usize,
        sweep: MetricsSweep,
        faults: Vec<String>,
    ) -> Self {
        RoundMetrics {
            round,
            n,
            correct: sweep.correct,
            stages: sweep.stages,
            weak_formed: sweep.weak_formed,
            weak_correct: sweep.weak_correct,
            faults,
        }
    }

    /// The margin of the correct opinion over half the population — the
    /// paper's `A_ℓ` (can be negative).
    pub fn margin(&self) -> f64 {
        self.correct as f64 - self.n as f64 / 2.0
    }
}

/// The result of one observability sweep over the population
/// ([`crate::protocol::ColumnarState::metrics_sweep`]): the
/// state-dependent fields of [`RoundMetrics`], before the world adds the
/// round number and fault labels. Lane states fill this in one fused
/// pass over their lanes; the trait default walks the per-agent
/// records. Both must agree exactly — these numbers flow into
/// byte-compared run summaries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSweep {
    /// Agents holding the correct opinion.
    pub correct: usize,
    /// Stage occupancy, sorted ascending by stage id, empty stages
    /// omitted.
    pub stages: Vec<(u32, usize)>,
    /// Agents whose weak opinion has formed.
    pub weak_formed: usize,
    /// Of those, how many weak opinions are correct.
    pub weak_correct: usize,
}

impl MetricsSweep {
    /// Tallies one `(opinion, stage id, weak opinion)` triple per agent,
    /// relative to the `correct` opinion.
    pub fn from_agents(
        correct: Opinion,
        agents: impl IntoIterator<Item = (Opinion, u32, Option<Opinion>)>,
    ) -> Self {
        let mut sweep = MetricsSweep::default();
        let mut stages: std::collections::BTreeMap<u32, usize> = std::collections::BTreeMap::new();
        for (opinion, stage, weak) in agents {
            if opinion == correct {
                sweep.correct += 1;
            }
            *stages.entry(stage).or_insert(0) += 1;
            if let Some(weak) = weak {
                sweep.weak_formed += 1;
                if weak == correct {
                    sweep.weak_correct += 1;
                }
            }
        }
        sweep.stages = stages.into_iter().collect();
        sweep
    }
}

/// Wall-clock time spent in each phase of one round.
///
/// Nondeterministic by nature; see the module docs for where it may and
/// may not flow. The engine's invariant checks run inside the phases, so
/// their cost is attributed to the enclosing phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Pass 1: computing displayed symbols into the packed bit planes,
    /// including the popcount display histogram (the paper's sampling
    /// setup).
    pub display: Duration,
    /// Pass 2: the noisy channel **and** the protocol updates — the hot
    /// path fuses phases 2–4 into one scatter, so sampling, noise and
    /// updates are timed together here.
    pub observe: Duration,
    /// The observer's own metrics pass (stage/opinion sweep).
    pub collect: Duration,
}

impl StageTimings {
    /// Sum of all phases.
    pub fn total(&self) -> Duration {
        self.display + self.observe + self.collect
    }

    /// Accumulates another round's timings into this one.
    pub fn accumulate(&mut self, other: &StageTimings) {
        self.display += other.display;
        self.observe += other.observe;
        self.collect += other.collect;
    }
}

/// A stopwatch for phase timing inside [`crate::world::World::step`].
///
/// This is the **one sanctioned wall-clock site** in the engine: timing
/// belongs to the observer, never to protocol code (enforced by the
/// `wall-clock` and `protocol-instant` xtask lints). The clock only runs
/// when an observer is attached, keeping the disabled path free of time
/// syscalls.
#[derive(Debug, Clone, Copy)]
pub struct StageClock {
    last: std::time::Instant,
}

impl StageClock {
    /// Starts the clock.
    pub fn start() -> Self {
        StageClock {
            // xtask-allow: wall-clock (sanctioned observer clock; runs
            // only when an observer is attached)
            last: std::time::Instant::now(),
        }
    }

    /// Time since the previous lap (or since `start`), and restarts.
    pub fn lap(&mut self) -> Duration {
        // xtask-allow: wall-clock (sanctioned observer clock; runs only
        // when an observer is attached)
        let now = std::time::Instant::now();
        let elapsed = now - self.last;
        self.last = now;
        elapsed
    }
}

/// Per-round observer: receives one [`RoundMetrics`] snapshot (plus that
/// round's [`StageTimings`]) after every completed round.
///
/// Attach with [`crate::world::World::set_observer`] for a custom sink, or
/// use the built-in [`TraceRecorder`] via
/// [`crate::world::World::record_trace`]. `Send` so worlds holding an
/// observer can still move across threads (e.g. into `run_batch` jobs).
pub trait RunObserver: Send {
    /// Called once after each completed round.
    fn on_round(&mut self, metrics: &RoundMetrics, timings: &StageTimings);
}

/// The built-in [`RunObserver`]: keeps every round's metrics and the
/// accumulated phase timings in memory, ready for the trace/summary
/// writers in `np-bench`.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    rounds: Vec<RoundMetrics>,
    timings: StageTimings,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// All recorded rounds, in order.
    pub fn rounds(&self) -> &[RoundMetrics] {
        &self.rounds
    }

    /// The most recent round's metrics, if any round was recorded.
    pub fn last(&self) -> Option<&RoundMetrics> {
        self.rounds.last()
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Returns `true` if nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Wall-clock phase totals accumulated over all recorded rounds.
    pub fn timings(&self) -> &StageTimings {
        &self.timings
    }
}

impl RunObserver for TraceRecorder {
    fn on_round(&mut self, metrics: &RoundMetrics, timings: &StageTimings) {
        self.rounds.push(metrics.clone());
        self.timings.accumulate(timings);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_accessors() {
        let c = RunOutcome::Converged { rounds: 17 };
        assert!(c.converged());
        assert_eq!(c.rounds(), Some(17));
        let t = RunOutcome::TimedOut {
            budget: 100,
            correct_at_end: 42,
        };
        assert!(!t.converged());
        assert_eq!(t.rounds(), None);
    }

    fn sample_metrics(round: u64, correct: usize) -> RoundMetrics {
        RoundMetrics {
            round,
            n: 10,
            correct,
            stages: vec![(0, 4), (1, 6)],
            weak_formed: 6,
            weak_correct: 5,
            faults: Vec::new(),
        }
    }

    #[test]
    fn round_metrics_margin() {
        assert_eq!(sample_metrics(1, 7).margin(), 2.0);
        assert_eq!(sample_metrics(1, 3).margin(), -2.0);
    }

    #[test]
    fn trace_recorder_accumulates() {
        let mut rec = TraceRecorder::new();
        assert!(rec.is_empty());
        assert_eq!(rec.last(), None);
        let t1 = StageTimings {
            display: Duration::from_micros(3),
            observe: Duration::from_micros(5),
            collect: Duration::from_micros(2),
        };
        rec.on_round(&sample_metrics(1, 6), &t1);
        rec.on_round(&sample_metrics(2, 8), &t1);
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.rounds()[0].correct, 6);
        assert_eq!(rec.last().map(|m| m.round), Some(2));
        assert_eq!(rec.timings().display, Duration::from_micros(6));
        assert_eq!(rec.timings().total(), Duration::from_micros(20));
    }

    #[test]
    fn stage_clock_laps_monotonically() {
        let mut clock = StageClock::start();
        let a = clock.lap();
        let b = clock.lap();
        // Durations are non-negative by construction; just exercise both
        // paths and check the type round-trips.
        assert!(a + b >= a);
    }
}
