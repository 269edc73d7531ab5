//! The per-round correct-opinion count, the trajectory the root tests
//! compare. Included with `#[path]` by the test targets that need it.

use noisy_pull_repro::prelude::*;

/// Steps `world` for `rounds` rounds and returns its correct-opinion
/// count after each one.
pub fn correct_counts<P: ColumnarProtocol>(world: &mut World<P>, rounds: u64) -> Vec<usize> {
    (0..rounds)
        .map(|_| {
            world.step();
            world.correct_count()
        })
        .collect()
}
