//! Test-only per-agent reference for SF, SSF and SF-ALT.
//!
//! [`PerAgent`] hands a protocol's plain per-agent record to the engine's
//! blanket `Protocol` adapter, so a `World<PerAgent<P>>` steps every agent
//! one at a time through `ScalarState` — eager per-agent RNG streams,
//! sub-slice chunking, the 64-agent packing window of the adapter — while
//! a `World<P>` runs the lane kernels. Both execute the protocol's one
//! update rule and one display rule, so the comparison checks the lanes,
//! chunking, bit-plane packing and lazy RNG creation against plain
//! per-agent plumbing.
//!
//! Included with `#[path]` by the test targets and the example that need
//! it.

use noisy_pull::sf::{SfAgent, SourceFilter};
use noisy_pull::sf_alternating::{AltSfAgent, AlternatingSourceFilter};
use noisy_pull::ssf::{SelfStabilizingSourceFilter, SsfAgent};
use np_engine::population::Role;
use np_engine::protocol::{ColumnarProtocol, Protocol};
use np_engine::streams::StreamRng;

/// `P`, run one agent record at a time through the `ScalarState` adapter.
pub struct PerAgent<P>(pub P);

macro_rules! per_agent {
    ($($proto:ty => $agent:ty),* $(,)?) => {$(
        impl Protocol for PerAgent<$proto> {
            type Agent = $agent;

            fn alphabet_size(&self) -> usize {
                ColumnarProtocol::alphabet_size(&self.0)
            }

            fn init_agent(&self, role: Role, rng: &mut StreamRng) -> $agent {
                self.0.init_agent(role, rng)
            }
        }
    )*};
}

per_agent!(
    SourceFilter => SfAgent,
    SelfStabilizingSourceFilter => SsfAgent,
    AlternatingSourceFilter => AltSfAgent,
);
