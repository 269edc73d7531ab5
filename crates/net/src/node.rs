//! The event-driven protocol node and its sans-io `Transport` seam.
//!
//! A [`Node`] wraps one protocol agent record
//! ([`np_engine::protocol::AgentState`]) and turns the round-based
//! display/observe/update cycle into a timer-driven local loop with **no
//! global barrier**:
//!
//! 1. On a [`NodeEvent::Tick`] the node *closes* its current local round
//!    — if at least one reply arrived it feeds the observation counts to
//!    `AgentState::update`, otherwise the round is skipped entirely
//!    ("breathe before speaking": silence is not evidence) — and *opens*
//!    the next: draws its displayed symbol, sends `h`
//!    [`NetMsg::PullRequest`]s to uniformly chosen peers (self included,
//!    matching the engine's with-replacement sampling), and re-arms the
//!    timer.
//! 2. A [`NetMsg::PullRequest`] from a peer is answered immediately with
//!    the node's currently displayed symbol, whatever local round the
//!    node happens to be in.
//! 3. A [`NetMsg::PullReply`] tagged with the node's *current* local
//!    round passes through the noisy channel
//!    ([`np_engine::channel::Channel::observe_one`]) and is counted;
//!    replies for past rounds are dropped as stale.
//!
//! All randomness is drawn from `(seed, local_round, node, stage)`
//! streams ([`np_engine::streams::RoundStreams`]), so a node's behavior
//! is a pure function of its coordinate and the sequence of events it is
//! fed — the transports own *when* events happen, the node owns *what*
//! they mean. The node performs no I/O: every outward effect is a
//! [`NodeAction`] applied to a [`Transport`].

use std::sync::Arc;

use np_engine::channel::Channel;
use np_engine::protocol::AgentState;
use np_engine::streams::{RoundStreams, StreamRng, StreamStage};
use rand::Rng;

use crate::msg::{Envelope, NetMsg, WEAK_NONE};

/// The destination id nodes use for driver-bound bookkeeping messages
/// ([`NetMsg::Status`]); never a valid peer id.
pub const DRIVER: u64 = u64::MAX;

/// An input to the node state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeEvent {
    /// A message arrived on the node's link.
    Deliver(Envelope),
    /// The node's round timer fired.
    Tick,
}

/// An outward effect requested by the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeAction {
    /// Put this envelope on the wire.
    Send(Envelope),
    /// Arm the round timer to fire once, this many nanoseconds from now
    /// (virtual or real, per transport). Replaces any armed timer.
    SetTick(u64),
}

/// The per-node action sink implemented by each transport: the simulated
/// scheduler pushes into its event heap, the TCP port writes frames and
/// moves its socket deadline. This is the entire surface between protocol
/// execution and I/O.
pub trait Transport {
    /// Carries out one action on behalf of the node.
    fn apply(&mut self, action: NodeAction);
}

/// Counters a node accumulates about its own message handling; read by
/// the cluster drivers for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Local rounds closed with zero arrived replies (skipped updates).
    pub rounds_skipped: u64,
    /// Replies that arrived after their round had already closed.
    pub stale_replies: u64,
    /// Replies counted into an observation vector.
    pub replies_counted: u64,
}

/// One protocol agent behind a transport. Generic over the per-agent
/// record seam, so the update and display rules of the round engine's
/// `SfAgent`/`SsfAgent` records run here unchanged.
#[derive(Debug)]
pub struct Node<A: AgentState> {
    id: u64,
    n: u64,
    h: usize,
    seed: u64,
    tick_ns: u64,
    agent: A,
    channel: Arc<Channel>,
    local_round: u64,
    displayed: u8,
    obs: Vec<u64>,
    replies_seen: u64,
    obs_rng: StreamRng,
    done: bool,
    stats: NodeStats,
}

impl<A: AgentState> Node<A> {
    /// Wraps `agent` as node `id` of `n`, sampling `h` peers per local
    /// round of `tick_ns` nanoseconds. The display is valid immediately
    /// (round-0 streams), so requests arriving before the node's first
    /// tick are answered correctly.
    pub fn new(
        id: u64,
        n: u64,
        h: usize,
        seed: u64,
        tick_ns: u64,
        agent: A,
        channel: Arc<Channel>,
    ) -> Self {
        let d = channel.alphabet_size();
        let boot = RoundStreams::new(seed, 0);
        let idx = usize::try_from(id).unwrap_or(usize::MAX);
        let displayed = symbol_byte(agent.display(&mut boot.rng(idx, StreamStage::Display)));
        let obs_rng = boot.rng(idx, StreamStage::Observe);
        Node {
            id,
            n,
            h,
            seed,
            tick_ns,
            agent,
            channel,
            local_round: 0,
            displayed,
            obs: vec![0; d],
            replies_seen: 0,
            obs_rng,
            done: false,
            stats: NodeStats::default(),
        }
    }

    /// Feeds one event through the state machine, applying any resulting
    /// actions to `t`.
    pub fn handle(&mut self, event: NodeEvent, t: &mut impl Transport) {
        match event {
            NodeEvent::Tick => self.on_tick(t),
            NodeEvent::Deliver(env) => self.on_deliver(env, t),
        }
    }

    fn on_tick(&mut self, t: &mut impl Transport) {
        if self.done {
            return;
        }
        if self.local_round > 0 {
            self.close_round(t);
        }
        self.open_round(t);
    }

    fn close_round(&mut self, t: &mut impl Transport) {
        if self.replies_seen > 0 {
            let streams = RoundStreams::new(self.seed, self.local_round);
            let mut rng = streams.rng(self.idx(), StreamStage::Update);
            self.agent.update(&self.obs, &mut rng);
        } else {
            self.stats.rounds_skipped += 1;
        }
        let weak = self.agent.weak_opinion().map_or(WEAK_NONE, |w| w.as_byte());
        t.apply(NodeAction::Send(Envelope {
            from: self.id,
            to: DRIVER,
            msg: NetMsg::Status {
                round: self.local_round,
                opinion: self.agent.opinion().as_byte(),
                weak,
            },
        }));
    }

    fn open_round(&mut self, t: &mut impl Transport) {
        self.local_round += 1;
        let streams = RoundStreams::new(self.seed, self.local_round);
        let idx = self.idx();
        self.displayed = symbol_byte(
            self.agent
                .display(&mut streams.rng(idx, StreamStage::Display)),
        );
        self.obs_rng = streams.rng(idx, StreamStage::Observe);
        self.obs.fill(0);
        self.replies_seen = 0;
        let mut peers = streams.rng(idx, StreamStage::NetPeer);
        for _ in 0..self.h {
            let peer = peers.gen_range(0..self.n);
            t.apply(NodeAction::Send(Envelope {
                from: self.id,
                to: peer,
                msg: NetMsg::PullRequest {
                    round: self.local_round,
                },
            }));
        }
        t.apply(NodeAction::SetTick(self.tick_ns));
    }

    fn on_deliver(&mut self, env: Envelope, t: &mut impl Transport) {
        match env.msg {
            NetMsg::PullRequest { round } => {
                if !self.done {
                    t.apply(NodeAction::Send(Envelope {
                        from: self.id,
                        to: env.from,
                        msg: NetMsg::PullReply {
                            round,
                            symbol: self.displayed,
                        },
                    }));
                }
            }
            NetMsg::PullReply { round, symbol } => {
                if round != self.local_round || self.local_round == 0 {
                    self.stats.stale_replies += 1;
                    return;
                }
                let sym = usize::from(symbol);
                if sym >= self.obs.len() {
                    // A peer running a different alphabet is a config
                    // error; drop rather than corrupt the counts.
                    self.stats.stale_replies += 1;
                    return;
                }
                let observed = self.channel.observe_one(&mut self.obs_rng, sym);
                self.obs[observed] += 1;
                self.replies_seen += 1;
                self.stats.replies_counted += 1;
            }
            NetMsg::Shutdown => self.done = true,
            NetMsg::Hello | NetMsg::Status { .. } => {}
        }
    }

    fn idx(&self) -> usize {
        usize::try_from(self.id).unwrap_or(usize::MAX)
    }

    /// The node's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The node's current local round (0 before the first tick).
    pub fn local_round(&self) -> u64 {
        self.local_round
    }

    /// Whether a [`NetMsg::Shutdown`] has been received.
    pub fn done(&self) -> bool {
        self.done
    }

    /// The wrapped agent (for state inspection by drivers and tests).
    pub fn agent(&self) -> &A {
        &self.agent
    }

    /// The node's message-handling counters.
    pub fn stats(&self) -> NodeStats {
        self.stats
    }
}

fn symbol_byte(symbol: usize) -> u8 {
    u8::try_from(symbol).unwrap_or(u8::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use noisy_pull::params::SsfParams;
    use noisy_pull::ssf::SelfStabilizingSourceFilter;
    use np_engine::channel::{Channel, ChannelKind};
    use np_engine::population::{PopulationConfig, Role};
    use np_linalg::noise::NoiseMatrix;

    struct Sink(Vec<NodeAction>);
    impl Transport for Sink {
        fn apply(&mut self, action: NodeAction) {
            self.0.push(action);
        }
    }

    fn test_node(id: u64) -> Node<noisy_pull::ssf::SsfAgent> {
        let noise = NoiseMatrix::uniform(4, 0.1).expect("noise");
        let channel = Arc::new(Channel::new(&noise, ChannelKind::Exact));
        let config = PopulationConfig::new(8, 0, 1, 3).expect("population");
        let params = SsfParams::derive(&config, 0.1, 4.0).expect("params");
        let proto = SelfStabilizingSourceFilter::new(params);
        let streams = RoundStreams::new(1, 0);
        let idx = usize::try_from(id).expect("id");
        let agent = proto.init_agent(Role::NonSource, &mut streams.rng(idx, StreamStage::Init));
        Node::new(id, 8, 3, 1, 1_000_000, agent, channel)
    }

    #[test]
    fn first_tick_sends_h_requests_and_rearms() {
        let mut node = test_node(0);
        let mut sink = Sink(Vec::new());
        node.handle(NodeEvent::Tick, &mut sink);
        let sends = sink
            .0
            .iter()
            .filter(
                |a| matches!(a, NodeAction::Send(e) if matches!(e.msg, NetMsg::PullRequest { .. })),
            )
            .count();
        assert_eq!(sends, 3);
        assert!(matches!(
            sink.0.last(),
            Some(NodeAction::SetTick(1_000_000))
        ));
        assert_eq!(node.local_round(), 1);
    }

    #[test]
    fn requests_are_answered_with_current_display() {
        let mut node = test_node(1);
        let mut sink = Sink(Vec::new());
        node.handle(
            NodeEvent::Deliver(Envelope {
                from: 5,
                to: 1,
                msg: NetMsg::PullRequest { round: 9 },
            }),
            &mut sink,
        );
        match sink.0.as_slice() {
            [NodeAction::Send(e)] => {
                assert_eq!(e.to, 5);
                assert!(matches!(e.msg, NetMsg::PullReply { round: 9, .. }));
            }
            other => panic!("expected one reply, got {other:?}"),
        }
    }

    #[test]
    fn stale_replies_are_dropped() {
        let mut node = test_node(2);
        let mut sink = Sink(Vec::new());
        node.handle(NodeEvent::Tick, &mut sink); // opens round 1
        node.handle(
            NodeEvent::Deliver(Envelope {
                from: 3,
                to: 2,
                msg: NetMsg::PullReply {
                    round: 7,
                    symbol: 0,
                },
            }),
            &mut sink,
        );
        assert_eq!(node.stats().stale_replies, 1);
        assert_eq!(node.stats().replies_counted, 0);
    }

    #[test]
    fn empty_round_skips_update_and_reports_status() {
        let mut node = test_node(3);
        let mut sink = Sink(Vec::new());
        node.handle(NodeEvent::Tick, &mut sink); // opens round 1
        sink.0.clear();
        node.handle(NodeEvent::Tick, &mut sink); // closes round 1 (empty), opens 2
        assert_eq!(node.stats().rounds_skipped, 1);
        let status = sink
            .0
            .iter()
            .any(|a| matches!(a, NodeAction::Send(e) if e.to == DRIVER));
        assert!(status, "expected a driver-bound Status");
        assert_eq!(node.local_round(), 2);
    }

    #[test]
    fn shutdown_stops_the_node() {
        let mut node = test_node(4);
        let mut sink = Sink(Vec::new());
        node.handle(
            NodeEvent::Deliver(Envelope {
                from: DRIVER,
                to: 4,
                msg: NetMsg::Shutdown,
            }),
            &mut sink,
        );
        node.handle(NodeEvent::Tick, &mut sink);
        assert!(node.done());
        assert!(sink.0.is_empty(), "a done node is silent");
    }
}
