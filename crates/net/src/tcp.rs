//! The length-prefixed TCP transport: real threads, real sockets, real
//! time.
//!
//! Topology is hub-and-spoke inside one process: every node runs in its
//! own thread with a blocking socket to a central router; the router
//! forwards frames between nodes, applies transport faults
//! ([`NetFault::Drop`] / [`NetFault::Partition`] / [`NetFault::Heal`] —
//! delay spans need a timer wheel and are rejected here), intercepts
//! driver-bound [`NetMsg::Status`] reports for convergence detection, and
//! broadcasts [`NetMsg::Shutdown`] when the run is over.
//!
//! What this mode deliberately gives up is determinism: tick timers are
//! wall-clock deadlines ([`crate::clock`]) and message interleaving is
//! whatever the OS scheduler produces, so two runs with the same seed
//! will differ. What it keeps is the protocol's stream discipline — every
//! *protocol* draw still comes from `(seed, round, node, stage)` streams,
//! so only the event *order* is environmental, exactly the asynchrony
//! Theorem 5's self-stabilization claim is about. Byte-identical replay
//! lives in [`crate::sim`]; this transport answers "does it survive a
//! real network stack".

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use np_engine::channel::{Channel, ChannelKind};
use np_engine::opinion::Opinion;
use np_engine::protocol::{AgentState, ColumnarProtocol, ColumnarState};
use np_engine::streams::{RoundStreams, StreamStage};
use np_linalg::noise::NoiseMatrix;
use rand::Rng;
use std::sync::Arc;

use crate::clock::{Deadline, WallClock};
use crate::cluster::{ClusterConfig, ClusterReport, Digest};
use crate::faults::{LinkCondition, NetFault, NetFaultPlan};
use crate::msg::{Envelope, FrameReader, NetMsg, WEAK_NONE};
use crate::node::{Node, NodeAction, NodeEvent, NodeStats, Transport, DRIVER};
use crate::{NetError, Result};

/// The per-node action sink of the TCP transport: frames are buffered
/// into `out` (flushed by the node loop after each event), `SetTick`
/// moves the wall-clock deadline.
#[derive(Debug)]
struct TcpPort {
    out: Vec<u8>,
    deadline: Deadline,
}

impl Transport for TcpPort {
    fn apply(&mut self, action: NodeAction) {
        match action {
            NodeAction::Send(env) => env.encode(&mut self.out),
            NodeAction::SetTick(ns) => self.deadline = Deadline::after_ns(ns),
        }
    }
}

/// What a node thread reports back when it exits.
#[derive(Debug, Clone, Copy)]
struct NodeExit {
    id: u64,
    round: u64,
    opinion: u8,
    weak: u8,
    stats: NodeStats,
}

fn node_thread<A: AgentState>(
    mut node: Node<A>,
    addr: std::net::SocketAddr,
    first_tick_ns: u64,
) -> Result<NodeExit> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut port = TcpPort {
        out: Vec::with_capacity(1024),
        deadline: Deadline::after_ns(first_tick_ns),
    };
    // Announce identity so the router can bind this connection's write
    // half to the node id.
    Envelope {
        from: node.id(),
        to: DRIVER,
        msg: NetMsg::Hello,
    }
    .encode(&mut port.out);

    let mut frames = FrameReader::new();
    let mut read_buf = [0u8; 4096];
    while !node.done() {
        if !port.out.is_empty() {
            stream.write_all(&port.out)?;
            port.out.clear();
        }
        match port.deadline.remaining() {
            None => node.handle(NodeEvent::Tick, &mut port),
            Some(rem) => {
                stream.set_read_timeout(Some(rem.max(Duration::from_micros(100))))?;
                match stream.read(&mut read_buf) {
                    Ok(0) => break, // router hung up
                    Ok(k) => {
                        frames.push(&read_buf[..k]);
                        while let Some(env) = frames.next_envelope()? {
                            node.handle(NodeEvent::Deliver(env), &mut port);
                        }
                    }
                    Err(e)
                        if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    }
                    Err(e) => return Err(NetError::Io(e)),
                }
            }
        }
    }
    if !port.out.is_empty() {
        stream.write_all(&port.out)?;
    }
    Ok(NodeExit {
        id: node.id(),
        round: node.local_round().saturating_sub(1),
        opinion: node.agent().opinion().as_byte(),
        weak: node
            .agent()
            .weak_opinion()
            .map_or(WEAK_NONE, Opinion::as_byte),
        stats: node.stats(),
    })
}

enum RouterMsg {
    Register(u64, TcpStream),
    Env(Envelope),
    ReaderDone,
}

fn reader_thread(mut stream: TcpStream, tx: mpsc::Sender<RouterMsg>) {
    // Blocking reads; identity arrives in the first (Hello) frame.
    let _ = stream.set_read_timeout(None);
    let mut frames = FrameReader::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(k) => {
                frames.push(&buf[..k]);
                loop {
                    match frames.next_envelope() {
                        Ok(Some(env)) => {
                            if env.msg == NetMsg::Hello {
                                let Ok(clone) = stream.try_clone() else { break };
                                if tx.send(RouterMsg::Register(env.from, clone)).is_err() {
                                    return;
                                }
                            } else if tx.send(RouterMsg::Env(env)).is_err() {
                                return;
                            }
                        }
                        Ok(None) => break,
                        Err(_) => return, // corrupt stream; drop connection
                    }
                }
            }
        }
    }
    let _ = tx.send(RouterMsg::ReaderDone);
}

/// Runs a full cluster over TCP: spawns one thread (plus one router-side
/// reader) per node on loopback, injects the sources, routes pull traffic
/// until every node reports the planted opinion or every node passes
/// `budget_rounds`, then shuts the cluster down and joins every thread.
///
/// The returned report's `elapsed_ms` is the *wall-clock* time at which
/// the population was first observed all-correct (or at shutdown if it
/// never was).
pub fn run_tcp_cluster<P>(
    cfg: &ClusterConfig,
    protocol: &P,
    faults: &NetFaultPlan,
    budget_rounds: u64,
) -> Result<ClusterReport>
where
    P: ColumnarProtocol,
    <P::State as ColumnarState>::Agent: 'static,
{
    cfg.validate()?;
    let pop = cfg.population()?;
    let n64 = u64::try_from(cfg.n).unwrap_or(u64::MAX);
    faults.validate(n64)?;
    let fault_events = faults.sorted_events();
    if fault_events
        .iter()
        .any(|(_, f)| matches!(f, NetFault::Delay { .. }))
    {
        return Err(NetError::BadFaultPlan {
            detail: "delay spans are not supported by the TCP router (use the simulated \
                     transport, whose scheduler owns time)"
                .into(),
        });
    }
    let noise = NoiseMatrix::uniform(protocol.alphabet_size(), cfg.delta)?;
    let channel = Arc::new(Channel::new(&noise, ChannelKind::Exact));
    let correct_byte = pop.correct_opinion().as_byte();

    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;

    // Node threads.
    let boot = RoundStreams::new(cfg.seed, 0);
    let initial = protocol.init_state(&pop, &boot);
    let mut node_handles = Vec::with_capacity(cfg.n);
    for i in 0..cfg.n {
        let agent = initial.agent(i);
        let id = u64::try_from(i).unwrap_or(u64::MAX);
        let node = Node::new(
            id,
            n64,
            cfg.h,
            cfg.seed,
            cfg.tick_ns,
            agent,
            Arc::clone(&channel),
        );
        let first_tick = if cfg.stagger_ns > 0 {
            boot.rng(i, StreamStage::NetDelay)
                .gen_range(0..=cfg.stagger_ns)
        } else {
            0
        };
        node_handles.push(thread::spawn(move || node_thread(node, addr, first_tick)));
    }

    // Router-side reader threads, one per accepted connection.
    let (tx, rx) = mpsc::channel();
    let mut reader_handles = Vec::with_capacity(cfg.n);
    for _ in 0..cfg.n {
        let (stream, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        let tx = tx.clone();
        reader_handles.push(thread::spawn(move || reader_thread(stream, tx)));
    }
    drop(tx);

    // The router loop, on this thread.
    let clock = WallClock::start();
    let mut writers: Vec<Option<TcpStream>> = (0..cfg.n).map(|_| None).collect();
    let mut opinions = vec![u8::MAX; cfg.n]; // MAX = not yet reported
    let mut weaks = vec![WEAK_NONE; cfg.n];
    let mut rounds = vec![0u64; cfg.n];
    let mut num_correct = 0usize;
    let mut messages_total = 0u64;
    let mut drops_total = 0u64;
    let mut cond = LinkCondition::default();
    let mut next_fault = 0usize;
    let mut convergence: Option<(u64, f64)> = None;
    let mut readers_done = 0usize;
    // Hard cap so a wedged cluster cannot hang the caller: generous
    // multiple of the nominal run length plus startup slack.
    let hard_cap_ms = (budget_rounds.saturating_mul(cfg.tick_ns) as f64 / 1e6) * 4.0 + 10_000.0;
    let mut shutdown_sent = false;

    loop {
        while next_fault < fault_events.len() && fault_events[next_fault].0 <= clock.elapsed_ns() {
            cond.apply(fault_events[next_fault].1);
            next_fault += 1;
        }
        match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(RouterMsg::Register(id, stream)) => {
                if let Some(slot) = writers.get_mut(usize::try_from(id).unwrap_or(usize::MAX)) {
                    *slot = Some(stream);
                }
            }
            Ok(RouterMsg::Env(env)) => match env.msg {
                NetMsg::Status {
                    round,
                    opinion,
                    weak,
                } => {
                    let i = usize::try_from(env.from).unwrap_or(usize::MAX);
                    if let (Some(o), Some(w), Some(r)) =
                        (opinions.get_mut(i), weaks.get_mut(i), rounds.get_mut(i))
                    {
                        let was = *o == correct_byte;
                        *o = opinion;
                        *w = weak;
                        *r = (*r).max(round);
                        let is = opinion == correct_byte;
                        match (was, is) {
                            (false, true) => num_correct += 1,
                            (true, false) => num_correct -= 1,
                            _ => {}
                        }
                        if num_correct == cfg.n && convergence.is_none() {
                            convergence = Some((round, clock.elapsed_ms()));
                        }
                    }
                }
                NetMsg::PullRequest { .. } | NetMsg::PullReply { .. } => {
                    messages_total += 1;
                    if cond.severed(env.from, env.to) {
                        drops_total += 1;
                    } else if cond.extra_drop + cfg.drop_rate > 0.0 {
                        // Real time already destroys determinism here; a
                        // fixed stream keeps the coin seeded, not replayable.
                        let mut coin = RoundStreams::new(cfg.seed, messages_total)
                            .rng(0, StreamStage::NetDrop);
                        if coin.gen_bool((cond.extra_drop + cfg.drop_rate).min(1.0)) {
                            drops_total += 1;
                        } else {
                            forward(&mut writers, env, &mut drops_total);
                        }
                    } else {
                        forward(&mut writers, env, &mut drops_total);
                    }
                }
                NetMsg::Hello | NetMsg::Shutdown => {}
            },
            Ok(RouterMsg::ReaderDone) => {
                readers_done += 1;
                if readers_done == cfg.n {
                    break;
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }

        let budget_exhausted = rounds.iter().all(|&r| r >= budget_rounds);
        if !shutdown_sent
            && (convergence.is_some() || budget_exhausted || clock.elapsed_ms() > hard_cap_ms)
        {
            shutdown_sent = true;
            let mut frame = Vec::with_capacity(16);
            Envelope {
                from: DRIVER,
                to: DRIVER,
                msg: NetMsg::Shutdown,
            }
            .encode(&mut frame);
            for w in writers.iter_mut().flatten() {
                let _ = w.write_all(&frame);
            }
        }
        if shutdown_sent && clock.elapsed_ms() > hard_cap_ms + 5_000.0 {
            break; // don't wait forever for stragglers
        }
    }

    // Collect final node states.
    let mut exits = Vec::with_capacity(cfg.n);
    for handle in node_handles {
        match handle.join() {
            Ok(Ok(exit)) => exits.push(exit),
            Ok(Err(e)) => return Err(e),
            Err(_) => {
                return Err(NetError::Thread {
                    detail: "a node thread panicked".into(),
                })
            }
        }
    }
    for handle in reader_handles {
        if handle.join().is_err() {
            return Err(NetError::Thread {
                detail: "a router reader thread panicked".into(),
            });
        }
    }

    exits.sort_by_key(|e| e.id);
    let final_correct = exits.iter().filter(|e| e.opinion == correct_byte).count();
    let weak_formed = exits.iter().filter(|e| e.weak != WEAK_NONE).count();
    let weak_correct = exits.iter().filter(|e| e.weak == correct_byte).count();
    let (stale_total, skipped_total) = exits.iter().fold((0, 0), |(st, sk), e| {
        (st + e.stats.stale_replies, sk + e.stats.rounds_skipped)
    });
    let max_round = exits.iter().map(|e| e.round).max().unwrap_or(0);
    let mut digest = Digest::new();
    digest.update_u64(messages_total);
    for e in &exits {
        digest.update_u64(e.round);
        digest.update(&[e.opinion, e.weak]);
    }
    let elapsed_ms = match convergence {
        Some((_, ms)) => ms,
        None => clock.elapsed_ms(),
    };
    Ok(ClusterReport {
        n: cfg.n,
        h: cfg.h,
        seed: cfg.seed,
        rounds: max_round,
        converged: final_correct == cfg.n,
        convergence_round: convergence.map(|(r, _)| r),
        elapsed_ms,
        messages_total,
        drops_total,
        stale_total,
        skipped_total,
        final_correct,
        weak_formed,
        weak_correct,
        digest: digest.value(),
    })
}

fn forward(writers: &mut [Option<TcpStream>], env: Envelope, drops_total: &mut u64) {
    let to = usize::try_from(env.to).unwrap_or(usize::MAX);
    let Some(Some(stream)) = writers.get_mut(to) else {
        // Destination not registered yet (still connecting): the model
        // tolerates lost messages, count it as a drop.
        *drops_total += 1;
        return;
    };
    let mut frame = Vec::with_capacity(64);
    env.encode(&mut frame);
    if stream.write_all(&frame).is_err() {
        *drops_total += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noisy_pull::params::SsfParams;
    use noisy_pull::ssf::SelfStabilizingSourceFilter;
    use np_engine::population::PopulationConfig;

    #[test]
    fn small_tcp_cluster_converges() {
        let mut cfg = ClusterConfig::new(16, 0, 1, 6, 0.05, 42);
        cfg.tick_ns = 2_000_000; // 2 ms rounds keep the test fast but sane
        let pop = PopulationConfig::new(16, 0, 1, 6).expect("population");
        let params = SsfParams::derive(&pop, 0.05, 1.0).expect("params");
        let interval = params.update_interval();
        let proto = SelfStabilizingSourceFilter::new(params);
        let report = run_tcp_cluster(&cfg, &proto, &NetFaultPlan::new(), interval * 60)
            .expect("tcp cluster");
        assert!(report.messages_total > 0);
        assert!(report.rounds > 0);
        assert!(
            report.converged,
            "16-node TCP cluster failed to converge: {report:?}"
        );
    }

    #[test]
    fn delay_faults_are_rejected_on_tcp() {
        let cfg = ClusterConfig::new(8, 0, 1, 2, 0.05, 1);
        let pop = PopulationConfig::new(8, 0, 1, 2).expect("population");
        let params = SsfParams::derive(&pop, 0.05, 1.0).expect("params");
        let proto = SelfStabilizingSourceFilter::new(params);
        let faults = NetFaultPlan::new().at_ns(0, NetFault::Delay { extra_ns: 1_000 });
        let err = run_tcp_cluster(&cfg, &proto, &faults, 10);
        assert!(matches!(err, Err(NetError::BadFaultPlan { .. })));
    }
}
