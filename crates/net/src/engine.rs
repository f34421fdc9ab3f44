//! The synchronous round executor.
//!
//! Execution of a [`Protocol`] with `D = rounds()`:
//!
//! ```text
//! state ← init(local input)              at every node, in parallel
//! for t in 0..D:
//!     outbox ← round(state, t, inbox)    compute + send
//!     inbox  ← delivered outboxes        receive
//! finish(state, inbox)                   consume the last messages
//! ```
//!
//! which is exactly the paper's model (§1.2): per round each node
//! performs local computation, sends one (optional) message per incident
//! edge, and receives one per incident edge.

use crate::stats::RunStats;
use crate::topology::{Network, NodeInfo};

/// A message payload with byte accounting (a real network would
/// serialise it; we only measure).
pub trait Payload: Clone {
    /// Serialised size estimate in bytes.
    fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

impl Payload for f64 {}
impl Payload for u32 {}

/// A synchronous distributed algorithm in the port-numbering model.
///
/// The protocol object itself is shared immutable configuration; all
/// per-node state lives in `State`. Nodes are anonymous: the only inputs
/// are the [`NodeInfo`] (own kind + per-port info) and received messages.
pub trait Protocol {
    /// Per-node state.
    type State;
    /// Message payload.
    type Message: Payload;

    /// Number of send/receive cycles.
    fn rounds(&self) -> usize;

    /// Initial state from the node's local input.
    fn init(&self, node: &NodeInfo) -> Self::State;

    /// One round: read `inbox` (message per port from the previous
    /// round; all `None` in round 0), update the state, write `outbox`
    /// (pre-cleared to `None`; `Some(m)` on port `p` sends `m` along
    /// port `p`). The inbox is mutable so protocols can `take()` large
    /// payloads instead of cloning them — the engine overwrites every
    /// slot at the next delivery regardless.
    fn round(
        &self,
        state: &mut Self::State,
        node: &NodeInfo,
        round: usize,
        inbox: &mut [Option<Self::Message>],
        outbox: &mut [Option<Self::Message>],
    );

    /// Consume the messages received in the final round (the inbox may
    /// be taken from, as in [`Protocol::round`]).
    fn finish(&self, state: &mut Self::State, node: &NodeInfo, inbox: &mut [Option<Self::Message>]);
}

/// Final states plus accounting.
#[derive(Clone, Debug)]
pub struct RunResult<S> {
    /// Final state per node, indexed by flat node index (agents first —
    /// see [`Network::n_agents`]).
    pub states: Vec<S>,
    /// Message/byte accounting.
    pub stats: RunStats,
}

fn mailbox_shape<M>(net: &Network) -> Vec<Vec<Option<M>>> {
    (0..net.n_nodes() as u32)
        .map(|x| {
            let deg = net.info(x).degree();
            let mut v = Vec::with_capacity(deg);
            v.resize_with(deg, || None);
            v
        })
        .collect()
}

/// Runs a protocol.
pub fn run<P: Protocol>(net: &Network, protocol: &P) -> RunResult<P::State> {
    let n = net.n_nodes();
    let mut states: Vec<P::State> = (0..n as u32).map(|x| protocol.init(net.info(x))).collect();
    let mut inboxes: Vec<Vec<Option<P::Message>>> = mailbox_shape(net);
    let mut outboxes: Vec<Vec<Option<P::Message>>> = mailbox_shape(net);
    let rounds = protocol.rounds();
    let mut stats = RunStats {
        rounds,
        ..RunStats::default()
    };

    for t in 0..rounds {
        // Phase 1: compute. Writes states[x], inboxes[x] (protocols may
        // take received payloads) and outboxes[x] only.
        for x in 0..n {
            for slot in outboxes[x].iter_mut() {
                *slot = None;
            }
            protocol.round(
                &mut states[x],
                net.info(x as u32),
                t,
                &mut inboxes[x],
                &mut outboxes[x],
            );
        }

        // Phase 2: deliver (pull model: my inbox slot p comes from the
        // neighbour's outbox slot at the reciprocal port). Payloads are
        // **moved**, never cloned: port numbering makes delivery a
        // bijection between outbox and inbox slots — outbox slot (y, q)
        // is read exactly once, by the unique neighbour x whose port p
        // satisfies reciprocity — so every slot can be `take`n.
        let graph = net.graph();
        let (mut msgs, mut bytes) = (0u64, 0u64);
        for (x, inbox) in inboxes.iter_mut().enumerate() {
            for (slot, adj) in inbox.iter_mut().zip(graph.neighbors(x as u32)) {
                let incoming = outboxes[adj.to as usize][adj.port_at_to as usize].take();
                if let Some(m) = &incoming {
                    msgs += 1;
                    bytes += m.size_bytes() as u64;
                }
                *slot = incoming;
            }
        }
        stats.messages += msgs;
        stats.bytes += bytes;
        stats.messages_per_round.push(msgs);
        stats.bytes_per_round.push(bytes);
    }

    for x in 0..n {
        protocol.finish(&mut states[x], net.info(x as u32), &mut inboxes[x]);
    }

    RunResult { states, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmlp_instance::{InstanceBuilder, NodeKind};

    /// Flood the minimum of per-node tokens for `rounds` rounds. Agents
    /// start with `token = port count of objectives` (arbitrary local
    /// quantity); everyone relays the running minimum.
    struct FloodMin {
        rounds: usize,
    }

    struct FloodState {
        min: f64,
    }

    impl Protocol for FloodMin {
        type State = FloodState;
        type Message = f64;

        fn rounds(&self) -> usize {
            self.rounds
        }

        fn init(&self, node: &NodeInfo) -> FloodState {
            // Agents seed with their smallest coefficient; rows with +inf.
            let min = node
                .ports
                .iter()
                .filter_map(|p| p.coef)
                .fold(f64::INFINITY, f64::min);
            FloodState { min }
        }

        fn round(
            &self,
            state: &mut FloodState,
            _node: &NodeInfo,
            _round: usize,
            inbox: &mut [Option<f64>],
            outbox: &mut [Option<f64>],
        ) {
            for m in inbox.iter().flatten() {
                state.min = state.min.min(*m);
            }
            for slot in outbox.iter_mut() {
                *slot = Some(state.min);
            }
        }

        fn finish(&self, state: &mut FloodState, _node: &NodeInfo, inbox: &mut [Option<f64>]) {
            for m in inbox.iter().flatten() {
                state.min = state.min.min(*m);
            }
        }
    }

    fn chain(n: usize) -> Network {
        // Agents in a path: v0 -c- v1 -c- v2 ... with an objective per agent
        // carrying coefficient (j+1).
        let mut b = InstanceBuilder::new();
        let agents: Vec<_> = (0..n).map(|_| b.add_agent()).collect();
        for w in agents.windows(2) {
            b.add_constraint(&[(w[0], 10.0), (w[1], 10.0)]).unwrap();
        }
        for (j, &v) in agents.iter().enumerate() {
            b.add_objective(&[(v, (j + 1) as f64)]).unwrap();
        }
        Network::new(&b.build().unwrap())
    }

    #[test]
    fn flooding_reaches_radius_rounds() {
        let net = chain(6);
        // Minimum over all agents is coefficient 1.0 at agent 0 (its
        // objective coef); after enough rounds everyone knows it.
        let result = run(&net, &FloodMin { rounds: 2 * 6 });
        for s in &result.states {
            assert_eq!(s.min, 1.0);
        }
        // With 1 round, the far end cannot know the global minimum.
        let result = run(&net, &FloodMin { rounds: 1 });
        let far_agent = &result.states[5];
        assert!(far_agent.min > 1.0);
    }

    #[test]
    fn locality_is_respected_exactly() {
        // Information travels exactly one hop per round: agent j is at
        // graph distance 2j from agent 0, so it learns agent 0's token
        // after exactly 2j rounds and not before.
        let n = 5;
        for rounds in 1..(2 * n) {
            let net = chain(n);
            let result = run(&net, &FloodMin { rounds });
            for j in 0..n {
                let expected_min = if 2 * j <= rounds {
                    1.0
                } else {
                    // Nearest reachable agent: those within rounds hops.
                    ((j - (rounds / 2)) + 1) as f64
                };
                let got = result.states[j].min.min(10.0);
                assert_eq!(got, expected_min, "agent {j} after {rounds} rounds");
            }
        }
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let net = chain(3);
        let result = run(&net, &FloodMin { rounds: 2 });
        // Every port sends every round: total ports = 2·|E|.
        let total_ports: u64 = (0..net.n_nodes() as u32)
            .map(|x| net.info(x).degree() as u64)
            .sum();
        assert_eq!(result.stats.messages, 2 * total_ports);
        assert_eq!(result.stats.bytes, 2 * total_ports * 8);
        assert_eq!(result.stats.messages_per_round.len(), 2);
        assert_eq!(result.stats.rounds, 2);
    }

    #[test]
    fn silence_costs_nothing() {
        struct Quiet;
        impl Protocol for Quiet {
            type State = ();
            type Message = u32;
            fn rounds(&self) -> usize {
                3
            }
            fn init(&self, _node: &NodeInfo) {}
            fn round(
                &self,
                _s: &mut (),
                _n: &NodeInfo,
                _r: usize,
                _i: &mut [Option<u32>],
                _o: &mut [Option<u32>],
            ) {
            }
            fn finish(&self, _s: &mut (), _n: &NodeInfo, _i: &mut [Option<u32>]) {}
        }
        let net = chain(4);
        let result = run(&net, &Quiet);
        assert_eq!(result.stats.messages, 0);
        assert_eq!(result.stats.bytes, 0);
    }

    #[test]
    fn node_kinds_visible_to_protocol() {
        let net = chain(2);
        let mut kinds = Vec::new();
        for x in 0..net.n_nodes() as u32 {
            kinds.push(net.info(x).kind);
        }
        assert_eq!(
            kinds,
            vec![
                NodeKind::Agent,
                NodeKind::Agent,
                NodeKind::Constraint,
                NodeKind::Objective,
                NodeKind::Objective
            ]
        );
    }

    #[test]
    fn zero_round_protocols_only_init_and_finish() {
        struct Nothing;
        impl Protocol for Nothing {
            type State = u32;
            type Message = u32;
            fn rounds(&self) -> usize {
                0
            }
            fn init(&self, node: &NodeInfo) -> u32 {
                node.degree() as u32
            }
            fn round(
                &self,
                _s: &mut u32,
                _n: &NodeInfo,
                _r: usize,
                _i: &mut [Option<u32>],
                _o: &mut [Option<u32>],
            ) {
                panic!("round must not run with rounds() == 0");
            }
            fn finish(&self, s: &mut u32, _n: &NodeInfo, inbox: &mut [Option<u32>]) {
                assert!(inbox.iter().all(Option::is_none));
                *s += 100;
            }
        }
        let net = chain(3);
        let result = run(&net, &Nothing);
        assert_eq!(result.stats.rounds, 0);
        assert!(result.states.iter().all(|s| *s >= 100));
    }

    #[test]
    fn selective_port_messaging() {
        // A protocol that only speaks on port 0: message counts reflect
        // exactly the ports used.
        struct FirstPortOnly;
        impl Protocol for FirstPortOnly {
            type State = ();
            type Message = u32;
            fn rounds(&self) -> usize {
                1
            }
            fn init(&self, _n: &NodeInfo) {}
            fn round(
                &self,
                _s: &mut (),
                _n: &NodeInfo,
                _r: usize,
                _i: &mut [Option<u32>],
                outbox: &mut [Option<u32>],
            ) {
                if let Some(slot) = outbox.first_mut() {
                    *slot = Some(7);
                }
            }
            fn finish(&self, _s: &mut (), _n: &NodeInfo, _i: &mut [Option<u32>]) {}
        }
        let net = chain(4);
        let result = run(&net, &FirstPortOnly);
        let nodes_with_ports = (0..net.n_nodes() as u32)
            .filter(|&x| net.info(x).degree() > 0)
            .count() as u64;
        assert_eq!(result.stats.messages, nodes_with_ports);
    }
}
