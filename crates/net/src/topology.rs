//! The communication network of an instance, with anonymous local inputs.

use mmlp_instance::{CommGraph, Instance, NodeKind};

/// What a node knows about one of its ports — and nothing more. No node
/// identifiers exist anywhere in this module's public surface: protocols
/// can only address "my port `p`".
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PortInfo {
    /// The class of the node on the other end (an agent can tell its
    /// constraints from its objectives; rows see only agents).
    pub neighbor_kind: NodeKind,
    /// The coefficient on this edge, known **only to the agent side**
    /// (the paper's local input: agents know `a_iv`, `c_kv`; a constraint
    /// or objective knows only its neighbour set).
    pub coef: Option<f64>,
}

/// A node's complete local input.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeInfo {
    /// The node's own class.
    pub kind: NodeKind,
    /// One entry per port, in port order.
    pub ports: Vec<PortInfo>,
}

impl NodeInfo {
    /// Degree of the node.
    pub fn degree(&self) -> usize {
        self.ports.len()
    }
}

/// The simulated network: graph structure (used only by the engine for
/// message delivery — never exposed to protocols) plus per-node local
/// inputs.
#[derive(Clone, Debug)]
pub struct Network {
    graph: CommGraph,
    infos: Vec<NodeInfo>,
}

impl Network {
    /// Builds the network of an instance.
    pub fn new(inst: &Instance) -> Self {
        let graph = CommGraph::new(inst);
        let mut infos = Vec::with_capacity(graph.n_nodes());
        for flat in 0..graph.n_nodes() as u32 {
            let kind = graph.node(flat).kind();
            let ports = graph
                .neighbors(flat)
                .iter()
                .map(|adj| {
                    let neighbor_kind = graph.node(adj.to).kind();
                    let coef = if kind == NodeKind::Agent {
                        // Agents know the coefficient of each incident
                        // edge; recover it from the reciprocal port.
                        let n = graph.node(adj.to);
                        match n {
                            mmlp_instance::Node::Constraint(i) => {
                                Some(inst.constraint_row(i)[adj.port_at_to as usize].coef)
                            }
                            mmlp_instance::Node::Objective(k) => {
                                Some(inst.objective_row(k)[adj.port_at_to as usize].coef)
                            }
                            mmlp_instance::Node::Agent(_) => {
                                unreachable!("bipartite: agents have no agent neighbours")
                            }
                        }
                    } else {
                        None
                    };
                    PortInfo {
                        neighbor_kind,
                        coef,
                    }
                })
                .collect();
            infos.push(NodeInfo { kind, ports });
        }
        Network { graph, infos }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.graph.n_nodes()
    }

    /// Number of agent nodes (flat indices `0..n_agents` are agents, so
    /// output collection can map agent outputs back to `AgentId`s).
    pub fn n_agents(&self) -> usize {
        self.graph.n_agents()
    }

    /// The local input of a node (by flat index; the index is engine-side
    /// bookkeeping, not visible to protocols).
    pub fn info(&self, flat: u32) -> &NodeInfo {
        &self.infos[flat as usize]
    }

    /// The underlying communication graph — engine-side bookkeeping for
    /// message delivery and for building flat views directly from the
    /// topology (`mmlp-core`'s view interner). Protocols never see it:
    /// they are limited to [`NodeInfo`].
    pub fn graph(&self) -> &CommGraph {
        &self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmlp_instance::InstanceBuilder;

    fn path() -> Instance {
        let mut b = InstanceBuilder::new();
        let v0 = b.add_agent();
        let v1 = b.add_agent();
        b.add_constraint(&[(v0, 2.0), (v1, 3.0)]).unwrap();
        b.add_objective(&[(v0, 1.0)]).unwrap();
        b.add_objective(&[(v1, 5.0)]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn agents_know_coefficients() {
        let net = Network::new(&path());
        // Agent v0: port 0 = constraint (coef 2.0), port 1 = objective (1.0).
        let info = net.info(0);
        assert_eq!(info.kind, NodeKind::Agent);
        assert_eq!(info.ports.len(), 2);
        assert_eq!(info.ports[0].neighbor_kind, NodeKind::Constraint);
        assert_eq!(info.ports[0].coef, Some(2.0));
        assert_eq!(info.ports[1].neighbor_kind, NodeKind::Objective);
        assert_eq!(info.ports[1].coef, Some(1.0));
    }

    #[test]
    fn rows_are_anonymous() {
        let net = Network::new(&path());
        // Constraint node (flat index 2): sees two agent ports, no coefs.
        let info = net.info(2);
        assert_eq!(info.kind, NodeKind::Constraint);
        assert_eq!(info.degree(), 2);
        for p in &info.ports {
            assert_eq!(p.neighbor_kind, NodeKind::Agent);
            assert_eq!(p.coef, None);
        }
    }

    #[test]
    fn network_size() {
        let net = Network::new(&path());
        assert_eq!(net.n_nodes(), 5);
        assert_eq!(net.n_agents(), 2);
    }
}
