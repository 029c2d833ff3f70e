//! Graph construction and all-pairs next-hop routing.

use crate::network::{Link, Network, NodeId};
use std::collections::VecDeque;

/// Incrementally builds a network graph, then computes shortest-path routing
/// tables with [`TopoBuilder::build`].
///
/// Nodes are either *endpoints* (cores, cache banks, memory controllers —
/// places a message can originate or terminate) or *switches* (interior
/// routing elements). Links are bidirectional and carry a propagation
/// latency plus a per-flit serialization cost.
///
/// # Example
///
/// ```
/// use locksim_topo::{MsgClass, TopoBuilder};
/// use locksim_engine::Time;
///
/// let mut b = TopoBuilder::new();
/// let a = b.endpoint("a");
/// let s = b.switch("s");
/// let c = b.endpoint("c");
/// b.link(a, s, 5, 1);
/// b.link(s, c, 5, 1);
/// let mut net = b.build();
/// let arr = net.send(Time::ZERO, a, c, MsgClass::Control);
/// assert_eq!(arr.cycles(), 5 + 5 + 1); // two hops + 1 flit serialization
/// ```
#[derive(Debug, Default)]
pub struct TopoBuilder {
    names: Vec<String>,
    is_endpoint: Vec<bool>,
    links: Vec<Link>,
    // adjacency: node -> Vec<(neighbor, link index)>
    adj: Vec<Vec<(usize, usize)>>,
}

impl TopoBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn add_node(&mut self, name: &str, endpoint: bool) -> NodeId {
        let id = self.names.len();
        self.names.push(name.to_string());
        self.is_endpoint.push(endpoint);
        self.adj.push(Vec::new());
        NodeId(id as u32)
    }

    /// Adds a message endpoint (core, cache bank, memory controller).
    pub fn endpoint(&mut self, name: &str) -> NodeId {
        self.add_node(name, true)
    }

    /// Adds an interior switch.
    pub fn switch(&mut self, name: &str) -> NodeId {
        self.add_node(name, false)
    }

    /// Adds a bidirectional link with the given propagation `latency`
    /// (cycles) and `cycles_per_flit` serialization cost. Each direction has
    /// independent occupancy.
    ///
    /// # Panics
    ///
    /// Panics if either node id is out of range or `a == b`.
    pub fn link(&mut self, a: NodeId, b: NodeId, latency: u64, cycles_per_flit: u64) {
        let (a, b) = (a.0 as usize, b.0 as usize);
        assert!(a < self.names.len() && b < self.names.len(), "unknown node");
        assert_ne!(a, b, "self-links are not allowed");
        // Two directed links.
        for (src, dst) in [(a, b), (b, a)] {
            let idx = self.links.len();
            self.links
                .push(Link::new(src, dst, latency, cycles_per_flit));
            self.adj[src].push((dst, idx));
        }
    }

    /// Finalizes the graph: computes all-pairs next-hop tables by per-node
    /// BFS (the graphs here have at most ~100 nodes).
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected (some endpoint pair unreachable).
    pub fn build(self) -> Network {
        let n = self.names.len();
        // next_link[src][dst] = index of the first directed link on the
        // shortest path src -> dst, or usize::MAX on the diagonal.
        let mut next_link = vec![vec![usize::MAX; n]; n];
        for dst in 0..n {
            // BFS backwards from dst over reversed edges == BFS over the
            // symmetric graph; record, for each node, the link to take.
            let mut dist = vec![usize::MAX; n];
            let mut q = VecDeque::new();
            dist[dst] = 0;
            q.push_back(dst);
            while let Some(u) = q.pop_front() {
                for &(v, _link_idx) in &self.adj[u] {
                    // link u->v exists; by symmetry v->u exists too and is
                    // the hop v takes towards dst through u.
                    let back = self.adj[v]
                        .iter()
                        .find(|&&(w, _)| w == u)
                        .map(|&(_, idx)| idx)
                        .expect("links are symmetric");
                    if dist[v] == usize::MAX {
                        dist[v] = dist[u] + 1;
                        next_link[v][dst] = back;
                        q.push_back(v);
                    }
                }
            }
            for (src, &d) in dist.iter().enumerate() {
                assert!(
                    d != usize::MAX || src == dst,
                    "disconnected topology: {} cannot reach {}",
                    self.names[src],
                    self.names[dst]
                );
            }
        }
        Network::from_parts(self.is_endpoint, self.links, next_link)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::MsgClass;
    use locksim_engine::Time;

    #[test]
    fn two_nodes_one_link() {
        let mut b = TopoBuilder::new();
        let x = b.endpoint("x");
        let y = b.endpoint("y");
        b.link(x, y, 10, 2);
        let mut net = b.build();
        let arr = net.send(Time::ZERO, x, y, MsgClass::Control);
        assert_eq!(arr.cycles(), 10 + 2);
    }

    #[test]
    fn routes_through_switch_chain() {
        let mut b = TopoBuilder::new();
        let x = b.endpoint("x");
        let s1 = b.switch("s1");
        let s2 = b.switch("s2");
        let y = b.endpoint("y");
        b.link(x, s1, 3, 1);
        b.link(s1, s2, 3, 1);
        b.link(s2, y, 3, 1);
        let mut net = b.build();
        let arr = net.send(Time::ZERO, x, y, MsgClass::Control);
        assert_eq!(arr.cycles(), 9 + 1);
    }

    #[test]
    fn picks_shortest_path() {
        // x - s - y (2 hops) and x - a - b - y (3 hops): shortest wins.
        let mut b = TopoBuilder::new();
        let x = b.endpoint("x");
        let y = b.endpoint("y");
        let s = b.switch("s");
        let a = b.switch("a");
        let c = b.switch("c");
        b.link(x, s, 100, 1);
        b.link(s, y, 100, 1);
        b.link(x, a, 1, 1);
        b.link(a, c, 1, 1);
        b.link(c, y, 1, 1);
        let mut net = b.build();
        // BFS counts hops, not latency: 2-hop path through s is chosen even
        // though it is slower — matching fixed hardware routing tables.
        let arr = net.send(Time::ZERO, x, y, MsgClass::Control);
        assert_eq!(arr.cycles(), 201);
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn disconnected_graph_panics() {
        let mut b = TopoBuilder::new();
        b.endpoint("x");
        b.endpoint("y");
        b.build();
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_panics() {
        let mut b = TopoBuilder::new();
        let x = b.endpoint("x");
        b.link(x, x, 1, 1);
    }
}
