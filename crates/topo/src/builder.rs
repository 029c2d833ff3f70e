//! Graph construction and all-pairs route tables.

use crate::network::{Link, Network, NodeId};

/// Incrementally builds a network graph, then computes every shortest-path
/// route with [`TopoBuilder::build`].
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
    /// independent occupancy. The two directions are pushed together, so
    /// directed link `i ^ 1` is the reverse of link `i`.
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

    /// Breadth-first search towards `dst`: afterwards `dist[v]` is `v`'s hop
    /// count to `dst` and `hop[v]` the first hop of its route, packed as
    /// `next node << 16 | link`. The link is the reverse, `i ^ 1`, of the
    /// link `i` the search reached `v` over. `order` is the search queue.
    ///
    /// # Panics
    ///
    /// Panics if some node cannot reach `dst`.
    fn bfs(&self, dst: usize, hop: &mut [u32], dist: &mut [u32], order: &mut Vec<usize>) {
        dist.fill(u32::MAX);
        dist[dst] = 0;
        order.clear();
        order.push(dst);
        let mut head = 0;
        while let Some(&u) = order.get(head) {
            head += 1;
            for &(v, link) in &self.adj[u] {
                if dist[v] == u32::MAX {
                    dist[v] = dist[u] + 1;
                    hop[v] = (u as u32) << 16 | (link ^ 1) as u32;
                    order.push(v);
                }
            }
        }
        if order.len() < dist.len() {
            let src = dist.iter().position(|&d| d == u32::MAX).expect("unvisited");
            panic!(
                "disconnected topology: {} cannot reach {}",
                self.names[src], self.names[dst]
            );
        }
    }

    /// Finalizes the graph: computes every `src → dst` route once and
    /// stores it as a run of link indices in one flat table, sized exactly
    /// (the graphs here have at most ~100 nodes).
    ///
    /// Pass 1 runs one BFS per destination and parks each node's first hop
    /// in the slot that will hold the start of its route, so no next-hop
    /// table is allocated beside the route table. Pass 2 walks every route
    /// into a table allocated once, at the total hop count pass 1 summed.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected (some endpoint pair unreachable)
    /// or has more nodes or directed links than a `u16` can name.
    pub fn build(self) -> Network {
        let n = self.names.len();
        let u16_range = usize::from(u16::MAX) + 1;
        assert!(
            n <= u16_range && self.links.len() <= u16_range,
            "more nodes or directed links than a u16 can name"
        );
        let mut hop = vec![0u32; n];
        let mut dist = vec![0u32; n];
        let mut order = Vec::with_capacity(n);
        let mut route_start: Vec<u32> = Vec::with_capacity(n * n + 1);
        let mut hops = 0usize;
        for dst in 0..n {
            self.bfs(dst, &mut hop, &mut dist, &mut order);
            route_start.extend_from_slice(&hop);
            hops += dist.iter().map(|&d| d as usize).sum::<usize>();
        }
        let total = u32::try_from(hops).expect("route table too large");
        let mut route_links = Vec::with_capacity(hops);
        for dst in 0..n {
            let block = &mut route_start[dst * n..(dst + 1) * n];
            hop.copy_from_slice(block);
            for (src, start) in block.iter_mut().enumerate() {
                *start = route_links.len() as u32;
                let mut cur = src;
                while cur != dst {
                    route_links.push(hop[cur] as u16);
                    cur = (hop[cur] >> 16) as usize;
                }
            }
        }
        route_start.push(total);
        Network::from_parts(self.is_endpoint, self.links, route_start, route_links)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::MsgClass;
    use locksim_engine::Time;

    /// `x - y`, one link.
    fn pair() -> (Network, NodeId, NodeId) {
        let mut b = TopoBuilder::new();
        let x = b.endpoint("x");
        let y = b.endpoint("y");
        b.link(x, y, 10, 2);
        (b.build(), x, y)
    }

    /// `x - s1 - s2 - y`.
    fn chain() -> (Network, NodeId, NodeId) {
        let mut b = TopoBuilder::new();
        let x = b.endpoint("x");
        let s1 = b.switch("s1");
        let s2 = b.switch("s2");
        let y = b.endpoint("y");
        b.link(x, s1, 3, 1);
        b.link(s1, s2, 3, 1);
        b.link(s2, y, 3, 1);
        (b.build(), x, y)
    }

    /// `x - s - y` (2 hops, slow) beside `x - a - c - y` (3 hops, fast).
    fn shortcut() -> (Network, NodeId, NodeId) {
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
        (b.build(), x, y)
    }

    #[test]
    fn two_nodes_one_link() {
        let (mut net, x, y) = pair();
        let arr = net.send(Time::ZERO, x, y, MsgClass::Control);
        assert_eq!(arr.cycles(), 10 + 2);
    }

    #[test]
    fn routes_through_switch_chain() {
        let (mut net, x, y) = chain();
        let arr = net.send(Time::ZERO, x, y, MsgClass::Control);
        assert_eq!(arr.cycles(), 9 + 1);
    }

    #[test]
    fn picks_shortest_path() {
        let (mut net, x, y) = shortcut();
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

    /// Every network the route-table checks run on.
    fn networks() -> Vec<(&'static str, Network)> {
        vec![
            ("model_a(32)", Network::model_a(32)),
            ("model_b(4, 8)", Network::model_b(4, 8)),
            ("pair", pair().0),
            ("chain", chain().0),
            ("shortcut", shortcut().0),
        ]
    }

    fn nodes(net: &Network) -> Vec<NodeId> {
        (0..net.node_count()).map(|i| NodeId(i as u32)).collect()
    }

    /// All-pairs hop distances by Floyd–Warshall over the directed links,
    /// independent of the builder's BFS.
    fn hop_distances(net: &Network) -> Vec<Vec<usize>> {
        let n = net.node_count();
        let mut d = vec![vec![usize::MAX; n]; n];
        for (i, row) in d.iter_mut().enumerate() {
            row[i] = 0;
        }
        for l in net.link_stats() {
            d[l.src.index()][l.dst.index()] = 1;
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    if d[i][k] != usize::MAX && d[k][j] != usize::MAX {
                        d[i][j] = d[i][j].min(d[i][k] + d[k][j]);
                    }
                }
            }
        }
        d
    }

    #[test]
    fn every_route_is_a_chain_of_links_from_src_to_dst() {
        for (name, net) in networks() {
            let links = net.link_stats();
            for src in nodes(&net) {
                for dst in nodes(&net) {
                    let mut at = src;
                    for &l in net.route(src, dst) {
                        let link = &links[usize::from(l)];
                        assert_eq!(link.src, at, "{name}: {src:?} -> {dst:?} breaks at {l}");
                        at = link.dst;
                    }
                    assert_eq!(at, dst, "{name}: {src:?} -> {dst:?} ends at {at:?}");
                }
            }
        }
    }

    #[test]
    fn every_route_is_as_long_as_the_hop_distance() {
        for (name, net) in networks() {
            let dist = hop_distances(&net);
            for src in nodes(&net) {
                for dst in nodes(&net) {
                    assert_eq!(
                        net.route(src, dst).len(),
                        dist[src.index()][dst.index()],
                        "{name}: {src:?} -> {dst:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn fresh_send_takes_base_latency_for_every_pair() {
        for (name, net) in networks() {
            let endpoints: Vec<NodeId> = nodes(&net)
                .into_iter()
                .filter(|&v| net.is_endpoint(v))
                .collect();
            for &src in &endpoints {
                for &dst in endpoints.iter().filter(|&&d| d != src) {
                    for class in [MsgClass::Control, MsgClass::Data] {
                        let mut fresh = net.clone();
                        let arrival = fresh.send(Time::ZERO, src, dst, class);
                        assert_eq!(
                            arrival.cycles(),
                            net.base_latency(src, dst, class),
                            "{name}: {src:?} -> {dst:?} {class:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn link_pairs_are_reverses() {
        for (name, net) in networks() {
            let links = net.link_stats();
            for (i, l) in links.iter().enumerate() {
                let r = &links[i ^ 1];
                assert_eq!((r.src, r.dst), (l.dst, l.src), "{name}: link {i}");
                assert_eq!(net.link_cost(i), net.link_cost(i ^ 1), "{name}: link {i}");
            }
        }
    }
}
