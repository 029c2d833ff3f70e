//! The routed, congestion-aware network.

use locksim_engine::{Cycles, Time};

/// Identifies a node (endpoint or switch) in a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Raw index of this node in the network graph.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Message size class. Control messages (requests, grants, invalidations,
/// acks) are a single flit; data messages carry a cache line (five flits:
/// header + 64 bytes over a 16-byte-wide link).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgClass {
    /// Single-flit control message.
    Control,
    /// Cache-line-carrying data message.
    Data,
}

impl MsgClass {
    /// Number of flits this class occupies on a link.
    pub fn flits(self) -> u64 {
        match self {
            MsgClass::Control => 1,
            MsgClass::Data => 5,
        }
    }
}

/// A directed link with propagation latency, per-flit serialization cost and
/// an occupancy horizon used to model contention.
#[derive(Debug, Clone)]
pub(crate) struct Link {
    pub(crate) src: usize,
    pub(crate) dst: usize,
    latency: Cycles,
    cycles_per_flit: Cycles,
    next_free: Time,
    busy: Cycles,
    msgs: u64,
}

impl Link {
    pub(crate) fn new(src: usize, dst: usize, latency: Cycles, cycles_per_flit: Cycles) -> Self {
        Link {
            src,
            dst,
            latency,
            cycles_per_flit,
            next_free: Time::ZERO,
            busy: 0,
            msgs: 0,
        }
    }
}

/// Occupancy statistics for one directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkStats {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Total cycles the link spent serializing flits.
    pub busy_cycles: Cycles,
    /// Messages that crossed the link.
    pub messages: u64,
}

/// A routed network with per-link occupancy.
///
/// Construct with [`Network::model_a`], [`Network::model_b`] or a custom
/// [`crate::TopoBuilder`]. See the crate docs for an example.
#[derive(Debug)]
pub struct Network {
    is_endpoint: Vec<bool>,
    links: Vec<Link>,
    next_link: Vec<Vec<usize>>,
    cores: Vec<NodeId>,
    mems: Vec<NodeId>,
    chip_of_core: Vec<usize>,
    chip_of_mem: Vec<usize>,
    queue_delay: Cycles,
}

impl Network {
    pub(crate) fn from_parts(
        is_endpoint: Vec<bool>,
        links: Vec<Link>,
        next_link: Vec<Vec<usize>>,
    ) -> Self {
        Network {
            is_endpoint,
            links,
            next_link,
            cores: Vec::new(),
            mems: Vec::new(),
            chip_of_core: Vec::new(),
            chip_of_mem: Vec::new(),
            queue_delay: 0,
        }
    }

    /// Builds the paper's **Model A**: `chips` single-core chips under a
    /// hierarchical switch network with a memory controller per chip. GEMS
    /// approximates a global bus by ordering all traffic at the top of the
    /// switch hierarchy, so every transfer crosses the interconnect spine:
    /// the model is a uniform star around the root (SunFire-E25K-like), and
    /// each endpoint's private link serializes its traffic.
    ///
    /// # Panics
    ///
    /// Panics if `chips == 0`.
    pub fn model_a(chips: usize) -> Network {
        assert!(chips > 0, "need at least one chip");
        let mut b = crate::TopoBuilder::new();
        let root = b.switch("root");
        let mut cores = Vec::new();
        let mut mems = Vec::new();
        for c in 0..chips {
            let core = b.endpoint(&format!("core{c}"));
            let mem = b.endpoint(&format!("mem{c}"));
            b.link(core, root, 30, 1);
            b.link(mem, root, 30, 1);
            cores.push(core);
            mems.push(mem);
        }
        let mut net = b.build();
        net.cores = cores;
        net.mems = mems;
        net.chip_of_core = (0..chips).collect();
        net.chip_of_mem = (0..chips).collect();
        net
    }

    /// Builds the paper's **Model B**: a multi-CMP with `chips` chips of
    /// `cores_per_chip` cores each (T5440-like: 4 × 8). Each chip has an
    /// internal crossbar, two memory controllers, and a coherence hub; hubs
    /// are fully interconnected with narrower (4 cycles/flit) links, so
    /// inter-chip traffic both pays higher latency and congests first.
    ///
    /// # Panics
    ///
    /// Panics if `chips == 0` or `cores_per_chip == 0`.
    pub fn model_b(chips: usize, cores_per_chip: usize) -> Network {
        assert!(chips > 0 && cores_per_chip > 0);
        let mut b = crate::TopoBuilder::new();
        let mut cores = Vec::new();
        let mut mems = Vec::new();
        let mut chip_of_core = Vec::new();
        let mut chip_of_mem = Vec::new();
        let mut hubs = Vec::new();
        for ch in 0..chips {
            let xbar = b.switch(&format!("xbar{ch}"));
            for c in 0..cores_per_chip {
                let core = b.endpoint(&format!("chip{ch}.core{c}"));
                b.link(core, xbar, 3, 1);
                cores.push(core);
                chip_of_core.push(ch);
            }
            for m in 0..2 {
                let mem = b.endpoint(&format!("chip{ch}.mem{m}"));
                b.link(mem, xbar, 3, 1);
                mems.push(mem);
                chip_of_mem.push(ch);
            }
            let hub = b.switch(&format!("hub{ch}"));
            b.link(xbar, hub, 10, 1);
            hubs.push(hub);
        }
        // Fully connected hubs (the 4 coherence hubs of the T5440).
        for i in 0..hubs.len() {
            for j in (i + 1)..hubs.len() {
                b.link(hubs[i], hubs[j], 40, 4);
            }
        }
        let mut net = b.build();
        net.cores = cores;
        net.mems = mems;
        net.chip_of_core = chip_of_core;
        net.chip_of_mem = chip_of_mem;
        net
    }

    /// Endpoint of core `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn core_endpoint(&self, i: usize) -> NodeId {
        self.cores[i]
    }

    /// Endpoint of memory controller `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn mem_endpoint(&self, i: usize) -> NodeId {
        self.mems[i]
    }

    /// Number of core endpoints.
    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// Number of memory-controller endpoints.
    pub fn n_mems(&self) -> usize {
        self.mems.len()
    }

    /// Chip index of core `i`.
    pub fn chip_of_core(&self, i: usize) -> usize {
        self.chip_of_core[i]
    }

    /// Chip index of memory controller `i`.
    pub fn chip_of_mem(&self, i: usize) -> usize {
        self.chip_of_mem[i]
    }

    /// Sends a message from `src` to `dst` at time `now`, reserving link
    /// occupancy along the route, and returns the arrival time.
    ///
    /// Uses cut-through switching: propagation latencies accumulate per hop,
    /// serialization is paid once (on the slowest link of the route), and
    /// each hop's occupancy window models head-of-line queueing.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is not an endpoint, or `src == dst`.
    pub fn send(&mut self, now: Time, src: NodeId, dst: NodeId, class: MsgClass) -> Time {
        assert!(self.is_endpoint[src.index()], "src {:?} is a switch", src);
        assert!(self.is_endpoint[dst.index()], "dst {:?} is a switch", dst);
        assert_ne!(src, dst, "message to self needs no network");
        let flits = class.flits();
        let mut at = now;
        let mut cur = src.index();
        let mut max_ser = 0;
        while cur != dst.index() {
            let link_idx = self.next_link[cur][dst.index()];
            debug_assert_ne!(link_idx, usize::MAX, "no route");
            let link = &mut self.links[link_idx];
            let ser = flits * link.cycles_per_flit;
            let depart = at.max(link.next_free);
            self.queue_delay += depart - at;
            link.next_free = depart + ser;
            link.busy += ser;
            link.msgs += 1;
            at = depart + link.latency;
            max_ser = max_ser.max(ser);
            cur = link.dst;
        }
        at + max_ser
    }

    /// Zero-congestion latency between two endpoints for a message class
    /// (does not reserve occupancy). Useful for calibration and tests.
    pub fn base_latency(&self, src: NodeId, dst: NodeId, class: MsgClass) -> Cycles {
        if src == dst {
            return 0;
        }
        let flits = class.flits();
        let mut total = 0;
        let mut max_ser = 0;
        let mut cur = src.index();
        while cur != dst.index() {
            let link_idx = self.next_link[cur][dst.index()];
            let link = &self.links[link_idx];
            total += link.latency;
            max_ser = max_ser.max(flits * link.cycles_per_flit);
            cur = link.dst;
        }
        total + max_ser
    }

    /// Cumulative cycles messages spent waiting for busy links.
    pub fn total_queue_delay(&self) -> Cycles {
        self.queue_delay
    }

    /// Per-link occupancy statistics.
    pub fn link_stats(&self) -> Vec<LinkStats> {
        self.links
            .iter()
            .map(|l| LinkStats {
                src: NodeId(l.src as u32),
                dst: NodeId(l.dst as u32),
                busy_cycles: l.busy,
                messages: l.msgs,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_a_shape() {
        let net = Network::model_a(32);
        assert_eq!(net.n_cores(), 32);
        assert_eq!(net.n_mems(), 32);
        assert_eq!(net.chip_of_core(31), 31);
    }

    #[test]
    fn model_b_shape() {
        let net = Network::model_b(4, 8);
        assert_eq!(net.n_cores(), 32);
        assert_eq!(net.n_mems(), 8);
        assert_eq!(net.chip_of_core(0), 0);
        assert_eq!(net.chip_of_core(31), 3);
        assert_eq!(net.chip_of_mem(7), 3);
    }

    #[test]
    fn model_b_intra_chip_is_cheaper_than_inter_chip() {
        let net = Network::model_b(4, 8);
        let c0 = net.core_endpoint(0);
        let c1 = net.core_endpoint(1); // same chip
        let c8 = net.core_endpoint(8); // next chip
        let intra = net.base_latency(c0, c1, MsgClass::Control);
        let inter = net.base_latency(c0, c8, MsgClass::Control);
        assert!(inter > 2 * intra, "inter={inter} intra={intra}");
    }

    #[test]
    fn model_a_is_uniform() {
        let net = Network::model_a(32);
        let m0 = net.mem_endpoint(0);
        let near = net.base_latency(net.core_endpoint(0), m0, MsgClass::Control);
        let far = net.base_latency(net.core_endpoint(31), m0, MsgClass::Control);
        assert_eq!(near, far, "all memory is equidistant in Model A");
    }

    #[test]
    fn data_messages_are_slower_than_control() {
        let mut net = Network::model_b(2, 2);
        let a = net.core_endpoint(0);
        let b = net.core_endpoint(2);
        let ctl = net.send(Time::ZERO, a, b, MsgClass::Control);
        // Fresh network for clean occupancy.
        let mut net2 = Network::model_b(2, 2);
        let data = net2.send(Time::ZERO, a, b, MsgClass::Data);
        assert!(data > ctl);
    }

    #[test]
    fn congestion_queues_messages() {
        let mut net = Network::model_b(2, 2);
        let a = net.core_endpoint(0);
        let b = net.core_endpoint(2);
        let first = net.send(Time::ZERO, a, b, MsgClass::Data);
        let mut last = first;
        for _ in 0..50 {
            last = net.send(Time::ZERO, a, b, MsgClass::Data);
        }
        assert!(last > first);
        assert!(net.total_queue_delay() > 0);
    }

    #[test]
    fn link_occupancy_tracks_classes() {
        // Message accounting lives with the caller (the machine's metrics
        // registry); the network itself only tracks per-link occupancy.
        let mut net = Network::model_a(4);
        let a = net.core_endpoint(0);
        let m = net.mem_endpoint(1);
        net.send(Time::ZERO, a, m, MsgClass::Control);
        let after_control: u64 = net.link_stats().iter().map(|s| s.busy_cycles).sum();
        net.send(Time::ZERO, a, m, MsgClass::Data);
        let after_data: u64 = net.link_stats().iter().map(|s| s.busy_cycles).sum();
        // Data messages carry more flits, so they occupy links longer.
        assert!(after_data - after_control > after_control);
        let msgs: u64 = net.link_stats().iter().map(|s| s.messages).sum();
        assert!(msgs >= 4, "two messages over at least two hops, got {msgs}");
    }

    #[test]
    fn base_latency_matches_uncongested_send() {
        let mut net = Network::model_a(8);
        let a = net.core_endpoint(2);
        let m = net.mem_endpoint(6);
        let base = net.base_latency(a, m, MsgClass::Data);
        let arr = net.send(Time::ZERO, a, m, MsgClass::Data);
        assert_eq!(arr.cycles(), base);
    }

    #[test]
    fn link_stats_accumulate() {
        let mut net = Network::model_a(4);
        let a = net.core_endpoint(0);
        let m = net.mem_endpoint(3);
        net.send(Time::ZERO, a, m, MsgClass::Control);
        let stats = net.link_stats();
        let used: u64 = stats.iter().map(|s| s.messages).sum();
        assert!(used >= 2, "at least two hops used, got {used}");
    }

    #[test]
    #[should_panic(expected = "switch")]
    fn sending_from_switch_panics() {
        let mut b = crate::TopoBuilder::new();
        let e = b.endpoint("e");
        let s = b.switch("s");
        let f = b.endpoint("f");
        b.link(e, s, 1, 1);
        b.link(s, f, 1, 1);
        let mut net = b.build();
        net.send(Time::ZERO, s, f, MsgClass::Control);
    }
}
