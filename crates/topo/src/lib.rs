//! Network topologies for the locksim simulated multiprocessor.
//!
//! The simulator models two machines from the paper's evaluation (Fig. 8):
//!
//! * **Model A** — 32 single-core chips connected by a hierarchical switch
//!   network (a SunFire E25K-like system), built by [`Network::model_a`].
//! * **Model B** — a 4-chip multi-CMP (Sun T5440-like), 8 cores per chip,
//!   intra-chip crossbar plus inter-chip coherence hubs, built by
//!   [`Network::model_b`].
//!
//! The network is a *pure timing* component: [`Network::send`] walks the
//! route from source to destination endpoint, reserving occupancy on each
//! link (wormhole-style serialization), and returns the arrival time. The
//! caller (the machine crate) schedules the corresponding delivery event.
//! Modelling per-link occupancy is what lets inter-chip congestion emerge in
//! Model B — the effect behind the paper's Figure 9b, where the SSB's
//! remote-retry traffic saturates the hub links.
//!
//! # Example
//!
//! ```
//! use locksim_engine::Time;
//! use locksim_topo::{MsgClass, Network};
//!
//! let mut net = Network::model_a(4);
//! let a = net.core_endpoint(0);
//! let b = net.core_endpoint(3);
//! let t1 = net.send(Time::ZERO, a, b, MsgClass::Control);
//! assert!(t1 > Time::ZERO);
//! // A second message at the same instant queues behind the first.
//! let t2 = net.send(Time::ZERO, a, b, MsgClass::Control);
//! assert!(t2 > t1);
//! ```

#![forbid(unsafe_code)]

mod builder;
mod network;

pub use builder::TopoBuilder;
pub use network::{LinkStats, MsgClass, Network, NodeId};
