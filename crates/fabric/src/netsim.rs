//! Packet-level network simulation on the DES kernel.
//!
//! The analytic [`crate::phy`]/[`crate::switch`] models cover unloaded
//! latencies; this module simulates actual packet flows through the mesh
//! — per-link FIFO occupancy, store-and-forward hops, and contention
//! where flows cross paths. The paper defers "the effects of sharing
//! multiple resources that may cross paths with one another" to future
//! work; this simulator is the vehicle for exactly that study (see the
//! contention ablation in the `venice` crate).
//!
//! # Example
//!
//! ```
//! use venice_fabric::netsim::{FlowSpec, NetworkSim};
//! use venice_fabric::{Mesh3d, NodeId};
//!
//! let mesh = Mesh3d::prototype();
//! let sim = NetworkSim::new(mesh)
//!     .flow(FlowSpec::new(NodeId(0), NodeId(1), 256, 100))
//!     .run();
//! assert_eq!(sim.delivered(0), 100);
//! ```

use std::collections::HashMap;

use venice_sim::{Kernel, Scheduler, SimEvent, Time, TokenBucket};

use crate::phy::LinkParams;
use crate::switch::SwitchParams;
use crate::topology::{Mesh3d, NodeId};

/// One unidirectional traffic flow.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Payload bytes per packet (a 16-byte header is added on the wire).
    pub payload_bytes: u64,
    /// Number of packets to send.
    pub packets: u64,
    /// Inter-injection gap at the source (zero = saturate).
    pub inject_gap: Time,
    /// Injection start offset.
    pub start: Time,
    /// Optional flow-based QoS rate cap in Gbps (§5.1.1's "flow-based
    /// QoS" feature): injections are shaped by a token bucket.
    pub rate_cap_gbps: Option<f64>,
}

impl FlowSpec {
    /// A saturating flow of `packets` packets of `payload_bytes` each.
    pub fn new(src: NodeId, dst: NodeId, payload_bytes: u64, packets: u64) -> Self {
        FlowSpec {
            src,
            dst,
            payload_bytes,
            packets,
            inject_gap: Time::ZERO,
            start: Time::ZERO,
            rate_cap_gbps: None,
        }
    }

    /// Sets a fixed injection gap (paced flow).
    pub fn paced(mut self, gap: Time) -> Self {
        self.inject_gap = gap;
        self
    }

    /// Applies a flow-based QoS rate cap (token-bucket shaped at the
    /// injection port).
    ///
    /// # Panics
    ///
    /// Panics if `gbps` is not strictly positive.
    pub fn rate_capped(mut self, gbps: f64) -> Self {
        assert!(gbps > 0.0, "rate cap must be positive");
        self.rate_cap_gbps = Some(gbps);
        self
    }

    fn wire_bytes(&self) -> u64 {
        self.payload_bytes + 16
    }
}

/// Per-flow results.
#[derive(Debug, Clone, Default)]
struct FlowStats {
    delivered: u64,
    first_delivery: Time,
    last_delivery: Time,
    total_latency: Time,
}

#[derive(Debug)]
struct NetState {
    /// Busy-until time of each directed link (a, b).
    link_busy: HashMap<(u16, u16), Time>,
    stats: Vec<FlowStats>,
    /// Each flow's route, source first.
    routes: Vec<Vec<NodeId>>,
    /// Each flow's wire bytes per packet.
    wire: Vec<u64>,
    link: LinkParams,
    switch_transit: Time,
}

/// One packet reaching hop `hop` of flow `flow`'s route (hop 0 is its
/// injection at the source).
#[derive(Debug, Clone, Copy)]
struct Hop {
    flow: u32,
    hop: u32,
    injected_at: Time,
}

impl SimEvent<NetState> for Hop {
    fn fire(self, st: &mut NetState, s: &mut Scheduler<NetState, Hop>) {
        forward(st, s, self);
    }
}

/// A packet-level simulator over a 3D mesh with dimension-ordered
/// routing and per-link serialization occupancy.
pub struct NetworkSim {
    mesh: Mesh3d,
    link: LinkParams,
    switch: SwitchParams,
    flows: Vec<FlowSpec>,
}

/// Completed simulation results.
#[derive(Debug)]
pub struct NetworkRun {
    flows: Vec<FlowSpec>,
    stats: Vec<FlowStats>,
    end: Time,
}

impl NetworkSim {
    /// Creates a simulator over `mesh` with prototype link/switch
    /// parameters.
    pub fn new(mesh: Mesh3d) -> Self {
        NetworkSim {
            mesh,
            link: LinkParams::venice_prototype(),
            switch: SwitchParams::venice_prototype(),
            flows: Vec::new(),
        }
    }

    /// Overrides the link parameters.
    pub fn with_link(mut self, link: LinkParams) -> Self {
        self.link = link;
        self
    }

    /// Adds a flow.
    pub fn flow(mut self, spec: FlowSpec) -> Self {
        self.flows.push(spec);
        self
    }

    /// Runs to completion and returns the results.
    ///
    /// # Panics
    ///
    /// Panics if any flow's endpoints are outside the mesh, or if the
    /// simulation exceeds its event budget (indicates livelock).
    pub fn run(self) -> NetworkRun {
        let NetworkSim {
            mesh,
            link,
            switch,
            flows,
        } = self;
        for f in &flows {
            assert!((f.src.0 as usize) < mesh.len(), "flow src out of range");
            assert!((f.dst.0 as usize) < mesh.len(), "flow dst out of range");
            assert!(f.src != f.dst, "flow endpoints must differ");
        }
        let state = NetState {
            link_busy: HashMap::new(),
            stats: vec![FlowStats::default(); flows.len()],
            routes: flows
                .iter()
                .map(|f| {
                    std::iter::once(f.src)
                        .chain(mesh.route(f.src, f.dst))
                        .collect()
                })
                .collect(),
            wire: flows.iter().map(FlowSpec::wire_bytes).collect(),
            link,
            switch_transit: switch.transit_latency,
        };
        let mut kernel = Kernel::new(state).with_event_limit(50_000_000);
        for (fid, f) in flows.iter().enumerate() {
            let flow = u32::try_from(fid).expect("flow count fits u32");
            let mut shaper = f
                .rate_cap_gbps
                .map(|gbps| TokenBucket::new(gbps, f.wire_bytes().max(1)));
            for pkt in 0..f.packets {
                let mut at = f.start + f.inject_gap * pkt;
                if let Some(tb) = shaper.as_mut() {
                    at = tb.reserve(at, f.wire_bytes());
                }
                let hop = Hop {
                    flow,
                    hop: 0,
                    injected_at: at,
                };
                kernel.schedule_event(at, hop);
            }
        }
        let end = kernel.run();
        let stats = kernel.into_state().stats;
        NetworkRun { flows, stats, end }
    }
}

/// Advances one packet from `route[hop]` to `route[hop+1]`, modeling the
/// link as a serialization resource (FIFO occupancy) plus propagation.
fn forward(st: &mut NetState, s: &mut Scheduler<NetState, Hop>, pkt: Hop) {
    let (fid, hop) = (pkt.flow as usize, pkt.hop as usize);
    let route = &st.routes[fid];
    if hop + 1 >= route.len() {
        // Delivered.
        let stats = &mut st.stats[fid];
        let now = s.now();
        if stats.delivered == 0 {
            stats.first_delivery = now;
        }
        stats.delivered += 1;
        stats.last_delivery = now;
        stats.total_latency += now.saturating_sub(pkt.injected_at);
        return;
    }
    let (a, b) = (route[hop].0, route[hop + 1].0);
    let now = s.now();
    let busy = st.link_busy.get(&(a, b)).copied().unwrap_or(Time::ZERO);
    let start = busy.max(now);
    let ser = st.link.serialize(st.wire[fid]);
    st.link_busy.insert((a, b), start + ser);
    // Arrival: queueing (start - now) + serialization + PHY/cable flight
    // (+ a switch transit at intermediate hops).
    let flight = st.link.phy_latency * 2 + st.link.cable_delay;
    let extra = if hop > 0 {
        st.switch_transit
    } else {
        Time::ZERO
    };
    let arrive_in = (start - now) + ser + flight + extra;
    let next = Hop {
        hop: pkt.hop + 1,
        ..pkt
    };
    s.schedule_event_in(arrive_in, next);
}

impl NetworkRun {
    /// Packets delivered for flow `fid`.
    pub fn delivered(&self, fid: usize) -> u64 {
        self.stats[fid].delivered
    }

    /// Mean end-to-end packet latency for flow `fid`.
    pub fn mean_latency(&self, fid: usize) -> Time {
        let s = &self.stats[fid];
        if s.delivered == 0 {
            Time::ZERO
        } else {
            s.total_latency / s.delivered
        }
    }

    /// Achieved goodput for flow `fid` in Gbps (payload bits over the
    /// flow's delivery window).
    pub fn goodput_gbps(&self, fid: usize) -> f64 {
        let s = &self.stats[fid];
        let f = &self.flows[fid];
        if s.delivered < 2 {
            return 0.0;
        }
        let window = s.last_delivery.saturating_sub(f.start);
        if window == Time::ZERO {
            return 0.0;
        }
        (s.delivered * f.payload_bytes * 8) as f64 / window.as_secs_f64() / 1e9
    }

    /// Simulation end time.
    pub fn end_time(&self) -> Time {
        self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unloaded_latency_matches_analytic_model() {
        let mesh = Mesh3d::prototype();
        let run = NetworkSim::new(mesh)
            .flow(FlowSpec::new(NodeId(0), NodeId(1), 64, 1))
            .run();
        let link = LinkParams::venice_prototype();
        assert_eq!(run.mean_latency(0), link.one_way(64 + 16));
    }

    #[test]
    fn multi_hop_adds_transits() {
        let mesh = Mesh3d::prototype();
        let run = NetworkSim::new(mesh)
            .flow(FlowSpec::new(NodeId(0), NodeId(7), 64, 1))
            .run();
        let link = LinkParams::venice_prototype();
        let expect = link.one_way(80)
            + (link.serialize(80)
                + link.phy_latency * 2
                + link.cable_delay
                + SwitchParams::venice_prototype().transit_latency)
                * 2;
        assert_eq!(run.mean_latency(0), expect);
    }

    #[test]
    fn saturating_flow_approaches_link_rate() {
        let mesh = Mesh3d::prototype();
        let run = NetworkSim::new(mesh)
            .flow(FlowSpec::new(NodeId(0), NodeId(1), 4096, 500))
            .run();
        let g = run.goodput_gbps(0);
        // 4096/4112 of 5 Gbps ≈ 4.98; allow a whisker for the first-packet
        // flight time inside the window.
        assert!(g > 4.7, "goodput = {g}");
    }

    #[test]
    fn crossing_flows_share_a_link_fairly() {
        // Under dimension-ordered (XYZ) routing, flows 0->1 and 0->3
        // (route 0->1->3) share the 0->1 link. Each is injected at line
        // rate, so the shared link is 2x oversubscribed.
        let mesh = Mesh3d::prototype();
        let line_gap = LinkParams::venice_prototype().serialize(4096 + 16);
        let run = NetworkSim::new(mesh)
            .flow(FlowSpec::new(NodeId(0), NodeId(1), 4096, 400).paced(line_gap))
            .flow(FlowSpec::new(NodeId(0), NodeId(3), 4096, 400).paced(line_gap))
            .run();
        let g0 = run.goodput_gbps(0);
        let g1 = run.goodput_gbps(1);
        // Each gets roughly half the 5 Gbps link.
        assert!((2.0..3.0).contains(&g0), "g0 = {g0}");
        assert!((2.0..3.0).contains(&g1), "g1 = {g1}");
        assert!((g0 - g1).abs() < 0.5, "unfair: {g0} vs {g1}");
    }

    #[test]
    fn disjoint_flows_do_not_interfere() {
        let mesh = Mesh3d::prototype();
        let solo = NetworkSim::new(mesh.clone())
            .flow(FlowSpec::new(NodeId(0), NodeId(1), 4096, 300))
            .run();
        let pair = NetworkSim::new(mesh)
            .flow(FlowSpec::new(NodeId(0), NodeId(1), 4096, 300))
            .flow(FlowSpec::new(NodeId(6), NodeId(7), 4096, 300))
            .run();
        let a = solo.goodput_gbps(0);
        let b = pair.goodput_gbps(0);
        assert!((a - b).abs() / a < 0.02, "{a} vs {b}");
        assert!((pair.goodput_gbps(1) - a).abs() / a < 0.02);
    }

    #[test]
    fn paced_flow_sees_no_queueing() {
        let mesh = Mesh3d::prototype();
        let gap = Time::from_us(10); // far below line rate
        let run = NetworkSim::new(mesh)
            .flow(FlowSpec::new(NodeId(0), NodeId(1), 256, 50).paced(gap))
            .run();
        let link = LinkParams::venice_prototype();
        assert_eq!(run.mean_latency(0), link.one_way(256 + 16));
    }

    #[test]
    fn contention_inflates_latency() {
        let mesh = Mesh3d::prototype();
        let line_gap = LinkParams::venice_prototype().serialize(4096 + 16);
        let solo = NetworkSim::new(mesh.clone())
            .flow(FlowSpec::new(NodeId(0), NodeId(1), 4096, 200).paced(line_gap))
            .run();
        let contended = NetworkSim::new(mesh)
            .flow(FlowSpec::new(NodeId(0), NodeId(1), 4096, 200).paced(line_gap))
            .flow(FlowSpec::new(NodeId(0), NodeId(3), 4096, 200).paced(line_gap))
            .run();
        assert!(
            contended.mean_latency(0) > solo.mean_latency(0) * 3 / 2,
            "contended {} vs solo {}",
            contended.mean_latency(0),
            solo.mean_latency(0)
        );
    }

    #[test]
    fn qos_cap_limits_goodput() {
        let mesh = Mesh3d::prototype();
        let run = NetworkSim::new(mesh)
            .flow(FlowSpec::new(NodeId(0), NodeId(1), 4096, 300).rate_capped(1.0))
            .run();
        let g = run.goodput_gbps(0);
        assert!((0.85..1.05).contains(&g), "goodput = {g}");
    }

    #[test]
    fn qos_protects_capped_flow_from_greedy_neighbor() {
        // A capped flow and a saturating flow share link 0->1; the
        // capped flow still gets close to its allocation and the greedy
        // flow takes the rest.
        let mesh = Mesh3d::prototype();
        let line_gap = LinkParams::venice_prototype().serialize(4096 + 16);
        let run = NetworkSim::new(mesh)
            .flow(FlowSpec::new(NodeId(0), NodeId(3), 4096, 200).rate_capped(1.5))
            .flow(FlowSpec::new(NodeId(0), NodeId(1), 4096, 600).paced(line_gap))
            .run();
        let capped = run.goodput_gbps(0);
        let greedy = run.goodput_gbps(1);
        assert!((1.1..1.7).contains(&capped), "capped = {capped}");
        assert!(greedy > 2.5, "greedy = {greedy}");
        assert!(capped + greedy < 5.3, "over link rate");
    }

    #[test]
    #[should_panic(expected = "endpoints must differ")]
    fn self_flow_rejected() {
        let _ = NetworkSim::new(Mesh3d::prototype())
            .flow(FlowSpec::new(NodeId(2), NodeId(2), 64, 1))
            .run();
    }
}
