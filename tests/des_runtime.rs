//! Integration: the discrete-event kernel driving the runtime layer —
//! heartbeats, liveness windows, staleness handshakes, and link-fault
//! propagation over simulated time.

use venice_fabric::topology::Topology;
use venice_fabric::{Mesh3d, NodeId};
use venice_runtime::tables::ResourceKind;
use venice_runtime::{DistancePolicy, MonitorNode, NodeAgent};
use venice_sim::{Kernel, Scheduler, SimEvent, Time};

struct World {
    monitor: MonitorNode,
    agents: Vec<NodeAgent>,
    /// Simulated link fault: (from, to) that fails after `fault_at`.
    fault_at: Time,
    dead_node: Option<NodeId>,
}

/// A node agent's heartbeat timer: `Start` arms it at time zero, and
/// every `Beat` 100 ms later sends one heartbeat and re-arms it.
enum Heartbeat {
    Start(usize),
    Beat(usize),
}

impl SimEvent<World> for Heartbeat {
    fn fire(self, w: &mut World, s: &mut Scheduler<World, Heartbeat>) {
        let idx = match self {
            Heartbeat::Start(idx) => idx,
            Heartbeat::Beat(idx) => {
                if Some(w.agents[idx].node()) == w.dead_node {
                    return; // dead nodes stop heartbeating (and never reschedule)
                }
                let now = s.now();
                let faulty = now >= w.fault_at;
                let hb =
                    w.agents[idx].heartbeat(now, |to| !(faulty && idx == 0 && to == NodeId(1)));
                w.monitor.on_heartbeat(hb);
                idx
            }
        };
        s.schedule_event_in(Time::from_ms(100), Heartbeat::Beat(idx));
    }
}

fn build() -> Kernel<World, Heartbeat> {
    let mesh = Mesh3d::prototype();
    let monitor = MonitorNode::new(Topology::Mesh(mesh.clone()), Box::new(DistancePolicy));
    let agents: Vec<NodeAgent> = mesh
        .nodes()
        .map(|id| {
            let mut a = NodeAgent::new(id);
            a.idle_memory = 256 << 20;
            a.lendable_base = 768 << 20;
            a.set_neighbors(mesh.neighbors(id));
            a
        })
        .collect();
    let n = agents.len();
    let mut kernel = Kernel::new(World {
        monitor,
        agents,
        fault_at: Time::MAX,
        dead_node: None,
    });
    for idx in 0..n {
        kernel.schedule_event(Time::ZERO, Heartbeat::Start(idx));
    }
    kernel
}

#[test]
fn heartbeats_establish_liveness_over_simulated_time() {
    let mut k = build();
    k.run_until(Time::from_secs(1));
    let w = k.state();
    let now = k.now();
    for a in &w.agents {
        assert!(
            w.monitor.node_alive(a.node(), now),
            "{} not alive",
            a.node()
        );
    }
    // 8 agents x ~10 beats each.
    assert!(k.executed() >= 80);
}

#[test]
fn silent_node_ages_out_of_liveness() {
    let mut k = build();
    k.state_mut().dead_node = Some(NodeId(3));
    k.run_until(Time::from_secs(2));
    let w = k.state();
    let now = k.now();
    assert!(!w.monitor.node_alive(NodeId(3), now));
    assert!(w.monitor.node_alive(NodeId(0), now));
    // Allocation skips the dead node even when it is nearest.
    // Node 3's neighbors are 1, 2, 7 in the 2x2x2 mesh.
    let mut monitor = std::mem::replace(
        &mut k.state_mut().monitor,
        MonitorNode::new(
            Topology::Mesh(Mesh3d::prototype()),
            Box::new(DistancePolicy),
        ),
    );
    let grant = monitor
        .request(NodeId(1), ResourceKind::Memory, 1 << 20, now, 4, |_, _| {
            true
        })
        .expect("surviving donors exist");
    assert_ne!(grant.donor, NodeId(3));
}

#[test]
fn link_fault_reaches_the_topology_status_table() {
    let mut k = build();
    k.state_mut().fault_at = Time::from_ms(500);
    k.run_until(Time::from_secs(1));
    let w = k.state();
    // Node 0's link test toward node 1 fails after the fault.
    assert!(!w.monitor.link_up(NodeId(0), NodeId(1)));
    // The reverse direction (reported by node 1) stays up.
    assert!(w.monitor.link_up(NodeId(1), NodeId(0)));
}

#[test]
fn deterministic_simulation() {
    let run = || {
        let mut k = build();
        k.run_until(Time::from_secs(1));
        (k.executed(), k.now())
    };
    assert_eq!(run(), run());
}
