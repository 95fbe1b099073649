//! Property tests for the Monitor Node: capacity conservation and
//! policy sanity under arbitrary request/release interleavings.

use proptest::prelude::*;
use venice_fabric::topology::Topology;
use venice_fabric::{Mesh3d, NodeId};
use venice_runtime::tables::{ResourceKind, ResourceRecord};
use venice_runtime::{
    DistancePolicy, DonorPolicy, FirstFitPolicy, MonitorNode, MostFreePolicy, NodeAgent,
};
use venice_sim::Time;

fn monitor_with_capacity(per_node_mb: u64) -> MonitorNode {
    let mesh = Mesh3d::prototype();
    let mut mn = MonitorNode::new(Topology::Mesh(mesh.clone()), Box::new(DistancePolicy));
    for id in mesh.nodes() {
        let mut a = NodeAgent::new(id);
        a.idle_memory = per_node_mb << 20;
        a.lendable_base = 0xC000_0000;
        mn.on_heartbeat(a.heartbeat(Time::ZERO, |_| true));
    }
    mn
}

proptest! {
    /// Grants never exceed advertised capacity, and release restores it
    /// exactly: after releasing everything, the full capacity is
    /// grantable again.
    #[test]
    fn capacity_is_conserved(requests in prop::collection::vec((0u16..8, 1u64..128), 1..40)) {
        let per_node = 256u64;
        let mut mn = monitor_with_capacity(per_node);
        let mut grants = Vec::new();
        let mut granted_total = 0u64;
        for (node, mb) in requests {
            let amount = mb << 20;
            if let Ok(g) = mn.request(NodeId(node), ResourceKind::Memory, amount, Time::ZERO, 8, |_, _| true) {
                granted_total += g.amount;
                grants.push(g);
            }
        }
        // Can never hand out more than the rack holds (8 donors, but a
        // recipient cannot donate to itself — still bounded by total).
        prop_assert!(granted_total <= 8 * (per_node << 20));
        for g in &grants {
            prop_assert_ne!(g.donor, g.recipient);
        }
        let count = grants.len();
        for g in grants {
            prop_assert!(mn.release(g.id).is_some());
        }
        prop_assert_eq!(mn.active_allocations(), 0);
        prop_assert_eq!(mn.grants_committed(), count as u64);
        // Full capacity is available again: 7 donors x 256 MB for node 0.
        for _ in 0..7 {
            prop_assert!(mn
                .request(NodeId(0), ResourceKind::Memory, per_node << 20, Time::ZERO, 8, |_, _| true)
                .is_ok());
        }
    }

    /// All policies pick only from the candidate set.
    #[test]
    fn policies_pick_real_candidates(
        amounts in prop::collection::vec(1u64..1024, 1..8),
        recipient in 0u16..8,
    ) {
        let topo = Topology::Mesh(Mesh3d::prototype());
        let candidates: Vec<ResourceRecord> = amounts
            .iter()
            .enumerate()
            .map(|(i, &mb)| ResourceRecord {
                node: NodeId(i as u16),
                kind: ResourceKind::Memory,
                amount: mb << 20,
                addr: 0,
                reported_at: Time::ZERO,
            })
            .collect();
        let nodes: Vec<NodeId> = candidates.iter().map(|c| c.node).collect();
        for policy in [
            &DistancePolicy as &dyn DonorPolicy,
            &FirstFitPolicy,
            &MostFreePolicy,
        ] {
            let pick = policy.select(&topo, NodeId(recipient), &mut candidates.iter());
            let pick = pick.expect("non-empty candidates");
            prop_assert!(nodes.contains(&pick), "{} picked {pick}", policy.name());
        }
    }

    /// Distance policy never picks a strictly farther donor when a
    /// nearer one qualifies.
    #[test]
    fn distance_policy_is_greedy(present in prop::collection::vec(any::<bool>(), 8), recipient in 0u16..8) {
        let topo = Topology::Mesh(Mesh3d::prototype());
        let mesh = Mesh3d::prototype();
        let candidates: Vec<ResourceRecord> = present
            .iter()
            .enumerate()
            .filter(|&(i, &p)| p && i as u16 != recipient)
            .map(|(i, _)| ResourceRecord {
                node: NodeId(i as u16),
                kind: ResourceKind::Memory,
                amount: 1 << 30,
                addr: 0,
                reported_at: Time::ZERO,
            })
            .collect();
        prop_assume!(!candidates.is_empty());
        let pick = DistancePolicy.select(&topo, NodeId(recipient), &mut candidates.iter()).unwrap();
        let best = candidates
            .iter()
            .map(|c| mesh.hops(NodeId(recipient), c.node))
            .min()
            .unwrap();
        prop_assert_eq!(mesh.hops(NodeId(recipient), pick), best);
    }
}
