//! Property tests for fabric invariants: routing, flow control, and
//! reliable delivery.

use std::collections::VecDeque;

use proptest::prelude::*;
use venice_fabric::datalink::{CreditCounter, DatalinkRx, DatalinkTx, RxVerdict};
use venice_fabric::paths::PathTable;
use venice_fabric::routing::{forward_path, RoutingTable};
use venice_fabric::topology::{Mesh3d, NodeId};
use venice_fabric::{crc::Crc32, Packet, PacketKind};

/// Hop distance from `src` to every node over the links not in `down`
/// (`None` where `down` cuts the node off).
fn up_distances(mesh: &Mesh3d, down: &[(NodeId, NodeId)], src: NodeId) -> Vec<Option<u32>> {
    let mut dist = vec![None; mesh.len()];
    dist[src.0 as usize] = Some(0);
    let mut frontier = VecDeque::from([src]);
    while let Some(cur) = frontier.pop_front() {
        let d = dist[cur.0 as usize].unwrap();
        for next in mesh.neighbors(cur) {
            if dist[next.0 as usize].is_none() && !down.contains(&(cur, next)) {
                dist[next.0 as usize] = Some(d + 1);
                frontier.push_back(next);
            }
        }
    }
    dist
}

proptest! {
    /// A recompiled path table never routes over a down link. For any
    /// flap set on a 2x2x2 or 4x2x2 mesh, a link listed twice included,
    /// every pair the up links still
    /// connect gets a path that walks adjacent up links from source to
    /// destination in the fewest hops the up links allow; only a truly
    /// partitioned pair keeps its stale path. Link ids stay stable, and
    /// an empty flap set reproduces the table.
    #[test]
    fn recompiled_paths_avoid_down_links(
        wide in any::<bool>(),
        flaps in prop::collection::vec((0u16..16, 0usize..6, any::<bool>()), 0..8),
    ) {
        let mesh = if wide { Mesh3d::new(4, 2, 2) } else { Mesh3d::prototype() };
        let n = mesh.len() as u16;
        let mut down = Vec::new();
        for (node, pick, both) in flaps {
            let a = NodeId(node % n);
            let neighbors = mesh.neighbors(a);
            let b = neighbors[pick % neighbors.len()];
            let cut = if both { vec![(a, b), (b, a)] } else { vec![(a, b)] };
            down.extend(cut);
        }
        let table = PathTable::compile(&mesh);
        let rerouted = table.recompile_with_down(&mesh, &down);
        for id in 0..table.link_count() as u32 {
            prop_assert_eq!(table.endpoints(id), rerouted.endpoints(id));
        }
        for a in mesh.nodes() {
            let dist = up_distances(&mesh, &down, a);
            for b in mesh.nodes() {
                let links = rerouted.links(a, b);
                let Some(d) = dist[b.0 as usize] else {
                    prop_assert_eq!(links, table.links(a, b), "partitioned {}->{}", a, b);
                    continue;
                };
                prop_assert_eq!(links.len() as u32, d, "{}->{} is not shortest", a, b);
                let mut at = a;
                for &link in links {
                    let (from, to) = rerouted.endpoints(link);
                    prop_assert_eq!(from, at);
                    prop_assert_eq!(mesh.hops(from, to), 1);
                    prop_assert!(!down.contains(&(from, to)), "{}->{} crosses {}->{}", a, b, from, to);
                    at = to;
                }
                prop_assert_eq!(at, b);
            }
        }
        let again = table.recompile_with_down(&mesh, &[]);
        prop_assert_eq!(again.link_count(), table.link_count());
        for a in mesh.nodes() {
            for b in mesh.nodes() {
                prop_assert_eq!(again.links(a, b), table.links(a, b));
            }
        }
    }

    /// Dimension-ordered routing always reaches the destination in
    /// exactly the Manhattan hop count, for arbitrary mesh shapes.
    #[test]
    fn dimension_ordered_routing_is_minimal(
        dx in 1u16..5, dy in 1u16..5, dz in 1u16..4,
        a in 0u16..100, b in 0u16..100,
    ) {
        let mesh = Mesh3d::new(dx, dy, dz);
        let n = mesh.len() as u16;
        let a = NodeId(a % n);
        let b = NodeId(b % n);
        let tables: Vec<RoutingTable> =
            mesh.nodes().map(|v| RoutingTable::for_mesh(&mesh, v)).collect();
        let path = forward_path(&mesh, &tables, a, b);
        prop_assert_eq!(path.len() as u32, mesh.hops(a, b));
        if a != b {
            prop_assert_eq!(*path.last().unwrap(), b);
        }
        // Every step is a mesh neighbor of its predecessor.
        let mut prev = a;
        for &step in &path {
            prop_assert_eq!(mesh.hops(prev, step), 1);
            prev = step;
        }
    }

    /// Credits never go negative and never exceed the pool under any
    /// consume/grant interleaving that respects the protocol.
    #[test]
    fn credits_stay_in_bounds(max in 1u32..64, ops in prop::collection::vec(any::<bool>(), 0..200)) {
        let mut c = CreditCounter::new(max);
        let mut outstanding = 0u32;
        for op in ops {
            if op {
                if c.try_consume() {
                    outstanding += 1;
                }
            } else if outstanding > 0 {
                c.grant(1);
                outstanding -= 1;
            }
            prop_assert!(c.available() <= max);
            prop_assert_eq!(c.available() + outstanding, max);
        }
    }

    /// Go-back-N delivers every packet exactly once, in order, under an
    /// arbitrary corruption pattern.
    #[test]
    fn go_back_n_exactly_once_in_order(corrupt in prop::collection::vec(any::<bool>(), 1..120)) {
        let total = 40u64;
        let mut tx = DatalinkTx::new(8);
        let mut rx = DatalinkRx::new();
        let mut wire: Vec<Packet> = Vec::new();
        let mut delivered: Vec<u32> = Vec::new();
        let mut next = 0u64;
        let mut corrupt_iter = corrupt.into_iter();
        let mut guard = 0;
        while (delivered.len() as u64) < total {
            guard += 1;
            prop_assert!(guard < 10_000, "protocol diverged");
            while tx.can_send() && next < total {
                let p = Packet::new(NodeId(0), NodeId(1), PacketKind::RdmaData, next as u32, 64);
                wire.push(tx.send(p));
                next += 1;
            }
            prop_assert!(!wire.is_empty());
            let p = wire.remove(0);
            let bad = corrupt_iter.next().unwrap_or(false);
            match rx.receive(&p, bad) {
                RxVerdict::Deliver { ack_seq } => {
                    delivered.push(p.flow);
                    tx.on_ack(ack_seq);
                }
                RxVerdict::Nack { expected_seq } => {
                    wire.retain(|w| w.seq < expected_seq);
                    wire.extend(tx.on_nack(expected_seq));
                }
                RxVerdict::Duplicate { ack_seq } => tx.on_ack(ack_seq),
            }
        }
        let expect: Vec<u32> = (0..total as u32).collect();
        prop_assert_eq!(delivered, expect);
    }

    /// CRC-32 detects any single bit flip (guaranteed by construction;
    /// checked over random payloads and positions).
    #[test]
    fn crc_detects_single_bit_flips(
        data in prop::collection::vec(any::<u8>(), 1..512),
        pos in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let crc = Crc32::new();
        let reference = crc.checksum(&data);
        let mut corrupted = data.clone();
        let i = pos.index(corrupted.len());
        corrupted[i] ^= 1 << bit;
        prop_assert_ne!(crc.checksum(&corrupted), reference);
    }

    /// Packet wire size is header + payload and priority is stable.
    #[test]
    fn packet_wire_accounting(payload in 0u64..65_536) {
        for kind in [
            PacketKind::CrmaReadReq,
            PacketKind::CrmaReadResp,
            PacketKind::RdmaData,
            PacketKind::QpairData,
            PacketKind::LinkAck,
        ] {
            let p = Packet::new(NodeId(0), NodeId(1), kind, 0, payload);
            prop_assert_eq!(p.wire_bytes(), kind.header_bytes() + payload);
            prop_assert_eq!(p.priority(), p.clone().priority());
        }
    }
}
