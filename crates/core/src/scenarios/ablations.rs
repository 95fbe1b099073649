//! Ablation studies for the design choices the paper calls out.
//!
//! These go beyond the published figures: they vary one design parameter
//! at a time to show *why* the design point works. Each returns a
//! [`Figure`] with an empty paper series (there is nothing published to
//! compare against).
//!
//! * donor policy — distance vs first-fit vs most-free (§5.3 notes the
//!   allocator "should consider distance ... ours only considers
//!   distance");
//! * CRMA outstanding-request slots — how much MLP the channel needs;
//! * QPair credit window — the flow-control sizing behind Fig 18;
//! * TLTLB capacity — translation caching for scattered windows;
//! * path contention — flows crossing paths on the mesh (the paper's
//!   explicit future-work question), run on the packet-level simulator;
//! * RDMA completion coalescing — the §5.2.1 double-buffering choice.

use venice_fabric::netsim::{FlowSpec, NetworkSim};
use venice_fabric::{Mesh3d, NodeId};
use venice_runtime::{DistancePolicy, DonorPolicy, FirstFitPolicy, MostFreePolicy};
use venice_sim::{SimRng, Time};
use venice_transport::collab::{CreditReturnPath, FlowControlModel};
use venice_transport::{
    CrmaChannel, CrmaConfig, PathModel, QpairConfig, Ramt, RdmaConfig, RdmaEngine, Tltlb,
};

use crate::metrics::{Figure, Series};

/// Donor-policy ablation: mean fabric distance (hops) and mean remote
/// read latency of the chosen donors when every node requests once.
pub fn ablation_policy() -> Figure {
    let mesh = Mesh3d::prototype();
    let topo = venice_fabric::topology::Topology::Mesh(mesh.clone());
    // Heterogeneous free capacity: node id * 64 MB spare.
    let spare = |n: NodeId| (n.0 as u64 + 1) * (64 << 20);
    let policies: Vec<Box<dyn DonorPolicy>> = vec![
        Box::new(DistancePolicy),
        Box::new(FirstFitPolicy),
        Box::new(MostFreePolicy),
    ];
    let path = PathModel::prototype_mesh();
    let mut fig = Figure::new(
        "ablation_policy",
        "Donor-selection policy ablation",
        "mean donor distance (hops); mean remote cacheline latency (us)",
    );
    fig.columns = vec!["mean hops".into(), "mean CRMA us".into()];
    for policy in policies {
        let mut hops = 0.0;
        let mut latency = 0.0;
        for recipient in mesh.nodes() {
            let mut free = |n: NodeId| (n != recipient).then(|| spare(n));
            let donor = policy
                .select(&topo, recipient, &mut free)
                .expect("candidates");
            hops += mesh.hops(recipient, donor) as f64;
            let mut ch = CrmaChannel::new(recipient, CrmaConfig::default());
            ch.map_window(1 << 40, 1 << 26, donor, 0).expect("window");
            let _ = ch.read_latency(&path, 1 << 40);
            latency += ch
                .read_latency(&path, (1 << 40) + 64)
                .expect("mapped")
                .as_us_f64();
        }
        let n = mesh.len() as f64;
        fig.measured
            .push(Series::new(policy.name(), vec![hops / n, latency / n]));
    }
    fig.notes = "8 requests (one per node) against heterogeneous spare capacity".into();
    fig
}

/// CRMA MSHR sweep: sustained remote-read bandwidth vs outstanding slots.
pub fn ablation_mshrs() -> Figure {
    let mut fig = Figure::new(
        "ablation_mshrs",
        "CRMA outstanding-request (MSHR) sweep",
        "sustained remote read bandwidth (Gbps) on a direct link",
    );
    let sweeps = [1usize, 2, 4, 8, 16, 32];
    fig.columns = sweeps.iter().map(|m| m.to_string()).collect();
    let path = PathModel::direct_pair();
    let values: Vec<f64> = sweeps
        .iter()
        .map(|&mshrs| {
            let mut ch = CrmaChannel::new(
                NodeId(0),
                CrmaConfig {
                    mshrs,
                    ..CrmaConfig::default()
                },
            );
            ch.map_window(1 << 40, 1 << 30, NodeId(1), 0)
                .expect("window");
            let _ = ch.read_latency(&path, 1 << 40);
            ch.sustained_read_gbps(&path, (1 << 40) + 64)
                .expect("mapped")
        })
        .collect();
    fig.measured = vec![Series::new("read bandwidth", values)];
    fig.notes = "bandwidth = slots x line / round-trip, capped by the link; \
                 32 slots saturate a 5 Gbps link at the prototype's RTT"
        .into();
    fig
}

/// QPair credit-window sweep at 64 B messages, with credits over CRMA.
pub fn ablation_credit_window() -> Figure {
    let mut fig = Figure::new(
        "ablation_credit_window",
        "QPair credit-window sweep (64 B messages)",
        "effective bandwidth (Gbps)",
    );
    let windows = [4u32, 8, 16, 32, 64];
    fig.columns = windows.iter().map(|w| w.to_string()).collect();
    for via in [CreditReturnPath::OverQpair, CreditReturnPath::OverCrma] {
        let values: Vec<f64> = windows
            .iter()
            .map(|&w| {
                let mut m = FlowControlModel::venice_default();
                m.qpair = QpairConfig {
                    credits: w,
                    ..QpairConfig::on_chip()
                };
                m.effective_gbps(64, via)
            })
            .collect();
        let label = match via {
            CreditReturnPath::OverQpair => "credits via QPair",
            CreditReturnPath::OverCrma => "credits via CRMA",
        };
        fig.measured.push(Series::new(label, values));
    }
    fig.notes = "larger windows amortize the credit loop; the CRMA return \
                 path keeps its edge until the link saturates"
        .into();
    fig
}

/// TLTLB capacity sweep: hit rate over a scattered-window access stream.
pub fn ablation_tltlb() -> Figure {
    let mut fig = Figure::new(
        "ablation_tltlb",
        "Transport-layer TLB capacity sweep",
        "TLTLB hit rate (%) over a 64-window scattered access stream",
    );
    let sizes = [4usize, 8, 16, 32, 64, 128];
    fig.columns = sizes.iter().map(|s| s.to_string()).collect();
    let values: Vec<f64> = sizes
        .iter()
        .map(|&entries| {
            let mut ramt = Ramt::new(64);
            for w in 0..64u64 {
                ramt.map(w << 30, 1 << 22, NodeId((w % 7) as u16 + 1), w << 22)
                    .expect("window");
            }
            let mut tlb = Tltlb::new(entries, 4096, Time::from_ns(30));
            let mut rng = SimRng::seed(42);
            // Zipf-ish reuse: 80% of accesses hit 4 hot windows x 8 hot
            // pages (32-page hot set); the rest scatter uniformly.
            for _ in 0..20_000 {
                let (w, page) = if rng.chance(0.8) {
                    (rng.gen_range(0..4u64), rng.gen_range(0..8u64))
                } else {
                    (rng.gen_range(0..64u64), rng.gen_range(0..16u64))
                };
                let addr = (w << 30) + page * 4096;
                let _ = tlb.translate(&mut ramt, addr);
            }
            tlb.hit_rate() * 100.0
        })
        .collect();
    fig.measured = vec![Series::new("hit rate", values)];
    fig.notes = "misses pay a 30 ns RAMT walk; the prototype's 64 entries \
                 cover the hot working set"
        .into();
    fig
}

/// Path-contention study on the packet-level simulator: per-flow goodput
/// as 1–4 line-rate flows share the same mesh link.
pub fn ablation_contention() -> Figure {
    let mut fig = Figure::new(
        "ablation_contention",
        "Flows crossing paths on the mesh (packet-level simulation)",
        "per-flow goodput (Gbps) when N flows share the 0->1 link",
    );
    let counts = [1usize, 2, 3, 4];
    fig.columns = counts.iter().map(|c| format!("{c} flows")).collect();
    // Destinations whose XYZ routes all start with the 0->1 hop.
    let dsts = [NodeId(1), NodeId(3), NodeId(5), NodeId(7)];
    let gap = venice_fabric::LinkParams::venice_prototype().serialize(4096 + 16);
    let values: Vec<f64> = counts
        .iter()
        .map(|&n| {
            let mut sim = NetworkSim::new(Mesh3d::prototype());
            for dst in dsts.iter().take(n) {
                sim = sim.flow(FlowSpec::new(NodeId(0), *dst, 4096, 300).paced(gap));
            }
            let run = sim.run();
            (0..n).map(|f| run.goodput_gbps(f)).sum::<f64>() / n as f64
        })
        .collect();
    fig.measured = vec![Series::new("per-flow goodput", values)];
    fig.notes = "the paper defers crossing-path effects to future work; \
                 FIFO links divide bandwidth near-evenly"
        .into();
    fig
}

/// RDMA completion-coalescing ablation: 32 x 4 KB swap-out batch with and
/// without the §5.2.1 double-buffered descriptors.
pub fn ablation_double_buffering() -> Figure {
    let mut fig = Figure::new(
        "ablation_double_buffering",
        "RDMA descriptor double-buffering (32 x 4 KB batch)",
        "batch completion time (us)",
    );
    fig.columns = vec!["coalesced".into(), "per-transfer completions".into()];
    let path = PathModel::direct_pair();
    let mut with = RdmaEngine::new(
        NodeId(0),
        RdmaConfig {
            double_buffering: true,
            ..RdmaConfig::default()
        },
    );
    let mut without = RdmaEngine::new(
        NodeId(0),
        RdmaConfig {
            double_buffering: false,
            ..RdmaConfig::default()
        },
    );
    let t_with = with.batch_latency(&path, NodeId(1), 4096, 32).as_us_f64();
    let t_without = without
        .batch_latency(&path, NodeId(1), 4096, 32)
        .as_us_f64();
    fig.measured = vec![Series::new("batch time", vec![t_with, t_without])];
    fig.notes = "double buffering shares one completion across the batch, \
                 'to reduce interrupt overheads' (§5.2.1)"
        .into();
    fig
}

/// All ablations, in a stable order.
pub fn all_ablations() -> Vec<Figure> {
    vec![
        ablation_policy(),
        ablation_mshrs(),
        ablation_credit_window(),
        ablation_tltlb(),
        ablation_contention(),
        ablation_double_buffering(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_policy_minimizes_hops_and_latency() {
        let f = ablation_policy();
        let by_label = |l: &str| {
            f.measured
                .iter()
                .find(|s| s.label == l)
                .unwrap()
                .values
                .clone()
        };
        let distance = by_label("distance");
        for other in ["first-fit", "most-free"] {
            let o = by_label(other);
            assert!(distance[0] <= o[0] + 1e-9, "{other}: hops");
            assert!(distance[1] <= o[1] + 1e-9, "{other}: latency");
        }
        // Distance policy picks direct neighbors: exactly 1 hop.
        assert!((distance[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mshr_bandwidth_saturates() {
        let f = ablation_mshrs();
        let v = &f.measured[0].values;
        // Monotone nondecreasing, then flat at the 5 Gbps link cap.
        assert!(v.windows(2).all(|w| w[1] >= w[0] - 1e-9), "{v:?}");
        assert!((v[5] - 5.0).abs() < 1e-6, "{v:?}");
        // One slot alone is far from saturation.
        assert!(v[0] < 1.0, "{v:?}");
    }

    #[test]
    fn credit_window_closes_the_gap() {
        let f = ablation_credit_window();
        let qpair = &f.measured[0].values;
        let crma = &f.measured[1].values;
        for (q, c) in qpair.iter().zip(crma) {
            assert!(c >= q, "CRMA credits never lose");
        }
        // Bigger windows help both paths.
        assert!(qpair.windows(2).all(|w| w[1] >= w[0] - 1e-9));
    }

    #[test]
    fn tltlb_hit_rate_grows_with_capacity() {
        let f = ablation_tltlb();
        let v = &f.measured[0].values;
        assert!(v.windows(2).all(|w| w[1] >= w[0] - 1e-9), "{v:?}");
        assert!(v[0] < v[5], "{v:?}");
        // 128 entries cover the 32-page hot set plus churn.
        assert!(v[5] > 70.0, "{v:?}");
    }

    #[test]
    fn contention_divides_bandwidth() {
        let f = ablation_contention();
        let v = &f.measured[0].values;
        assert!(v[0] > 4.5, "solo flow near line rate: {v:?}");
        // Per-flow goodput shrinks roughly as 1/N.
        assert!(v.windows(2).all(|w| w[1] < w[0]), "{v:?}");
        assert!(v[3] < v[0] / 2.5, "{v:?}");
    }

    #[test]
    fn coalescing_saves_completion_time() {
        let f = ablation_double_buffering();
        let v = &f.measured[0].values;
        assert!(v[0] < v[1]);
        // 31 completions + posts at ~2.25 us each.
        assert!((v[1] - v[0] - 31.0 * 2.25).abs() < 1.0, "{v:?}");
    }
}
