//! Physical layer model: serdes, cable, serialization, and the
//! on-chip/off-chip integration distinction.
//!
//! Two findings of the paper live here. First, "the latency of the
//! physical layer (PHY) is a significant, and sometimes dominant,
//! component of overall transaction latency" (§4.2.2) — so PHY traversal
//! latency is explicit, not folded into a generic constant. Second, the
//! contrast between *on-chip* integration and *off-chip* interface logic
//! (§4.2.1's "off-chip CRMA" vs "on-chip CRMA") is a first-class knob:
//! off-chip integration pays an extra adapter/I/O-bus traversal on each
//! end.

use serde::{Deserialize, Serialize};
use venice_sim::Time;

/// Where the fabric interface logic sits relative to the processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Integration {
    /// Fabric interface integrated on the processor die (Venice's design
    /// point): no adapter crossing.
    OnChip,
    /// Interface reached over an I/O bus / adapter (legacy designs): each
    /// crossing adds adapter latency at both the requester and the
    /// interface.
    OffChip,
}

/// Parameters of one physical link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkParams {
    /// Link bandwidth in gigabits per second (per direction).
    pub gbps: f64,
    /// Serdes + PHY traversal latency, paid once per endpoint.
    pub phy_latency: Time,
    /// Cable/board propagation delay.
    pub cable_delay: Time,
    /// Integration style of the fabric interface.
    pub integration: Integration,
    /// Extra latency per adapter crossing when `integration` is
    /// [`Integration::OffChip`] (I/O hub, bus arbitration, protocol
    /// conversion).
    pub adapter_latency: Time,
}

impl LinkParams {
    /// The paper's prototype link (Table 1): 5 Gbps serial lanes,
    /// point-to-point latency ≈ 1.4 µs dominated by the PHY, fabric
    /// integrated on chip (in programmable logic next to the ARM cores).
    pub fn venice_prototype() -> Self {
        LinkParams {
            gbps: 5.0,
            // Calibrated so a 64 B cacheline packet sees ~1.4 us one-way:
            // 2 x 635 ns PHY + 30 ns cable + 102.4 ns serialization.
            phy_latency: Time::from_ns(635),
            cable_delay: Time::from_ns(30),
            integration: Integration::OnChip,
            adapter_latency: Time::ZERO,
        }
    }

    /// Same link but with off-chip interface logic: models the "off-chip
    /// CRMA / off-chip QPair" configurations of §4.2.1, where requests
    /// cross an I/O bus and adapter before reaching the fabric.
    pub fn venice_prototype_off_chip() -> Self {
        LinkParams {
            integration: Integration::OffChip,
            // PCIe-class adapter crossing: DMA/bus arbitration + bridging.
            adapter_latency: Time::from_ns(500),
            ..Self::venice_prototype()
        }
    }

    /// Returns a copy with a different bandwidth.
    pub fn with_gbps(mut self, gbps: f64) -> Self {
        assert!(gbps > 0.0, "bandwidth must be positive");
        self.gbps = gbps;
        self
    }

    /// Adapter penalty paid per one-way traversal (both endpoints cross
    /// their adapter once).
    pub fn adapter_penalty(&self) -> Time {
        match self.integration {
            Integration::OnChip => Time::ZERO,
            Integration::OffChip => self.adapter_latency * 2,
        }
    }

    /// Serialization delay for `bytes` on this link.
    #[inline]
    pub fn serialize(&self, bytes: u64) -> Time {
        Time::serialize_bytes(bytes, self.gbps)
    }

    /// One-way latency for a packet of `wire_bytes` total bytes over a
    /// single link traversal: PHY out + cable + PHY in + serialization +
    /// any adapter penalty.
    pub fn one_way(&self, wire_bytes: u64) -> Time {
        self.phy_latency * 2
            + self.cable_delay
            + self.serialize(wire_bytes)
            + self.adapter_penalty()
    }

    /// Latency of transiting an intermediate hop (store-and-forward at a
    /// mesh node): one extra PHY pair + cable + re-serialization.
    pub fn transit(&self, wire_bytes: u64) -> Time {
        self.phy_latency * 2 + self.cable_delay + self.serialize(wire_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_p2p_latency_near_table1() {
        // Table 1: P2P latency 1.4 us for the prototype fabric.
        let link = LinkParams::venice_prototype();
        let t = link.one_way(64 + 16); // cacheline + header
        let us = t.as_us_f64();
        assert!((1.3..1.5).contains(&us), "one-way = {us} us");
    }

    #[test]
    fn off_chip_adds_adapter_penalty() {
        let on = LinkParams::venice_prototype();
        let off = LinkParams::venice_prototype_off_chip();
        let d = off.one_way(80) - on.one_way(80);
        assert_eq!(d, Time::from_ns(1000));
    }

    #[test]
    fn serialization_scales_linearly() {
        let link = LinkParams::venice_prototype();
        let small = link.serialize(64);
        let large = link.serialize(4096);
        assert_eq!(large.as_ps(), small.as_ps() * 64);
    }

    #[test]
    fn transit_has_no_adapter_cost() {
        // Intermediate mesh hops stay inside the fabric; the adapter is
        // only crossed at the endpoints.
        let off = LinkParams::venice_prototype_off_chip();
        assert_eq!(off.transit(80) + off.adapter_penalty(), off.one_way(80));
    }

    #[test]
    #[should_panic]
    fn with_gbps_rejects_zero() {
        LinkParams::venice_prototype().with_gbps(0.0);
    }
}
