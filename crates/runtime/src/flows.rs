//! The memory-sharing choreography (paper Fig 2) as a timed state
//! machine.
//!
//! ① the agent reports availability to the MN; ② the kernel memory
//! manager sends the MN a request; ③ the MN picks a donor, whose agent
//! hot-removes the region and sets up its Venice interface; ④ the
//! recipient hot-plugs the region and sets up its own interface. Teardown
//! reverses the steps. Each transition carries a latency: management
//! messages across the fabric plus OS work (hot-remove is the expensive
//! step — Linux must migrate/free every page in the region).

use venice_sim::Time;

/// Steps of the Fig 2 flow, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowStep {
    /// ② Recipient kernel → MN request.
    RequestToMn,
    /// ③ MN selects donor and messages its agent.
    MnToDonor,
    /// ③ Donor hot-removes the region.
    HotRemove,
    /// ③ Donor programs its Venice interface (mapping-table entry).
    DonorInterfaceSetup,
    /// ③→④ Donor ack + MN forwards grant to recipient.
    GrantToRecipient,
    /// ④ Recipient hot-plugs the region.
    HotPlug,
    /// ④ Recipient programs its Venice interface.
    RecipientInterfaceSetup,
}

/// Latency model for the flow.
#[derive(Debug, Clone)]
pub struct FlowTiming {
    /// One management message across the fabric (MN is rack-local).
    pub management_rtt: Time,
    /// MN request-handling software cost (table lookups, policy).
    pub mn_processing: Time,
    /// Linux memory hot-remove cost per gigabyte (page migration/free).
    pub hot_remove_per_gb: Time,
    /// Linux memory hot-plug cost per gigabyte (struct page init).
    pub hot_plug_per_gb: Time,
    /// Programming one RAMT window + TLB shootdown.
    pub interface_setup: Time,
}

impl Default for FlowTiming {
    fn default() -> Self {
        FlowTiming {
            management_rtt: Time::from_us(10),
            mn_processing: Time::from_us(50),
            hot_remove_per_gb: Time::from_ms(400),
            hot_plug_per_gb: Time::from_ms(120),
            interface_setup: Time::from_us(20),
        }
    }
}

impl FlowTiming {
    /// Total latency to establish a share of `bytes`, step by step.
    pub fn establish(&self, bytes: u64) -> Time {
        self.step_costs(bytes).into_iter().map(|(_, t)| t).sum()
    }

    /// Per-step costs for sharing `bytes` (for reports and tests).
    pub fn step_costs(&self, bytes: u64) -> [(FlowStep, Time); 7] {
        let gb_scaled = |per_gb: Time| per_gb.scale(bytes as f64 / (1u64 << 30) as f64);
        [
            (FlowStep::RequestToMn, self.management_rtt),
            (
                FlowStep::MnToDonor,
                self.management_rtt + self.mn_processing,
            ),
            (FlowStep::HotRemove, gb_scaled(self.hot_remove_per_gb)),
            (FlowStep::DonorInterfaceSetup, self.interface_setup),
            (FlowStep::GrantToRecipient, self.management_rtt),
            (FlowStep::HotPlug, gb_scaled(self.hot_plug_per_gb)),
            (FlowStep::RecipientInterfaceSetup, self.interface_setup),
        ]
    }

    /// Teardown latency: stop-sharing request, unplug, reclaim, table
    /// cleanup on both sides.
    pub fn teardown(&self, bytes: u64) -> Time {
        let gb = bytes as f64 / (1u64 << 30) as f64;
        self.management_rtt * 2
            + self.interface_setup * 2
            // Unplug migrates the recipient's data back or drops caches.
            + self.hot_remove_per_gb.scale(gb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn establishment_dominated_by_hot_remove() {
        let t = FlowTiming::default();
        let costs = t.step_costs(1 << 30);
        let total = t.establish(1 << 30);
        let hot_remove = costs
            .iter()
            .find(|(s, _)| *s == FlowStep::HotRemove)
            .unwrap()
            .1;
        assert!(hot_remove.ratio(total) > 0.5);
    }

    #[test]
    fn cost_scales_with_region_size() {
        let t = FlowTiming::default();
        let small = t.establish(64 << 20);
        let large = t.establish(1 << 30);
        assert!(large > small * 8);
    }

    #[test]
    fn all_steps_present_in_order() {
        let t = FlowTiming::default();
        let steps: Vec<FlowStep> = t.step_costs(1 << 20).into_iter().map(|(s, _)| s).collect();
        assert_eq!(steps.len(), 7);
        assert_eq!(steps[0], FlowStep::RequestToMn);
        assert_eq!(steps[6], FlowStep::RecipientInterfaceSetup);
    }

    #[test]
    fn establishment_is_milliseconds_scale_for_fig14_increments() {
        // Fig 14's 70 MB increments should set up in tens of ms — far
        // cheaper than the 10000-query measurement interval.
        let t = FlowTiming::default();
        let e = t.establish(70 << 20);
        assert!(e < Time::from_ms(60), "establish = {e}");
    }

    #[test]
    fn teardown_cheaper_than_establish_plus_nonzero() {
        let t = FlowTiming::default();
        assert!(t.teardown(1 << 30) > Time::ZERO);
        assert!(t.teardown(1 << 30) < t.establish(1 << 30) + Time::from_ms(500));
    }
}
