//! Admission control at each node's front door.
//!
//! PR 1 guarded the cluster with one *global* token bucket and one global
//! in-flight cap. That model cannot express per-node hotspots (a flash
//! crowd on two nodes starves nobody else) or tenant priorities, so the
//! policer is now **per node**: the engine builds one
//! [`AdmissionControl`] per node from the cluster-wide
//! [`AdmissionConfig`] via [`AdmissionControl::per_node`], and every
//! arrival is judged at the node it routes to. Two mechanisms apply in
//! order:
//!
//! 1. a **token-bucket rate policer** (the cluster-wide ceiling split
//!    evenly across nodes) — overload beyond the ceiling is shed
//!    immediately;
//! 2. a **priority-scaled in-flight cap** — each tenant priority may
//!    consume only its [`Priority::capacity_share`] of the node's
//!    concurrency bound, so as a node saturates, low-priority tenants are
//!    shed first while high-priority traffic still gets through (SLO-style
//!    shedding instead of FIFO). Tenants sitting **at their lease quota**
//!    are clamped harder still ([`OVER_QUOTA_SHARE`]): a tenant that has
//!    exhausted its borrowed-memory budget is the first shed at the front
//!    door too, whatever its nominal priority.
//!
//! A third, *transport-level* backpressure mechanism lives in the engine:
//! each node's QPair has finite receiver credits, and requests that find
//! no credit wait in a bounded per-node backlog (or are shed when it
//! overflows).

use venice_lease::Priority;
use venice_sim::Time;

/// Admission-control parameters, expressed cluster-wide; the engine
/// derives per-node controllers from them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Cluster-wide rate ceiling in requests/second; `f64::INFINITY`
    /// disables policing.
    pub rate_limit_rps: f64,
    /// Cluster-wide token-bucket burst (requests).
    pub burst: u32,
    /// Cluster-wide in-flight cap (requests admitted but not yet
    /// completed).
    pub max_inflight: u32,
    /// Per-node backlog bound while waiting for QPair credits.
    pub backlog_per_node: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            rate_limit_rps: f64::INFINITY,
            burst: 256,
            max_inflight: 4096,
            backlog_per_node: 512,
        }
    }
}

/// Why a request was turned away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Token bucket empty: offered rate exceeds the policed ceiling.
    RateLimit,
    /// The node's (priority-scaled) in-flight cap is exhausted.
    Overload,
}

/// Admission decision for one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Let the request in.
    Admit,
    /// Turn it away.
    Shed(ShedReason),
}

/// The in-flight capacity share of a tenant sitting at its lease quota —
/// below even [`Priority::Low`]'s share, so over-quota tenants are shed
/// first under contention regardless of nominal priority.
pub const OVER_QUOTA_SHARE: f64 = 0.35;

/// Stateful per-node admission controller (deterministic: a pure function
/// of the arrival sequence).
#[derive(Debug, Clone)]
pub struct AdmissionControl {
    config: AdmissionConfig,
    tokens: f64,
    last_refill: Time,
    inflight: u32,
}

impl AdmissionControl {
    /// Creates a controller with a full bucket over `config` taken
    /// verbatim (single-node semantics; used by tests and tools).
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionControl {
            tokens: config.burst as f64,
            config,
            last_refill: Time::ZERO,
            inflight: 0,
        }
    }

    /// Creates one node's controller: the cluster-wide rate, burst, and
    /// in-flight budgets split evenly across `nodes` (each floor-divided
    /// share at least 1, so small clusters never round to zero).
    pub fn per_node(config: AdmissionConfig, nodes: u32) -> Self {
        assert!(nodes > 0, "cluster must have at least one node");
        let share = AdmissionConfig {
            rate_limit_rps: config.rate_limit_rps / nodes as f64,
            burst: (config.burst / nodes).max(1),
            max_inflight: (config.max_inflight / nodes).max(1),
            backlog_per_node: config.backlog_per_node,
        };
        Self::new(share)
    }

    /// The configuration in effect (per-node shares when built via
    /// [`AdmissionControl::per_node`]).
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Requests currently in flight.
    pub fn inflight(&self) -> u32 {
        self.inflight
    }

    /// The in-flight cap as seen by `priority` (clamped to
    /// [`OVER_QUOTA_SHARE`] when the tenant is at its lease quota).
    fn cap_for(&self, priority: Priority, over_quota: bool) -> u32 {
        let share = if over_quota {
            priority.capacity_share().min(OVER_QUOTA_SHARE)
        } else {
            priority.capacity_share()
        };
        ((self.config.max_inflight as f64 * share).floor() as u32).max(1)
    }

    /// Judges an arrival of a `priority`-class request at simulated time
    /// `now`. `over_quota` marks a tenant sitting at its elastic-lease
    /// byte quota: its effective in-flight share collapses to
    /// [`OVER_QUOTA_SHARE`], so it is shed first as the node fills.
    pub fn on_arrival(&mut self, now: Time, priority: Priority, over_quota: bool) -> Decision {
        if self.config.rate_limit_rps.is_finite() {
            let elapsed = now.saturating_sub(self.last_refill).as_secs_f64();
            self.tokens =
                (self.tokens + elapsed * self.config.rate_limit_rps).min(self.config.burst as f64);
            self.last_refill = now;
            if self.tokens < 1.0 {
                return Decision::Shed(ShedReason::RateLimit);
            }
        }
        if self.inflight >= self.cap_for(priority, over_quota) {
            return Decision::Shed(ShedReason::Overload);
        }
        if self.config.rate_limit_rps.is_finite() {
            self.tokens -= 1.0;
        }
        self.inflight += 1;
        Decision::Admit
    }

    /// Records a completion (frees one in-flight slot).
    ///
    /// # Panics
    ///
    /// Panics if there is nothing in flight (accounting bug).
    pub fn on_completion(&mut self) {
        assert!(self.inflight > 0, "completion without admission");
        self.inflight -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_config_admits_until_inflight_cap() {
        let mut ac = AdmissionControl::new(AdmissionConfig {
            max_inflight: 3,
            ..AdmissionConfig::default()
        });
        let t = Time::from_us(1);
        assert_eq!(ac.on_arrival(t, Priority::High, false), Decision::Admit);
        assert_eq!(ac.on_arrival(t, Priority::High, false), Decision::Admit);
        assert_eq!(ac.on_arrival(t, Priority::High, false), Decision::Admit);
        assert_eq!(
            ac.on_arrival(t, Priority::High, false),
            Decision::Shed(ShedReason::Overload)
        );
        ac.on_completion();
        assert_eq!(ac.on_arrival(t, Priority::High, false), Decision::Admit);
    }

    #[test]
    fn low_priority_is_shed_first_as_the_node_fills() {
        let mut ac = AdmissionControl::new(AdmissionConfig {
            max_inflight: 10,
            ..AdmissionConfig::default()
        });
        let t = Time::from_us(1);
        // Fill half the node with high-priority work.
        for _ in 0..5 {
            assert_eq!(ac.on_arrival(t, Priority::High, false), Decision::Admit);
        }
        // Low priority sees a 50% cap (5): already at it, shed.
        assert_eq!(
            ac.on_arrival(t, Priority::Low, false),
            Decision::Shed(ShedReason::Overload)
        );
        // Normal (85% -> 8) and High (100% -> 10) still get through.
        assert_eq!(ac.on_arrival(t, Priority::Normal, false), Decision::Admit);
        assert_eq!(ac.on_arrival(t, Priority::High, false), Decision::Admit);
        for _ in 0..3 {
            ac.on_arrival(t, Priority::High, false);
        }
        assert_eq!(ac.inflight(), 10);
        // Saturated: even high priority sheds now.
        assert_eq!(
            ac.on_arrival(t, Priority::High, false),
            Decision::Shed(ShedReason::Overload)
        );
    }

    #[test]
    fn over_quota_tenants_are_clamped_below_low_priority() {
        let mut ac = AdmissionControl::new(AdmissionConfig {
            max_inflight: 10,
            ..AdmissionConfig::default()
        });
        let t = Time::from_us(1);
        // Fill 3 slots (below the over-quota cap of 3.5 -> 3).
        for _ in 0..3 {
            assert_eq!(ac.on_arrival(t, Priority::High, false), Decision::Admit);
        }
        // An over-quota tenant — even at High priority — sees the 35%
        // cap (3): already at it, shed.
        assert_eq!(
            ac.on_arrival(t, Priority::High, true),
            Decision::Shed(ShedReason::Overload)
        );
        // Low priority within quota (50% -> 5) still gets through.
        assert_eq!(ac.on_arrival(t, Priority::Low, false), Decision::Admit);
        // And once load drains, the over-quota tenant admits again.
        for _ in 0..2 {
            ac.on_completion();
        }
        assert_eq!(ac.on_arrival(t, Priority::High, true), Decision::Admit);
    }

    #[test]
    fn per_node_shares_split_the_cluster_budget() {
        let config = AdmissionConfig {
            rate_limit_rps: 8_000.0,
            burst: 64,
            max_inflight: 4096,
            backlog_per_node: 7,
        };
        let ac = AdmissionControl::per_node(config, 8);
        assert_eq!(ac.config().rate_limit_rps, 1_000.0);
        assert_eq!(ac.config().burst, 8);
        assert_eq!(ac.config().max_inflight, 512);
        assert_eq!(ac.config().backlog_per_node, 7);
        // Tiny budgets never round to zero.
        let tiny = AdmissionControl::per_node(
            AdmissionConfig {
                burst: 2,
                max_inflight: 3,
                ..config
            },
            8,
        );
        assert_eq!(tiny.config().burst, 1);
        assert_eq!(tiny.config().max_inflight, 1);
    }

    #[test]
    fn rate_policer_enforces_ceiling() {
        let mut ac = AdmissionControl::new(AdmissionConfig {
            rate_limit_rps: 1000.0,
            burst: 10,
            ..AdmissionConfig::default()
        });
        // 100 arrivals in one millisecond: bucket (10) + refill (~1)
        // admits a handful, the rest shed.
        let mut admitted = 0;
        for i in 0..100u64 {
            let t = Time::from_us(10 * i);
            if ac.on_arrival(t, Priority::Normal, false) == Decision::Admit {
                admitted += 1;
                ac.on_completion();
            }
        }
        assert!((10..=13).contains(&admitted), "admitted {admitted}");
    }

    #[test]
    fn bucket_refills_over_time() {
        let mut ac = AdmissionControl::new(AdmissionConfig {
            rate_limit_rps: 100.0,
            burst: 1,
            ..AdmissionConfig::default()
        });
        assert_eq!(
            ac.on_arrival(Time::ZERO, Priority::Normal, false),
            Decision::Admit
        );
        ac.on_completion();
        assert_eq!(
            ac.on_arrival(Time::from_us(100), Priority::Normal, false),
            Decision::Shed(ShedReason::RateLimit)
        );
        // 10 ms at 100 rps buys one token back.
        assert_eq!(
            ac.on_arrival(Time::from_ms(10), Priority::Normal, false),
            Decision::Admit
        );
    }
}
