#![deny(missing_docs)]

//! # venice-lease: elastic memory-lease management
//!
//! PR 1's load generator provisions remote memory once at setup and holds
//! it for the whole run — the opposite of the resource sharing the Venice
//! paper promises. This crate is the feedback-control layer that fixes
//! that: a deterministic, cluster-wide **lease manager** that sits between
//! a traffic engine and `Cluster::borrow_memory`, watching per-node demand
//! every simulated tick and deciding when each node should *grow* (borrow
//! another chunk of remote memory through the Monitor-Node flow) or
//! *shrink* (release its newest lease back to the donor).
//!
//! Seven mechanisms keep the loop stable, fair, and ahead of demand:
//!
//! * **watermarks** — a node grows only while its queue depth sits at or
//!   above the high watermark, and becomes release-eligible only at or
//!   below the low watermark; the band between them is dead zone, so
//!   demand oscillating inside it causes no lease churn;
//! * **hysteresis** — grows on one node are at least
//!   [`LeaseConfig::grow_cooldown_ticks`] apart, and a release requires
//!   [`LeaseConfig::release_cooldown_ticks`] *consecutive* calm ticks,
//!   keyed **per node** so one node's churn never starves another's
//!   legitimate release. Together these bound the borrow/release rate
//!   per node by construction (a property the test suite pins down);
//! * **prediction** — each node carries an EWMA of its queue-depth
//!   slope; when the depth projected one establish-latency horizon ahead
//!   ([`LeaseConfig::predict_horizon_ticks`]) crosses the high
//!   watermark, the grow fires *early*, so flash crowds pay less of the
//!   Fig 2 provisioning delay;
//! * **donor-side reclaim** — lending nodes watch their own pressure:
//!   a donor whose depth crosses [`LeaseConfig::donor_high_watermark`]
//!   while it has chunks lent out emits [`LeaseAction::Revoke`],
//!   demanding its newest lent chunk back through the caller's real
//!   Monitor–Node teardown path. With
//!   [`LeaseConfig::donor_pressure_weight`] armed the trigger is
//!   **cost-aware**: each [`NodeSignal`] carries the lent fraction of
//!   the donor's pool, and a heavily lent (hence, under the engine's
//!   lent-memory pressure term, visibly degraded) donor reclaims before
//!   its raw queue depth alone would justify it;
//! * **per-tenant quotas** — every confirmed chunk is attributed to a
//!   tenant on a byte ledger ([`LeaseManager::tenant_ledger`]); grows
//!   that would push a tenant past its quota are refused locally
//!   ([`LeaseEventKind::QuotaDenied`]) before any cluster traffic, and
//!   the ledger conserves bytes (per-tenant buckets always sum to
//!   [`LeaseManager::total_bytes`] — a property test pins it);
//! * **the sublease market** — with [`LeaseConfig::sublease_market`]
//!   armed, a grow that would be quota-refused is instead matched
//!   against the finite-quota tenant holding the most idle headroom
//!   ([`LeaseAction::Sublease`] → [`LeaseManager::confirm_sublease`]):
//!   the chunk serves the requester (the *usage* ledger) while the
//!   lessor's quota pays for it (the *charged* ledger,
//!   [`LeaseManager::charged_ledger`]). Returns and revokes repay the
//!   lessor ([`LeaseEventKind::SubleaseReturned`]; a revoked market
//!   chunk stays [`LeaseEventKind::Revoked`] with
//!   [`LeaseEvent::lessor`] naming the repayment), and the same
//!   promised-bytes reservation that stops same-tick grows from
//!   overshooting a quota stops same-tick matches from overshooting a
//!   lessor's headroom;
//! * **priorities** — leases carry the [`Priority`] of the tenant whose
//!   backlog triggered them, and under cluster-wide contention admission
//!   layers shed low-priority tenants first instead of FIFO (the
//!   priority-scaled caps live in the consumer; this crate defines the
//!   ordering and carries the tag through the [`LeaseEvent`] timeline).
//!
//! The manager is **pure**: it never touches a cluster itself. Each tick
//! it is fed per-node [`NodeSignal`]s and emits [`LeaseAction`]s; the
//! caller applies them (borrow/release/revoke) and confirms or denies
//! each one. Every decision lands on a [`venice_sim::Timeline`] of
//! [`LeaseEvent`]s, so same-seed runs can assert bit-identical lease
//! histories at any thread count.
//!
//! Each ledger edge is written once. Every confirm and deny calls one of
//! three private helpers, and each builds the one [`LeaseEvent`] its edge
//! logs: `open_chunk` for [`LeaseManager::confirm_grow`] and
//! [`LeaseManager::confirm_sublease`] (a plain grow is the tenant paying
//! for itself), `close_chunk` for [`LeaseManager::confirm_shrink`],
//! [`LeaseManager::confirm_revoke`] and [`LeaseManager::confirm_failover`],
//! and `refuse` for [`LeaseManager::deny_grow`],
//! [`LeaseManager::deny_revoke`] and the quota refusals a tick logs. The
//! manager keeps no per-kind counters: [`LeaseManager::grows`] through
//! [`LeaseManager::sublease_returns`] count the timeline's events by
//! kind.

pub mod config;
pub mod manager;

pub use config::{LeaseConfig, Priority};
pub use manager::{
    LeaseAction, LeaseEvent, LeaseEventKind, LeaseManager, NodeSignal, NO_NODE, NO_TENANT,
};
pub use venice_sim::Timeline;
