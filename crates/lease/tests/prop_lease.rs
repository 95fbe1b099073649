//! Property tests for the lease manager's headline guarantees:
//! determinism (identical inputs → bit-identical action streams and
//! timelines), hysteresis (the borrow/release rate is bounded by the
//! cooldowns, no matter how adversarial the demand signal), per-node
//! cooldown keying (one node's release never starves another's), and
//! ledger conservation (per-tenant buckets always sum to the cluster
//! total, at every timeline event).

use std::collections::BTreeMap;

use proptest::prelude::*;
use venice_lease::{
    LeaseAction, LeaseConfig, LeaseEvent, LeaseEventKind, LeaseManager, NodeSignal, Priority,
    Timeline, NO_NODE, NO_TENANT,
};
use venice_sim::Time;

/// Deterministic pseudo-demand for node `i` at tick `t`.
fn demand(salt: u64, i: u16, t: u64) -> u32 {
    let x = t
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(salt ^ (i as u64) << 32);
    ((x >> 48) % 24) as u32
}

/// Drives `manager` with a synthetic per-node demand stream derived from
/// `salt`, applying (and confirming) every action. Tenant attribution
/// rotates with the tick so the ledger sees several tenants. Returns the
/// action stream and final timeline length.
fn drive(
    config: LeaseConfig,
    nodes: u16,
    ticks: u64,
    salt: u64,
) -> (Vec<(u64, LeaseAction)>, usize) {
    let mut m = LeaseManager::new(config, nodes);
    let boot = m.bootstrap();
    for a in &boot {
        let LeaseAction::Grow { node, .. } = *a else {
            panic!("bootstrap only grows")
        };
        m.confirm_grow(Time::ZERO, node, NO_TENANT, false, Priority::Normal);
    }
    let mut actions = Vec::new();
    for t in 1..=ticks {
        let now = Time::from_us(t * 100);
        let signals: Vec<NodeSignal> = (0..nodes)
            .map(|i| NodeSignal {
                depth: demand(salt, i, t),
                lent_chunks: 0,
                lent_pressure: 0.0,
                tenant: ((t + i as u64) % 3) as u32,
                priority: Priority::Normal,
            })
            .collect();
        for a in m.tick(now, &signals) {
            actions.push((t, a));
            match a {
                LeaseAction::Grow { node, predictive } => {
                    m.confirm_grow(
                        now,
                        node,
                        signals[node as usize].tenant,
                        predictive,
                        Priority::Normal,
                    );
                }
                LeaseAction::Shrink { node } => {
                    let g = m.newest_generation(node).expect("shrink of an empty node");
                    m.confirm_shrink(now, node, g, Priority::Normal);
                }
                LeaseAction::Revoke { .. } | LeaseAction::Sublease { .. } => {
                    unreachable!("no lent chunks or market signalled")
                }
            }
        }
    }
    (actions, m.timeline().len())
}

proptest! {
    /// Identical configs and demand streams produce bit-identical action
    /// streams; different demand diverges (almost surely, given enough
    /// ticks and spread). Holds with the slope predictor armed: the EWMA
    /// is a pure function of the depth stream.
    #[test]
    fn same_inputs_same_actions(
        salt in 0u64..1_000_000,
        nodes in 1u16..9,
        ticks in 50u64..300,
        horizon in prop_oneof![Just(0u32), 5u32..40],
    ) {
        let config = LeaseConfig {
            predict_horizon_ticks: horizon,
            ..LeaseConfig::default()
        };
        let (a, la) = drive(config, nodes, ticks, salt);
        let (b, lb) = drive(config, nodes, ticks, salt);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(la, lb);
    }

    /// Hysteresis bounds the control rate per node: grows at least
    /// `grow_cooldown_ticks` apart, shrinks at least
    /// `release_cooldown_ticks` apart, and therefore total lease churn is
    /// bounded linearly by tick count over cooldown.
    #[test]
    fn cooldowns_bound_borrow_release_rate(
        salt in 0u64..1_000_000,
        nodes in 1u16..6,
        ticks in 100u64..400,
        grow_cd in 1u32..6,
        release_cd in 2u32..30,
    ) {
        let config = LeaseConfig {
            grow_cooldown_ticks: grow_cd,
            release_cooldown_ticks: release_cd,
            ..LeaseConfig::default()
        };
        let (actions, _) = drive(config, nodes, ticks, salt);
        for node in 0..nodes {
            let grow_ticks: Vec<u64> = actions
                .iter()
                .filter(|(_, a)| matches!(a, LeaseAction::Grow { node: n, .. } if *n == node))
                .map(|(t, _)| *t)
                .collect();
            for w in grow_ticks.windows(2) {
                prop_assert!(
                    w[1] - w[0] >= grow_cd as u64,
                    "node {node}: grows at ticks {} and {} violate cooldown {grow_cd}",
                    w[0],
                    w[1]
                );
            }
            prop_assert!(
                grow_ticks.len() as u64 <= ticks / grow_cd as u64 + 1,
                "node {node}: {} grows over {ticks} ticks exceeds rate bound",
                grow_ticks.len()
            );
            let shrink_ticks: Vec<u64> = actions
                .iter()
                .filter(|(_, a)| matches!(a, LeaseAction::Shrink { node: n } if *n == node))
                .map(|(t, _)| *t)
                .collect();
            for w in shrink_ticks.windows(2) {
                prop_assert!(
                    w[1] - w[0] >= release_cd as u64,
                    "node {node}: shrinks at ticks {} and {} violate cooldown {release_cd}",
                    w[0],
                    w[1]
                );
            }
            prop_assert!(
                shrink_ticks.len() as u64 <= ticks / release_cd as u64 + 1,
                "node {node}: {} shrinks over {ticks} ticks exceeds rate bound",
                shrink_ticks.len()
            );
        }
    }

    /// Regression (ISSUE 3): release cooldowns are keyed **per node** —
    /// N nodes fed identical calm streams all release in the *same*
    /// tick, every `release_cooldown_ticks`. A globally keyed cooldown
    /// would let the first node's shrink push every other node's
    /// release back indefinitely.
    #[test]
    fn release_cooldown_is_per_node(
        nodes in 2u16..9,
        release_cd in 2u32..20,
    ) {
        let config = LeaseConfig {
            release_cooldown_ticks: release_cd,
            min_chunks: 0,
            max_chunks: 2,
            ..LeaseConfig::default()
        };
        let mut m = LeaseManager::new(config, nodes);
        // Two chunks everywhere (bootstrap floor is 0 here).
        for node in 0..nodes {
            for _ in 0..2 {
                m.confirm_grow(Time::ZERO, node, NO_TENANT, false, Priority::Normal);
            }
        }
        // All nodes calm forever: each release round must cover *every*
        // node at once, exactly on the cooldown boundary.
        let mut release_rounds = Vec::new();
        for t in 1..=(2 * release_cd as u64 + 2) {
            let now = Time::from_ms(t);
            let signals: Vec<NodeSignal> =
                (0..nodes).map(|_| NodeSignal::depth(0)).collect();
            let actions = m.tick(now, &signals);
            if !actions.is_empty() {
                prop_assert_eq!(
                    actions.len(),
                    nodes as usize,
                    "tick {}: a partial release round means some node was starved",
                    t
                );
                release_rounds.push(t);
            }
            for a in actions {
                let LeaseAction::Shrink { node } = a else {
                    panic!("calm nodes only shrink")
                };
                let g = m.newest_generation(node).expect("shrink of an empty node");
                m.confirm_shrink(now, node, g, Priority::Normal);
            }
        }
        prop_assert_eq!(
            release_rounds,
            vec![release_cd as u64, 2 * release_cd as u64]
        );
        for node in 0..nodes {
            prop_assert_eq!(m.chunks(node), 0);
        }
    }

    /// Chunk counts always stay inside the configured [min, max] band
    /// when driven from bootstrap, and accounting never goes negative.
    #[test]
    fn chunk_range_is_invariant(
        salt in 0u64..1_000_000,
        nodes in 1u16..6,
        ticks in 50u64..200,
    ) {
        let config = LeaseConfig::default();
        let mut m = LeaseManager::new(config, nodes);
        let boot = m.bootstrap();
        for a in &boot {
            let LeaseAction::Grow { node, .. } = *a else { panic!() };
            m.confirm_grow(Time::ZERO, node, NO_TENANT, false, Priority::High);
        }
        for t in 1..=ticks {
            let now = Time::from_us(t * 100);
            let signals: Vec<NodeSignal> = (0..nodes)
                .map(|i| NodeSignal::depth(((salt ^ t.wrapping_mul(i as u64 + 3)) % 20) as u32))
                .collect();
            for a in m.tick(now, &signals) {
                match a {
                    LeaseAction::Grow { node, predictive } => {
                        m.confirm_grow(now, node, NO_TENANT, predictive, Priority::High);
                    }
                    LeaseAction::Shrink { node } => {
                        let g = m.newest_generation(node).expect("shrink of an empty node");
                        m.confirm_shrink(now, node, g, Priority::High);
                    }
                    LeaseAction::Revoke { .. } | LeaseAction::Sublease { .. } => {
                    unreachable!("no lent chunks or market signalled")
                }
                }
            }
            for node in 0..nodes {
                let c = m.chunks(node);
                prop_assert!(
                    c >= config.min_chunks && c <= config.max_chunks,
                    "node {node}: {c} chunks outside [{}, {}]",
                    config.min_chunks,
                    config.max_chunks
                );
            }
            prop_assert_eq!(
                m.total_bytes(),
                (0..nodes).map(|n| m.held_bytes(n)).sum::<u64>()
            );
            prop_assert!(m.peak_bytes() >= m.total_bytes());
        }
    }

    /// Conservation (ISSUE 3): under adversarial demand with rotating
    /// tenant attribution, quotas, and donor revokes, the per-tenant
    /// ledger buckets (plus the unattributed bootstrap bucket) sum to
    /// the manager's total at **every** timeline event, no tenant ever
    /// exceeds its quota, and no bucket underflows.
    #[test]
    fn quota_ledger_conserves_bytes(
        salt in 0u64..1_000_000,
        nodes in 2u16..6,
        ticks in 50u64..250,
        quota_chunks in 1u64..5,
    ) {
        let config = LeaseConfig {
            donor_high_watermark: 12,
            revoke_cooldown_ticks: 7,
            predict_horizon_ticks: 20,
            ..LeaseConfig::default()
        };
        let tenants = 3u32;
        let quotas: Vec<u64> =
            (0..tenants).map(|_| quota_chunks * config.chunk_bytes).collect();
        let mut m = LeaseManager::with_quotas(config, nodes, quotas.clone());
        for a in &m.bootstrap() {
            let LeaseAction::Grow { node, .. } = *a else { panic!() };
            m.confirm_grow(Time::ZERO, node, NO_TENANT, false, Priority::Normal);
        }
        // Live view of who holds which generation, for revoke plumbing:
        // generation -> recipient, newest last.
        let mut held: Vec<(u64, u16)> = Vec::new();
        for t in 1..=ticks {
            let now = Time::from_us(t * 100);
            let signals: Vec<NodeSignal> = (0..nodes)
                .map(|i| NodeSignal {
                    depth: demand(salt, i, t),
                    // Pretend each node lent whatever is outstanding on
                    // its right neighbor (enough to exercise revokes —
                    // the manager only checks lent_chunks > 0).
                    lent_chunks: (demand(salt, i, t * 31) % 3).min(held.len() as u32),
                    lent_pressure: 0.0,
                    tenant: ((t + i as u64) % tenants as u64) as u32,
                    priority: Priority::Normal,
                })
                .collect();
            for a in m.tick(now, &signals) {
                match a {
                    LeaseAction::Grow { node, predictive } => {
                        let tenant = signals[node as usize].tenant;
                        let g = m.confirm_grow(now, node, tenant, predictive, Priority::Normal);
                        held.push((g, node));
                    }
                    LeaseAction::Shrink { node } => {
                        // Release the node's newest chunk, named by
                        // generation (the engine's protocol).
                        let g = m.newest_generation(node).expect("shrink of an empty node");
                        m.confirm_shrink(now, node, g, Priority::Normal);
                        if let Some(idx) = held.iter().position(|&(gen, _)| gen == g) {
                            held.remove(idx);
                        }
                    }
                    LeaseAction::Revoke { donor } => {
                        // Donor LIFO preference: the newest outstanding
                        // chunk anywhere stands in for "the donor's
                        // newest lent chunk" in this synthetic harness.
                        if let Some((g, recipient)) = held.pop() {
                            m.confirm_revoke(now, donor, recipient, g, Priority::Normal);
                        }
                    }
                    LeaseAction::Sublease { .. } => {
                        unreachable!("market disarmed in this config")
                    }
                }
            }
            // Quota is never exceeded.
            for tenant in 0..tenants {
                prop_assert!(
                    m.tenant_bytes(tenant) <= quotas[tenant as usize],
                    "tenant {tenant} over quota: {} > {}",
                    m.tenant_bytes(tenant),
                    quotas[tenant as usize]
                );
            }
        }
        // Conservation at every event, replayed from the timeline alone.
        let mut ledger: BTreeMap<u32, u64> = BTreeMap::new();
        for (at, e) in m.timeline().iter() {
            prop_assert_eq!(*at, e.at);
            ledger.insert(e.tenant, e.tenant_bytes_after);
            let sum: u64 = ledger.values().sum();
            prop_assert_eq!(
                sum,
                e.total_bytes_after,
                "ledger sum diverged at {:?}",
                e
            );
        }
        // And the final live state agrees with the last event.
        let live: u64 =
            (0..tenants).map(|t| m.tenant_bytes(t)).sum::<u64>() + m.unattributed_bytes();
        prop_assert_eq!(live, m.total_bytes());
    }
}

proptest! {
    /// Sublease-market conservation (ISSUE 5): with the market armed
    /// under adversarial demand, rotating tenants, tight quotas, and
    /// donor revokes —
    ///
    /// * the *usage* ledger still conserves bytes at every event
    ///   (per-tenant buckets sum to the running total);
    /// * the *charged* ledger, replayed from `(kind, tenant, lessor)`
    ///   on the timeline alone, matches the live ledger and never
    ///   exceeds any tenant's quota at any event;
    /// * subleased bytes tracked by the manager equal the
    ///   subleases-minus-returns visible on the timeline.
    #[test]
    fn sublease_market_conserves_and_respects_quotas(
        salt in 0u64..1_000_000,
        nodes in 2u16..6,
        ticks in 50u64..250,
        quota_chunks in 1u64..4,
        lessor_chunks in 2u64..8,
    ) {
        let config = LeaseConfig {
            donor_high_watermark: 12,
            revoke_cooldown_ticks: 7,
            predict_horizon_ticks: 20,
            sublease_market: true,
            ..LeaseConfig::default()
        };
        // Tenants 0..2 rotate through the demand stream with tight
        // quotas; tenant 3 never drives demand and holds the big idle
        // headroom the market can sublease.
        let tenants = 3u32;
        let mut quotas: Vec<u64> =
            (0..tenants).map(|_| quota_chunks * config.chunk_bytes).collect();
        quotas.push(lessor_chunks * config.chunk_bytes);
        let mut m = LeaseManager::with_quotas(config, nodes, quotas.clone());
        for a in &m.bootstrap() {
            let LeaseAction::Grow { node, .. } = *a else { panic!() };
            m.confirm_grow(Time::ZERO, node, NO_TENANT, false, Priority::Normal);
        }
        let mut held: Vec<(u64, u16)> = Vec::new();
        for t in 1..=ticks {
            let now = Time::from_us(t * 100);
            let signals: Vec<NodeSignal> = (0..nodes)
                .map(|i| NodeSignal {
                    depth: demand(salt, i, t),
                    lent_chunks: (demand(salt, i, t * 31) % 3).min(held.len() as u32),
                    lent_pressure: (demand(salt, i, t * 17) % 5) as f64 / 4.0,
                    tenant: ((t + i as u64) % tenants as u64) as u32,
                    priority: Priority::Normal,
                })
                .collect();
            for a in m.tick(now, &signals) {
                match a {
                    LeaseAction::Grow { node, predictive } => {
                        let tenant = signals[node as usize].tenant;
                        let g = m.confirm_grow(now, node, tenant, predictive, Priority::Normal);
                        held.push((g, node));
                    }
                    LeaseAction::Sublease { node, lessor } => {
                        let tenant = signals[node as usize].tenant;
                        prop_assert_ne!(lessor, tenant, "self-sublease matched");
                        let g = m.confirm_sublease(now, node, tenant, lessor, Priority::Normal);
                        held.push((g, node));
                    }
                    LeaseAction::Shrink { node } => {
                        let g = m.newest_generation(node).expect("shrink of an empty node");
                        m.confirm_shrink(now, node, g, Priority::Normal);
                        if let Some(idx) = held.iter().position(|&(gen, _)| gen == g) {
                            held.remove(idx);
                        }
                    }
                    LeaseAction::Revoke { donor } => {
                        if let Some((g, recipient)) = held.pop() {
                            m.confirm_revoke(now, donor, recipient, g, Priority::Normal);
                        }
                    }
                }
            }
            // The charged ledger never exceeds any quota, live.
            for tenant in 0..quotas.len() as u32 {
                prop_assert!(
                    m.charged_bytes_of(tenant) <= quotas[tenant as usize],
                    "tenant {tenant} charged over quota: {} > {}",
                    m.charged_bytes_of(tenant),
                    quotas[tenant as usize]
                );
            }
        }
        // Usage-ledger conservation at every event, from the timeline.
        let mut ledger: BTreeMap<u32, u64> = BTreeMap::new();
        for (_, e) in m.timeline().iter() {
            ledger.insert(e.tenant, e.tenant_bytes_after);
            let sum: u64 = ledger.values().sum();
            prop_assert_eq!(sum, e.total_bytes_after, "usage ledger diverged at {:?}", e);
        }
        // Charged-ledger replay from (kind, tenant, lessor) alone:
        // every intermediate state respects the quotas, and the final
        // state matches the live ledger — including the subleased-bytes
        // balance.
        let chunk = config.chunk_bytes;
        let mut charged: BTreeMap<u32, u64> = BTreeMap::new();
        let mut subleased: u64 = 0;
        for (_, e) in m.timeline().iter() {
            match e.kind {
                LeaseEventKind::Grew | LeaseEventKind::GrewPredictive => {
                    if e.tenant != NO_TENANT {
                        *charged.entry(e.tenant).or_default() += chunk;
                    }
                }
                LeaseEventKind::Subleased => {
                    prop_assert_ne!(e.lessor, NO_TENANT, "sublease without a lessor: {:?}", e);
                    *charged.entry(e.lessor).or_default() += chunk;
                    subleased += chunk;
                }
                LeaseEventKind::Shrank => {
                    if e.tenant != NO_TENANT {
                        *charged.entry(e.tenant).or_default() -= chunk;
                    }
                }
                LeaseEventKind::SubleaseReturned => {
                    *charged.entry(e.lessor).or_default() -= chunk;
                    subleased -= chunk;
                }
                LeaseEventKind::Revoked | LeaseEventKind::FailedOver => {
                    let payer = if e.lessor != NO_TENANT {
                        subleased -= chunk;
                        e.lessor
                    } else {
                        e.tenant
                    };
                    if payer != NO_TENANT {
                        *charged.entry(payer).or_default() -= chunk;
                    }
                }
                LeaseEventKind::Denied
                | LeaseEventKind::QuotaDenied
                | LeaseEventKind::RevokeDenied => {}
            }
            for (&tenant, &bytes) in &charged {
                prop_assert!(
                    bytes <= quotas[tenant as usize],
                    "replayed charge for tenant {tenant} over quota at {:?}",
                    e
                );
            }
        }
        for tenant in 0..quotas.len() as u32 {
            prop_assert_eq!(
                charged.get(&tenant).copied().unwrap_or(0),
                m.charged_bytes_of(tenant),
                "replayed charged ledger diverged for tenant {}",
                tenant
            );
        }
        prop_assert_eq!(subleased, m.subleased_bytes());
        prop_assert_eq!(m.subleases() - m.sublease_returns(), subleased / chunk);
    }
}

/// Timeline events of the kinds `pick` selects.
fn count(m: &LeaseManager, pick: impl Fn(&LeaseEvent) -> bool) -> u64 {
    m.timeline().iter().filter(|(_, e)| pick(e)).count() as u64
}

/// Tenant attribution drawn from a step word: three quota'd tenants
/// and the unattributed bucket.
fn tenant_of(word: u64) -> u32 {
    [0, 1, 2, NO_TENANT][(word % 4) as usize]
}

proptest! {
    /// Every ledger edge, driven directly in random order: grows
    /// (reactive and predictive, attributed or not), market subleases,
    /// shrinks, revokes and failovers of any held chunk, cluster
    /// denials, surrendered revokes, and ticks whose over-quota grows
    /// are refused. After every step the ten counter getters equal the
    /// timeline's events counted by kind — `grows` with predictive
    /// grows, `shrinks` with sublease returns, `sublease_returns` as
    /// every close of a market chunk — and each new event carries the
    /// donor and lessor its kind promises: a donor on revokes, failovers
    /// and surrendered revokes only, a lessor on market opens and closes
    /// only.
    #[test]
    fn counters_and_event_fields_follow_the_timeline(
        steps in prop::collection::vec((0u8..8, any::<u64>()), 1..160),
    ) {
        const NODES: u16 = 4;
        let config = LeaseConfig {
            min_chunks: 0,
            max_chunks: 64,
            grow_cooldown_ticks: 1,
            ..LeaseConfig::default()
        };
        let chunk = config.chunk_bytes;
        let mut m = LeaseManager::with_quotas(config, NODES, vec![chunk, 2 * chunk, u64::MAX]);
        // Held chunks: (generation, node, tenant, lessor when market).
        let mut held: Vec<(u64, u16, u32, u32)> = Vec::new();
        for (step, &(op, word)) in steps.iter().enumerate() {
            let now = Time::from_us(step as u64);
            let node = (word % NODES as u64) as u16;
            let tenant = tenant_of(word >> 8);
            let other = ((word >> 24) % NODES as u64) as u16;
            let before = m.timeline().len();
            // The one event the step must log: (kind, node, donor,
            // tenant, lessor); `None` for a skipped close or a tick.
            let expect = match op {
                0 => {
                    let predictive = (word >> 16) & 1 == 1;
                    let g = m.confirm_grow(now, node, tenant, predictive, Priority::Normal);
                    held.push((g, node, tenant, NO_TENANT));
                    let kind = if predictive {
                        LeaseEventKind::GrewPredictive
                    } else {
                        LeaseEventKind::Grew
                    };
                    Some((kind, node, NO_NODE, tenant, NO_TENANT))
                }
                1 => {
                    let mut lessor = ((word >> 16) % 3) as u32;
                    if lessor == tenant {
                        lessor = (lessor + 1) % 3;
                    }
                    let g = m.confirm_sublease(now, node, tenant, lessor, Priority::Normal);
                    held.push((g, node, tenant, lessor));
                    Some((LeaseEventKind::Subleased, node, NO_NODE, tenant, lessor))
                }
                2..=4 if !held.is_empty() => {
                    let (g, holder, user, lessor) = held.remove((word >> 32) as usize % held.len());
                    let kind = match op {
                        2 => {
                            m.confirm_shrink(now, holder, g, Priority::Normal);
                            if lessor == NO_TENANT {
                                LeaseEventKind::Shrank
                            } else {
                                LeaseEventKind::SubleaseReturned
                            }
                        }
                        3 => {
                            m.confirm_revoke(now, other, holder, g, Priority::Normal);
                            LeaseEventKind::Revoked
                        }
                        _ => {
                            m.confirm_failover(now, other, holder, g, Priority::Normal);
                            LeaseEventKind::FailedOver
                        }
                    };
                    let donor = if op == 2 { NO_NODE } else { other };
                    prop_assert_eq!(m.timeline().last().unwrap().1.generation, g);
                    Some((kind, holder, donor, user, lessor))
                }
                2..=4 => None,
                5 => {
                    m.deny_grow(now, node, tenant, Priority::Normal);
                    Some((LeaseEventKind::Denied, node, NO_NODE, tenant, NO_TENANT))
                }
                6 => {
                    m.deny_revoke(now, node, Priority::Normal);
                    Some((LeaseEventKind::RevokeDenied, node, node, NO_TENANT, NO_TENANT))
                }
                _ => {
                    // Pressure on every node, each driven by a drawn
                    // tenant: over-quota grows are refused on the
                    // timeline; the actions themselves stay unapplied.
                    let signals: Vec<NodeSignal> = (0..NODES)
                        .map(|i| NodeSignal {
                            depth: config.high_watermark,
                            tenant: tenant_of(word >> (8 * i)),
                            ..NodeSignal::depth(0)
                        })
                        .collect();
                    m.tick(now, &signals);
                    for (_, e) in &m.timeline().events()[before..] {
                        prop_assert_eq!(e.kind, LeaseEventKind::QuotaDenied);
                        prop_assert_eq!(e.donor, NO_NODE);
                        prop_assert_eq!(e.lessor, NO_TENANT);
                        prop_assert_eq!(e.tenant, signals[e.node as usize].tenant);
                    }
                    None
                }
            };
            if let Some((kind, node, donor, tenant, lessor)) = expect {
                prop_assert_eq!(m.timeline().len(), before + 1);
                let e = m.timeline().last().unwrap().1;
                prop_assert_eq!(
                    (e.kind, e.node, e.donor, e.tenant, e.lessor),
                    (kind, node, donor, tenant, lessor),
                    "step {} ({}, {:#x})",
                    step,
                    op,
                    word
                );
            } else if op != 7 {
                prop_assert_eq!(m.timeline().len(), before);
            }
            use LeaseEventKind::*;
            let kinds = |ks: &[LeaseEventKind]| count(&m, |e| ks.contains(&e.kind));
            prop_assert_eq!(m.grows(), kinds(&[Grew, GrewPredictive]));
            prop_assert_eq!(m.predictive_grows(), kinds(&[GrewPredictive]));
            prop_assert_eq!(m.shrinks(), kinds(&[Shrank, SubleaseReturned]));
            prop_assert_eq!(m.revokes(), kinds(&[Revoked]));
            prop_assert_eq!(m.failovers(), kinds(&[FailedOver]));
            prop_assert_eq!(m.revoke_denials(), kinds(&[RevokeDenied]));
            prop_assert_eq!(m.denials(), kinds(&[Denied]));
            prop_assert_eq!(m.quota_denials(), kinds(&[QuotaDenied]));
            prop_assert_eq!(m.subleases(), kinds(&[Subleased]));
            prop_assert_eq!(
                m.sublease_returns(),
                count(&m, |e| e.kind.closes_chunk() && e.lessor != NO_TENANT)
            );
            for n in 0..NODES {
                let live = held.iter().filter(|c| c.1 == n).count() as u32;
                prop_assert_eq!(m.chunks(n), live);
            }
        }
    }
}

/// The timeline type itself round-trips through the lease crate's
/// re-export (compile-time check that the API surface stays public).
#[test]
fn timeline_reexport_is_usable() {
    let mut t: Timeline<u32> = Timeline::new();
    t.record(Time::from_us(1), 7);
    assert_eq!(t.len(), 1);
}
