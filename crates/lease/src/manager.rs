//! The elastic lease manager: a pure, deterministic feedback controller.
//!
//! [`LeaseManager`] never touches a cluster. Each tick the caller feeds it
//! one [`NodeSignal`] per node (queue depth, lent-chunk count, dominant
//! tenant); it answers with at most one grow/shrink plus one revoke per
//! node, honoring watermarks, per-node cooldowns, per-tenant quotas, and
//! the chunk range. The caller applies each action against the real
//! borrow/release/revoke flow and reports back via
//! [`LeaseManager::confirm_grow`] / [`LeaseManager::deny_grow`] /
//! [`LeaseManager::confirm_shrink`] / [`LeaseManager::confirm_revoke`],
//! which is when capacity accounting and the event timeline advance.
//! Keeping decision and application separate makes the control loop
//! testable in isolation and keeps every decision on one auditable
//! timeline.
//!
//! Three decision families run per tick:
//!
//! * **grow** — reactive (depth at/above the high watermark) or
//!   *predictive*: an EWMA of the depth slope projects the depth one
//!   establish-latency horizon ahead, and a grow fires early when the
//!   projection crosses the watermark, so the borrowed capacity lands
//!   closer to when the pressure actually peaks;
//! * **shrink** — after `release_cooldown_ticks` *consecutive* calm
//!   ticks, keyed per node (one node's calm streak or release never
//!   starves another's);
//! * **revoke** — a *donor* whose own depth crosses
//!   [`LeaseConfig::donor_high_watermark`] while it has chunks lent out
//!   demands the newest one back.
//!
//! Every confirmed action is attributed to a tenant and lands on a
//! per-tenant byte ledger; grows that would push a tenant past its quota
//! are refused locally ([`LeaseEventKind::QuotaDenied`]) before touching
//! the cluster.

use serde::{Deserialize, Serialize};
use venice_sim::{Time, Timeline};

use crate::config::{LeaseConfig, Priority};

/// Sentinel tenant id: "no tenant attributed" (bootstrap grows, idle
/// nodes). Ledger bytes confirmed under this id land in the
/// *unattributed* bucket, so conservation still holds.
pub const NO_TENANT: u32 = u32::MAX;

/// Sentinel node id carried by [`LeaseEvent::donor`] on every event kind
/// except [`LeaseEventKind::Revoked`], [`LeaseEventKind::FailedOver`] and
/// [`LeaseEventKind::RevokeDenied`].
pub const NO_NODE: u16 = u16::MAX;

/// One node's demand/pressure observation for a control tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSignal {
    /// Queued plus in-service requests on the node.
    pub depth: u32,
    /// Chunks this node has lent to *other* nodes (the donor-side
    /// pressure signal's memory half; the cluster ledger is the source
    /// of truth).
    pub lent_chunks: u32,
    /// Fraction of the node's lendable pool currently consumed by
    /// outstanding grants, in `[0, 1]` — the donor-benefit signal. At
    /// [`LeaseConfig::donor_pressure_weight`] `> 0` the revoke trigger
    /// adds `weight * lent_pressure` depth-equivalents, so a donor whose
    /// own service path is degraded by lending reclaims earlier than a
    /// barely lent one at the same queue depth. Ignored (any value) when
    /// the weight is `0.0`.
    pub lent_pressure: f64,
    /// Tenant currently dominating the node's backlog ([`NO_TENANT`]
    /// when idle); grows are attributed — and quota-checked — against it.
    pub tenant: u32,
    /// Priority of that tenant (used for event attribution).
    pub priority: Priority,
}

impl NodeSignal {
    /// A pure-demand signal: `depth` queued, nothing lent, no tenant
    /// attribution (tests and single-tenant callers).
    pub fn depth(depth: u32) -> Self {
        NodeSignal {
            depth,
            lent_chunks: 0,
            lent_pressure: 0.0,
            tenant: NO_TENANT,
            priority: Priority::Normal,
        }
    }
}

/// What the manager wants done to one node's remote tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseAction {
    /// Borrow one more chunk for `node`.
    Grow {
        /// The node that should borrow.
        node: u16,
        /// Whether the slope predictor fired this grow before the high
        /// watermark tripped.
        predictive: bool,
    },
    /// Release `node`'s newest chunk.
    Shrink {
        /// The node that should release.
        node: u16,
    },
    /// `donor` demands its newest lent chunk back from whichever node
    /// holds it (recipient-side LIFO preference).
    Revoke {
        /// The pressured lending node.
        donor: u16,
    },
    /// Borrow one more chunk for `node` on the sublease market: the
    /// requesting tenant sat at its own quota, so the chunk is charged
    /// against `lessor`'s idle headroom instead. Applied like a grow
    /// (same borrow flow), confirmed via
    /// [`LeaseManager::confirm_sublease`].
    Sublease {
        /// The node that should borrow.
        node: u16,
        /// Tenant whose idle quota headroom pays for the chunk.
        lessor: u32,
    },
}

/// What happened to a lease decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LeaseEventKind {
    /// A chunk was borrowed (reactive trigger).
    Grew,
    /// A chunk was borrowed on the slope predictor's say-so, before the
    /// high watermark tripped.
    GrewPredictive,
    /// A grow was refused by the cluster (no donor capacity).
    Denied,
    /// A grow was refused locally: it would have pushed the attributed
    /// tenant past its byte quota.
    QuotaDenied,
    /// A chunk was released by its calm recipient.
    Shrank,
    /// A chunk was pulled back early by its pressured donor.
    Revoked,
    /// A donor's revoke demand found nothing reclaimable (every lent
    /// grant still mid-establish on its recipient); the revoke cooldown
    /// was still charged.
    RevokeDenied,
    /// A chunk was borrowed on the sublease market: the driving tenant
    /// was at its own quota, so the bytes are charged against the
    /// [`LeaseEvent::lessor`]'s idle headroom instead of refused.
    Subleased,
    /// A subleased chunk was released by its calm recipient; the
    /// lessor's quota headroom is repaid. (A *revoked* or *failed-over*
    /// subleased chunk stays [`LeaseEventKind::Revoked`] /
    /// [`LeaseEventKind::FailedOver`] — the `lessor` field on the event
    /// marks the repayment.)
    SubleaseReturned,
    /// A chunk was lost to a node crash (its donor — or the holding
    /// recipient itself — died): the ledgers unwound without a teardown
    /// handshake, and the manager is free to re-establish elsewhere.
    /// Market chunks repay their lessor exactly as a revoke would.
    FailedOver,
}

impl LeaseEventKind {
    /// Whether this event added a borrowed chunk to its node — the
    /// open edge of a lease lifecycle (telemetry span tracing and
    /// churn accounting key off this classification).
    pub fn opens_chunk(self) -> bool {
        matches!(
            self,
            LeaseEventKind::Grew | LeaseEventKind::GrewPredictive | LeaseEventKind::Subleased
        )
    }

    /// Whether this event removed a borrowed chunk from its node — the
    /// close edge of a lease lifecycle.
    pub fn closes_chunk(self) -> bool {
        matches!(
            self,
            LeaseEventKind::Shrank
                | LeaseEventKind::Revoked
                | LeaseEventKind::SubleaseReturned
                | LeaseEventKind::FailedOver
        )
    }

    /// Whether this event refused a request and left every ledger
    /// unchanged (chunk counts, byte totals, and quota all hold).
    pub fn is_denial(self) -> bool {
        matches!(
            self,
            LeaseEventKind::Denied | LeaseEventKind::QuotaDenied | LeaseEventKind::RevokeDenied
        )
    }
}

/// One entry on the lease timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LeaseEvent {
    /// Simulated time of the decision's application.
    pub at: Time,
    /// The node whose chunk count changed (the recipient, for revokes).
    pub node: u16,
    /// The lending node behind a close or a refused reclaim: the donor
    /// that demanded the chunk back ([`LeaseEventKind::Revoked`]), the
    /// lease's donor when a crash lost it ([`LeaseEventKind::FailedOver`]),
    /// or the donor whose demand found nothing reclaimable
    /// ([`LeaseEventKind::RevokeDenied`], equal to `node`). [`NO_NODE`]
    /// on every other kind.
    pub donor: u16,
    /// What happened.
    pub kind: LeaseEventKind,
    /// Chunks the node holds after the event.
    pub chunks_after: u32,
    /// Lease generation: a fresh monotonic id for grows, the affected
    /// lease's id for shrinks and revokes, 0 for denials.
    pub generation: u64,
    /// Cluster-wide borrowed bytes after the event.
    pub total_bytes_after: u64,
    /// Tenant the event is attributed to ([`NO_TENANT`] for
    /// unattributed bootstrap capacity).
    pub tenant: u32,
    /// That tenant's ledger bytes after the event (the unattributed
    /// bucket's, when `tenant` is [`NO_TENANT`]) — summing the latest
    /// value per tenant at any prefix of the timeline reproduces
    /// `total_bytes_after`, the conservation law the property tests pin.
    pub tenant_bytes_after: u64,
    /// Tenant whose *quota* the affected chunk is charged against when
    /// that differs from `tenant` — i.e. the chunk was matched on the
    /// sublease market ([`LeaseEventKind::Subleased`], and the return
    /// half on [`LeaseEventKind::SubleaseReturned`] /
    /// [`LeaseEventKind::Revoked`] / [`LeaseEventKind::FailedOver`]).
    /// [`NO_TENANT`] on every self-charged event. Replaying `(kind,
    /// tenant, lessor)` over the timeline reconstructs the per-tenant
    /// *charged* ledger, which the quota property test pins against the
    /// quotas at every event.
    pub lessor: u32,
    /// Priority of the tenant whose backlog drove the decision.
    pub priority: Priority,
}

/// One confirmed chunk on a node's stack: which grow created it, who
/// uses it, and whose quota pays for it (`lessor == tenant` except for
/// market-matched subleases).
#[derive(Debug, Clone, Copy)]
struct Chunk {
    generation: u64,
    tenant: u32,
    lessor: u32,
}

/// Per-node controller state.
#[derive(Debug, Clone)]
struct NodeState {
    /// Confirmed chunks held, oldest first.
    chunks: Vec<Chunk>,
    /// Tick of the last grow decision (confirmed, denied, or
    /// quota-refused).
    last_grow_tick: Option<u64>,
    /// Tick of the last revoke decision by this node as a donor.
    last_revoke_tick: Option<u64>,
    /// Consecutive calm ticks observed.
    calm_ticks: u32,
    /// Depth observed last tick (slope input). Starts at 0: the manager
    /// is created at cluster bootstrap, before traffic, so the first
    /// tick's slope measures a *genuine* ramp from idle — which is
    /// exactly the burst-onset signal the predictor exists to catch.
    prev_depth: u32,
    /// EWMA of the per-tick depth delta.
    slope: f64,
    /// Whether any signal ever reported this node lending (a positive
    /// `lent_chunks`) — the donor-benefit figures evaluate donor-side
    /// latency over exactly this set.
    lent_seen: bool,
}

impl NodeState {
    fn new() -> Self {
        NodeState {
            chunks: Vec::new(),
            last_grow_tick: None,
            last_revoke_tick: None,
            calm_ticks: 0,
            prev_depth: 0,
            slope: 0.0,
            lent_seen: false,
        }
    }
}

/// The cluster-wide elastic lease manager.
///
/// # Example: a minimal grow/shrink loop
///
/// One node, driven by hand: pressure above the high watermark grows
/// the remote tier (the caller applies the borrow and *confirms*);
/// sustained calm below the low watermark releases back to the floor.
///
/// ```
/// use venice_lease::{LeaseAction, LeaseConfig, LeaseManager, NodeSignal, Priority, NO_TENANT};
/// use venice_sim::Time;
///
/// let config = LeaseConfig {
///     min_chunks: 0,
///     max_chunks: 4,
///     high_watermark: 8,
///     low_watermark: 2,
///     release_cooldown_ticks: 3,
///     ..LeaseConfig::default()
/// };
/// let mut m = LeaseManager::new(config, 1);
///
/// // Tick 1: depth 12 is above the high watermark — the manager asks
/// // for one chunk. The caller borrows through its cluster and confirms.
/// let actions = m.tick(Time::from_ms(1), &[NodeSignal::depth(12)]);
/// assert_eq!(actions, vec![LeaseAction::Grow { node: 0, predictive: false }]);
/// let generation = m.confirm_grow(Time::from_ms(1), 0, NO_TENANT, false, Priority::Normal);
/// assert_eq!(m.chunks(0), 1);
///
/// // Three consecutive calm ticks (depth 0 at/below the low watermark)
/// // satisfy the release cooldown: the manager asks for a shrink, and
/// // the caller releases the lease it is actually holding, by name.
/// let mut shrink = None;
/// for t in 2..=4u64 {
///     for action in m.tick(Time::from_ms(t), &[NodeSignal::depth(0)]) {
///         shrink = Some((t, action));
///     }
/// }
/// assert_eq!(shrink, Some((4, LeaseAction::Shrink { node: 0 })));
/// assert_eq!(m.newest_generation(0), Some(generation));
/// m.confirm_shrink(Time::from_ms(4), 0, generation, Priority::Normal);
/// assert_eq!(m.chunks(0), 0);
/// assert_eq!(m.total_bytes(), 0);
/// // Every decision is on the auditable timeline: grow then shrink.
/// assert_eq!(m.timeline().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct LeaseManager {
    config: LeaseConfig,
    nodes: Vec<NodeState>,
    /// Byte quota per tenant (empty: no quota enforcement).
    quotas: Vec<u64>,
    /// Confirmed bytes per tenant — the *usage* ledger: bytes whose
    /// chunks serve this tenant's backlog, subleased-in ones included
    /// (grown on demand as tenants appear).
    tenant_bytes: Vec<u64>,
    /// Bytes *charged against* each tenant's quota: own chunks plus
    /// chunks subleased out to other tenants. Identical to
    /// `tenant_bytes` until the sublease market moves them apart; the
    /// quota check always reads this ledger.
    charged_bytes: Vec<u64>,
    /// Confirmed bytes not attributed to any tenant (bootstrap floor).
    unattributed_bytes: u64,
    /// Bytes currently held under a sublease (chunks whose lessor is
    /// not their tenant) — mirrors the cluster's sublease annotations.
    subleased_bytes: u64,
    tick: u64,
    generation: u64,
    total_bytes: u64,
    peak_bytes: u64,
    /// Time-weighted byte integral for mean-provisioning accounting.
    byte_ps_integral: u128,
    last_change_at: Time,
    timeline: Timeline<LeaseEvent>,
}

impl LeaseManager {
    /// Creates a manager for `nodes` nodes with no tenant quotas, all
    /// starting at zero chunks (apply [`LeaseManager::bootstrap`] to
    /// reach the configured floor).
    ///
    /// # Panics
    ///
    /// Panics if `config` is inconsistent (see [`LeaseConfig::validate`]).
    pub fn new(config: LeaseConfig, nodes: u16) -> Self {
        Self::with_quotas(config, nodes, Vec::new())
    }

    /// As [`LeaseManager::new`], with a byte quota per tenant index
    /// (`u64::MAX` entries are effectively unlimited). Grows attributed
    /// to a tenant whose ledger would exceed its quota are refused
    /// locally and recorded as [`LeaseEventKind::QuotaDenied`].
    ///
    /// # Panics
    ///
    /// Panics if `config` is inconsistent (see [`LeaseConfig::validate`]).
    pub fn with_quotas(config: LeaseConfig, nodes: u16, quotas: Vec<u64>) -> Self {
        config.validate();
        LeaseManager {
            config,
            nodes: vec![NodeState::new(); nodes as usize],
            tenant_bytes: vec![0; quotas.len()],
            charged_bytes: vec![0; quotas.len()],
            quotas,
            unattributed_bytes: 0,
            subleased_bytes: 0,
            tick: 0,
            generation: 0,
            total_bytes: 0,
            peak_bytes: 0,
            byte_ps_integral: 0,
            last_change_at: Time::ZERO,
            timeline: Timeline::new(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &LeaseConfig {
        &self.config
    }

    /// Grow actions that bring every node to the `min_chunks` floor;
    /// apply (and confirm) before the run starts.
    pub fn bootstrap(&self) -> Vec<LeaseAction> {
        let mut out = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            for _ in n.chunks.len() as u32..self.config.min_chunks {
                out.push(LeaseAction::Grow {
                    node: i as u16,
                    predictive: false,
                });
            }
        }
        out
    }

    /// One control-loop step at simulated time `now`: `signals[i]` is
    /// node `i`'s current observation. Returns at most one grow-or-shrink
    /// action plus one revoke per node.
    ///
    /// The slope predictor treats the instant before the first tick as
    /// **idle** (depth 0 on every node): the manager is built at cluster
    /// bootstrap, so the first tick's rise from zero is a genuine
    /// burst-onset signal, not an artifact. A caller attaching a fresh
    /// manager to an *already-loaded* system mid-run should feed one
    /// warm-up tick and discard its actions, or the first observation
    /// reads as a full-depth ramp.
    ///
    /// # Panics
    ///
    /// Panics if `signals` does not cover every node.
    pub fn tick(&mut self, now: Time, signals: &[NodeSignal]) -> Vec<LeaseAction> {
        assert_eq!(signals.len(), self.nodes.len(), "one signal per node");
        self.tick += 1;
        let tick = self.tick;
        let mut actions = Vec::new();
        let mut quota_refusals = Vec::new();
        // Bytes already promised against each tenant's *quota* by this
        // tick's earlier grow/sublease actions: the quota check must
        // count them, or several nodes growing for one tenant in the
        // same tick would each pass against the stale pre-tick ledger
        // and jointly overshoot the quota. Keyed by the tenant whose
        // quota pays — the lessor, for market matches — so concurrent
        // sublease matches cannot jointly overshoot a lessor's headroom
        // either.
        let mut promised: Vec<(u32, u64)> = Vec::new();
        for (i, sig) in signals.iter().enumerate() {
            let config = self.config;
            let node = &mut self.nodes[i];
            // Slope first, so the predictor sees this tick's movement.
            let observed = sig.depth as f64 - node.prev_depth as f64;
            node.slope = config.slope_alpha * observed + (1.0 - config.slope_alpha) * node.slope;
            node.prev_depth = sig.depth;

            if sig.lent_chunks > 0 {
                node.lent_seen = true;
            }

            let reactive = sig.depth >= config.high_watermark;
            // Predict only from the *upper half* of the hysteresis band
            // on a rising trend: the predictor's job is to skip the last
            // stretch of an already-demonstrated climb, not to grow
            // half-idle nodes whose burst-time noise briefly slopes
            // upward — that would fan capacity out to every node at each
            // burst onset and starve the genuinely hot ones (measured:
            // it doubles peak provisioning and adds cluster denials).
            let midpoint = (config.low_watermark + config.high_watermark) / 2;
            let predicted = !reactive
                && config.predict_horizon_ticks > 0
                && sig.depth > midpoint
                && node.slope > 0.0
                && sig.depth as f64 + node.slope * config.predict_horizon_ticks as f64
                    >= config.high_watermark as f64;
            // A donor revoke may have pulled the node below its floor —
            // the floor is the controller's to maintain (bootstrap only
            // establishes it), so an under-floor node re-grows on any
            // demand signal, watermarks notwithstanding.
            let under_floor = (node.chunks.len() as u32) < config.min_chunks;
            if reactive || predicted || under_floor {
                node.calm_ticks = 0;
                let cooled = match node.last_grow_tick {
                    None => true,
                    Some(last) => tick - last >= config.grow_cooldown_ticks as u64,
                };
                if (node.chunks.len() as u32) < config.max_chunks && cooled {
                    // Cooldown starts at the decision, not the outcome, so
                    // a denied (or quota-refused) grow also backs off
                    // instead of hammering every tick.
                    node.last_grow_tick = Some(tick);
                    if self.quota_blocks_with(sig.tenant, promised_to(&promised, sig.tenant)) {
                        // Over own quota: match against another tenant's
                        // idle headroom (market armed), else refuse.
                        let lessor = if config.sublease_market {
                            self.match_lessor(sig.tenant, &promised)
                        } else {
                            None
                        };
                        match lessor {
                            Some(lessor) => {
                                promise(&mut promised, lessor, config.chunk_bytes);
                                actions.push(LeaseAction::Sublease {
                                    node: i as u16,
                                    lessor,
                                });
                            }
                            None => {
                                quota_refusals.push((i as u16, sig.tenant, sig.priority));
                            }
                        }
                    } else {
                        if sig.tenant != NO_TENANT {
                            promise(&mut promised, sig.tenant, config.chunk_bytes);
                        }
                        actions.push(LeaseAction::Grow {
                            node: i as u16,
                            predictive: predicted,
                        });
                    }
                }
            } else if sig.depth <= config.low_watermark {
                node.calm_ticks = node.calm_ticks.saturating_add(1);
                if node.calm_ticks >= config.release_cooldown_ticks
                    && node.chunks.len() as u32 > config.min_chunks
                {
                    node.calm_ticks = 0;
                    actions.push(LeaseAction::Shrink { node: i as u16 });
                }
            } else {
                // Inside the hysteresis band with no predicted crossing:
                // hold everything.
                node.calm_ticks = 0;
            }

            // Donor-side reclaim is judged independently of the node's
            // borrow-side state: a node can be a pressured donor and a
            // (quota-blocked) would-be borrower in the same tick. With
            // `donor_pressure_weight` armed the trigger is cost-aware:
            // the lent-pressure signal adds depth-equivalents, so a
            // donor whose own service path is degraded by heavy lending
            // reclaims before its raw depth reaches the watermark.
            let donor_pressured = sig.depth >= config.donor_high_watermark
                || (config.donor_pressure_weight > 0.0
                    && sig.depth as f64 + config.donor_pressure_weight * sig.lent_pressure
                        >= config.donor_high_watermark as f64);
            if config.donor_high_watermark > 0 && donor_pressured && sig.lent_chunks > 0 {
                let node = &mut self.nodes[i];
                let cooled = match node.last_revoke_tick {
                    None => true,
                    Some(last) => tick - last >= config.revoke_cooldown_ticks as u64,
                };
                if cooled {
                    // The cooldown is charged at the decision — like a
                    // grow's — so a surrendered revoke (nothing visible
                    // to reclaim) must be reported back through
                    // [`LeaseManager::deny_revoke`] to stay auditable.
                    node.last_revoke_tick = Some(tick);
                    actions.push(LeaseAction::Revoke { donor: i as u16 });
                }
            }
        }
        let kind = LeaseEventKind::QuotaDenied;
        for (node, tenant, priority) in quota_refusals {
            self.refuse(now, node, NO_NODE, tenant, kind, priority);
        }
        actions
    }

    /// Whether confirming one more chunk for `tenant` would exceed its
    /// quota (always `false` for [`NO_TENANT`], tenants past the quota
    /// table, or a manager built without quotas). Judged against the
    /// *charged* ledger: bytes the tenant has subleased out count
    /// against it, bytes it holds via sublease do not.
    pub fn quota_blocks(&self, tenant: u32) -> bool {
        self.quota_blocks_with(tenant, 0)
    }

    /// As [`LeaseManager::quota_blocks`], with `promised` bytes already
    /// charged to the tenant by this tick's earlier decisions counted in.
    fn quota_blocks_with(&self, tenant: u32, promised: u64) -> bool {
        tenant != NO_TENANT
            && (tenant as usize) < self.quotas.len()
            && self.charged(tenant) + promised + self.config.chunk_bytes
                > self.quotas[tenant as usize]
    }

    /// Market matching: the finite-quota tenant (other than `tenant`)
    /// with the most idle headroom — quota minus charged bytes minus
    /// this tick's already-promised bytes — provided at least one chunk
    /// fits. Ties break to the lowest tenant index; tenants with
    /// unlimited (`u64::MAX`) quotas never lease headroom they do not
    /// meaningfully own. Deterministic by construction.
    fn match_lessor(&self, tenant: u32, promised: &[(u32, u64)]) -> Option<u32> {
        let chunk = self.config.chunk_bytes;
        let mut best: Option<(u32, u64)> = None;
        for l in 0..self.quotas.len() as u32 {
            if l == tenant || self.quotas[l as usize] == u64::MAX {
                continue;
            }
            let headroom = self.quotas[l as usize]
                .saturating_sub(self.charged(l))
                .saturating_sub(promised_to(promised, l));
            if headroom >= chunk && best.map(|(_, h)| headroom > h).unwrap_or(true) {
                best = Some((l, headroom));
            }
        }
        best.map(|(l, _)| l)
    }

    /// Records a successful grow of `node` at `now`, attributed to
    /// `tenant` (ledger and quota accounting) at `priority`. Returns the
    /// new lease's generation.
    pub fn confirm_grow(
        &mut self,
        now: Time,
        node: u16,
        tenant: u32,
        predictive: bool,
        priority: Priority,
    ) -> u64 {
        let kind = if predictive {
            LeaseEventKind::GrewPredictive
        } else {
            LeaseEventKind::Grew
        };
        self.open_chunk(now, node, tenant, tenant, kind, priority)
    }

    /// Records a successful market-matched grow of `node` at `now`: the
    /// chunk serves `tenant`'s backlog but is charged against `lessor`'s
    /// idle quota headroom. Returns the new lease's generation.
    ///
    /// # Panics
    ///
    /// Panics if `lessor` equals `tenant` (that is a plain grow — use
    /// [`LeaseManager::confirm_grow`]) or is [`NO_TENANT`] (unattributed
    /// capacity cannot lease headroom).
    pub fn confirm_sublease(
        &mut self,
        now: Time,
        node: u16,
        tenant: u32,
        lessor: u32,
        priority: Priority,
    ) -> u64 {
        assert_ne!(lessor, tenant, "self-sublease is a plain grow");
        assert_ne!(lessor, NO_TENANT, "sublease needs a real lessor");
        let kind = LeaseEventKind::Subleased;
        self.open_chunk(now, node, tenant, lessor, kind, priority)
    }

    /// Records a grow refused by the cluster (donor capacity exhausted).
    pub fn deny_grow(&mut self, now: Time, node: u16, tenant: u32, priority: Priority) {
        self.refuse(now, node, NO_NODE, tenant, LeaseEventKind::Denied, priority);
    }

    /// Records a successful release of `node`'s lease `generation` at
    /// `now`. The caller names the lease explicitly because its view of
    /// "newest" may lag the manager's: a revoke-pending chunk stays on
    /// the manager's stack until its teardown confirms, so a shrink
    /// landing inside that window releases the newest *still-releasable*
    /// lease, not the manager's top of stack — a positional pop here
    /// would repay the wrong tenant and panic the later revoke confirm.
    /// Strictly LIFO callers can pass
    /// [`LeaseManager::newest_generation`]. Releasing a market-matched
    /// chunk logs [`LeaseEventKind::SubleaseReturned`].
    ///
    /// # Panics
    ///
    /// Panics if the node holds no chunk of that generation (accounting
    /// bug in the caller).
    pub fn confirm_shrink(&mut self, now: Time, node: u16, generation: u64, priority: Priority) {
        let kind = LeaseEventKind::Shrank;
        self.close_chunk(now, NO_NODE, node, generation, kind, priority);
    }

    /// Records `donor`'s revoke demand that found nothing reclaimable —
    /// every grant it has lent out is still mid-establish on its
    /// recipient. The cooldown was already charged at the decision, so
    /// without this record a pressured donor's wait would be invisible
    /// on the timeline.
    pub fn deny_revoke(&mut self, now: Time, donor: u16, priority: Priority) {
        let kind = LeaseEventKind::RevokeDenied;
        self.refuse(now, donor, donor, NO_TENANT, kind, priority);
    }

    /// Records `donor`'s successful revoke of the lease `generation` held
    /// by `recipient` at `now`. Unlike a shrink, the revoked chunk may
    /// sit anywhere in the recipient's stack — the donor demands *its*
    /// newest lent chunk, which is not necessarily the recipient's
    /// newest borrow. A revoked market chunk also repays its lessor; the
    /// kind stays `Revoked` (the donor's demand is the story) and the
    /// `lessor` field carries the repayment.
    ///
    /// # Panics
    ///
    /// Panics if `recipient` holds no chunk of that generation
    /// (accounting bug in the caller).
    pub fn confirm_revoke(
        &mut self,
        now: Time,
        donor: u16,
        recipient: u16,
        generation: u64,
        priority: Priority,
    ) {
        let kind = LeaseEventKind::Revoked;
        self.close_chunk(now, donor, recipient, generation, kind, priority);
    }

    /// Records the crash-driven loss of the chunk `generation` held by
    /// `recipient` at `now`: its donor `donor` died (or `recipient`
    /// itself did — pass the lease's donor either way), so the chunk is
    /// gone without a teardown handshake. The ledger moves mirror
    /// [`LeaseManager::confirm_revoke`] — bytes leave the totals, a
    /// market chunk repays its lessor — but the event kind says *crash*,
    /// and the failover counter lets reports separate adversity from
    /// policy. The manager holds no replacement open: the next tick's
    /// pressure signal re-grows through the ordinary decision path
    /// (paying the establish latency on a surviving donor), or the
    /// caller re-borrows immediately and confirms as a grow.
    ///
    /// # Panics
    ///
    /// Panics if `recipient` holds no chunk of that generation
    /// (accounting bug in the caller).
    pub fn confirm_failover(
        &mut self,
        now: Time,
        donor: u16,
        recipient: u16,
        generation: u64,
        priority: Priority,
    ) {
        let kind = LeaseEventKind::FailedOver;
        self.close_chunk(now, donor, recipient, generation, kind, priority);
    }

    /// The open edge of every lease: pushes a fresh generation onto
    /// `node`'s stack serving `tenant` and charged against `lessor`
    /// (`lessor == tenant` for a plain grow, anything else is a market
    /// sublease), moves the byte ledgers and logs `kind`. Returns the
    /// new generation.
    fn open_chunk(
        &mut self,
        now: Time,
        node: u16,
        tenant: u32,
        lessor: u32,
        kind: LeaseEventKind,
        priority: Priority,
    ) -> u64 {
        self.integrate(now);
        self.generation += 1;
        let generation = self.generation;
        let chunk = self.config.chunk_bytes;
        let n = &mut self.nodes[node as usize];
        n.chunks.push(Chunk {
            generation,
            tenant,
            lessor,
        });
        let chunks_after = n.chunks.len() as u32;
        self.total_bytes += chunk;
        self.peak_bytes = self.peak_bytes.max(self.total_bytes);
        let market = lessor != tenant;
        if market {
            self.subleased_bytes += chunk;
        }
        let tenant_bytes_after = self.bucket_add(tenant, chunk);
        self.charged_add(lessor, chunk);
        self.log(LeaseEvent {
            at: now,
            node,
            donor: NO_NODE,
            kind,
            chunks_after,
            generation,
            total_bytes_after: self.total_bytes,
            tenant,
            tenant_bytes_after,
            lessor: if market { lessor } else { NO_TENANT },
            priority,
        });
        generation
    }

    /// The close edge of every lease: removes `generation` from
    /// `recipient`'s stack wherever it sits, repays its tenant and its
    /// payer (the lessor, for a market chunk) and logs `kind` with
    /// `donor` ([`NO_NODE`] for a shrink). A shrink of a market chunk
    /// logs [`LeaseEventKind::SubleaseReturned`] instead of `Shrank`.
    ///
    /// # Panics
    ///
    /// Panics if `recipient` holds no chunk of that generation.
    fn close_chunk(
        &mut self,
        now: Time,
        donor: u16,
        recipient: u16,
        generation: u64,
        kind: LeaseEventKind,
        priority: Priority,
    ) {
        self.integrate(now);
        let n = &mut self.nodes[recipient as usize];
        let idx = n
            .chunks
            .iter()
            .position(|c| c.generation == generation)
            .expect("close of a generation the recipient does not hold");
        let Chunk { tenant, lessor, .. } = n.chunks.remove(idx);
        let chunks_after = n.chunks.len() as u32;
        let chunk = self.config.chunk_bytes;
        self.total_bytes -= chunk;
        let tenant_bytes_after = self.bucket_sub(tenant, chunk);
        self.charged_sub(lessor, chunk);
        let market = lessor != tenant;
        if market {
            self.subleased_bytes -= chunk;
        }
        let kind = match kind {
            LeaseEventKind::Shrank if market => LeaseEventKind::SubleaseReturned,
            kind => kind,
        };
        self.log(LeaseEvent {
            at: now,
            node: recipient,
            donor,
            kind,
            chunks_after,
            generation,
            total_bytes_after: self.total_bytes,
            tenant,
            tenant_bytes_after,
            lessor: if market { lessor } else { NO_TENANT },
            priority,
        });
    }

    /// Every refusal: logs `kind` for `node` attributed to `tenant` with
    /// every ledger unchanged (generation 0, no lessor) — cluster-denied
    /// grows, quota-refused grows, and surrendered revokes (whose `donor`
    /// is the node itself).
    fn refuse(
        &mut self,
        now: Time,
        node: u16,
        donor: u16,
        tenant: u32,
        kind: LeaseEventKind,
        priority: Priority,
    ) {
        let chunks_after = self.nodes[node as usize].chunks.len() as u32;
        let tenant_bytes_after = self.bucket(tenant);
        self.log(LeaseEvent {
            at: now,
            node,
            donor,
            kind,
            chunks_after,
            generation: 0,
            total_bytes_after: self.total_bytes,
            tenant,
            tenant_bytes_after,
            lessor: NO_TENANT,
            priority,
        });
    }

    /// Records `event` on the timeline, keyed by the event's own
    /// timestamp — one source of truth, so the timeline key and
    /// [`LeaseEvent::at`] can never drift apart.
    fn log(&mut self, event: LeaseEvent) {
        self.timeline.record(event.at, event);
    }

    /// Advances the time-weighted byte integral to `now`.
    fn integrate(&mut self, now: Time) {
        let dt = now.saturating_sub(self.last_change_at);
        self.byte_ps_integral += self.total_bytes as u128 * dt.as_ps() as u128;
        self.last_change_at = now;
    }

    /// The ledger bucket `tenant` maps to, read-only.
    fn bucket(&self, tenant: u32) -> u64 {
        if tenant == NO_TENANT {
            self.unattributed_bytes
        } else {
            self.tenant_bytes.get(tenant as usize).copied().unwrap_or(0)
        }
    }

    /// Adds `bytes` to `tenant`'s bucket, returning the new value.
    fn bucket_add(&mut self, tenant: u32, bytes: u64) -> u64 {
        if tenant == NO_TENANT {
            self.unattributed_bytes += bytes;
            self.unattributed_bytes
        } else {
            let idx = tenant as usize;
            if idx >= self.tenant_bytes.len() {
                self.tenant_bytes.resize(idx + 1, 0);
            }
            self.tenant_bytes[idx] += bytes;
            self.tenant_bytes[idx]
        }
    }

    /// Subtracts `bytes` from `tenant`'s bucket, returning the new value.
    fn bucket_sub(&mut self, tenant: u32, bytes: u64) -> u64 {
        if tenant == NO_TENANT {
            self.unattributed_bytes -= bytes;
            self.unattributed_bytes
        } else {
            let idx = tenant as usize;
            self.tenant_bytes[idx] -= bytes;
            self.tenant_bytes[idx]
        }
    }

    /// Bytes charged against `tenant`'s quota right now. Unattributed
    /// capacity is always self-charged, so the [`NO_TENANT`] bucket is
    /// the unattributed one.
    fn charged(&self, tenant: u32) -> u64 {
        if tenant == NO_TENANT {
            self.unattributed_bytes
        } else {
            self.charged_bytes
                .get(tenant as usize)
                .copied()
                .unwrap_or(0)
        }
    }

    /// Adds `bytes` to `tenant`'s charged bucket. [`NO_TENANT`] is a
    /// no-op: the unattributed bucket is shared with the usage ledger
    /// and already moved by [`LeaseManager::bucket_add`].
    fn charged_add(&mut self, tenant: u32, bytes: u64) {
        if tenant != NO_TENANT {
            let idx = tenant as usize;
            if idx >= self.charged_bytes.len() {
                self.charged_bytes.resize(idx + 1, 0);
            }
            self.charged_bytes[idx] += bytes;
        }
    }

    /// Subtracts `bytes` from `tenant`'s charged bucket ([`NO_TENANT`]:
    /// no-op, see [`LeaseManager::charged_add`]).
    fn charged_sub(&mut self, tenant: u32, bytes: u64) {
        if tenant != NO_TENANT {
            self.charged_bytes[tenant as usize] -= bytes;
        }
    }

    /// Chunks `node` currently holds.
    pub fn chunks(&self, node: u16) -> u32 {
        self.nodes[node as usize].chunks.len() as u32
    }

    /// The generation of `node`'s newest confirmed chunk (`None` when it
    /// holds nothing) — what a strictly LIFO caller is about to release.
    pub fn newest_generation(&self, node: u16) -> Option<u64> {
        self.nodes[node as usize]
            .chunks
            .last()
            .map(|c| c.generation)
    }

    /// Bytes `node` currently holds.
    pub fn held_bytes(&self, node: u16) -> u64 {
        self.chunks(node) as u64 * self.config.chunk_bytes
    }

    /// Cluster-wide borrowed bytes right now.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Highest cluster-wide borrowed bytes seen so far.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// `tenant`'s confirmed ledger bytes right now.
    pub fn tenant_bytes(&self, tenant: u32) -> u64 {
        self.bucket(tenant)
    }

    /// The per-tenant usage ledger (indexed by tenant id; tenants that
    /// never drove a lease hold 0). Counts the bytes whose chunks serve
    /// each tenant's backlog — subleased-in chunks included.
    pub fn tenant_ledger(&self) -> &[u64] {
        &self.tenant_bytes
    }

    /// Bytes charged against `tenant`'s quota right now: its own chunks
    /// plus chunks it subleased out. Equals
    /// [`LeaseManager::tenant_bytes`] until the market moves them apart.
    pub fn charged_bytes_of(&self, tenant: u32) -> u64 {
        self.charged(tenant)
    }

    /// The per-tenant charged ledger (what the quota check reads), in
    /// tenant-index order.
    pub fn charged_ledger(&self) -> &[u64] {
        &self.charged_bytes
    }

    /// Bytes currently held under a market sublease (chunks whose
    /// paying tenant is not their using tenant). The engine cross-checks
    /// this against the cluster's sublease annotations at end of run.
    pub fn subleased_bytes(&self) -> u64 {
        self.subleased_bytes
    }

    /// Confirmed bytes not attributed to any tenant (bootstrap floor).
    pub fn unattributed_bytes(&self) -> u64 {
        self.unattributed_bytes
    }

    /// Time-weighted mean of cluster-wide borrowed bytes over `[0, end]`
    /// — or over `[0, last event]` when events were confirmed past `end`,
    /// so a too-short `end` can never inflate the mean beyond what was
    /// actually integrated.
    pub fn mean_bytes(&self, end: Time) -> u64 {
        let end = end.max(self.last_change_at);
        if end == Time::ZERO {
            return self.total_bytes;
        }
        let tail = end.saturating_sub(self.last_change_at);
        let integral = self.byte_ps_integral + self.total_bytes as u128 * tail.as_ps() as u128;
        (integral / end.as_ps() as u128) as u64
    }

    /// Timeline events `pick` selects: every counter below reads the
    /// timeline instead of keeping its own tally.
    fn count(&self, pick: impl Fn(&LeaseEvent) -> bool) -> u64 {
        self.timeline.iter().filter(|(_, e)| pick(e)).count() as u64
    }

    /// Successful grows so far (predictive ones included).
    pub fn grows(&self) -> u64 {
        self.count(|e| {
            matches!(
                e.kind,
                LeaseEventKind::Grew | LeaseEventKind::GrewPredictive
            )
        })
    }

    /// Grows fired by the slope predictor before the watermark tripped.
    pub fn predictive_grows(&self) -> u64 {
        self.count(|e| e.kind == LeaseEventKind::GrewPredictive)
    }

    /// Successful shrinks so far (sublease returns included).
    pub fn shrinks(&self) -> u64 {
        self.count(|e| {
            matches!(
                e.kind,
                LeaseEventKind::Shrank | LeaseEventKind::SubleaseReturned
            )
        })
    }

    /// Successful donor-demanded revokes so far.
    pub fn revokes(&self) -> u64 {
        self.count(|e| e.kind == LeaseEventKind::Revoked)
    }

    /// Chunks lost to node crashes so far (confirmed failovers).
    pub fn failovers(&self) -> u64 {
        self.count(|e| e.kind == LeaseEventKind::FailedOver)
    }

    /// Revoke demands that found nothing reclaimable so far.
    pub fn revoke_denials(&self) -> u64 {
        self.count(|e| e.kind == LeaseEventKind::RevokeDenied)
    }

    /// Cluster-refused grows so far.
    pub fn denials(&self) -> u64 {
        self.count(|e| e.kind == LeaseEventKind::Denied)
    }

    /// Quota-refused grows so far. With the market armed these are the
    /// refusals *no lessor* could absorb — the matched ones are counted
    /// by [`LeaseManager::subleases`] instead.
    pub fn quota_denials(&self) -> u64 {
        self.count(|e| e.kind == LeaseEventKind::QuotaDenied)
    }

    /// Market-matched grows so far (quota refusals converted into
    /// subleases).
    pub fn subleases(&self) -> u64 {
        self.count(|e| e.kind == LeaseEventKind::Subleased)
    }

    /// Subleased chunks returned so far: calm releases, donor revokes
    /// and crash failovers of market chunks — each repays the lessor.
    pub fn sublease_returns(&self) -> u64 {
        self.count(|e| e.kind.closes_chunk() && e.lessor != NO_TENANT)
    }

    /// Nodes that ever reported chunks lent out in a tick signal, in
    /// node order — the donor set the donor-benefit figures evaluate.
    pub fn donor_nodes(&self) -> Vec<u16> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.lent_seen)
            .map(|(i, _)| i as u16)
            .collect()
    }

    /// The full decision timeline.
    pub fn timeline(&self) -> &Timeline<LeaseEvent> {
        &self.timeline
    }
}

/// Bytes this tick's earlier decisions already promised against
/// `tenant`'s quota.
fn promised_to(promised: &[(u32, u64)], tenant: u32) -> u64 {
    promised
        .iter()
        .find(|&&(t, _)| t == tenant)
        .map_or(0, |&(_, b)| b)
}

/// Promises `bytes` more against `tenant`'s quota for the rest of the
/// tick.
fn promise(promised: &mut Vec<(u32, u64)>, tenant: u32, bytes: u64) {
    match promised.iter_mut().find(|(t, _)| *t == tenant) {
        Some((_, b)) => *b += bytes,
        None => promised.push((tenant, bytes)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LeaseConfig {
        LeaseConfig {
            chunk_bytes: 64 << 20,
            min_chunks: 1,
            max_chunks: 4,
            high_watermark: 8,
            low_watermark: 2,
            grow_cooldown_ticks: 2,
            release_cooldown_ticks: 3,
            tick_interval: Time::from_ms(1),
            ..LeaseConfig::default()
        }
    }

    fn depths(values: &[u32]) -> Vec<NodeSignal> {
        values.iter().map(|&d| NodeSignal::depth(d)).collect()
    }

    /// Applies every action immediately, confirming grows.
    fn apply_all(m: &mut LeaseManager, now: Time, actions: &[LeaseAction]) {
        for a in actions {
            match *a {
                LeaseAction::Grow { node, predictive } => {
                    m.confirm_grow(now, node, NO_TENANT, predictive, Priority::Normal);
                }
                LeaseAction::Shrink { node } => {
                    let g = m.newest_generation(node).expect("shrink of an empty node");
                    m.confirm_shrink(now, node, g, Priority::Normal);
                }
                LeaseAction::Revoke { .. } | LeaseAction::Sublease { .. } => {
                    unreachable!("no revokes or subleases in these tests")
                }
            }
        }
    }

    #[test]
    fn failover_unwinds_the_ledger_without_a_replacement() {
        let mut m = LeaseManager::new(cfg(), 2);
        let g = m.confirm_grow(Time::from_ms(1), 0, NO_TENANT, false, Priority::Normal);
        assert_eq!(m.total_bytes(), 64 << 20);
        m.confirm_failover(Time::from_ms(2), 1, 0, g, Priority::Normal);
        assert_eq!(m.total_bytes(), 0);
        assert_eq!(m.chunks(0), 0);
        assert_eq!(m.failovers(), 1);
        assert_eq!(m.revokes(), 0, "a crash is not a policy revoke");
        let (_, last) = m.timeline().iter().last().unwrap();
        assert_eq!(last.kind, LeaseEventKind::FailedOver);
        assert_eq!(last.donor, 1);
        assert!(last.kind.closes_chunk());
    }

    #[test]
    fn failover_of_a_market_chunk_repays_the_lessor() {
        let mut m = LeaseManager::with_quotas(cfg(), 2, vec![64 << 20, 256 << 20]);
        let g = m.confirm_sublease(Time::from_ms(1), 0, 0, 1, Priority::Normal);
        assert_eq!(m.subleased_bytes(), 64 << 20);
        assert_eq!(m.charged_bytes_of(1), 64 << 20);
        m.confirm_failover(Time::from_ms(2), 1, 0, g, Priority::Normal);
        assert_eq!(m.subleased_bytes(), 0);
        assert_eq!(m.charged_bytes_of(1), 0);
        assert_eq!(m.sublease_returns(), 1);
    }

    #[test]
    fn bootstrap_reaches_the_floor() {
        let mut m = LeaseManager::new(cfg(), 4);
        let boot = m.bootstrap();
        assert_eq!(boot.len(), 4);
        apply_all(&mut m, Time::ZERO, &boot);
        for n in 0..4 {
            assert_eq!(m.chunks(n), 1);
        }
        assert!(m.bootstrap().is_empty());
        assert_eq!(m.total_bytes(), 4 * (64 << 20));
        assert_eq!(m.unattributed_bytes(), 4 * (64 << 20));
    }

    #[test]
    fn sustained_pressure_grows_to_the_cap_with_cooldown() {
        let mut m = LeaseManager::new(cfg(), 1);
        let boot = m.bootstrap();
        apply_all(&mut m, Time::ZERO, &boot);
        let mut grow_ticks = Vec::new();
        for t in 1..=20u64 {
            let now = Time::from_ms(t);
            let actions = m.tick(now, &depths(&[100]));
            if !actions.is_empty() {
                grow_ticks.push(t);
            }
            apply_all(&mut m, now, &actions);
        }
        // 1 (floor) + 3 grows to reach max_chunks = 4.
        assert_eq!(m.chunks(0), 4);
        assert_eq!(grow_ticks.len(), 3);
        // Grows respect the cooldown spacing.
        for w in grow_ticks.windows(2) {
            assert!(w[1] - w[0] >= 2, "grows too close: {grow_ticks:?}");
        }
        // At the cap, pressure produces no further actions.
        assert!(m.tick(Time::from_ms(30), &depths(&[100])).is_empty());
    }

    #[test]
    fn calm_nodes_release_after_hysteresis_and_stop_at_floor() {
        let mut m = LeaseManager::new(cfg(), 1);
        let boot = m.bootstrap();
        apply_all(&mut m, Time::ZERO, &boot);
        // Pump to the cap.
        for t in 1..=10u64 {
            let now = Time::from_ms(t);
            let a = m.tick(now, &depths(&[50]));
            apply_all(&mut m, now, &a);
        }
        assert_eq!(m.chunks(0), 4);
        // Calm ticks: a release fires every `release_cooldown_ticks` calm
        // ticks until the floor.
        let mut shrink_ticks = Vec::new();
        for t in 11..=30u64 {
            let now = Time::from_ms(t);
            let a = m.tick(now, &depths(&[0]));
            if !a.is_empty() {
                assert_eq!(a, vec![LeaseAction::Shrink { node: 0 }]);
                shrink_ticks.push(t);
            }
            apply_all(&mut m, now, &a);
        }
        assert_eq!(m.chunks(0), 1, "released down to the floor");
        assert_eq!(shrink_ticks, vec![13, 16, 19]);
    }

    #[test]
    fn band_oscillation_causes_no_churn() {
        let mut m = LeaseManager::new(cfg(), 1);
        let boot = m.bootstrap();
        apply_all(&mut m, Time::ZERO, &boot);
        // Depth oscillating strictly inside (low, high): no actions ever
        // (the oscillation's EWMA slope never projects a crossing — it
        // alternates sign, so the predictor stays quiet even when armed).
        for t in 1..=100u64 {
            let depth = if t % 2 == 0 { 3 } else { 7 };
            assert!(m.tick(Time::from_ms(t), &depths(&[depth])).is_empty());
        }
        // Even calm ticks interleaved with in-band ticks never release:
        // the calm counter resets inside the band.
        for t in 101..=200u64 {
            let depth = if t % 2 == 0 { 0 } else { 5 };
            assert!(m.tick(Time::from_ms(t), &depths(&[depth])).is_empty());
        }
    }

    #[test]
    fn denied_grow_backs_off() {
        let mut m = LeaseManager::new(cfg(), 1);
        let boot = m.bootstrap();
        apply_all(&mut m, Time::ZERO, &boot);
        let a = m.tick(Time::from_ms(1), &depths(&[99]));
        assert_eq!(a.len(), 1);
        m.deny_grow(Time::from_ms(1), 0, NO_TENANT, Priority::Normal);
        // The very next tick must not retry (cooldown applies to the
        // decision, confirmed or not).
        assert!(m.tick(Time::from_ms(2), &depths(&[99])).is_empty());
        assert_eq!(m.denials(), 1);
        assert!(!m.tick(Time::from_ms(3), &depths(&[99])).is_empty());
    }

    #[test]
    fn predictor_grows_before_the_watermark_trips() {
        let config = LeaseConfig {
            predict_horizon_ticks: 10,
            slope_alpha: 0.5,
            ..cfg()
        };
        let mut reactive = LeaseManager::new(cfg(), 1);
        let mut predictive = LeaseManager::new(config, 1);
        let boot = reactive.bootstrap();
        apply_all(&mut reactive, Time::ZERO, &boot);
        let boot = predictive.bootstrap();
        apply_all(&mut predictive, Time::ZERO, &boot);
        // A steady ramp: depth t at tick t — crosses high_watermark=8 at
        // tick 8, but the slope (~1/tick) projects the crossing 10 ticks
        // out as soon as the depth clears the low watermark.
        let mut first_reactive = None;
        let mut first_predictive = None;
        for t in 1..=10u64 {
            let now = Time::from_ms(t);
            let d = depths(&[t as u32]);
            if !reactive.tick(now, &d).is_empty() && first_reactive.is_none() {
                first_reactive = Some(t);
            }
            let acts = predictive.tick(now, &d);
            if let Some(LeaseAction::Grow { predictive: p, .. }) = acts.first() {
                if first_predictive.is_none() {
                    first_predictive = Some(t);
                    assert!(*p, "early grow must be flagged predictive");
                    predictive.confirm_grow(now, 0, 7, true, Priority::High);
                }
            }
        }
        let (r, p) = (first_reactive.unwrap(), first_predictive.unwrap());
        assert!(p < r, "predictive grow at tick {p} not before reactive {r}");
        assert_eq!(predictive.predictive_grows(), 1);
        let last = predictive.timeline().last().unwrap().1;
        assert_eq!(last.kind, LeaseEventKind::GrewPredictive);
        assert_eq!(last.tenant, 7);
    }

    #[test]
    fn calm_nodes_never_grow_predictively() {
        // Depth at/below the low watermark stays in the shrink regime no
        // matter how steep the (noise) slope is.
        let config = LeaseConfig {
            predict_horizon_ticks: 100,
            ..cfg()
        };
        let mut m = LeaseManager::new(config, 1);
        let boot = m.bootstrap();
        apply_all(&mut m, Time::ZERO, &boot);
        for t in 1..=50u64 {
            let depth = (t % 3) as u32; // 0,1,2 — never above low=2
            let acts = m.tick(Time::from_ms(t), &depths(&[depth]));
            assert!(
                !acts.iter().any(|a| matches!(a, LeaseAction::Grow { .. })),
                "tick {t}: grew on calm noise"
            );
        }
    }

    #[test]
    fn pressured_donor_revokes_with_cooldown() {
        let config = LeaseConfig {
            donor_high_watermark: 6,
            revoke_cooldown_ticks: 4,
            ..cfg()
        };
        let mut m = LeaseManager::new(config, 2);
        let boot = m.bootstrap();
        apply_all(&mut m, Time::ZERO, &boot);
        // Node 1 borrowed a chunk (generation of its newest lease).
        let generation = m.confirm_grow(Time::from_us(10), 1, 3, false, Priority::Normal);
        // Node 0 is a pressured donor: depth 9 >= donor watermark 6, one
        // chunk lent out. But node 0's depth also exceeds the high
        // watermark — it may grow *and* revoke in the same tick.
        let signal = |lent| NodeSignal {
            depth: 9,
            lent_chunks: lent,
            lent_pressure: 0.0,
            tenant: NO_TENANT,
            priority: Priority::Normal,
        };
        let acts = m.tick(Time::from_ms(1), &[signal(1), NodeSignal::depth(5)]);
        assert!(acts.contains(&LeaseAction::Revoke { donor: 0 }));
        m.confirm_revoke(Time::from_ms(1), 0, 1, generation, Priority::Normal);
        assert_eq!(m.revokes(), 1);
        assert_eq!(m.chunks(1), 1, "revoke removed the borrowed chunk");
        assert_eq!(m.tenant_bytes(3), 0, "tenant ledger repaid");
        // Cooldown: the next three ticks may not revoke again.
        for t in 2..=4u64 {
            let acts = m.tick(Time::from_ms(t), &[signal(1), NodeSignal::depth(5)]);
            assert!(
                !acts.iter().any(|a| matches!(a, LeaseAction::Revoke { .. })),
                "tick {t}: revoked inside cooldown"
            );
        }
        let acts = m.tick(Time::from_ms(5), &[signal(1), NodeSignal::depth(5)]);
        assert!(acts.contains(&LeaseAction::Revoke { donor: 0 }));
        // A donor with nothing lent never revokes, however pressured.
        let acts = m.tick(Time::from_ms(20), &[signal(0), NodeSignal::depth(5)]);
        assert!(!acts.iter().any(|a| matches!(a, LeaseAction::Revoke { .. })));
    }

    #[test]
    fn revoked_below_floor_regrows_without_a_watermark() {
        // A donor pulls a floor chunk back; the recipient sits below
        // min_chunks with in-band demand (no watermark trip). The floor
        // is the controller's to maintain: it re-grows anyway.
        let mut m = LeaseManager::new(cfg(), 1);
        let g = m.confirm_grow(Time::ZERO, 0, NO_TENANT, false, Priority::Normal);
        assert_eq!(m.chunks(0), 1); // at the floor
        m.confirm_revoke(Time::from_ms(1), 1, 0, g, Priority::Normal);
        assert_eq!(m.chunks(0), 0, "revoked below the floor");
        // Depth 5 sits strictly inside the (2, 8) band: neither
        // watermark would fire, but the under-floor grow does.
        let acts = m.tick(Time::from_ms(2), &depths(&[5]));
        assert_eq!(
            acts,
            vec![LeaseAction::Grow {
                node: 0,
                predictive: false
            }]
        );
        m.confirm_grow(Time::from_ms(2), 0, NO_TENANT, false, Priority::Normal);
        assert_eq!(m.chunks(0), 1, "floor restored");
        // Back at the floor: the same in-band demand is quiet again.
        for t in 4..=8u64 {
            assert!(m.tick(Time::from_ms(t), &depths(&[5])).is_empty());
        }
    }

    #[test]
    fn surrendered_revokes_are_denied_on_the_timeline() {
        let config = LeaseConfig {
            donor_high_watermark: 6,
            revoke_cooldown_ticks: 4,
            ..cfg()
        };
        let mut m = LeaseManager::new(config, 1);
        let sig = NodeSignal {
            depth: 9,
            lent_chunks: 1,
            lent_pressure: 0.0,
            tenant: NO_TENANT,
            priority: Priority::High,
        };
        let acts = m.tick(Time::from_ms(1), &[sig]);
        assert!(acts.contains(&LeaseAction::Revoke { donor: 0 }));
        // The caller found nothing visible to reclaim: the surrender is
        // recorded, and the cooldown (charged at the decision) shows as
        // a denial instead of silence.
        m.deny_revoke(Time::from_ms(1), 0, Priority::High);
        assert_eq!(m.revoke_denials(), 1);
        assert_eq!(m.revokes(), 0);
        let last = m.timeline().last().unwrap().1;
        assert_eq!(last.kind, LeaseEventKind::RevokeDenied);
        assert_eq!(last.donor, 0);
        assert_eq!(last.priority, Priority::High);
        // Still cooling: no retry next tick.
        assert!(!m
            .tick(Time::from_ms(2), &[sig])
            .contains(&LeaseAction::Revoke { donor: 0 }));
    }

    #[test]
    fn revoke_removes_mid_stack_chunks() {
        let mut m = LeaseManager::new(cfg(), 2);
        let g1 = m.confirm_grow(Time::from_us(1), 0, 1, false, Priority::Normal);
        let g2 = m.confirm_grow(Time::from_us(2), 0, 2, false, Priority::Normal);
        // Revoke the *older* lease (donor LIFO picked it): the newer one
        // survives untouched.
        m.confirm_revoke(Time::from_us(3), 1, 0, g1, Priority::Normal);
        assert_eq!(m.chunks(0), 1);
        assert_eq!(m.tenant_bytes(1), 0);
        assert_eq!(m.tenant_bytes(2), 64 << 20);
        // A shrink now pops the surviving lease.
        assert_eq!(m.newest_generation(0), Some(g2));
        m.confirm_shrink(Time::from_us(4), 0, g2, Priority::Normal);
        let last = m.timeline().last().unwrap().1;
        assert_eq!(last.generation, g2);
        assert_eq!(m.total_bytes(), 0);
    }

    #[test]
    fn quota_refuses_grow_locally_and_backs_off() {
        // One tenant with a one-chunk quota.
        let config = cfg();
        let mut m = LeaseManager::with_quotas(config, 1, vec![config.chunk_bytes]);
        let sig = |tenant| NodeSignal {
            depth: 50,
            lent_chunks: 0,
            lent_pressure: 0.0,
            tenant,
            priority: Priority::Low,
        };
        let acts = m.tick(Time::from_ms(1), &[sig(0)]);
        assert_eq!(acts.len(), 1, "first grow is inside quota");
        m.confirm_grow(Time::from_ms(1), 0, 0, false, Priority::Low);
        assert!(m.quota_blocks(0));
        // Tick 2 sits inside the grow cooldown — nothing happens, not
        // even a quota refusal (the decision gate never opens).
        assert!(m.tick(Time::from_ms(2), &[sig(0)]).is_empty());
        assert_eq!(m.quota_denials(), 0);
        // Tick 3 is grow-eligible again: the grow is quota-refused,
        // logged, and restarts the cooldown (no hammering).
        let acts = m.tick(Time::from_ms(3), &[sig(0)]);
        assert!(acts.is_empty());
        assert_eq!(m.quota_denials(), 1);
        let last = m.timeline().last().unwrap().1;
        assert_eq!(last.kind, LeaseEventKind::QuotaDenied);
        assert_eq!(last.tenant, 0);
        assert_eq!(last.priority, Priority::Low);
        assert!(m.tick(Time::from_ms(4), &[sig(0)]).is_empty(), "cooldown");
        assert_eq!(m.quota_denials(), 1, "cooldown also bounds refusals");
        // A different (unquota'd) tenant may still grow.
        let acts = m.tick(Time::from_ms(5), &[sig(9)]);
        assert_eq!(acts.len(), 1);
    }

    #[test]
    fn market_converts_quota_refusals_into_subleases() {
        // Tenant 0: one-chunk quota. Tenant 1: four chunks, all idle.
        let config = LeaseConfig {
            sublease_market: true,
            ..cfg()
        };
        let chunk = config.chunk_bytes;
        let mut m = LeaseManager::with_quotas(config, 1, vec![chunk, 4 * chunk]);
        let sig = NodeSignal {
            depth: 50,
            lent_chunks: 0,
            lent_pressure: 0.0,
            tenant: 0,
            priority: Priority::High,
        };
        // First grow is inside tenant 0's own quota.
        let acts = m.tick(Time::from_ms(1), &[sig]);
        assert_eq!(
            acts,
            vec![LeaseAction::Grow {
                node: 0,
                predictive: false
            }]
        );
        m.confirm_grow(Time::from_ms(1), 0, 0, false, Priority::High);
        assert!(m.quota_blocks(0));
        // Tick 2 sits inside the grow cooldown: nothing happens.
        assert!(m.tick(Time::from_ms(2), &[sig]).is_empty());
        // Next eligible grow would be quota-refused — the market matches
        // tenant 1's idle headroom instead.
        let acts = m.tick(Time::from_ms(3), &[sig]);
        assert_eq!(acts, vec![LeaseAction::Sublease { node: 0, lessor: 1 }]);
        let g = m.confirm_sublease(Time::from_ms(3), 0, 0, 1, Priority::High);
        assert_eq!(m.subleases(), 1);
        assert_eq!(m.quota_denials(), 0, "the refusal was converted");
        // Usage follows the user; the charge follows the lessor.
        assert_eq!(m.tenant_bytes(0), 2 * chunk);
        assert_eq!(m.tenant_bytes(1), 0);
        assert_eq!(m.charged_bytes_of(0), chunk);
        assert_eq!(m.charged_bytes_of(1), chunk);
        assert_eq!(m.subleased_bytes(), chunk);
        let last = m.timeline().last().unwrap().1;
        assert_eq!(last.kind, LeaseEventKind::Subleased);
        assert_eq!(last.tenant, 0);
        assert_eq!(last.lessor, 1);
        // Returning the chunk repays the lessor's headroom.
        m.confirm_shrink(Time::from_ms(5), 0, g, Priority::High);
        assert_eq!(m.sublease_returns(), 1);
        assert_eq!(m.subleased_bytes(), 0);
        assert_eq!(m.tenant_bytes(0), chunk);
        assert_eq!(m.charged_bytes_of(1), 0);
        let last = m.timeline().last().unwrap().1;
        assert_eq!(last.kind, LeaseEventKind::SubleaseReturned);
        assert_eq!(last.lessor, 1);
    }

    #[test]
    fn market_exhausts_headroom_then_denies() {
        // Lessor (tenant 1) has exactly one chunk of headroom; tenant 2's
        // quota is unlimited and must never be matched as a lessor.
        let config = LeaseConfig {
            sublease_market: true,
            ..cfg()
        };
        let chunk = config.chunk_bytes;
        let mut m = LeaseManager::with_quotas(config, 1, vec![chunk, chunk, u64::MAX]);
        let sig = NodeSignal {
            depth: 50,
            lent_chunks: 0,
            lent_pressure: 0.0,
            tenant: 0,
            priority: Priority::Normal,
        };
        let acts = m.tick(Time::from_ms(1), &[sig]);
        assert_eq!(acts.len(), 1, "own-quota grow");
        m.confirm_grow(Time::from_ms(1), 0, 0, false, Priority::Normal);
        assert!(m.tick(Time::from_ms(2), &[sig]).is_empty(), "cooldown");
        let acts = m.tick(Time::from_ms(3), &[sig]);
        assert_eq!(acts, vec![LeaseAction::Sublease { node: 0, lessor: 1 }]);
        m.confirm_sublease(Time::from_ms(3), 0, 0, 1, Priority::Normal);
        // Tenant 1's headroom is now gone and tenant 2 (unlimited) does
        // not lease: the next over-quota grow is a hard refusal again.
        assert!(m.tick(Time::from_ms(4), &[sig]).is_empty(), "cooldown");
        let acts = m.tick(Time::from_ms(5), &[sig]);
        assert!(acts.is_empty());
        assert_eq!(m.quota_denials(), 1);
        assert_eq!(m.subleases(), 1);
        let last = m.timeline().last().unwrap().1;
        assert_eq!(last.kind, LeaseEventKind::QuotaDenied);
    }

    #[test]
    fn same_tick_matches_cannot_overshoot_the_lessors_headroom() {
        // Two nodes, both quota-blocked for tenant 0 in the same tick;
        // the lessor has one chunk of headroom. Exactly one sublease may
        // fire — the promised-bytes reservation covers the lessor too.
        let config = LeaseConfig {
            sublease_market: true,
            min_chunks: 0,
            ..cfg()
        };
        let chunk = config.chunk_bytes;
        let mut m = LeaseManager::with_quotas(config, 2, vec![0, chunk]);
        let sig = NodeSignal {
            depth: 50,
            lent_chunks: 0,
            lent_pressure: 0.0,
            tenant: 0,
            priority: Priority::Normal,
        };
        let acts = m.tick(Time::from_ms(1), &[sig, sig]);
        let subleases = acts
            .iter()
            .filter(|a| matches!(a, LeaseAction::Sublease { .. }))
            .count();
        assert_eq!(subleases, 1, "headroom fits one chunk, got {acts:?}");
        assert_eq!(m.quota_denials(), 1, "the other node was refused");
    }

    #[test]
    fn pressure_aware_revoke_fires_below_the_raw_watermark() {
        let base = LeaseConfig {
            donor_high_watermark: 10,
            revoke_cooldown_ticks: 4,
            ..cfg()
        };
        let sig = NodeSignal {
            depth: 6, // below the donor watermark
            lent_chunks: 2,
            lent_pressure: 0.9, // but the pool is almost fully lent
            tenant: NO_TENANT,
            priority: Priority::Normal,
        };
        // Watermark-only: depth 6 < 10, no revoke however lent.
        let mut watermark_only = LeaseManager::new(base, 1);
        let acts = watermark_only.tick(Time::from_ms(1), &[sig]);
        assert!(
            !acts.iter().any(|a| matches!(a, LeaseAction::Revoke { .. })),
            "watermark-only trigger fired below the watermark"
        );
        // Pressure-aware: 6 + 8 * 0.9 = 13.2 >= 10 — the heavily lent
        // donor reclaims early.
        let armed = LeaseConfig {
            donor_pressure_weight: 8.0,
            ..base
        };
        let mut aware = LeaseManager::new(armed, 1);
        let acts = aware.tick(Time::from_ms(1), &[sig]);
        assert!(acts.contains(&LeaseAction::Revoke { donor: 0 }));
        // An unlent donor never revokes, whatever the weight says.
        let unlent = NodeSignal {
            lent_chunks: 0,
            lent_pressure: 0.0,
            ..sig
        };
        let acts = aware.tick(Time::from_ms(10), &[unlent]);
        assert!(!acts.iter().any(|a| matches!(a, LeaseAction::Revoke { .. })));
    }

    #[test]
    fn accounting_tracks_peak_mean_and_ledger() {
        let mut m = LeaseManager::new(cfg(), 2);
        let c = 64 << 20u64;
        m.confirm_grow(Time::ZERO, 0, 0, false, Priority::High);
        m.confirm_grow(Time::ZERO, 1, 1, false, Priority::Low);
        // Hold 2 chunks for 10 ms, then drop to 1 for 10 ms.
        m.confirm_shrink(Time::from_ms(10), 1, 2, Priority::Low);
        assert_eq!(m.peak_bytes(), 2 * c);
        assert_eq!(m.total_bytes(), c);
        assert_eq!(m.tenant_bytes(0), c);
        assert_eq!(m.tenant_bytes(1), 0);
        let mean = m.mean_bytes(Time::from_ms(20));
        // Time-weighted: (2c*10 + 1c*10) / 20 = 1.5c.
        assert_eq!(mean, 3 * c / 2);
        let tl = m.timeline();
        assert_eq!(tl.len(), 3);
        assert_eq!(tl.events()[0].1.generation, 1);
        assert_eq!(tl.events()[1].1.generation, 2);
        let shrank = tl.events()[2].1;
        assert_eq!(shrank.kind, LeaseEventKind::Shrank);
        assert_eq!(shrank.priority, Priority::Low);
        // The shrink names the lease it released and repays its tenant.
        assert_eq!(shrank.generation, 2);
        assert_eq!(shrank.tenant, 1);
        assert_eq!(shrank.tenant_bytes_after, 0);
        // Conservation at every event: replaying per-tenant ledger values
        // reproduces the running total.
        let mut ledger = std::collections::BTreeMap::new();
        for (_, e) in tl.iter() {
            ledger.insert(e.tenant, e.tenant_bytes_after);
            let sum: u64 = ledger.values().sum();
            assert_eq!(sum, e.total_bytes_after);
        }
    }

    #[test]
    fn identical_inputs_produce_identical_timelines() {
        let drive = || {
            let mut m = LeaseManager::new(cfg(), 3);
            let boot = m.bootstrap();
            apply_all(&mut m, Time::ZERO, &boot);
            for t in 1..=50u64 {
                let now = Time::from_ms(t);
                let signals = depths(&[
                    ((t * 7) % 13) as u32,
                    ((t * 3) % 11) as u32,
                    ((t * 5) % 17) as u32,
                ]);
                let a = m.tick(now, &signals);
                apply_all(&mut m, now, &a);
            }
            m.timeline().clone()
        };
        assert_eq!(drive(), drive());
    }

    #[test]
    fn event_kinds_partition_into_open_close_denial() {
        use LeaseEventKind::*;
        // Every kind is exactly one of open/close/denial — the
        // classification telemetry folds the timeline with.
        for kind in [
            Grew,
            GrewPredictive,
            Denied,
            QuotaDenied,
            Shrank,
            Revoked,
            RevokeDenied,
            Subleased,
            SubleaseReturned,
            FailedOver,
        ] {
            let classes = [kind.opens_chunk(), kind.closes_chunk(), kind.is_denial()];
            assert_eq!(
                classes.iter().filter(|&&c| c).count(),
                1,
                "{kind:?} must fall in exactly one class"
            );
        }
        assert!(Grew.opens_chunk() && Subleased.opens_chunk());
        assert!(Revoked.closes_chunk() && SubleaseReturned.closes_chunk());
        assert!(QuotaDenied.is_denial() && RevokeDenied.is_denial());
    }
}
