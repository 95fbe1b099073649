//! Tenant mixes: who sends traffic and what each request costs.
//!
//! A [`TenantMix`] composes weighted [`TenantClass`]es — each wrapping one
//! of the calibrated `venice-workloads` request models — over a Zipf-skewed
//! population of simulated users. Populations scale to millions without
//! materializing per-user state: a user is a rank drawn from a
//! [`ZipfSampler`], and the rank determines both activity skew and home
//! node placement.

use venice_lease::Priority;
use venice_sim::{SimRng, Time};
use venice_workloads::kv::CacheMemory;
use venice_workloads::{KvCache, OltpWorkload, PageRank, ZipfSampler};

/// Memory context of the node serving a request: remote-tier latency
/// measured from the real cluster, plus how much remote capacity the node
/// holds *right now*. With elastic leases this changes mid-run — the
/// model is continuous in `remote_bytes`, so every borrowed chunk buys a
/// proportional capacity/locality benefit instead of a binary flip.
///
/// The model also carries the node's **donor side**: how much of its
/// lendable pool is currently granted out (`lent_bytes` of
/// `lendable_bytes`). With `lent_slowdown > 0` the service-time model
/// degrades continuously in the lent fraction — lending costs the donor
/// spare capacity it would otherwise use itself — and recovers as
/// revokes and releases land. At the default `lent_slowdown == 0.0`
/// lending is modeled as free and every service time is bit-identical
/// to the pre-pressure model (the frozen-baseline guarantee).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeModel {
    /// Local DRAM miss service latency.
    pub local_miss: Time,
    /// Measured CRMA read latency to this node's borrowed windows (only
    /// meaningful while `remote_bytes > 0`).
    pub remote_miss: Time,
    /// Borrowed remote-tier bytes currently held.
    pub remote_bytes: u64,
    /// The fully provisioned reference level (what a static setup would
    /// borrow); `remote_bytes / full_bytes` is the tier's fill fraction.
    pub full_bytes: u64,
    /// Bytes this node currently has lent out to other nodes (mirrors
    /// the cluster's donor-side ledger; maintained by the engine).
    pub lent_bytes: u64,
    /// The node's full lendable pool; `lent_bytes / lendable_bytes` is
    /// the donor-pressure fraction.
    pub lendable_bytes: u64,
    /// Maximum fractional service-time slowdown at full pool
    /// consumption ([`venice_lease::LeaseConfig::donor_pressure_slowdown`]);
    /// `0.0` disables the pressure term entirely.
    pub lent_slowdown: f64,
}

impl NodeModel {
    /// A node that failed to borrow (local tier only).
    pub fn local_only(local_miss: Time) -> Self {
        NodeModel {
            local_miss,
            remote_miss: Time::ZERO,
            remote_bytes: 0,
            full_bytes: 0,
            lent_bytes: 0,
            lendable_bytes: 0,
            lent_slowdown: 0.0,
        }
    }

    /// Whether the node holds any borrowed remote memory.
    pub fn has_remote(&self) -> bool {
        self.remote_bytes > 0
    }

    /// Fraction of the lendable pool currently granted out, in `[0, 1]`
    /// (0 when the node has no pool). This is the donor-benefit signal
    /// the engine feeds to [`venice_lease::NodeSignal::lent_pressure`].
    pub fn lent_pressure(&self) -> f64 {
        if self.lendable_bytes == 0 {
            0.0
        } else {
            (self.lent_bytes as f64 / self.lendable_bytes as f64).min(1.0)
        }
    }

    /// The service-time multiplier the donor pays for lending right now:
    /// `1 + lent_slowdown * lent_pressure`. Exactly `1.0` — and the hot
    /// path skips the multiply entirely — while the pressure term is
    /// disabled or nothing is lent, preserving bit-identity with the
    /// pressure-free model.
    pub fn lent_factor(&self) -> f64 {
        if self.lent_slowdown > 0.0 && self.lent_bytes > 0 {
            1.0 + self.lent_slowdown * self.lent_pressure()
        } else {
            1.0
        }
    }

    /// Fraction of the full provisioning level currently held, in
    /// `[0, 1]`.
    pub fn fill(&self) -> f64 {
        if self.full_bytes == 0 {
            if self.remote_bytes > 0 {
                1.0
            } else {
                0.0
            }
        } else {
            (self.remote_bytes as f64 / self.full_bytes as f64).min(1.0)
        }
    }
}

/// Per-request cost model of one tenant class.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestProfile {
    /// Redis-style cache lookup in front of a slow backend. Cache capacity
    /// beyond the node's local tier lives in borrowed remote memory.
    Kv {
        /// The cache model (footprint, hit/miss costs).
        cache: KvCache,
        /// Cache capacity provisioned per node.
        capacity_bytes: u64,
    },
    /// BerkeleyDB-style transaction: dependent index walks, 5 queries per
    /// transaction.
    Oltp {
        /// The OLTP model.
        workload: OltpWorkload,
        /// Fraction of data-tier misses served by the remote tier when the
        /// node holds a lease.
        remote_fraction: f64,
    },
    /// A slice of PageRank edge work (latency-tolerant batch analytics).
    PageRank {
        /// The kernel cost model.
        kernel: PageRank,
        /// Edges traversed per request.
        edges_per_request: u64,
        /// Graph footprint backing the memory profile.
        footprint_bytes: u64,
        /// Remote-tier fraction when a lease is held.
        remote_fraction: f64,
    },
    /// iperf-style messaging: the cost is transport-dominated; the server
    /// only pays a small per-message CPU charge.
    Iperf {
        /// Payload bytes per message.
        message_bytes: u64,
        /// Per-message server CPU.
        server_cpu: Time,
    },
}

impl RequestProfile {
    /// Request payload carried over the QPair from the edge gateway.
    pub fn request_bytes(&self) -> u64 {
        match self {
            RequestProfile::Kv { .. } => 128,
            RequestProfile::Oltp { .. } => 256,
            RequestProfile::PageRank { .. } => 64,
            RequestProfile::Iperf { message_bytes, .. } => *message_bytes,
        }
    }

    /// Approximate response payload (for goodput accounting).
    pub fn response_bytes(&self) -> u64 {
        match self {
            RequestProfile::Kv { cache, .. } => cache.value_bytes,
            RequestProfile::Oltp { workload, .. } => workload.record_bytes * 4,
            RequestProfile::PageRank { .. } => 64,
            RequestProfile::Iperf { .. } => 4,
        }
    }

    /// Bytes one request moves over the *fabric* when its node serves
    /// it from a borrowed remote tier — the per-class wire footprint
    /// the congested-fabric model charges against the node→donor path.
    /// A class constant (like [`RequestProfile::request_bytes`]), so
    /// the charge stays a table lookup on the dispatch path: the KV
    /// value walked out of the borrowed window, the OLTP records
    /// fetched per transaction, the PageRank edge partition touched per
    /// kernel step; iperf never touches the remote tier.
    pub fn remote_wire_bytes(&self) -> u64 {
        match self {
            RequestProfile::Kv { cache, .. } => cache.value_bytes,
            RequestProfile::Oltp { workload, .. } => workload.record_bytes * 4,
            RequestProfile::PageRank {
                edges_per_request, ..
            } => edges_per_request * 16,
            RequestProfile::Iperf { .. } => 0,
        }
    }

    /// Server-side service time of one request on a node described by
    /// `node`. Stochastic elements (cache hit/miss, service jitter) draw
    /// from `rng`.
    pub fn service_time(&self, rng: &mut SimRng, node: &NodeModel) -> Time {
        let base = match self {
            RequestProfile::Kv {
                cache,
                capacity_bytes,
            } => {
                let memory = if node.has_remote() {
                    CacheMemory::RemoteCrma(node.remote_miss)
                } else {
                    CacheMemory::Local
                };
                // The cache holds its local floor plus whatever remote
                // capacity the node has actually borrowed, capped at the
                // tenant's provisioned size — shrink the lease and the
                // miss rate climbs, grow it and the tail recovers.
                let capacity = (cache.local_floor_bytes + node.remote_bytes).min(*capacity_bytes);
                if rng.chance(cache.miss_rate(capacity)) {
                    cache.backend_cost
                } else {
                    cache.hit_time(capacity, memory)
                }
            }
            RequestProfile::Oltp {
                workload,
                remote_fraction,
            } => {
                let f = *remote_fraction * node.fill();
                workload
                    .profile()
                    .op_time_split(f, node.remote_miss, node.local_miss)
                    * OltpWorkload::QUERIES_PER_TXN
            }
            RequestProfile::PageRank {
                kernel,
                edges_per_request,
                footprint_bytes,
                remote_fraction,
            } => {
                let f = *remote_fraction * node.fill();
                kernel
                    .profile(*footprint_bytes)
                    .op_time_split(f, node.remote_miss, node.local_miss)
                    .scale(*edges_per_request as f64)
            }
            RequestProfile::Iperf { server_cpu, .. } => *server_cpu,
        };
        // Donor pressure: a lending node serves slower in proportion to
        // how much of its pool is out. The factor is exactly 1.0 (and
        // the scale is skipped) when the term is disabled, so untouched
        // configurations stay bit-identical.
        let factor = node.lent_factor();
        let base = if factor != 1.0 {
            base.scale(factor)
        } else {
            base
        };
        // ±10 % service jitter: dispersion that keeps the tail honest
        // without changing means materially.
        base.scale(0.9 + 0.2 * rng.unit())
    }

    /// Compiles this profile against a fixed [`NodeModel`] into a
    /// [`CompiledService`] whose [`sample`](CompiledService::sample) is
    /// **bit-identical** to [`service_time`](Self::service_time) — same
    /// RNG draw sequence, same float expressions, hoisted once instead
    /// of re-derived per request.
    ///
    /// The node model only changes on lease events (grow/shrink/revoke
    /// land), so the typed engine compiles per (node, class) at setup
    /// and recompiles the affected node when its tier moves; the
    /// per-request path collapses to at most one Bernoulli draw plus the
    /// jitter draw. The equivalence is pinned by a unit test against
    /// [`service_time`](Self::service_time).
    pub fn compile(&self, node: &NodeModel) -> CompiledService {
        let compiled = match self {
            RequestProfile::Kv {
                cache,
                capacity_bytes,
            } => {
                let memory = if node.has_remote() {
                    CacheMemory::RemoteCrma(node.remote_miss)
                } else {
                    CacheMemory::Local
                };
                let capacity = (cache.local_floor_bytes + node.remote_bytes).min(*capacity_bytes);
                CompiledService::coin(
                    cache.miss_rate(capacity),
                    cache.backend_cost,
                    cache.hit_time(capacity, memory),
                )
            }
            RequestProfile::Oltp {
                workload,
                remote_fraction,
            } => {
                let f = *remote_fraction * node.fill();
                CompiledService::Fixed(
                    workload
                        .profile()
                        .op_time_split(f, node.remote_miss, node.local_miss)
                        * OltpWorkload::QUERIES_PER_TXN,
                )
            }
            RequestProfile::PageRank {
                kernel,
                edges_per_request,
                footprint_bytes,
                remote_fraction,
            } => {
                let f = *remote_fraction * node.fill();
                CompiledService::Fixed(
                    kernel
                        .profile(*footprint_bytes)
                        .op_time_split(f, node.remote_miss, node.local_miss)
                        .scale(*edges_per_request as f64),
                )
            }
            RequestProfile::Iperf { server_cpu, .. } => CompiledService::Fixed(*server_cpu),
        };
        // Bake the donor-pressure factor into the compiled costs with
        // the *same* `Time::scale` call the interpreted path applies, so
        // compiled and interpreted stay bit-identical draw for draw.
        let factor = node.lent_factor();
        if factor == 1.0 {
            return compiled;
        }
        match compiled {
            CompiledService::Fixed(t) => CompiledService::Fixed(t.scale(factor)),
            CompiledService::Coin {
                miss_below,
                miss,
                hit,
            } => CompiledService::Coin {
                miss_below,
                miss: miss.scale(factor),
                hit: hit.scale(factor),
            },
        }
    }
}

/// A [`RequestProfile`] pre-evaluated against one [`NodeModel`]: the
/// node-state-dependent constants of the service-time model, hoisted off
/// the per-request path. Produced by [`RequestProfile::compile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CompiledService {
    /// Deterministic base cost (OLTP, PageRank, iperf) — only the jitter
    /// draw remains per request.
    Fixed(Time),
    /// KV cache: one Bernoulli miss draw selects between two
    /// precomputed costs.
    Coin {
        /// The miss probability at the node's current cache capacity as
        /// a threshold on a draw's top 53 bits: the draw misses when
        /// they fall below it ([`CompiledService::coin`]).
        miss_below: u64,
        /// Cost of a miss (backend query).
        miss: Time,
        /// Cost of a hit at the node's current capacity/memory.
        hit: Time,
    },
}

impl CompiledService {
    /// A [`Coin`](CompiledService::Coin) that misses with probability
    /// `miss_rate` (clamped to `[0, 1]`), draw for draw as
    /// [`SimRng::chance`] decides it.
    ///
    /// `chance(p)` draws `k = next_u64() >> 11` and misses when
    /// `k · 2^-53 < p`. Scaling by a power of two is exact, so that is
    /// `k < p · 2^53`, and for an integer `k` that is
    /// `k < ceil(p · 2^53)`: one integer compare per draw.
    ///
    /// # Panics
    ///
    /// Panics if `miss_rate` is NaN, as the draw itself would.
    pub fn coin(miss_rate: f64, miss: Time, hit: Time) -> Self {
        assert!(!miss_rate.is_nan(), "miss rate is NaN");
        let scaled = miss_rate.clamp(0.0, 1.0) * (1u64 << 53) as f64;
        CompiledService::Coin {
            miss_below: scaled.ceil() as u64,
            miss,
            hit,
        }
    }

    /// Draws one service time; bit-identical to
    /// [`RequestProfile::service_time`] on the node this was compiled
    /// against (same draws from `rng`, same arithmetic).
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> Time {
        self.sample_split(rng).0
    }

    /// [`sample`](Self::sample) plus which branch the draw took: `true`
    /// when a [`Coin`](CompiledService::Coin) landed on the miss cost
    /// (`false` always for [`Fixed`](CompiledService::Fixed)). The
    /// attribution path needs the branch to pick the right
    /// [`CompiledAttrib`] remote share; the draw sequence is exactly
    /// `sample`'s.
    #[inline]
    pub fn sample_split(&self, rng: &mut SimRng) -> (Time, bool) {
        let (base, is_miss) = match self {
            CompiledService::Fixed(t) => (*t, false),
            CompiledService::Coin {
                miss_below,
                miss,
                hit,
            } => {
                if rng.next_u64() >> 11 < *miss_below {
                    (*miss, true)
                } else {
                    (*hit, false)
                }
            }
        };
        (base.scale(0.9 + 0.2 * rng.unit()), is_miss)
    }

    /// Raw words [`sample_split`](Self::sample_split) takes from its
    /// stream: the jitter draw, plus the miss draw of a
    /// [`Coin`](CompiledService::Coin). A sharded run steps a foreign
    /// arrival's service draws by this count instead of sampling them.
    #[inline]
    pub fn draws(&self) -> u64 {
        match self {
            CompiledService::Fixed(_) => 1,
            CompiledService::Coin { .. } => 2,
        }
    }
}

/// The remote-CRMA share of a compiled service time, in per-mille, per
/// coin branch. Produced by [`RequestProfile::compile_attrib`] against
/// the same [`NodeModel`] as the matching [`CompiledService`].
///
/// The share is a *ratio* of the pre-jitter cost, and both the ±10 %
/// jitter and the donor-pressure factor scale the whole sample, so the
/// ratio survives them exactly: `sampled_ps * pm / 1000` is the remote
/// picoseconds of any sample drawn from the matching compiled service.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompiledAttrib {
    /// Remote share of the hit branch (and of every [`Fixed`]
    /// sample), per-mille.
    ///
    /// [`Fixed`]: CompiledService::Fixed
    pub hit_remote_pm: u32,
    /// Remote share of the miss branch, per-mille (zero for KV: a miss
    /// is a backend query, not a memory walk).
    pub miss_remote_pm: u32,
}

impl CompiledAttrib {
    /// Remote picoseconds of a sampled service time, given which branch
    /// [`CompiledService::sample_split`] took. Integer arithmetic; the
    /// result is `<= service.as_ps()` because the share is `<= 1000`.
    #[inline]
    pub fn remote_ps(&self, service: Time, is_miss: bool) -> u64 {
        let pm = if is_miss {
            self.miss_remote_pm
        } else {
            self.hit_remote_pm
        };
        service.as_ps() * u64::from(pm) / 1000
    }
}

/// `(with - without) * 1000 / with` clamped to `[0, 1000]`.
fn share_pm(with: Time, without: Time) -> u32 {
    let with_ps = with.as_ps();
    let delta = with_ps.saturating_sub(without.as_ps());
    (delta * 1000).checked_div(with_ps).unwrap_or(0).min(1000) as u32
}

impl RequestProfile {
    /// Compiles the remote-CRMA share of this profile's service time on
    /// `node`: what fraction of a sampled cost is time spent walking
    /// borrowed remote memory rather than local DRAM or CPU. Computed by
    /// differencing the cost model against itself with the remote term
    /// zeroed, so it stays consistent with [`compile`](Self::compile) by
    /// construction.
    pub fn compile_attrib(&self, node: &NodeModel) -> CompiledAttrib {
        match self {
            RequestProfile::Kv {
                cache,
                capacity_bytes,
            } => {
                if !node.has_remote() {
                    return CompiledAttrib::default();
                }
                let capacity = (cache.local_floor_bytes + node.remote_bytes).min(*capacity_bytes);
                CompiledAttrib {
                    hit_remote_pm: share_pm(
                        cache.hit_time(capacity, CacheMemory::RemoteCrma(node.remote_miss)),
                        cache.hit_time(capacity, CacheMemory::Local),
                    ),
                    // A miss pays the backend, not the borrowed tier.
                    miss_remote_pm: 0,
                }
            }
            RequestProfile::Oltp {
                workload,
                remote_fraction,
            } => {
                let f = *remote_fraction * node.fill();
                let p = workload.profile();
                let pm = share_pm(
                    p.op_time_split(f, node.remote_miss, node.local_miss),
                    p.op_time_split(f, Time::ZERO, node.local_miss),
                );
                CompiledAttrib {
                    hit_remote_pm: pm,
                    miss_remote_pm: pm,
                }
            }
            RequestProfile::PageRank {
                kernel,
                edges_per_request,
                footprint_bytes,
                remote_fraction,
            } => {
                let f = *remote_fraction * node.fill();
                let p = kernel.profile(*footprint_bytes);
                let scale = *edges_per_request as f64;
                let pm = share_pm(
                    p.op_time_split(f, node.remote_miss, node.local_miss)
                        .scale(scale),
                    p.op_time_split(f, Time::ZERO, node.local_miss).scale(scale),
                );
                CompiledAttrib {
                    hit_remote_pm: pm,
                    miss_remote_pm: pm,
                }
            }
            RequestProfile::Iperf { .. } => CompiledAttrib::default(),
        }
    }
}

/// One tenant class: a named request profile with a traffic weight, a
/// shedding priority, and an elastic-lease byte quota.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantClass {
    /// Tenant name (figure label).
    pub name: String,
    /// Request cost model.
    pub profile: RequestProfile,
    /// Relative traffic share (weights need not sum to 1).
    pub weight: f64,
    /// Admission priority: under contention, lower priorities are shed
    /// first (see [`Priority::capacity_share`]).
    pub priority: Priority,
    /// Elastic-lease byte quota: the most borrowed remote memory the
    /// lease manager may attribute to this tenant at once. Grows past it
    /// are refused locally, and while the tenant sits at its quota the
    /// admission layer clamps its in-flight share (over-quota tenants
    /// shed first). `u64::MAX` (the default) is effectively unlimited.
    pub quota_bytes: u64,
}

impl TenantClass {
    /// Creates a class at [`Priority::Normal`] with an unlimited quota.
    pub fn new(name: impl Into<String>, profile: RequestProfile, weight: f64) -> Self {
        TenantClass {
            name: name.into(),
            profile,
            weight,
            priority: Priority::Normal,
            quota_bytes: u64::MAX,
        }
    }

    /// Sets the class priority (builder style).
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the elastic-lease byte quota (builder style).
    pub fn with_quota(mut self, quota_bytes: u64) -> Self {
        self.quota_bytes = quota_bytes;
        self
    }
}

/// A complete traffic mix: weighted tenant classes over a skewed user
/// population.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMix {
    /// Mix name (figure label).
    pub name: String,
    /// The tenant classes.
    pub classes: Vec<TenantClass>,
    /// Simulated user population (user ids are ranks in `[0, users)`).
    pub users: u64,
    /// Zipf skew of user activity in `[0, 1)`; 0.9 ≈ heavy-tailed web
    /// traffic.
    pub skew: f64,
}

impl TenantMix {
    /// Creates a mix.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty, any weight is non-positive, `users`
    /// is zero, or `skew` is outside `[0, 1)`.
    pub fn new(name: impl Into<String>, classes: Vec<TenantClass>, users: u64, skew: f64) -> Self {
        assert!(!classes.is_empty(), "mix needs at least one tenant class");
        assert!(
            classes.iter().all(|c| c.weight > 0.0),
            "weights must be positive"
        );
        assert!(users > 0, "population must be non-empty");
        assert!((0.0..1.0).contains(&skew), "skew must be in [0,1)");
        TenantMix {
            name: name.into(),
            classes,
            users,
            skew,
        }
    }

    /// The per-class weights, in class order.
    pub fn weights(&self) -> Vec<f64> {
        self.classes.iter().map(|c| c.weight).collect()
    }

    /// The per-class lease quotas, in class order (what the engine hands
    /// to [`venice_lease::LeaseManager::with_quotas`]).
    pub fn quotas(&self) -> Vec<u64> {
        self.classes.iter().map(|c| c.quota_bytes).collect()
    }

    /// The user-activity sampler for this population.
    pub fn user_sampler(&self) -> ZipfSampler {
        ZipfSampler::new(self.users, self.skew)
    }

    /// A loadgen-scaled KV cache: millisecond-class backend misses and
    /// tens-of-microseconds hits, so sustained-rate runs complete in
    /// simulated seconds (the paper's Fig 14 parameters model a one-shot
    /// batch query run and are 100x slower).
    fn service_kv() -> KvCache {
        KvCache {
            value_bytes: 16 << 10,
            key_count: 40_000, // 640 MB footprint: needs the remote tier
            hit_cpu: Time::from_us(25),
            backend_cost: Time::from_ms(2),
            local_floor_bytes: 128 << 20,
            crma_overlap: 4.0,
        }
    }

    /// Web front-end mix: cache-heavy with transactional writes behind it.
    pub fn web_frontend() -> Self {
        TenantMix::new(
            "web-frontend",
            vec![
                TenantClass::new(
                    "kv-cache",
                    RequestProfile::Kv {
                        cache: Self::service_kv(),
                        capacity_bytes: 512 << 20,
                    },
                    0.70,
                )
                .with_priority(Priority::High),
                TenantClass::new(
                    "oltp",
                    RequestProfile::Oltp {
                        workload: OltpWorkload::fig5(),
                        remote_fraction: 0.5,
                    },
                    0.25,
                ),
                TenantClass::new(
                    "telemetry",
                    RequestProfile::Iperf {
                        message_bytes: 256,
                        server_cpu: Time::from_us(2),
                    },
                    0.05,
                )
                .with_priority(Priority::Low),
            ],
            2_000_000,
            0.9,
        )
    }

    /// Analytics mix: edge-dominated batch work with a metadata store.
    pub fn analytics() -> Self {
        TenantMix::new(
            "analytics",
            vec![
                TenantClass::new(
                    "pagerank",
                    RequestProfile::PageRank {
                        kernel: PageRank::new(),
                        edges_per_request: 64,
                        footprint_bytes: 1 << 30,
                        remote_fraction: 0.7,
                    },
                    0.60,
                )
                .with_priority(Priority::Low),
                TenantClass::new(
                    "oltp-metadata",
                    RequestProfile::Oltp {
                        workload: OltpWorkload::fig5(),
                        remote_fraction: 0.3,
                    },
                    0.20,
                ),
                TenantClass::new(
                    "kv-results",
                    RequestProfile::Kv {
                        cache: Self::service_kv(),
                        capacity_bytes: 256 << 20,
                    },
                    0.20,
                ),
            ],
            500_000,
            0.8,
        )
    }

    /// Messaging mix: tiny-packet dominated, latency-critical.
    pub fn messaging() -> Self {
        TenantMix::new(
            "messaging",
            vec![
                TenantClass::new(
                    "fanout",
                    RequestProfile::Iperf {
                        message_bytes: 64,
                        server_cpu: Time::from_us(4),
                    },
                    0.65,
                )
                .with_priority(Priority::High),
                TenantClass::new(
                    "inbox-kv",
                    RequestProfile::Kv {
                        cache: Self::service_kv(),
                        capacity_bytes: 384 << 20,
                    },
                    0.35,
                ),
            ],
            4_000_000,
            0.95,
        )
    }

    /// The three canonical mixes the scenarios sweep.
    pub fn presets() -> Vec<TenantMix> {
        vec![Self::web_frontend(), Self::analytics(), Self::messaging()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> NodeModel {
        NodeModel {
            local_miss: Time::from_ns(100),
            remote_miss: Time::from_us(3),
            remote_bytes: 384 << 20,
            full_bytes: 384 << 20,
            lent_bytes: 0,
            lendable_bytes: 0,
            lent_slowdown: 0.0,
        }
    }

    #[test]
    fn presets_are_well_formed() {
        for mix in TenantMix::presets() {
            assert!(!mix.classes.is_empty());
            assert!(mix.users >= 500_000);
            let z = mix.user_sampler();
            let mut rng = SimRng::seed(1);
            for _ in 0..100 {
                assert!(z.sample(&mut rng) < mix.users);
            }
        }
    }

    #[test]
    fn service_times_are_positive_and_seeded() {
        let n = node();
        for mix in TenantMix::presets() {
            for class in &mix.classes {
                let mut a = SimRng::seed(5);
                let mut b = SimRng::seed(5);
                let ta = class.profile.service_time(&mut a, &n);
                let tb = class.profile.service_time(&mut b, &n);
                assert_eq!(ta, tb, "{} not deterministic", class.name);
                assert!(ta > Time::ZERO, "{} zero service", class.name);
            }
        }
    }

    #[test]
    fn kv_miss_rate_drives_tail() {
        let kv = RequestProfile::Kv {
            cache: TenantMix::service_kv(),
            capacity_bytes: 512 << 20,
        };
        let with_remote = node();
        let without = NodeModel::local_only(Time::from_ns(100));
        let mut rng = SimRng::seed(9);
        let avg = |rng: &mut SimRng, n: &NodeModel| -> f64 {
            let total: Time = (0..2000).map(|_| kv.service_time(rng, n)).sum();
            total.as_us_f64() / 2000.0
        };
        let hot = avg(&mut rng, &with_remote);
        let cold = avg(&mut rng, &without);
        // Without the borrowed tier the cache shrinks to its local floor
        // and misses to the slow backend dominate.
        assert!(cold > hot * 2.0, "cold {cold}us vs hot {hot}us");
    }

    #[test]
    fn lent_pressure_degrades_continuously_and_recovers() {
        let mut n = node();
        n.lendable_bytes = 512 << 20;
        n.lent_slowdown = 0.5;
        assert_eq!(n.lent_factor(), 1.0, "nothing lent: no pressure");
        let base = |n: &NodeModel| {
            let mut rng = SimRng::seed(3);
            let kv = RequestProfile::Kv {
                cache: TenantMix::service_kv(),
                capacity_bytes: 512 << 20,
            };
            let total: Time = (0..500).map(|_| kv.service_time(&mut rng, n)).sum();
            total
        };
        let unlent = base(&n);
        // Half the pool out: factor 1.25, service times strictly slower.
        n.lent_bytes = 256 << 20;
        assert!((n.lent_factor() - 1.25).abs() < 1e-12);
        let half = base(&n);
        assert!(half > unlent, "lending did not slow the donor");
        // The whole pool out: factor 1.5, slower still (continuous, not
        // a binary flip).
        n.lent_bytes = 512 << 20;
        assert!((n.lent_factor() - 1.5).abs() < 1e-12);
        let full = base(&n);
        assert!(full > half);
        // Revoke lands: the pool returns and so does the service time,
        // bit for bit.
        n.lent_bytes = 0;
        assert_eq!(base(&n), unlent, "recovery must be exact");
        // Disabled term: lent bytes are free, bit-identical to unlent.
        let mut disabled = n;
        disabled.lent_bytes = 512 << 20;
        disabled.lent_slowdown = 0.0;
        assert_eq!(base(&disabled), unlent);
    }

    #[test]
    #[should_panic]
    fn empty_mix_rejected() {
        TenantMix::new("x", vec![], 10, 0.5);
    }

    #[test]
    fn sample_split_matches_sample_draw_for_draw() {
        let n = node();
        for mix in TenantMix::presets() {
            for class in &mix.classes {
                let compiled = class.profile.compile(&n);
                let mut a = SimRng::seed(0xAB);
                let mut b = SimRng::seed(0xAB);
                for _ in 0..1_000 {
                    let plain = compiled.sample(&mut a);
                    let (split, is_miss) = compiled.sample_split(&mut b);
                    assert_eq!(plain, split);
                    if matches!(compiled, CompiledService::Fixed(_)) {
                        assert!(!is_miss);
                    }
                }
            }
        }
    }

    #[test]
    fn coin_threshold_matches_chance_draw_for_draw() {
        // Every preset KV class's miss rate, with and without a remote
        // tier, plus the clamp's edges.
        let mut rates = vec![0.0, 1.0, 1e-300, 0.5, -0.25, 1.25];
        for mix in TenantMix::presets() {
            for class in &mix.classes {
                if let RequestProfile::Kv {
                    cache,
                    capacity_bytes,
                } = &class.profile
                {
                    for n in [NodeModel::local_only(Time::from_ns(100)), node()] {
                        let capacity =
                            (cache.local_floor_bytes + n.remote_bytes).min(*capacity_bytes);
                        rates.push(cache.miss_rate(capacity));
                    }
                }
            }
        }
        assert!(rates.len() > 6, "the presets carry KV classes");
        let (miss, hit) = (Time::from_us(900), Time::from_us(3));
        for p in rates {
            let coin = CompiledService::coin(p, miss, hit);
            let mut a = SimRng::seed(0x5EED);
            let mut b = a.clone();
            for i in 0..20_000 {
                let (t, is_miss) = coin.sample_split(&mut a);
                let want = b.chance(p);
                let base = if want { miss } else { hit };
                assert_eq!(is_miss, want, "p = {p:e}, draw {i}");
                assert_eq!(t, base.scale(0.9 + 0.2 * b.unit()), "p = {p:e}, draw {i}");
            }
        }
        // Only the all-zero draw misses at 1e-300, which 20,000 draws
        // will not meet: pin the thresholds themselves.
        let below = |p| match CompiledService::coin(p, miss, hit) {
            CompiledService::Coin { miss_below, .. } => miss_below,
            CompiledService::Fixed(_) => unreachable!("coin builds a Coin"),
        };
        assert_eq!(below(0.0), 0);
        assert_eq!(below(1e-300), 1);
        assert_eq!(below(1.0), 1 << 53);
        assert_eq!(below(0.5), 1 << 52);
    }

    #[test]
    #[should_panic(expected = "miss rate is NaN")]
    fn coin_rejects_a_nan_miss_rate() {
        CompiledService::coin(f64::NAN, Time::from_us(900), Time::from_us(3));
    }

    #[test]
    fn compiled_attrib_shares_are_sane() {
        let with_remote = node();
        let without = NodeModel::local_only(Time::from_ns(100));
        for mix in TenantMix::presets() {
            for class in &mix.classes {
                let hot = class.profile.compile_attrib(&with_remote);
                let cold = class.profile.compile_attrib(&without);
                assert!(hot.hit_remote_pm <= 1000 && hot.miss_remote_pm <= 1000);
                // No borrowed tier, no remote time.
                assert_eq!(cold, CompiledAttrib::default(), "{}", class.name);
                match &class.profile {
                    RequestProfile::Iperf { .. } => {
                        assert_eq!(hot, CompiledAttrib::default())
                    }
                    RequestProfile::Kv { .. } => {
                        assert!(hot.hit_remote_pm > 0, "remote hits walk CRMA");
                        assert_eq!(hot.miss_remote_pm, 0, "misses pay the backend");
                    }
                    _ => assert!(hot.hit_remote_pm > 0, "{}", class.name),
                }
                // The share bounds the attributed remote picoseconds by
                // the sample itself.
                let compiled = class.profile.compile(&with_remote);
                let mut rng = SimRng::seed(11);
                for _ in 0..200 {
                    let (t, is_miss) = compiled.sample_split(&mut rng);
                    assert!(hot.remote_ps(t, is_miss) <= t.as_ps());
                }
            }
        }
    }

    #[test]
    fn compiled_service_is_bit_identical_to_interpreted() {
        // The typed engine's hot path relies on compile()+sample()
        // replaying service_time() exactly: same rng draw count, same
        // bits out, across every preset profile and node state.
        let nodes = [
            NodeModel::local_only(Time::from_ns(100)),
            NodeModel {
                local_miss: Time::from_ns(100),
                remote_miss: Time::from_us(3),
                remote_bytes: 256 << 20,
                full_bytes: 256 << 20,
                lent_bytes: 0,
                lendable_bytes: 0,
                lent_slowdown: 0.0,
            },
            NodeModel {
                local_miss: Time::from_ns(100),
                remote_miss: Time::from_us(7),
                remote_bytes: 64 << 20,
                full_bytes: 512 << 20,
                lent_bytes: 0,
                lendable_bytes: 0,
                lent_slowdown: 0.0,
            },
            // A pressured donor: half its pool lent at a 60 % max
            // slowdown — the pressure term must stay bit-identical
            // between the interpreted and compiled paths too.
            NodeModel {
                local_miss: Time::from_ns(100),
                remote_miss: Time::from_us(3),
                remote_bytes: 128 << 20,
                full_bytes: 256 << 20,
                lent_bytes: 256 << 20,
                lendable_bytes: 512 << 20,
                lent_slowdown: 0.6,
            },
        ];
        for mix in TenantMix::presets() {
            for class in &mix.classes {
                for node in &nodes {
                    let compiled = class.profile.compile(node);
                    let mut a = SimRng::seed(0xC0FFEE);
                    let mut b = SimRng::seed(0xC0FFEE);
                    for i in 0..2_000 {
                        let interp = class.profile.service_time(&mut a, node);
                        let fast = compiled.sample(&mut b);
                        assert_eq!(
                            interp.as_ps(),
                            fast.as_ps(),
                            "{} sample {i} diverged",
                            class.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn draws_count_the_words_sample_split_takes() {
        // A sharded run steps a foreign arrival's service draws by
        // `draws()` instead of sampling them: the count must be exactly
        // the raw words `sample_split` consumes, on a node with a remote
        // tier and on one without, for every preset profile.
        let nodes = [NodeModel::local_only(Time::from_ns(100)), node()];
        for mix in TenantMix::presets() {
            for class in &mix.classes {
                for node in &nodes {
                    let compiled = class.profile.compile(node);
                    let mut sampled = SimRng::seed(0xD4A5);
                    let mut stepped = sampled.clone();
                    for i in 0..500 {
                        compiled.sample_split(&mut sampled);
                        for _ in 0..compiled.draws() {
                            stepped.next_u64();
                        }
                        assert_eq!(
                            sampled.next_u64(),
                            stepped.next_u64(),
                            "{} draw {i}: {compiled:?} takes a different word count",
                            class.name
                        );
                    }
                }
            }
        }
    }
}
