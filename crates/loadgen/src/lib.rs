#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # venice-loadgen: deterministic traffic generation for the Venice cluster
//!
//! The paper evaluates Venice with one-shot workload runs on an 8-node
//! prototype. This crate adds the layer a production-scale study needs:
//! a discrete-event **traffic engine** that drives a [`venice::cluster::Cluster`]
//! with sustained, multi-tenant load and reports tail latency per tenant.
//!
//! The pieces compose as follows:
//!
//! * [`arrival`] — open-loop Poisson and bursty arrival processes,
//!   drawn onto the arrival tape through [`venice_sim::SimRng`] so
//!   identical seeds replay identical traces bit for bit;
//! * [`tenants`] — [`tenants::TenantMix`]: weighted tenant classes wrapping
//!   the calibrated `venice-workloads` request models (KV cache, OLTP,
//!   PageRank, iperf) over a Zipf-skewed population of millions of
//!   simulated users;
//! * [`admission`] — **per-node** token-bucket policing plus
//!   priority-scaled in-flight caps (low-priority tenants shed first
//!   under contention), with QPair credit exhaustion acting as per-node
//!   transport backpressure;
//! * [`stacks`] — the remote-memory stacks a run can mount: Venice CRMA
//!   or the `venice-baselines` comparison systems (soNUMA-style
//!   messaging, swap-to-remote) under identical traffic;
//! * [`engine`] — the event loop on [`venice_sim::Kernel`]: requests
//!   transit a QPair from the edge gateway, queue on per-node service
//!   slots, and record completion latency into
//!   [`venice_sim::LogHistogram`]s (p50/p95/p99/p99.9 per tenant).
//!   The remote tier provisions either statically at setup or
//!   **elastically** through a [`venice_lease::LeaseManager`] that
//!   borrows and releases capacity mid-run as queue depth crosses its
//!   watermarks; routing is locality-aware (requests follow their
//!   tenant's lease). Every way of running the engine goes through one
//!   builder, [`engine::Run`]: `.traced()` exports per-request
//!   [`trace::Trace`] records, `.replay(&trace)` re-drives one,
//!   `.probe(p)` threads telemetry hooks through the run;
//! * [`remote`] — how remote transfers are priced: the measured
//!   per-node scalar (the frozen default) or [`remote::CongestedFabric`],
//!   which routes each request's bytes over compiled mesh paths with
//!   finite per-direction bandwidth so CRMA latency tracks live
//!   congestion and lease *placement* matters;
//! * [`sweep`] — a rayon-parallel grid runner over (mesh size, tenant mix,
//!   arrival rate, remote stack) whose output is deterministic at any
//!   thread count;
//! * [`faults`] — deterministic fault injection: [`faults::NoFaults`]
//!   compiles every chaos hook away (the frozen baseline), while a
//!   [`faults::FaultPlan`] armed through `Run::faults` injects a
//!   replayable schedule of node crashes, link flaps, and packet loss;
//!   leases on a dead donor fail over, in-flight requests on a crashed
//!   node shed with their own reason slot, and sessions re-route to
//!   survivors;
//! * [`scenarios`] — the registry of loadgen figure families layered
//!   beyond the paper's figures: one [`scenarios::Family`] entry each
//!   for [`elastic`], [`elastic_v2`], [`economy`], [`congestion`],
//!   [`failover`], and the storm, run by one rayon runner and consumed
//!   by every `venice-bench` binary.
//!
//! # Example
//!
//! ```
//! use venice_loadgen::{engine::Run, tenants::TenantMix, LoadgenConfig};
//!
//! let config = LoadgenConfig {
//!     requests: 2_000,
//!     ..LoadgenConfig::new(42, TenantMix::web_frontend())
//! };
//! let a = Run::new(&config).execute().report;
//! let b = Run::new(&config).execute().report;
//! assert_eq!(a, b); // same seed, same traffic, same tails
//! assert!(a.completed > 0);
//! ```

pub mod admission;
pub mod arrival;
pub mod congestion;
pub mod economy;
pub mod elastic;
pub mod elastic_v2;
pub mod engine;
pub mod failover;
pub mod faults;
pub mod legacy;
pub mod remote;
pub mod report;
pub mod scenarios;
mod sharded;
pub mod stacks;
pub mod sweep;
mod tape;
pub mod telemetry;
pub mod tenants;
pub mod trace;

pub use admission::AdmissionConfig;
pub use arrival::ArrivalProcess;
pub use engine::{
    EngineMetrics, ExecPath, FallbackReason, IneligibleKind, LoadgenConfig, Run, RunOutput,
};
pub use faults::{FaultEvent, FaultModel, FaultPlan, NoFaults};
pub use remote::{FabricParams, PlacementPolicy, RemoteModelCfg};
pub use report::{LeaseSummary, LoadReport, TenantReport};
pub use stacks::RemoteStack;
pub use sweep::{SweepPoint, SweepSpec};
pub use tenants::{RequestProfile, TenantClass, TenantMix};
pub use trace::{RequestOutcome, RequestRecord, Trace};

pub use venice_lease::{LeaseConfig, Priority};

/// The canonical node identifier, shared by every layer: defined once
/// in `venice_fabric::topology`, re-exported by the `venice` core
/// crate, and re-exported here so loadgen callers never reach into a
/// lower crate for it. `venice_loadgen::NodeId`, `venice::NodeId`, and
/// `venice_fabric::NodeId` are the same type.
pub use venice::NodeId;
