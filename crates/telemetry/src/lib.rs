#![deny(missing_docs)]

//! Deterministic observability for Venice runs.
//!
//! Everything the workspace measures — kernel throughput, lease-economy
//! fairness, admission behavior — happens *inside* a simulated run, and
//! until this crate the only way to see it was the final report: totals
//! with no trajectory. `venice-telemetry` threads a [`Probe`] through
//! the loadgen engine so a run can be observed while it happens,
//! without perturbing it:
//!
//! * **Zero overhead when disabled.** [`Probe`] is a trait the engine
//!   is generic over; [`NoopProbe`] has `ENABLED = false` and empty
//!   hook bodies, so every hook site guarded by `if P::ENABLED`
//!   monomorphizes to nothing. The default engine entry points run the
//!   no-op probe and stay byte-identical to their pre-telemetry output.
//! * **Deterministic when enabled.** A [`RecordingProbe`] never
//!   schedules events, reads clocks, or allocates identity — it only
//!   observes the event stream the kernel was going to execute anyway.
//!   Samples are timestamped at simulated-tick boundaries, so the same
//!   seed yields the same artifact byte-for-byte at any thread count.
//! * **Three signal shapes.** Per-event counters (fired/fused by kind,
//!   plus [`venice_sim::QueueStats`] from the event queue), a
//!   ring-buffered time series of per-node gauges and per-tenant
//!   counters ([`series`]), and sim-time spans over lease lifecycles
//!   ([`spans`]), recorded onto a [`venice_sim::Timeline`].
//!
//! The [`export`] module renders a probe into the `venice-telemetry-v2`
//! JSONL artifact; [`profile`] renders the same data as a human text
//! report (the `venice-bench` `profile` bin drives both).
//!
//! On top of the event/series/span signals, [`attrib`] adds per-request
//! latency attribution: the engine stamps each request's lifecycle
//! stages ([`attrib::StageBreakdown`], which must sum *exactly* to the
//! end-to-end latency) through [`Probe::on_request`], and
//! [`attrib::AttribFold`] folds them into per-tenant × per-node stage
//! totals plus per-tenant tail (≥ p99 bucket) critical-path summaries.
//! [`report`] renders one or two folds into the `venice-attrib-v1`
//! JSONL artifact and the differential *explain* text report that names
//! the stage responsible for a p99 shift between two runs (the
//! `venice-bench` `explain` bin drives both).

pub mod attrib;
pub mod export;
pub mod probe;
pub mod profile;
pub mod report;
pub mod series;
pub mod spans;

pub use attrib::{AttribFold, StageBreakdown, TenantSummary, STAGES, STAGE_LABELS};
pub use export::{export_jsonl, jsonl_line};
pub use probe::{AttribProbe, NoopProbe, Probe, RecordingProbe};
pub use profile::render_profile;
pub use report::{diff_tenants, export_attrib_jsonl, render_explain, TenantDiff, ATTRIB_SCHEMA};
pub use series::{LinkGauge, NodeGauges, SampleRow, SeriesRecorder, TenantCounters};
pub use spans::{Span, SpanKind, SpanLog};
