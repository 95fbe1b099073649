//! The [`Probe`] trait: hook points the engine is generic over.
//!
//! The loadgen engine takes a `P: Probe` type parameter and guards
//! every hook site with `if P::ENABLED`. For [`NoopProbe`] that guard
//! is a compile-time `false`, so the entire observability layer
//! monomorphizes away — the disabled engine is instruction-for-
//! instruction the pre-telemetry engine, which is what keeps the
//! golden corpus (`BENCH_golden.jsonl`) byte-identical.
//!
//! [`RecordingProbe`] is the batteries-included implementation: event
//! counters with sim-time attribution, a ring-buffered series recorder,
//! and a lease-span log. It never schedules events or consumes
//! randomness, so enabling it cannot change what a run computes — only
//! what the run *reports* about itself.

use venice_sim::{QueueStats, Time};

use crate::attrib::{AttribFold, StageBreakdown};
use crate::series::{SampleRow, SeriesRecorder};
use crate::spans::{SpanKind, SpanLog};

/// Number of event-kind slots a probe tracks. Engines map their event
/// enum onto `0..EVENT_KIND_SLOTS`; unused slots stay zero and are
/// skipped at export.
pub const EVENT_KIND_SLOTS: usize = 16;

/// Observation hooks threaded through a simulation engine.
///
/// Every method has an empty default body and every call site is
/// guarded by [`Probe::ENABLED`], so implementors override only what
/// they record and disabled probes cost nothing. Hooks observe; they
/// must never mutate the simulation (the engine hands them no way to).
pub trait Probe {
    /// Whether the engine's hook sites should be compiled in. Hot-path
    /// guards read this associated constant, so a `false` probe's hooks
    /// are dead code, not cheap code.
    const ENABLED: bool;

    /// Whether the engine's per-request attribution stamping (side-slab
    /// lifecycle timestamps, stage telescoping, the
    /// [`on_request`](Self::on_request)/[`on_shed`](Self::on_shed)
    /// hooks) is compiled in. A second monomorphized gate on top of
    /// [`ENABLED`](Self::ENABLED): attribution touches every
    /// completion, which is heavier than the sampling probe's wall-
    /// clock budget allows, so probes that only sample leave it `false`
    /// and the stamping is dead code for them too. `true` requires
    /// `ENABLED` (the engine only checks `ATTRIB` inside enabled
    /// paths or on sites that imply it).
    const ATTRIB: bool = false;

    /// An event of `kind` (the engine's own enum discriminant, `<`
    /// [`EVENT_KIND_SLOTS`]) fired at `now`.
    fn on_event(&mut self, _kind: u8, _now: Time) {}

    /// An arrival was absorbed by lookahead fusion at `now` instead of
    /// round-tripping through the queue (it does *not* also reach
    /// [`on_event`](Self::on_event)).
    fn on_fused_arrival(&mut self, _now: Time) {}

    /// Asks whether a sample tick boundary has been crossed by `now`;
    /// returns the boundary timestamp to stamp the sample with. The
    /// engine calls this once per fired event and, on `Some`, builds a
    /// [`SampleRow`] and hands it to [`on_sample`](Self::on_sample).
    fn sample_due(&mut self, _now: Time) -> Option<Time> {
        None
    }

    /// Receives the cross-section sampled for tick boundary `at`.
    fn on_sample(&mut self, _at: Time, _row: SampleRow) {}

    /// A lease-lifecycle phase began.
    fn span_open(&mut self, _kind: SpanKind, _node: u16, _generation: u64, _at: Time) {}

    /// A lease-lifecycle phase ended.
    fn span_close(&mut self, _kind: SpanKind, _node: u16, _generation: u64, _at: Time) {}

    /// End-of-run kernel queue counters: cumulative traffic stats,
    /// `(live, high-water)` slab occupancy, and peak pending depth.
    fn on_queue_stats(&mut self, _stats: QueueStats, _slab: (usize, usize), _peak_depth: usize) {}

    /// A request completed: its per-stage latency breakdown, which must
    /// sum exactly to the end-to-end latency (see
    /// [`StageBreakdown::is_exact`]). `tenant` is the mix-class index,
    /// `node` the server that executed the request.
    fn on_request(&mut self, _tenant: u16, _node: u16, _stages: StageBreakdown) {}

    /// A request was shed before service. `reason` indexes
    /// [`crate::attrib::SHED_LABELS`].
    fn on_shed(&mut self, _tenant: u16, _node: u16, _reason: u8, _now: Time) {}
}

/// The zero-cost disabled probe: `ENABLED = false`, all hooks inert.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    const ENABLED: bool = false;
}

/// A probe that records everything: per-kind event counters with
/// sim-time attribution, fused-arrival counts, a ring-buffered sample
/// series, lease spans, and the kernel's queue statistics.
///
/// The `ATTRIB` const parameter arms per-request latency attribution
/// (see [`Probe::ATTRIB`]). The default `RecordingProbe` leaves it off
/// — that is the probe the 5% overhead gate times. [`AttribProbe`]
/// turns it on; its contract is byte-identical reports, not wall
/// clock.
#[derive(Debug, Clone)]
pub struct RecordingProbe<const ATTRIB: bool = false> {
    events_by_kind: [u64; EVENT_KIND_SLOTS],
    /// Simulated time attributed to each kind: the gap between an event
    /// and its predecessor is charged to the event that ends the gap
    /// ("how long did the run sit waiting for this kind of work").
    time_by_kind_ps: [u64; EVENT_KIND_SLOTS],
    last_event_at: Time,
    fused: u64,
    next_due: Time,
    series: SeriesRecorder,
    spans: SpanLog,
    queue_stats: QueueStats,
    slab: (usize, usize),
    peak_depth: usize,
    attrib: AttribFold,
}

/// [`RecordingProbe`] with per-request latency attribution armed: the
/// engine stamps every request's lifecycle and the probe folds each
/// completion into its [`AttribFold`].
pub type AttribProbe = RecordingProbe<true>;

impl<const ATTRIB: bool> RecordingProbe<ATTRIB> {
    /// Creates a probe sampling every `tick`, retaining `cap` rows.
    pub fn new(tick: Time, cap: usize) -> Self {
        RecordingProbe {
            events_by_kind: [0; EVENT_KIND_SLOTS],
            time_by_kind_ps: [0; EVENT_KIND_SLOTS],
            last_event_at: Time::ZERO,
            fused: 0,
            next_due: tick,
            series: SeriesRecorder::new(tick, cap),
            spans: SpanLog::new(),
            queue_stats: QueueStats::default(),
            slab: (0, 0),
            peak_depth: 0,
            attrib: AttribFold::new(),
        }
    }

    /// Events fired, by kind slot.
    pub fn events_by_kind(&self) -> &[u64; EVENT_KIND_SLOTS] {
        &self.events_by_kind
    }

    /// Simulated picoseconds attributed to each kind slot.
    pub fn time_by_kind_ps(&self) -> &[u64; EVENT_KIND_SLOTS] {
        &self.time_by_kind_ps
    }

    /// Total events observed across all kinds.
    pub fn total_events(&self) -> u64 {
        self.events_by_kind.iter().sum()
    }

    /// Arrivals absorbed by lookahead fusion.
    pub fn fused(&self) -> u64 {
        self.fused
    }

    /// The recorded sample series.
    pub fn series(&self) -> &SeriesRecorder {
        &self.series
    }

    /// The recorded lease spans.
    pub fn spans(&self) -> &SpanLog {
        &self.spans
    }

    /// End-of-run queue traffic counters.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue_stats
    }

    /// End-of-run `(live, high-water)` queue-slab occupancy.
    pub fn slab(&self) -> (usize, usize) {
        self.slab
    }

    /// Peak pending event-queue depth.
    pub fn peak_depth(&self) -> usize {
        self.peak_depth
    }

    /// The per-tenant × per-node latency attribution fold.
    pub fn attrib(&self) -> &AttribFold {
        &self.attrib
    }
}

impl<const ATTRIB: bool> Probe for RecordingProbe<ATTRIB> {
    const ENABLED: bool = true;
    const ATTRIB: bool = ATTRIB;

    fn on_event(&mut self, kind: u8, now: Time) {
        let slot = (kind as usize).min(EVENT_KIND_SLOTS - 1);
        self.events_by_kind[slot] += 1;
        let gap = now.saturating_sub(self.last_event_at);
        self.time_by_kind_ps[slot] += gap.as_ps();
        self.last_event_at = now;
    }

    fn on_fused_arrival(&mut self, _now: Time) {
        self.fused += 1;
    }

    fn sample_due(&mut self, now: Time) -> Option<Time> {
        if now < self.next_due {
            return None;
        }
        // Stamp at the *last* boundary `now` crossed: if events are
        // sparse enough to skip whole ticks, the series records one row
        // at the most recent boundary rather than a backlog of stale
        // rows — sample times stay a deterministic function of the
        // event stream alone.
        let tick_ps = self.series.tick().as_ps();
        let boundary = Time::from_ps((now.as_ps() / tick_ps) * tick_ps);
        self.next_due = boundary
            .checked_add(self.series.tick())
            .expect("tick overflow");
        Some(boundary)
    }

    fn on_sample(&mut self, at: Time, row: SampleRow) {
        self.series.push(at, row);
    }

    fn span_open(&mut self, kind: SpanKind, node: u16, generation: u64, at: Time) {
        self.spans.open(kind, node, generation, at);
    }

    fn span_close(&mut self, kind: SpanKind, node: u16, generation: u64, at: Time) {
        self.spans.close(kind, node, generation, at);
    }

    fn on_queue_stats(&mut self, stats: QueueStats, slab: (usize, usize), peak_depth: usize) {
        self.queue_stats = stats;
        self.slab = slab;
        self.peak_depth = peak_depth;
    }

    fn on_request(&mut self, tenant: u16, node: u16, stages: StageBreakdown) {
        self.attrib.record(tenant, node, stages);
    }

    fn on_shed(&mut self, tenant: u16, _node: u16, reason: u8, _now: Time) {
        self.attrib.on_shed(tenant, reason);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_probe_is_disabled() {
        const { assert!(!NoopProbe::ENABLED) }
    }

    #[test]
    fn event_time_is_attributed_to_the_gap_ender() {
        let mut p: RecordingProbe = RecordingProbe::new(Time::from_ms(1), 8);
        p.on_event(0, Time::from_us(10));
        p.on_event(1, Time::from_us(25));
        p.on_event(0, Time::from_us(25)); // zero-gap tie
        assert_eq!(p.events_by_kind()[0], 2);
        assert_eq!(p.events_by_kind()[1], 1);
        assert_eq!(p.time_by_kind_ps()[0], Time::from_us(10).as_ps());
        assert_eq!(p.time_by_kind_ps()[1], Time::from_us(15).as_ps());
        assert_eq!(p.total_events(), 3);
    }

    #[test]
    fn sample_due_fires_once_per_crossed_boundary() {
        let mut p: RecordingProbe = RecordingProbe::new(Time::from_us(10), 8);
        assert_eq!(p.sample_due(Time::from_us(3)), None);
        // Crossing the 10 µs boundary fires exactly once...
        assert_eq!(p.sample_due(Time::from_us(12)), Some(Time::from_us(10)));
        assert_eq!(p.sample_due(Time::from_us(13)), None);
        // ...and skipping several boundaries stamps only the last one.
        assert_eq!(p.sample_due(Time::from_us(57)), Some(Time::from_us(50)));
        assert_eq!(p.sample_due(Time::from_us(59)), None);
        assert_eq!(p.sample_due(Time::from_us(60)), Some(Time::from_us(60)));
    }
}
