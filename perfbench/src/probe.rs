//! A wall-clock [`Probe`]: reads the host clock at every engine hook and
//! charges the time since the previous hook to the previous hook's kind.
//!
//! The engine calls [`Probe::on_event`] as each event fires and
//! [`Probe::on_fused_arrival`] for each arrival processed in place by
//! lookahead fusion, then [`Probe::on_queue_stats`] once its event loop
//! has drained. So for one execution:
//!
//! * set-up is the time from the call into the engine to the first hook;
//! * each kind's self time is the sum of the gaps that start at a hook of
//!   that kind (the handler itself plus the kernel's pop of the next
//!   event);
//! * report time is the time from the end of the event loop until the
//!   engine returns.
//!
//! These three parts sum to the execution's wall time by construction.

use std::time::Instant;

use venice_sim::{QueueStats, Time};
use venice_telemetry::Probe;

/// Slots: the engine's event kinds `0..8` plus one for fused arrivals.
pub const SLOTS: usize = 9;

/// Slot of arrivals absorbed by lookahead fusion.
pub const FUSED: usize = 8;

/// Metric stem of each slot, in slot order (the engine's
/// `EngineEvent::kind` numbering).
pub const SLOT_NAMES: [&str; SLOTS] = [
    "arrival",
    "session_next",
    "replay_next",
    "finish",
    "lease_tick",
    "lease_established",
    "revoke_torndown",
    "fault_tick",
    "fused_arrival",
];

/// Host-time breakdown of one or more probed executions.
#[derive(Debug, Clone, Copy, Default)]
pub struct Breakdown {
    /// Self nanoseconds per slot.
    pub self_ns: [u64; SLOTS],
    /// Hooks per slot.
    pub hooks: [u64; SLOTS],
    /// Nanoseconds from the engine call to the first hook.
    pub setup_ns: u64,
    /// Nanoseconds from the end of the event loop to the engine's return.
    pub report_ns: u64,
}

impl Breakdown {
    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: &Breakdown) {
        for slot in 0..SLOTS {
            self.self_ns[slot] += other.self_ns[slot];
            self.hooks[slot] += other.hooks[slot];
        }
        self.setup_ns += other.setup_ns;
        self.report_ns += other.report_ns;
    }

    /// Every accounted nanosecond: set-up, all self times, and report.
    pub fn accounted_ns(&self) -> u64 {
        self.setup_ns + self.self_ns.iter().sum::<u64>() + self.report_ns
    }
}

/// The probe threaded through one traced execution.
#[derive(Debug)]
pub struct WallProbe {
    start: Instant,
    /// Previous hook: when it ran and which slot it belongs to.
    last: Option<(Instant, usize)>,
    loop_end: Option<Instant>,
    breakdown: Breakdown,
}

impl WallProbe {
    /// A probe whose set-up interval starts now; create it immediately
    /// before handing it to the engine.
    pub fn start() -> Self {
        WallProbe {
            start: Instant::now(),
            last: None,
            loop_end: None,
            breakdown: Breakdown::default(),
        }
    }

    fn hook(&mut self, slot: usize) {
        let now = Instant::now();
        self.close_gap(now);
        self.last = Some((now, slot));
        self.breakdown.hooks[slot] += 1;
    }

    /// Charges the gap since the previous hook to that hook's slot (or to
    /// set-up, before the first hook).
    fn close_gap(&mut self, now: Instant) {
        match self.last {
            Some((at, slot)) => self.breakdown.self_ns[slot] += nanos(now - at),
            None => self.breakdown.setup_ns = nanos(now - self.start),
        }
    }

    /// Closes the probe once the engine has returned. An execution that
    /// never reported the end of its event loop leaves its tail
    /// unaccounted, which the benchmark's accounting check reports.
    pub fn finish(mut self) -> Breakdown {
        if let Some(loop_end) = self.loop_end {
            self.breakdown.report_ns = nanos(loop_end.elapsed());
        }
        self.breakdown
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Probe for WallProbe {
    const ENABLED: bool = true;

    fn on_event(&mut self, kind: u8, _now: Time) {
        self.hook((kind as usize).min(FUSED - 1));
    }

    fn on_fused_arrival(&mut self, _now: Time) {
        self.hook(FUSED);
    }

    fn on_queue_stats(&mut self, _stats: QueueStats, _slab: (usize, usize), _peak: usize) {
        let now = Instant::now();
        self.close_gap(now);
        self.last = None;
        self.loop_end = Some(now);
    }
}
