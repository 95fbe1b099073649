//! Characterization of how arrivals reach a sequential world.
//!
//! Open-loop runs at request counts on either side of every arrival-feed
//! edge (blocks of 256, a ring of four blocks, epochs of 2,048) and one
//! run of many epochs, Poisson and bursty, each on one thread and on
//! two (where a fill helper fills the tape beside the world).
//! Every run pins a 64-bit FNV-1a hash of its report JSON and trace
//! JSONL together with its loop counters: logical events, arrivals
//! issued in place, peak queue depth, event-queue traffic and slab
//! occupancy.
//!
//! The hash and event columns were recorded before the arrival feed was
//! first reworked, and hold for any correct event queue and any way of
//! feeding it arrivals: they survived the tape, the slot ring, and the
//! arrival loop that took arrivals out of the queue. The other columns
//! describe how arrivals meet the queue (every arrival is issued in
//! place, so the fused column equals the request count) and the slot
//! ring's own counters (see `venice_sim::QueueStats`); they are
//! re-pinned when either changes.
//!
//! A replay of a traced run pins its report, trace and logical event
//! count only.

use super::*;
use crate::trace::fnv1a;

/// Request counts around the feed's edges, and a run of many epochs.
#[rustfmt::skip]
const COUNTS: [u64; 11] = [1, 255, 256, 257, 1023, 1024, 1025, 2047, 2048, 2049, 5 * 2048 + 7];

/// `(hash, events, fused arrivals, peak queue depth, slab occupancy,
/// [run pushes, ring pushes, far-list promotions, pops without refill,
/// refilling pops])`, the counters in `QueueStats` field order.
type Row = (u64, u64, u64, usize, (usize, usize), [u64; 5]);

/// Poisson rows, one per entry of [`COUNTS`].
#[rustfmt::skip]
const POISSON: [Row; 11] = [
    (0x7958df4627555db7, 2, 1, 1, (0, 0), [1, 0, 0, 1, 0]),
    (0xb5890456325f8b6f, 510, 255, 20, (0, 19), [75, 180, 0, 82, 173]),
    (0x52773eca164d7843, 512, 256, 20, (0, 19), [76, 180, 0, 83, 173]),
    (0x9eebc8dd1778d280, 514, 257, 20, (0, 19), [76, 181, 0, 83, 174]),
    (0xd3a5d17760feef69, 2046, 1023, 25, (0, 24), [239, 784, 0, 264, 759]),
    (0xac38ff0c7b3e656c, 2048, 1024, 25, (0, 24), [239, 785, 0, 265, 759]),
    (0x96e80da8295d2726, 2050, 1025, 25, (0, 24), [239, 786, 0, 265, 760]),
    (0x83c499904e80c533, 4094, 2047, 26, (0, 24), [467, 1580, 0, 530, 1517]),
    (0x7b0bfb8c40418966, 4096, 2048, 26, (0, 24), [467, 1581, 0, 530, 1518]),
    (0xaa7cc4e3125ad44f, 4098, 2049, 26, (0, 24), [468, 1581, 0, 531, 1518]),
    (0xf7022c7d0619096b, 20494, 10247, 29, (0, 27), [2352, 7895, 0, 2668, 7579]),
];

/// Bursty rows, one per entry of [`COUNTS`].
#[rustfmt::skip]
const BURSTY: [Row; 11] = [
    (0xfb462c4cee4c9b15, 2, 1, 1, (0, 0), [1, 0, 0, 1, 0]),
    (0x0c7a045dd3435075, 510, 255, 88, (0, 87), [8, 247, 0, 41, 214]),
    (0x1983083d1ecdcd7f, 512, 256, 88, (0, 87), [8, 248, 0, 41, 215]),
    (0x92e0314ceafa6fdb, 514, 257, 88, (0, 87), [8, 249, 0, 41, 216]),
    (0xd070ff7622ccf431, 2046, 1023, 122, (0, 121), [23, 1000, 0, 161, 862]),
    (0xe3ad62e3f4b4e856, 2048, 1024, 122, (0, 121), [23, 1001, 0, 161, 863]),
    (0xa95d2734b6dedebe, 2050, 1025, 122, (0, 121), [23, 1002, 0, 161, 864]),
    (0x07ca53b67414f4e9, 4094, 2047, 122, (0, 121), [51, 1996, 0, 344, 1703]),
    (0xc99f2c5805579b39, 4096, 2048, 122, (0, 121), [51, 1997, 0, 344, 1704]),
    (0x5b8b0db2aa38240f, 4098, 2049, 122, (0, 121), [51, 1998, 0, 344, 1705]),
    (0xcda214210dd6f9e3, 20494, 10247, 123, (0, 122), [438, 9809, 0, 1889, 8358]),
];

/// `(hash, events)` of the replay of a traced Poisson run.
const REPLAY: (u64, u64) = (0xefedd69df0deafad, 6000);

fn poisson(requests: u64) -> LoadgenConfig {
    LoadgenConfig {
        requests,
        ..LoadgenConfig::new(0xC4A2, TenantMix::web_frontend())
    }
}

fn bursty(requests: u64) -> LoadgenConfig {
    LoadgenConfig {
        arrival: ArrivalProcess::Bursty {
            base_rps: 20_000.0,
            burst_rps: 150_000.0,
            period: Time::from_ms(20),
            burst_len: Time::from_ms(5),
            crowd_users: 4,
            crowd_share: 0.3,
        },
        ..poisson(requests)
    }
}

/// Hash of the report JSON followed by the trace JSONL.
fn hash(report: &LoadReport, trace: &Option<Trace>) -> u64 {
    let mut bytes = serde_json::to_string(report).expect("report serializes");
    bytes.push('\n');
    bytes.push_str(&trace.as_ref().map(Trace::to_jsonl).unwrap_or_default());
    fnv1a(bytes.as_bytes())
}

/// Runs `config`, traced, replaying `replay` if given, on `threads`
/// threads.
fn run(config: &LoadgenConfig, replay: Option<&Trace>, threads: usize) -> (Row, Option<Trace>) {
    let pace = Lockstep {
        epoch: crate::tape::EPOCH,
        threads,
    };
    let (report, trace, m, NoopProbe) = run_full(config, replay, true, NoopProbe, None, pace);
    let q = m.queue;
    let row = (
        hash(&report, &trace),
        m.events,
        m.fused_arrivals,
        m.peak_queue_depth,
        m.slab,
        [
            q.near_hits,
            q.heap_pushes,
            q.near_spills,
            q.near_pops,
            q.heap_pops,
        ],
    );
    (row, trace)
}

#[test]
fn sequential_open_loop_runs_match_their_pinned_rows() {
    let mut mismatched = Vec::new();
    let mut actual = String::new();
    for (name, make, pinned) in [
        ("POISSON", poisson as fn(u64) -> LoadgenConfig, &POISSON),
        ("BURSTY", bursty, &BURSTY),
    ] {
        actual.push_str(&format!("const {name}: [Row; 11] = [\n"));
        for (&requests, want) in COUNTS.iter().zip(pinned) {
            let config = make(requests);
            let (inline, _) = run(&config, None, 1);
            let (helped, _) = run(&config, None, 2);
            assert_eq!(helped, inline, "{name} {requests}: thread counts disagree");
            if (inline.0, inline.1) != (want.0, want.1) {
                mismatched.push(format!("{name} {requests}: run"));
            } else if inline != *want {
                mismatched.push(format!("{name} {requests}: loop counters"));
            }
            let (h, e, f, p, s, q) = inline;
            actual.push_str(&format!(
                "    ({h:#018x}, {e}, {f}, {p}, ({}, {}), {q:?}),\n",
                s.0, s.1
            ));
        }
        actual.push_str("];\n");
    }
    assert!(
        mismatched.is_empty(),
        "{mismatched:?} moved; now:\n{actual}"
    );
}

#[test]
fn a_replay_matches_its_pinned_report_trace_and_events() {
    let config = poisson(3_000);
    let (_, trace) = run(&config, None, 1);
    let trace = trace.expect("the run is traced");
    for threads in [1, 2] {
        let ((h, events, ..), _) = run(&config, Some(&trace), threads);
        assert_eq!(
            (h, events),
            REPLAY,
            "{threads} threads: now ({h:#018x}, {events})"
        );
    }
}
