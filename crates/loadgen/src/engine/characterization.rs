//! Characterization of how arrivals reach a sequential world.
//!
//! Open-loop runs at request counts on either side of every arrival-feed
//! edge (blocks of 256, a ring of four blocks, epochs of 2,048) and one
//! run of many epochs, Poisson and bursty, each through both drawers.
//! Every run pins a 64-bit FNV-1a hash of its report JSON and trace
//! JSONL together with its loop counters: logical events, fused
//! arrivals, peak queue depth, event-queue traffic and slab occupancy.
//! The rows were recorded before the arrival feed was reworked; a
//! change to how arrivals are drawn, handed over or read that keeps them
//! keeps every draw, every fusion decision and every queue operation in
//! sequence.
//!
//! The hash, event, fused and peak columns hold for any correct event
//! queue. The slab and traffic columns are the slot ring's own counters
//! (see `venice_sim::QueueStats`), re-pinned when the queue's
//! representation changes.
//!
//! A replay of a traced run pins its report, trace and logical event
//! count only: how a replayed arrival reaches the world may change the
//! split between executed and fused events, never the run.

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
    (0x7958df4627555db7, 2, 0, 1, (0, 0), [2, 0, 0, 2, 0]),
    (0xb5890456325f8b6f, 510, 128, 21, (0, 20), [119, 263, 0, 132, 250]),
    (0x52773eca164d7843, 512, 128, 21, (0, 20), [120, 264, 0, 133, 251]),
    (0x9eebc8dd1778d280, 514, 128, 21, (0, 20), [121, 265, 0, 134, 252]),
    (0xd3a5d17760feef69, 2046, 489, 26, (0, 25), [385, 1172, 0, 447, 1110]),
    (0xac38ff0c7b3e656c, 2048, 490, 26, (0, 25), [385, 1173, 0, 448, 1110]),
    (0x96e80da8295d2726, 2050, 491, 26, (0, 25), [385, 1174, 0, 448, 1111]),
    (0x83c499904e80c533, 4094, 1003, 27, (0, 25), [740, 2351, 0, 874, 2217]),
    (0x7b0bfb8c40418966, 4096, 1003, 27, (0, 25), [740, 2353, 0, 874, 2219]),
    (0xaa7cc4e3125ad44f, 4098, 1004, 27, (0, 25), [741, 2353, 0, 875, 2219]),
    (0xf7022c7d0619096b, 20494, 5013, 30, (0, 28), [3682, 11799, 0, 4300, 11181]),
];

/// Bursty rows, one per entry of [`COUNTS`].
#[rustfmt::skip]
const BURSTY: [Row; 11] = [
    (0xfb462c4cee4c9b15, 2, 0, 1, (0, 0), [2, 0, 0, 2, 0]),
    (0x0c7a045dd3435075, 510, 176, 88, (0, 87), [34, 300, 0, 84, 250]),
    (0x1983083d1ecdcd7f, 512, 176, 89, (0, 88), [34, 302, 0, 85, 251]),
    (0x92e0314ceafa6fdb, 514, 177, 89, (0, 88), [34, 303, 0, 85, 252]),
    (0xd070ff7622ccf431, 2046, 603, 123, (0, 122), [117, 1326, 0, 345, 1098]),
    (0xe3ad62e3f4b4e856, 2048, 604, 123, (0, 122), [117, 1327, 0, 345, 1099]),
    (0xa95d2734b6dedebe, 2050, 605, 123, (0, 122), [117, 1328, 0, 345, 1100]),
    (0x07ca53b67414f4e9, 4094, 1188, 123, (0, 122), [248, 2658, 0, 701, 2205]),
    (0xc99f2c5805579b39, 4096, 1188, 123, (0, 122), [248, 2660, 0, 701, 2207]),
    (0x5b8b0db2aa38240f, 4098, 1188, 123, (0, 122), [248, 2662, 0, 701, 2209]),
    (0xcda214210dd6f9e3, 20494, 5802, 124, (0, 123), [1426, 13266, 0, 3753, 10939]),
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

/// Runs `config`, traced, replaying `replay` if given, through `drawer`.
fn run(config: &LoadgenConfig, replay: Option<&Trace>, drawer: Drawer) -> (Row, Option<Trace>) {
    let (report, trace, m, NoopProbe) = run_full(config, replay, true, NoopProbe, None, drawer);
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
            let (inline, _) = run(&config, None, Drawer::Inline);
            let (producer, _) = run(&config, None, Drawer::Producer);
            assert_eq!(producer, inline, "{name} {requests}: drawers disagree");
            let independent = |r: &Row| (r.0, r.1, r.2, r.3);
            if independent(&inline) != independent(want) {
                mismatched.push(format!("{name} {requests}: run"));
            } else if inline != *want {
                mismatched.push(format!("{name} {requests}: queue counters"));
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
    let (_, trace) = run(&config, None, Drawer::Inline);
    let trace = trace.expect("the run is traced");
    for drawer in [Drawer::Inline, Drawer::Producer] {
        let ((h, events, ..), _) = run(&config, Some(&trace), drawer);
        assert_eq!((h, events), REPLAY, "{drawer:?}: now ({h:#018x}, {events})");
    }
}
