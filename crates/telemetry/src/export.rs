//! The `venice-telemetry-v2` JSONL artifact.
//!
//! One JSON object per line, hand-formatted with fixed key order and
//! integer-only values so the artifact is byte-identical whenever the
//! probe's contents are — the determinism gates `cmp` these files
//! across rayon widths. Line kinds, in emission order:
//!
//! 1. `header` — schema id, scenario, seed, tick, ring shape.
//! 2. `counters` — per-kind event counts and attributed sim time,
//!    fused arrivals, queue traffic stats, slab occupancy, peak depth.
//! 3. `sample`* — the retained time-series rows, oldest first.
//! 4. `span`* — closed lease spans in close order, then still-open
//!    spans (null `end_ps`) in key order.
//! 5. `end` — retention summary (rows kept/dropped, span counts).

use std::fmt::Write as _;

use crate::probe::RecordingProbe;

/// Renders `probe` into the `venice-telemetry-v2` JSONL artifact.
///
/// `labels` names the engine's event-kind slots; slots at or past
/// `labels.len()` with zero counts are omitted.
///
/// # Panics
///
/// Panics if `scenario` needs JSON escaping — artifact names are plain
/// identifiers by construction.
pub fn export_jsonl(scenario: &str, seed: u64, probe: &RecordingProbe, labels: &[&str]) -> String {
    assert!(
        scenario
            .chars()
            .all(|c| c.is_ascii_graphic() && c != '"' && c != '\\'),
        "scenario name must not need JSON escaping: {scenario:?}"
    );
    let mut out = String::new();
    let series = probe.series();
    writeln!(
        out,
        "{{\"kind\":\"header\",\"schema\":\"venice-telemetry-v2\",\"scenario\":\"{}\",\"seed\":{},\"tick_ps\":{},\"ring_cap\":{}}}",
        scenario,
        seed,
        series.tick().as_ps(),
        series.cap()
    )
    .unwrap();

    let mut events = String::new();
    for (slot, (&count, &time_ps)) in probe
        .events_by_kind()
        .iter()
        .zip(probe.time_by_kind_ps())
        .enumerate()
    {
        let label = labels.get(slot).copied();
        if count == 0 && label.is_none() {
            continue;
        }
        if !events.is_empty() {
            events.push(',');
        }
        let label = label.unwrap_or("other");
        write!(
            events,
            "{{\"label\":\"{label}\",\"count\":{count},\"time_ps\":{time_ps}}}"
        )
        .unwrap();
    }
    let q = probe.queue_stats();
    let (slab_live, slab_cap) = probe.slab();
    writeln!(
        out,
        "{{\"kind\":\"counters\",\"events\":[{}],\"fused\":{},\"queue\":{{\"near_hits\":{},\"heap_pushes\":{},\"near_spills\":{},\"near_pops\":{},\"heap_pops\":{},\"sifts\":{}}},\"slab_live\":{},\"slab_cap\":{},\"peak_depth\":{}}}",
        events,
        probe.fused(),
        q.near_hits,
        q.heap_pushes,
        q.near_spills,
        q.near_pops,
        q.heap_pops,
        q.sifts(),
        slab_live,
        slab_cap,
        probe.peak_depth()
    )
    .unwrap();

    for (at, row) in series.rows() {
        let mut nodes = String::new();
        for g in &row.nodes {
            if !nodes.is_empty() {
                nodes.push(',');
            }
            write!(
                nodes,
                "{{\"depth\":{},\"inflight\":{},\"borrowed\":{},\"lent\":{},\"subleased\":{}}}",
                g.depth, g.inflight, g.borrowed, g.lent, g.subleased
            )
            .unwrap();
        }
        let mut tenants = String::new();
        for t in &row.tenants {
            if !tenants.is_empty() {
                tenants.push(',');
            }
            write!(
                tenants,
                "{{\"admitted\":{},\"shed\":{},\"denied\":{},\"quota_bytes\":{}}}",
                t.admitted, t.shed, t.denied, t.quota_bytes
            )
            .unwrap();
        }
        // The links section exists only on congested-fabric runs:
        // scalar-model samples carry no link gauges, and omitting the
        // key entirely keeps their artifacts byte-identical to the
        // pre-congestion format.
        let mut links = String::new();
        for l in &row.links {
            if links.is_empty() {
                links.push_str(",\"links\":[");
            } else {
                links.push(',');
            }
            write!(
                links,
                "{{\"src\":{},\"dst\":{},\"bytes\":{}}}",
                l.src, l.dst, l.bytes
            )
            .unwrap();
        }
        if !links.is_empty() {
            links.push(']');
        }
        writeln!(
            out,
            "{{\"kind\":\"sample\",\"t_ps\":{},\"pending\":{},\"slab_live\":{},\"nodes\":[{}],\"tenants\":[{}]{}}}",
            at.as_ps(),
            row.pending_events,
            row.slab_live,
            nodes,
            tenants,
            links
        )
        .unwrap();
    }

    let spans = probe.spans();
    for (_, span) in spans.closed().iter() {
        writeln!(
            out,
            "{{\"kind\":\"span\",\"span\":\"{}\",\"node\":{},\"gen\":{},\"start_ps\":{},\"end_ps\":{}}}",
            span.kind.label(),
            span.node,
            span.generation,
            span.start.as_ps(),
            span.end.expect("closed span has an end").as_ps()
        )
        .unwrap();
    }
    for span in spans.open_spans() {
        writeln!(
            out,
            "{{\"kind\":\"span\",\"span\":\"{}\",\"node\":{},\"gen\":{},\"start_ps\":{},\"end_ps\":null}}",
            span.kind.label(),
            span.node,
            span.generation,
            span.start.as_ps()
        )
        .unwrap();
    }

    writeln!(
        out,
        "{{\"kind\":\"end\",\"samples\":{},\"dropped\":{},\"spans_closed\":{},\"spans_open\":{}}}",
        series.len(),
        series.dropped(),
        spans.closed().len(),
        spans.open_len()
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use venice_sim::Time;

    use super::*;
    use crate::probe::Probe;
    use crate::series::{NodeGauges, SampleRow};
    use crate::spans::SpanKind;

    fn tiny_probe() -> RecordingProbe {
        let mut p = RecordingProbe::new(Time::from_us(10), 4);
        p.on_event(0, Time::from_us(3));
        p.on_event(1, Time::from_us(14));
        p.on_fused_arrival(Time::from_us(14));
        if let Some(at) = p.sample_due(Time::from_us(14)) {
            let row = SampleRow {
                nodes: vec![NodeGauges {
                    depth: 2,
                    inflight: 1,
                    borrowed: 64,
                    lent: 0,
                    subleased: 0,
                }],
                tenants: Vec::new(),
                links: Vec::new(),
                slab_live: 1,
                pending_events: 3,
            };
            p.on_sample(at, row);
        }
        p.span_open(SpanKind::Establish, 0, 1, Time::from_us(5));
        p.span_close(SpanKind::Establish, 0, 1, Time::from_us(12));
        p.span_open(SpanKind::Active, 0, 1, Time::from_us(12));
        p
    }

    #[test]
    fn artifact_shape_is_stable() {
        let probe = tiny_probe();
        let jsonl = export_jsonl("unit", 7, &probe, &["arrival", "finish"]);
        let lines: Vec<&str> = jsonl.lines().collect();
        // header, counters, 1 sample, 1 closed span, 1 open span, end.
        assert_eq!(lines.len(), 6);
        assert!(lines[0].contains("\"schema\":\"venice-telemetry-v2\""));
        assert!(lines[1].contains("\"label\":\"arrival\",\"count\":1"));
        assert!(lines[2].contains("\"t_ps\":10000000"));
        assert!(lines[3].contains("\"span\":\"establish\""));
        assert!(lines[4].contains("\"span\":\"active\"") && lines[4].contains("\"end_ps\":null"));
        assert!(lines[5].contains("\"kind\":\"end\",\"samples\":1,\"dropped\":0"));
        // Byte-identical on re-export: pure function of probe contents.
        assert_eq!(
            jsonl,
            export_jsonl("unit", 7, &probe, &["arrival", "finish"])
        );
        // Scalar-model samples carry no link gauges and must not grow
        // a links key — pre-congestion artifacts stay byte-stable.
        assert!(!lines[2].contains("\"links\""));
    }

    #[test]
    fn link_gauges_render_only_when_present() {
        use crate::series::LinkGauge;
        let mut p = RecordingProbe::new(Time::from_us(10), 4);
        if let Some(at) = p.sample_due(Time::from_us(14)) {
            let row = SampleRow {
                links: vec![LinkGauge {
                    src: 0,
                    dst: 1,
                    bytes: 4096,
                }],
                ..SampleRow::default()
            };
            p.on_sample(at, row);
        }
        let jsonl = export_jsonl("unit", 7, &p, &["arrival"]);
        let sample = jsonl
            .lines()
            .find(|l| l.contains("\"kind\":\"sample\""))
            .expect("one sample row");
        assert!(sample.contains("\"links\":[{\"src\":0,\"dst\":1,\"bytes\":4096}]"));
    }
}
