//! The `venice-telemetry-v2` JSONL artifact.
//!
//! One JSON object per line, written by `serde::Writer` with fixed key
//! order and integer-only values so the artifact is byte-identical
//! whenever the probe's contents are — the determinism gates `cmp`
//! these files across rayon widths; `venice-bench`'s validators read
//! them back with `serde_json`. Line kinds, in emission order:
//!
//! 1. `header` — schema id, scenario, seed, tick, ring shape.
//! 2. `counters` — per-kind event counts and attributed sim time,
//!    fused arrivals, queue traffic stats, slab occupancy, peak depth.
//! 3. `sample`* — the retained time-series rows, oldest first.
//! 4. `span`* — closed lease spans in close order, then still-open
//!    spans (null `end_ps`) in key order.
//! 5. `end` — retention summary (rows kept/dropped, span counts).

use serde::{Compound, Serialize, Writer};
use venice_sim::QueueStats;

use crate::probe::RecordingProbe;
use crate::series::{LinkGauge, NodeGauges, TenantCounters};

/// Appends one compact JSON object, whose fields `fields` writes, to
/// `out` as a JSONL line. Every committed JSONL artifact is written
/// through it.
pub fn jsonl_line(out: &mut String, fields: impl FnOnce(&mut Compound<'_, '_>)) {
    let mut w = Writer::new(out, 0);
    let mut object = w.object();
    fields(&mut object);
    object.end();
    out.push('\n');
}

/// One event-kind slot of the `counters` line.
struct EventCount<'a> {
    label: &'a str,
    count: u64,
    time_ps: u64,
}

impl Serialize for EventCount<'_> {
    fn serialize(&self, w: &mut Writer<'_>) {
        let mut o = w.object();
        o.field("label", self.label);
        o.field("count", &self.count);
        o.field("time_ps", &self.time_ps);
        o.end();
    }
}

/// The `queue` object of the `counters` line.
struct Queue<'a>(&'a QueueStats);

impl Serialize for Queue<'_> {
    fn serialize(&self, w: &mut Writer<'_>) {
        let q = self.0;
        let mut o = w.object();
        o.field("near_hits", &q.near_hits);
        o.field("heap_pushes", &q.heap_pushes);
        o.field("near_spills", &q.near_spills);
        o.field("near_pops", &q.near_pops);
        o.field("heap_pops", &q.heap_pops);
        o.field("sifts", &q.sifts());
        o.end();
    }
}

impl Serialize for NodeGauges {
    fn serialize(&self, w: &mut Writer<'_>) {
        let mut o = w.object();
        o.field("depth", &self.depth);
        o.field("inflight", &self.inflight);
        o.field("borrowed", &self.borrowed);
        o.field("lent", &self.lent);
        o.field("subleased", &self.subleased);
        o.end();
    }
}

impl Serialize for TenantCounters {
    fn serialize(&self, w: &mut Writer<'_>) {
        let mut o = w.object();
        o.field("admitted", &self.admitted);
        o.field("shed", &self.shed);
        o.field("denied", &self.denied);
        o.field("quota_bytes", &self.quota_bytes);
        o.end();
    }
}

impl Serialize for LinkGauge {
    fn serialize(&self, w: &mut Writer<'_>) {
        let mut o = w.object();
        o.field("src", &self.src);
        o.field("dst", &self.dst);
        o.field("bytes", &self.bytes);
        o.end();
    }
}

/// Renders `probe` into the `venice-telemetry-v2` JSONL artifact.
///
/// `labels` names the engine's event-kind slots; slots at or past
/// `labels.len()` with zero counts are omitted.
pub fn export_jsonl(scenario: &str, seed: u64, probe: &RecordingProbe, labels: &[&str]) -> String {
    let mut out = String::new();
    let series = probe.series();
    jsonl_line(&mut out, |o| {
        o.field("kind", "header");
        o.field("schema", "venice-telemetry-v2");
        o.field("scenario", scenario);
        o.field("seed", &seed);
        o.field("tick_ps", &series.tick().as_ps());
        o.field("ring_cap", &series.cap());
    });

    let events: Vec<EventCount> = probe
        .events_by_kind()
        .iter()
        .zip(probe.time_by_kind_ps())
        .enumerate()
        .filter_map(|(slot, (&count, &time_ps))| {
            let label = labels.get(slot).copied();
            (count != 0 || label.is_some()).then(|| EventCount {
                label: label.unwrap_or("other"),
                count,
                time_ps,
            })
        })
        .collect();
    let (slab_live, slab_cap) = probe.slab();
    jsonl_line(&mut out, |o| {
        o.field("kind", "counters");
        o.field("events", &events);
        o.field("fused", &probe.fused());
        o.field("queue", &Queue(&probe.queue_stats()));
        o.field("slab_live", &slab_live);
        o.field("slab_cap", &slab_cap);
        o.field("peak_depth", &probe.peak_depth());
    });

    for (at, row) in series.rows() {
        jsonl_line(&mut out, |o| {
            o.field("kind", "sample");
            o.field("t_ps", &at.as_ps());
            o.field("pending", &row.pending_events);
            o.field("slab_live", &row.slab_live);
            o.field("nodes", &row.nodes);
            o.field("tenants", &row.tenants);
            // The links section exists only on congested-fabric runs:
            // scalar-model samples carry no link gauges, and omitting
            // the key entirely keeps their artifacts byte-identical to
            // the pre-congestion format.
            if !row.links.is_empty() {
                o.field("links", &row.links);
            }
        });
    }

    let spans = probe.spans();
    let closed = spans.closed().iter().map(|(_, span)| *span);
    for span in closed.chain(spans.open_spans()) {
        jsonl_line(&mut out, |o| {
            o.field("kind", "span");
            o.field("span", span.kind.label());
            o.field("node", &span.node);
            o.field("gen", &span.generation);
            o.field("start_ps", &span.start.as_ps());
            o.field("end_ps", &span.end.map(|end| end.as_ps()));
        });
    }

    jsonl_line(&mut out, |o| {
        o.field("kind", "end");
        o.field("samples", &series.len());
        o.field("dropped", &series.dropped());
        o.field("spans_closed", &spans.closed().len());
        o.field("spans_open", &spans.open_len());
    });
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
