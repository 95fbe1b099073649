//! Per-request trace export and replay.
//!
//! A traced run records one [`RequestRecord`] per generated request —
//! tenant, user, routed node, admit/shed outcome, end-to-end latency, and
//! the lease generation serving the node at arrival. Records serialize to
//! JSON-lines (one object per line, the standard shape for offline
//! analysis pipelines), parse back, and can be **replayed**: a recorded
//! trace re-drives the engine with the exact arrival instants, tenant
//! classes, and users of the original run, while admission, routing, and
//! service remain live. Replay answers "what would this recorded storm
//! have done under a different configuration" — a different stack, a
//! different lease policy — without re-rolling the traffic dice.

use serde::{Deserialize, Serialize};

/// 64-bit FNV-1a over `bytes`: the hash every pinned fingerprint of a
/// report or trace uses (stable across toolchains, unlike std's hasher).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Terminal outcome of one generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestOutcome {
    /// Admitted and completed.
    Completed,
    /// Shed by the rate policer.
    ShedRate,
    /// Shed by the (priority-scaled) in-flight cap.
    ShedOverload,
    /// Shed because the node's credit backlog overflowed.
    ShedBackpressure,
    /// Lost to an injected node crash (fault plans only): the serving
    /// node fail-stopped with the request in its backlog or in
    /// service, or every node was down at arrival.
    ShedCrash,
}

/// One generated request, as recorded by a traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestRecord {
    /// Issue order (0-based).
    pub seq: u64,
    /// Arrival instant in simulated nanoseconds.
    pub at_ns: u64,
    /// Tenant-class index into the mix.
    pub tenant: u32,
    /// User rank that issued the request.
    pub user: u64,
    /// Node the request routed to.
    pub node: u16,
    /// What happened.
    pub outcome: RequestOutcome,
    /// End-to-end latency in nanoseconds (0 when shed).
    pub latency_ns: u64,
    /// Generation of the newest lease held by the serving node at
    /// arrival (0 when the node held no lease).
    pub lease_generation: u64,
}

/// A complete per-request trace, in issue order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// The records, ordered by `seq`.
    pub records: Vec<RequestRecord>,
}

impl Trace {
    /// Renders the trace as JSON-lines (one record per line).
    ///
    /// # Panics
    ///
    /// Panics if serialization fails (plain data; cannot fail in
    /// practice).
    pub fn to_jsonl(&self) -> String {
        let mut out = Vec::new();
        for r in &self.records {
            serde_json::to_writer(&mut out, r).expect("record serializes");
            out.push(b'\n');
        }
        String::from_utf8(out).expect("JSON text is UTF-8")
    }

    /// Parses a JSON-lines trace (blank lines ignored).
    ///
    /// # Errors
    ///
    /// Returns the offending line's parse error message.
    pub fn from_jsonl(text: &str) -> Result<Trace, String> {
        let mut records = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let r: RequestRecord =
                serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            records.push(r);
        }
        Ok(Trace { records })
    }

    /// Writes the trace to `path` as JSON-lines.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_jsonl(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }

    /// Reads a JSON-lines trace from `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; parse errors surface as
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn read_jsonl(path: impl AsRef<std::path::Path>) -> std::io::Result<Trace> {
        let text = std::fs::read_to_string(path)?;
        Self::from_jsonl(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Number of recorded requests.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            records: vec![
                RequestRecord {
                    seq: 0,
                    at_ns: 1_000,
                    tenant: 0,
                    user: 42,
                    node: 3,
                    outcome: RequestOutcome::Completed,
                    latency_ns: 250_000,
                    lease_generation: 7,
                },
                RequestRecord {
                    seq: 1,
                    at_ns: 1_500,
                    tenant: 2,
                    user: 999_999,
                    node: 0,
                    outcome: RequestOutcome::ShedOverload,
                    latency_ns: 0,
                    lease_generation: 0,
                },
            ],
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let t = sample();
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{')));
        let back = Trace::from_jsonl(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn blank_lines_are_ignored_and_garbage_rejected() {
        let t = sample();
        let text = format!("\n{}\n\n", t.to_jsonl());
        assert_eq!(Trace::from_jsonl(&text).unwrap(), t);
        let err = Trace::from_jsonl("not json\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn file_round_trip() {
        let t = sample();
        let path = std::env::temp_dir().join("venice_loadgen_trace_test.jsonl");
        t.write_jsonl(&path).unwrap();
        let back = Trace::read_jsonl(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(t, back);
    }
}
