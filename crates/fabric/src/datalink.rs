//! Datalink layer: credit-based flow control and go-back-N replay.
//!
//! Paper §5.1.1: "The datalink is responsible for point-to-point reliable
//! transmission. We use credit-based flow control to prevent buffer
//! overflow at the receiver. Error detection with CRC on the receiver side
//! and a corresponding replay mechanism on the sender side guarantee packet
//! correctness."
//!
//! The sender ([`DatalinkTx`]) assigns link sequence numbers and keeps
//! unacknowledged packets in a replay buffer; the receiver ([`DatalinkRx`])
//! accepts only in-order, uncorrupted packets, acknowledging cumulatively
//! and NACKing on corruption or sequence gaps (go-back-N).

use std::collections::VecDeque;

use crate::packet::Packet;

/// Credit-based flow control for one direction of a link.
///
/// Credits represent free receive-buffer slots. The sender consumes one
/// credit per packet and stalls at zero; the receiver returns credits as it
/// drains its buffer. The invariant — in-flight packets never exceed the
/// receiver's buffer — is what the property tests in this module pin down.
///
/// # Example
///
/// ```
/// use venice_fabric::CreditCounter;
/// let mut c = CreditCounter::new(2);
/// assert!(c.try_consume());
/// assert!(c.try_consume());
/// assert!(!c.try_consume()); // stalled
/// c.grant(1);
/// assert!(c.try_consume());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreditCounter {
    credits: u32,
    max: u32,
}

impl CreditCounter {
    /// Creates a counter with `max` credits, all initially available.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero.
    pub fn new(max: u32) -> Self {
        assert!(max > 0, "credit pool must be non-empty");
        CreditCounter { credits: max, max }
    }

    /// Available credits.
    pub fn available(&self) -> u32 {
        self.credits
    }

    /// Pool size.
    pub fn max(&self) -> u32 {
        self.max
    }

    /// Consumes one credit if available; returns whether it succeeded.
    #[inline]
    pub fn try_consume(&mut self) -> bool {
        if self.credits > 0 {
            self.credits -= 1;
            true
        } else {
            false
        }
    }

    /// Returns `n` credits to the pool.
    ///
    /// # Panics
    ///
    /// Panics if the grant would exceed the pool size — that indicates a
    /// protocol bug (double-granting).
    #[inline]
    pub fn grant(&mut self, n: u32) {
        assert!(
            self.credits + n <= self.max,
            "credit overflow: {} + {n} > {}",
            self.credits,
            self.max
        );
        self.credits += n;
    }

    /// Whether the sender is stalled.
    pub fn is_exhausted(&self) -> bool {
        self.credits == 0
    }
}

/// Sender-side reliable-delivery state: sequence numbering plus a replay
/// buffer (go-back-N).
#[derive(Debug)]
pub struct DatalinkTx {
    next_seq: u64,
    /// Sent but unacknowledged packets, oldest first.
    replay: VecDeque<Packet>,
    window: usize,
    retransmissions: u64,
}

impl DatalinkTx {
    /// Creates a sender with a replay window of `window` packets.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "replay window must be non-empty");
        DatalinkTx {
            next_seq: 0,
            replay: VecDeque::new(),
            window,
            retransmissions: 0,
        }
    }

    /// Whether the replay window has room for another packet.
    pub fn can_send(&self) -> bool {
        self.replay.len() < self.window
    }

    /// Number of packets awaiting acknowledgement.
    pub fn in_flight(&self) -> usize {
        self.replay.len()
    }

    /// Total retransmitted packets (for link statistics).
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Stamps `packet` with the next link sequence number, stores a copy
    /// for replay, and returns the stamped packet for transmission.
    ///
    /// # Panics
    ///
    /// Panics if the window is full; callers must check [`Self::can_send`]
    /// (upper layers stall on credits first, so this firing means a bug).
    pub fn send(&mut self, mut packet: Packet) -> Packet {
        assert!(self.can_send(), "replay window overflow");
        packet.seq = self.next_seq;
        self.next_seq += 1;
        self.replay.push_back(packet.clone());
        packet
    }

    /// Processes a cumulative acknowledgement: all packets with sequence
    /// `<= seq` are released from the replay buffer.
    pub fn on_ack(&mut self, seq: u64) {
        while matches!(self.replay.front(), Some(p) if p.seq <= seq) {
            self.replay.pop_front();
        }
    }

    /// Processes a NACK for `expected_seq`: every buffered packet with
    /// sequence `>= expected_seq` is retransmitted in order (go-back-N).
    /// Returns the packets to put back on the wire.
    pub fn on_nack(&mut self, expected_seq: u64) -> Vec<Packet> {
        // A NACK for seq n cumulatively acknowledges everything before n.
        if expected_seq > 0 {
            self.on_ack(expected_seq - 1);
        }
        let out: Vec<Packet> = self
            .replay
            .iter()
            .filter(|p| p.seq >= expected_seq)
            .cloned()
            .collect();
        self.retransmissions += out.len() as u64;
        out
    }
}

/// Receiver verdict for an arriving packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RxVerdict {
    /// In-order, clean packet: deliver to the transport layer and send a
    /// cumulative ACK for `ack_seq`.
    Deliver {
        /// Sequence to acknowledge (the packet's own sequence).
        ack_seq: u64,
    },
    /// Corrupted or out-of-order packet: drop it and request replay from
    /// `expected_seq`.
    Nack {
        /// First missing sequence number.
        expected_seq: u64,
    },
    /// Duplicate of an already-delivered packet: drop, re-ACK so the
    /// sender can advance.
    Duplicate {
        /// Highest delivered sequence.
        ack_seq: u64,
    },
}

/// Receiver-side reliable-delivery state.
#[derive(Debug, Default)]
pub struct DatalinkRx {
    expected_seq: u64,
    crc_failures: u64,
    delivered: u64,
}

impl DatalinkRx {
    /// Creates a receiver expecting sequence 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Next in-order sequence number.
    pub fn expected_seq(&self) -> u64 {
        self.expected_seq
    }

    /// Packets delivered up the stack.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// CRC failures observed.
    pub fn crc_failures(&self) -> u64 {
        self.crc_failures
    }

    /// Classifies an arriving packet. `corrupted` is the outcome of the
    /// CRC check (modeled by [`crate::crc::ErrorInjector`]).
    pub fn receive(&mut self, packet: &Packet, corrupted: bool) -> RxVerdict {
        if corrupted {
            self.crc_failures += 1;
            return RxVerdict::Nack {
                expected_seq: self.expected_seq,
            };
        }
        if packet.seq == self.expected_seq {
            self.expected_seq += 1;
            self.delivered += 1;
            RxVerdict::Deliver {
                ack_seq: packet.seq,
            }
        } else if packet.seq < self.expected_seq {
            RxVerdict::Duplicate {
                ack_seq: self.expected_seq - 1,
            }
        } else {
            // Gap: an earlier packet was dropped; go-back-N.
            RxVerdict::Nack {
                expected_seq: self.expected_seq,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;
    use crate::topology::NodeId;

    fn pkt() -> Packet {
        Packet::new(NodeId(0), NodeId(1), PacketKind::QpairData, 0, 256)
    }

    #[test]
    fn credits_stall_and_resume() {
        let mut c = CreditCounter::new(3);
        assert_eq!(c.available(), 3);
        assert!(c.try_consume() && c.try_consume() && c.try_consume());
        assert!(c.is_exhausted());
        assert!(!c.try_consume());
        c.grant(2);
        assert_eq!(c.available(), 2);
    }

    #[test]
    #[should_panic(expected = "credit overflow")]
    fn double_grant_is_a_bug() {
        let mut c = CreditCounter::new(2);
        c.grant(1);
    }

    #[test]
    fn tx_assigns_monotonic_seq() {
        let mut tx = DatalinkTx::new(16);
        for i in 0..5 {
            let p = tx.send(pkt());
            assert_eq!(p.seq, i);
        }
        assert_eq!(tx.in_flight(), 5);
    }

    #[test]
    fn cumulative_ack_releases_window() {
        let mut tx = DatalinkTx::new(8);
        for _ in 0..6 {
            tx.send(pkt());
        }
        tx.on_ack(3);
        assert_eq!(tx.in_flight(), 2);
        tx.on_ack(5);
        assert_eq!(tx.in_flight(), 0);
    }

    #[test]
    fn nack_replays_from_requested_seq() {
        let mut tx = DatalinkTx::new(8);
        for _ in 0..5 {
            tx.send(pkt());
        }
        let replayed = tx.on_nack(2);
        let seqs: Vec<u64> = replayed.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(tx.retransmissions(), 3);
        // NACK(2) cumulatively acked 0 and 1.
        assert_eq!(tx.in_flight(), 3);
    }

    #[test]
    fn rx_delivers_in_order() {
        let mut rx = DatalinkRx::new();
        let mut tx = DatalinkTx::new(8);
        for i in 0..4u64 {
            let p = tx.send(pkt());
            assert_eq!(rx.receive(&p, false), RxVerdict::Deliver { ack_seq: i });
        }
        assert_eq!(rx.delivered(), 4);
    }

    #[test]
    fn rx_nacks_corruption_then_accepts_replay() {
        let mut rx = DatalinkRx::new();
        let mut tx = DatalinkTx::new(8);
        let p0 = tx.send(pkt());
        let p1 = tx.send(pkt());
        assert_eq!(rx.receive(&p0, false), RxVerdict::Deliver { ack_seq: 0 });
        // p1 corrupted in flight.
        assert_eq!(rx.receive(&p1, true), RxVerdict::Nack { expected_seq: 1 });
        let replay = tx.on_nack(1);
        assert_eq!(replay.len(), 1);
        assert_eq!(
            rx.receive(&replay[0], false),
            RxVerdict::Deliver { ack_seq: 1 }
        );
    }

    #[test]
    fn rx_detects_gaps_and_duplicates() {
        let mut rx = DatalinkRx::new();
        let mut tx = DatalinkTx::new(8);
        let p0 = tx.send(pkt());
        let p1 = tx.send(pkt());
        // p0 lost; p1 arrives first -> gap.
        assert_eq!(rx.receive(&p1, false), RxVerdict::Nack { expected_seq: 0 });
        assert_eq!(rx.receive(&p0, false), RxVerdict::Deliver { ack_seq: 0 });
        // Late duplicate of p0.
        assert_eq!(rx.receive(&p0, false), RxVerdict::Duplicate { ack_seq: 0 });
    }

    #[test]
    fn full_window_blocks_send() {
        let mut tx = DatalinkTx::new(2);
        tx.send(pkt());
        tx.send(pkt());
        assert!(!tx.can_send());
        tx.on_ack(0);
        assert!(tx.can_send());
    }
}
