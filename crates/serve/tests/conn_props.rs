//! Property tests for the poll event loop's per-connection state
//! machine: arbitrary interleavings of partial-frame ingestion, reply
//! delivery lag and write-quantum stalls never panic, never surface a
//! torn frame, keep every frame in order, and always terminate in a
//! clean close once a drain begins.

use proptest::prelude::*;
use riot_core::record;
use riot_serve::{
    ConnEvent, Connection, Reply, ReplyBody, Request, RequestBody, RequestRef, SRV_MAGIC_V2,
};
use std::collections::VecDeque;

/// The wire a well-behaved client would send: magic, then `n`
/// framed ping requests with ids `0..n`.
fn ping_wire(n: usize) -> Vec<u8> {
    let mut wire = SRV_MAGIC_V2.to_vec();
    for id in 0..n as u64 {
        let req = Request {
            id,
            body: RequestBody::Ping,
        };
        record::encode(&mut wire, &req.encode(None)).unwrap();
    }
    wire
}

/// Pumps every pending event, decoding each frame in place and
/// recording its id. Panics (via the returned error) on anything a
/// clean stream must never produce.
fn pump(
    c: &mut Connection,
    seen: &mut Vec<u64>,
    pending: &mut VecDeque<u64>,
) -> Result<(), String> {
    while let Some(ev) = c.next_event() {
        match ev {
            ConnEvent::Handshake => {}
            ConnEvent::Frame { off, len } => {
                let id = {
                    let payload = c.frame_payload(off, len);
                    let (req, _) = RequestRef::decode(payload)
                        .map_err(|e| format!("torn frame surfaced: {e}"))?;
                    req.id
                };
                seen.push(id);
                c.note_dispatched();
                pending.push_back(id);
            }
            ConnEvent::BadMagic => return Err("clean magic rejected".into()),
            ConnEvent::Corrupt(why) => return Err(format!("clean stream flagged corrupt: {why}")),
        }
    }
    Ok(())
}

/// Flushes the whole write backlog in one go.
fn flush_all(c: &mut Connection) {
    loop {
        let n = c.writable_bytes().len();
        if n == 0 {
            break;
        }
        c.advance_write(n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any split of the byte stream, any reply lag, any write quantum:
    /// every frame decodes exactly once, in order, and a final drain
    /// reaches `Closed` with an empty backlog.
    #[test]
    fn interleavings_never_tear_or_reorder_frames(
        n_reqs in 1usize..12,
        chunk_sizes in prop::collection::vec(1usize..40, 1..64),
        write_quanta in prop::collection::vec(1usize..64, 1..64),
        reply_lag in 0usize..4,
    ) {
        let wire = ping_wire(n_reqs);
        let mut c = Connection::new(1 << 16);
        let mut seen: Vec<u64> = Vec::new();
        let mut pending: VecDeque<u64> = VecDeque::new();
        let (mut off, mut ci, mut wi) = (0usize, 0usize, 0usize);
        while off < wire.len() || !pending.is_empty() {
            if off < wire.len() {
                let end = (off + chunk_sizes[ci % chunk_sizes.len()]).min(wire.len());
                ci += 1;
                c.ingest(&wire[off..end]);
                off = end;
            }
            pump(&mut c, &mut seen, &mut pending).map_err(TestCaseError::fail)?;
            // Replies arrive with a bounded lag while bytes keep
            // flowing; once the wire is spent everything outstanding
            // must come home.
            let lag = if off < wire.len() { reply_lag } else { 0 };
            while pending.len() > lag {
                let id = pending.pop_front().unwrap();
                let out = c.deliver_reply(&Reply {
                    id,
                    body: ReplyBody::Ok("pong".into()),
                });
                prop_assert_eq!(out, riot_serve::QueueOutcome::Queued);
            }
            let quantum = write_quanta[wi % write_quanta.len()];
            wi += 1;
            let n = c.writable_bytes().len().min(quantum);
            if n > 0 {
                c.advance_write(n);
            }
            prop_assert!(!c.is_closed(), "clean traffic closed the connection");
        }
        let want: Vec<u64> = (0..n_reqs as u64).collect();
        prop_assert_eq!(&seen, &want, "frames lost, duplicated or reordered");
        prop_assert_eq!(c.in_flight(), 0);

        c.begin_drain();
        flush_all(&mut c);
        prop_assert!(c.is_closed(), "drain did not terminate in a close");
        prop_assert_eq!(c.backlog_bytes(), 0);
    }

    /// Shutdown at an arbitrary point mid-stream: the drain must
    /// always terminate in `Closed` once outstanding replies are
    /// delivered and the backlog flushes — never a wedge, and never
    /// new frames dispatched after the drain began.
    #[test]
    fn shutdown_always_terminates_in_a_clean_close(
        n_reqs in 1usize..12,
        chunk_sizes in prop::collection::vec(1usize..40, 1..64),
        drain_after in 0usize..20,
    ) {
        let wire = ping_wire(n_reqs);
        let mut c = Connection::new(1 << 16);
        let mut seen: Vec<u64> = Vec::new();
        let mut pending: VecDeque<u64> = VecDeque::new();
        let (mut off, mut ci, mut step) = (0usize, 0usize, 0usize);
        let mut drained = false;
        while off < wire.len() && !drained {
            let end = (off + chunk_sizes[ci % chunk_sizes.len()]).min(wire.len());
            ci += 1;
            c.ingest(&wire[off..end]);
            off = end;
            pump(&mut c, &mut seen, &mut pending).map_err(TestCaseError::fail)?;
            if step == drain_after {
                c.begin_drain();
                drained = true;
            }
            step += 1;
        }
        if !drained {
            c.begin_drain();
        }
        let dispatched = seen.len();

        // Bytes that race in after the stop must be ignored, not
        // dispatched.
        c.ingest(&ping_wire(2)[8..]);
        prop_assert!(c.next_event().is_none(), "frame dispatched after drain");
        prop_assert_eq!(seen.len(), dispatched);

        // In-flight replies still come home, then the flush closes it.
        while let Some(id) = pending.pop_front() {
            let _ = c.deliver_reply(&Reply { id, body: ReplyBody::Ok("pong".into()) });
        }
        flush_all(&mut c);
        prop_assert!(c.is_closed(), "drain wedged: state never reached Closed");
        prop_assert_eq!(c.backlog_bytes(), 0);
        prop_assert_eq!(c.in_flight(), 0);
    }

    /// A single bit flip anywhere past the handshake never panics the
    /// machine, and any frames it does surface decode cleanly or fail
    /// cleanly. If the stream is flagged corrupt, the error-reply +
    /// flush path must still end in a clean close.
    #[test]
    fn bit_flips_fail_clean_and_still_close(
        n_reqs in 1usize..8,
        bit in 0usize..4096,
        chunk in 1usize..64,
    ) {
        let mut wire = ping_wire(n_reqs);
        let payload_bits = (wire.len() - 8) * 8;
        let bit = 64 + bit % payload_bits; // never inside the magic
        wire[bit / 8] ^= 1 << (bit % 8);

        let mut c = Connection::new(1 << 16);
        let mut corrupt = false;
        let mut off = 0usize;
        while off < wire.len() {
            let end = (off + chunk).min(wire.len());
            c.ingest(&wire[off..end]);
            off = end;
            while let Some(ev) = c.next_event() {
                match ev {
                    ConnEvent::Handshake => {}
                    ConnEvent::Frame { off, len } => {
                        // May or may not decode — it must not panic,
                        // and in-place access must stay in bounds.
                        let payload = c.frame_payload(off, len);
                        let _ = RequestRef::decode(payload);
                        c.note_dispatched();
                        let _ = c.deliver_reply(&Reply {
                            id: 0,
                            body: ReplyBody::Ok("pong".into()),
                        });
                    }
                    ConnEvent::BadMagic => prop_assert!(false, "flip was past the magic"),
                    ConnEvent::Corrupt(_) => {
                        corrupt = true;
                        // The owner's last word: one error reply.
                        let _ = c.queue_reply(&Reply {
                            id: u64::MAX,
                            body: ReplyBody::Err("corrupt frame".into()),
                        });
                    }
                }
            }
            let n = c.writable_bytes().len();
            if n > 0 {
                c.advance_write(n);
            }
        }
        if corrupt {
            flush_all(&mut c);
            prop_assert!(c.is_closed(), "corrupt stream must end closed");
        } else {
            // The flip hid in a length field and left a plausible
            // prefix; the machine is simply waiting for more bytes.
            c.begin_drain();
            flush_all(&mut c);
            prop_assert!(c.is_closed());
        }
    }
}
