//! The per-connection state machine behind the poll event loop.
//!
//! A [`Connection`] is a **pure** state machine: bytes in
//! ([`Connection::ingest`]), events out ([`Connection::next_event`]),
//! reply bytes queued ([`Connection::queue_reply`]) and drained
//! ([`Connection::writable_bytes`] / [`Connection::advance_write`]).
//! It owns no socket, takes no locks and never blocks, which is what
//! lets the proptests drive arbitrary interleavings of partial frames,
//! readiness events and backlog stalls without a single file
//! descriptor.
//!
//! # States
//!
//! ```text
//! handshaking ──magic ok──▶ reading ◀──backlog drained── backlogged
//!      │                      │  │                            ▲
//!   bad magic            corrupt│  └──backlog ≥ pause─────────┘
//!      │                 or EOF │
//!      ▼                        ▼
//!   closed ◀──out drained── draining ◀── begin_drain (shutdown)
//! ```
//!
//! "Dispatching" is the synchronous phase inside `reading`: a scanned
//! frame is decoded **in place** (zero-copy — the payload slice
//! borrows the receive buffer) and handed to the dispatcher before the
//! scan resumes. The receive buffer is a growable scratch buffer with
//! a consumed offset; it compacts at the next `ingest`, after every
//! borrowed payload is dead.
//!
//! # Backlog invariants
//!
//! The write backlog is bounded twice over: past `backlog_max / 4`
//! pending bytes the connection stops *reading* (so a slow reader
//! throttles its own pipeline instead of growing the server's memory);
//! past `backlog_max` it is evicted outright. Worker inboxes keep
//! their own bound (`busy` replies) — the two backpressure layers
//! compose, they do not replace each other.

use crate::proto::{
    encode_frame, scan_frame_ref, FrameCorruption, FrameScanRef, Reply, SRV_MAGIC_V2,
};

/// Where a connection is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Waiting for the 8-byte magic.
    Handshaking,
    /// Scanning frames and dispatching requests.
    Reading,
    /// Write backlog crossed the pause threshold: reads are off until
    /// the peer drains.
    Backlogged,
    /// No more reads; flush the backlog and any in-flight replies,
    /// then close.
    Draining,
    /// Fully closed; the owner should drop the socket.
    Closed,
}

/// What [`Connection::next_event`] surfaced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnEvent {
    /// The handshake completed; the magic echo is queued for write.
    Handshake,
    /// The first 8 bytes were not [`SRV_MAGIC_V2`]; the connection is
    /// closed.
    BadMagic,
    /// One complete, checksum-verified frame. `off..off + len` indexes
    /// [`Connection::frame_payload`]'s window — valid until the next
    /// `ingest`.
    Frame {
        /// Absolute payload offset in the receive buffer.
        off: usize,
        /// Payload length.
        len: usize,
    },
    /// The buffer head is not a valid frame; the connection is
    /// draining (the owner may queue one final error reply first).
    Corrupt(FrameCorruption),
}

/// Did a reply fit the bounded backlog?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub enum QueueOutcome {
    /// Queued; the owner should try to flush.
    Queued,
    /// The backlog crossed `backlog_max`: the connection evicted
    /// itself (state is now [`ConnState::Closed`], the backlog
    /// discarded).
    Overflow,
}

/// One connection's pure state: receive scratch, bounded write
/// backlog, dispatch accounting.
#[derive(Debug)]
pub struct Connection {
    state: ConnState,
    /// Receive scratch: frames are scanned in place at `start`.
    buf: Vec<u8>,
    start: usize,
    /// Write backlog: encoded frames pending at `out_off`.
    out: Vec<u8>,
    out_off: usize,
    backlog_max: usize,
    /// Requests handed to the dispatcher whose replies have not come
    /// back yet. Draining waits for them.
    in_flight: usize,
    /// Frames decoded in place since the connection opened.
    frames_in_place: u64,
}

impl Connection {
    /// A fresh connection in `handshaking`, evicting past
    /// `backlog_max` pending write bytes (reads pause at a quarter of
    /// that).
    pub fn new(backlog_max: usize) -> Connection {
        Connection {
            state: ConnState::Handshaking,
            buf: Vec::with_capacity(4096),
            start: 0,
            out: Vec::new(),
            out_off: 0,
            backlog_max: backlog_max.max(16),
            in_flight: 0,
            frames_in_place: 0,
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> ConnState {
        self.state
    }

    /// Pending write-backlog bytes.
    pub fn backlog_bytes(&self) -> usize {
        self.out.len() - self.out_off
    }

    /// Frames decoded in place (zero-copy) so far.
    pub fn frames_in_place(&self) -> u64 {
        self.frames_in_place
    }

    /// Dispatched requests still awaiting replies.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// True when the owner should poll for read readiness: the
    /// connection is handshaking or reading and the backlog is under
    /// the pause threshold.
    pub fn wants_read(&self) -> bool {
        matches!(self.state, ConnState::Handshaking | ConnState::Reading)
    }

    /// True when backlog bytes are waiting for the socket.
    pub fn wants_write(&self) -> bool {
        self.state != ConnState::Closed && self.backlog_bytes() > 0
    }

    /// Fully closed?
    pub fn is_closed(&self) -> bool {
        self.state == ConnState::Closed
    }

    /// Appends received bytes to the scratch buffer, compacting the
    /// consumed prefix first (every payload borrowed from the previous
    /// scan window is dead by the time more bytes arrive).
    pub fn ingest(&mut self, bytes: &[u8]) {
        if matches!(self.state, ConnState::Draining | ConnState::Closed) {
            return; // no more reads; drop anything racing in
        }
        if self.start > 0 {
            let len = self.buf.len() - self.start;
            self.buf.copy_within(self.start.., 0);
            self.buf.truncate(len);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Scans the next event out of the receive buffer. `None` means
    /// more bytes are needed (or the connection no longer reads).
    /// Frames advance the consumed offset immediately; their payload
    /// window stays valid until the next [`Connection::ingest`].
    pub fn next_event(&mut self) -> Option<ConnEvent> {
        match self.state {
            ConnState::Handshaking => {
                if self.buf.len() - self.start < 8 {
                    return None;
                }
                let magic = &self.buf[self.start..self.start + 8];
                self.start += 8;
                if magic != SRV_MAGIC_V2 {
                    self.state = ConnState::Closed;
                    return Some(ConnEvent::BadMagic);
                }
                self.state = ConnState::Reading;
                self.out.extend_from_slice(SRV_MAGIC_V2);
                Some(ConnEvent::Handshake)
            }
            // A backlogged connection stops dispatching too — frames
            // already buffered wait until the peer drains, so a slow
            // reader cannot keep minting replies.
            ConnState::Backlogged => None,
            ConnState::Reading => {
                match scan_frame_ref(&self.buf[self.start..]) {
                    FrameScanRef::Complete { consumed, payload } => {
                        let len = payload.len();
                        let off = self.start + 8;
                        self.start += consumed;
                        self.frames_in_place += 1;
                        Some(ConnEvent::Frame { off, len })
                    }
                    FrameScanRef::Incomplete => None,
                    FrameScanRef::Corrupt(c) => {
                        // Draining, not closed: the owner gets to queue
                        // one final error reply, and the close happens
                        // when the backlog flushes.
                        self.state = ConnState::Draining;
                        Some(ConnEvent::Corrupt(c))
                    }
                }
            }
            ConnState::Draining | ConnState::Closed => None,
        }
    }

    /// The payload window a [`ConnEvent::Frame`] named.
    pub fn frame_payload(&self, off: usize, len: usize) -> &[u8] {
        &self.buf[off..off + len]
    }

    /// Notes one request handed to the dispatcher; its reply must come
    /// back through [`Connection::deliver_reply`] before draining can
    /// finish.
    pub fn note_dispatched(&mut self) {
        self.in_flight += 1;
    }

    /// Queues a worker reply: balances [`Connection::note_dispatched`]
    /// then encodes the frame onto the backlog.
    pub fn deliver_reply(&mut self, reply: &Reply) -> QueueOutcome {
        self.in_flight = self.in_flight.saturating_sub(1);
        self.queue_reply(reply)
    }

    /// Encodes `reply` onto the bounded write backlog. Crossing
    /// `backlog_max` evicts the connection ([`QueueOutcome::Overflow`]);
    /// crossing a quarter of it pauses reads until the peer drains.
    pub fn queue_reply(&mut self, reply: &Reply) -> QueueOutcome {
        if self.state == ConnState::Closed {
            return QueueOutcome::Queued; // nowhere to go; quietly dropped
        }
        self.out.extend_from_slice(&encode_frame(&reply.encode()));
        if self.backlog_bytes() > self.backlog_max {
            self.force_close();
            return QueueOutcome::Overflow;
        }
        self.update_backlog_state();
        QueueOutcome::Queued
    }

    /// The bytes the owner should write next.
    pub fn writable_bytes(&self) -> &[u8] {
        &self.out[self.out_off..]
    }

    /// Notes `n` backlog bytes written to the socket.
    pub fn advance_write(&mut self, n: usize) {
        self.out_off = (self.out_off + n).min(self.out.len());
        if self.out_off == self.out.len() {
            self.out.clear();
            self.out_off = 0;
        } else if self.out_off >= 64 * 1024 {
            let len = self.out.len() - self.out_off;
            self.out.copy_within(self.out_off.., 0);
            self.out.truncate(len);
            self.out_off = 0;
        }
        self.update_backlog_state();
        self.maybe_close();
    }

    /// Stops reading; once the backlog and every in-flight reply have
    /// drained, the connection closes. Idempotent.
    pub fn begin_drain(&mut self) {
        if self.state != ConnState::Closed {
            self.state = ConnState::Draining;
            self.maybe_close();
        }
    }

    /// Immediate eviction: discards the backlog and closes.
    pub fn force_close(&mut self) {
        self.state = ConnState::Closed;
        self.out.clear();
        self.out_off = 0;
        self.buf.clear();
        self.start = 0;
    }

    /// Reading ⇄ backlogged transitions driven by the pause threshold.
    fn update_backlog_state(&mut self) {
        let pause = self.backlog_max / 4;
        match self.state {
            ConnState::Reading if self.backlog_bytes() > pause => {
                self.state = ConnState::Backlogged;
            }
            ConnState::Backlogged if self.backlog_bytes() <= pause => {
                self.state = ConnState::Reading;
            }
            _ => {}
        }
    }

    fn maybe_close(&mut self) {
        if self.state == ConnState::Draining && self.backlog_bytes() == 0 && self.in_flight == 0 {
            self.state = ConnState::Closed;
        }
    }
}

// ----------------------------------------------------------------------
// Event-loop traces (the `examples/poll_trace.jsonl` golden format)
// ----------------------------------------------------------------------

/// One pinned event-loop trace record: what the loop saw (`accept`,
/// `readable`), what the state machine produced (`handshake`, `frame`,
/// `dispatch`), and what went back out (`reply`, `writable`, `close`).
/// The JSONL rendering is canonical — field order fixed — so a parsed
/// and re-encoded trace is byte-identical, and the golden test can
/// replay the `readable`/`reply` inputs through a fresh [`Connection`]
/// and demand the same outputs to the byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A connection was accepted.
    Accept {
        /// Loop-assigned connection token.
        conn: u64,
    },
    /// Bytes arrived from the socket (hex-encoded).
    Readable {
        /// Connection token.
        conn: u64,
        /// The bytes, lowercase hex.
        hex: String,
    },
    /// The handshake completed.
    Handshake {
        /// Connection token.
        conn: u64,
        /// The protocol revision: always 2.
        version: u8,
    },
    /// A frame decoded in place.
    Frame {
        /// Connection token.
        conn: u64,
        /// Request id.
        id: u64,
        /// The request's text form.
        text: String,
    },
    /// The request left for the worker pool.
    Dispatch {
        /// Connection token.
        conn: u64,
        /// Request id.
        id: u64,
        /// Target session.
        session: String,
    },
    /// A reply was queued onto the write backlog.
    Reply {
        /// Connection token.
        conn: u64,
        /// Request id echoed.
        id: u64,
        /// The reply's text form.
        text: String,
    },
    /// Backlog bytes left for the socket (hex-encoded).
    Writable {
        /// Connection token.
        conn: u64,
        /// The bytes written, lowercase hex.
        hex: String,
    },
    /// The connection closed.
    Close {
        /// Connection token.
        conn: u64,
    },
}

/// Lowercase hex of `bytes`.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Decodes a lowercase-hex string.
///
/// # Errors
///
/// A description of the malformed digit or length.
pub fn from_hex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err(format!("odd hex length {}", s.len()));
    }
    let digits = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in digits.chunks(2) {
        let hi = (pair[0] as char)
            .to_digit(16)
            .ok_or_else(|| format!("bad hex digit {:?}", pair[0] as char))?;
        let lo = (pair[1] as char)
            .to_digit(16)
            .ok_or_else(|| format!("bad hex digit {:?}", pair[1] as char))?;
        out.push((hi * 16 + lo) as u8);
    }
    Ok(out)
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn unesc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c == '\\' {
            if let Some(n) = it.next() {
                out.push(n);
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Pulls `"key":"value"` out of a canonical trace line.
fn json_str(line: &str, key: &str) -> Result<String, String> {
    let tag = format!("\"{key}\":\"");
    let at = line
        .find(&tag)
        .ok_or_else(|| format!("missing `{key}` in {line}"))?
        + tag.len();
    let rest = &line[at..];
    let mut end = 0usize;
    let bytes = rest.as_bytes();
    while end < bytes.len() {
        if bytes[end] == b'\\' {
            end += 2;
            continue;
        }
        if bytes[end] == b'"' {
            return Ok(unesc(&rest[..end]));
        }
        end += 1;
    }
    Err(format!("unterminated `{key}` in {line}"))
}

/// Pulls `"key":N` out of a canonical trace line.
fn json_u64(line: &str, key: &str) -> Result<u64, String> {
    let tag = format!("\"{key}\":");
    let at = line
        .find(&tag)
        .ok_or_else(|| format!("missing `{key}` in {line}"))?
        + tag.len();
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .map_err(|_| format!("bad `{key}` number in {line}"))
}

impl TraceEvent {
    /// The canonical JSONL rendering (fixed field order; re-encoding a
    /// parsed line reproduces it byte-for-byte).
    pub fn to_json_line(&self) -> String {
        match self {
            TraceEvent::Accept { conn } => format!("{{\"ev\":\"accept\",\"conn\":{conn}}}"),
            TraceEvent::Readable { conn, hex } => {
                format!("{{\"ev\":\"readable\",\"conn\":{conn},\"hex\":\"{hex}\"}}")
            }
            TraceEvent::Handshake { conn, version } => {
                format!("{{\"ev\":\"handshake\",\"conn\":{conn},\"version\":{version}}}")
            }
            TraceEvent::Frame { conn, id, text } => format!(
                "{{\"ev\":\"frame\",\"conn\":{conn},\"id\":{id},\"text\":\"{}\"}}",
                esc(text)
            ),
            TraceEvent::Dispatch { conn, id, session } => format!(
                "{{\"ev\":\"dispatch\",\"conn\":{conn},\"id\":{id},\"session\":\"{}\"}}",
                esc(session)
            ),
            TraceEvent::Reply { conn, id, text } => format!(
                "{{\"ev\":\"reply\",\"conn\":{conn},\"id\":{id},\"text\":\"{}\"}}",
                esc(text)
            ),
            TraceEvent::Writable { conn, hex } => {
                format!("{{\"ev\":\"writable\",\"conn\":{conn},\"hex\":\"{hex}\"}}")
            }
            TraceEvent::Close { conn } => format!("{{\"ev\":\"close\",\"conn\":{conn}}}"),
        }
    }

    /// Parses one canonical trace line.
    ///
    /// # Errors
    ///
    /// A description of the malformed field.
    pub fn parse_line(line: &str) -> Result<TraceEvent, String> {
        let ev = json_str(line, "ev")?;
        let conn = json_u64(line, "conn")?;
        Ok(match ev.as_str() {
            "accept" => TraceEvent::Accept { conn },
            "readable" => TraceEvent::Readable {
                conn,
                hex: json_str(line, "hex")?,
            },
            "handshake" => TraceEvent::Handshake {
                conn,
                version: json_u64(line, "version")? as u8,
            },
            "frame" => TraceEvent::Frame {
                conn,
                id: json_u64(line, "id")?,
                text: json_str(line, "text")?,
            },
            "dispatch" => TraceEvent::Dispatch {
                conn,
                id: json_u64(line, "id")?,
                session: json_str(line, "session")?,
            },
            "reply" => TraceEvent::Reply {
                conn,
                id: json_u64(line, "id")?,
                text: json_str(line, "text")?,
            },
            "writable" => TraceEvent::Writable {
                conn,
                hex: json_str(line, "hex")?,
            },
            "close" => TraceEvent::Close { conn },
            other => return Err(format!("unknown trace event `{other}`")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{encode_frame, Reply, ReplyBody, Request, RequestBody, RequestRef};

    fn frame_for(req: &Request) -> Vec<u8> {
        encode_frame(&req.encode(None))
    }

    /// A connection past the handshake, its magic echo flushed.
    fn handshaken() -> Connection {
        let mut c = Connection::new(1 << 20);
        c.ingest(SRV_MAGIC_V2);
        let _ = c.next_event();
        c.advance_write(8);
        c
    }

    fn decoded_id(c: &Connection, off: usize, len: usize) -> u64 {
        RequestRef::decode(c.frame_payload(off, len)).unwrap().0.id
    }

    #[test]
    fn handshake_then_frames_decode_in_place() {
        let mut c = Connection::new(1 << 20);
        assert_eq!(c.state(), ConnState::Handshaking);
        assert!(c.next_event().is_none(), "no bytes yet");
        c.ingest(&SRV_MAGIC_V2[..4]);
        assert!(c.next_event().is_none(), "partial magic");
        c.ingest(&SRV_MAGIC_V2[4..]);
        assert_eq!(c.next_event(), Some(ConnEvent::Handshake));
        assert_eq!(c.state(), ConnState::Reading);
        assert_eq!(c.writable_bytes(), SRV_MAGIC_V2, "echo queued");
        c.advance_write(8);

        let req = Request {
            id: 7,
            body: RequestBody::Ping,
        };
        let bytes = frame_for(&req);
        // Feed in two torn halves: no event until the frame completes.
        c.ingest(&bytes[..5]);
        assert!(c.next_event().is_none());
        c.ingest(&bytes[5..]);
        let Some(ConnEvent::Frame { off, len }) = c.next_event() else {
            panic!("expected a frame");
        };
        let (decoded, trace) = RequestRef::decode(c.frame_payload(off, len)).unwrap();
        assert_eq!(decoded.to_owned(), req);
        assert_eq!(trace, None);
        assert_eq!(c.frames_in_place(), 1);
    }

    #[test]
    fn bad_magic_closes() {
        for magic in [b"NOTRIOT!", b"RIOTSRV1"] {
            let mut c = Connection::new(1 << 20);
            c.ingest(magic);
            assert_eq!(c.next_event(), Some(ConnEvent::BadMagic));
            assert!(c.is_closed());
            assert!(!c.wants_read() && !c.wants_write());
        }
    }

    #[test]
    fn corrupt_frame_drains_after_error_reply() {
        let mut c = handshaken();
        let mut bytes = frame_for(&Request {
            id: 1,
            body: RequestBody::Ping,
        });
        let last = bytes.len() - 1;
        bytes[last] ^= 0x20;
        c.ingest(&bytes);
        assert!(matches!(
            c.next_event(),
            Some(ConnEvent::Corrupt(FrameCorruption::BadChecksum { .. }))
        ));
        assert_eq!(c.state(), ConnState::Draining);
        let outcome = c.queue_reply(&Reply {
            id: u64::MAX,
            body: ReplyBody::Err("corrupt".into()),
        });
        assert_eq!(outcome, QueueOutcome::Queued);
        assert!(c.wants_write());
        let n = c.writable_bytes().len();
        c.advance_write(n);
        assert!(c.is_closed(), "drained ⇒ closed");
    }

    #[test]
    fn backlog_pauses_reads_then_evicts() {
        let mut c = Connection::new(400);
        c.ingest(SRV_MAGIC_V2);
        let _ = c.next_event();
        c.advance_write(8);
        let big = Reply {
            id: 1,
            body: ReplyBody::Ok("x".repeat(120)),
        };
        // Past backlog_max/4 = 100 pending bytes: reads pause.
        assert_eq!(c.queue_reply(&big), QueueOutcome::Queued);
        assert_eq!(c.state(), ConnState::Backlogged);
        assert!(!c.wants_read());
        // Draining the backlog resumes reads.
        let n = c.writable_bytes().len();
        c.advance_write(n);
        assert_eq!(c.state(), ConnState::Reading);
        assert!(c.wants_read());
        // Past backlog_max pending bytes with nothing drained: evicted.
        let mut saw_overflow = false;
        for _ in 0..10 {
            if c.queue_reply(&big) == QueueOutcome::Overflow {
                saw_overflow = true;
                break;
            }
        }
        assert!(saw_overflow, "unbounded backlog never evicted");
        assert!(c.is_closed());
        assert_eq!(c.backlog_bytes(), 0, "evicted backlog is discarded");
    }

    #[test]
    fn drain_waits_for_in_flight_replies() {
        let mut c = handshaken();
        c.note_dispatched();
        c.begin_drain();
        assert_eq!(c.state(), ConnState::Draining, "in-flight reply pending");
        let _ = c.deliver_reply(&Reply {
            id: 3,
            body: ReplyBody::Ok("pong".into()),
        });
        assert_eq!(c.state(), ConnState::Draining, "backlog still queued");
        let n = c.writable_bytes().len();
        c.advance_write(n);
        assert!(c.is_closed());
    }

    #[test]
    fn scratch_compacts_without_losing_partial_frames() {
        let mut c = handshaken();
        let a = frame_for(&Request {
            id: 1,
            body: RequestBody::Ping,
        });
        let b = frame_for(&Request {
            id: 2,
            body: RequestBody::Cmd {
                session: "s".into(),
                line: "create nand2 A".into(),
            },
        });
        // Frame a plus half of frame b, then the rest: the consumed
        // prefix compacts away at the second ingest and both frames
        // decode intact.
        let mut wire = a.clone();
        wire.extend_from_slice(&b[..b.len() / 2]);
        c.ingest(&wire);
        let Some(ConnEvent::Frame { off, len }) = c.next_event() else {
            panic!("frame a");
        };
        assert_eq!(decoded_id(&c, off, len), 1);
        assert!(c.next_event().is_none(), "frame b is torn");
        c.ingest(&b[b.len() / 2..]);
        let Some(ConnEvent::Frame { off, len }) = c.next_event() else {
            panic!("frame b");
        };
        assert_eq!(decoded_id(&c, off, len), 2);
    }

    #[test]
    fn trace_events_round_trip_byte_identically() {
        let events = vec![
            TraceEvent::Accept { conn: 1 },
            TraceEvent::Readable {
                conn: 1,
                hex: to_hex(SRV_MAGIC_V2),
            },
            TraceEvent::Handshake {
                conn: 1,
                version: 2,
            },
            TraceEvent::Frame {
                conn: 1,
                id: 1,
                text: "ping".into(),
            },
            TraceEvent::Dispatch {
                conn: 1,
                id: 2,
                session: "s1".into(),
            },
            TraceEvent::Reply {
                conn: 1,
                id: 1,
                text: "ok pong".into(),
            },
            TraceEvent::Writable {
                conn: 1,
                hex: "deadbeef".into(),
            },
            TraceEvent::Close { conn: 1 },
        ];
        for ev in events {
            let line = ev.to_json_line();
            let parsed = TraceEvent::parse_line(&line).unwrap();
            assert_eq!(parsed, ev);
            assert_eq!(parsed.to_json_line(), line, "canonical re-encode");
        }
        assert_eq!(from_hex(&to_hex(b"\x00\xffriot")).unwrap(), b"\x00\xffriot");
        assert!(from_hex("abc").is_err());
        assert!(TraceEvent::parse_line("{\"ev\":\"warp\",\"conn\":1}").is_err());
    }
}
