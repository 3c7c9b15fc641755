//! The `RIOTSRV2` wire protocol: length-prefixed, checksummed binary
//! frames carrying pipelined requests.
//!
//! # Connection handshake
//!
//! The client opens a socket and writes the 8-byte magic
//! [`SRV_MAGIC_V2`] (`RIOTSRV2`); the server echoes it back. Any other
//! magic is refused and the connection closed. Everything after the
//! handshake is frames in both directions.
//!
//! # Frame format
//!
//! Deliberately the same record shape as the crash-safe journal
//! ([`riot_core::WAL_MAGIC`] files): a `u32` little-endian payload
//! length, a `u32` little-endian CRC-32 (IEEE, zlib-compatible —
//! [`riot_core::crc32`]) of the payload, then the payload bytes. A
//! frame whose length exceeds [`MAX_FRAME_PAYLOAD`] or whose checksum
//! disagrees is a protocol error; the server replies with a
//! description and closes the connection rather than guessing at
//! resynchronization.
//!
//! # Payloads
//!
//! A request payload is an 8-byte little-endian **request id** (chosen
//! by the client, echoed verbatim in the reply — this is what makes
//! pipelining safe), a flags byte, and a UTF-8 command text. When
//! [`REQ_FLAG_TRACE`] is set, 16 bytes of trace context
//! (`trace_id u64 LE`, `parent_span u64 LE`) sit between the flags and
//! the text, letting the server continue the client's trace through
//! its decode → queue → apply → WAL-flush phases:
//!
//! ```text
//! open <session> <cell>      create, attach or recover a session
//! cmd <session> <line…>      queue one editor command (replay syntax)
//! close <session>            flush the session's WAL and evict it
//! ping                       liveness probe
//! stats                      live session / queue-depth gauges
//! telemetry [prom|json]      metrics registry snapshot (Prometheus
//!                            text format or JSON)
//! dump                       write the flight recorder to a JSONL
//!                            file under --root, reply with its path
//! shutdown                   ask the server to drain and exit
//! ```
//!
//! The `cmd` line reuses the REPLAY/WAL command codec verbatim
//! ([`riot_core::parse_command_line`]), so anything a journal can hold
//! can travel the wire, and a session's WAL is byte-compatible with
//! what the offline tools read.
//!
//! A reply payload is the echoed request id followed by one of:
//!
//! ```text
//! ok <detail…>               request succeeded
//! err <message…>             request failed (session state unchanged
//!                            unless the message says otherwise)
//! busy                       backpressure: the session inbox is full,
//!                            retry after draining in-flight replies
//! ```

use riot_core::crc32;
use riot_trace::TraceContext;
use std::fmt;
use std::io::{self, Read, Write};

/// Magic bytes opening every connection, in both directions.
pub const SRV_MAGIC_V2: &[u8; 8] = b"RIOTSRV2";

/// Request-payload flag: 16 bytes of trace context follow the flags
/// byte.
pub const REQ_FLAG_TRACE: u8 = 0x01;

/// Hard cap on a frame payload. Command lines are tiny; anything
/// approaching this is a corrupt length field or an abusive client.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 20;

/// Why a frame (or handshake) could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameCorruption {
    /// The connection did not open with [`SRV_MAGIC_V2`].
    BadMagic,
    /// Fewer than 8 header bytes were available — a torn header.
    TornHeader,
    /// The header promises more payload than is available.
    TornPayload {
        /// Bytes the header claims.
        expected: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The length field exceeds [`MAX_FRAME_PAYLOAD`].
    TooLarge(usize),
    /// The stored checksum disagrees with the payload bytes.
    BadChecksum {
        /// Checksum in the frame header.
        stored: u32,
        /// Checksum of the received payload.
        computed: u32,
    },
}

impl fmt::Display for FrameCorruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameCorruption::BadMagic => f.write_str("missing RIOTSRV2 magic"),
            FrameCorruption::TornHeader => f.write_str("torn frame header"),
            FrameCorruption::TornPayload {
                expected,
                available,
            } => write!(
                f,
                "torn frame payload: {expected} bytes promised, {available} present"
            ),
            FrameCorruption::TooLarge(n) => {
                write!(f, "frame payload of {n} bytes exceeds {MAX_FRAME_PAYLOAD}")
            }
            FrameCorruption::BadChecksum { stored, computed } => write!(
                f,
                "frame checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
        }
    }
}

/// A protocol-layer error: I/O or corruption.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying socket failed (includes timeouts and EOF).
    Io(io::Error),
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The bytes on the wire are not a valid frame.
    Corrupt(FrameCorruption),
    /// The frame decoded but its payload is not a valid message.
    BadPayload(String),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o: {e}"),
            ProtoError::Closed => f.write_str("connection closed"),
            ProtoError::Corrupt(c) => write!(f, "corrupt frame: {c}"),
            ProtoError::BadPayload(m) => write!(f, "bad payload: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Encodes one frame: `[len u32 LE][crc32 u32 LE][payload]`.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The outcome of scanning a byte buffer for one frame. A complete
/// frame's payload **borrows** the scanned buffer instead of copying
/// it — the event loop decodes requests straight out of each
/// connection's receive buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameScanRef<'a> {
    /// A complete, intact frame: its payload (borrowed, in place) and
    /// the total bytes consumed (header + payload).
    Complete {
        /// The verified payload, borrowed from the scanned buffer.
        payload: &'a [u8],
        /// Header + payload length in bytes.
        consumed: usize,
    },
    /// More bytes are needed; nothing was consumed.
    Incomplete,
    /// The buffer head is not a valid frame.
    Corrupt(FrameCorruption),
}

/// Scans `buf` for one frame at offset 0 without consuming input and
/// without copying the payload.
///
/// Unlike the streaming [`read_frame_into`], this never blocks: partial
/// frames report [`FrameScanRef::Incomplete`]. A length field beyond
/// [`MAX_FRAME_PAYLOAD`] and a checksum mismatch are immediately
/// [`FrameScanRef::Corrupt`] — a decoder must not wait for a 4 GiB
/// payload that a flipped length bit promised.
pub fn scan_frame_ref(buf: &[u8]) -> FrameScanRef<'_> {
    if buf.len() < 8 {
        return FrameScanRef::Incomplete;
    }
    let len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return FrameScanRef::Corrupt(FrameCorruption::TooLarge(len));
    }
    let stored = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    if buf.len() - 8 < len {
        return FrameScanRef::Incomplete;
    }
    let payload = &buf[8..8 + len];
    let computed = crc32(payload);
    if computed != stored {
        return FrameScanRef::Corrupt(FrameCorruption::BadChecksum { stored, computed });
    }
    FrameScanRef::Complete {
        payload,
        consumed: 8 + len,
    }
}

/// Scans a complete byte stream (no more input coming) for one frame —
/// the decoder used by the proptests and the golden fixture: torn
/// tails decode to a clean [`FrameCorruption`], never a panic.
pub fn decode_frame_eof(buf: &[u8]) -> Result<(&[u8], usize), FrameCorruption> {
    match scan_frame_ref(buf) {
        FrameScanRef::Complete { payload, consumed } => Ok((payload, consumed)),
        FrameScanRef::Corrupt(c) => Err(c),
        FrameScanRef::Incomplete => {
            if buf.len() < 8 {
                Err(FrameCorruption::TornHeader)
            } else {
                let len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
                Err(FrameCorruption::TornPayload {
                    expected: len,
                    available: buf.len() - 8,
                })
            }
        }
    }
}

/// Writes one frame to `w` (no flush).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&encode_frame(payload))
}

/// Reads one frame from `r` into `scratch`, blocking and reusing its
/// allocation. On success `scratch` holds exactly the payload bytes. A
/// reuse — the buffer's existing capacity was enough, no allocation —
/// counts `serve.frame.buf_reuse`.
///
/// # Errors
///
/// [`ProtoError::Closed`] when the stream ends cleanly *between*
/// frames; an EOF mid-frame is a corrupt (torn) frame; socket errors.
pub fn read_frame_into(r: &mut impl Read, scratch: &mut Vec<u8>) -> Result<(), ProtoError> {
    let mut header = [0u8; 8];
    let mut got = 0usize;
    while got < 8 {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                return Err(if got == 0 {
                    ProtoError::Closed
                } else {
                    ProtoError::Corrupt(FrameCorruption::TornHeader)
                });
            }
            Ok(n) => got += n,
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(ProtoError::Corrupt(FrameCorruption::TooLarge(len)));
    }
    let stored = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if len > 0 && scratch.capacity() >= len {
        riot_trace::registry()
            .counter("serve.frame.buf_reuse")
            .inc();
    }
    scratch.clear();
    scratch.resize(len, 0);
    let mut got = 0usize;
    while got < len {
        match r.read(&mut scratch[got..]) {
            Ok(0) => {
                return Err(ProtoError::Corrupt(FrameCorruption::TornPayload {
                    expected: len,
                    available: got,
                }));
            }
            Ok(n) => got += n,
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    let computed = crc32(scratch);
    if computed != stored {
        return Err(ProtoError::Corrupt(FrameCorruption::BadChecksum {
            stored,
            computed,
        }));
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Requests
// ----------------------------------------------------------------------

/// What a client asks the server to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestBody {
    /// Create, attach, or WAL-recover the named session editing `cell`.
    Open {
        /// Session name (`[A-Za-z0-9_-]{1,64}` — it names the WAL file).
        session: String,
        /// Composition cell to edit when the session is new.
        cell: String,
    },
    /// Queue one editor command (REPLAY line syntax) on a session.
    Cmd {
        /// Target session.
        session: String,
        /// The command in replay-line form, e.g. `create nand2 I0`.
        line: String,
    },
    /// Flush the session's WAL and evict it from memory.
    Close {
        /// Target session.
        session: String,
    },
    /// Liveness probe.
    Ping,
    /// Gauges: pool-wide (`stats`) or one session's engine counters
    /// (`stats <session>` — cache hit rate and damage-region totals).
    Stats {
        /// `None` for the pool-wide line; `Some` routes to the session's
        /// worker and reads its editor counters.
        session: Option<String>,
    },
    /// Live metrics exposition: a snapshot of the server's metrics
    /// registry in the requested rendering.
    Telemetry {
        /// Which rendering the `ok` detail carries.
        format: TelemetryFormat,
    },
    /// Write the flight recorder to a `flightrec-<ts>.jsonl` file
    /// under the server root; the `ok` detail is the file path.
    Dump,
    /// Drain every session and stop the server.
    Shutdown,
    /// Testing hook: occupy the target session's worker for the given
    /// number of milliseconds, so tests can fill inboxes
    /// deterministically and observe `busy` backpressure.
    #[doc(hidden)]
    Stall {
        /// Session whose worker to stall.
        session: String,
        /// Milliseconds to hold the worker.
        ms: u64,
    },
}

/// How a [`RequestBody::Telemetry`] snapshot should be rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryFormat {
    /// Prometheus text exposition format (the default).
    #[default]
    Prometheus,
    /// One JSON object (`riot-telemetry/1` schema).
    Json,
}

/// One pipelined request: a client-chosen id plus the body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Echoed verbatim in the reply.
    pub id: u64,
    /// What to do.
    pub body: RequestBody,
}

impl RequestBody {
    /// The canonical text form.
    fn to_text(&self) -> String {
        match self {
            RequestBody::Open { session, cell } => format!("open {session} {cell}"),
            RequestBody::Cmd { session, line } => format!("cmd {session} {line}"),
            RequestBody::Close { session } => format!("close {session}"),
            RequestBody::Ping => "ping".to_owned(),
            RequestBody::Stats { session: None } => "stats".to_owned(),
            RequestBody::Stats {
                session: Some(session),
            } => format!("stats {session}"),
            RequestBody::Telemetry {
                format: TelemetryFormat::Prometheus,
            } => "telemetry prom".to_owned(),
            RequestBody::Telemetry {
                format: TelemetryFormat::Json,
            } => "telemetry json".to_owned(),
            RequestBody::Dump => "dump".to_owned(),
            RequestBody::Shutdown => "shutdown".to_owned(),
            RequestBody::Stall { session, ms } => format!("stall {session} {ms}"),
        }
    }
}

/// A zero-copy view of a [`RequestBody`]: every field borrows the
/// frame payload it was decoded from. The event loop parses requests
/// in place over a connection's receive buffer and only materializes
/// owned strings ([`RequestBodyRef::to_owned`]) for verbs that cross a
/// thread boundary into the worker pool — `ping`, `stats`, `telemetry`,
/// `dump` and `shutdown` never allocate at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestBodyRef<'a> {
    /// See [`RequestBody::Open`].
    Open {
        /// Session name, borrowed from the payload.
        session: &'a str,
        /// Composition cell, borrowed from the payload.
        cell: &'a str,
    },
    /// See [`RequestBody::Cmd`]. `line` is the raw tail after the
    /// session token — interior whitespace is normalized only when the
    /// command is materialized for dispatch.
    Cmd {
        /// Target session, borrowed from the payload.
        session: &'a str,
        /// The command tail, borrowed from the payload.
        line: &'a str,
    },
    /// See [`RequestBody::Close`].
    Close {
        /// Target session, borrowed from the payload.
        session: &'a str,
    },
    /// See [`RequestBody::Ping`].
    Ping,
    /// See [`RequestBody::Stats`].
    Stats {
        /// `None` for the pool-wide line.
        session: Option<&'a str>,
    },
    /// See [`RequestBody::Telemetry`].
    Telemetry {
        /// Which rendering the reply carries.
        format: TelemetryFormat,
    },
    /// See [`RequestBody::Dump`].
    Dump,
    /// See [`RequestBody::Shutdown`].
    Shutdown,
    /// See [`RequestBody::Stall`].
    Stall {
        /// Session whose worker to stall.
        session: &'a str,
        /// Milliseconds to hold the worker.
        ms: u64,
    },
}

impl<'a> RequestBodyRef<'a> {
    /// Parses the canonical text form without copying any field.
    ///
    /// # Errors
    ///
    /// A human-readable description of what is malformed.
    pub fn parse(text: &'a str) -> Result<RequestBodyRef<'a>, String> {
        let f: Vec<&'a str> = text.split_whitespace().collect();
        Ok(match f.first().copied() {
            Some("open") if f.len() == 3 => RequestBodyRef::Open {
                session: f[1],
                cell: f[2],
            },
            Some("open") => return Err("`open` wants: open <session> <cell>".into()),
            Some("cmd") if f.len() >= 3 => {
                // The line is the raw tail starting at the third token:
                // borrowed, not joined — normalization happens only if
                // the command is materialized.
                let off = f[2].as_ptr() as usize - text.as_ptr() as usize;
                RequestBodyRef::Cmd {
                    session: f[1],
                    line: text[off..].trim_end(),
                }
            }
            Some("cmd") => return Err("`cmd` wants: cmd <session> <command…>".into()),
            Some("close") if f.len() == 2 => RequestBodyRef::Close { session: f[1] },
            Some("close") => return Err("`close` wants: close <session>".into()),
            Some("ping") if f.len() == 1 => RequestBodyRef::Ping,
            Some("stats") if f.len() == 1 => RequestBodyRef::Stats { session: None },
            Some("stats") if f.len() == 2 => RequestBodyRef::Stats {
                session: Some(f[1]),
            },
            Some("stats") => return Err("`stats` wants: stats [<session>]".into()),
            Some("telemetry") if f.len() == 1 => RequestBodyRef::Telemetry {
                format: TelemetryFormat::Prometheus,
            },
            Some("telemetry") if f.len() == 2 && f[1] == "prom" => RequestBodyRef::Telemetry {
                format: TelemetryFormat::Prometheus,
            },
            Some("telemetry") if f.len() == 2 && f[1] == "json" => RequestBodyRef::Telemetry {
                format: TelemetryFormat::Json,
            },
            Some("telemetry") => return Err("`telemetry` wants: telemetry [prom|json]".into()),
            Some("dump") if f.len() == 1 => RequestBodyRef::Dump,
            Some("dump") => return Err("`dump` takes no arguments".into()),
            Some("shutdown") if f.len() == 1 => RequestBodyRef::Shutdown,
            Some("stall") if f.len() == 3 => RequestBodyRef::Stall {
                session: f[1],
                ms: f[2].parse().map_err(|_| "stall wants integer ms")?,
            },
            Some(other) => return Err(format!("unknown verb `{other}`")),
            None => return Err("empty request".into()),
        })
    }

    /// Materializes owned strings, normalizing a `cmd` line's interior
    /// whitespace.
    pub fn to_owned(self) -> RequestBody {
        match self {
            RequestBodyRef::Open { session, cell } => RequestBody::Open {
                session: session.to_owned(),
                cell: cell.to_owned(),
            },
            RequestBodyRef::Cmd { session, line } => RequestBody::Cmd {
                session: session.to_owned(),
                line: line.split_whitespace().collect::<Vec<_>>().join(" "),
            },
            RequestBodyRef::Close { session } => RequestBody::Close {
                session: session.to_owned(),
            },
            RequestBodyRef::Ping => RequestBody::Ping,
            RequestBodyRef::Stats { session } => RequestBody::Stats {
                session: session.map(str::to_owned),
            },
            RequestBodyRef::Telemetry { format } => RequestBody::Telemetry { format },
            RequestBodyRef::Dump => RequestBody::Dump,
            RequestBodyRef::Shutdown => RequestBody::Shutdown,
            RequestBodyRef::Stall { session, ms } => RequestBody::Stall {
                session: session.to_owned(),
                ms,
            },
        }
    }
}

/// One pipelined request decoded in place: the id plus a borrowed body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRef<'a> {
    /// Echoed verbatim in the reply.
    pub id: u64,
    /// What to do, borrowing the frame payload.
    pub body: RequestBodyRef<'a>,
}

impl<'a> RequestRef<'a> {
    /// Parses a frame payload without copying: id, flags, optional
    /// trace context, text form.
    ///
    /// # Errors
    ///
    /// A human-readable description of what is malformed — including
    /// any flag bit this revision does not know (a decoder cannot skip
    /// fields it cannot size).
    pub fn decode(payload: &'a [u8]) -> Result<(RequestRef<'a>, Option<TraceContext>), String> {
        if payload.len() < 9 {
            return Err(format!(
                "request payload of {} bytes cannot hold id + flags",
                payload.len()
            ));
        }
        let id = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
        let flags = payload[8];
        if flags & !REQ_FLAG_TRACE != 0 {
            return Err(format!("unknown request flags {flags:#04x}"));
        }
        let mut at = 9usize;
        let trace = if flags & REQ_FLAG_TRACE != 0 {
            if payload.len() < at + 16 {
                return Err("trace flag set but context bytes missing".into());
            }
            let trace_id = u64::from_le_bytes(payload[at..at + 8].try_into().expect("8 bytes"));
            let parent_span =
                u64::from_le_bytes(payload[at + 8..at + 16].try_into().expect("8 bytes"));
            at += 16;
            Some(TraceContext {
                trace_id,
                parent_span,
            })
        } else {
            None
        };
        let text = std::str::from_utf8(&payload[at..]).map_err(|e| format!("not UTF-8: {e}"))?;
        Ok((
            RequestRef {
                id,
                body: RequestBodyRef::parse(text)?,
            },
            trace,
        ))
    }

    /// Materializes an owned [`Request`].
    pub fn to_owned(self) -> Request {
        Request {
            id: self.id,
            body: self.body.to_owned(),
        }
    }
}

impl Request {
    /// Serializes to a frame payload: id, flags, optional trace
    /// context, text form. `trace: None` (or a [`TraceContext::NONE`])
    /// emits a zero flags byte and no context bytes.
    pub fn encode(&self, trace: Option<TraceContext>) -> Vec<u8> {
        let text = self.body.to_text();
        let trace = trace.filter(|c| !c.is_none());
        let mut out = Vec::with_capacity(9 + 16 + text.len());
        out.extend_from_slice(&self.id.to_le_bytes());
        match trace {
            Some(ctx) => {
                out.push(REQ_FLAG_TRACE);
                out.extend_from_slice(&ctx.trace_id.to_le_bytes());
                out.extend_from_slice(&ctx.parent_span.to_le_bytes());
            }
            None => out.push(0),
        }
        out.extend_from_slice(text.as_bytes());
        out
    }
}

// ----------------------------------------------------------------------
// Replies
// ----------------------------------------------------------------------

/// The server's answer to one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplyBody {
    /// Success; the detail is verb-specific (outcome text, counts…).
    Ok(String),
    /// Failure; session state is unchanged unless the message says
    /// otherwise (a crashed session says so explicitly).
    Err(String),
    /// Backpressure: the session inbox is full. The command was **not**
    /// queued; retry after in-flight replies drain.
    Busy,
}

/// One reply, tagged with the request id it answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The id of the request this answers.
    pub id: u64,
    /// Outcome.
    pub body: ReplyBody,
}

impl Reply {
    /// Serializes to a frame payload (id + text form).
    pub fn encode(&self) -> Vec<u8> {
        let text = match &self.body {
            ReplyBody::Ok(d) if d.is_empty() => "ok".to_owned(),
            ReplyBody::Ok(d) => format!("ok {d}"),
            ReplyBody::Err(m) => format!("err {m}"),
            ReplyBody::Busy => "busy".to_owned(),
        };
        let mut out = Vec::with_capacity(8 + text.len());
        out.extend_from_slice(&self.id.to_le_bytes());
        out.extend_from_slice(text.as_bytes());
        out
    }

    /// Parses a frame payload into a reply.
    ///
    /// # Errors
    ///
    /// A description of the malformed field.
    pub fn decode(payload: &[u8]) -> Result<Reply, String> {
        if payload.len() < 8 {
            return Err(format!(
                "reply payload of {} bytes cannot hold an id",
                payload.len()
            ));
        }
        let id = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
        let text = std::str::from_utf8(&payload[8..]).map_err(|e| format!("not UTF-8: {e}"))?;
        let body = if text == "ok" {
            ReplyBody::Ok(String::new())
        } else if let Some(d) = text.strip_prefix("ok ") {
            ReplyBody::Ok(d.to_owned())
        } else if let Some(m) = text.strip_prefix("err ") {
            ReplyBody::Err(m.to_owned())
        } else if text == "busy" {
            ReplyBody::Busy
        } else {
            return Err(format!("unknown reply form `{text}`"));
        };
        Ok(Reply { id, body })
    }
}

/// Client-side handshake: sends `RIOTSRV2` and verifies the echo.
///
/// # Errors
///
/// Socket failures, or an echo that is not the magic.
pub fn handshake_client(stream: &mut (impl Read + Write)) -> Result<(), ProtoError> {
    stream.write_all(SRV_MAGIC_V2)?;
    stream.flush()?;
    let mut magic = [0u8; 8];
    stream.read_exact(&mut magic)?;
    if &magic != SRV_MAGIC_V2 {
        return Err(ProtoError::Corrupt(FrameCorruption::BadMagic));
    }
    Ok(())
}

/// Is `name` acceptable as a session name? Session names become WAL
/// file names, so only `[A-Za-z0-9_-]`, 1..=64 characters, is allowed —
/// no path separators, no dots, no traversal.
pub fn valid_session_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decodes `bytes` and materializes the owned request.
    fn decode(bytes: &[u8]) -> Result<(Request, Option<TraceContext>), String> {
        RequestRef::decode(bytes).map(|(req, trace)| (req.to_owned(), trace))
    }

    /// An untraced payload: id, a zero flags byte, then `text`.
    fn payload(text: &[u8]) -> Vec<u8> {
        let mut p = 1u64.to_le_bytes().to_vec();
        p.push(0);
        p.extend_from_slice(text);
        p
    }

    #[test]
    fn frame_round_trip() {
        let frame = encode_frame(b"hello riot");
        let (payload, consumed) = decode_frame_eof(&frame).unwrap();
        assert_eq!(payload, b"hello riot");
        assert_eq!(consumed, frame.len());
    }

    #[test]
    fn empty_payload_is_a_valid_frame() {
        let frame = encode_frame(b"");
        let (payload, consumed) = decode_frame_eof(&frame).unwrap();
        assert!(payload.is_empty());
        assert_eq!(consumed, 8);
    }

    #[test]
    fn torn_header_and_payload_are_clean_errors() {
        let frame = encode_frame(b"payload");
        assert_eq!(
            decode_frame_eof(&frame[..5]),
            Err(FrameCorruption::TornHeader)
        );
        assert_eq!(
            decode_frame_eof(&frame[..frame.len() - 2]),
            Err(FrameCorruption::TornPayload {
                expected: 7,
                available: 5
            })
        );
    }

    #[test]
    fn bit_flip_is_a_checksum_error() {
        let mut frame = encode_frame(b"payload");
        let last = frame.len() - 1;
        frame[last] ^= 0x10;
        assert!(matches!(
            decode_frame_eof(&frame),
            Err(FrameCorruption::BadChecksum { .. })
        ));
    }

    #[test]
    fn oversize_length_is_rejected_without_waiting() {
        let mut frame = encode_frame(b"x");
        frame[..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            scan_frame_ref(&frame),
            FrameScanRef::Corrupt(FrameCorruption::TooLarge(_))
        ));
    }

    #[test]
    fn request_round_trip_all_verbs() {
        let bodies = [
            RequestBody::Open {
                session: "s1".into(),
                cell: "TOP".into(),
            },
            RequestBody::Cmd {
                session: "s1".into(),
                line: "create nand2 I0".into(),
            },
            RequestBody::Cmd {
                session: "s1".into(),
                line: "translate I0 -100 2500".into(),
            },
            RequestBody::Close {
                session: "s1".into(),
            },
            RequestBody::Ping,
            RequestBody::Stats { session: None },
            RequestBody::Stats {
                session: Some("s1".into()),
            },
            RequestBody::Shutdown,
            RequestBody::Stall {
                session: "s1".into(),
                ms: 250,
            },
        ];
        for (i, body) in bodies.into_iter().enumerate() {
            let req = Request {
                id: 0xDEAD_0000 + i as u64,
                body,
            };
            assert_eq!(decode(&req.encode(None)).unwrap(), (req, None));
        }
    }

    #[test]
    fn reply_round_trip_all_forms() {
        for body in [
            ReplyBody::Ok(String::new()),
            ReplyBody::Ok("opened created".into()),
            ReplyBody::Err("no such session".into()),
            ReplyBody::Busy,
        ] {
            let rep = Reply { id: 77, body };
            assert_eq!(Reply::decode(&rep.encode()).unwrap(), rep);
        }
    }

    #[test]
    fn request_decode_rejects_garbage() {
        assert!(decode(b"short").is_err());
        assert!(decode(&payload(b"frobnicate x")).is_err());
        assert!(decode(&payload(&[0xFF, 0xFE, 0x80])).is_err());
        assert!(decode(&payload(b"open only_two")).is_err());
    }

    #[test]
    fn trace_context_is_optional() {
        let req = Request {
            id: 99,
            body: RequestBody::Cmd {
                session: "s1".into(),
                line: "create or2 G0".into(),
            },
        };
        let ctx = TraceContext::new(0xABCD_EF01_2345_6789, 42);
        assert_eq!(
            decode(&req.encode(Some(ctx))).unwrap(),
            (req.clone(), Some(ctx))
        );
        assert_eq!(decode(&req.encode(None)).unwrap(), (req.clone(), None));
        // A NONE context is normalized away rather than wasting bytes.
        let bytes = req.encode(Some(TraceContext::NONE));
        assert_eq!(bytes[8], 0);
        assert_eq!(decode(&bytes).unwrap().1, None);
    }

    #[test]
    fn unknown_flags_and_torn_context_are_rejected() {
        let req = Request {
            id: 7,
            body: RequestBody::Ping,
        };
        let mut bytes = req.encode(None);
        bytes[8] = 0x80;
        assert!(decode(&bytes).is_err());
        let mut bytes = req.encode(Some(TraceContext::new(1, 2)));
        bytes.truncate(12); // flags promise 16 context bytes
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn telemetry_and_dump_verbs_round_trip() {
        for body in [
            RequestBody::Telemetry {
                format: TelemetryFormat::Prometheus,
            },
            RequestBody::Telemetry {
                format: TelemetryFormat::Json,
            },
            RequestBody::Dump,
        ] {
            let req = Request { id: 5, body };
            assert_eq!(decode(&req.encode(None)).unwrap(), (req, None));
        }
        // Bare `telemetry` defaults to Prometheus.
        assert_eq!(
            decode(&payload(b"telemetry")).unwrap().0.body,
            RequestBody::Telemetry {
                format: TelemetryFormat::Prometheus
            }
        );
        assert!(decode(&payload(b"telemetry xml")).is_err());
    }

    #[test]
    fn session_names_are_fenced() {
        assert!(valid_session_name("alice-42_X"));
        assert!(!valid_session_name(""));
        assert!(!valid_session_name("../../etc/passwd"));
        assert!(!valid_session_name("a.wal"));
        assert!(!valid_session_name(&"x".repeat(65)));
    }

    #[test]
    fn scratch_buffer_is_reused_across_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"a long first payload").unwrap();
        write_frame(&mut buf, b"short").unwrap();
        write_frame(&mut buf, b"mid-sized one").unwrap();
        let reuse = riot_trace::registry().counter("serve.frame.buf_reuse");
        let before = reuse.get();
        let mut r = &buf[..];
        let mut scratch = Vec::new();
        read_frame_into(&mut r, &mut scratch).unwrap();
        assert_eq!(scratch, b"a long first payload");
        let cap = scratch.capacity();
        // The next two payloads fit in the first one's allocation.
        read_frame_into(&mut r, &mut scratch).unwrap();
        assert_eq!(scratch, b"short");
        read_frame_into(&mut r, &mut scratch).unwrap();
        assert_eq!(scratch, b"mid-sized one");
        assert_eq!(scratch.capacity(), cap, "no reallocation");
        assert_eq!(reuse.get() - before, 2, "two reused decodes counted");
        assert!(matches!(
            read_frame_into(&mut r, &mut scratch),
            Err(ProtoError::Closed)
        ));
    }
}
