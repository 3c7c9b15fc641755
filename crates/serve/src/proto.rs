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
//! A frame is one [`riot_core::record`], written and scanned by the
//! same code as the crash-safe journal's records
//! ([`riot_core::WAL_MAGIC`] files) and the snapshot's: a `u32`
//! little-endian payload length, a `u32` little-endian CRC-32 (IEEE,
//! zlib-compatible — [`riot_core::crc32`]) of the payload, then the
//! payload bytes. Readers pass the scanner [`MAX_FRAME_PAYLOAD`] as the
//! length cap, so an overrun is refused from the header alone. A frame
//! that is too large or whose checksum disagrees is a protocol error;
//! the server replies with a description and closes the connection
//! rather than guessing at resynchronization.
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

use riot_core::RecordCorruption;
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

/// A protocol-layer error: I/O or corruption.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying socket failed (includes timeouts and EOF).
    Io(io::Error),
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The bytes on the wire are not a valid handshake or frame.
    Corrupt(RecordCorruption),
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
    /// The borrowing view: what [`RequestRef::decode`] yields for this
    /// body, and the one path to its text form.
    pub fn view(&self) -> RequestBodyRef<'_> {
        match self {
            RequestBody::Open { session, cell } => RequestBodyRef::Open { session, cell },
            RequestBody::Cmd { session, line } => RequestBodyRef::Cmd { session, line },
            RequestBody::Close { session } => RequestBodyRef::Close { session },
            RequestBody::Ping => RequestBodyRef::Ping,
            RequestBody::Stats { session } => RequestBodyRef::Stats {
                session: session.as_deref(),
            },
            RequestBody::Telemetry { format } => RequestBodyRef::Telemetry { format: *format },
            RequestBody::Dump => RequestBodyRef::Dump,
            RequestBody::Shutdown => RequestBodyRef::Shutdown,
            RequestBody::Stall { session, ms } => RequestBodyRef::Stall { session, ms: *ms },
        }
    }
}

/// A zero-copy view of a [`RequestBody`]: every field borrows the
/// frame payload it was decoded from (or the [`RequestBody`] it views).
/// This type owns the request text codec: [`RequestBodyRef::parse`]
/// reads it and `Display` writes it. The event loop parses requests in
/// place over a connection's receive buffer and only copies strings
/// for verbs that cross a thread boundary into the worker pool —
/// `ping`, `stats`, `telemetry`, `dump` and `shutdown` never allocate
/// at all.
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
    /// server dispatches the command.
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
                // borrowed, not joined — the server's dispatch
                // normalizes it.
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
            Some("ping") => return Err("`ping` takes no arguments".into()),
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
            Some("shutdown") => return Err("`shutdown` takes no arguments".into()),
            Some("stall") if f.len() == 3 => RequestBodyRef::Stall {
                session: f[1],
                ms: f[2].parse().map_err(|_| "stall wants integer ms")?,
            },
            Some("stall") => return Err("`stall` wants: stall <session> <ms>".into()),
            Some(other) => return Err(format!("unknown verb `{other}`")),
            None => return Err("empty request".into()),
        })
    }
}

impl fmt::Display for RequestBodyRef<'_> {
    /// The canonical text form, which [`RequestBodyRef::parse`] reads
    /// back.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestBodyRef::Open { session, cell } => write!(f, "open {session} {cell}"),
            RequestBodyRef::Cmd { session, line } => write!(f, "cmd {session} {line}"),
            RequestBodyRef::Close { session } => write!(f, "close {session}"),
            RequestBodyRef::Ping => f.write_str("ping"),
            RequestBodyRef::Stats { session: None } => f.write_str("stats"),
            RequestBodyRef::Stats {
                session: Some(session),
            } => write!(f, "stats {session}"),
            RequestBodyRef::Telemetry {
                format: TelemetryFormat::Prometheus,
            } => f.write_str("telemetry prom"),
            RequestBodyRef::Telemetry {
                format: TelemetryFormat::Json,
            } => f.write_str("telemetry json"),
            RequestBodyRef::Dump => f.write_str("dump"),
            RequestBodyRef::Shutdown => f.write_str("shutdown"),
            RequestBodyRef::Stall { session, ms } => write!(f, "stall {session} {ms}"),
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
}

impl Request {
    /// Serializes to a frame payload: id, flags, optional trace
    /// context, text form. `trace: None` (or a [`TraceContext::NONE`])
    /// emits a zero flags byte and no context bytes.
    pub fn encode(&self, trace: Option<TraceContext>) -> Vec<u8> {
        let trace = trace.filter(|c| !c.is_none());
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&self.id.to_le_bytes());
        match trace {
            Some(ctx) => {
                out.push(REQ_FLAG_TRACE);
                out.extend_from_slice(&ctx.trace_id.to_le_bytes());
                out.extend_from_slice(&ctx.parent_span.to_le_bytes());
            }
            None => out.push(0),
        }
        // Writing into a `Vec` cannot fail.
        let _ = write!(out, "{}", self.body.view());
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
        return Err(ProtoError::Corrupt(RecordCorruption::BadMagic));
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
    use riot_core::record::{self, Scan};

    /// Decodes `bytes` into the id, the borrowed body and the trace.
    fn decode(bytes: &[u8]) -> Result<(u64, RequestBodyRef<'_>, Option<TraceContext>), String> {
        RequestRef::decode(bytes).map(|(req, trace)| (req.id, req.body, trace))
    }

    /// Asserts `req` survives encode → decode with `trace`.
    fn assert_round_trip(req: &Request, trace: Option<TraceContext>) {
        let bytes = req.encode(trace);
        assert_eq!(
            decode(&bytes).unwrap(),
            (req.id, req.body.view(), trace.filter(|c| !c.is_none()))
        );
    }

    /// An untraced payload: id, a zero flags byte, then `text`.
    fn payload(text: &[u8]) -> Vec<u8> {
        let mut p = 1u64.to_le_bytes().to_vec();
        p.push(0);
        p.extend_from_slice(text);
        p
    }

    /// One wire frame around `payload`.
    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        record::encode(&mut out, payload).unwrap();
        out
    }

    /// Reads one frame from input that has ended, under the wire cap.
    fn decode_frame_eof(bytes: &[u8]) -> Result<(&[u8], usize), RecordCorruption> {
        record::scan_eof(bytes, Some(MAX_FRAME_PAYLOAD))
    }

    #[test]
    fn frame_round_trip() {
        let frame = frame(b"hello riot");
        let (payload, consumed) = decode_frame_eof(&frame).unwrap();
        assert_eq!(payload, b"hello riot");
        assert_eq!(consumed, frame.len());
    }

    #[test]
    fn empty_payload_is_a_valid_frame() {
        let frame = frame(b"");
        let (payload, consumed) = decode_frame_eof(&frame).unwrap();
        assert!(payload.is_empty());
        assert_eq!(consumed, 8);
    }

    #[test]
    fn torn_header_and_payload_are_clean_errors() {
        let frame = frame(b"payload");
        assert_eq!(
            decode_frame_eof(&frame[..5]),
            Err(RecordCorruption::TornHeader)
        );
        assert_eq!(
            decode_frame_eof(&frame[..frame.len() - 2]),
            Err(RecordCorruption::TornPayload {
                expected: 7,
                available: 5
            })
        );
    }

    #[test]
    fn bit_flip_is_a_checksum_error() {
        let mut frame = frame(b"payload");
        let last = frame.len() - 1;
        frame[last] ^= 0x10;
        assert!(matches!(
            decode_frame_eof(&frame),
            Err(RecordCorruption::BadChecksum { .. })
        ));
    }

    #[test]
    fn oversize_length_is_rejected_without_waiting() {
        let mut frame = Vec::new();
        record::encode(&mut frame, b"x").unwrap();
        frame[..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert_eq!(
            record::scan(&frame, Some(MAX_FRAME_PAYLOAD)),
            Scan::Corrupt(RecordCorruption::TooLarge {
                len: u32::MAX as usize,
                max: MAX_FRAME_PAYLOAD
            })
        );
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
            assert_round_trip(&req, None);
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
        assert!(decode(&payload(&[0xFF, 0xFE, 0x80])).is_err());
        // Every malformed text names its verb and what it wants.
        for (text, want) in [
            ("frobnicate x", "unknown verb `frobnicate`"),
            ("open only_two", "`open` wants"),
            ("ping x", "`ping` takes no arguments"),
            ("shutdown now", "`shutdown` takes no arguments"),
            ("stall s", "`stall` wants: stall <session> <ms>"),
            ("stall s soon", "stall wants integer ms"),
            ("dump all", "`dump` takes no arguments"),
        ] {
            let err = decode(&payload(text.as_bytes())).unwrap_err();
            assert!(err.contains(want), "{text:?} gave {err:?}");
        }
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
        assert_round_trip(&req, Some(TraceContext::new(0xABCD_EF01_2345_6789, 42)));
        assert_round_trip(&req, None);
        // A NONE context is normalized away rather than wasting bytes.
        let bytes = req.encode(Some(TraceContext::NONE));
        assert_eq!(bytes[8], 0);
        assert_eq!(decode(&bytes).unwrap().2, None);
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
            assert_round_trip(&Request { id: 5, body }, None);
        }
        // Bare `telemetry` defaults to Prometheus.
        assert_eq!(
            decode(&payload(b"telemetry")).unwrap().1,
            RequestBodyRef::Telemetry {
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
}
