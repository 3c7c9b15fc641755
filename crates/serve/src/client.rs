//! A small blocking client for the `RIOTSRV2` protocol, used by the
//! CLI, the bench load generator and the integration tests.
//!
//! Two styles compose:
//!
//! * **call** — [`Client::request`] sends one request and blocks for
//!   its reply (ids still checked);
//! * **pipeline** — [`Client::send`] queues requests without waiting,
//!   [`Client::recv`] pulls replies in order. The server guarantees
//!   per-session FIFO, so a pipelining client sees its ids echo back
//!   in submission order.
//!
//! [`Client::send_traced`] attaches a [`TraceContext`] so the server
//! continues the caller's trace through its own spans.

use crate::net::{BoundAddr, Stream};
use crate::proto::{
    handshake_client, ProtoError, Reply, ReplyBody, Request, RequestBody, TelemetryFormat,
    MAX_FRAME_PAYLOAD,
};
use riot_core::record::{self, Scan};
use riot_trace::TraceContext;
use std::io::{Read, Write};
use std::path::Path;
use std::time::Duration;

/// Bytes [`Client::recv`] asks the socket for at a time.
const READ_CHUNK: usize = 4096;

/// One connection to a riot-serve server.
#[derive(Debug)]
pub struct Client {
    stream: Stream,
    next_id: u64,
    /// Received bytes not yet returned as replies: frames are scanned
    /// in place, and the buffer is reused across [`Client::recv`] calls
    /// so a pipelining client decodes replies without per-frame
    /// allocation.
    buf: Vec<u8>,
}

impl Client {
    /// Connects and handshakes.
    ///
    /// # Errors
    ///
    /// Connect or handshake failures.
    pub fn connect(addr: &BoundAddr) -> Result<Client, ProtoError> {
        let stream = Stream::connect(addr)?;
        Client::finish(stream)
    }

    /// Connects to a TCP address string (e.g. `127.0.0.1:7117`).
    ///
    /// # Errors
    ///
    /// Connect or handshake failures.
    pub fn connect_tcp(addr: &str) -> Result<Client, ProtoError> {
        Client::finish(Stream::connect_tcp(addr)?)
    }

    /// Connects to a Unix socket path.
    ///
    /// # Errors
    ///
    /// Connect or handshake failures.
    pub fn connect_unix(path: &Path) -> Result<Client, ProtoError> {
        Client::finish(Stream::connect_unix(path)?)
    }

    fn finish(mut stream: Stream) -> Result<Client, ProtoError> {
        handshake_client(&mut stream)?;
        Ok(Client {
            stream,
            next_id: 1,
            buf: Vec::new(),
        })
    }

    /// Sets the socket read timeout (`None` blocks forever).
    ///
    /// # Errors
    ///
    /// The underlying socket option failure.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> Result<(), ProtoError> {
        self.stream.set_read_timeout(t)?;
        Ok(())
    }

    /// Queues one request without waiting; returns its id.
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn send(&mut self, body: RequestBody) -> Result<u64, ProtoError> {
        self.send_traced(body, TraceContext::NONE)
    }

    /// Queues one request carrying a trace context, so the server's
    /// decode/queue/apply/flush spans join the caller's trace.
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn send_traced(&mut self, body: RequestBody, ctx: TraceContext) -> Result<u64, ProtoError> {
        let id = self.next_id;
        self.next_id += 1;
        let mut frame = Vec::new();
        let req = Request { id, body };
        record::encode(&mut frame, &req.encode(Some(ctx))).map_err(ProtoError::Corrupt)?;
        self.stream.write_all(&frame)?;
        self.stream.flush()?;
        Ok(id)
    }

    /// Receives the next reply, reading the socket until a whole frame
    /// is buffered.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Closed`] when the server closes between frames; a
    /// close mid-frame is a torn frame; socket failures, corrupt frames
    /// or malformed reply payloads.
    pub fn recv(&mut self) -> Result<Reply, ProtoError> {
        loop {
            match record::scan(&self.buf, Some(MAX_FRAME_PAYLOAD)) {
                Scan::Complete { payload, consumed } => {
                    let reply = Reply::decode(payload).map_err(ProtoError::BadPayload);
                    self.buf.drain(..consumed);
                    return reply;
                }
                Scan::Corrupt(c) => return Err(ProtoError::Corrupt(c)),
                Scan::Incomplete => self.fill()?,
            }
        }
    }

    /// Reads more bytes onto the end of the receive buffer.
    fn fill(&mut self) -> Result<(), ProtoError> {
        let have = self.buf.len();
        self.buf.resize(have + READ_CHUNK, 0);
        let read = self.stream.read(&mut self.buf[have..]);
        self.buf.truncate(have + read.as_ref().map_or(0, |n| *n));
        match read? {
            0 if have == 0 => Err(ProtoError::Closed),
            // Part of a frame is buffered and no more is coming.
            0 => Err(record::scan_eof(&self.buf, Some(MAX_FRAME_PAYLOAD))
                .err()
                .map_or(ProtoError::Closed, ProtoError::Corrupt)),
            _ => Ok(()),
        }
    }

    /// Sends one request and blocks for its reply, checking the echoed
    /// id.
    ///
    /// # Errors
    ///
    /// Socket failures, or a reply id that does not match (a server
    /// bug or a protocol desync — the connection should be dropped).
    pub fn request(&mut self, body: RequestBody) -> Result<Reply, ProtoError> {
        let id = self.send(body)?;
        let reply = self.recv()?;
        if reply.id != id {
            return Err(ProtoError::BadPayload(format!(
                "reply id {} does not answer request id {id}",
                reply.id
            )));
        }
        Ok(reply)
    }

    fn call(&mut self, body: RequestBody) -> Result<String, String> {
        match self.request(body) {
            Ok(Reply {
                body: ReplyBody::Ok(d),
                ..
            }) => Ok(d),
            Ok(Reply {
                body: ReplyBody::Err(m),
                ..
            }) => Err(m),
            Ok(Reply {
                body: ReplyBody::Busy,
                ..
            }) => Err("busy".to_owned()),
            Err(e) => Err(format!("transport: {e}")),
        }
    }

    /// `open <session> <cell>`: create, attach or recover a session.
    ///
    /// # Errors
    ///
    /// The server's error message.
    pub fn open(&mut self, session: &str, cell: &str) -> Result<String, String> {
        self.call(RequestBody::Open {
            session: session.to_owned(),
            cell: cell.to_owned(),
        })
    }

    /// `cmd <session> <line>`: apply one editor command.
    ///
    /// # Errors
    ///
    /// The server's error message (or `busy`).
    pub fn cmd(&mut self, session: &str, line: &str) -> Result<String, String> {
        self.call(RequestBody::Cmd {
            session: session.to_owned(),
            line: line.to_owned(),
        })
    }

    /// `cmd <session> <line>` with a trace context attached: the
    /// pipelined form tests and traced tools use. Returns the request
    /// id; pull the reply with [`Client::recv`].
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn cmd_traced(
        &mut self,
        session: &str,
        line: &str,
        ctx: TraceContext,
    ) -> Result<u64, ProtoError> {
        self.send_traced(
            RequestBody::Cmd {
                session: session.to_owned(),
                line: line.to_owned(),
            },
            ctx,
        )
    }

    /// `telemetry [prom|json]`: a metrics snapshot over the wire.
    ///
    /// # Errors
    ///
    /// The server's error message.
    pub fn telemetry(&mut self, format: TelemetryFormat) -> Result<String, String> {
        self.call(RequestBody::Telemetry { format })
    }

    /// `dump`: write the flight recorder to a file under the server
    /// root; returns the path.
    ///
    /// # Errors
    ///
    /// The server's error message.
    pub fn dump(&mut self) -> Result<String, String> {
        self.call(RequestBody::Dump)
    }

    /// `close <session>`: flush the WAL and evict the session.
    ///
    /// # Errors
    ///
    /// The server's error message.
    pub fn close_session(&mut self, session: &str) -> Result<String, String> {
        self.call(RequestBody::Close {
            session: session.to_owned(),
        })
    }

    /// `ping`.
    ///
    /// # Errors
    ///
    /// The server's error message.
    pub fn ping(&mut self) -> Result<String, String> {
        self.call(RequestBody::Ping)
    }

    /// `stats`: live session and queue-depth gauges.
    ///
    /// # Errors
    ///
    /// The server's error message.
    pub fn stats(&mut self) -> Result<String, String> {
        self.call(RequestBody::Stats { session: None })
    }

    /// `stats <session>`: the session's engine counters — commands
    /// applied, derived-cache hit rate, and damage-region totals.
    ///
    /// # Errors
    ///
    /// The server's error message (e.g. the session does not exist).
    pub fn stats_session(&mut self, session: &str) -> Result<String, String> {
        self.call(RequestBody::Stats {
            session: Some(session.to_owned()),
        })
    }

    /// `shutdown`: ask the server to drain and exit.
    ///
    /// # Errors
    ///
    /// The server's error message.
    pub fn shutdown_server(&mut self) -> Result<String, String> {
        self.call(RequestBody::Shutdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riot_core::RecordCorruption;
    use std::os::unix::net::UnixStream;

    #[test]
    fn recv_scans_pipelined_replies_from_one_buffer() {
        // The other end of the pair stands in for the server.
        let (ours, mut server) = UnixStream::pair().unwrap();
        let mut c = Client {
            stream: Stream::Unix(ours),
            next_id: 1,
            buf: Vec::new(),
        };
        let mut wire = Vec::new();
        for (id, detail) in [(1, "a long first detail"), (2, "short"), (3, "torn")] {
            let body = ReplyBody::Ok(detail.to_owned());
            record::encode(&mut wire, &Reply { id, body }.encode()).unwrap();
        }
        // One write carries all three replies, the last one torn.
        server.write_all(&wire[..wire.len() - 1]).unwrap();
        drop(server);
        assert_eq!(c.recv().unwrap().id, 1);
        assert_eq!(c.recv().unwrap().id, 2);
        assert!(matches!(
            c.recv(),
            Err(ProtoError::Corrupt(RecordCorruption::TornPayload { expected, available }))
                if available + 1 == expected
        ));
        c.buf.clear();
        assert!(
            matches!(c.recv(), Err(ProtoError::Closed)),
            "nothing buffered"
        );
    }
}
