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
    handshake_client, read_frame_into, write_frame, ProtoError, Reply, ReplyBody, Request,
    RequestBody, TelemetryFormat,
};
use riot_trace::TraceContext;
use std::io::Write;
use std::path::Path;
use std::time::Duration;

/// One connection to a riot-serve server.
#[derive(Debug)]
pub struct Client {
    stream: Stream,
    next_id: u64,
    /// Reply-payload scratch, reused across [`Client::recv`] calls so
    /// a pipelining client decodes replies without per-frame
    /// allocation.
    scratch: Vec<u8>,
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
            scratch: Vec::new(),
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
        let req = Request { id, body };
        write_frame(&mut self.stream, &req.encode(Some(ctx)))?;
        self.stream.flush()?;
        Ok(id)
    }

    /// Receives the next reply.
    ///
    /// # Errors
    ///
    /// Socket/framing failures or malformed reply payloads.
    pub fn recv(&mut self) -> Result<Reply, ProtoError> {
        read_frame_into(&mut self.stream, &mut self.scratch)?;
        Reply::decode(&self.scratch).map_err(ProtoError::BadPayload)
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
