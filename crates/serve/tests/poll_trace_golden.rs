//! Golden conformance fixture for the poll event loop:
//! `examples/poll_trace.jsonl` pins one connection's full lifecycle —
//! accept → readable (including a mid-frame split) → handshake →
//! frame → dispatch → reply → writable → close — as canonical JSONL
//! trace events. The fixture must parse and re-encode byte-identically
//! (the [`riot_serve::TraceEvent`] codec is canonical), and replaying
//! the script through a real [`riot_serve::Connection`] must reproduce
//! the file byte-for-byte. Regenerate with the `#[ignore]` test below
//! after a deliberate protocol change.

use riot_core::record;
use riot_serve::conn::to_hex;
use riot_serve::{
    ConnEvent, Connection, Reply, ReplyBody, Request, RequestBody, RequestBodyRef, RequestRef,
    TraceEvent, SRV_MAGIC_V2,
};
use std::path::PathBuf;

/// The fixture's connection token: arbitrary, pinned.
const CONN: u64 = 7;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/poll_trace.jsonl")
}

fn request_text(body: &RequestBodyRef<'_>) -> String {
    match body {
        RequestBodyRef::Open { session, cell } => format!("open {session} {cell}"),
        RequestBodyRef::Cmd { session, line } => format!("cmd {session} {line}"),
        RequestBodyRef::Ping => "ping".to_owned(),
        other => format!("{other:?}"),
    }
}

/// One wire frame around `payload`.
fn frame_of(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    record::encode(&mut out, payload).expect("frame fits");
    out
}

fn reply_text(body: &ReplyBody) -> String {
    match body {
        ReplyBody::Ok(d) => format!("ok {d}"),
        ReplyBody::Err(m) => format!("err {m}"),
        ReplyBody::Busy => "busy".to_owned(),
    }
}

/// The session a request dispatches into, if it crosses into the
/// worker pool (pings are answered on the event loop itself).
fn dispatch_session(body: &RequestBodyRef<'_>) -> Option<String> {
    match body {
        RequestBodyRef::Open { session, .. } | RequestBodyRef::Cmd { session, .. } => {
            Some((*session).to_owned())
        }
        _ => None,
    }
}

/// Flushes the connection's whole write backlog as one `writable`
/// event, exactly as the loop does when the socket accepts it all.
fn flush(c: &mut Connection, ev: &mut Vec<TraceEvent>) {
    let bytes = c.writable_bytes().to_vec();
    if !bytes.is_empty() {
        c.advance_write(bytes.len());
        ev.push(TraceEvent::Writable {
            conn: CONN,
            hex: to_hex(&bytes),
        });
    }
}

/// Feeds the wire chunks of one request, pumping the state machine
/// after each: `readable` per chunk, then `frame` (+ `dispatch` for
/// worker verbs) once the frame completes, then the scripted `reply`
/// and the `writable` that carries it out.
fn step(c: &mut Connection, ev: &mut Vec<TraceEvent>, chunks: &[&[u8]], reply: &Reply) {
    let mut replied = false;
    for chunk in chunks {
        ev.push(TraceEvent::Readable {
            conn: CONN,
            hex: to_hex(chunk),
        });
        c.ingest(chunk);
        while let Some(event) = c.next_event() {
            let ConnEvent::Frame { off, len } = event else {
                panic!("fixture script expected a frame, got {event:?}");
            };
            let payload = c.frame_payload(off, len);
            let (req, _) = RequestRef::decode(payload).expect("fixture decodes");
            ev.push(TraceEvent::Frame {
                conn: CONN,
                id: req.id,
                text: request_text(&req.body),
            });
            let dispatch = dispatch_session(&req.body);
            if let Some(session) = dispatch {
                ev.push(TraceEvent::Dispatch {
                    conn: CONN,
                    id: req.id,
                    session,
                });
            }
            c.note_dispatched();
            let _ = c.deliver_reply(reply);
            ev.push(TraceEvent::Reply {
                conn: CONN,
                id: reply.id,
                text: reply_text(&reply.body),
            });
            flush(c, ev);
            replied = true;
        }
    }
    assert!(replied, "fixture chunks never completed a frame");
}

/// Drives the canonical script through a real connection state
/// machine and returns the trace it produces. This is both the
/// fixture generator and the replay: the golden test asserts its
/// output matches the checked-in file byte-for-byte.
fn replayed_trace() -> Vec<TraceEvent> {
    let mut ev = Vec::new();
    let mut c = Connection::new(1 << 16);
    ev.push(TraceEvent::Accept { conn: CONN });

    // Handshake: magic in, version event, echo out.
    ev.push(TraceEvent::Readable {
        conn: CONN,
        hex: to_hex(SRV_MAGIC_V2),
    });
    c.ingest(SRV_MAGIC_V2);
    assert_eq!(c.next_event(), Some(ConnEvent::Handshake));
    ev.push(TraceEvent::Handshake {
        conn: CONN,
        version: 2,
    });
    flush(&mut c, &mut ev);

    // open riot TOP — one whole frame.
    let open = Request {
        id: 1,
        body: RequestBody::Open {
            session: "riot".into(),
            cell: "TOP".into(),
        },
    };
    let frame = frame_of(&open.encode(None));
    step(
        &mut c,
        &mut ev,
        &[&frame],
        &Reply {
            id: 1,
            body: ReplyBody::Ok("created".into()),
        },
    );

    // cmd riot create nand2 A — split mid-frame: the first chunk ends
    // inside the payload, pinning the partial-frame path.
    let cmd = Request {
        id: 2,
        body: RequestBody::Cmd {
            session: "riot".into(),
            line: "create nand2 A".into(),
        },
    };
    let frame = frame_of(&cmd.encode(None));
    let (head, tail) = frame.split_at(13);
    step(
        &mut c,
        &mut ev,
        &[head, tail],
        &Reply {
            id: 2,
            body: ReplyBody::Ok("instance 0".into()),
        },
    );

    // ping — answered on the loop, no dispatch event.
    let ping = Request {
        id: 3,
        body: RequestBody::Ping,
    };
    let frame = frame_of(&ping.encode(None));
    step(
        &mut c,
        &mut ev,
        &[&frame],
        &Reply {
            id: 3,
            body: ReplyBody::Ok("pong".into()),
        },
    );

    // Drain: backlog is flushed and nothing is in flight, so the
    // connection closes immediately.
    c.begin_drain();
    assert!(c.is_closed(), "scripted drain must close cleanly");
    ev.push(TraceEvent::Close { conn: CONN });
    ev
}

fn render(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_json_line());
        out.push('\n');
    }
    out
}

/// Every line of the fixture parses and re-encodes to the same bytes:
/// the trace codec is canonical, so a fixture diff is always a real
/// protocol change, never formatting noise.
#[test]
fn fixture_parses_and_reencodes_byte_identically() {
    let text = std::fs::read_to_string(fixture_path()).expect("examples/poll_trace.jsonl exists");
    assert!(!text.is_empty() && text.ends_with('\n'));
    for line in text.lines() {
        let event = TraceEvent::parse_line(line).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(event.to_json_line(), line, "non-canonical fixture line");
    }
}

/// Replaying the pinned script through a live connection state machine
/// reproduces the fixture byte-for-byte — accept through close,
/// including the mid-frame split and the handshake echo.
#[test]
fn replay_reproduces_the_fixture() {
    let want = std::fs::read_to_string(fixture_path()).expect("examples/poll_trace.jsonl exists");
    assert_eq!(render(&replayed_trace()), want, "event-loop trace drifted");
}

/// Rewrites the checked-in fixture from the live state machine. Run
/// after a deliberate wire or trace change:
/// `cargo test -p riot-serve --test poll_trace_golden -- --ignored`
#[test]
#[ignore = "rewrites the checked-in fixture"]
fn regenerate_fixture() {
    std::fs::write(fixture_path(), render(&replayed_trace())).expect("write fixture");
}
