//! Golden-fixture test for the `RIOTSRV2` wire format.
//!
//! `examples/handshake.srv` is a checked-in byte capture of one
//! complete client session: the 8-byte magic followed by seven framed
//! requests (open → four commands → close → shutdown). The fixture
//! pins the wire format: if the codec drifts, these bytes stop
//! decoding — and that is a protocol break, not a refactor.

use riot_core::record::{self, Scan};
use riot_serve::{
    Bind, Reply, ReplyBody, Request, RequestBody, RequestRef, ServeConfig, Server, Stream,
    MAX_FRAME_PAYLOAD, SRV_MAGIC_V2,
};
use std::io::{Read, Write};

const FIXTURE: &[u8] = include_bytes!("../../../examples/handshake.srv");

fn expected_requests() -> Vec<Request> {
    let s = |t: &str| t.to_owned();
    vec![
        Request {
            id: 1,
            body: RequestBody::Open {
                session: s("alice"),
                cell: s("TOP"),
            },
        },
        Request {
            id: 2,
            body: RequestBody::Cmd {
                session: s("alice"),
                line: s("create nand2 I0"),
            },
        },
        Request {
            id: 3,
            body: RequestBody::Cmd {
                session: s("alice"),
                line: s("translate I0 4000 0"),
            },
        },
        Request {
            id: 4,
            body: RequestBody::Cmd {
                session: s("alice"),
                line: s("create nand2 I1"),
            },
        },
        Request {
            id: 5,
            body: RequestBody::Cmd {
                session: s("alice"),
                line: s("connect I0 OUT I1 A"),
            },
        },
        Request {
            id: 6,
            body: RequestBody::Close {
                session: s("alice"),
            },
        },
        Request {
            id: 7,
            body: RequestBody::Shutdown,
        },
    ]
}

/// The fixture decodes to exactly the expected request sequence.
#[test]
fn fixture_decodes_to_the_canonical_session() {
    assert_eq!(&FIXTURE[..8], SRV_MAGIC_V2, "fixture starts with the magic");
    let mut rest = &FIXTURE[8..];
    let mut decoded = Vec::new();
    while !rest.is_empty() {
        match record::scan(rest, Some(MAX_FRAME_PAYLOAD)) {
            Scan::Complete { payload, consumed } => {
                let (req, trace) = RequestRef::decode(payload).expect("fixture frame decodes");
                assert_eq!(trace, None, "fixture requests carry no trace context");
                decoded.push((req.id, req.body));
                rest = &rest[consumed..];
            }
            other => panic!("fixture has a non-frame region: {other:?}"),
        }
    }
    let expected = expected_requests();
    let expected: Vec<_> = expected.iter().map(|r| (r.id, r.body.view())).collect();
    assert_eq!(decoded, expected);
}

/// Re-encoding the decoded requests reproduces the fixture **byte for
/// byte** — the codec is deterministic and stable.
#[test]
fn fixture_re_encodes_byte_identically() {
    let mut rebuilt = SRV_MAGIC_V2.to_vec();
    for req in expected_requests() {
        record::encode(&mut rebuilt, &req.encode(None)).unwrap();
    }
    assert_eq!(
        rebuilt, FIXTURE,
        "wire encoding drifted from the golden bytes"
    );
}

/// The fixture is not just syntax: replayed against a live server it
/// runs to completion with every request acknowledged.
#[test]
fn fixture_replays_against_a_live_server() {
    let root = std::env::temp_dir().join(format!("riot-serve-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut cfg = ServeConfig::new(&root);
    cfg.threads = 2;
    cfg.tick = std::time::Duration::from_millis(2);
    let h = Server::start(cfg, &Bind::Tcp("127.0.0.1:0".into())).unwrap();
    let mut s = Stream::connect(&h.addr()).unwrap();
    // The fixture opens with the client magic; the server echoes it.
    s.write_all(FIXTURE).unwrap();
    let mut echo = [0u8; 8];
    s.read_exact(&mut echo).unwrap();
    assert_eq!(&echo, SRV_MAGIC_V2);
    // Collect replies until the server half-closes after the drain.
    let mut bytes = Vec::new();
    let mut tmp = [0u8; 1024];
    loop {
        match s.read(&mut tmp) {
            Ok(0) | Err(_) => break,
            Ok(n) => bytes.extend_from_slice(&tmp[..n]),
        }
    }
    let mut replies = Vec::new();
    let mut rest = &bytes[..];
    while !rest.is_empty() {
        match record::scan(rest, Some(MAX_FRAME_PAYLOAD)) {
            Scan::Complete { payload, consumed } => {
                replies.push(Reply::decode(payload).expect("reply decodes"));
                rest = &rest[consumed..];
            }
            other => panic!("server wrote a non-frame region: {other:?}"),
        }
    }
    h.wait();
    // Pipelined replies may interleave across streams (the inline
    // `shutdown` ack can overtake session replies), so match by id.
    let mut ids: Vec<u64> = replies.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    assert_eq!(
        ids,
        vec![1, 2, 3, 4, 5, 6, 7],
        "every request answered exactly once"
    );
    for reply in &replies {
        assert!(
            matches!(reply.body, ReplyBody::Ok(_)),
            "request {} failed: {:?}",
            reply.id,
            reply.body
        );
    }
    // Per-session FIFO: the session-bound replies (1..=6) appear in
    // submission order relative to each other.
    let session_ids: Vec<u64> = replies.iter().map(|r| r.id).filter(|id| *id <= 6).collect();
    assert_eq!(session_ids, vec![1, 2, 3, 4, 5, 6]);
    let _ = std::fs::remove_dir_all(root);
}
