//! Property tests for the one record codec ([`riot_core::record`]) in
//! each of its three framings — `RIOTSRV2` wire frames, `RIOTWAL1`
//! journals and `RIOTSNAP1` snapshots, each read by its format's own
//! reader — and for the wire's message codecs. Every payload
//! round-trips; every truncation is incomplete or torn; every flipped
//! payload bit is a bad checksum; an oversize length is refused before
//! its payload arrives. Never a panic, never silent garbage.

use proptest::prelude::*;
use riot_core::record::{self, RecordCorruption, Scan, HEADER_LEN};
use riot_core::{command_to_line, Journal, WalCorruption, WAL_MAGIC};
use riot_serve::conn::to_hex;
use riot_serve::{
    parse_snapshot, valid_session_name, Reply, ReplyBody, Request, RequestBody, RequestRef,
    SnapshotError, MAX_FRAME_PAYLOAD, SNAP_MAGIC,
};
use riot_trace::TraceContext;

/// Where a record lives.
#[derive(Debug, Clone, Copy)]
enum Framing {
    /// A frame on an established connection: no prefix, 1 MiB cap.
    Wire,
    /// A write-ahead journal: the magic, then one record per command.
    Wal,
    /// A snapshot file: the magic, the covered count, one record.
    Snapshot,
}

/// The `covered` count every test snapshot carries.
const COVERED: u64 = 7;

impl Framing {
    /// The payload this framing carries for `raw`: the bytes
    /// themselves, except that a WAL record holds a command line.
    fn payload(self, raw: &[u8]) -> Vec<u8> {
        match self {
            Framing::Wal => format!("create nand2 x{}", to_hex(raw)).into_bytes(),
            Framing::Wire | Framing::Snapshot => raw.to_vec(),
        }
    }

    /// The bytes before the record.
    fn prefix(self) -> Vec<u8> {
        match self {
            Framing::Wire => Vec::new(),
            Framing::Wal => WAL_MAGIC.to_vec(),
            Framing::Snapshot => [&SNAP_MAGIC[..], &COVERED.to_le_bytes()].concat(),
        }
    }

    /// The length cap the format's reader passes the scanner.
    fn cap(self) -> Option<usize> {
        match self {
            Framing::Wire => Some(MAX_FRAME_PAYLOAD),
            Framing::Wal | Framing::Snapshot => None,
        }
    }

    /// The whole input: prefix, then `payload` as one record.
    fn bytes(self, payload: &[u8]) -> Vec<u8> {
        let mut out = self.prefix();
        record::encode(&mut out, payload).unwrap();
        out
    }

    /// Reads the one record back through the format's own reader.
    fn read(self, bytes: &[u8]) -> Result<Vec<u8>, RecordCorruption> {
        match self {
            Framing::Wire => record::scan_eof(bytes, self.cap()).map(|(p, _)| p.to_vec()),
            Framing::Wal => {
                let rec = Journal::recover_wal(bytes);
                match rec.corruption {
                    None => Ok(rec
                        .journal
                        .commands()
                        .iter()
                        .map(command_to_line)
                        .collect::<String>()
                        .into_bytes()),
                    Some(WalCorruption::Record(c)) => Err(c),
                    Some(WalCorruption::BadPayload(m)) => panic!("WAL payload is no command: {m}"),
                }
            }
            Framing::Snapshot => match parse_snapshot(bytes) {
                Ok((covered, p)) => {
                    assert_eq!(covered, COVERED);
                    Ok(p.to_vec())
                }
                Err(SnapshotError::Record(c)) => Err(c),
                Err(other) => panic!("snapshot framing failed oddly: {other}"),
            },
        }
    }
}

fn arb_framing() -> impl Strategy<Value = Framing> {
    prop::sample::select(vec![Framing::Wire, Framing::Wal, Framing::Snapshot])
}

/// Arbitrary binary payload (up to 200 bytes, full byte range).
fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0usize..256, 0..200)
        .prop_map(|v| v.into_iter().map(|b| b as u8).collect())
}

/// A command-ish line: printable, no interior structure the codec
/// cares about (the codec treats it as opaque words).
fn arb_line() -> impl Strategy<Value = String> {
    "[a-z0-9 _-]{1,80}".prop_map(|s| {
        let joined = s.split_whitespace().collect::<Vec<_>>().join(" ");
        if joined.is_empty() {
            "x".to_owned()
        } else {
            joined
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn frame_round_trips(raw in arb_payload(), framing in arb_framing()) {
        for raw in [&raw[..], &[]] {
            let payload = framing.payload(raw);
            prop_assert_eq!(framing.read(&framing.bytes(&payload)), Ok(payload));
        }
    }

    #[test]
    fn torn_tails_decode_to_clean_errors(
        raw in arb_payload(),
        cut in 0usize..400,
        framing in arb_framing(),
    ) {
        let payload = framing.payload(&raw);
        let bytes = framing.bytes(&payload);
        // Keep the prefix and 1..record_len - 1 bytes of the record.
        let head = framing.prefix().len();
        let kept = 1 + cut % (bytes.len() - head - 1);
        let torn = &bytes[..head + kept];
        match framing.read(torn) {
            Err(RecordCorruption::TornHeader) => prop_assert!(kept < HEADER_LEN),
            Err(RecordCorruption::TornPayload { expected, available }) => {
                prop_assert_eq!(expected, payload.len());
                prop_assert_eq!(available, kept - HEADER_LEN);
            }
            other => prop_assert!(false, "torn record decoded to {other:?}"),
        }
        // The streaming scanner must agree that more bytes are needed
        // (it cannot know the input ended).
        prop_assert_eq!(record::scan(&torn[head..], framing.cap()), Scan::Incomplete);
    }

    #[test]
    fn bit_flips_never_yield_the_original_decode(
        raw in arb_payload(),
        bit in 0usize..3200,
        framing in arb_framing(),
    ) {
        let payload = framing.payload(&raw);
        let mut flipped = framing.bytes(&payload);
        let head = framing.prefix().len();
        let at = head * 8 + bit % ((flipped.len() - head) * 8);
        flipped[at / 8] ^= 1 << (at % 8);
        let decoded = framing.read(&flipped);
        if at / 8 >= head + HEADER_LEN {
            // CRC-32 catches every single-bit error in the payload.
            prop_assert!(
                matches!(decoded, Err(RecordCorruption::BadChecksum { .. })),
                "payload flip read as {decoded:?}"
            );
        } else if let Ok(back) = decoded {
            // A flip in the length field may re-frame the bytes, but
            // never reproduces the original payload.
            prop_assert_ne!(back, payload);
        }
    }

    #[test]
    fn oversize_length_is_refused_before_its_payload(
        len in (MAX_FRAME_PAYLOAD as u32 + 1)..u32::MAX,
        sent in 0usize..64,
        framing in arb_framing(),
    ) {
        let mut bytes = framing.prefix();
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.extend_from_slice(&[0xAB; 4]);
        bytes.resize(bytes.len() + sent, 0);
        let len = len as usize;
        match framing.cap() {
            // The wire refuses the header alone.
            Some(max) => prop_assert_eq!(
                record::scan(&bytes, Some(max)),
                Scan::Corrupt(RecordCorruption::TooLarge { len, max })
            ),
            // A file has no cap: the length is only a promise it breaks.
            None => prop_assert_eq!(
                framing.read(&bytes),
                Err(RecordCorruption::TornPayload { expected: len, available: sent })
            ),
        }
    }

    #[test]
    fn frame_streams_scan_in_sequence(payloads in prop::collection::vec(arb_payload(), 1..6)) {
        let mut wire = Vec::new();
        for p in &payloads {
            record::encode(&mut wire, p).unwrap();
        }
        let mut off = 0usize;
        for expected in &payloads {
            match record::scan(&wire[off..], Some(MAX_FRAME_PAYLOAD)) {
                Scan::Complete { payload, consumed } => {
                    prop_assert_eq!(payload, &expected[..]);
                    off += consumed;
                }
                other => prop_assert!(false, "wanted a frame, got {other:?}"),
            }
        }
        prop_assert_eq!(off, wire.len());
    }

    #[test]
    fn requests_round_trip(
        id in 0u64..u64::MAX,
        session in "[A-Za-z0-9_-]{1,64}",
        line in arb_line(),
        traced in prop::bool::ANY,
        trace_id in 1u64..u64::MAX,
    ) {
        let trace = traced.then(|| TraceContext::new(trace_id, 1));
        prop_assert!(valid_session_name(&session));
        for body in [
            RequestBody::Open { session: session.clone(), cell: "TOP".to_owned() },
            RequestBody::Cmd { session: session.clone(), line },
            RequestBody::Stats { session: Some(session.clone()) },
            RequestBody::Close { session },
            RequestBody::Ping,
            RequestBody::Stats { session: None },
            RequestBody::Shutdown,
        ] {
            let req = Request { id, body };
            let bytes = req.encode(trace);
            let (back, ctx) = RequestRef::decode(&bytes).expect("round trip");
            prop_assert_eq!((back.id, back.body), (req.id, req.body.view()));
            prop_assert_eq!(ctx, trace);
        }
    }

    #[test]
    fn replies_round_trip(id in 0u64..u64::MAX, detail in arb_line()) {
        for body in [
            ReplyBody::Ok(detail.clone()),
            ReplyBody::Err(detail.clone()),
            ReplyBody::Busy,
        ] {
            let rep = Reply { id, body };
            let bytes = rep.encode();
            prop_assert_eq!(Reply::decode(&bytes).expect("round trip"), rep);
        }
    }

    #[test]
    fn request_decode_never_panics_on_garbage(bytes in arb_payload()) {
        let _ = RequestRef::decode(&bytes);
        let _ = Reply::decode(&bytes);
        let _ = record::scan_eof(&bytes, Some(MAX_FRAME_PAYLOAD));
        let _ = record::scan(&bytes, Some(MAX_FRAME_PAYLOAD));
        let _ = Journal::recover_wal(&[Framing::Wal.prefix(), bytes.clone()].concat());
        let _ = parse_snapshot(&[Framing::Snapshot.prefix(), bytes].concat());
    }
}
