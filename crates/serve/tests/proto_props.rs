//! Property tests for the `RIOTSRV2` frame and message codecs: every
//! payload round-trips, every torn tail and every bit flip decodes to
//! a clean [`FrameCorruption`] — never a panic, never silent garbage.

use proptest::prelude::*;
use riot_serve::{
    decode_frame_eof, encode_frame, scan_frame_ref, valid_session_name, FrameCorruption,
    FrameScanRef, Reply, ReplyBody, Request, RequestBody, RequestRef,
};
use riot_trace::TraceContext;

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
    fn frame_round_trips(payload in arb_payload()) {
        let frame = encode_frame(&payload);
        let (back, consumed) = decode_frame_eof(&frame).expect("intact frame decodes");
        prop_assert_eq!(back, payload);
        prop_assert_eq!(consumed, frame.len());
    }

    #[test]
    fn torn_tails_decode_to_clean_errors(payload in arb_payload(), cut in 0usize..200) {
        let frame = encode_frame(&payload);
        let cut = cut % frame.len().max(1);
        if cut == frame.len() {
            return Ok(());
        }
        let torn = &frame[..cut];
        match decode_frame_eof(torn) {
            Err(FrameCorruption::TornHeader) => prop_assert!(cut < 8),
            Err(FrameCorruption::TornPayload { expected, available }) => {
                prop_assert_eq!(expected, payload.len());
                prop_assert_eq!(available, cut - 8);
            }
            other => prop_assert!(false, "torn frame decoded to {other:?}"),
        }
        // The streaming scanner must agree that more bytes are needed
        // (it cannot know the stream ended).
        prop_assert_eq!(scan_frame_ref(torn), FrameScanRef::Incomplete);
    }

    #[test]
    fn bit_flips_never_yield_the_original_decode(
        payload in arb_payload(),
        bit in 0usize..1600,
    ) {
        let frame = encode_frame(&payload);
        let bit = bit % (frame.len() * 8);
        let mut flipped = frame.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        // A flipped frame may decode (flips in the length field can
        // re-frame the bytes) but must never reproduce the original
        // payload as if nothing happened — CRC-32 catches every
        // single-bit error over the region it covers.
        if let Ok((back, _)) = decode_frame_eof(&flipped) {
            prop_assert_ne!(back, payload);
        }
    }

    #[test]
    fn frame_streams_scan_in_sequence(payloads in prop::collection::vec(arb_payload(), 1..6)) {
        let mut wire = Vec::new();
        for p in &payloads {
            wire.extend_from_slice(&encode_frame(p));
        }
        let mut off = 0usize;
        for expected in &payloads {
            match scan_frame_ref(&wire[off..]) {
                FrameScanRef::Complete { payload, consumed } => {
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
            prop_assert_eq!(back.to_owned(), req);
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
        let _ = decode_frame_eof(&bytes);
        let _ = scan_frame_ref(&bytes);
    }
}
