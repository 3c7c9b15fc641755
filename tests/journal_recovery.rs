//! Golden corrupt-journal fixtures: two hand-corrupted write-ahead
//! journals checked into `examples/`, with the exact truncation point
//! and the replayed post-recovery state pinned down.
//!
//! The fixtures were generated with a stock zlib CRC-32 (Python's
//! `zlib.crc32`), proving the WAL checksum is the standard IEEE
//! polynomial and not a homegrown variant. The intact journal is:
//!
//! ```text
//! edit TOP
//! create nand2 A
//! create nand2 B
//! translate B 5000 0
//! replicate B 2 3
//! ```
//!
//! * `torn_tail.wal` — the final record (`replicate B 2 3`) is cut
//!   mid-payload, as an interrupted write would leave it.
//! * `bad_checksum.wal` — one payload byte of `translate B 5000 0` is
//!   flipped; the length is intact but the CRC disagrees.

use riot::core::{command_to_line, replay, Editor, Journal, Library};
use riot::core::{RecordCorruption, WalCorruption, WAL_MAGIC};
use riot::geom::Point;

const TORN_TAIL: &[u8] = include_bytes!("../examples/torn_tail.wal");
const BAD_CHECKSUM: &[u8] = include_bytes!("../examples/bad_checksum.wal");

fn menu() -> Library {
    let mut lib = Library::new();
    lib.add_sticks_cell(riot::cells::nand2()).expect("nand2");
    lib
}

fn lines(journal: &riot::core::Journal) -> Vec<String> {
    journal.commands().iter().map(command_to_line).collect()
}

#[test]
fn fixtures_start_with_the_magic() {
    assert_eq!(&TORN_TAIL[..8], WAL_MAGIC);
    assert_eq!(&BAD_CHECKSUM[..8], WAL_MAGIC);
}

#[test]
fn torn_tail_truncates_at_the_last_intact_record() {
    let rec = Journal::recover_wal(TORN_TAIL);
    // The first four records survive; the torn `replicate` is dropped.
    assert_eq!(
        lines(&rec.journal),
        [
            "edit TOP",
            "create nand2 A",
            "create nand2 B",
            "translate B 5000 0",
        ]
    );
    assert_eq!(rec.valid_len, 94, "scan stops at the torn record's header");
    assert_eq!(
        rec.corruption,
        Some(WalCorruption::Record(RecordCorruption::TornPayload {
            expected: 15,
            available: 2
        }))
    );

    // Replaying the prefix yields the pre-crash state minus the lost
    // tail: B is translated but NOT replicated.
    let mut lib = menu();
    replay(&rec.journal, &mut lib).expect("recovered prefix replays");
    let ed = Editor::open(&mut lib, "TOP").expect("TOP reopens");
    let insts = ed.instances();
    assert_eq!(insts.len(), 2);
    let b = insts
        .iter()
        .map(|(_, i)| i)
        .find(|i| i.name == "B")
        .expect("B replayed");
    assert_eq!(b.transform.offset, Point::new(5000, 0));
    assert_eq!(
        (b.cols, b.rows),
        (1, 1),
        "the torn replicate must not apply"
    );
}

#[test]
fn bad_checksum_truncates_before_the_corrupt_record() {
    let rec = Journal::recover_wal(BAD_CHECKSUM);
    assert_eq!(
        lines(&rec.journal),
        ["edit TOP", "create nand2 A", "create nand2 B"]
    );
    assert_eq!(rec.valid_len, 68, "scan stops at the corrupt record");
    match rec.corruption {
        Some(WalCorruption::Record(RecordCorruption::BadChecksum { stored, computed })) => {
            assert_ne!(stored, computed);
        }
        other => panic!("expected BadChecksum, got {other:?}"),
    }

    // Replay: both creates land, the corrupt translate does not.
    let mut lib = menu();
    replay(&rec.journal, &mut lib).expect("recovered prefix replays");
    let ed = Editor::open(&mut lib, "TOP").expect("TOP reopens");
    let insts = ed.instances();
    assert_eq!(insts.len(), 2);
    let b = insts
        .iter()
        .map(|(_, i)| i)
        .find(|i| i.name == "B")
        .expect("B replayed");
    assert_eq!(
        b.transform.offset,
        Point::ORIGIN,
        "the corrupt translate must not apply"
    );
}

#[test]
fn recovery_is_idempotent_on_the_recovered_prefix() {
    for fixture in [TORN_TAIL, BAD_CHECKSUM] {
        let first = Journal::recover_wal(fixture);
        let rewritten = first.journal.to_wal();
        assert_eq!(rewritten.len(), first.valid_len);
        let second = Journal::recover_wal(&rewritten);
        assert!(second.is_clean());
        assert_eq!(lines(&second.journal), lines(&first.journal));
    }
}
