//! The one record codec: `[u32 LE length][u32 LE CRC-32][payload]`.
//!
//! Three formats carry exactly this record, and every read and write of
//! them goes through this module:
//!
//! | format      | before the records          | records           | length cap |
//! |-------------|-----------------------------|-------------------|------------|
//! | `RIOTWAL1`  | 8-byte magic                | one per command   | none       |
//! | `RIOTSRV2`  | 8-byte handshake magic      | one per message   | 1 MiB      |
//! | `RIOTSNAP1` | 9-byte magic, `u64` covered | exactly one       | none       |
//!
//! [`encode`] appends a record to the caller's buffer; [`header`] is
//! the same encoder for writers that stream a large payload straight
//! from their own buffer. [`scan`] reads one record at the head of a
//! byte slice without blocking and without copying — a complete
//! record's payload borrows the slice — and reports "need more bytes"
//! for a partial one, which is what a socket reader wants. A format
//! with a length cap passes it to the scanner so an overrun is refused
//! from the header alone, before the payload arrives. Files pass no
//! cap and read with [`scan_eof`], which turns "need more bytes" into a
//! torn header or torn payload because no more bytes are coming.
//!
//! ```
//! use riot_core::record::{self, RecordCorruption, Scan};
//!
//! let mut buf = Vec::new();
//! record::encode(&mut buf, b"edit TOP").unwrap();
//! assert_eq!(
//!     record::scan(&buf, None),
//!     Scan::Complete { payload: &b"edit TOP"[..], consumed: 16 }
//! );
//! // A socket reader waits for the rest; a file reader calls it torn.
//! assert_eq!(record::scan(&buf[..12], None), Scan::Incomplete);
//! assert_eq!(
//!     record::scan_eof(&buf[..12], None),
//!     Err(RecordCorruption::TornPayload { expected: 8, available: 4 })
//! );
//! ```

use std::fmt;

/// Bytes in a record header: the length, then the checksum.
pub const HEADER_LEN: usize = 8;

/// CRC-32 of `data`: the IEEE 802.3 reflected polynomial with the
/// standard init/final inversion — bit-for-bit the checksum zlib (and
/// Python's `zlib.crc32`) computes, so fixtures can be cross-checked
/// with any stock implementation.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFF_u32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Why bytes are not an intact record (or, for [`BadMagic`], not the
/// start of an intact file).
///
/// [`BadMagic`]: RecordCorruption::BadMagic
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordCorruption {
    /// The input does not begin with its format's magic.
    BadMagic,
    /// Fewer than [`HEADER_LEN`] bytes remained — a torn header.
    TornHeader,
    /// The header promises more payload than the input holds — a torn
    /// payload.
    TornPayload {
        /// Bytes the header claims.
        expected: usize,
        /// Bytes actually present.
        available: usize,
    },
    /// The length exceeds the format's cap (or, when encoding, the
    /// `u32` length field).
    TooLarge {
        /// The length in the header (or of the payload to encode).
        len: usize,
        /// The largest length allowed.
        max: usize,
    },
    /// The stored checksum disagrees with the payload.
    BadChecksum {
        /// Checksum in the record header.
        stored: u32,
        /// Checksum of the payload bytes.
        computed: u32,
    },
}

impl fmt::Display for RecordCorruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordCorruption::BadMagic => f.write_str("missing magic"),
            RecordCorruption::TornHeader => f.write_str("torn record header"),
            RecordCorruption::TornPayload {
                expected,
                available,
            } => write!(
                f,
                "torn payload: {expected} bytes promised, {available} present"
            ),
            RecordCorruption::TooLarge { len, max } => {
                write!(f, "payload of {len} bytes exceeds {max}")
            }
            RecordCorruption::BadChecksum { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
        }
    }
}

impl std::error::Error for RecordCorruption {}

/// What [`scan`] found at the head of a byte slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scan<'a> {
    /// An intact record.
    Complete {
        /// The checksum-verified payload, borrowed from the slice.
        payload: &'a [u8],
        /// Header plus payload bytes.
        consumed: usize,
    },
    /// The slice holds only part of a record; nothing was consumed.
    Incomplete,
    /// The slice head is not a valid record.
    Corrupt(RecordCorruption),
}

/// The header for `payload`: its length, taken with `u32::try_from`,
/// and its CRC-32.
///
/// # Errors
///
/// [`RecordCorruption::TooLarge`] when the length does not fit a `u32`.
pub fn header(payload: &[u8]) -> Result<[u8; HEADER_LEN], RecordCorruption> {
    let len = u32::try_from(payload.len()).map_err(|_| RecordCorruption::TooLarge {
        len: payload.len(),
        max: u32::MAX as usize,
    })?;
    let mut h = [0u8; HEADER_LEN];
    h[..4].copy_from_slice(&len.to_le_bytes());
    h[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    Ok(h)
}

/// Appends one record for `payload` to `out`.
///
/// # Errors
///
/// [`RecordCorruption::TooLarge`] when the length does not fit a `u32`;
/// nothing is appended.
pub fn encode(out: &mut Vec<u8>, payload: &[u8]) -> Result<(), RecordCorruption> {
    out.extend_from_slice(&header(payload)?);
    out.extend_from_slice(payload);
    Ok(())
}

/// The length field of a buffer that holds at least a header.
fn len_field(buf: &[u8]) -> usize {
    u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize
}

/// Scans one record at the head of `buf`. A length beyond `cap` is
/// [`RecordCorruption::TooLarge`] as soon as the header is in — a
/// reader must not wait for a 4 GiB payload that a flipped length bit
/// promised. `None` means the format has no cap.
pub fn scan(buf: &[u8], cap: Option<usize>) -> Scan<'_> {
    if buf.len() < HEADER_LEN {
        return Scan::Incomplete;
    }
    let len = len_field(buf);
    if let Some(max) = cap.filter(|&max| len > max) {
        return Scan::Corrupt(RecordCorruption::TooLarge { len, max });
    }
    let Some(payload) = buf[HEADER_LEN..].get(..len) else {
        return Scan::Incomplete;
    };
    let stored = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    let computed = crc32(payload);
    if stored != computed {
        return Scan::Corrupt(RecordCorruption::BadChecksum { stored, computed });
    }
    Scan::Complete {
        payload,
        consumed: HEADER_LEN + len,
    }
}

/// [`scan`] for input that has ended: a partial record is torn, not
/// incomplete. Returns the payload and the bytes consumed.
///
/// # Errors
///
/// The record's corruption; an empty `buf` is a torn header.
pub fn scan_eof(buf: &[u8], cap: Option<usize>) -> Result<(&[u8], usize), RecordCorruption> {
    match scan(buf, cap) {
        Scan::Complete { payload, consumed } => Ok((payload, consumed)),
        Scan::Corrupt(c) => Err(c),
        Scan::Incomplete if buf.len() < HEADER_LEN => Err(RecordCorruption::TornHeader),
        Scan::Incomplete => Err(RecordCorruption::TornPayload {
            expected: len_field(buf),
            available: buf.len() - HEADER_LEN,
        }),
    }
}
