//! The on-disk frame format and its checksum.
//!
//! A frame is the unit of persistence — one artifact, one record of the
//! store's log, which is nothing but frames back to back:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"RAPSTORE"
//! 8       4     format version (u32 LE) — currently 1
//! 12      4     query kind tag (u32 LE)
//! 16      8     structural hash (u64 LE)
//! 24      8     identity digest (u64 LE)
//! 32      8     subkey (u64 LE)
//! 40      8     payload length (u64 LE)
//! 48      n     payload bytes
//! 48+n    8     checksum (u64 LE): FNV-1a 64 over bytes [0, 48+n)
//! ```
//!
//! The header carries the full [`ArtifactKey`], so the log needs no index
//! of its own: [`split_frame`] reads a record's key and length from the
//! record itself, and a record served for another key is rejected even
//! though its checksum is fine. The checksum covers header *and* payload,
//! so a torn append at any byte offset is detected. [`split_frame`] and
//! [`decode_frame`] return `None` for every defect — the store maps that
//! to quarantine-and-recompute.

use crate::codec::{Reader, Writer};
use crate::{ArtifactKey, QueryKind};

/// Magic bytes opening every frame.
pub const MAGIC: [u8; 8] = *b"RAPSTORE";
/// Current frame format version; bump on any layout change.
pub const FORMAT_VERSION: u32 = 1;
/// Header length in bytes (everything before the payload).
pub const HEADER_LEN: usize = 8 + 4 + 4 + 8 + 8 + 8 + 8;

/// FNV-1a 64-bit over `bytes` — tiny, dependency-free, and plenty for
/// torn-write detection (this is an integrity check, not authentication).
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Encodes a complete frame (header + payload + checksum) for `key`.
#[must_use]
pub fn encode_frame(key: &ArtifactKey, payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    for b in MAGIC {
        w.u8(b);
    }
    w.u32(FORMAT_VERSION);
    w.u32(u32::from(key.kind as u8));
    w.u64(key.structural);
    w.u64(key.identity);
    w.u64(key.subkey);
    w.u64(payload.len() as u64);
    let mut bytes = w.into_bytes();
    bytes.extend_from_slice(payload);
    let sum = checksum(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes
}

/// Verifies the frame at the start of `bytes` (magic, version, query kind,
/// checksum) and returns its key, its payload and its length in bytes.
/// Bytes after the frame are not looked at. `None` means no whole, valid
/// frame starts there: it is corrupt, cut short, or of a different format
/// version.
#[must_use]
pub fn split_frame(bytes: &[u8]) -> Option<(ArtifactKey, &[u8], usize)> {
    let mut r = Reader::new(bytes.get(..HEADER_LEN)?);
    for want in MAGIC {
        if r.u8()? != want {
            return None;
        }
    }
    if r.u32()? != FORMAT_VERSION {
        return None;
    }
    let kind = QueryKind::from_tag(u8::try_from(r.u32()?).ok()?)?;
    let key = ArtifactKey {
        structural: r.u64()?,
        identity: r.u64()?,
        kind,
        subkey: r.u64()?,
    };
    let body_len = HEADER_LEN.checked_add(usize::try_from(r.u64()?).ok()?)?;
    let body = bytes.get(..body_len)?;
    let sum_bytes = bytes.get(body_len..body_len.checked_add(8)?)?;
    if checksum(body) != u64::from_le_bytes(sum_bytes.try_into().ok()?) {
        return None;
    }
    Some((key, &body[HEADER_LEN..], body_len + 8))
}

/// Verifies `bytes` as a frame for exactly `expect` and returns its
/// payload. `None` means the frame is corrupt, truncated, followed by
/// stray bytes, of a different format version, or keyed for a different
/// artifact.
#[must_use]
pub fn decode_frame(bytes: &[u8], expect: &ArtifactKey) -> Option<Vec<u8>> {
    let (key, payload, len) = split_frame(bytes)?;
    (key == *expect && len == bytes.len()).then(|| payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> ArtifactKey {
        ArtifactKey {
            structural: 0x1111_2222_3333_4444,
            identity: 0x5555_6666_7777_8888,
            kind: QueryKind::Perf,
            subkey: 0,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(2_000))]

        /// Arbitrary bytes decode to a payload or `None`, never a panic:
        /// as they are, and behind the first `cut` bytes of a valid header
        /// and sealed with a valid checksum, so decoding gets past the
        /// checksum into every header field.
        #[test]
        fn arbitrary_bytes_never_panic(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96),
            cut in 0..=HEADER_LEN,
        ) {
            let _ = decode_frame(&bytes, &key());
            let mut sealed = encode_frame(&key(), &bytes)[..cut].to_vec();
            sealed.extend_from_slice(&bytes);
            sealed.extend_from_slice(&checksum(&sealed).to_le_bytes());
            let _ = decode_frame(&sealed, &key());
        }
    }

    #[test]
    fn frame_round_trips() {
        let payload = b"throughput 0.25 items/cycle".to_vec();
        let frame = encode_frame(&key(), &payload);
        assert_eq!(decode_frame(&frame, &key()), Some(payload));
    }

    #[test]
    fn split_frame_reads_the_first_record_of_a_log() {
        let first = encode_frame(&key(), b"first");
        let mut other = key();
        other.subkey = 7;
        let mut log = first.clone();
        log.extend_from_slice(&encode_frame(&other, b"second"));
        let (k, payload, len) = split_frame(&log).unwrap();
        assert_eq!((k, payload, len), (key(), &b"first"[..], first.len()));
        let (k, payload, _) = split_frame(&log[len..]).unwrap();
        assert_eq!((k, payload), (other, &b"second"[..]));
        // a frame followed by stray bytes is not a frame for decode_frame
        assert_eq!(decode_frame(&log, &key()), None);
    }

    #[test]
    fn empty_payload_round_trips() {
        let frame = encode_frame(&key(), &[]);
        assert_eq!(decode_frame(&frame, &key()), Some(Vec::new()));
    }

    #[test]
    fn every_truncation_is_rejected() {
        let frame = encode_frame(&key(), b"payload");
        for cut in 0..frame.len() {
            assert_eq!(decode_frame(&frame[..cut], &key()), None, "cut at {cut}");
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let frame = encode_frame(&key(), b"bits matter");
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x01;
            assert_eq!(decode_frame(&bad, &key()), None, "flip at byte {i}");
        }
    }

    #[test]
    fn alien_key_is_rejected_even_with_valid_checksum() {
        let frame = encode_frame(&key(), b"payload");
        let mut other = key();
        other.subkey = 9;
        assert_eq!(decode_frame(&frame, &other), None);
        let mut other = key();
        other.kind = QueryKind::Cost;
        assert_eq!(decode_frame(&frame, &other), None);
        let mut other = key();
        other.identity ^= 1;
        assert_eq!(decode_frame(&frame, &other), None);
    }

    #[test]
    fn future_format_version_is_rejected() {
        let mut frame = encode_frame(&key(), b"payload");
        // bump the version field, then re-sign so only the version differs
        frame[8] = frame[8].wrapping_add(1);
        let body_len = frame.len() - 8;
        let sum = checksum(&frame[..body_len]);
        frame[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(decode_frame(&frame, &key()), None);
    }
}
