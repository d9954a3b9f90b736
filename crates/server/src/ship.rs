//! Wire format for WAL shipping (`GET /wal`).
//!
//! A shipping response body is a fixed 40-byte header followed by raw
//! WAL frames exactly as they appear in the primary's `wal.log` — the
//! receiver appends the frame bytes verbatim to its own log and replays
//! them through the ordinary recovery path. Everything is little-endian:
//!
//! ```text
//! [magic "SDWS" u32][flags u32 (bit0 = restart)]
//! [log_start_lsn u64][log_end_lsn u64][first_lsn u64][last_lsn u64]
//! [raw frames ...]
//! ```

use pagestore::WalSegment;

/// Magic word opening every shipping response ("SDWS").
pub const SHIP_MAGIC: u32 = u32::from_le_bytes(*b"SDWS");

/// Header length in bytes.
pub const SHIP_HDR: usize = 40;

/// Serializes a [`WalSegment`] into a shipping response body.
pub fn encode_segment(seg: &WalSegment) -> Vec<u8> {
    let mut out = Vec::with_capacity(SHIP_HDR + seg.frames.len());
    out.extend_from_slice(&SHIP_MAGIC.to_le_bytes());
    out.extend_from_slice(&u32::from(seg.restart).to_le_bytes());
    for v in [
        seg.log_start_lsn,
        seg.log_end_lsn,
        seg.first_lsn,
        seg.last_lsn,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&seg.frames);
    out
}

/// Parses a shipping response body back into a [`WalSegment`].
pub fn decode_segment(body: &[u8]) -> Result<WalSegment, String> {
    if body.len() < SHIP_HDR {
        return Err(format!(
            "ship body too short: {} bytes (need {SHIP_HDR})",
            body.len()
        ));
    }
    let u32_at = |off: usize| {
        let mut b = [0u8; 4];
        b.copy_from_slice(&body[off..off + 4]);
        u32::from_le_bytes(b)
    };
    let u64_at = |off: usize| {
        let mut b = [0u8; 8];
        b.copy_from_slice(&body[off..off + 8]);
        u64::from_le_bytes(b)
    };
    if u32_at(0) != SHIP_MAGIC {
        return Err("bad ship magic".to_string());
    }
    Ok(WalSegment {
        restart: u32_at(4) & 1 != 0,
        log_start_lsn: u64_at(8),
        log_end_lsn: u64_at(16),
        first_lsn: u64_at(24),
        last_lsn: u64_at(32),
        frames: body[SHIP_HDR..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_segments() {
        let seg = WalSegment {
            frames: vec![1, 2, 3, 4, 5],
            first_lsn: 7,
            last_lsn: 9,
            log_start_lsn: 3,
            log_end_lsn: 11,
            restart: true,
        };
        let body = encode_segment(&seg);
        assert_eq!(body.len(), SHIP_HDR + 5);
        let back = decode_segment(&body).expect("decode");
        assert_eq!(back.frames, seg.frames);
        assert_eq!(back.first_lsn, 7);
        assert_eq!(back.last_lsn, 9);
        assert_eq!(back.log_start_lsn, 3);
        assert_eq!(back.log_end_lsn, 11);
        assert!(back.restart);

        let empty = encode_segment(&WalSegment::default());
        let back = decode_segment(&empty).expect("decode empty");
        assert!(back.frames.is_empty());
        assert!(!back.restart);
    }

    #[test]
    fn rejects_garbage() {
        assert!(decode_segment(&[]).is_err());
        assert!(decode_segment(&[0u8; SHIP_HDR - 1]).is_err());
        assert!(decode_segment(&[0u8; SHIP_HDR]).is_err(), "bad magic");
    }
}
