//! Order-preserving key encoding.
//!
//! B+tree keys are raw byte strings compared lexicographically. To index
//! `f64` columns the encoding must be *order preserving*: `a < b` iff
//! `encode(a) < encode(b)` bytewise. The standard trick: flip the sign bit
//! for non-negative values and flip *all* bits for negative values, then
//! emit big-endian.

/// Encodes an `f64` into 8 bytes whose lexicographic order matches the
/// numeric total order (`total_cmp`).
///
/// # Panics
///
/// Panics on NaN — NaNs never enter the engine (upstream types reject
/// non-finite data).
pub fn encode_f64(v: f64) -> [u8; 8] {
    assert!(!v.is_nan(), "NaN cannot be indexed");
    let bits = v.to_bits();
    let flipped = if bits & (1 << 63) != 0 {
        !bits // negative: reverse order of magnitudes
    } else {
        bits | (1 << 63) // non-negative: above all negatives
    };
    flipped.to_be_bytes()
}

/// Inverse of [`encode_f64`].
#[inline]
pub fn decode_f64(b: [u8; 8]) -> f64 {
    let flipped = u64::from_be_bytes(b);
    let bits = if flipped & (1 << 63) != 0 {
        flipped & !(1 << 63)
    } else {
        !flipped
    };
    f64::from_bits(bits)
}

/// Encodes a composite key into `out`, a slice of exactly the key's width
/// (`8 * cols + 8` bytes, so callers can keep it on the stack): the given
/// `f64` columns in order, followed by the row id (big-endian) as a
/// uniquifying suffix — an index entry is this key and nothing else.
///
/// # Panics
///
/// Panics if `out` is not exactly that wide.
pub fn encode_key_into(cols: impl IntoIterator<Item = f64>, rid: u64, out: &mut [u8]) {
    let mut at = 0;
    for c in cols {
        out[at..at + 8].copy_from_slice(&encode_f64(c));
        at += 8;
    }
    out[at..at + 8].copy_from_slice(&rid.to_be_bytes());
    assert_eq!(at + 8, out.len(), "key slice wider than the key");
}

/// Decodes the `i`-th `f64` column of a composite key produced by
/// [`encode_key_into`].
#[inline]
pub fn decode_key_col(key: &[u8], i: usize) -> f64 {
    decode_f64(crate::page::arr(key, i * 8))
}

/// Decodes the row-id suffix of a composite key with `ncols` columns.
#[inline]
pub fn decode_key_rid(key: &[u8], ncols: usize) -> u64 {
    u64::from_be_bytes(crate::page::arr(key, ncols * 8))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key<const N: usize>(cols: &[f64], rid: u64) -> [u8; N] {
        let mut key = [0xAA; N];
        encode_key_into(cols.iter().copied(), rid, &mut key);
        key
    }

    #[test]
    #[should_panic(expected = "wider")]
    fn a_slice_wider_than_the_key_is_rejected() {
        key::<32>(&[3600.0, -3.0], 77);
    }

    #[test]
    fn roundtrip_exact() {
        for &v in &[
            0.0,
            -0.0,
            1.5,
            -1.5,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            3600.0,
            -3.0,
        ] {
            assert_eq!(decode_f64(encode_f64(v)).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn order_preserved() {
        let vals = [
            f64::NEG_INFINITY,
            -1e300,
            -42.0,
            -1.0,
            -1e-300,
            -0.0,
            0.0,
            1e-300,
            1.0,
            42.0,
            1e300,
            f64::INFINITY,
        ];
        for w in vals.windows(2) {
            let (a, b) = (encode_f64(w[0]), encode_f64(w[1]));
            assert!(a <= b, "{} should encode <= {}", w[0], w[1]);
            if w[0] < w[1] {
                assert!(a < b);
            }
        }
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        encode_f64(f64::NAN);
    }

    #[test]
    fn composite_key_roundtrip() {
        let k = key::<24>(&[1800.0, -3.5], 0xDEAD);
        assert_eq!(decode_key_col(&k, 0), 1800.0);
        assert_eq!(decode_key_col(&k, 1), -3.5);
        assert_eq!(decode_key_rid(&k, 2), 0xDEAD);
    }

    #[test]
    fn composite_order_is_lexicographic() {
        let k = key::<24>;
        assert!(k(&[1.0, 100.0], 0) < k(&[2.0, -100.0], 0), "first column");
        assert!(k(&[1.0, -1.0], 5) < k(&[1.0, 1.0], 0), "second column");
        assert!(
            k(&[1.0, 1.0], 1) < k(&[1.0, 1.0], 2),
            "rid breaks ties last"
        );
    }

    #[test]
    fn proptest_order() {
        use proptest::prelude::*;
        proptest!(|(a in any::<f64>(), b in any::<f64>())| {
            prop_assume!(!a.is_nan() && !b.is_nan());
            let (ea, eb) = (encode_f64(a), encode_f64(b));
            match a.total_cmp(&b) {
                std::cmp::Ordering::Less => prop_assert!(ea < eb),
                std::cmp::Ordering::Greater => prop_assert!(ea > eb),
                std::cmp::Ordering::Equal => prop_assert!(ea == eb),
            }
        });
    }
}
