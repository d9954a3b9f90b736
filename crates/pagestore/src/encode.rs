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

/// A reusable composite-key buffer.
pub type KeyBuf = Vec<u8>;

/// Encodes a composite key: the given `f64` columns in order, followed by
/// the row id (big-endian) as a uniquifying suffix.
pub fn encode_key(cols: &[f64], rid: u64, out: &mut KeyBuf) {
    out.clear();
    for &c in cols {
        out.extend_from_slice(&encode_f64(c));
    }
    out.extend_from_slice(&rid.to_be_bytes());
}

/// [`encode_key`] into a slice of exactly the key's width (`8 * cols + 8`
/// bytes), for callers that keep the key on the stack.
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
/// [`encode_key`].
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

    #[test]
    fn slice_encoding_is_the_buffer_encoding() {
        let cols = [3600.0, -3.0, 0.0];
        let mut buf = KeyBuf::new();
        encode_key(&cols, 77, &mut buf);
        let mut key = [0xAAu8; 32];
        encode_key_into(cols, 77, &mut key);
        assert_eq!(&buf[..], &key[..]);
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
        let mut k = KeyBuf::new();
        encode_key(&[1800.0, -3.5], 0xDEAD, &mut k);
        assert_eq!(k.len(), 24);
        assert_eq!(decode_key_col(&k, 0), 1800.0);
        assert_eq!(decode_key_col(&k, 1), -3.5);
        assert_eq!(decode_key_rid(&k, 2), 0xDEAD);
    }

    #[test]
    fn composite_order_is_lexicographic() {
        let mut a = KeyBuf::new();
        let mut b = KeyBuf::new();
        encode_key(&[1.0, 100.0], 0, &mut a);
        encode_key(&[2.0, -100.0], 0, &mut b);
        assert!(a[..] < b[..], "first column dominates");
        encode_key(&[1.0, -1.0], 5, &mut a);
        encode_key(&[1.0, 1.0], 0, &mut b);
        assert!(a[..] < b[..], "second column breaks ties");
        encode_key(&[1.0, 1.0], 1, &mut a);
        encode_key(&[1.0, 1.0], 2, &mut b);
        assert!(a[..] < b[..], "rid breaks ties last");
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
