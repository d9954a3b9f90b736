//! Corrupt columnar pages must decode to `Ok` or `StoreError::Corrupt`:
//! never a panic (this runs in a debug build, so arithmetic overflow
//! counts), never more than a page's worth of output.
//!
//! Sealed pages covering all six encodings are mutated in their header,
//! directory and payloads — bytes overwritten, bits flipped, the row and
//! column counts edited — and decoded whole and projected.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test fails by panicking"
)]

use pagestore::colpage::{column_layout, decode_into, ColEncoding, ColPageBuilder};
use pagestore::{StoreError, PAGE_SIZE};
use std::panic::{catch_unwind, AssertUnwindSafe};

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

type Page = Box<[u8; PAGE_SIZE]>;

/// Seals `rows` (as many as fit) into one page.
fn seal(ncols: usize, rows: impl Iterator<Item = Vec<f64>>) -> (usize, Page) {
    let mut b = ColPageBuilder::new(ncols);
    for row in rows {
        if !b.try_push(&row) {
            break;
        }
    }
    assert!(b.nrows() > 1);
    let mut page = Box::new([0u8; PAGE_SIZE]);
    b.seal_into(&mut page);
    (ncols, page)
}

/// Pages shaped like the feature tables' plus the cases those never
/// produce, so that every encoding has a page to be corrupted in.
fn sealed_pages(rng: &mut XorShift) -> Vec<(usize, Page)> {
    let mut noise = XorShift(rng.next() | 1);
    let mut walk = 0.0f64;
    let pages = vec![
        // dt (frame of reference), full-precision dv (split), ascending
        // time stamps (delta), incompressible bits (raw).
        seal(
            4,
            (0..400).map(|i| {
                vec![
                    300.0 * (i % 90) as f64,
                    -3.0 - (i as f64) * 0.001 * (1.0 + (i % 3) as f64),
                    1.0e6 + 300.0 * i as f64,
                    f64::from_bits(noise.next()),
                ]
            }),
        ),
        // A band of middle mantissa bits (xor), a value that rarely
        // changes and a slow random walk (both gorilla).
        seal(
            3,
            (0..400).map(|i| {
                walk += ((i * 7919) % 13) as f64 * 1.0e-7;
                vec![
                    f64::from_bits(1.5f64.to_bits() ^ (((i * 40_503) % 65_536) << 20) as u64),
                    0.1 + (i / 50) as f64 * 0.3,
                    20.0 + walk,
                ]
            }),
        ),
        // One column, few rows: short payloads, where the word reader is
        // on its tail path throughout.
        seal(1, (0..5).map(|i| vec![-0.5 * i as f64])),
    ];
    let seen: Vec<ColEncoding> = pages
        .iter()
        .flat_map(|(ncols, page)| column_layout(&page[..], *ncols).unwrap())
        .map(|(enc, _)| enc)
        .collect();
    for enc in [
        ColEncoding::Raw,
        ColEncoding::IntFor,
        ColEncoding::IntDelta,
        ColEncoding::Xor,
        ColEncoding::Gorilla,
        ColEncoding::Split,
    ] {
        assert!(
            seen.contains(&enc),
            "no page holds a {enc:?} column: {seen:?}"
        );
    }
    pages
}

/// Applies one mutation and describes it.
fn mutate(page: &mut [u8; PAGE_SIZE], ncols: usize, rng: &mut XorShift) -> String {
    let dir_end = 8 + 16 * ncols;
    let used = column_layout(&page[..], ncols)
        .map(|l| dir_end + l.iter().map(|(_, bytes)| bytes).sum::<usize>())
        .unwrap_or(PAGE_SIZE)
        .clamp(dir_end + 1, PAGE_SIZE);
    match rng.below(6) {
        0 => {
            let (at, v) = (rng.below(dir_end), rng.next() as u8);
            page[at] = v;
            format!("header/directory byte {at} = {v:#x}")
        }
        1 => {
            let (at, v) = (dir_end + rng.below(used - dir_end), rng.next() as u8);
            page[at] = v;
            format!("payload byte {at} = {v:#x}")
        }
        2 => {
            let (at, bit) = (rng.below(used), rng.below(8));
            page[at] ^= 1 << bit;
            format!("bit {bit} of byte {at} flipped")
        }
        3 => {
            let n = u16::from_le_bytes([page[0], page[1]]);
            let edits = [
                0,
                1,
                n.wrapping_sub(1),
                n.wrapping_add(1),
                n.wrapping_mul(2),
                u16::MAX,
            ];
            let v = edits
                .get(rng.below(edits.len() + 1))
                .copied()
                .unwrap_or(rng.next() as u16);
            page[0..2].copy_from_slice(&v.to_le_bytes());
            format!("row count {n} -> {v}")
        }
        4 => {
            let v = [0, ncols as u16 - 1, ncols as u16 + 1, u16::MAX][rng.below(4)];
            page[4..6].copy_from_slice(&v.to_le_bytes());
            format!("column count {ncols} -> {v}")
        }
        _ => {
            // The fields of one directory entry, set to their extremes.
            let d = 8 + 16 * rng.below(ncols);
            let (field, v) = [
                (0, 0),
                (0, 5),
                (1, 0),
                (1, 64),
                (1, 255),
                (4, 63),
                (4, 64),
                (5, 255),
            ][rng.below(8)];
            page[d + field] = v;
            format!("directory byte {} = {v}", d + field)
        }
    }
}

#[test]
fn mutated_pages_decode_to_ok_or_corrupt_and_never_panic() {
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let pages = sealed_pages(&mut rng);
    let (mut ok, mut corrupt) = (0u32, 0u32);
    for case in 0..if cfg!(miri) { 200 } else { 40_000 } {
        let (ncols, sealed) = &pages[rng.below(pages.len())];
        let ncols = *ncols;
        let mut page = sealed.clone();
        let what: Vec<String> = (0..1 + rng.below(3))
            .map(|_| mutate(&mut page, ncols, &mut rng))
            .collect();
        let lo = rng.below(ncols + 1);
        let hi = lo + rng.below(ncols + 1 - lo);
        for range in [0..ncols, lo..hi] {
            let mut cols: Vec<Vec<f64>> = vec![Vec::new(); range.len()];
            let got = catch_unwind(AssertUnwindSafe(|| {
                decode_into(&page[..], ncols, range.clone(), &mut cols)
            }))
            .unwrap_or_else(|_| panic!("case {case}: decode of {range:?} panicked after {what:?}"));
            match got {
                Ok(n) => {
                    ok += 1;
                    assert_eq!(n, u16::from_le_bytes([page[0], page[1]]) as usize);
                    for col in &cols {
                        assert_eq!(col.len(), n, "case {case}: {what:?}");
                    }
                }
                Err(StoreError::Corrupt(_)) => {
                    corrupt += 1;
                    assert!(cols.iter().all(|c| c.len() <= u16::MAX as usize));
                }
                Err(other) => panic!("case {case}: {other:?} after {what:?}"),
            }
        }
        let layout = catch_unwind(AssertUnwindSafe(|| column_layout(&page[..], ncols)))
            .unwrap_or_else(|_| panic!("case {case}: column_layout panicked after {what:?}"));
        assert!(matches!(layout, Ok(_) | Err(StoreError::Corrupt(_))));
    }
    // The mutations must reach both outcomes to mean anything.
    assert!(ok > 100 && corrupt > 100, "ok {ok}, corrupt {corrupt}");
}
