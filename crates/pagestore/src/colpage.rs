//! Compressed columnar data pages.
//!
//! A columnar page stores the same rows as a raw heap page but column by
//! column, with a per-column encoding chosen per page:
//!
//! * `RAW` — 8-byte little-endian f64s, the fallback when nothing pays.
//! * `INT_FOR` — frame-of-reference over integer-valued columns: values
//!   are exact integers (the timestamp and `dt` columns are multiples of
//!   the sample period), so we store `(v - min) / gcd` bit-packed at the
//!   smallest width that covers the range.
//! * `INT_DELTA` — delta coding for near-sorted integer columns (the
//!   boundary timestamps ascend row to row): zig-zagged successive
//!   differences divided by their gcd, bit-packed.
//! * `XOR` — fixed-width bit similarity for full-precision floats:
//!   every value is XORed with the first one and the common leading and
//!   trailing zero bits of the page are stripped.
//! * `GORILLA` — XOR against the *previous* value with per-value control
//!   bits (Facebook's Gorilla TSDB scheme): smooth full-precision columns
//!   compress even when the page spans several exponents, which defeats
//!   the fixed-width `XOR` mode.
//! * `SPLIT` — sign / exponent / mantissa bit split: the sign bit is
//!   stored verbatim, the 11-bit exponent is frame-of-reference packed
//!   (a `dv` column spans a few exponents, so 2-5 bits suffice even when
//!   both signs occur), and the mantissa keeps only the bits below the
//!   page's common trailing-zero count. Order-independent, so it floors
//!   the cost of full-entropy mantissas at ~56 bits/value where Gorilla
//!   degenerates.
//!
//! All encodings are exactly invertible at the bit level (`f64::to_bits`
//! round-trips, including `-0.0` and non-canonical NaNs under `RAW`/`XOR`;
//! the integer encodings only ever apply to values that are provably exact
//! integers with a positive sign bit pattern), which the storage layer
//! relies on: replay verification compares stored rows byte for byte.
//!
//! Page layout (within the fixed `PAGE_SIZE` frame):
//!
//! ```text
//! 0..2   u16 row count            (same offset as raw pages)
//! 2..4   u16 tag = COLPAGE_TAG    (raw pages keep zero padding here)
//! 4..6   u16 column count
//! 6..8   reserved
//! 8..    column directory, 16 bytes per column:
//!          u8  encoding   u8 bit width   u16 payload offset
//!          u32 aux (gcd / xor shift)     u64 reference value
//! then   byte-aligned bit-packed payloads, one per column
//! ```

use crate::error::Result;
use crate::{page, StoreError, PAGE_SIZE};
use std::ops::Range;

/// Per-page format tag at byte offset 2 (raw pages store zero there).
pub const COLPAGE_TAG: u16 = 0xC7A9;

/// Page header bytes (shared with raw pages: row count at offset 0).
const HDR: usize = 8;
/// Directory entry bytes per column.
const DIR: usize = 16;

/// Column encodings. The discriminants are the on-disk bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ColEncoding {
    /// Uncompressed little-endian f64s (the fallback when nothing pays).
    Raw = 0,
    /// Frame of reference over exact-integer values: `(v - min) / gcd`
    /// bit-packed, with `min` and `gcd` in the directory.
    IntFor = 1,
    /// Zigzagged successive differences of exact-integer values, divided
    /// by their gcd; the first value rides in the directory.
    IntDelta = 2,
    /// XOR against the first value's bits, with the common
    /// leading/trailing zero bits stripped (one width for the page).
    Xor = 3,
    /// XOR against the previous value with per-value control bits and
    /// meaningful-bit windows (the Gorilla TSDB float scheme).
    Gorilla = 4,
    /// Verbatim sign bit, frame-of-reference exponent, and mantissa bits
    /// above the page's common trailing zeros.
    Split = 5,
}

impl ColEncoding {
    fn from_byte(b: u8) -> Result<Self> {
        Ok(match b {
            0 => ColEncoding::Raw,
            1 => ColEncoding::IntFor,
            2 => ColEncoding::IntDelta,
            3 => ColEncoding::Xor,
            4 => ColEncoding::Gorilla,
            5 => ColEncoding::Split,
            other => {
                return Err(StoreError::Corrupt(format!(
                    "unknown column encoding byte {other}"
                )))
            }
        })
    }
}

/// True when the page bytes carry the columnar tag.
pub fn is_colpage(page: &[u8]) -> bool {
    u16::from_le_bytes([page[2], page[3]]) == COLPAGE_TAG
}

/// Row count of a columnar (or raw) data page.
pub fn page_nrows(page: &[u8]) -> usize {
    u16::from_le_bytes([page[0], page[1]]) as usize
}

/// Largest column count a single row can always fit in one page.
pub fn max_cols() -> usize {
    // One row per page in the worst (all-RAW) case.
    (PAGE_SIZE - HDR) / (DIR + 8)
}

// ---------------------------------------------------------------------------
// Bit packing
// ---------------------------------------------------------------------------

#[inline]
fn mask(w: u32) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

/// Writes the low `w` bits of `v` at bit offset `bit` (LSB-first).
#[inline]
fn write_bits(buf: &mut [u8], bit: usize, w: u32, v: u64) {
    if w == 0 {
        return;
    }
    let byte = bit / 8;
    let shift = (bit % 8) as u32;
    let acc = (v as u128 & mask(w) as u128) << shift;
    let nbytes = ((shift + w) as usize).div_ceil(8);
    for (i, b) in buf[byte..byte + nbytes].iter_mut().enumerate() {
        *b |= (acc >> (8 * i)) as u8;
    }
}

/// Word-at-a-time LSB-first bit reader over one column's payload.
#[derive(Clone, Copy)]
struct BitReader<'a> {
    buf: &'a [u8],
}

impl BitReader<'_> {
    /// The eight payload bytes from `byte` on as a little-endian word; one
    /// unaligned load, or for the last < 8 bytes of the payload the byte
    /// loop. Bytes past the end read as zero.
    #[inline]
    fn word(self, byte: usize) -> u64 {
        match self.buf.get(byte..byte + 8) {
            Some(b) => page::get_u64(b, 0),
            None => self.tail_word(byte),
        }
    }

    #[cold]
    fn tail_word(self, byte: usize) -> u64 {
        let tail = self.buf.get(byte..).unwrap_or(&[]);
        tail.iter().rev().fold(0, |acc, &b| (acc << 8) | b as u64)
    }

    /// The `w <= 64` bits at bit offset `bit`: load, shift, mask. A field
    /// that straddles the word takes its top bits from the ninth byte.
    #[inline]
    fn bits(self, bit: usize, w: u32) -> u64 {
        let (byte, shift) = (bit / 8, (bit % 8) as u32);
        let mut v = self.word(byte) >> shift;
        if shift + w > 64 {
            v |= (self.buf.get(byte + 8).copied().unwrap_or(0) as u64) << (64 - shift);
        }
        v & mask(w)
    }

    /// Appends `n` fields of `w` bits each, packed from bit 0, to `out`,
    /// each mapped through `value`.
    #[inline]
    fn unpack(self, n: usize, w: u32, out: &mut Vec<f64>, mut value: impl FnMut(u64) -> f64) {
        let step = w as usize;
        // The leading fields whose eight bytes lie inside the payload and
        // which, at `w <= 57`, cannot straddle them need no case analysis.
        let whole = match self.buf.len().checked_sub(8) {
            Some(last) if (1..=57).contains(&w) => n.min((last * 8 + 7) / step + 1),
            _ => 0,
        };
        let m = mask(w);
        out.extend((0..whole).map(|i| {
            let bit = i * step;
            value((page::get_u64(self.buf, bit / 8) >> (bit % 8)) & m)
        }));
        out.extend((whole..n).map(|i| value(self.bits(i * step, w))));
    }
}

#[inline]
fn bits_needed(v: u64) -> u32 {
    64 - v.leading_zeros()
}

#[inline]
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[inline]
fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

#[inline]
fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Exact-integer eligibility: the value must round-trip through `i64`
/// bit-for-bit. `-0.0` and anything beyond ±2^51 are excluded.
#[inline]
fn as_exact_int(v: f64) -> Option<i64> {
    if !v.is_finite() || v.fract() != 0.0 || v.abs() > (1u64 << 51) as f64 {
        return None;
    }
    if v.to_bits() == (-0.0f64).to_bits() {
        return None;
    }
    Some(v as i64)
}

// ---------------------------------------------------------------------------
// Gorilla window
// ---------------------------------------------------------------------------

/// The meaningful-bit window the Gorilla scheme carries between values.
/// [`ColStats`] and the encoder both drive this state machine, so the
/// builder's size accounting is exact, not an estimate.
#[derive(Debug, Clone, Copy)]
struct GorillaWindow {
    lead: u32,
    sig: u32,
}

impl GorillaWindow {
    fn new() -> Self {
        GorillaWindow { lead: 0, sig: 0 }
    }

    /// Advances the window over one xor'd value and returns the exact
    /// number of payload bits the encoder will spend on it:
    /// `1` (identical), `2 + sig` (fits the current window), or
    /// `2 + 5 + 6 + sig` (opens a new window).
    fn step(&mut self, x: u64) -> u32 {
        if x == 0 {
            return 1;
        }
        // 5 control bits cap the recorded leading-zero count at 31;
        // excess leading zeros just ride inside the meaningful bits.
        let lead = x.leading_zeros().min(31);
        let trail = x.trailing_zeros();
        if self.sig != 0 && lead >= self.lead && trail >= 64 - self.lead - self.sig {
            2 + self.sig
        } else {
            self.lead = lead;
            self.sig = 64 - lead - trail;
            2 + 5 + 6 + self.sig
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental per-column statistics
// ---------------------------------------------------------------------------

/// Append-only statistics sufficient to compute every candidate encoding's
/// exact payload size without rescanning the rows. All fields are monotone
/// under append, so [`ColPageBuilder::try_push`] can cheaply test whether
/// one more row still fits the page.
#[derive(Debug, Clone, Copy)]
struct ColStats {
    first_bits: u64,
    /// OR of `bits[i] ^ bits[0]` — drives the XOR width.
    or_acc: u64,
    int_ok: bool,
    first_i: i64,
    prev_i: i64,
    min_i: i64,
    max_i: i64,
    /// gcd of `x_i - x_0` (shift-invariant, so it divides `x_i - min`).
    g_for: u64,
    /// gcd and max of the zig-zagged successive differences.
    g_delta: u64,
    max_zz: u64,
    /// Previous value's bits and the running Gorilla cost/window.
    prev_bits: u64,
    gor: GorillaWindow,
    gor_bits: usize,
    /// Exponent range and OR of all value bits for `SPLIT`.
    min_exp: u16,
    max_exp: u16,
    or_all: u64,
}

impl ColStats {
    fn new(v: f64) -> Self {
        let bits = v.to_bits();
        let int = as_exact_int(v);
        ColStats {
            first_bits: bits,
            or_acc: 0,
            int_ok: int.is_some(),
            first_i: int.unwrap_or(0),
            prev_i: int.unwrap_or(0),
            min_i: int.unwrap_or(0),
            max_i: int.unwrap_or(0),
            g_for: 0,
            g_delta: 0,
            max_zz: 0,
            prev_bits: bits,
            gor: GorillaWindow::new(),
            gor_bits: 0,
            min_exp: ((bits >> 52) & 0x7FF) as u16,
            max_exp: ((bits >> 52) & 0x7FF) as u16,
            or_all: bits,
        }
    }

    fn push(&mut self, v: f64) {
        self.or_acc |= v.to_bits() ^ self.first_bits;
        self.gor_bits += self.gor.step(v.to_bits() ^ self.prev_bits) as usize;
        self.prev_bits = v.to_bits();
        let exp = ((v.to_bits() >> 52) & 0x7FF) as u16;
        self.min_exp = self.min_exp.min(exp);
        self.max_exp = self.max_exp.max(exp);
        self.or_all |= v.to_bits();
        if self.int_ok {
            match as_exact_int(v) {
                Some(i) => {
                    self.min_i = self.min_i.min(i);
                    self.max_i = self.max_i.max(i);
                    self.g_for = gcd(self.g_for, i.abs_diff(self.first_i));
                    let zz = zigzag(i - self.prev_i);
                    self.g_delta = gcd(self.g_delta, zz);
                    self.max_zz = self.max_zz.max(zz);
                    self.prev_i = i;
                }
                None => self.int_ok = false,
            }
        }
    }

    fn xor_width(&self) -> u32 {
        if self.or_acc == 0 {
            0
        } else {
            64 - self.or_acc.leading_zeros() - self.or_acc.trailing_zeros()
        }
    }

    fn for_width(&self) -> u32 {
        let g = self.g_for.max(1);
        bits_needed(self.min_i.abs_diff(self.max_i) / g)
    }

    fn delta_width(&self) -> u32 {
        let g = self.g_delta.max(1);
        bits_needed(self.max_zz / g)
    }

    /// Mantissa bits `SPLIT` keeps: 52 minus the trailing zeros common to
    /// every value on the page.
    fn split_mant_width(&self) -> u32 {
        52 - (self.or_all.trailing_zeros().min(52))
    }

    /// Per-value bits of the `SPLIT` encoding: the sign bit, the packed
    /// exponent delta, and the kept mantissa bits.
    fn split_width(&self) -> u32 {
        1 + bits_needed((self.max_exp - self.min_exp) as u64) + self.split_mant_width()
    }

    /// `(encoding, payload bytes)` of the best encoding for `n` rows.
    fn best(&self, n: usize) -> (ColEncoding, usize) {
        let mut enc = ColEncoding::Raw;
        let mut size = n * 8;
        let xor = (n * self.xor_width() as usize).div_ceil(8);
        if xor < size {
            enc = ColEncoding::Xor;
            size = xor;
        }
        let gor = self.gor_bits.div_ceil(8);
        if gor < size {
            enc = ColEncoding::Gorilla;
            size = gor;
        }
        let split = (n * self.split_width() as usize).div_ceil(8);
        if split < size {
            enc = ColEncoding::Split;
            size = split;
        }
        if self.int_ok {
            let fo = (n * self.for_width() as usize).div_ceil(8);
            if fo < size {
                enc = ColEncoding::IntFor;
                size = fo;
            }
            let de = ((n - 1) * self.delta_width() as usize).div_ceil(8);
            if de < size {
                enc = ColEncoding::IntDelta;
                size = de;
            }
        }
        (enc, size)
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Accumulates rows and seals them into one compressed columnar page.
#[derive(Debug)]
pub struct ColPageBuilder {
    ncols: usize,
    /// Row-major staging area (the encoder walks it column by column).
    rows: Vec<f64>,
    stats: Vec<ColStats>,
}

impl ColPageBuilder {
    /// A builder for rows of `ncols` columns.
    pub fn new(ncols: usize) -> Self {
        assert!(
            ncols > 0 && ncols <= max_cols(),
            "column count {ncols} out of range for a columnar page"
        );
        ColPageBuilder {
            ncols,
            rows: Vec::new(),
            stats: Vec::new(),
        }
    }

    /// Number of staged rows.
    pub fn nrows(&self) -> usize {
        if self.stats.is_empty() {
            0
        } else {
            self.rows.len() / self.ncols
        }
    }

    /// True when no rows are staged.
    pub fn is_empty(&self) -> bool {
        self.nrows() == 0
    }

    /// Drops all staged rows.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.stats.clear();
    }

    /// Exact encoded size of the staged rows.
    pub fn encoded_size(&self) -> usize {
        let n = self.nrows();
        if n == 0 {
            return HDR;
        }
        HDR + self.stats.iter().map(|s| DIR + s.best(n).1).sum::<usize>()
    }

    /// Appends one row if the sealed page would still fit `PAGE_SIZE`;
    /// returns `false` (leaving the builder unchanged) otherwise.
    pub fn try_push(&mut self, row: &[f64]) -> bool {
        assert_eq!(row.len(), self.ncols, "row arity mismatch");
        let n = self.nrows();
        if n >= u16::MAX as usize {
            return false;
        }
        // Trial-update a copy of the stats: every statistic is monotone
        // under append, so accept/reject is exact, not a heuristic.
        let mut trial: Vec<ColStats> = if n == 0 {
            row.iter().map(|&v| ColStats::new(v)).collect()
        } else {
            let mut t = self.stats.clone();
            for (s, &v) in t.iter_mut().zip(row) {
                s.push(v);
            }
            t
        };
        let size = HDR + trial.iter().map(|s| DIR + s.best(n + 1).1).sum::<usize>();
        if size > PAGE_SIZE {
            return false;
        }
        std::mem::swap(&mut self.stats, &mut trial);
        self.rows.extend_from_slice(row);
        true
    }

    /// Encodes the staged rows into `page` (fully overwritten).
    pub fn seal_into(&self, page: &mut [u8; PAGE_SIZE]) {
        let n = self.nrows();
        debug_assert!(self.encoded_size() <= PAGE_SIZE);
        page.fill(0);
        page[0..2].copy_from_slice(&(n as u16).to_le_bytes());
        page[2..4].copy_from_slice(&COLPAGE_TAG.to_le_bytes());
        page[4..6].copy_from_slice(&(self.ncols as u16).to_le_bytes());
        let mut off = HDR + DIR * self.ncols;
        for (c, s) in self.stats.iter().enumerate() {
            let (enc, size) = s.best(n);
            let (width, aux, reference) = match enc {
                ColEncoding::Raw => (64u32, 0u32, 0u64),
                ColEncoding::IntFor => (s.for_width(), s.g_for.max(1) as u32, s.min_i as u64),
                ColEncoding::IntDelta => {
                    (s.delta_width(), s.g_delta.max(1) as u32, s.first_i as u64)
                }
                ColEncoding::Xor => {
                    let trail = if s.or_acc == 0 {
                        0
                    } else {
                        s.or_acc.trailing_zeros()
                    };
                    (s.xor_width(), trail, s.first_bits)
                }
                // Variable-width payload: the byte length rides in `aux`
                // and the first value in the reference slot.
                ColEncoding::Gorilla => (0u32, size as u32, s.first_bits),
                ColEncoding::Split => {
                    let ew = s.split_width() - 1 - s.split_mant_width();
                    let aux = ew | (s.split_mant_width() << 8);
                    (s.split_width(), aux, s.min_exp as u64)
                }
            };
            let d = HDR + DIR * c;
            page[d] = enc as u8;
            page[d + 1] = width as u8;
            page[d + 2..d + 4].copy_from_slice(&(off as u16).to_le_bytes());
            page[d + 4..d + 8].copy_from_slice(&aux.to_le_bytes());
            page[d + 8..d + 16].copy_from_slice(&reference.to_le_bytes());
            self.encode_column(c, enc, width, aux, &mut page[off..off + size]);
            off += size;
        }
    }

    fn encode_column(&self, c: usize, enc: ColEncoding, width: u32, aux: u32, out: &mut [u8]) {
        let n = self.nrows();
        let col = || (0..n).map(|r| self.rows[r * self.ncols + c]);
        match enc {
            ColEncoding::Raw => {
                for (i, v) in col().enumerate() {
                    out[i * 8..i * 8 + 8].copy_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            ColEncoding::IntFor => {
                let g = aux as u64;
                let min = self.stats[c].min_i;
                for (i, v) in col().enumerate() {
                    let delta = (v as i64 - min) as u64 / g;
                    write_bits(out, i * width as usize, width, delta);
                }
            }
            ColEncoding::IntDelta => {
                let g = aux as u64;
                let mut prev = self.stats[c].first_i;
                for (i, v) in col().enumerate().skip(1) {
                    let zz = zigzag(v as i64 - prev) / g;
                    write_bits(out, (i - 1) * width as usize, width, zz);
                    prev = v as i64;
                }
            }
            ColEncoding::Xor => {
                let first = self.stats[c].first_bits;
                for (i, v) in col().enumerate() {
                    let x = (v.to_bits() ^ first) >> aux;
                    write_bits(out, i * width as usize, width, x);
                }
            }
            ColEncoding::Gorilla => {
                let mut w = GorillaWindow::new();
                let mut prev = self.stats[c].first_bits;
                let mut bit = 0usize;
                for v in col().skip(1) {
                    let x = v.to_bits() ^ prev;
                    prev = v.to_bits();
                    if x == 0 {
                        bit += 1; // control '0' (the buffer is zeroed)
                        continue;
                    }
                    write_bits(out, bit, 1, 1);
                    bit += 1;
                    let lead = x.leading_zeros().min(31);
                    let trail = x.trailing_zeros();
                    let fits = w.sig != 0 && lead >= w.lead && trail >= 64 - w.lead - w.sig;
                    if !fits {
                        w.lead = lead;
                        w.sig = 64 - lead - trail;
                        write_bits(out, bit, 1, 1);
                        bit += 1;
                        write_bits(out, bit, 5, w.lead as u64);
                        bit += 5;
                        write_bits(out, bit, 6, (w.sig - 1) as u64);
                        bit += 6;
                    } else {
                        bit += 1; // control '0': reuse the window
                    }
                    write_bits(out, bit, w.sig, x >> (64 - w.lead - w.sig));
                    bit += w.sig as usize;
                }
            }
            ColEncoding::Split => {
                let s = &self.stats[c];
                let (min_exp, ew, mw) = (
                    s.min_exp as u64,
                    width - 1 - s.split_mant_width(),
                    s.split_mant_width(),
                );
                for (i, v) in col().enumerate() {
                    let bits = v.to_bits();
                    let mut bit = i * width as usize;
                    write_bits(out, bit, 1, bits >> 63);
                    bit += 1;
                    write_bits(out, bit, ew, ((bits >> 52) & 0x7FF) - min_exp);
                    bit += ew as usize;
                    write_bits(out, bit, mw, (bits & ((1u64 << 52) - 1)) >> (52 - mw));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

/// Transposes row `r` of decoded column buffers into `row`.
pub fn gather_row(cols: &[Vec<f64>], r: usize, row: &mut [f64]) {
    for (v, col) in row.iter_mut().zip(cols.iter()) {
        *v = col[r];
    }
}

fn corrupt<T>(what: String) -> Result<T> {
    Err(StoreError::Corrupt(what))
}

/// Checks the page header against the expected column count and returns
/// the row count. Afterwards the whole directory lies inside `page`.
fn check_header(page: &[u8], ncols: usize) -> Result<usize> {
    if page.len() < PAGE_SIZE || !is_colpage(page) {
        return corrupt("not a columnar page".to_string());
    }
    let stored_cols = page::get_u16(page, 4) as usize;
    if stored_cols != ncols || ncols > max_cols() {
        return corrupt(format!(
            "columnar page has {stored_cols} columns, expected {ncols}"
        ));
    }
    Ok(page_nrows(page))
}

/// The exponent and mantissa widths `SPLIT` packs into `aux`.
fn split_widths(aux: u32) -> (u32, u32) {
    (aux & 0xFF, (aux >> 8) & 0xFF)
}

/// One column's directory entry, checked: every shift and width its
/// decode loop will use is in range and its payload lies inside the page,
/// so [`ColDir::decode`] cannot index or shift out of bounds.
struct ColDir<'a> {
    enc: ColEncoding,
    width: u32,
    aux: u32,
    reference: u64,
    payload: &'a [u8],
}

impl<'a> ColDir<'a> {
    /// Parses and checks entry `c` of a page of `n` rows that passed
    /// [`check_header`].
    fn parse(page: &'a [u8], n: usize, c: usize) -> Result<Self> {
        let d = &page[HDR + DIR * c..][..DIR];
        let enc = ColEncoding::from_byte(d[0])?;
        let width = d[1] as u32;
        let off = page::get_u16(d, 2) as usize;
        let aux = page::get_u32(d, 4);
        let reference = page::get_u64(d, 8);
        if width > 64 {
            return corrupt(format!("bit width {width} > 64 in column {c}"));
        }
        let len = match enc {
            ColEncoding::Raw => n * 8,
            ColEncoding::IntFor => (n * width as usize).div_ceil(8),
            ColEncoding::IntDelta => (n.saturating_sub(1) * width as usize).div_ceil(8),
            ColEncoding::Xor if aux >= 64 => {
                return corrupt(format!("xor shift {aux} >= 64 in column {c}"));
            }
            ColEncoding::Xor => (n * width as usize).div_ceil(8),
            // Every value after the first spends at least a control bit.
            ColEncoding::Gorilla if (aux as u64) * 8 < n.saturating_sub(1) as u64 => {
                return corrupt(format!(
                    "gorilla payload of {aux} bytes cannot hold {n} values in column {c}"
                ));
            }
            ColEncoding::Gorilla => aux as usize,
            ColEncoding::Split => {
                let (ew, mw) = split_widths(aux);
                if 1 + ew + mw != width || mw > 52 || ew > 11 {
                    return corrupt(format!(
                        "split widths 1+{ew}+{mw} disagree with {width} in column {c}"
                    ));
                }
                (n * width as usize).div_ceil(8)
            }
        };
        let Some(payload) = off.checked_add(len).and_then(|end| page.get(off..end)) else {
            return corrupt(format!(
                "columnar payload for column {c} overruns the page ({off} + {len} bytes)"
            ));
        };
        Ok(ColDir {
            enc,
            width,
            aux,
            reference,
            payload,
        })
    }

    /// Appends the column's `n >= 1` values to `out`. Integer
    /// reconstruction wraps: a sealed page never overflows, and a corrupt
    /// one must decode to garbage, not panic.
    fn decode(&self, n: usize, out: &mut Vec<f64>) -> Result<()> {
        let bits = BitReader { buf: self.payload };
        let (w, aux, reference) = (self.width, self.aux, self.reference);
        out.reserve(n);
        match self.enc {
            ColEncoding::Raw => {
                out.extend(self.payload.chunks_exact(8).map(|b| page::get_f64(b, 0)));
            }
            ColEncoding::IntFor => {
                let (g, min) = (aux as u64, reference as i64);
                bits.unpack(n, w, out, |d| {
                    min.wrapping_add(d.wrapping_mul(g) as i64) as f64
                });
            }
            ColEncoding::IntDelta => {
                let g = aux as u64;
                let mut cur = reference as i64;
                out.push(cur as f64);
                bits.unpack(n - 1, w, out, |zz| {
                    cur = cur.wrapping_add(unzigzag(zz.wrapping_mul(g)));
                    cur as f64
                });
            }
            ColEncoding::Xor => {
                bits.unpack(n, w, out, |x| f64::from_bits((x << aux) ^ reference));
            }
            ColEncoding::Gorilla => {
                let nbits = self.payload.len() * 8;
                let mut prev = reference;
                out.push(f64::from_bits(prev));
                let (mut bit, mut lead, mut sig) = (0usize, 0u32, 0u32);
                for _ in 1..n {
                    // One load holds both control bits and, when a new
                    // window opens, its 5 + 6 bits.
                    let head = bits.bits(bit, 13);
                    if head & 1 == 0 {
                        bit += 1;
                    } else {
                        if head & 2 == 0 {
                            bit += 2;
                        } else {
                            lead = (head >> 2) as u32 & 31;
                            sig = (head >> 7) as u32 + 1;
                            bit += 13;
                        }
                        if sig == 0 || lead + sig > 64 {
                            return corrupt(format!("gorilla window {lead}+{sig} bits"));
                        }
                        prev ^= bits.bits(bit, sig) << (64 - lead - sig);
                        bit += sig as usize;
                    }
                    if bit > nbits {
                        return corrupt(format!(
                            "gorilla stream overruns its {}-byte payload",
                            self.payload.len()
                        ));
                    }
                    out.push(f64::from_bits(prev));
                }
            }
            ColEncoding::Split => {
                // Sign, exponent and mantissa are cut from one load.
                let (ew, mw) = split_widths(aux);
                bits.unpack(n, w, out, |v| {
                    let exp = ((v >> 1) & mask(ew)).wrapping_add(reference);
                    let mant = (v >> (1 + ew)) << (52 - mw);
                    f64::from_bits((v << 63) | (exp << 52) | mant)
                });
            }
        }
        Ok(())
    }
}

/// Decodes columns `cols` of a columnar page of `ncols` columns, appending
/// column `cols.start + i`'s values to `out[i]`. Returns the page's row
/// count. The directory entries of the columns outside `cols` are checked
/// all the same, so a page is either sound or `Corrupt` whatever is asked
/// of it.
///
/// # Panics
///
/// Panics unless `cols` lies within `0..ncols` and `out` has one buffer
/// per column of `cols`.
pub fn decode_into(
    page: &[u8],
    ncols: usize,
    cols: Range<usize>,
    out: &mut [Vec<f64>],
) -> Result<usize> {
    assert!(
        cols.end <= ncols && out.len() == cols.len(),
        "column range {cols:?} of {ncols} into {} buffers",
        out.len()
    );
    let n = check_header(page, ncols)?;
    for c in 0..ncols {
        let dir = ColDir::parse(page, n, c)?;
        if n > 0 && cols.contains(&c) {
            dir.decode(n, &mut out[c - cols.start])?;
        }
    }
    Ok(n)
}

/// Per-column `(encoding, payload bytes)` of a sealed page, for the
/// compression accounting surfaced in benchmarks and experiments.
pub fn column_layout(page: &[u8], ncols: usize) -> Result<Vec<(ColEncoding, usize)>> {
    let n = check_header(page, ncols)?;
    (0..ncols)
        .map(|c| ColDir::parse(page, n, c).map(|dir| (dir.enc, dir.payload.len())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads `w` bits at bit offset `bit` (LSB-first), a byte at a time
    /// through a `u128`: the reader this format was first written with, kept
    /// as the oracle [`BitReader`] is tested against.
    fn read_bits_bytewise(buf: &[u8], bit: usize, w: u32) -> u64 {
        if w == 0 {
            return 0;
        }
        let byte = bit / 8;
        let shift = (bit % 8) as u32;
        let nbytes = ((shift + w) as usize).div_ceil(8);
        let mut acc = 0u128;
        for (i, b) in buf[byte..byte + nbytes].iter().enumerate() {
            acc |= (*b as u128) << (8 * i);
        }
        ((acc >> shift) as u64) & mask(w)
    }

    fn roundtrip(rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let ncols = rows[0].len();
        let mut b = ColPageBuilder::new(ncols);
        for r in rows {
            assert!(b.try_push(r), "row must fit in these tests");
        }
        let mut page = [0u8; PAGE_SIZE];
        let mut boxed: Box<[u8; PAGE_SIZE]> = Box::new(page);
        b.seal_into(&mut boxed);
        page = *boxed;
        assert!(is_colpage(&page));
        assert_eq!(page_nrows(&page), rows.len());
        let mut cols: Vec<Vec<f64>> = vec![Vec::new(); ncols];
        let n = decode_into(&page, ncols, 0..ncols, &mut cols).unwrap();
        assert_eq!(n, rows.len());
        (0..n)
            .map(|r| (0..ncols).map(|c| cols[c][r]).collect())
            .collect()
    }

    fn assert_bit_exact(rows: &[Vec<f64>]) {
        let back = roundtrip(rows);
        for (a, b) in rows.iter().zip(&back) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn timestamps_and_floats_roundtrip() {
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                vec![
                    300.0 * (i % 7 + 1) as f64,         // dt: multiples of 300
                    -3.0 - (i as f64) * 0.001,          // dv: full precision
                    1.0e6 + 300.0 * i as f64,           // ascending timestamps
                    1.0e6 + 300.0 * (i as f64) + 600.0, // more timestamps
                ]
            })
            .collect();
        assert_bit_exact(&rows);
    }

    #[test]
    fn constant_and_special_values_roundtrip() {
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| {
                vec![
                    42.0,
                    -0.0,
                    if i % 2 == 0 { f64::INFINITY } else { -1.5 },
                    f64::MIN_POSITIVE * (i + 1) as f64,
                ]
            })
            .collect();
        assert_bit_exact(&rows);
    }

    #[test]
    fn integer_columns_pick_integer_encodings() {
        let mut b = ColPageBuilder::new(2);
        for i in 0..300 {
            assert!(b.try_push(&[300.0 * (i % 90) as f64, 1.0e8 + 300.0 * i as f64]));
        }
        let mut page = Box::new([0u8; PAGE_SIZE]);
        b.seal_into(&mut page);
        let layout = column_layout(&page[..], 2).unwrap();
        assert!(
            matches!(layout[0].0, ColEncoding::IntFor | ColEncoding::IntDelta),
            "{layout:?}"
        );
        assert!(
            matches!(layout[1].0, ColEncoding::IntFor | ColEncoding::IntDelta),
            "{layout:?}"
        );
        // Multiples of 300 with small range: far better than 2x.
        let packed: usize = layout.iter().map(|(_, b)| b).sum();
        assert!(packed * 4 < 300 * 2 * 8, "packed={packed}");
    }

    #[test]
    fn full_precision_column_falls_back_without_loss() {
        // Values engineered so no integer or xor encoding can win.
        let mut rows = Vec::new();
        let mut x = 0.123_456_789_f64;
        for _ in 0..100 {
            x = (x * 1.000_1).sin() + 1.0e-9;
            rows.push(vec![x, -x]);
        }
        assert_bit_exact(&rows);
    }

    #[test]
    fn builder_rejects_rows_past_capacity() {
        let mut b = ColPageBuilder::new(4);
        let mut n = 0usize;
        // Incompressible noise: capacity is the raw bound.
        let mut bits = 0x9E3779B97F4A7C15u64;
        loop {
            let mut row = [0.0f64; 4];
            for v in row.iter_mut() {
                bits = bits.wrapping_mul(6364136223846793005).wrapping_add(1);
                *v = f64::from_bits((bits >> 12) | 0x3FF0000000000000);
            }
            if !b.try_push(&row) {
                break;
            }
            n += 1;
        }
        assert_eq!(b.nrows(), n);
        assert!(b.encoded_size() <= PAGE_SIZE);
        // Raw capacity for 4 columns: (4096 - 8 - 64) / 32 rows, and the
        // builder must reach at least that even for pure noise.
        assert!(n >= (PAGE_SIZE - HDR - 4 * DIR) / 32, "n={n}");
        let mut page = Box::new([0u8; PAGE_SIZE]);
        b.seal_into(&mut page);
        assert_eq!(page_nrows(&page[..]), n);
    }

    #[test]
    fn decode_rejects_raw_pages_and_bad_counts() {
        let page = [0u8; PAGE_SIZE];
        let mut cols = vec![Vec::new(); 2];
        assert!(decode_into(&page, 2, 0..2, &mut cols).is_err());
        let mut b = ColPageBuilder::new(2);
        b.try_push(&[1.0, 2.0]);
        let mut sealed = Box::new([0u8; PAGE_SIZE]);
        b.seal_into(&mut sealed);
        let mut three = vec![Vec::new(); 3];
        assert!(decode_into(&sealed[..], 3, 0..3, &mut three).is_err());
    }

    #[test]
    fn bit_io_roundtrips_across_boundaries() {
        let mut buf = vec![0u8; 64];
        let vals = [0u64, 1, 0x7F, 0xDEAD_BEEF, u64::MAX, 1 << 63];
        let widths = [1u32, 7, 13, 32, 64, 64];
        let mut bit = 3usize;
        for (v, w) in vals.iter().zip(widths) {
            write_bits(&mut buf, bit, w, *v);
            bit += w as usize;
        }
        bit = 3;
        for (v, w) in vals.iter().zip(widths) {
            assert_eq!(read_bits_bytewise(&buf, bit, w), v & mask(w));
            bit += w as usize;
        }
    }

    /// Deterministic noise bytes (xorshift64).
    fn noise(len: usize, mut x: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn word_reader_matches_the_bytewise_oracle() {
        // Every width at every bit alignment, at the start of a payload,
        // in its middle, and ending in each of its last eight bit
        // positions (where the 8-byte load no longer fits).
        let buf = noise(if cfg!(miri) { 24 } else { 40 }, 0x9E37_79B9_7F4A_7C15);
        let reader = BitReader { buf: &buf };
        let nbits = buf.len() * 8;
        for w in 0..=64u32 {
            for o in 0..8usize {
                for bit in [o, nbits / 2 + o, nbits - w as usize - o] {
                    assert_eq!(
                        reader.bits(bit, w),
                        read_bits_bytewise(&buf, bit, w),
                        "width {w} at bit {bit}"
                    );
                }
            }
        }
        // Past the end the reader yields zeros, never a panic.
        assert_eq!(reader.bits(nbits + 5, 64), 0);
        assert_eq!(reader.bits(nbits - 3, 64), (buf[buf.len() - 1] >> 5) as u64);
    }

    #[test]
    fn unpack_matches_the_bytewise_oracle() {
        let counts: &[usize] = if cfg!(miri) {
            &[1, 9]
        } else {
            &[1, 2, 7, 8, 9, 64, 150]
        };
        for w in 0..=64u32 {
            for &n in counts {
                let payload = noise(
                    (n * w as usize).div_ceil(8),
                    0xD1B5_4A32_D192_ED03 + w as u64,
                );
                let mut got = vec![-1.0];
                BitReader { buf: &payload }.unpack(n, w, &mut got, f64::from_bits);
                let want: Vec<u64> = (0..n)
                    .map(|i| read_bits_bytewise(&payload, i * w as usize, w))
                    .collect();
                assert_eq!(got[0], -1.0, "unpack appends");
                let got: Vec<u64> = got[1..].iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "width {w}, {n} values");
            }
        }
    }

    /// A four-column page: a `dt`-like column, incompressible noise (so
    /// the column is stored `RAW`, with `aux` 0), and two time stamps.
    fn page_with_a_raw_column() -> Box<[u8; PAGE_SIZE]> {
        let mut b = ColPageBuilder::new(4);
        let noise = noise(8 * 60, 0x2545_F491_4F6C_DD1D);
        for (i, v) in noise.chunks_exact(8).enumerate() {
            let v = page::get_f64(v, 0);
            let t = 1.0e6 + 300.0 * i as f64;
            assert!(b.try_push(&[300.0 * (i % 7) as f64, v, t, t + 600.0]));
        }
        let mut page = Box::new([0u8; PAGE_SIZE]);
        b.seal_into(&mut page);
        assert_eq!(column_layout(&page[..], 4).unwrap()[1].0, ColEncoding::Raw);
        page
    }

    #[test]
    fn corrupt_directory_entries_are_errors_for_skipped_columns_too() {
        let sealed = page_with_a_raw_column();
        let mut cols = vec![Vec::new(); 4];
        assert_eq!(decode_into(&sealed[..], 4, 0..4, &mut cols).unwrap(), 60);
        let d1 = HDR + DIR; // column 1's directory entry
        let (gorilla, xor) = (ColEncoding::Gorilla as u8, ColEncoding::Xor as u8);
        let cases: [(&str, &[(usize, u8)]); 5] = [
            // RAW -> GORILLA: `aux` 0 becomes a 0-byte payload, which
            // the byte-at-a-time reader indexed past in release builds.
            ("gorilla stream with no payload", &[(d1, gorilla)]),
            ("unknown encoding", &[(d1, 9)]),
            ("width above 64", &[(d1 + 1, 65)]),
            ("payload past the page", &[(d1 + 3, 0xFF)]),
            ("xor shift of 64", &[(d1, xor), (d1 + 4, 64)]),
        ];
        for (what, edits) in cases {
            let mut page = sealed.clone();
            for &(at, byte) in edits {
                page[at] = byte;
            }
            // Column 1 is corrupt whether or not it is asked for.
            for range in [0..4, 1..2, 2..4, 0..0] {
                let mut cols = vec![Vec::new(); range.len()];
                let got = decode_into(&page[..], 4, range.clone(), &mut cols);
                assert!(
                    matches!(got, Err(StoreError::Corrupt(_))),
                    "{what}, columns {range:?}: {got:?}"
                );
            }
            assert!(column_layout(&page[..], 4).is_err(), "{what}");
        }
    }

    #[test]
    fn empty_and_short_pages_decode_to_nothing_or_corrupt() {
        let mut page = page_with_a_raw_column();
        page[0..2].copy_from_slice(&0u16.to_le_bytes());
        let mut cols = vec![Vec::new(); 4];
        assert_eq!(decode_into(&page[..], 4, 0..4, &mut cols).unwrap(), 0);
        assert!(cols.iter().all(|c| c.is_empty()), "zero rows, zero values");
        assert!(decode_into(&page[..100], 4, 0..4, &mut cols).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A mix of the codec's interesting cases: sample-period multiples
    /// (IntFor/IntDelta fodder), large exact integers, arbitrary bit
    /// patterns (NaNs and infinities included — the codec is bit-exact,
    /// not value-exact), and the signed zeros.
    fn arb_value() -> impl Strategy<Value = f64> {
        (0u32..6, any::<u64>()).prop_map(|(kind, bits)| match kind {
            0 => (((bits % 20_000) as i64 - 10_000) * 300) as f64,
            1 => (bits & ((1u64 << 40) - 1)) as f64,
            2 | 3 => f64::from_bits(bits),
            4 => [0.0, -0.0][(bits % 2) as usize],
            _ => [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][(bits % 3) as usize],
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 64 }))]

        #[test]
        fn any_page_roundtrips_bit_exactly(
            ncols in 1usize..6,
            rows in proptest::collection::vec(
                proptest::collection::vec(arb_value(), 6), 1..120),
        ) {
            let mut b = ColPageBuilder::new(ncols);
            let mut staged: Vec<Vec<f64>> = Vec::new();
            for r in &rows {
                if b.try_push(&r[..ncols]) {
                    staged.push(r[..ncols].to_vec());
                }
            }
            prop_assume!(!staged.is_empty());
            let mut page = Box::new([0u8; PAGE_SIZE]);
            b.seal_into(&mut page);
            let mut cols: Vec<Vec<f64>> = vec![Vec::new(); ncols];
            let n = decode_into(&page[..], ncols, 0..ncols, &mut cols).unwrap();
            prop_assert_eq!(n, staged.len());
            for (r, row) in staged.iter().enumerate() {
                for (c, v) in row.iter().enumerate() {
                    prop_assert_eq!(cols[c][r].to_bits(), v.to_bits());
                }
            }
            // Every contiguous projection is the full decode restricted
            // to it, appended after whatever the buffers already held.
            let bits = |col: &[f64]| col.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for lo in 0..=ncols {
                for hi in lo..=ncols {
                    let mut part: Vec<Vec<f64>> = vec![vec![f64::NAN]; hi - lo];
                    prop_assert_eq!(decode_into(&page[..], ncols, lo..hi, &mut part).unwrap(), n);
                    for (c, got) in (lo..hi).zip(&part) {
                        prop_assert_eq!(got[0].to_bits(), f64::NAN.to_bits());
                        prop_assert_eq!(bits(&got[1..]), bits(&cols[c]), "columns {}..{}", lo, hi);
                    }
                }
            }
        }
    }
}
