//! The row stream (`GET /segments`): a sensor's `segments` rows from a
//! row on, and what a replica needs to apply them. A body is a header
//! and `count` rows, all little-endian, each row copied bit for bit from
//! the primary's resident run:
//!
//! ```text
//! [magic "SDSR"][epsilon f64][window f64][n_observations u64]
//! [total_rows u64][first_row u64][count u64]
//! [t_start f64][v_start f64][t_end f64][v_end f64] × count
//! ```
//!
//! [`decode`] checks what an apply rests on before it allocates a row:
//! the body holds `count` rows, within the primary's `total_rows` (some
//! of them when the reader is behind), each a finite segment of positive
//! duration starting where the one before it ends, bit for bit — so
//! `PiecewiseLinear::from_segments`, which panics on a gap, cannot panic
//! on it. [`Shipment::check_follows`] checks the rest against the reader.

use segdiff::SegDiffIndex;
use segmentation::Segment;

/// Magic bytes opening every body ("SDSR").
const MAGIC: [u8; 4] = *b"SDSR";

/// Header length in bytes: the magic and six 8-byte words.
pub const HEADER: usize = 4 + 6 * 8;

/// Bytes of one row: four `f64`s.
pub const ROW: usize = 32;

/// Most rows one body carries (1 MiB of them, well under the transport's
/// body cap); a reader further behind asks again from where it stands.
const MAX_ROWS: u64 = 1 << 15;

/// One decoded body: rows `first_row..first_row + rows.len()` of a
/// sensor whose primary holds `total_rows`.
#[derive(Debug, Clone, PartialEq)]
pub struct Shipment {
    /// The sensor's ε.
    pub epsilon: f64,
    /// The sensor's window, in seconds.
    pub window: f64,
    /// Raw observations the primary's segments represent.
    pub n_observations: u64,
    /// Rows the primary's `segments` holds.
    pub total_rows: u64,
    /// Row number of `rows[0]`.
    pub first_row: u64,
    /// The rows, in temporal order.
    pub rows: Vec<Segment>,
}

/// The body for `index`'s rows from `after_row` on (at most
/// `MAX_ROWS`; none when `after_row` is past the last).
pub fn encode(index: &SegDiffIndex, after_row: u64) -> pagestore::Result<Vec<u8>> {
    let stats = index.stats();
    let first_row = after_row.min(stats.n_segments);
    let shipment = Shipment {
        epsilon: index.config().epsilon,
        window: index.config().window,
        n_observations: stats.n_observations,
        total_rows: stats.n_segments,
        first_row,
        rows: index.segments_in(first_row..first_row.saturating_add(MAX_ROWS))?,
    };
    Ok(shipment.to_bytes())
}

impl Shipment {
    /// The body carrying this shipment.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER + ROW * self.rows.len());
        out.extend_from_slice(&MAGIC);
        let header = [
            self.epsilon.to_bits(),
            self.window.to_bits(),
            self.n_observations,
            self.total_rows,
            self.first_row,
            self.rows.len() as u64,
        ];
        let rows = self.rows.iter();
        let values = rows.flat_map(|s| [s.t_start, s.v_start, s.t_end, s.v_end].map(f64::to_bits));
        for word in header.into_iter().chain(values) {
            out.extend_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Whether this run may be appended to a sensor of ε `epsilon` and
    /// window `window` whose last row is `last` (`None`: it holds none):
    /// both parameters equal, and the first row starting where `last`
    /// ends, bit for bit. The error says which check failed.
    pub fn check_follows(
        &self,
        epsilon: f64,
        window: f64,
        last: Option<&Segment>,
    ) -> Result<(), String> {
        if self.epsilon.to_bits() != epsilon.to_bits() || self.window.to_bits() != window.to_bits()
        {
            return Err(format!(
                "shipped ε {} and window {} differ from the sensor's ε {epsilon} and window {window}",
                self.epsilon, self.window
            ));
        }
        match (last, self.rows.first()) {
            (Some(last), Some(first)) if !continues(last, first) => Err(format!(
                "row {} starts at ({}, {}), not where the sensor's last row ends ({}, {})",
                self.first_row, first.t_start, first.v_start, last.t_end, last.v_end
            )),
            _ => Ok(()),
        }
    }
}

/// Whether `next` starts where `prev` ends, bit for bit.
fn continues(prev: &Segment, next: &Segment) -> bool {
    prev.t_end.to_bits() == next.t_start.to_bits() && prev.v_end.to_bits() == next.v_start.to_bits()
}

/// `out` filled with the little-endian words that open `bytes`.
fn words<const N: usize>(bytes: &[u8]) -> [u64; N] {
    let mut out = [0; N];
    for (word, b) in out.iter_mut().zip(bytes.chunks_exact(8)) {
        *word = u64::from_le_bytes(b.try_into().unwrap_or_default());
    }
    out
}

/// Parses a body; `Err` describes the first check it fails, and nothing
/// is allocated before the row count is known to be the body's.
pub fn decode(body: &[u8]) -> Result<Shipment, String> {
    let Some((head, rest)) = body
        .split_at_checked(HEADER)
        .filter(|(h, _)| h[..4] == MAGIC)
    else {
        return Err(format!(
            "segments body of {} bytes has no header",
            body.len()
        ));
    };
    let [epsilon, window, n_observations, total_rows, first_row, count] = words(&head[4..]);
    let (epsilon, window) = (f64::from_bits(epsilon), f64::from_bits(window));
    if !(epsilon.is_finite() && epsilon >= 0.0 && window.is_finite() && window > 0.0) {
        return Err(format!("segments body has ε {epsilon} and window {window}"));
    }
    let end = first_row
        .checked_add(count)
        .filter(|&end| end <= total_rows);
    let behind = count == 0 && first_row < total_rows;
    if rest.len() % ROW != 0 || (rest.len() / ROW) as u64 != count || end.is_none() || behind {
        return Err(format!(
            "segments body ships {count} rows from row {first_row} of {total_rows} in {} bytes",
            rest.len()
        ));
    }
    let mut rows: Vec<Segment> = Vec::with_capacity(rest.len() / ROW);
    for (i, row) in (first_row..).zip(rest.chunks_exact(ROW)) {
        let [t_start, v_start, t_end, v_end] = words(row).map(f64::from_bits);
        let seg = Segment {
            t_start,
            v_start,
            t_end,
            v_end,
        };
        let finite = [t_start, v_start, t_end, v_end]
            .iter()
            .all(|x| x.is_finite());
        let follows = rows.last().is_none_or(|prev| continues(prev, &seg));
        if !(finite && t_start < t_end && follows) {
            return Err(format!(
                "row {i} ({t_start}, {v_start}) → ({t_end}, {v_end}) is not a finite segment \
                 of positive duration starting where the row before it ends"
            ));
        }
        rows.push(seg);
    }
    Ok(Shipment {
        epsilon,
        window,
        n_observations,
        total_rows,
        first_row,
        rows,
    })
}
