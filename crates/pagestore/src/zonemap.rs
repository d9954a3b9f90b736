//! Zone maps: one whole-heap min/max summary per heap.
//!
//! A zone map holds the minimum and maximum of each column over every row
//! a heap stores. A plan with a *conservative* predicate (one that returns
//! `true` whenever any row in the summarized range could match) may then
//! skip the whole heap without reading a page of it — MacroBase-style
//! pruning adapted to the feature tables' corner columns. The search
//! generator asks it of `segments` before reading a segment
//! ([`crate::HeapFile::prune_whole_segment`]); the paper's sequential scan
//! reads every page of a heap the summary admits.
//!
//! A zone map is never stored: it is derived from the rows, like a
//! segment's statistics. [`crate::HeapFile::open`] builds it with one scan,
//! every insert folds its row in, and a seal or cut installs the map it
//! built while writing the new file. So it covers every stored row at all
//! times, whatever a crash or a recovery did to the heap.

/// The whole-heap min/max summary of every column of a heap file.
#[derive(Debug, Clone)]
pub struct ZoneMap {
    /// Rows observed; always the heap's row count.
    nrows: u64,
    mins: Vec<f64>,
    maxs: Vec<f64>,
}

impl ZoneMap {
    /// An empty zone map for rows of `ncols` columns.
    pub fn new(ncols: usize) -> Self {
        assert!(ncols > 0, "zone map needs at least one column");
        Self {
            nrows: 0,
            mins: vec![f64::INFINITY; ncols],
            maxs: vec![f64::NEG_INFINITY; ncols],
        }
    }

    /// Rows observed so far.
    pub fn num_rows(&self) -> u64 {
        self.nrows
    }

    /// Folds one row into the summary.
    ///
    /// # Panics
    ///
    /// Panics if the row arity differs from the map's.
    pub fn observe(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.mins.len(), "row arity mismatch");
        for ((lo, hi), &v) in self.mins.iter_mut().zip(&mut self.maxs).zip(row) {
            *lo = lo.min(v);
            *hi = hi.max(v);
        }
        self.nrows += 1;
    }

    /// The whole-heap `(mins, maxs)` summary, or `None` for an empty map.
    pub fn segment_bounds(&self) -> Option<(&[f64], &[f64])> {
        (self.nrows > 0).then_some((&self.mins[..], &self.maxs[..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_tracks_the_whole_heap_min_max() {
        let mut z = ZoneMap::new(2);
        assert!(z.segment_bounds().is_none());
        z.observe(&[1.0, -5.0]);
        z.observe(&[3.0, -1.0]);
        z.observe(&[10.0, 0.0]);
        assert_eq!(z.num_rows(), 3);
        let (mins, maxs) = z.segment_bounds().unwrap();
        assert_eq!(mins, &[1.0, -5.0]);
        assert_eq!(maxs, &[10.0, 0.0]);
    }
}
