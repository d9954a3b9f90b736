//! Size and distribution statistics (the quantities of paper §5.2 / §6).

/// Distribution of stored boundaries by corner count (paper Table 4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CornerHistogram {
    /// `counts[k]` = number of stored boundaries with `k + 1` corners.
    pub counts: [u64; 3],
}

impl CornerHistogram {
    /// Records one boundary with `corners` corner points.
    pub fn record(&mut self, corners: usize) {
        self.counts[corners - 1] += 1;
    }

    /// Total number of boundaries.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Percentage of boundaries with `corners` corner points.
    pub fn percent(&self, corners: usize) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            100.0 * self.counts[corners - 1] as f64 / t as f64
        }
    }

    /// The expected number of corners per boundary — the paper's
    /// "effectively two corner points" statistic (§6.1).
    pub fn effective_corners(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            return 0.0;
        }
        (self.counts[0] + 2 * self.counts[1] + 3 * self.counts[2]) as f64 / t as f64
    }

    /// Component-wise sum.
    pub fn merged(&self, other: &CornerHistogram) -> CornerHistogram {
        CornerHistogram {
            counts: [
                self.counts[0] + other.counts[0],
                self.counts[1] + other.counts[1],
                self.counts[2] + other.counts[2],
            ],
        }
    }
}

/// Sizes and counts of a built [`crate::SegDiffIndex`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SegDiffStats {
    /// Observations ingested.
    pub n_observations: u64,
    /// Segments produced.
    pub n_segments: u64,
    /// Segments a compaction sealed: the feature rows whose later segment
    /// is one of them are not stored, and searches generate them.
    pub sealed_segments: u64,
    /// Feature rows stored (all six tables); the rows the store represents
    /// are [`SegDiffStats::corner_hist`]'s total.
    pub n_rows: u64,
    /// Raw feature payload bytes (rows × columns × 8) under *our* physical
    /// layout (explicit corners + four time stamps).
    pub feature_payload_bytes: u64,
    /// Feature bytes under the *paper's* column accounting
    /// (`c2 ∈ {5, 6, 7}` columns per 1/2/3-corner row, §5.2).
    pub paper_feature_bytes: u64,
    /// Heap pages on disk, in bytes.
    pub heap_bytes: u64,
    /// Index pages on disk, in bytes.
    pub index_bytes: u64,
    /// Corner-count distribution of drop boundaries.
    pub drop_hist: CornerHistogram,
    /// Corner-count distribution of jump boundaries.
    pub jump_hist: CornerHistogram,
}

impl SegDiffStats {
    /// The paper's compression rate `r`: observations per segment.
    pub fn compression_rate(&self) -> f64 {
        if self.n_segments == 0 {
            0.0
        } else {
            self.n_observations as f64 / self.n_segments as f64
        }
    }

    /// Heap plus index bytes — the paper's "disk size".
    pub fn disk_bytes(&self) -> u64 {
        self.heap_bytes + self.index_bytes
    }

    /// Combined corner histogram over both search kinds (paper Table 4).
    pub fn corner_hist(&self) -> CornerHistogram {
        self.drop_hist.merged(&self.jump_hist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentages() {
        let mut h = CornerHistogram::default();
        for _ in 0..20 {
            h.record(1);
        }
        for _ in 0..47 {
            h.record(2);
        }
        for _ in 0..33 {
            h.record(3);
        }
        assert_eq!(h.total(), 100);
        assert_eq!(h.percent(1), 20.0);
        assert_eq!(h.percent(2), 47.0);
        assert_eq!(h.percent(3), 33.0);
        // Effective corners = (20 + 94 + 99)/100 = 2.13 (the paper's value).
        assert!((h.effective_corners() - 2.13).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram() {
        let h = CornerHistogram::default();
        assert_eq!(h.percent(1), 0.0);
        assert_eq!(h.effective_corners(), 0.0);
    }

    #[test]
    fn merged_adds() {
        let a = CornerHistogram { counts: [1, 2, 3] };
        let b = CornerHistogram {
            counts: [10, 20, 30],
        };
        assert_eq!(a.merged(&b).counts, [11, 22, 33]);
    }

    #[test]
    fn stats_derived_quantities() {
        let s = SegDiffStats {
            n_observations: 700,
            n_segments: 100,
            heap_bytes: 4096,
            index_bytes: 8192,
            ..Default::default()
        };
        assert_eq!(s.compression_rate(), 7.0);
        assert_eq!(s.disk_bytes(), 12288);
        assert_eq!(SegDiffStats::default().compression_rate(), 0.0);
    }
}
