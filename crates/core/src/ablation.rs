//! Ablation variant: store **all four** parallelogram corners.
//!
//! The paper's corner reduction (§4.3.1) stores only the 1–3 corners of
//! the region-facing boundary. [`FullCornerIndex`] is the control arm: it
//! stores every corner and answers queries with the exact geometric
//! intersection test, so experiments can quantify what the reduction buys
//! (the paper's claim: it "effectively reduces the storage of
//! parallelograms' corners by half") while verifying that both forms
//! return identical result sets.

use crate::query::{check_window, QueryStats};
use crate::result::{sort_dedup, SegmentPair};
use featurespace::{
    extract_full_corners, extract_full_self_corners, full_corners_intersect, FeaturePoint,
    QueryRegion, SearchKind,
};
use pagestore::{Database, Result, Table, TableSpec};
use segmentation::{Segment, SlidingWindowSegmenter};
use sensorgen::TimeSeries;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const COLS: [&str; 12] = [
    "dt1", "dv1", "dt2", "dv2", "dt3", "dv3", "dt4", "dv4", "td", "tc", "tb", "ta",
];

/// Size statistics of a [`FullCornerIndex`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FullCornerStats {
    /// Observations ingested.
    pub n_observations: u64,
    /// Segments produced.
    pub n_segments: u64,
    /// Stored parallelogram rows.
    pub n_rows: u64,
    /// Raw payload bytes (rows × 12 columns × 8).
    pub feature_payload_bytes: u64,
    /// Heap bytes on disk.
    pub heap_bytes: u64,
}

/// The un-reduced four-corner feature store (sequential-scan queries only —
/// this is a measurement control, not a production path).
pub struct FullCornerIndex {
    db: Arc<Database>,
    drop_table: Arc<Table>,
    jump_table: Arc<Table>,
    segmenter: SlidingWindowSegmenter,
    epsilon: f64,
    window: f64,
    prev: VecDeque<Segment>,
    n_observations: u64,
    n_segments: u64,
}

impl FullCornerIndex {
    /// Creates the ablation index under `dir`.
    pub fn create(dir: &Path, epsilon: f64, window: f64, pool_pages: usize) -> Result<Self> {
        assert!(
            window.is_finite() && window > 0.0,
            "window must be positive"
        );
        let db = Database::create(dir, pool_pages)?;
        let drop_table = db.create_table(TableSpec::new("drop4", &COLS))?;
        let jump_table = db.create_table(TableSpec::new("jump4", &COLS))?;
        Ok(Self {
            db,
            drop_table,
            jump_table,
            segmenter: SlidingWindowSegmenter::new(epsilon),
            epsilon,
            window,
            prev: VecDeque::new(),
            n_observations: 0,
            n_segments: 0,
        })
    }

    /// Ingests one observation.
    pub fn push(&mut self, t: f64, v: f64) -> Result<()> {
        self.n_observations += 1;
        if let Some(seg) = self.segmenter.push(t, v) {
            self.store_segment(seg)?;
        }
        Ok(())
    }

    /// Ingests a whole series.
    pub fn ingest_series(&mut self, series: &TimeSeries) -> Result<()> {
        for (t, v) in series.iter() {
            self.push(t, v)?;
        }
        Ok(())
    }

    /// Flushes the trailing segment and persists.
    pub fn finish(&mut self) -> Result<()> {
        if let Some(seg) = self.segmenter.finish() {
            self.store_segment(seg)?;
        }
        self.db.flush()
    }

    fn store_segment(&mut self, ab: Segment) -> Result<()> {
        self.n_segments += 1;
        let win_start = ab.t_start - self.window;
        while let Some(front) = self.prev.front() {
            if front.t_end <= win_start {
                self.prev.pop_front();
            } else {
                break;
            }
        }
        let mut row = [0.0f64; 12];
        for cd in &self.prev {
            let Some(cd_eff) = cd.truncate_left(win_start) else {
                continue;
            };
            for kind in [SearchKind::Drop, SearchKind::Jump] {
                if let Some(corners) = extract_full_corners(&cd_eff, &ab, self.epsilon, kind) {
                    Self::fill_row(&mut row, &corners, &cd_eff, &ab);
                    self.table(kind).insert(&row)?;
                }
            }
        }
        for kind in [SearchKind::Drop, SearchKind::Jump] {
            if let Some(corners) = extract_full_self_corners(&ab, self.epsilon, kind) {
                Self::fill_row(&mut row, &corners, &ab, &ab);
                self.table(kind).insert(&row)?;
            }
        }
        self.prev.push_back(ab);
        Ok(())
    }

    fn table(&self, kind: SearchKind) -> &Arc<Table> {
        match kind {
            SearchKind::Drop => &self.drop_table,
            SearchKind::Jump => &self.jump_table,
        }
    }

    fn fill_row(row: &mut [f64; 12], corners: &[FeaturePoint; 4], cd: &Segment, ab: &Segment) {
        for (i, p) in corners.iter().enumerate() {
            row[2 * i] = p.dt;
            row[2 * i + 1] = p.dv;
        }
        row[8] = cd.t_start;
        row[9] = cd.t_end;
        row[10] = ab.t_start;
        row[11] = ab.t_end;
    }

    /// Runs a search by sequential scan with the exact four-corner test.
    /// A `T` above the window is a [`pagestore::StoreError::InvalidArgument`],
    /// as in [`crate::SegDiffIndex::query`].
    pub fn query(&self, region: &QueryRegion) -> Result<(Vec<SegmentPair>, QueryStats)> {
        check_window(region, self.window)?;
        let io_before = self.db.stats();
        let start = Instant::now();
        let mut rows_considered = 0u64;
        let mut out = Vec::new();
        self.table(region.kind).seq_scan(|_, row| {
            rows_considered += 1;
            let corners = [
                FeaturePoint::new(row[0], row[1]),
                FeaturePoint::new(row[2], row[3]),
                FeaturePoint::new(row[4], row[5]),
                FeaturePoint::new(row[6], row[7]),
            ];
            if full_corners_intersect(&corners, region) {
                out.push(SegmentPair {
                    t_d: row[8],
                    t_c: row[9],
                    t_b: row[10],
                    t_a: row[11],
                });
            }
            true
        })?;
        sort_dedup(&mut out);
        let stats = QueryStats {
            wall_seconds: start.elapsed().as_secs_f64(),
            rows_considered,
            results: out.len() as u64,
            io: self.db.stats().since(&io_before),
            ..QueryStats::default()
        };
        Ok((out, stats))
    }

    /// Size statistics.
    pub fn stats(&self) -> FullCornerStats {
        FullCornerStats {
            n_observations: self.n_observations,
            n_segments: self.n_segments,
            n_rows: self.drop_table.num_rows() + self.jump_table.num_rows(),
            feature_payload_bytes: self.drop_table.payload_bytes()
                + self.jump_table.payload_bytes(),
            heap_bytes: self.drop_table.heap_bytes() + self.jump_table.heap_bytes(),
        }
    }

    /// Makes subsequent queries run cold.
    pub fn clear_cache(&self) -> Result<()> {
        self.db.clear_cache()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QueryPlan, SegDiffConfig, SegDiffIndex};
    use sensorgen::HOUR;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("segdiff-full-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn walk(n: usize, seed: u64) -> TimeSeries {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v = 0.0;
        (0..n)
            .map(|i| {
                v += (rng.random::<f64>() - 0.5) * 2.0;
                (i as f64 * 300.0, v)
            })
            .collect()
    }

    #[test]
    fn matches_reduced_index_results() {
        let series = walk(400, 3);
        let eps = 0.25;
        let w = 4.0 * HOUR;
        let d1 = tmpdir("full");
        let d2 = tmpdir("reduced");
        let mut full = FullCornerIndex::create(&d1, eps, w, 1024).unwrap();
        full.ingest_series(&series).unwrap();
        full.finish().unwrap();
        let mut reduced = SegDiffIndex::create(
            &d2,
            SegDiffConfig::default().with_epsilon(eps).with_window(w),
        )
        .unwrap();
        reduced.ingest_series(&series).unwrap();
        reduced.finish().unwrap();

        for region in [
            QueryRegion::drop(1.0 * HOUR, -1.0),
            QueryRegion::drop(3.0 * HOUR, -3.0),
            QueryRegion::jump(2.0 * HOUR, 2.0),
        ] {
            let (a, _) = full.query(&region).unwrap();
            let (b, _) = reduced.query(&region, QueryPlan::SeqScan).unwrap();
            assert_eq!(a, b, "representations disagree for {region:?}");
            assert!(!a.is_empty() || region.v.abs() > 2.5, "query too easy");
        }
        std::fs::remove_dir_all(&d1).ok();
        std::fs::remove_dir_all(&d2).ok();
    }

    #[test]
    fn reduction_saves_space() {
        let series = walk(600, 9);
        let d1 = tmpdir("space-full");
        let d2 = tmpdir("space-reduced");
        let mut full = FullCornerIndex::create(&d1, 0.2, 4.0 * HOUR, 1024).unwrap();
        full.ingest_series(&series).unwrap();
        full.finish().unwrap();
        let mut reduced = SegDiffIndex::create(
            &d2,
            SegDiffConfig::default()
                .with_epsilon(0.2)
                .with_window(4.0 * HOUR),
        )
        .unwrap();
        reduced.ingest_series(&series).unwrap();
        reduced.finish().unwrap();

        let f = full.stats();
        let r = reduced.stats();
        // Same pairs stored, so row counts match; the payload shrinks
        // because 1-3 corners replace 4 (plus per-row bookkeeping).
        assert_eq!(f.n_rows, r.n_rows);
        assert!(
            (r.feature_payload_bytes as f64) < 0.85 * f.feature_payload_bytes as f64,
            "reduced {} vs full {}",
            r.feature_payload_bytes,
            f.feature_payload_bytes
        );
        std::fs::remove_dir_all(&d1).ok();
        std::fs::remove_dir_all(&d2).ok();
    }

    #[test]
    fn query_beyond_window_rejected() {
        let dir = tmpdir("window");
        let mut full = FullCornerIndex::create(&dir, 0.2, 4.0 * HOUR, 128).unwrap();
        full.ingest_series(&walk(100, 5)).unwrap();
        full.finish().unwrap();
        match full.query(&QueryRegion::drop(5.0 * HOUR, -1.0)) {
            Err(pagestore::StoreError::InvalidArgument(m)) => {
                assert_eq!(m, "t_hours 5.0 exceeds the index window of 4 h")
            }
            other => panic!("{:?}", other.map(|(r, _)| r.len())),
        }
        assert!(full.query(&QueryRegion::drop(4.0 * HOUR, -1.0)).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
