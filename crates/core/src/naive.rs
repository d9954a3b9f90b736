//! The naive baseline from the paper's introduction.
//!
//! "A naive approach for solving this problem would be taking the
//! difference between any two observation values within T time units and
//! comparing the differences with V on the fly. Unfortunately, this
//! approach would take several hours for a reasonably large data set"
//! (§1). This module implements exactly that: raw observations stored as a
//! plain relational table, every query a nested window pass with no
//! precomputation. It completes the paper's three-system comparison —
//! naive (no storage of differences), Exh (all differences stored),
//! SegDiff (compressed differences stored).

use crate::exh::ExhEvent;
use crate::query::QueryStats;
use featurespace::{QueryRegion, SearchKind};
use pagestore::{Database, Result, Table, TableSpec};
use sensorgen::TimeSeries;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The naive on-the-fly search: stores only the raw observations.
pub struct NaiveSearch {
    db: Arc<Database>,
    table: Arc<Table>,
    n_observations: u64,
}

impl NaiveSearch {
    /// Creates a naive store under `dir`.
    pub fn create(dir: &Path, pool_pages: usize) -> Result<Self> {
        let db = Database::create(dir, pool_pages)?;
        let table = db.create_table(TableSpec::new("obs", &["t", "v"]))?;
        Ok(Self {
            db,
            table,
            n_observations: 0,
        })
    }

    /// Appends one observation.
    pub fn push(&mut self, t: f64, v: f64) -> Result<()> {
        self.table.insert(&[t, v])?;
        self.n_observations += 1;
        Ok(())
    }

    /// Appends a whole series.
    pub fn ingest_series(&mut self, series: &TimeSeries) -> Result<()> {
        for (t, v) in series.iter() {
            self.push(t, v)?;
        }
        Ok(())
    }

    /// Persists the store.
    pub fn finish(&self) -> Result<()> {
        self.db.flush()
    }

    /// Raw payload bytes: two columns per observation — the *smallest*
    /// store of the three systems, paid for at query time.
    pub fn payload_bytes(&self) -> u64 {
        self.table.payload_bytes()
    }

    /// Number of stored observations.
    pub fn num_observations(&self) -> u64 {
        self.n_observations
    }

    /// Runs a search by scanning the raw observations once and comparing
    /// every pair within `T` on the fly (a sliding window over the scan,
    /// quadratic in the window population).
    pub fn query(&self, region: &QueryRegion) -> Result<(Vec<ExhEvent>, QueryStats)> {
        let io_before = self.db.stats();
        let start = Instant::now();
        let mut window: VecDeque<(f64, f64)> = VecDeque::new();
        let mut out = Vec::new();
        let mut rows_considered = 0u64;
        self.table.seq_scan(|_, row| {
            rows_considered += 1;
            let (t, v) = (row[0], row[1]);
            while let Some(&(t0, _)) = window.front() {
                if t - t0 > region.t {
                    window.pop_front();
                } else {
                    break;
                }
            }
            for &(ti, vi) in &window {
                let dv = v - vi;
                let hit = match region.kind {
                    SearchKind::Drop => dv <= region.v,
                    SearchKind::Jump => dv >= region.v,
                };
                if hit {
                    out.push(ExhEvent { t1: ti, t2: t, dv });
                }
            }
            window.push_back((t, v));
            true
        })?;
        out.sort_by(|a, b| a.t1.total_cmp(&b.t1).then(a.t2.total_cmp(&b.t2)));
        let stats = QueryStats {
            wall_seconds: start.elapsed().as_secs_f64(),
            rows_considered,
            results: out.len() as u64,
            io: self.db.stats().since(&io_before),
            ..QueryStats::default()
        };
        Ok((out, stats))
    }

    /// Drops the buffer pool (cold-cache mode).
    pub fn clear_cache(&self) -> Result<()> {
        self.db.clear_cache()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use sensorgen::HOUR;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("segdiff-naive-{}-{tag}", std::process::id()));
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
    fn naive_equals_oracle_exactly() {
        let dir = tmpdir("oracle");
        let series = walk(400, 3);
        let mut naive = NaiveSearch::create(&dir, 256).unwrap();
        naive.ingest_series(&series).unwrap();
        for region in [
            QueryRegion::drop(1.0 * HOUR, -1.5),
            QueryRegion::jump(0.5 * HOUR, 1.0),
        ] {
            let want = oracle::true_events(&series, &region);
            let (events, stats) = naive.query(&region).unwrap();
            let got: Vec<(f64, f64)> = events.iter().map(|e| (e.t1, e.t2)).collect();
            // Unlike Exh, the naive pass keeps the exact original time
            // stamps, so the comparison is exact.
            assert_eq!(got, want, "{region:?}");
            assert_eq!(stats.results as usize, want.len());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn smallest_store_of_the_three() {
        let dir_n = tmpdir("size-naive");
        let dir_e = tmpdir("size-exh");
        let series = walk(600, 5);
        let mut naive = NaiveSearch::create(&dir_n, 256).unwrap();
        naive.ingest_series(&series).unwrap();
        let mut exh = crate::exh::ExhIndex::create(&dir_e, 4.0 * HOUR, 256).unwrap();
        exh.ingest_series(&series).unwrap();
        assert!(naive.payload_bytes() * 10 < exh.stats().feature_payload_bytes);
        assert_eq!(naive.num_observations(), 600);
        std::fs::remove_dir_all(&dir_n).ok();
        std::fs::remove_dir_all(&dir_e).ok();
    }
}
