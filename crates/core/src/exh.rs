//! The exhaustive baseline **Exh** (paper §1, §6).
//!
//! Exh materializes, for every observation, the difference against every
//! earlier observation within the window `w`: one `(Δt, Δv, t)` row per
//! pair, where `t` is the (absolute) time stamp of the later observation.
//! A search is then a plain range query. This is the comparison system for
//! every space/time experiment; it is *exact on sampled observations* but —
//! unlike SegDiff — blind to events of the data generating model G that
//! fall between samples (§5.1).

use crate::query::{check_window, QueryPlan, QueryStats};
use featurespace::{QueryRegion, SearchKind};
use pagestore::{Database, OsVfs, Result, Table, TableSpec, Vfs};
use sensorgen::TimeSeries;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Sizes of a built [`ExhIndex`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ExhStats {
    /// Observations ingested.
    pub n_observations: u64,
    /// Pairwise rows stored.
    pub n_rows: u64,
    /// Raw feature bytes (rows × 3 columns × 8 — the paper's `c1 = 3`).
    pub feature_payload_bytes: u64,
    /// Heap pages on disk, in bytes.
    pub heap_bytes: u64,
    /// Index pages on disk, in bytes.
    pub index_bytes: u64,
}

impl ExhStats {
    /// Heap plus index bytes.
    pub fn disk_bytes(&self) -> u64 {
        self.heap_bytes + self.index_bytes
    }
}

/// An event returned by Exh: the two observation time stamps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExhEvent {
    /// Earlier observation time.
    pub t1: f64,
    /// Later observation time.
    pub t2: f64,
    /// The change `v(t2) - v(t1)`.
    pub dv: f64,
}

/// The exhaustive pairwise-difference index.
pub struct ExhIndex {
    dir: PathBuf,
    db: Arc<Database>,
    table: Arc<Table>,
    window: f64,
    buf: VecDeque<(f64, f64)>,
    n_observations: u64,
}

impl ExhIndex {
    /// Creates an Exh index under `dir` for window `w` seconds.
    pub fn create(dir: &Path, window: f64, pool_pages: usize) -> Result<Self> {
        assert!(
            window.is_finite() && window > 0.0,
            "window must be positive"
        );
        let db = Database::create(dir, pool_pages)?;
        let table = db.create_table(TableSpec::new("exh", &["dt", "dv", "t"]))?;
        Ok(Self {
            dir: dir.to_path_buf(),
            db,
            table,
            window,
            buf: VecDeque::new(),
            n_observations: 0,
        })
    }

    /// Reopens an index previously persisted with [`ExhIndex::finish`].
    /// Both querying and further ingestion resume (the tail of raw
    /// observations still inside the window is persisted alongside the
    /// feature table).
    pub fn open(dir: &Path, pool_pages: usize) -> Result<Self> {
        let meta = OsVfs.read(&dir.join("exh.meta")).map_err(|_| {
            pagestore::StoreError::NotFound(format!("exh meta in {}", dir.display()))
        })?;
        let meta = String::from_utf8_lossy(&meta);
        let mut window = None;
        let mut n_observations = 0u64;
        let mut buf = VecDeque::new();
        for line in meta.lines() {
            let parts: Vec<&str> = line.split_whitespace().collect();
            match parts.as_slice() {
                ["window", v] => window = v.parse().ok(),
                ["n_observations", v] => n_observations = v.parse().unwrap_or(0),
                ["tail", t, v] => {
                    let (Ok(t), Ok(v)) = (t.parse::<f64>(), v.parse::<f64>()) else {
                        return Err(pagestore::StoreError::Corrupt(
                            "exh meta: malformed tail entry".into(),
                        ));
                    };
                    buf.push_back((t, v));
                }
                _ => {}
            }
        }
        let Some(window) = window else {
            return Err(pagestore::StoreError::Corrupt(
                "exh meta missing window".into(),
            ));
        };
        let db = Database::open(dir, pool_pages)?;
        let table = db.table("exh")?;
        Ok(Self {
            dir: dir.to_path_buf(),
            db,
            table,
            window,
            buf,
            n_observations,
        })
    }

    /// The underlying database (for experiment instrumentation).
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Ingests one observation: emits one row per earlier observation
    /// within the window.
    pub fn push(&mut self, t: f64, v: f64) -> Result<()> {
        if let Some(&(last, _)) = self.buf.back() {
            assert!(t > last, "time stamps must be strictly increasing");
        }
        self.n_observations += 1;
        while let Some(&(t0, _)) = self.buf.front() {
            if t - t0 > self.window {
                self.buf.pop_front();
            } else {
                break;
            }
        }
        for &(ti, vi) in &self.buf {
            self.table.insert(&[t - ti, v - vi, t])?;
        }
        self.buf.push_back((t, v));
        Ok(())
    }

    /// Ingests a whole series.
    pub fn ingest_series(&mut self, series: &TimeSeries) -> Result<()> {
        for (t, v) in series.iter() {
            self.push(t, v)?;
        }
        Ok(())
    }

    /// Persists everything, including the metadata and window tail needed
    /// by [`ExhIndex::open`].
    pub fn finish(&self) -> Result<()> {
        let mut meta = format!(
            "window {}\nn_observations {}\n",
            self.window, self.n_observations
        );
        for (t, v) in &self.buf {
            meta.push_str(&format!("tail {t} {v}\n"));
        }
        let path = self.dir.join("exh.meta");
        pagestore::write_atomic(&**self.db.vfs(), &path, meta.as_bytes(), false)?;
        self.db.flush()
    }

    /// Builds the B+tree on `(dt, dv)` (required for [`QueryPlan::Index`]).
    pub fn build_indexes(&self) -> Result<()> {
        self.db.create_index("exh", "by_dt_dv", &["dt", "dv"])?;
        self.db.flush()
    }

    /// Runs a drop or jump search. Results are exact over sampled
    /// observations: each returned event names the two time stamps.
    /// A `T` above the window is a [`pagestore::StoreError::InvalidArgument`],
    /// as in [`crate::SegDiffIndex::query`].
    pub fn query(
        &self,
        region: &QueryRegion,
        plan: QueryPlan,
    ) -> Result<(Vec<ExhEvent>, QueryStats)> {
        check_window(region, self.window)?;
        let io_before = self.db.stats();
        let start = Instant::now();
        let mut rows_considered = 0u64;
        let mut out = Vec::new();
        let matches = |dt: f64, dv: f64| -> bool {
            dt > 0.0
                && dt <= region.t
                && match region.kind {
                    SearchKind::Drop => dv <= region.v,
                    SearchKind::Jump => dv >= region.v,
                }
        };
        match plan {
            QueryPlan::SeqScan => {
                self.table.seq_scan(|_, row| {
                    rows_considered += 1;
                    if matches(row[0], row[1]) {
                        out.push(ExhEvent {
                            t1: row[2] - row[0],
                            t2: row[2],
                            dv: row[1],
                        });
                    }
                    true
                })?;
            }
            QueryPlan::Index => {
                let lo = [f64::NEG_INFINITY, f64::NEG_INFINITY];
                let hi = [region.t, f64::INFINITY];
                let mut rids = Vec::new();
                self.table.index_scan("by_dt_dv", &lo, &hi, |rid, cols| {
                    rows_considered += 1;
                    if matches(cols[0], cols[1]) {
                        rids.push(rid);
                    }
                    true
                })?;
                rids.sort_unstable();
                self.table.fetch_many(&rids, |_, row| {
                    out.push(ExhEvent {
                        t1: row[2] - row[0],
                        t2: row[2],
                        dv: row[1],
                    });
                    true
                })?;
            }
        }
        out.sort_by(|a, b| a.t1.total_cmp(&b.t1).then(a.t2.total_cmp(&b.t2)));
        let wall = start.elapsed().as_secs_f64();
        let stats = QueryStats {
            wall_seconds: wall,
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

    /// Size statistics.
    pub fn stats(&self) -> ExhStats {
        ExhStats {
            n_observations: self.n_observations,
            n_rows: self.table.num_rows(),
            feature_payload_bytes: self.table.payload_bytes(),
            heap_bytes: self.table.heap_bytes(),
            index_bytes: self.table.index_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorgen::HOUR;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("segdiff-exh-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn series() -> TimeSeries {
        // 10, 9, 7, 4, 4, 5 at 5-minute spacing: drops of up to -6.
        TimeSeries::from_parts(
            vec![0.0, 300.0, 600.0, 900.0, 1200.0, 1500.0],
            vec![10.0, 9.0, 7.0, 4.0, 4.0, 5.0],
        )
    }

    #[test]
    fn row_count_is_pairs_within_window() {
        let dir = tmpdir("rows");
        let mut exh = ExhIndex::create(&dir, 600.0, 128).unwrap();
        exh.ingest_series(&series()).unwrap();
        // Window of 600 s = 2 predecessors per point (after the first two):
        // 0 + 1 + 2 + 2 + 2 + 2 = 9 rows.
        assert_eq!(exh.stats().n_rows, 9);
        assert_eq!(exh.stats().feature_payload_bytes, 9 * 3 * 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_matches_brute_force() {
        let dir = tmpdir("bf");
        let mut exh = ExhIndex::create(&dir, 2.0 * HOUR, 128).unwrap();
        exh.ingest_series(&series()).unwrap();
        exh.finish().unwrap();
        let region = QueryRegion::drop(900.0, -3.0);
        let (events, _) = exh.query(&region, QueryPlan::SeqScan).unwrap();
        // Drops of <= -3 within 900 s among sampled pairs:
        // (0,900): -6? v900-v0 = 4-10 = -6 yes; (300,900): -5; (600,900): -3;
        // (0,600): -3; (300,1200): -5; (600,1200): -3; (900,1500)? dv=+1 no;
        // (600,1500): -2 no; (0,300): -1 no. (300,600)? -2 no.
        // (1200, ...)? +1 no. Within dt <= 900: pairs listed above.
        let expected: Vec<(f64, f64)> = vec![
            (0.0, 600.0),
            (0.0, 900.0),
            (300.0, 900.0),
            (300.0, 1200.0),
            (600.0, 900.0),
            (600.0, 1200.0),
        ];
        let got: Vec<(f64, f64)> = events.iter().map(|e| (e.t1, e.t2)).collect();
        assert_eq!(got, expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_plan_matches_scan() {
        let dir = tmpdir("plans");
        let mut exh = ExhIndex::create(&dir, 2.0 * HOUR, 128).unwrap();
        let s: TimeSeries = (0..500)
            .map(|i| (i as f64 * 300.0, ((i as f64) / 5.0).sin() * 4.0))
            .collect();
        exh.ingest_series(&s).unwrap();
        exh.finish().unwrap();
        exh.build_indexes().unwrap();
        for (t, v) in [(HOUR, -3.0), (0.5 * HOUR, -1.0)] {
            let region = QueryRegion::drop(t, v);
            let (scan, _) = exh.query(&region, QueryPlan::SeqScan).unwrap();
            let (idx, _) = exh.query(&region, QueryPlan::Index).unwrap();
            assert_eq!(scan, idx);
            assert!(!scan.is_empty());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn jump_search_mirror() {
        let dir = tmpdir("jump");
        let mut exh = ExhIndex::create(&dir, HOUR, 128).unwrap();
        exh.ingest_series(&series()).unwrap();
        let (events, _) = exh
            .query(&QueryRegion::jump(600.0, 1.0), QueryPlan::SeqScan)
            .unwrap();
        // Rises of >= 1 within 600 s: (900, 1500) and (1200, 1500), both +1.
        let got: Vec<(f64, f64)> = events.iter().map(|e| (e.t1, e.t2)).collect();
        assert_eq!(got, vec![(900.0, 1500.0), (1200.0, 1500.0)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_beyond_window_rejected() {
        let dir = tmpdir("window");
        let mut exh = ExhIndex::create(&dir, HOUR, 128).unwrap();
        exh.ingest_series(&series()).unwrap();
        let region = QueryRegion::drop(1.5 * HOUR, -1.0);
        for plan in [QueryPlan::SeqScan, QueryPlan::Index] {
            match exh.query(&region, plan) {
                Err(pagestore::StoreError::InvalidArgument(m)) => {
                    assert_eq!(m, "t_hours 1.5 exceeds the index window of 1 h")
                }
                other => panic!("{plan:?}: {:?}", other.map(|(r, _)| r.len())),
            }
        }
        let at_the_window = QueryRegion::drop(HOUR, -1.0);
        assert!(exh.query(&at_the_window, QueryPlan::SeqScan).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
