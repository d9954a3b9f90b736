//! Managing a whole sensor network: one SegDiff index per sensor.
//!
//! The paper's deployment is twenty-five sensors across a canyon, and its
//! §6.3 reports that "SegDiff can return results for all sensors within 10
//! seconds". [`TransectIndex`] is that operational layer: a directory of
//! per-sensor [`SegDiffIndex`]es sharing one configuration, with fan-out
//! queries executed across sensors in parallel.

use crate::config::SegDiffConfig;
use crate::index::SegDiffIndex;
use crate::query::{QueryPlan, QueryStats};
use crate::result::SegmentPair;
use crate::stats::SegDiffStats;
use featurespace::QueryRegion;
use pagestore::{OsVfs, Result, StoreError, Vfs};
use sensorgen::TimeSeries;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A collection of per-sensor SegDiff indexes under one root directory
/// (`<root>/sensor-<k>/`).
///
/// An instance may hold the whole transect or, for a shard process, any
/// subset of its sensors ([`TransectIndex::open_subset`]): `sensors[i]`
/// belongs to *global* sensor id `ids[i]`, and all public APIs address
/// sensors by global id so a shard and a full open agree on names.
pub struct TransectIndex {
    root: PathBuf,
    /// Ascending global sensor ids, parallel to `sensors`.
    ids: Vec<u32>,
    sensors: Vec<SegDiffIndex>,
}

impl TransectIndex {
    /// Creates indexes for `n_sensors` sensors under `root`. The configured
    /// buffer pool is divided evenly across sensors.
    pub fn create(root: &Path, config: SegDiffConfig, n_sensors: u32) -> Result<Self> {
        assert!(n_sensors > 0, "need at least one sensor");
        let per_sensor = (config.pool_pages / n_sensors as usize).max(64);
        let config = config.with_pool_pages(per_sensor);
        let mut sensors = Vec::with_capacity(n_sensors as usize);
        for k in 0..n_sensors {
            sensors.push(SegDiffIndex::create(
                &Self::sensor_dir(root, k),
                config.clone(),
            )?);
        }
        Ok(Self {
            root: root.to_path_buf(),
            ids: (0..n_sensors).collect(),
            sensors,
        })
    }

    /// Reopens a transect previously persisted with
    /// [`TransectIndex::finish_all`]. Sensors are discovered by scanning
    /// the directory for `sensor-<k>` entries, so a root holding a sparse
    /// subset (e.g. one shard's share of a transect) opens too; ids are
    /// sorted ascending.
    pub fn open(root: &Path, pool_pages: usize) -> Result<Self> {
        let ids = Self::scan_ids(root)?;
        if ids.is_empty() {
            return Err(StoreError::NotFound(format!(
                "no sensor indexes under {}",
                root.display()
            )));
        }
        Self::open_ids(root, pool_pages, ids)
    }

    /// Opens only the named global sensor ids under `root` (a shard's
    /// view of a shared transect directory). Ids are deduplicated and
    /// sorted; every named `sensor-<k>` directory must exist.
    pub fn open_subset(root: &Path, pool_pages: usize, ids: &[u32]) -> Result<Self> {
        let mut ids = ids.to_vec();
        ids.sort_unstable();
        ids.dedup();
        if ids.is_empty() {
            return Err(StoreError::NotFound(format!(
                "empty sensor subset for {}",
                root.display()
            )));
        }
        for &k in &ids {
            if !Self::sensor_dir(root, k).exists() {
                return Err(StoreError::NotFound(format!(
                    "no sensor-{k} under {}",
                    root.display()
                )));
            }
        }
        Self::open_ids(root, pool_pages, ids)
    }

    fn open_ids(root: &Path, pool_pages: usize, ids: Vec<u32>) -> Result<Self> {
        let mut sensors = Vec::with_capacity(ids.len());
        for &k in &ids {
            sensors.push(SegDiffIndex::open(
                &Self::sensor_dir(root, k),
                pool_pages.max(64),
            )?);
        }
        Ok(Self {
            root: root.to_path_buf(),
            ids,
            sensors,
        })
    }

    /// A transect of no sensor at `root`, for a replica to fill
    /// ([`TransectIndex::insert`]).
    pub fn empty(root: &Path) -> Self {
        Self {
            root: root.to_path_buf(),
            ids: Vec::new(),
            sensors: Vec::new(),
        }
    }

    /// Holds `index` as global sensor id `sensor`, in place of the index
    /// held as `sensor` before, if any.
    pub fn insert(&mut self, sensor: u32, index: SegDiffIndex) {
        match self.ids.binary_search(&sensor) {
            Ok(i) => self.sensors[i] = index,
            Err(i) => {
                self.ids.insert(i, sensor);
                self.sensors.insert(i, index);
            }
        }
    }

    /// Stops holding global sensor id `sensor`; returns its index.
    pub fn remove(&mut self, sensor: u32) -> Option<SegDiffIndex> {
        let i = self.ids.binary_search(&sensor).ok()?;
        self.ids.remove(i);
        Some(self.sensors.remove(i))
    }

    /// Global sensor ids present under `root`, ascending.
    pub fn scan_ids(root: &Path) -> Result<Vec<u32>> {
        let names = match OsVfs.list(root) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            listed => listed?,
        };
        let mut ids: Vec<u32> = names
            .iter()
            .filter_map(|n| n.strip_prefix("sensor-")?.parse().ok())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        Ok(ids)
    }

    /// The directory of global sensor id `sensor` under `root`.
    pub fn sensor_dir(root: &Path, sensor: u32) -> PathBuf {
        root.join(format!("sensor-{sensor}"))
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Number of sensors in this instance (the subset, for a shard).
    pub fn num_sensors(&self) -> u32 {
        self.sensors.len() as u32
    }

    /// Global sensor ids in this instance, ascending and parallel to the
    /// per-sensor result lists of [`TransectIndex::query_all`].
    pub fn sensor_ids(&self) -> &[u32] {
        &self.ids
    }

    /// The per-sensor indexes, parallel to [`TransectIndex::sensor_ids`].
    pub fn indexes(&self) -> &[SegDiffIndex] {
        &self.sensors
    }

    /// Position of global sensor id `sensor`, or an error naming it.
    fn pos(&self, sensor: u32) -> Result<usize> {
        self.ids
            .binary_search(&sensor)
            .map_err(|_| StoreError::NotFound(format!("sensor {sensor} not in this transect")))
    }

    /// The index for global sensor id `sensor`.
    pub fn sensor(&self, sensor: u32) -> Result<&SegDiffIndex> {
        Ok(&self.sensors[self.pos(sensor)?])
    }

    /// The index for global sensor id `sensor`, to write through.
    pub fn sensor_mut(&mut self, sensor: u32) -> Result<&mut SegDiffIndex> {
        let i = self.pos(sensor)?;
        Ok(&mut self.sensors[i])
    }

    /// Ingests one observation for global sensor id `sensor`.
    pub fn push(&mut self, sensor: u32, t: f64, v: f64) -> Result<()> {
        let i = self.pos(sensor)?;
        self.sensors[i].push(t, v)
    }

    /// Ingests a whole series for global sensor id `sensor`.
    pub fn ingest_series(&mut self, sensor: u32, series: &TimeSeries) -> Result<()> {
        let i = self.pos(sensor)?;
        self.sensors[i].ingest_series(series)
    }

    /// Finishes and persists every sensor.
    pub fn finish_all(&mut self) -> Result<()> {
        for s in &mut self.sensors {
            s.finish()?;
        }
        Ok(())
    }

    /// Builds the query B+trees on every sensor.
    pub fn build_indexes_all(&self) -> Result<()> {
        for s in &self.sensors {
            s.build_indexes()?;
        }
        Ok(())
    }

    /// Queries one sensor by global id.
    pub fn query_sensor(
        &self,
        sensor: u32,
        region: &QueryRegion,
        plan: QueryPlan,
    ) -> Result<(Vec<SegmentPair>, QueryStats)> {
        self.sensors[self.pos(sensor)?].query(region, plan)
    }

    /// Queries every sensor in parallel (one worker per sensor); returns
    /// per-sensor results plus merged execution statistics (wall time =
    /// slowest sensor, the rest summed).
    pub fn query_all(
        &self,
        region: &QueryRegion,
        plan: QueryPlan,
    ) -> Result<(Vec<Vec<SegmentPair>>, QueryStats)> {
        self.query_all_with_threads(region, plan, self.sensors.len())
    }

    /// Like [`TransectIndex::query_all`], but on a pool of at most
    /// `threads` worker threads ([`fan_out`]). Results are identical for
    /// every thread count — per-sensor execution is independent and the
    /// merge preserves sensor order — which the integration tests assert.
    pub fn query_all_with_threads(
        &self,
        region: &QueryRegion,
        plan: QueryPlan,
        threads: usize,
    ) -> Result<(Vec<Vec<SegmentPair>>, QueryStats)> {
        let sensors: Vec<&SegDiffIndex> = self.sensors.iter().collect();
        fan_out(&sensors, threads, |s| s.query(region, plan))
    }

    /// Flushes every sensor's database (dirty pages + checkpoint).
    pub fn flush_all(&self) -> Result<()> {
        for s in &self.sensors {
            s.database().flush()?;
        }
        Ok(())
    }

    /// Per-sensor statistics.
    pub fn stats(&self) -> Vec<SegDiffStats> {
        self.sensors.iter().map(|s| s.stats()).collect()
    }

    /// Aggregate feature payload bytes across sensors.
    pub fn total_feature_bytes(&self) -> u64 {
        self.sensors
            .iter()
            .map(|s| s.stats().feature_payload_bytes)
            .sum()
    }
}

/// The one fan-out: runs `run` on each of `sensors` on a pool of at most
/// `threads` workers ([`crate::pool::run_on_pool`], which runs a single
/// task, or a pool of one, on the calling thread) and folds the
/// per-sensor statistics into one ([`QueryStats::absorb`]). Outputs keep
/// the order of `sensors` whatever the thread count. The sensors need
/// not share a [`TransectIndex`]: a server fans out over whatever it
/// serves.
pub fn fan_out<T: Send>(
    sensors: &[&SegDiffIndex],
    threads: usize,
    run: impl Fn(&SegDiffIndex) -> Result<(T, QueryStats)> + Sync,
) -> Result<(Vec<T>, QueryStats)> {
    let outcomes = crate::pool::run_on_pool(threads.max(1), sensors.len(), |i| run(sensors[i]));
    let mut results = Vec::with_capacity(outcomes.len());
    let mut merged = QueryStats::default();
    for outcome in outcomes {
        let (r, stats) = outcome?;
        merged.absorb(stats);
        results.push(r);
    }
    Ok((results, merged))
}

/// One sensor's answer, shared with the result cache that holds it.
pub type CachedAnswer = Arc<Vec<SegmentPair>>;

/// [`fan_out`] through the sensors' result caches
/// ([`SegDiffIndex::query_cached`], a sensor at a time): the hits are
/// collected on the calling thread — one hash lookup each — and only the
/// misses run, on the pool, filling their caches. Returns each sensor's
/// (shared) answer in the order of `sensors`, the merged statistics, and
/// whether every answer came from a cache.
pub fn fan_out_cached(
    sensors: &[&SegDiffIndex],
    region: &QueryRegion,
    plan: QueryPlan,
    threads: usize,
) -> Result<(Vec<CachedAnswer>, QueryStats, bool)> {
    let mut stats = QueryStats::default();
    let mut answers = Vec::with_capacity(sensors.len());
    let (mut missed, mut missed_at) = (Vec::new(), Vec::new());
    for &sensor in sensors {
        let (results, hit) = sensor.cached(region, plan).unwrap_or_else(|| {
            missed.push(sensor);
            missed_at.push(answers.len());
            Default::default()
        });
        stats.absorb(hit);
        answers.push(results);
    }
    if !missed.is_empty() {
        let (filled, ran) = fan_out(&missed, threads, |s| s.query_into_cache(region, plan))?;
        stats.absorb(ran);
        for (at, results) in missed_at.into_iter().zip(filled) {
            answers[at] = results;
        }
    }
    Ok((answers, stats, missed.is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorgen::{generate_sensor, CadTransectConfig, HOUR};
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("segdiff-trans-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn build(tag: &str, sensors: u32, days: u32) -> (TransectIndex, PathBuf) {
        let root = tmpdir(tag);
        let cfg = CadTransectConfig::default()
            .with_days(days)
            .with_sensors(sensors)
            .clean();
        let mut t = TransectIndex::create(&root, SegDiffConfig::default(), sensors).unwrap();
        for k in 0..sensors {
            let series = generate_sensor(&cfg, k, 7);
            t.ingest_series(k, &series).unwrap();
        }
        t.finish_all().unwrap();
        (t, root)
    }

    #[test]
    fn fan_out_query_matches_per_sensor() {
        let (t, root) = build("fanout", 4, 4);
        let region = QueryRegion::drop(1.0 * HOUR, -3.0);
        let (all, merged) = t.query_all(&region, QueryPlan::SeqScan).unwrap();
        assert_eq!(all.len(), 4);
        let mut total = 0u64;
        for (k, per) in all.iter().enumerate() {
            let (single, _) = t
                .query_sensor(k as u32, &region, QueryPlan::SeqScan)
                .unwrap();
            assert_eq!(per, &single, "sensor {k}");
            total += per.len() as u64;
        }
        assert_eq!(merged.results, total);
        std::fs::remove_dir_all(&root).ok();
    }

    /// Results are identical whatever the worker-pool size — the
    /// acceptance criterion for parallel fan-out.
    #[test]
    fn query_all_is_thread_count_invariant() {
        let (t, root) = build("threads", 5, 3);
        t.build_indexes_all().unwrap();
        let region = QueryRegion::drop(1.0 * HOUR, -3.0);
        for plan in [QueryPlan::SeqScan, QueryPlan::Index] {
            let (r1, s1) = t.query_all_with_threads(&region, plan, 1).unwrap();
            let (r8, s8) = t.query_all_with_threads(&region, plan, 8).unwrap();
            let (rd, _) = t.query_all(&region, plan).unwrap();
            assert_eq!(r1, r8, "{plan:?}: thread count changed results");
            assert_eq!(r1, rd, "{plan:?}: default fan-out disagrees");
            assert_eq!(s1.results, s8.results);
            assert_eq!(s1.rows_considered, s8.rows_considered);
        }
        std::fs::remove_dir_all(&root).ok();
    }

    /// What `index::tests::phase_io_deltas_tile_the_query` holds for one
    /// sensor holds for the merged stats of every fan-out: the phase I/O
    /// deltas sum to the query's total, component for component. The
    /// first search decodes every sensor's segments and so reads pages;
    /// the others find the runs held and read none.
    #[test]
    fn merged_phase_io_deltas_tile_the_fan_out() {
        let (t, root) = build("phases", 4, 3);
        t.build_indexes_all().unwrap();
        let region = QueryRegion::drop(1.0 * HOUR, -3.0);
        let mut first = true;
        for plan in [QueryPlan::SeqScan, QueryPlan::Index] {
            for threads in [1, 4] {
                let (_, all) = t.query_all_with_threads(&region, plan, threads).unwrap();
                let subset = [t.sensor(3).unwrap(), t.sensor(1).unwrap()];
                let (_, subset) = fan_out(&subset, threads, |s| s.query(&region, plan)).unwrap();
                for (what, stats) in [("all sensors", all), ("a subset", subset)] {
                    let context = format!("{plan:?}, {threads} threads, {what}");
                    let read = stats.io.hits + stats.io.misses > 0;
                    assert_eq!(read, first, "{context}: pages read");
                    first = false;
                    let mut summed = pagestore::PoolStats::default();
                    for p in &stats.phases {
                        summed = summed.merged(&p.io);
                    }
                    assert_eq!(summed, stats.io, "{context}: phases do not tile the query");
                    let refine = stats.phases.last().unwrap();
                    assert_eq!(refine.rows_out, stats.results, "{context}");
                }
            }
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn reopen_preserves_everything() {
        let region = QueryRegion::drop(1.0 * HOUR, -3.0);
        let (before, root) = {
            let (t, root) = build("reopen", 3, 4);
            let (results, _) = t.query_all(&region, QueryPlan::SeqScan).unwrap();
            (results, root)
        };
        let t = TransectIndex::open(&root, 256).unwrap();
        assert_eq!(t.num_sensors(), 3);
        let (after, _) = t.query_all(&region, QueryPlan::SeqScan).unwrap();
        assert_eq!(before, after);
        std::fs::remove_dir_all(&root).ok();
    }

    /// A shard opening only its share of a shared transect root answers
    /// exactly like the full open does for those sensors, and the
    /// sharded union over a disjoint partition reproduces the
    /// single-process flatten byte for byte.
    #[test]
    fn subset_union_matches_full_open() {
        let (full, root) = build("subset", 6, 3);
        full.build_indexes_all().unwrap();
        let region = QueryRegion::drop(1.0 * HOUR, -3.0);
        let (all, _) = full.query_all(&region, QueryPlan::SeqScan).unwrap();
        let flat: Vec<SegmentPair> = all.iter().flatten().copied().collect();
        // Interleaved partition, as a hash ring would produce.
        let shards: [&[u32]; 3] = [&[0, 3], &[1, 4], &[2, 5]];
        let mut parts = Vec::new();
        for ids in shards {
            let shard = TransectIndex::open_subset(&root, 256, ids).unwrap();
            assert_eq!(shard.sensor_ids(), ids);
            let (per, _) = shard.query_all(&region, QueryPlan::SeqScan).unwrap();
            parts.extend(shard.sensor_ids().iter().copied().zip(per));
        }
        let merged = crate::result::merge_sharded(parts);
        assert_eq!(merged, flat);
        assert!(!merged.is_empty(), "query must match something");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn subset_rejects_unknown_sensors() {
        let (t, root) = build("subset-miss", 2, 2);
        drop(t);
        assert!(TransectIndex::open_subset(&root, 256, &[0, 9]).is_err());
        let shard = TransectIndex::open_subset(&root, 256, &[1]).unwrap();
        assert!(shard
            .query_sensor(0, &QueryRegion::drop(HOUR, -3.0), QueryPlan::SeqScan,)
            .is_err());
        assert_eq!(TransectIndex::scan_ids(&root).unwrap(), vec![0, 1]);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn open_missing_root_errors() {
        let root = tmpdir("missing");
        assert!(TransectIndex::open(&root, 256).is_err());
    }

    #[test]
    fn stats_cover_all_sensors() {
        let (t, root) = build("stats", 3, 2);
        let stats = t.stats();
        assert_eq!(stats.len(), 3);
        assert!(stats.iter().all(|s| s.n_segments > 0));
        assert!(t.total_feature_bytes() > 0);
        std::fs::remove_dir_all(&root).ok();
    }
}
