//! The [`SegDiffIndex`]: online ingest plus search.

use crate::cache::{CacheKey, QueryCache};
use crate::config::SegDiffConfig;
use crate::ingest::{FeatureExtractor, FeatureRow};
use crate::query::{
    check_window, run_feature_query, run_segment_query, QueryPlan, QueryStats, ResidentRun,
    SegmentRun,
};
use crate::result::SegmentPair;
use crate::stats::{CornerHistogram, SegDiffStats};
use crate::tables::{
    encode_row, index_specs, stamp_cols, table_cols, table_name, DROP_TABLES, JUMP_TABLES,
    SEGMENTS_TABLE,
};
use featurespace::{QueryRegion, SearchKind};
use pagestore::{Database, OsVfs, RecoveryReport, Result, StoreError, Table, TableSpec, Vfs};
use segmentation::{PiecewiseLinear, Segment, SlidingWindowSegmenter};
use sensorgen::TimeSeries;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The SegDiff framework: segmentation → feature extraction → relational
/// storage → range-query search.
///
/// Built online: call [`SegDiffIndex::push`] per observation (or
/// [`SegDiffIndex::ingest_series`] for a whole series) and
/// [`SegDiffIndex::finish`] once at the end. Then search with
/// [`SegDiffIndex::query`], on either plan: a search generates its rows from
/// the stored segments and reads no feature table or tree.
/// [`SegDiffIndex::query_stored_rows`] runs the paper's two plans over the
/// stored feature rows instead; call [`SegDiffIndex::build_indexes`] first
/// for its [`QueryPlan::Index`].
pub struct SegDiffIndex {
    dir: PathBuf,
    config: SegDiffConfig,
    db: Arc<Database>,
    drop_tables: [Arc<Table>; 3],
    jump_tables: [Arc<Table>; 3],
    segments_table: Arc<Table>,
    /// The rows of `segments`, decoded by the first search and extended
    /// by the first after an append.
    resident: ResidentRun,
    segmenter: SlidingWindowSegmenter,
    extractor: FeatureExtractor,
    rows_buf: Vec<FeatureRow>,
    /// Per feature table (drop 1–3, jump 1–3), the segment's rows.
    colbufs: [Vec<f64>; 6],
    n_observations: u64,
    n_segments: u64,
    drop_hist: CornerHistogram,
    jump_hist: CornerHistogram,
    metrics: IngestMetrics,
    /// Bumped on every ingest mutation and on `build_indexes`; tags
    /// result-cache keys so stale entries can never be returned.
    epoch: AtomicU64,
    cache: QueryCache,
    /// Standing-query hook: committed features are pushed here, tagged
    /// with this index's sensor id.
    subs: Option<(Arc<crate::subscribe::SubscriptionRegistry>, u32)>,
}

/// Global-registry counters for the ingest pipeline (`ingest.*`),
/// shared by every index in the process.
struct IngestMetrics {
    observations: Arc<obs::Counter>,
    segments: Arc<obs::Counter>,
    feature_rows: Arc<obs::Counter>,
}

impl IngestMetrics {
    fn new() -> Self {
        let r = obs::global();
        IngestMetrics {
            observations: r.counter("ingest.observations"),
            segments: r.counter("ingest.segments"),
            feature_rows: r.counter("ingest.feature_rows"),
        }
    }
}

impl SegDiffIndex {
    /// Creates a new index stored under `dir`.
    ///
    /// With `config.durable` (the default) the storage engine write-ahead
    /// logs every page write; each stored segment then ends in a commit
    /// record, so a crash mid-ingest recovers to the last completed segment.
    pub fn create(dir: &Path, config: SegDiffConfig) -> Result<Self> {
        Self::create_in(Arc::new(OsVfs), dir, config)
    }

    /// [`SegDiffIndex::create`] in the file system `vfs`.
    pub fn create_in(vfs: Arc<dyn Vfs>, dir: &Path, config: SegDiffConfig) -> Result<Self> {
        let db = Database::create_in(vfs, dir, config.pool_pages, config.durability())?;
        for (name, corners) in DROP_TABLES
            .iter()
            .chain(&JUMP_TABLES)
            .zip([1, 2, 3, 1, 2, 3])
        {
            db.create_table(TableSpec::new(name, &table_cols(corners)))?;
        }
        let segment_cols = ["t_start", "v_start", "t_end", "v_end"];
        db.create_table(TableSpec::new(SEGMENTS_TABLE, &segment_cols))?;
        let hist = CornerHistogram::default();
        let idx = Self::assemble(dir, config, db, 0, hist, hist)?;
        // Make the empty index durable right away: a crash after `create`
        // must reopen cleanly, not leave half a catalog behind.
        idx.write_meta()?;
        if idx.db.wal().is_some() {
            idx.db.commit(idx.meta_text().as_bytes())?;
            idx.db.flush()?;
        }
        Ok(idx)
    }

    /// Reopens an index previously persisted with [`SegDiffIndex::finish`].
    ///
    /// Querying works immediately. Ingestion also resumes: the segmenter is
    /// re-anchored at the end point of the last stored segment and the
    /// extractor window is re-primed from the stored segments, so pushing
    /// further observations continues the online pipeline. (The restart can
    /// split what would have been one trailing segment into two — harmless
    /// for the guarantees, which only require the `ε/2` bound.)
    ///
    /// If the storage engine detected an unclean shutdown, its WAL recovery
    /// has already rolled the tables back to the last commit point; the
    /// metadata snapshot carried by the log's last commit record then
    /// overrides `segdiff.meta` (which may be from a different instant) and
    /// is written back to disk, so the whole index — tables, B+trees,
    /// metadata — is one consistent prefix of the ingest history.
    pub fn open(dir: &Path, pool_pages: usize) -> Result<Self> {
        Self::open_in(Arc::new(OsVfs), dir, pool_pages)
    }

    /// [`SegDiffIndex::open`] in the file system `vfs`.
    pub fn open_in(vfs: Arc<dyn Vfs>, dir: &Path, pool_pages: usize) -> Result<Self> {
        let db = Database::open_in(vfs, dir, pool_pages, Default::default())?;
        // The blob of the commit the log restored describes the tables as
        // they are; `segdiff.meta` can be older (written at `finish`) or
        // newer (written before a commit the crash took), and is rewritten
        // when it differs.
        let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
        let blob = db.recovery_report().map(|r| text(&r.committed.blob));
        let blob = blob.filter(|blob| !blob.is_empty());
        let disk = db.vfs().read(&Self::meta_path(dir)).ok().map(|b| text(&b));
        let rewrite_meta = blob.is_some() && blob != disk;
        let Some(meta) = blob.or(disk) else {
            return Err(StoreError::NotFound(format!(
                "segdiff meta in {}",
                dir.display()
            )));
        };
        let mut epsilon = None;
        let mut window = None;
        let mut n_observations = 0u64;
        let mut drop_hist = CornerHistogram::default();
        let mut jump_hist = CornerHistogram::default();
        for line in meta.lines() {
            let parts: Vec<&str> = line.split_whitespace().collect();
            match parts.as_slice() {
                ["epsilon", v] => epsilon = v.parse().ok(),
                ["window", v] => window = v.parse().ok(),
                ["n_observations", v] => n_observations = v.parse().unwrap_or(0),
                ["drop_hist", a, b, c] => {
                    drop_hist.counts = [a, b, c].map(|n| n.parse().unwrap_or(0))
                }
                ["jump_hist", a, b, c] => {
                    jump_hist.counts = [a, b, c].map(|n| n.parse().unwrap_or(0))
                }
                _ => {}
            }
        }
        let (Some(epsilon), Some(window)) = (epsilon, window) else {
            return Err(StoreError::Corrupt(
                "segdiff meta is missing epsilon/window".into(),
            ));
        };
        let config = SegDiffConfig::default()
            .with_epsilon(epsilon)
            .with_window(window)
            .with_pool_pages(pool_pages)
            .with_durable(db.wal().is_some());
        let mut idx = Self::assemble(dir, config, db, n_observations, drop_hist, jump_hist)?;
        if rewrite_meta {
            idx.write_meta()?;
        }
        // A compaction seals `segments` before it cuts the feature tables:
        // a crash between the two leaves rows both stored and generated
        // (every search `sort_dedup`s them), and so does a store an earlier
        // release compacted, whose sealed feature pages held them. Either
        // way the cut is finished here, as the compaction would have.
        idx.cut_sealed_run()?;
        // Re-prime the extractor window and re-anchor the segmenter.
        let segments = idx.segments()?;
        idx.n_segments = segments.len() as u64;
        if let Some(last) = segments.last() {
            let win_start = last.t_end - window;
            for seg in segments.iter().filter(|s| s.t_end > win_start) {
                idx.extractor.prime_segment(*seg);
            }
            idx.segmenter.push(last.t_end, last.v_end);
        }
        Ok(idx)
    }

    /// The index over `db`'s tables, `n_observations` and the corner
    /// histograms as its metadata last recorded them.
    fn assemble(
        dir: &Path,
        config: SegDiffConfig,
        db: Arc<Database>,
        n_observations: u64,
        drop_hist: CornerHistogram,
        jump_hist: CornerHistogram,
    ) -> Result<Self> {
        let tables = |names: [&str; 3]| -> Result<[Arc<Table>; 3]> {
            let [a, b, c] = names.map(|name| db.table(name));
            Ok([a?, b?, c?])
        };
        Ok(Self {
            dir: dir.to_path_buf(),
            segmenter: SlidingWindowSegmenter::new(config.epsilon),
            extractor: FeatureExtractor::new(config.epsilon, config.window),
            drop_tables: tables(DROP_TABLES)?,
            jump_tables: tables(JUMP_TABLES)?,
            segments_table: db.table(SEGMENTS_TABLE)?,
            resident: ResidentRun::default(),
            // The results of the 256 most recent searches.
            cache: QueryCache::new(256),
            config,
            db,
            rows_buf: Vec::new(),
            colbufs: Default::default(),
            n_observations,
            n_segments: 0,
            drop_hist,
            jump_hist,
            metrics: IngestMetrics::new(),
            epoch: AtomicU64::new(0),
            subs: None,
        })
    }

    fn meta_path(dir: &Path) -> PathBuf {
        dir.join("segdiff.meta")
    }

    /// The metadata snapshot as text — the `segdiff.meta` file body, and
    /// also the application blob carried by every WAL commit record.
    fn meta_text(&self) -> String {
        let h = &self.drop_hist.counts;
        let j = &self.jump_hist.counts;
        format!(
            "epsilon {}
window {}
n_observations {}
drop_hist {} {} {}
jump_hist {} {} {}
",
            self.config.epsilon,
            self.config.window,
            self.n_observations,
            h[0],
            h[1],
            h[2],
            j[0],
            j[1],
            j[2],
        )
    }

    fn write_meta(&self) -> Result<()> {
        // Atomic replace: a crash mid-write must never leave a truncated
        // meta file next to good tables.
        pagestore::write_atomic(
            &**self.db.vfs(),
            &Self::meta_path(&self.dir),
            self.meta_text().as_bytes(),
            self.db.durability().sync,
        )
    }

    /// The configuration this index was built with.
    pub fn config(&self) -> &SegDiffConfig {
        &self.config
    }

    /// The underlying database (for experiment instrumentation).
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Attaches a standing-query registry: from now on every committed
    /// segment's feature rows are evaluated against the registered
    /// regions (tagged with `sensor`) and matches are published right
    /// after the segment's WAL commit. That commit writes the log only on
    /// every `group_commit`-th call, so a published notification may
    /// precede the durability of its row by up to one group-commit window
    /// — the rows a crash can already un-commit.
    pub fn attach_subscriptions(
        &mut self,
        registry: Arc<crate::subscribe::SubscriptionRegistry>,
        sensor: u32,
    ) {
        self.subs = Some((registry, sensor));
    }

    /// Ingests one observation (online path: segmentation and feature
    /// extraction happen incrementally).
    pub fn push(&mut self, t: f64, v: f64) -> Result<()> {
        self.n_observations += 1;
        self.metrics.observations.inc();
        if let Some(seg) = self.segmenter.push(t, v) {
            self.store_segment(seg)?;
        }
        Ok(())
    }

    /// Ingests a whole series through the online path.
    pub fn ingest_series(&mut self, series: &TimeSeries) -> Result<()> {
        let span = obs::span("ingest.series");
        for (t, v) in series.iter() {
            self.push(t, v)?;
        }
        span.record("observations", series.len());
        obs::info!(
            "ingested {} observations into {}",
            series.len(),
            self.dir.display()
        );
        Ok(())
    }

    /// Ingests a pre-computed piecewise-linear approximation (offline
    /// segmenters / ablation studies). `n_observations` is the number of
    /// raw observations the approximation represents, used for the
    /// compression-rate statistic.
    pub fn ingest_pla(&mut self, pla: &PiecewiseLinear, n_observations: u64) -> Result<()> {
        self.n_observations += n_observations;
        for &seg in pla.segments() {
            self.store_segment(seg)?;
        }
        Ok(())
    }

    /// Flushes the trailing open segment and persists everything, including
    /// the metadata needed by [`SegDiffIndex::open`].
    pub fn finish(&mut self) -> Result<()> {
        let _span = obs::span("ingest.finish");
        if let Some(seg) = self.segmenter.finish() {
            self.store_segment(seg)?;
        }
        // Commit once more so the checkpoint written by `flush` carries the
        // final observation count, then persist the meta file.
        if self.db.wal().is_some() {
            self.db.commit(self.meta_text().as_bytes())?;
        }
        self.write_meta()?;
        self.db.flush()
    }

    fn store_segment(&mut self, seg: Segment) -> Result<()> {
        self.bump_epoch();
        self.n_segments += 1;
        self.metrics.segments.inc();
        self.segments_table
            .insert(&[seg.t_start, seg.v_start, seg.t_end, seg.v_end])?;
        self.rows_buf.clear();
        let mut rows = std::mem::take(&mut self.rows_buf);
        self.extractor.push_segment(seg, &mut rows);
        self.metrics.feature_rows.add(rows.len() as u64);
        // One batch per table. Each table still receives its rows in
        // emission order, so its heap and B+trees are what row-at-a-time
        // insertion builds.
        for row in &rows {
            let corners = row.boundary.len();
            let slot = match row.kind {
                SearchKind::Drop => {
                    self.drop_hist.record(corners);
                    corners - 1
                }
                SearchKind::Jump => {
                    self.jump_hist.record(corners);
                    corners + 2
                }
            };
            encode_row(row, &mut self.colbufs[slot]);
        }
        let tables = self.drop_tables.iter().chain(&self.jump_tables);
        for (table, buf) in tables.zip(&mut self.colbufs).filter(|(_, b)| !b.is_empty()) {
            let inserted = table.insert_many(buf);
            buf.clear();
            inserted?;
        }
        self.rows_buf = rows;
        // Segment boundaries are the commit points: recovery always lands
        // on a state where segment, feature, and meta data agree.
        if self.db.wal().is_some() {
            self.db.commit(self.meta_text().as_bytes())?;
        }
        // Standing queries see the rows only after the commit point. The
        // log is written only every `group_commit`-th commit, so a
        // notification may describe a row a crash still loses, by at most
        // one group-commit window.
        if let Some((subs, sensor)) = &self.subs {
            if !self.rows_buf.is_empty() {
                subs.on_features(*sensor, &self.rows_buf, obs::unix_ms());
                subs.flush();
            }
        }
        Ok(())
    }

    /// Builds the point- and line-query B+trees [`QueryPlan::Index`]
    /// probes (`pt1` on the one-corner tables, one `ln{j}` per edge on
    /// the others: eight a sensor). Idempotent: B+trees that already
    /// exist are kept (they are maintained incrementally on insert), so
    /// this is safe to call after every ingest.
    pub fn build_indexes(&self) -> Result<()> {
        let _span = obs::span("ingest.build_indexes");
        let mut built = 0u32;
        for kind in [SearchKind::Drop, SearchKind::Jump] {
            for corners in 1..=3 {
                let tname = table_name(kind, corners);
                let table = self.db.table(tname)?;
                for &(iname, cols) in index_specs(corners) {
                    if table.index(iname).is_err() {
                        self.db.create_index(tname, iname, cols)?;
                        built += 1;
                    }
                }
            }
        }
        obs::info!("built {built} query B+trees in {}", self.dir.display());
        self.bump_epoch();
        self.db.flush()
    }

    /// The current cache epoch. Every ingest mutation and every
    /// [`SegDiffIndex::build_indexes`] call advances it, which atomically
    /// invalidates all previously cached query results (the epoch is part
    /// of every cache key).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
        // Stale entries can never hit (their epoch differs); clearing just
        // releases their memory promptly.
        self.cache.clear();
    }

    /// The epoch-tagged result cache (for observability and tests).
    pub fn result_cache(&self) -> &QueryCache {
        &self.cache
    }

    /// Like [`SegDiffIndex::query`], but consults the epoch-tagged result
    /// cache first. Returns the (shared) result set, the execution stats,
    /// and whether the answer came from the cache. A hit costs one hash
    /// lookup — no B+tree or heap access at all — and reports zero I/O.
    pub fn query_cached(
        &self,
        region: &QueryRegion,
        plan: QueryPlan,
    ) -> Result<(Arc<Vec<SegmentPair>>, QueryStats, bool)> {
        match self.cached(region, plan) {
            Some((results, stats)) => Ok((results, stats, true)),
            None => self
                .query_into_cache(region, plan)
                .map(|(results, stats)| (results, stats, false)),
        }
    }

    /// The hit half of [`SegDiffIndex::query_cached`]: the answer the
    /// result cache holds for this query at the current epoch, if any.
    /// Apart, so that a fan-out over several sensors can look all of them
    /// up on its own thread and send only the misses to the worker pool
    /// ([`crate::transect::fan_out_cached`]).
    pub(crate) fn cached(
        &self,
        region: &QueryRegion,
        plan: QueryPlan,
    ) -> Option<(Arc<Vec<SegmentPair>>, QueryStats)> {
        let start = Instant::now();
        let results = self.cache.get(&CacheKey::new(region, plan, self.epoch()))?;
        let stats = QueryStats {
            wall_seconds: start.elapsed().as_secs_f64(),
            results: results.len() as u64,
            ..QueryStats::default()
        };
        Some((results, stats))
    }

    /// The miss half of [`SegDiffIndex::query_cached`]: runs the query
    /// and caches its answer under the epoch it started at.
    pub(crate) fn query_into_cache(
        &self,
        region: &QueryRegion,
        plan: QueryPlan,
    ) -> Result<(Arc<Vec<SegmentPair>>, QueryStats)> {
        let key = CacheKey::new(region, plan, self.epoch());
        let (results, stats) = self.query(region, plan)?;
        let results = Arc::new(results);
        self.cache.insert(key, Arc::clone(&results));
        Ok((results, stats))
    }

    /// Runs a drop or jump search; returns the matching segment pairs
    /// (time-ordered, deduplicated) and execution metrics.
    ///
    /// Both plans generate every feature row from the stored segments, a
    /// run of them held decoded between searches and extended by the rows
    /// appended since ([`crate::GeneratorStats::rows_decoded`]): no feature
    /// page and no B+tree is read, and the answer is the one
    /// [`SegDiffIndex::query_stored_rows`] reads off the stored rows.
    ///
    /// A search for pairs further apart than the configured window `w`
    /// has no answer here — their features were never extracted — and is
    /// a [`StoreError::InvalidArgument`] naming the window.
    pub fn query(
        &self,
        region: &QueryRegion,
        plan: QueryPlan,
    ) -> Result<(Vec<SegmentPair>, QueryStats)> {
        self.timed_query(region, plan, |stats| {
            run_segment_query(&self.db, self.segment_run(), region, plan, stats)
        })
    }

    /// [`SegDiffIndex::query`] the paper's way (§4.4), over the stored
    /// feature rows: a sequential scan of the feature tables
    /// ([`QueryPlan::SeqScan`]) or probes of their B+trees and a fetch of
    /// the rows matched ([`QueryPlan::Index`]; needs
    /// [`SegDiffIndex::build_indexes`]), with the sealed run's rows, which
    /// are not stored, generated. For the experiments that measure those
    /// plans, and as the reference a search is tested against; no serving
    /// path calls it.
    pub fn query_stored_rows(
        &self,
        region: &QueryRegion,
        plan: QueryPlan,
    ) -> Result<(Vec<SegmentPair>, QueryStats)> {
        let tables = match region.kind {
            SearchKind::Drop => &self.drop_tables,
            SearchKind::Jump => &self.jump_tables,
        };
        self.timed_query(region, plan, |stats| {
            run_feature_query(&self.db, tables, self.segment_run(), region, plan, stats)
        })
    }

    fn segment_run(&self) -> SegmentRun<'_> {
        SegmentRun {
            segments: &self.segments_table,
            resident: &self.resident,
            epsilon: self.config.epsilon,
            window: self.config.window,
        }
    }

    /// Checks `region` against the window and runs `execute` under the
    /// `query` span, filling in the stats' wall time, results and I/O.
    fn timed_query(
        &self,
        region: &QueryRegion,
        plan: QueryPlan,
        execute: impl FnOnce(&mut QueryStats) -> Result<Vec<SegmentPair>>,
    ) -> Result<(Vec<SegmentPair>, QueryStats)> {
        check_window(region, self.config.window)?;
        let span = obs::span("query");
        let io_before = self.db.stats();
        let start = Instant::now();
        let mut stats = QueryStats::default();
        let results = execute(&mut stats)?;
        stats.wall_seconds = start.elapsed().as_secs_f64();
        stats.results = results.len() as u64;
        stats.io = self.db.stats().since(&io_before);
        span.record("plan", plan.name());
        span.record("kind", region.kind.name());
        span.record("rows_considered", stats.rows_considered);
        span.record("results", stats.results);
        obs::debug!(
            "query kind={} plan={} T={} V={}: {} results, {} rows considered",
            region.kind.name(),
            plan.name(),
            region.t,
            region.v,
            stats.results,
            stats.rows_considered
        );
        Ok((results, stats))
    }

    /// Drops the buffer pool so the next query runs cold (the paper's
    /// "cache flushed before every query" mode).
    pub fn clear_cache(&self) -> Result<()> {
        self.db.clear_cache()
    }

    /// Compacts the store into its view form: seals `segments` into
    /// compressed columnar pages ([`pagestore::Database::seal_table`]:
    /// bit-exact and in temporal order, which [`SegDiffIndex::segments`]
    /// and the resume path read it in), then cuts every feature table back
    /// to the rows whose later segment lies behind the sealed run
    /// ([`pagestore::Database::cut_table`]) — after a full compaction,
    /// none. The rows cut are a function of the sealed segments, which
    /// both plans generate them from at query time through the function
    /// ingest stores rows with, so query results before and after are
    /// identical (every result is `sort_dedup`ed).
    ///
    /// The order of the two steps is what keeps a crash harmless: between
    /// them rows are both stored and generated, and [`SegDiffIndex::open`]
    /// finishes the cut. A table cut to no row owns no page, and neither
    /// does a tree with no entry: after a full compaction the six feature
    /// heaps and eight trees are files of length 0, still in the
    /// catalogue, and the trees index the rows ingested afterwards, which
    /// append to the emptied tables in arrival order — so
    /// [`SegDiffIndex::build_indexes`] after this call still finds nothing
    /// to build, and the next call seals their segments and cuts them too.
    /// With nothing ingested since, it writes nothing.
    ///
    /// Returns one `(table name, compression accounting)` entry per
    /// table, in `drop1..3, jump1..3, segments` order.
    pub fn compact_storage(&self) -> Result<Vec<(String, pagestore::CompressionStats)>> {
        let _span = obs::span("ingest.compact");
        self.db.seal_table(SEGMENTS_TABLE)?;
        self.cut_sealed_run()?;
        // Row ids changed wholesale; cached results keyed on the old
        // epoch must never resurface.
        self.bump_epoch();
        let tables = self.drop_tables.iter().chain(&self.jump_tables);
        tables
            .chain([&self.segments_table])
            .map(|t| Ok((t.name().to_string(), t.compression_stats()?)))
            .collect()
    }

    /// The start of the last sealed segment, if any is sealed: a stored
    /// feature row belongs to the sealed run when its `t_b` is at or
    /// before it.
    fn sealed_through(&self) -> Result<Option<f64>> {
        let sealed = self.segments_table.sealed_rows();
        let mut t_start = vec![Vec::new()];
        self.segments_table.scan_pages(
            sealed.saturating_sub(1)..sealed,
            |_, _| true,
            |page| page.columns(0..1, &mut t_start).map(|()| false),
        )?;
        Ok(t_start[0].first().copied())
    }

    /// The feature tables, each with the column of its rows' `t_b`.
    fn feature_tables(&self) -> impl Iterator<Item = (&Arc<Table>, usize)> {
        let tables = self.drop_tables.iter().chain(&self.jump_tables);
        tables.zip([1, 2, 3, 1, 2, 3].map(|corners| stamp_cols(corners).start + 2))
    }

    /// Cuts every feature table that stores a row of the sealed run back
    /// to the rows behind it. A table's unsealed rows are in arrival
    /// order, `t_b` ascending, so it needs a cut only when it holds sealed
    /// rows (an earlier release's) or its first row's `t_b` is sealed.
    fn cut_sealed_run(&self) -> Result<()> {
        let Some(through) = self.sealed_through()? else {
            return Ok(());
        };
        let mut first_tb = vec![Vec::new()];
        for (t, tb) in self.feature_tables() {
            first_tb[0].clear();
            t.scan_pages(
                t.sealed_rows()..,
                |_, _| true,
                |page| page.columns(tb..tb + 1, &mut first_tb).map(|()| false),
            )?;
            let stored = first_tb[0].first().is_some_and(|&t_b| t_b <= through);
            if t.sealed_rows() > 0 || stored {
                self.db.cut_table(t.name(), |row| row[tb] > through)?;
            }
        }
        Ok(())
    }

    /// Size and distribution statistics.
    pub fn stats(&self) -> SegDiffStats {
        let mut n_rows = 0u64;
        let mut payload = 0u64;
        let mut heap = 0u64;
        let mut index = 0u64;
        for t in self.drop_tables.iter().chain(self.jump_tables.iter()) {
            n_rows += t.num_rows();
            payload += t.payload_bytes();
            heap += t.heap_bytes();
            index += t.index_bytes();
        }
        // Paper accounting: c2 = 5/6/7 columns per 1/2/3-corner row.
        let hist = self.drop_hist.merged(&self.jump_hist);
        let paper_bytes = 8 * (5 * hist.counts[0] + 6 * hist.counts[1] + 7 * hist.counts[2]);
        SegDiffStats {
            n_observations: self.n_observations,
            n_segments: self.n_segments,
            sealed_segments: self.segments_table.sealed_rows(),
            n_rows,
            feature_payload_bytes: payload,
            paper_feature_bytes: paper_bytes,
            heap_bytes: heap,
            index_bytes: index,
            drop_hist: self.drop_hist,
            jump_hist: self.jump_hist,
        }
    }

    /// What WAL recovery did when this index was opened, if the storage
    /// engine detected an unclean shutdown (`None` for a fresh index or a
    /// non-durable one).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.db.recovery_report()
    }

    /// LSN of the last WAL checkpoint, if write-ahead logging is on.
    pub fn last_checkpoint_lsn(&self) -> Option<u64> {
        self.db.wal().map(|w| w.last_checkpoint_lsn())
    }

    /// Verifies that the on-disk index is internally consistent — the
    /// invariant WAL recovery promises to restore.
    ///
    /// Three checks, all exact:
    ///
    /// 1. The stored segments form an unbroken chain (consecutive segments
    ///    share their boundary point — the segmenter guarantees this, and
    ///    recovery truncates whole segments, never splits one).
    /// 2. No feature table stores a row of the sealed run: every stored
    ///    row's `t_b` lies behind the last sealed segment's start
    ///    ([`SegDiffIndex::compact_storage`]).
    /// 3. Replaying feature extraction over the stored segments reproduces
    ///    the rows whose later segment is not sealed as every feature
    ///    table's rows, bit for bit, as multisets. Extraction is
    ///    deterministic, so any divergence means the tables and the
    ///    segment log are from different instants.
    ///
    /// Returns [`StoreError::Corrupt`] describing the first violation.
    pub fn verify_consistency(&self) -> Result<()> {
        let segments = self.segments()?;
        for w in segments.windows(2) {
            if w[1].t_start != w[0].t_end || w[1].v_start != w[0].v_end {
                return Err(StoreError::Corrupt(format!(
                    "segment chain broken at t={}: segment ends ({}, {}) but next starts ({}, {})",
                    w[0].t_end, w[0].t_end, w[0].v_end, w[1].t_start, w[1].v_start
                )));
            }
        }
        let sealed = self.segments_table.sealed_rows() as usize;
        let mut replay = FeatureExtractor::new(self.config.epsilon, self.config.window);
        let mut expected: Vec<Vec<f64>> = vec![Vec::new(); 6];
        let mut rows = Vec::new();
        for seg in &segments[..sealed] {
            replay.prime_segment(*seg);
        }
        for seg in &segments[sealed..] {
            rows.clear();
            replay.push_segment(*seg, &mut rows);
            for row in &rows {
                let corners = row.boundary.len();
                let slot = match row.kind {
                    SearchKind::Drop => corners - 1,
                    SearchKind::Jump => 3 + corners - 1,
                };
                encode_row(row, &mut expected[slot]);
            }
        }
        let through = self.sealed_through()?.unwrap_or(f64::NEG_INFINITY);
        for ((table, tb), want) in self.feature_tables().zip(&expected) {
            let ncols = table.columns().len();
            let mut stored: Vec<f64> = Vec::with_capacity(want.len());
            table.seq_scan(|_, row| {
                stored.extend_from_slice(row);
                true
            })?;
            if let Some(row) = stored.chunks_exact(ncols).find(|row| row[tb] <= through) {
                return Err(StoreError::Corrupt(format!(
                    "feature table {} stores {row:?}, a row of the sealed run (segments \
                     sealed through t_b = {through})",
                    table.name()
                )));
            }
            same_rows(table.name(), ncols, &stored, want)?;
        }
        Ok(())
    }

    /// The stored segments, in temporal order (used by examples to overlay
    /// results on the approximation): the resident run every search reads,
    /// so a row that is no segment, or that starts before the one before
    /// it ends, is [`StoreError::Corrupt`] here too.
    pub fn segments(&self) -> Result<Vec<Segment>> {
        self.segments_in(0..u64::MAX)
    }

    /// The stored segments of the rows `rows` (clamped to the rows
    /// stored), copied from the resident run as [`SegDiffIndex::segments`]
    /// copies them: what a replica is shipped.
    pub fn segments_in(&self, rows: Range<u64>) -> Result<Vec<Segment>> {
        let stored = self.segments_table.num_rows();
        let (run, _) = self.resident.get(&self.segments_table, stored)?;
        let end = rows.end.min(stored) as usize;
        let start = (rows.start as usize).min(end);
        Ok(run[start..end].iter().map(|held| held.seg).collect())
    }
}

/// Whether the row-major rows `stored` of the feature table `table` are
/// the rows `want`, bit for bit, as multisets; a [`StoreError::Corrupt`]
/// naming the table and the first row that differs when not.
fn same_rows(table: &str, ncols: usize, stored: &[f64], want: &[f64]) -> Result<()> {
    /// The rows of a row-major vector of bit patterns, sorted.
    fn in_bit_order(flat: &[u64], ncols: usize) -> Vec<&[u64]> {
        let mut rows: Vec<&[u64]> = flat.chunks_exact(ncols).collect();
        rows.sort_unstable();
        rows
    }
    let bits = |flat: &[f64]| flat.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    let (stored, want) = (bits(stored), bits(want));
    let (stored, want) = (in_bit_order(&stored, ncols), in_bit_order(&want, ncols));
    if stored == want {
        return Ok(());
    }
    let at = stored.iter().zip(&want).take_while(|(s, w)| s == w).count();
    let floats = |row: Option<&&[u64]>| match row {
        Some(r) => format!(
            "{:?}",
            r.iter().map(|&b| f64::from_bits(b)).collect::<Vec<_>>()
        ),
        None => "no row".to_string(),
    };
    Err(StoreError::Corrupt(format!(
        "feature table {table} disagrees with segment replay ({} rows stored, {} expected): \
         of the rows in bit order, number {at} is {} stored and {} expected",
        stored.len(),
        want.len(),
        floats(stored.get(at)),
        floats(want.get(at)),
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorgen::HOUR;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("segdiff-idx-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    /// A small series with one unmistakable 4-degree drop in 30 minutes.
    fn drop_series() -> TimeSeries {
        let mut s = TimeSeries::new();
        let mut v = 10.0;
        for i in 0..200 {
            let t = i as f64 * 300.0;
            if (80..86).contains(&i) {
                v -= 4.0 / 6.0;
            } else if (100..140).contains(&i) {
                v += 0.05;
            }
            s.push(t, v);
        }
        s
    }

    #[test]
    fn finds_planted_drop() {
        let dir = tmpdir("drop");
        let mut idx = SegDiffIndex::create(&dir, SegDiffConfig::default()).unwrap();
        idx.ingest_series(&drop_series()).unwrap();
        idx.finish().unwrap();
        let region = QueryRegion::drop(1.0 * HOUR, -3.0);
        let (results, stats) = idx.query(&region, QueryPlan::SeqScan).unwrap();
        assert!(!results.is_empty(), "the planted drop must be found");
        assert_eq!(stats.results as usize, results.len());
        // The drop spans samples 80..86, i.e. t in [24000, 25800]; at least
        // one result must cover a pair of instants in that window.
        assert!(
            results.iter().any(|p| p.covers(24_000.0, 25_800.0)),
            "no result covers the planted drop: {results:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_plan_matches_scan_plan() {
        let dir = tmpdir("plans");
        let mut idx = SegDiffIndex::create(&dir, SegDiffConfig::default()).unwrap();
        idx.ingest_series(&drop_series()).unwrap();
        idx.finish().unwrap();
        idx.build_indexes().unwrap();
        // The stored rows through both plans, and a search on each.
        let answers = |region: &QueryRegion| {
            let plans = [QueryPlan::SeqScan, QueryPlan::Index];
            let stored = plans.map(|plan| idx.query_stored_rows(region, plan).unwrap().0);
            let generated = plans.map(|plan| idx.query(region, plan).unwrap().0);
            (stored, generated)
        };
        for (t, v) in [(HOUR, -3.0), (2.0 * HOUR, -1.0), (0.5 * HOUR, -2.0)] {
            let ([scan, indexed], generated) = answers(&QueryRegion::drop(t, v));
            assert_eq!(scan, indexed, "plans disagree for T={t} V={v}");
            assert!(
                generated.iter().all(|g| *g == scan),
                "a search for T={t} V={v}"
            );
        }
        for (t, v) in [(HOUR, 1.0), (4.0 * HOUR, 2.0)] {
            let ([scan, indexed], generated) = answers(&QueryRegion::jump(t, v));
            assert_eq!(scan, indexed, "jump plans disagree for T={t} V={v}");
            assert!(
                generated.iter().all(|g| *g == scan),
                "a jump search, T={t} V={v}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_storage_preserves_results_on_both_plans() {
        let dir = tmpdir("compact");
        let mut idx = SegDiffIndex::create(&dir, SegDiffConfig::default()).unwrap();
        idx.ingest_series(&drop_series()).unwrap();
        idx.finish().unwrap();
        idx.build_indexes().unwrap();
        let region = QueryRegion::drop(1.0 * HOUR, -3.0);
        let (before_scan, _) = idx.query(&region, QueryPlan::SeqScan).unwrap();
        assert!(!before_scan.is_empty());
        let report = idx.compact_storage().unwrap();
        assert_eq!(report.len(), 7, "six feature tables plus segments");
        for (name, stats) in &report {
            let t = idx.db.table(name).unwrap();
            assert_eq!(t.sealed_rows(), t.num_rows(), "{name}");
            // Tiny tables can regress (per-page directory overhead beats
            // the savings on a handful of rows); demand gains only where
            // there is data to compress.
            if t.num_rows() > 256 {
                assert!(stats.ratio() > 1.0, "{name}: ratio {}", stats.ratio());
            }
        }
        // Bit-identical results on both plans, and the replay check
        // still holds over the rewritten heaps. Every row is sealed: the
        // six feature heaps and eight trees own no page, and the index
        // plan examines what the scan examines.
        let (scan, scan_stats) = idx.query(&region, QueryPlan::SeqScan).unwrap();
        let (indexed, index_stats) = idx.query(&region, QueryPlan::Index).unwrap();
        assert_eq!(before_scan, scan, "compaction changed scan results");
        assert_eq!(before_scan, indexed, "compaction changed index results");
        assert_eq!(index_stats.rows_considered, scan_stats.rows_considered);
        assert_eq!((idx.stats().heap_bytes, idx.stats().index_bytes), (0, 0));
        idx.verify_consistency().unwrap();
        // A second call is a no-op, and so is building the trees again:
        // the catalogue still lists them. (Ingest behind the sealed rows,
        // and the compaction after it: `tests/compact_twice.rs`.)
        let sizes = |dir: &std::path::Path| {
            let mut sizes: Vec<_> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap())
                .map(|e| (e.file_name(), e.metadata().unwrap().len()))
                .collect();
            sizes.sort();
            sizes
        };
        let compacted = sizes(&dir);
        idx.compact_storage().unwrap();
        idx.build_indexes().unwrap();
        assert_eq!(sizes(&dir), compacted, "a file changed size");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn jump_search_finds_rise() {
        let dir = tmpdir("jump");
        let mut idx = SegDiffIndex::create(&dir, SegDiffConfig::default()).unwrap();
        idx.ingest_series(&drop_series()).unwrap();
        idx.finish().unwrap();
        // The slow rise adds 0.05 per 5 min = 2 degrees in 200 min: a jump
        // of 1.5 within 3 h exists, a jump of 10 does not.
        let (some, _) = idx
            .query(&QueryRegion::jump(3.0 * HOUR, 1.5), QueryPlan::SeqScan)
            .unwrap();
        assert!(!some.is_empty());
        let (none, _) = idx
            .query(&QueryRegion::jump(3.0 * HOUR, 10.0), QueryPlan::SeqScan)
            .unwrap();
        assert!(none.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_are_consistent() {
        let dir = tmpdir("stats");
        let mut idx = SegDiffIndex::create(&dir, SegDiffConfig::default()).unwrap();
        idx.ingest_series(&drop_series()).unwrap();
        idx.finish().unwrap();
        let s = idx.stats();
        assert_eq!(s.n_observations, 200);
        assert!(s.n_segments > 0);
        assert!(s.compression_rate() > 1.0);
        assert_eq!(s.n_rows, s.corner_hist().total());
        assert_eq!(
            s.feature_payload_bytes,
            // our layout: (2k + 4) cols per k-corner row
            8 * (6 * s.corner_hist().counts[0]
                + 8 * s.corner_hist().counts[1]
                + 10 * s.corner_hist().counts[2])
        );
        assert!(s.paper_feature_bytes < s.feature_payload_bytes);
        assert_eq!(idx.segments().unwrap().len() as u64, s.n_segments);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn phase_io_deltas_tile_the_query() {
        let dir = tmpdir("phases");
        let mut idx = SegDiffIndex::create(&dir, SegDiffConfig::default()).unwrap();
        idx.ingest_series(&drop_series()).unwrap();
        idx.finish().unwrap();
        idx.build_indexes().unwrap();
        let region = QueryRegion::drop(1.0 * HOUR, -3.0);
        // Over the stored rows, and generated.
        let plans = [QueryPlan::SeqScan, QueryPlan::Index];
        for (stored, plan) in [true, false]
            .into_iter()
            .flat_map(|s| plans.map(|p| (s, p)))
        {
            idx.clear_cache().unwrap();
            let (_, stats) = match stored {
                true => idx.query_stored_rows(&region, plan).unwrap(),
                false => idx.query(&region, plan).unwrap(),
            };
            assert!(!stats.phases.is_empty(), "{plan:?} produced no phases");
            let expected_names: &[&str] = match plan {
                QueryPlan::SeqScan => &["plan", "scan", "refine"],
                QueryPlan::Index => &["plan", "probe", "fetch", "refine"],
            };
            let names: Vec<&str> = stats.phases.iter().map(|p| p.name).collect();
            assert_eq!(names, expected_names, "{plan:?}");
            // The acceptance criterion: phase I/O deltas sum to the
            // query's total pool delta, component for component.
            let mut summed = pagestore::PoolStats::default();
            for p in &stats.phases {
                summed = summed.merged(&p.io);
            }
            assert_eq!(summed, stats.io, "{plan:?} phases do not tile the query");
            // Rows flow through the phases consistently.
            let scan = &stats.phases[1];
            assert_eq!(scan.rows_in, stats.rows_considered, "{plan:?}");
            let refine = stats.phases.last().unwrap();
            assert_eq!(refine.rows_out, stats.results, "{plan:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_emits_span_trace() {
        let dir = tmpdir("trace");
        let mut idx = SegDiffIndex::create(&dir, SegDiffConfig::default()).unwrap();
        idx.ingest_series(&drop_series()).unwrap();
        idx.finish().unwrap();
        obs::trace_begin();
        let region = QueryRegion::drop(1.0 * HOUR, -3.0);
        let (_, stats) = idx.query(&region, QueryPlan::SeqScan).unwrap();
        let trace = obs::trace_take().expect("query produced a trace");
        assert_eq!(trace.name, "query");
        let child_names: Vec<&str> = trace.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(child_names, ["query.plan", "query.scan", "query.refine"]);
        assert_eq!(
            trace.attr("results").and_then(|j| j.as_u64()),
            Some(stats.results)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cached_query_hits_and_matches_uncached() {
        let dir = tmpdir("cache");
        let mut idx = SegDiffIndex::create(&dir, SegDiffConfig::default()).unwrap();
        idx.ingest_series(&drop_series()).unwrap();
        idx.finish().unwrap();
        idx.build_indexes().unwrap();
        let region = QueryRegion::drop(1.0 * HOUR, -3.0);
        let (plain, _) = idx.query(&region, QueryPlan::Index).unwrap();
        let (first, _, hit1) = idx.query_cached(&region, QueryPlan::Index).unwrap();
        assert!(!hit1, "first cached query must miss");
        let (second, stats2, hit2) = idx.query_cached(&region, QueryPlan::Index).unwrap();
        assert!(hit2, "second cached query must hit");
        assert_eq!(*first, plain, "cached results must equal query()");
        assert_eq!(*second, plain);
        // A hit does no storage work at all.
        assert_eq!(stats2.io, pagestore::PoolStats::default());
        assert_eq!(stats2.rows_considered, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_bumps_epoch_and_invalidates_cache() {
        let dir = tmpdir("epoch");
        let mut idx = SegDiffIndex::create(&dir, SegDiffConfig::default()).unwrap();
        idx.ingest_series(&drop_series()).unwrap();
        idx.finish().unwrap();
        let e0 = idx.epoch();
        assert!(e0 > 0, "ingest must advance the epoch");
        let region = QueryRegion::drop(1.0 * HOUR, -3.0);
        let (before, _, _) = idx.query_cached(&region, QueryPlan::SeqScan).unwrap();
        // Re-ingest: extend the series with a second, later drop. The
        // cached answer for the old epoch must not resurface.
        let mut tail = TimeSeries::new();
        let mut v = 12.0;
        for i in 200..400 {
            let t = i as f64 * 300.0;
            if (280..286).contains(&i) {
                v -= 4.0 / 6.0;
            }
            tail.push(t, v);
        }
        idx.ingest_series(&tail).unwrap();
        idx.finish().unwrap();
        assert!(idx.epoch() > e0, "re-ingest must advance the epoch");
        let (after, _, hit) = idx.query_cached(&region, QueryPlan::SeqScan).unwrap();
        assert!(!hit, "epoch change must force a recompute");
        assert!(
            after.len() > before.len(),
            "new drop must appear: {} vs {}",
            after.len(),
            before.len()
        );
        // And the fresh answer matches an uncached query exactly.
        let (plain, _) = idx.query(&region, QueryPlan::SeqScan).unwrap();
        assert_eq!(*after, plain);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_mid_ingest_recovers_prefix_consistent() {
        let dir = tmpdir("crash");
        {
            // group_commit 1: every segment commit is appended, so even
            // this short series leaves recoverable commit points.
            let mut idx =
                SegDiffIndex::create(&dir, SegDiffConfig::default().with_group_commit(1)).unwrap();
            idx.ingest_series(&drop_series()).unwrap();
            // No finish(): simulated crash with dirty pages still in the
            // pool and the trailing segment open.
        }
        let mut idx = SegDiffIndex::open(&dir, 4096).unwrap();
        let report = idx.recovery_report().expect("WAL recovery must run");
        assert!(!report.clean, "crash must be detected");
        idx.verify_consistency().unwrap();
        let segments = idx.segments().unwrap();
        assert!(!segments.is_empty(), "committed segments survive the crash");
        let stats = idx.stats();
        assert!(stats.n_observations > 0, "meta recovered from commit blob");
        assert_eq!(stats.n_segments, segments.len() as u64);
        // Ingestion resumes: push the remainder of the series (strictly
        // after the recovered prefix) and the planted drop is found.
        let last_t = segments.last().unwrap().t_end;
        for (t, v) in drop_series().iter().filter(|&(t, _)| t > last_t) {
            idx.push(t, v).unwrap();
        }
        idx.finish().unwrap();
        idx.verify_consistency().unwrap();
        let (results, _) = idx
            .query(&QueryRegion::drop(1.0 * HOUR, -3.0), QueryPlan::SeqScan)
            .unwrap();
        assert!(
            results.iter().any(|p| p.covers(24_000.0, 25_800.0)),
            "planted drop lost across the crash seam: {results:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_resume_crash_stays_consistent() {
        // Three crashes with deferred (grouped) commits, mirroring the
        // crash-harness failure sequence. Crash 2 leaves heap files
        // extended past the durable tail with a *clean* log (all of its
        // commits were deferred), so no recovery truncation repairs the
        // files before crash 3's run appends. That run must append into
        // the leftover pages, or crash 3's logical truncation chops off
        // the rows that landed past the gap of empty pages.
        let dir = tmpdir("crashseam");
        // A zigzag makes the segmenter emit a steady stream of short
        // segments, so commits cross several groups of 32.
        let mut series = TimeSeries::new();
        for i in 0..400 {
            let t = i as f64 * 300.0;
            let v = (i % 8) as f64 * 0.7;
            series.push(t, v);
        }
        let resume = |idx: &mut SegDiffIndex, take: usize| {
            let last_t = idx.segments().unwrap().last().map_or(-1.0, |s| s.t_end);
            for (t, v) in series.iter().filter(|&(t, _)| t > last_t).take(take) {
                idx.push(t, v).unwrap();
            }
        };
        {
            // Crash 1: crosses a commit group, so the next open recovers.
            let mut idx = SegDiffIndex::create(&dir, SegDiffConfig::default()).unwrap();
            resume(&mut idx, 200);
        }
        {
            // Crash 2: every commit of this run stays deferred (fewer
            // than 32 segments), but rows were appended and pages
            // allocated — the files end up extended past the durable
            // tail while the log stays clean.
            let mut idx = SegDiffIndex::open(&dir, 4096).unwrap();
            idx.verify_consistency().unwrap();
            resume(&mut idx, 60);
        }
        {
            // Crash 3: resumes from a clean log over the extended files
            // and crosses at least one commit group.
            let mut idx = SegDiffIndex::open(&dir, 4096).unwrap();
            assert!(
                idx.recovery_report().is_some_and(|r| r.clean),
                "crash 2 must leave a clean log for the gap to persist"
            );
            idx.verify_consistency().unwrap();
            resume(&mut idx, usize::MAX);
        }
        let idx = SegDiffIndex::open(&dir, 4096).unwrap();
        idx.verify_consistency().unwrap();
        assert!(!idx.segments().unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clean_finish_reopens_clean_with_exact_counts() {
        let dir = tmpdir("cleanreopen");
        {
            let mut idx = SegDiffIndex::create(&dir, SegDiffConfig::default()).unwrap();
            idx.ingest_series(&drop_series()).unwrap();
            idx.finish().unwrap();
        }
        let idx = SegDiffIndex::open(&dir, 4096).unwrap();
        assert!(
            idx.recovery_report().unwrap().clean,
            "finish() is a clean shutdown"
        );
        assert!(idx.last_checkpoint_lsn().is_some(), "reopen keeps WAL mode");
        assert_eq!(
            idx.stats().n_observations,
            200,
            "final commit carries the exact count"
        );
        idx.verify_consistency().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_durable_index_skips_wal() {
        let dir = tmpdir("nowal");
        let mut idx =
            SegDiffIndex::create(&dir, SegDiffConfig::default().with_durable(false)).unwrap();
        idx.ingest_series(&drop_series()).unwrap();
        idx.finish().unwrap();
        assert!(idx.last_checkpoint_lsn().is_none());
        assert!(!dir.join("wal.log").exists());
        idx.verify_consistency().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_consistency_detects_divergence() {
        let dir = tmpdir("diverge");
        let mut idx = SegDiffIndex::create(&dir, SegDiffConfig::default()).unwrap();
        idx.ingest_series(&drop_series()).unwrap();
        idx.finish().unwrap();
        // Forge an extra segment row the extractor never saw.
        idx.segments_table.insert(&[1e9, 0.0, 2e9, -5.0]).unwrap();
        assert!(matches!(
            idx.verify_consistency(),
            Err(pagestore::StoreError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_consistency_compares_feature_tables_as_multisets() {
        let dir = tmpdir("multiset");
        let mut idx = SegDiffIndex::create(&dir, SegDiffConfig::default()).unwrap();
        idx.ingest_series(&drop_series()).unwrap();
        idx.finish().unwrap();
        // A row the replay does not extract, whose bits sort behind every
        // stored row's (`dt1` is never negative): named, with both counts.
        let rows = idx.drop_tables[0].num_rows();
        let forged = [-1.0, -2.0, 3.0, 4.0, 5.0, 6.0];
        idx.drop_tables[0].insert(&forged).unwrap();
        match idx.verify_consistency() {
            Err(StoreError::Corrupt(m)) => {
                assert!(m.contains("feature table drop1"), "{m}");
                let counts = format!("{} rows stored, {rows} expected", rows + 1);
                assert!(m.contains(&counts), "{m}");
                let rows = format!("{forged:?} stored and no row expected");
                assert!(m.contains(&rows), "{m}");
            }
            other => panic!("{other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every file of the store in `dir` but its log, which numbers its
    /// records.
    fn store_files(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|name| name != "wal.log")
            .map(|name| (name.clone(), std::fs::read(dir.join(&name)).unwrap()))
            .collect();
        files.sort();
        files
    }

    /// A store an earlier release compacted — feature rows on sealed
    /// pages, then rows ingested behind them on raw pages — and one a
    /// crash stopped between sealing `segments` and cutting the feature
    /// tables both open as view stores: the rows of the sealed run are
    /// cut, the rows behind it stay, the store verifies, and both plans
    /// answer as the row store does. The repair writes what a finished
    /// compaction writes, and a second open writes nothing.
    #[test]
    fn parent_format_and_half_compacted_stores_open_as_view_stores() {
        let first = drop_series();
        let end = first.iter().last().unwrap().0;
        let second: TimeSeries = first.iter().map(|(t, v)| (end + 300.0 + t, v)).collect();
        let names = ["rows", "parent", "half", "compacted"].map(|n| tmpdir(&format!("view-{n}")));
        let [mut rows, mut parent, mut half, mut compacted] = names.clone().map(|dir| {
            let mut idx = SegDiffIndex::create(&dir, SegDiffConfig::default()).unwrap();
            idx.build_indexes().unwrap();
            idx.ingest_series(&first).unwrap();
            idx
        });
        // The earlier release sealed the feature tables, then `segments`,
        // and ingest went on behind them.
        for name in DROP_TABLES.iter().chain(&JUMP_TABLES) {
            parent.db.seal_table(name).unwrap();
        }
        parent.db.seal_table(SEGMENTS_TABLE).unwrap();
        for idx in [&mut rows, &mut parent, &mut half, &mut compacted] {
            idx.ingest_series(&second).unwrap();
            idx.finish().unwrap();
        }
        half.db.seal_table(SEGMENTS_TABLE).unwrap();
        compacted.compact_storage().unwrap();
        match half.verify_consistency() {
            Err(StoreError::Corrupt(m)) => assert!(m.contains("a row of the sealed run"), "{m}"),
            other => panic!("{other:?}"),
        }
        let regions = [
            QueryRegion::drop(HOUR, -3.0),
            QueryRegion::drop(2.0 * HOUR, -1.0),
            QueryRegion::jump(HOUR, 0.5),
            QueryRegion::jump(4.0 * HOUR, 1.0),
        ];
        let answers = |idx: &SegDiffIndex| {
            let mut all = Vec::new();
            for region in &regions {
                for plan in [QueryPlan::SeqScan, QueryPlan::Index] {
                    all.push(idx.query(region, plan).unwrap().0);
                }
            }
            all
        };
        let want = answers(&rows);
        assert!(want.iter().any(|a| !a.is_empty()));
        // Rows both stored and generated answer once.
        assert!(answers(&half) == want, "half compacted");
        drop((parent, half, compacted));
        let [_, parent_dir, half_dir, compacted_dir] = &names;
        let parent = SegDiffIndex::open(parent_dir, 4096).unwrap();
        let mut behind = 0;
        for t in parent.drop_tables.iter().chain(parent.jump_tables.iter()) {
            assert_eq!(t.sealed_rows(), 0, "{}", t.name());
            behind += t.num_rows();
        }
        assert!(behind > 0, "the rows behind the sealed run were cut");
        parent.verify_consistency().unwrap();
        assert!(answers(&parent) == want, "an earlier release's store");
        let half = SegDiffIndex::open(half_dir, 4096).unwrap();
        half.verify_consistency().unwrap();
        assert!(answers(&half) == want, "half compacted, reopened");
        drop(half);
        let repaired = store_files(half_dir);
        assert!(repaired == store_files(compacted_dir), "the repair");
        drop(SegDiffIndex::open(half_dir, 4096).unwrap());
        assert!(store_files(half_dir) == repaired, "a second open");
        for dir in &names {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    /// A store keeps no zone summary on disk: none after ingest, a flush,
    /// a compaction or a reopen. A `.zones` file an earlier release left
    /// is never read (nor removed): these are well formed, of their heaps'
    /// counts, with bounds no region reaches, and the answers do not move.
    #[test]
    fn a_store_holds_no_zone_file_and_reads_none() {
        let dir = tmpdir("no-zones");
        let zone_files = || {
            let names = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name());
            let zones = names.filter(|n| n.to_string_lossy().ends_with(".zones"));
            zones.collect::<Vec<_>>()
        };
        let answers = |idx: &SegDiffIndex| {
            let regions = [QueryRegion::drop(HOUR, -3.0), QueryRegion::jump(HOUR, 0.5)];
            let runs = regions
                .iter()
                .flat_map(|r| [(r, QueryPlan::SeqScan), (r, QueryPlan::Index)]);
            runs.map(|(r, p)| idx.query(r, p).unwrap().0)
                .collect::<Vec<_>>()
        };
        let mut idx = SegDiffIndex::create(&dir, SegDiffConfig::default()).unwrap();
        idx.ingest_series(&drop_series()).unwrap();
        idx.finish().unwrap();
        assert!(zone_files().is_empty(), "after ingest");
        idx.database().flush().unwrap();
        assert!(zone_files().is_empty(), "after a flush");
        let want = answers(&idx);
        assert!(want.iter().all(|a| !a.is_empty()));
        let names = [&DROP_TABLES[..], &JUMP_TABLES, &[SEGMENTS_TABLE]].concat();
        let counts: Vec<_> = names
            .iter()
            .map(|name| {
                let t = idx.db.table(name).unwrap();
                (t.columns().len(), t.num_rows())
            })
            .collect();
        idx.compact_storage().unwrap();
        assert!(zone_files().is_empty(), "after a compaction");
        drop(idx);
        let idx = SegDiffIndex::open(&dir, 4096).unwrap();
        assert!(zone_files().is_empty(), "after a reopen");
        assert!(answers(&idx) == want, "answers moved");
        drop(idx);
        // Magic "SDZS", columns, rows, then one (mins, maxs) pair.
        for (name, (ncols, nrows)) in names.iter().zip(counts) {
            let mut stale = [0x5344_5A53, ncols as u32].map(u32::to_le_bytes).concat();
            stale.extend(nrows.to_le_bytes());
            stale.extend((0..2 * ncols).flat_map(|_| 1e300f64.to_le_bytes()));
            std::fs::write(dir.join(format!("{name}.tbl.zones")), stale).unwrap();
        }
        let idx = SegDiffIndex::open(&dir, 4096).unwrap();
        assert!(answers(&idx) == want, "a stale file was read");
        assert_eq!(zone_files().len(), names.len(), "a stale file was removed");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A `segments` row that is no segment (a NaN), or one that starts
    /// before the row before it ends, makes the open `Corrupt`, not a
    /// panic in the resume path.
    #[test]
    fn a_corrupt_segments_row_fails_the_open() {
        for (tag, bad) in [
            ("nan-row", [f64::NAN, 0.0, 1e9, 1.0]),
            ("out-of-order-row", [100.0, 0.0, 200.0, -5.0]),
        ] {
            let dir = tmpdir(tag);
            let mut idx = SegDiffIndex::create(&dir, SegDiffConfig::default()).unwrap();
            idx.ingest_series(&drop_series()).unwrap();
            idx.finish().unwrap();
            drop(idx);
            let db = Database::open(&dir, 64).unwrap();
            db.table(SEGMENTS_TABLE).unwrap().insert(&bad).unwrap();
            db.checkpoint().unwrap();
            drop(db);
            match SegDiffIndex::open(&dir, 4096) {
                Err(StoreError::Corrupt(msg)) => assert!(msg.contains("segments row"), "{msg}"),
                Err(e) => panic!("{tag}: {e:?}"),
                Ok(_) => panic!("{tag}: opened"),
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A compaction keeps `segments` as it was, in temporal order, and
    /// stores no feature row of the sealed run — the corner histograms
    /// still count every row it represents — and a stored row of the run
    /// fails verification, naming its table.
    #[test]
    fn compaction_stores_no_row_of_the_sealed_run() {
        let dir = tmpdir("view");
        let mut idx = SegDiffIndex::create(&dir, SegDiffConfig::default()).unwrap();
        idx.ingest_series(&drop_series()).unwrap();
        idx.finish().unwrap();
        idx.build_indexes().unwrap();
        let mut first = Vec::new();
        idx.drop_tables[1]
            .seq_scan(|_, row| {
                first.extend_from_slice(row);
                false
            })
            .unwrap();
        let (segments, before) = (idx.segments().unwrap(), idx.stats());
        idx.compact_storage().unwrap();
        assert_eq!(idx.segments().unwrap(), segments, "segments moved");
        let after = idx.stats();
        assert_eq!(
            (after.n_rows, after.sealed_segments),
            (0, segments.len() as u64)
        );
        assert_eq!(after.corner_hist(), before.corner_hist());
        idx.verify_consistency().unwrap();
        idx.drop_tables[1].insert(&first).unwrap();
        match idx.verify_consistency() {
            Err(StoreError::Corrupt(m)) => {
                assert!(
                    m.contains("feature table drop2") && m.contains("sealed run"),
                    "{m}"
                )
            }
            other => panic!("{other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_beyond_window_rejected() {
        let dir = tmpdir("window");
        let mut idx = SegDiffIndex::create(&dir, SegDiffConfig::default()).unwrap();
        idx.ingest_series(&drop_series()).unwrap();
        idx.finish().unwrap();
        let region = QueryRegion::drop(9.0 * HOUR, -3.0); // w is 8 h
        for plan in [QueryPlan::SeqScan, QueryPlan::Index] {
            let expect = "t_hours 9.0 exceeds the index window of 8 h";
            match idx.query(&region, plan) {
                Err(StoreError::InvalidArgument(m)) => assert_eq!(m, expect),
                other => panic!("{plan:?}: {:?}", other.map(|(r, _)| r.len())),
            }
            let cached = idx.query_cached(&region, plan).map(|(r, _, _)| r.len());
            assert!(
                matches!(&cached, Err(StoreError::InvalidArgument(m)) if m == expect),
                "{plan:?} through the cache: {cached:?}"
            );
        }
        let at_the_window = QueryRegion::drop(8.0 * HOUR, -3.0);
        assert!(idx.query(&at_the_window, QueryPlan::SeqScan).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
