//! The engine a [`crate::Service`] answers from: the sensors it serves,
//! held in a slot a replica's tail loop can swap, and the one query path
//! over them — each wanted sensor through its own result cache.

use featurespace::QueryRegion;
use pagestore::StoreError;
use parking_lot::RwLock;
use segdiff::transect::{fan_out_cached, CachedAnswer};
use segdiff::{check_window, QueryPlan, QueryStats, SegDiffIndex, TransectIndex};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The sensors a [`Service`](crate::Service) answers for: whatever its [`EngineCell`]
/// holds. Every method reads the cell through one accessor
/// (`Engine::with_sensors`), so there is one query path whatever is
/// held — each wanted sensor answers through its own result cache.
#[derive(Clone)]
pub struct Engine {
    cell: Arc<EngineCell>,
    /// Worker threads the cache misses of one query fan out on (min 1).
    threads: usize,
}

/// The slot an [`Engine`] serves from. A replica's tail loop shares it
/// and swaps what it holds after applying shipped frames: the outgoing
/// indexes must close their files before the refreshed ones recover over
/// them, so the slot is empty in between. A query holds the read guard
/// while it runs — [`EngineCell::clear`] waits for those in flight — and
/// one landing in the gap is answered `503`, never from torn pages.
pub struct EngineCell {
    held: RwLock<Option<Held>>,
    /// Highest primary LSN a tailing replica has applied (0 on a primary).
    applied_lsn: AtomicU64,
}

enum Held {
    /// One index outside any transect root, served as sensor 0.
    Bare(Arc<SegDiffIndex>),
    /// A transect root's indexes: all of them, or a shard's slice.
    Transect(Arc<TransectIndex>),
}

impl EngineCell {
    fn holding(held: Option<Held>) -> Arc<EngineCell> {
        Arc::new(EngineCell {
            held: RwLock::new(held),
            applied_lsn: AtomicU64::new(0),
        })
    }

    /// An empty cell, for a replica to [`EngineCell::set`].
    pub fn empty() -> Arc<EngineCell> {
        EngineCell::holding(None)
    }

    /// Empties the slot, dropping the indexes it held and with them
    /// every open file, before a refresh reopens the directory.
    pub fn clear(&self) {
        self.held.write().take();
    }

    /// Installs a freshly opened transect.
    pub fn set(&self, index: TransectIndex) {
        *self.held.write() = Some(Held::Transect(Arc::new(index)));
    }

    /// Records the highest primary LSN the replica's tail loop applied.
    pub fn set_applied_lsn(&self, lsn: u64) {
        self.applied_lsn.store(lsn, Ordering::Release);
    }
}

/// What an engine serves at one moment: `indexes[i]` is global sensor
/// `ids[i]`, ascending.
struct Sensors<'a> {
    ids: &'a [u32],
    indexes: &'a [SegDiffIndex],
    /// A bare index's answers carry no `sensors` count.
    bare: bool,
}

impl<'a> Sensors<'a> {
    fn get(&self, sensor: u32) -> Option<&'a SegDiffIndex> {
        self.indexes.get(self.ids.binary_search(&sensor).ok()?)
    }
}

impl Engine {
    /// An engine over a transect, with a worker-pool size.
    pub fn transect(index: Arc<TransectIndex>, threads: usize) -> Engine {
        Engine::over(EngineCell::holding(Some(Held::Transect(index))), threads)
    }

    /// An engine over a replica's cell; `threads` as in [`Engine::transect`].
    pub fn over(cell: Arc<EngineCell>, threads: usize) -> Engine {
        let threads = threads.max(1);
        Engine { cell, threads }
    }

    /// Runs `f` on what the cell holds, the read guard held until it
    /// returns; `None` from an empty cell. The one place that knows how
    /// the sensors are held.
    fn with_sensors<R>(&self, f: impl FnOnce(Sensors<'_>) -> R) -> Option<R> {
        let held = self.cell.held.read();
        let (ids, indexes, bare) = match held.as_ref()? {
            Held::Bare(index) => (&[0][..], std::slice::from_ref(index.as_ref()), true),
            Held::Transect(t) => (t.sensor_ids(), t.indexes(), false),
        };
        Some(f(Sensors { ids, indexes, bare }))
    }

    /// Executes one query on `wanted` (`None`: every sensor served), each
    /// sensor through its result cache ([`fan_out_cached`]). Parts come
    /// back in ascending sensor order — the order a flat response
    /// concatenates and a router splices them in — with whether every one
    /// came from a cache. `Ok(None)`: the cell is empty.
    pub(crate) fn query(
        &self,
        region: &QueryRegion,
        plan: QueryPlan,
        wanted: Option<&[u32]>,
    ) -> pagestore::Result<Option<(SensorResults, QueryStats, bool)>> {
        let answer = |held: Sensors<'_>| {
            let mut ids = wanted.unwrap_or(held.ids).to_vec();
            ids.sort_unstable();
            ids.dedup();
            let unknown = |id| format!("bad sensor filter: sensor {id} is not served here");
            let picked = ids
                .iter()
                .map(|&id| held.get(id).ok_or_else(|| unknown(id)))
                .collect::<Result<Vec<_>, _>>()
                .map_err(StoreError::InvalidArgument)?;
            let (parts, stats, cached) = fan_out_cached(&picked, region, plan, self.threads)?;
            Ok((ids.into_iter().zip(parts).collect(), stats, cached))
        };
        self.with_sensors(answer).transpose()
    }

    /// Rejects `region` when a sensor of `wanted` (empty: every sensor
    /// served) was built with a window shorter than its `T`: the
    /// extractor never pairs segments further apart, so a standing query
    /// slower than the window would never hear a row. Sensors this engine
    /// does not serve have no window to check.
    pub(crate) fn check_window(
        &self,
        region: &QueryRegion,
        wanted: &[u32],
    ) -> pagestore::Result<()> {
        let check = |held: Sensors<'_>| {
            let ids = if wanted.is_empty() { held.ids } else { wanted };
            let covered = ids.iter().filter_map(|&id| held.get(id));
            covered
                .map(|i| i.config().window)
                .try_for_each(|w| check_window(region, w))
        };
        self.with_sensors(check).unwrap_or(Ok(()))
    }

    /// The epoch versioning responses: the sum of the sensors' epochs.
    pub fn epoch(&self) -> u64 {
        let sum = |s: Sensors<'_>| s.indexes.iter().map(SegDiffIndex::epoch).sum();
        self.with_sensors(sum).unwrap_or(0)
    }

    /// Entries currently held in the sensors' result caches.
    pub(crate) fn cache_entries(&self) -> usize {
        let sum = |s: Sensors<'_>| s.indexes.iter().map(|i| i.result_cache().len()).sum();
        self.with_sensors(sum).unwrap_or(0)
    }

    /// Number of sensors served.
    pub fn num_sensors(&self) -> u32 {
        self.with_sensors(|s| s.ids.len() as u32).unwrap_or(0)
    }

    /// The `sensors` count of a `/query` answer: none from a bare index.
    pub(crate) fn served(&self) -> Option<u32> {
        self.with_sensors(|s| (!s.bare).then_some(s.ids.len() as u32))?
    }

    /// The global sensor ids this engine serves, ascending.
    pub fn sensor_ids(&self) -> Vec<u32> {
        self.with_sensors(|s| s.ids.to_vec()).unwrap_or_default()
    }

    /// The directory backing `sensor`, when this engine serves it (the
    /// WAL-shipping routes read `wal.log` and data files there).
    pub fn sensor_dir(&self, sensor: u32) -> Option<PathBuf> {
        self.with_sensors(|s| Some(s.get(sensor)?.database().dir().to_path_buf()))?
    }

    /// The highest LSN durably appended to any backing WAL (0 without logs).
    pub fn last_durable_lsn(&self) -> u64 {
        let last = |i: &SegDiffIndex| Some(i.database().wal()?.next_lsn().saturating_sub(1));
        self.with_sensors(|s| s.indexes.iter().filter_map(last).max())
            .flatten()
            .unwrap_or(0)
    }

    /// What recovery did when the backing databases opened: `(all clean,
    /// pages replayed, rows truncated)`; no report counts as clean.
    pub fn recovery_summary(&self) -> (bool, u64, u64) {
        let sum = |s: Sensors<'_>| {
            let reports = s.indexes.iter().filter_map(SegDiffIndex::recovery_report);
            reports.fold((true, 0, 0), |(clean, replayed, truncated), r| {
                let (replayed, truncated) =
                    (replayed + r.replayed_pages, truncated + r.truncated_rows);
                (clean && r.clean, replayed, truncated)
            })
        };
        self.with_sensors(sum).unwrap_or((true, 0, 0))
    }

    /// The highest primary LSN a tailing replica applied (0 on a primary).
    pub fn applied_lsn(&self) -> u64 {
        self.cell.applied_lsn.load(Ordering::Acquire)
    }

    /// Flushes dirty pages (and checkpoints the WAL) on every backing
    /// database; called once the server has drained.
    pub fn flush(&self) -> pagestore::Result<()> {
        let flush = |s: Sensors<'_>| s.indexes.iter().try_for_each(|i| i.database().flush());
        self.with_sensors(flush).unwrap_or(Ok(()))
    }
}

impl From<Arc<SegDiffIndex>> for Engine {
    fn from(index: Arc<SegDiffIndex>) -> Engine {
        Engine::over(EngineCell::holding(Some(Held::Bare(index))), 1)
    }
}

impl From<Arc<TransectIndex>> for Engine {
    fn from(index: Arc<TransectIndex>) -> Engine {
        let threads = index.num_sensors() as usize;
        Engine::transect(index, threads)
    }
}

/// One query's answer per sensor, ascending. A result-cache hit shares
/// the cached vector, so nothing between the cache and the socket
/// copies a pair.
pub(crate) type SensorResults = Vec<(u32, CachedAnswer)>;
