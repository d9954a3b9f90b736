//! The engine a [`crate::Service`] answers from: the sensors it serves,
//! held in a slot a replica's tail loop applies shipped rows to, and the
//! one query path over them — each wanted sensor through its own result
//! cache.

use crate::rowstream;
use featurespace::QueryRegion;
use pagestore::StoreError;
use parking_lot::RwLock;
use segdiff::transect::{fan_out_cached, CachedAnswer};
use segdiff::{check_window, QueryPlan, QueryStats, SegDiffIndex, TransectIndex};
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

/// The slot an [`Engine`] serves from. A query holds the read guard while
/// it runs; a replica's tail loop applies shipped rows to the transect it
/// holds under the write guard (`Engine::apply`), so a query waits for
/// an apply and never reads a sensor halfway through one.
pub struct EngineCell {
    held: RwLock<Held>,
}

enum Held {
    /// One index outside any transect root, served as sensor 0.
    Bare(Arc<SegDiffIndex>),
    /// A transect root's indexes: all of them, or a shard's slice.
    Transect(Arc<TransectIndex>),
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
        Engine::holding(Held::Transect(index), threads)
    }

    fn holding(held: Held, threads: usize) -> Engine {
        let cell = Arc::new(EngineCell {
            held: RwLock::new(held),
        });
        let threads = threads.max(1);
        Engine { cell, threads }
    }

    /// Runs `f` on what the cell holds, the read guard held until it
    /// returns. The one place that knows how the sensors are held.
    fn with_sensors<R>(&self, f: impl FnOnce(Sensors<'_>) -> R) -> R {
        let held = self.cell.held.read();
        let (ids, indexes, bare) = match &*held {
            Held::Bare(index) => (&[0][..], std::slice::from_ref(index.as_ref()), true),
            Held::Transect(t) => (t.sensor_ids(), t.indexes(), false),
        };
        f(Sensors { ids, indexes, bare })
    }

    /// Runs `f` on the transect the cell holds under the write guard:
    /// queries wait until it returns. How a replica's tail loop applies
    /// shipped rows; `Err` when the cell holds a bare index, or a
    /// transect shared outside it (the transect a replica builds is the
    /// cell's alone).
    pub(crate) fn apply<R>(&self, f: impl FnOnce(&mut TransectIndex) -> R) -> Result<R, String> {
        let mut held = self.cell.held.write();
        match &mut *held {
            Held::Transect(t) => Arc::get_mut(t)
                .map(f)
                .ok_or_else(|| "the served transect is shared; it takes no rows".to_string()),
            Held::Bare(_) => Err("a bare index takes no shipped rows".to_string()),
        }
    }

    /// Executes one query on `wanted` (`None`: every sensor served), each
    /// sensor through its result cache ([`fan_out_cached`]). Parts come
    /// back in ascending sensor order — the order a flat response
    /// concatenates and a router splices them in — with whether every one
    /// came from a cache.
    pub(crate) fn query(
        &self,
        region: &QueryRegion,
        plan: QueryPlan,
        wanted: Option<&[u32]>,
    ) -> pagestore::Result<(SensorResults, QueryStats, bool)> {
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
        self.with_sensors(answer)
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
        self.with_sensors(check)
    }

    /// The epoch versioning responses: the sum of the sensors' epochs.
    pub fn epoch(&self) -> u64 {
        let sum = |s: Sensors<'_>| s.indexes.iter().map(SegDiffIndex::epoch).sum();
        self.with_sensors(sum)
    }

    /// Entries currently held in the sensors' result caches.
    pub(crate) fn cache_entries(&self) -> usize {
        let sum = |s: Sensors<'_>| s.indexes.iter().map(|i| i.result_cache().len()).sum();
        self.with_sensors(sum)
    }

    /// Number of sensors served.
    pub fn num_sensors(&self) -> u32 {
        self.with_sensors(|s| s.ids.len() as u32)
    }

    /// The `sensors` count of a `/query` answer: none from a bare index.
    pub(crate) fn served(&self) -> Option<u32> {
        self.with_sensors(|s| (!s.bare).then_some(s.ids.len() as u32))
    }

    /// The global sensor ids this engine serves, ascending.
    pub fn sensor_ids(&self) -> Vec<u32> {
        self.with_sensors(|s| s.ids.to_vec())
    }

    /// The `GET /segments` body of `sensor` from row `after_row` on
    /// ([`rowstream::encode`]); `None` when this engine does not serve
    /// `sensor`.
    pub(crate) fn rows_after(
        &self,
        sensor: u32,
        after_row: u64,
    ) -> Option<pagestore::Result<Vec<u8>>> {
        self.with_sensors(|s| Some(rowstream::encode(s.get(sensor)?, after_row)))
    }

    /// The highest LSN durably appended to any backing WAL (0 without logs).
    pub fn last_durable_lsn(&self) -> u64 {
        let last = |i: &SegDiffIndex| Some(i.database().wal()?.next_lsn().saturating_sub(1));
        self.with_sensors(|s| s.indexes.iter().filter_map(last).max())
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
        self.with_sensors(sum)
    }

    /// The `segments` rows the served sensors hold, summed: on a replica,
    /// the rows it applied, each sensor's cursor.
    pub fn applied_rows(&self) -> u64 {
        self.with_sensors(|s| s.indexes.iter().map(|i| i.stats().n_segments).sum())
    }

    /// Flushes dirty pages (and checkpoints the WAL) on every backing
    /// database; called once the server has drained.
    pub fn flush(&self) -> pagestore::Result<()> {
        let flush = |s: Sensors<'_>| s.indexes.iter().try_for_each(|i| i.database().flush());
        self.with_sensors(flush)
    }

    /// Runs `f` on the index of `sensor`, when this engine serves it.
    #[cfg(test)]
    pub(crate) fn with_sensor<R>(
        &self,
        sensor: u32,
        f: impl FnOnce(&SegDiffIndex) -> R,
    ) -> Option<R> {
        self.with_sensors(|s| s.get(sensor).map(f))
    }
}

impl From<Arc<SegDiffIndex>> for Engine {
    fn from(index: Arc<SegDiffIndex>) -> Engine {
        Engine::holding(Held::Bare(index), 1)
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
