//! Warm replica: follows a primary by applying its `segments` rows to a
//! live index.
//!
//! Everything a shard answers from is a function of each sensor's
//! segment chain, its ε and its window: both plans generate their pairs
//! from the chain. So a replica is shipped rows, not files:
//! `GET /segments?sensor=G&after_row=N` ([`crate::rowstream`]) answers
//! with the primary's rows `N..`, ε, window, observation count and row
//! count. The replica holds one live [`TransectIndex`] under its root
//! (`<root>/sensor-<id>/`, ordinary stores) and appends the rows through
//! [`SegDiffIndex::ingest_pla`], the ingest store step, under the engine
//! slot's write guard (`Engine::apply`): a query waits for an apply,
//! and none is refused.
//!
//! A sensor's cursor is its own row count, which opening its store
//! recovers, so bootstrap is the same call from row 0 and a restarted
//! replica resumes where its store stands. Before any write, a shipped
//! run is refused unless it continues the sensor's last row bit for bit
//! and carries the sensor's ε and window; a primary holding fewer rows
//! than the replica is another store, and that sensor is rebuilt from
//! row 0. Nothing a primary rewrites outside its log (a seal, a cut, a
//! checkpoint) is shipped, so none of it can tear a replica, and the
//! replica seals and compacts on its own schedule.

use crate::engine::Engine;
use crate::loadgen::{fetch, fetch_bytes};
use crate::rowstream::{self, Shipment};
use obs::json::Json;
use segdiff::{SegDiffConfig, SegDiffIndex, TransectIndex};
use segmentation::PiecewiseLinear;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Granularity of the shutdown-aware sleep between tail rounds.
const SLEEP_SLICE: Duration = Duration::from_millis(20);

/// How a [`Replica`] reaches its primary and lays out local state.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// The primary's `host:port`.
    pub primary: String,
    /// Local replica data directory (created if missing).
    pub root: PathBuf,
    /// Buffer-pool pages per sensor database.
    pub pool_pages: usize,
    /// Worker threads for fan-out queries on the replica engine.
    pub threads: usize,
    /// Tail-poll interval.
    pub poll: Duration,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            primary: String::new(),
            root: PathBuf::new(),
            pool_pages: 4096,
            threads: 4,
            poll: Duration::from_millis(200),
        }
    }
}

/// `replica.*` telemetry published to the global registry.
struct ReplicaMetrics {
    rounds: Arc<obs::Counter>,
    errors: Arc<obs::Counter>,
    rows: Arc<obs::Counter>,
    rebuilds: Arc<obs::Counter>,
}

impl ReplicaMetrics {
    fn new() -> Self {
        let r = obs::global();
        ReplicaMetrics {
            rounds: r.counter("replica.ship_rounds"),
            errors: r.counter("replica.ship_errors"),
            rows: r.counter("replica.rows_applied"),
            rebuilds: r.counter("replica.rebuilds"),
        }
    }
}

/// A warm replica of one shard primary: owns the engine the server
/// serves reads from, and the tail loop that keeps it fresh.
pub struct Replica {
    cfg: ReplicaConfig,
    engine: Engine,
    /// The primary's sensors, ascending.
    sensors: Vec<u32>,
    metrics: ReplicaMetrics,
}

impl Replica {
    /// Opens what `cfg.root` holds of the primary's sensors and brings
    /// every sensor level with `cfg.primary` (from row 0 for a sensor it
    /// lacks). Fails if the primary is unreachable, serves no sensors, or
    /// is itself a replica.
    pub fn bootstrap(cfg: ReplicaConfig) -> Result<Replica, String> {
        std::fs::create_dir_all(&cfg.root)
            .map_err(|e| format!("create {}: {e}", cfg.root.display()))?;
        let sensors = primary_sensors(&cfg.primary)?;
        let mut transect = TransectIndex::empty(&cfg.root);
        for &sensor in &sensors {
            let dir = TransectIndex::sensor_dir(&cfg.root, sensor);
            if !dir.exists() {
                continue;
            }
            // A store that does not open is rebuilt from row 0 below.
            match SegDiffIndex::open(&dir, cfg.pool_pages) {
                Ok(index) => transect.insert(sensor, index),
                Err(e) => obs::warn!("replica sensor {sensor} rebuilds: {e}"),
            }
        }
        let mut replica = Replica {
            engine: Engine::transect(Arc::new(transect), cfg.threads),
            sensors,
            metrics: ReplicaMetrics::new(),
            cfg,
        };
        replica.round()?;
        Ok(replica)
    }

    /// The engine to serve queries from.
    pub fn engine(&self) -> Engine {
        self.engine.clone()
    }

    /// Sensors this replica mirrors, ascending.
    pub fn sensor_ids(&self) -> Vec<u32> {
        self.sensors.clone()
    }

    /// Runs tail rounds every `poll` until `shutdown` is set. Errors
    /// (primary down, a refused run) are counted and retried next round;
    /// the engine keeps serving what it applied.
    pub fn run(mut self, shutdown: Arc<AtomicBool>) {
        while !shutdown.load(Ordering::Acquire) {
            let round_start = Instant::now();
            if let Err(e) = self.round() {
                self.metrics.errors.inc();
                obs::warn!("replica round failed: {e}");
            }
            while round_start.elapsed() < self.cfg.poll && !shutdown.load(Ordering::Acquire) {
                let remaining = self.cfg.poll.saturating_sub(round_start.elapsed());
                std::thread::sleep(remaining.min(SLEEP_SLICE));
            }
        }
    }

    /// One tail round: brings every sensor level with the primary.
    pub fn round(&mut self) -> Result<(), String> {
        self.metrics.rounds.inc();
        self.sensors.iter().try_for_each(|&s| self.follow(s))
    }

    /// Fetches the rows `sensor` lacks and applies them, a body at a time
    /// (each fetched with no guard held), until it holds the primary's.
    fn follow(&self, sensor: u32) -> Result<(), String> {
        let held = |t: &mut TransectIndex| Some(t.sensor(sensor).ok()?.stats().n_segments);
        // `None`: the sensor's store is to be created from row 0.
        let mut cursor = self.engine.apply(held)?;
        loop {
            let shipment = self.fetch(sensor, cursor.unwrap_or(0))?;
            if cursor.is_some_and(|rows| shipment.total_rows < rows) {
                // Fewer rows than this replica holds: another store.
                obs::warn!(
                    "replica sensor {sensor} rebuilds: the primary holds {} rows, the replica {}",
                    shipment.total_rows,
                    cursor.unwrap_or(0)
                );
                self.metrics.rebuilds.inc();
                cursor = None;
                continue;
            }
            let (total, fresh) = (shipment.total_rows, cursor.is_none());
            let shipped = shipment.rows.len() as u64;
            let apply = |t: &mut TransectIndex| self.apply(t, sensor, shipment, fresh);
            let rows = self.engine.apply(apply)??;
            self.metrics.rows.add(shipped);
            if rows >= total {
                return Ok(());
            }
            cursor = Some(rows);
        }
    }

    /// Appends `shipment` to `sensor` in `t` (when `fresh`, to a store
    /// created for it in place of any it held) and returns the rows the
    /// sensor then holds. A run that does not follow what the sensor holds
    /// is refused before anything is written.
    fn apply(
        &self,
        t: &mut TransectIndex,
        sensor: u32,
        shipment: Shipment,
        fresh: bool,
    ) -> Result<u64, String> {
        let failed = |e: pagestore::StoreError| format!("replica sensor {sensor}: {e}");
        if fresh {
            if shipment.first_row != 0 {
                return Err(format!(
                    "replica sensor {sensor} starts afresh; shipped from row {}",
                    shipment.first_row
                ));
            }
            // The store held before closes its files before they go.
            drop(t.remove(sensor));
            let dir = TransectIndex::sensor_dir(&self.cfg.root, sensor);
            match std::fs::remove_dir_all(&dir) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(format!("remove {}: {e}", dir.display()));
                }
                _ => {}
            }
            let config = SegDiffConfig::default()
                .with_epsilon(shipment.epsilon)
                .with_window(shipment.window)
                .with_pool_pages(self.cfg.pool_pages);
            t.insert(sensor, SegDiffIndex::create(&dir, config).map_err(failed)?);
        }
        let index = t.sensor_mut(sensor).map_err(failed)?;
        let held = index.stats();
        let last = index.segments_in(held.n_segments.saturating_sub(1)..held.n_segments);
        let (epsilon, window) = (index.config().epsilon, index.config().window);
        shipment.check_follows(epsilon, window, last.map_err(failed)?.last())?;
        if shipment.first_row != held.n_segments {
            return Err(format!(
                "replica sensor {sensor} holds {} rows; shipped from row {}",
                held.n_segments, shipment.first_row
            ));
        }
        let rows = held.n_segments + shipment.rows.len() as u64;
        if !shipment.rows.is_empty() {
            let observations = shipment.n_observations.saturating_sub(held.n_observations);
            // `decode` refused a run with a gap, so this cannot panic.
            let pla = PiecewiseLinear::from_segments(shipment.rows);
            index.ingest_pla(&pla, observations).map_err(failed)?;
        }
        Ok(rows)
    }

    fn fetch(&self, sensor: u32, after_row: u64) -> Result<Shipment, String> {
        let target = format!("/segments?sensor={sensor}&after_row={after_row}");
        let (status, body) = fetch_bytes(&self.cfg.primary, "GET", &target, None)?;
        if status != 200 {
            return Err(format!("GET {target}: status {status}"));
        }
        rowstream::decode(&body).map_err(|e| format!("GET {target}: {e}"))
    }
}

/// The sensors `primary` serves, from its `/healthz`; an error unless it
/// answers as a primary serving at least one.
fn primary_sensors(primary: &str) -> Result<Vec<u32>, String> {
    let (status, body) = fetch(primary, "GET", "/healthz", None)?;
    if status != 200 {
        return Err(format!("GET /healthz on {primary}: status {status}"));
    }
    let doc = Json::parse(&body).map_err(|e| format!("bad /healthz on {primary}: {e}"))?;
    let role = doc.get("role").and_then(Json::as_str).unwrap_or("");
    if role != "primary" {
        return Err(format!(
            "{primary} reports role {role:?}; replicas only follow primaries"
        ));
    }
    let sensors: Vec<u32> = match doc.get("sensor_ids") {
        Some(Json::Array(items)) => items
            .iter()
            .filter_map(Json::as_u64)
            .filter_map(|n| u32::try_from(n).ok())
            .collect(),
        _ => Vec::new(),
    };
    if sensors.is_empty() {
        return Err(format!("{primary} serves no sensors"));
    }
    Ok(sensors)
}
