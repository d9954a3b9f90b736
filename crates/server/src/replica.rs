//! Warm replica: bootstrap from a primary's data files, then tail its
//! WAL over `GET /wal` and replay through the ordinary recovery path.
//!
//! The protocol has two phases per sensor:
//!
//! 1. **Bootstrap** — copy the sensor directory over
//!    `GET /wal/manifest?sensor=` + `GET /wal/file` (data files first,
//!    `wal.log` last, so the log covers anything the data files were
//!    still missing), open the copied log — which cuts it to its valid
//!    prefix — and remember its last LSN as the replication cursor. A
//!    checkpoint racing the copy moves the log's start LSN; the copy is
//!    simply retried.
//! 2. **Tail** — poll `GET /wal?sensor=&after_lsn=cursor`, append the
//!    shipped raw frames to the local `wal.log` ([`Wal::append_frames`]:
//!    the log format has one reader and writer), and refresh the serving
//!    engine by reopening the directory: recovery replays the primary's
//!    page images (file order, no LSN assumptions), truncates to the
//!    last commit, rebuilds indexes, and checkpoints. A `restart` flag
//!    (cursor older than the primary's truncated history) falls back to
//!    a fresh bootstrap of that sensor.
//!
//! The replica never writes through its own engine, so the local log is
//! exclusively: `[local checkpoint][shipped primary frames...]` — which
//! recovery replays correctly because it follows file order.
//!
//! Cursors persist in `replica.cursor` at the replica root (one
//! `sensor lsn` line each), so a restarted replica resumes tailing
//! instead of re-copying, unless the primary checkpointed past it.

use crate::engine::{Engine, EngineCell};
use crate::loadgen::{fetch, fetch_bytes};
use crate::ship;
use obs::json::Json;
use pagestore::{sync_from_env, OsVfs, Vfs, Wal, WalSegment, WAL_FILE};
use segdiff::TransectIndex;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Name of the cursor file at the replica root (excluded from
/// bootstrap manifests).
pub const CURSOR_FILE: &str = "replica.cursor";

/// Full-directory copy attempts before giving up on a sensor whose
/// primary keeps checkpointing mid-copy.
const SYNC_ATTEMPTS: usize = 5;

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
    /// Bytes of WAL frames (or file chunk) requested per round trip.
    pub max_bytes: u64,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            primary: String::new(),
            root: PathBuf::new(),
            pool_pages: 4096,
            threads: 4,
            poll: Duration::from_millis(200),
            max_bytes: 1 << 20,
        }
    }
}

/// `replica.*` telemetry published to the global registry.
struct ReplicaMetrics {
    rounds: Arc<obs::Counter>,
    errors: Arc<obs::Counter>,
    frames: Arc<obs::Counter>,
    bytes: Arc<obs::Counter>,
    resyncs: Arc<obs::Counter>,
    refreshes: Arc<obs::Counter>,
}

impl ReplicaMetrics {
    fn new() -> Self {
        let r = obs::global();
        ReplicaMetrics {
            rounds: r.counter("replica.ship_rounds"),
            errors: r.counter("replica.ship_errors"),
            frames: r.counter("replica.frames_applied"),
            bytes: r.counter("replica.bytes_applied"),
            resyncs: r.counter("replica.resyncs"),
            refreshes: r.counter("replica.engine_refreshes"),
        }
    }
}

/// A warm replica of one shard primary: owns the swappable engine the
/// server serves reads from, and the tail loop that keeps it fresh.
pub struct Replica {
    cfg: ReplicaConfig,
    cell: Arc<EngineCell>,
    /// Per-sensor replication cursor: last primary LSN applied.
    cursors: BTreeMap<u32, u64>,
    /// Set while the serving engine lags the applied log (a failed
    /// refresh retries next round even without new frames).
    engine_stale: bool,
    metrics: ReplicaMetrics,
}

impl Replica {
    /// Bootstraps (or resumes) a replica of `cfg.primary` into
    /// `cfg.root` and opens the serving engine. Fails if the primary is
    /// unreachable, serves no sensors, or is itself a replica.
    pub fn bootstrap(cfg: ReplicaConfig) -> Result<Replica, String> {
        std::fs::create_dir_all(&cfg.root)
            .map_err(|e| format!("create {}: {e}", cfg.root.display()))?;
        let (status, body) = fetch(&cfg.primary, "GET", "/wal/manifest", None)?;
        if status != 200 {
            return Err(format!(
                "GET /wal/manifest on {}: status {status}",
                cfg.primary
            ));
        }
        let doc = Json::parse(&body).map_err(|e| format!("bad manifest: {e}"))?;
        let role = doc.get("role").and_then(Json::as_str).unwrap_or("");
        if role != "primary" {
            return Err(format!(
                "{} reports role {role:?}; replicas only follow primaries",
                cfg.primary
            ));
        }
        let sensors: Vec<u32> = match doc.get("sensors") {
            Some(Json::Array(items)) => items
                .iter()
                .filter_map(Json::as_u64)
                .filter(|&n| n <= u64::from(u32::MAX))
                .map(|n| n as u32)
                .collect(),
            _ => Vec::new(),
        };
        if sensors.is_empty() {
            return Err(format!("{} serves no sensors", cfg.primary));
        }
        let mut replica = Replica {
            cell: EngineCell::empty(),
            cursors: load_cursors(&cfg.root),
            engine_stale: true,
            metrics: ReplicaMetrics::new(),
            cfg,
        };
        // Cursors for sensors the primary no longer serves are stale.
        replica.cursors.retain(|sensor, _| sensors.contains(sensor));
        for &sensor in &sensors {
            let resumable = replica.cursors.contains_key(&sensor)
                && replica.sensor_dir(sensor).join(WAL_FILE).exists();
            if !resumable {
                replica.sync_sensor(sensor)?;
            }
        }
        replica.save_cursors()?;
        replica.refresh_engine()?;
        Ok(replica)
    }

    /// The swappable engine to serve queries from.
    pub fn engine(&self) -> Engine {
        Engine::over(Arc::clone(&self.cell), self.cfg.threads)
    }

    /// Sensors this replica mirrors, ascending.
    pub fn sensor_ids(&self) -> Vec<u32> {
        self.cursors.keys().copied().collect()
    }

    /// Runs tail rounds every `poll` until `shutdown` is set. Errors
    /// (primary down, mid-copy races) are counted and retried next
    /// round; the engine keeps serving the last applied state.
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

    /// One tail round over every sensor; refreshes the engine when any
    /// sensor advanced (or a previous refresh failed).
    pub fn round(&mut self) -> Result<(), String> {
        self.metrics.rounds.inc();
        let mut dirty = false;
        for sensor in self.sensor_ids() {
            let cursor = self.cursors.get(&sensor).copied().unwrap_or(0);
            let seg = self.fetch_segment(sensor, cursor)?;
            if seg.restart {
                // The primary checkpointed past our cursor: history we
                // never saw is gone, so re-copy the whole sensor.
                self.metrics.resyncs.inc();
                self.sync_sensor(sensor)?;
                dirty = true;
                continue;
            }
            if seg.frames.is_empty() {
                continue;
            }
            self.append_frames(sensor, &seg)?;
            self.cursors.insert(sensor, seg.last_lsn);
            dirty = true;
        }
        if dirty || self.engine_stale {
            self.refresh_engine()?;
            self.save_cursors()?;
        }
        Ok(())
    }

    fn sensor_dir(&self, sensor: u32) -> PathBuf {
        self.cfg.root.join(format!("sensor-{sensor}"))
    }

    fn fetch_segment(&self, sensor: u32, after: u64) -> Result<WalSegment, String> {
        let target = format!(
            "/wal?sensor={sensor}&after_lsn={after}&max_bytes={}",
            self.cfg.max_bytes
        );
        let (status, body) = fetch_bytes(&self.cfg.primary, "GET", &target, None)?;
        if status != 200 {
            return Err(format!("GET {target}: status {status}"));
        }
        ship::decode_segment(&body)
    }

    fn append_frames(&self, sensor: u32, seg: &WalSegment) -> Result<(), String> {
        let dir = self.sensor_dir(sensor);
        let frames = open_log(&dir)
            .and_then(|wal| wal.append_frames(&seg.frames))
            .map_err(|e| format!("append to the log in {}: {e}", dir.display()))?;
        self.metrics.frames.add(frames);
        self.metrics.bytes.add(seg.frames.len() as u64);
        Ok(())
    }

    /// Full directory copy of one sensor, retried while the primary's
    /// checkpoints race the copy.
    fn sync_sensor(&mut self, sensor: u32) -> Result<(), String> {
        for _ in 0..SYNC_ATTEMPTS {
            if self.try_sync_sensor(sensor)? {
                return Ok(());
            }
        }
        Err(format!(
            "sensor {sensor}: primary kept checkpointing during the copy"
        ))
    }

    fn try_sync_sensor(&mut self, sensor: u32) -> Result<bool, String> {
        let dir = self.sensor_dir(sensor);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        // Log horizon before the copy: a checkpoint during it moves the
        // log's start LSN, and the attempt returns false to retry.
        let pre = self.fetch_segment(sensor, u64::MAX)?;
        let target = format!("/wal/manifest?sensor={sensor}");
        let (status, body) = fetch(&self.cfg.primary, "GET", &target, None)?;
        if status != 200 {
            return Err(format!("GET {target}: status {status}"));
        }
        let doc = Json::parse(&body).map_err(|e| format!("bad manifest: {e}"))?;
        let names: Vec<String> = match doc.get("files") {
            Some(Json::Array(items)) => items
                .iter()
                .filter_map(|f| f.get("name").and_then(Json::as_str))
                .map(str::to_string)
                .collect(),
            _ => return Err(format!("manifest for sensor {sensor} lists no files")),
        };
        // Data files first, the log last: the log then covers every
        // change a data file copy might have caught mid-flight.
        for name in names.iter().filter(|n| n.as_str() != WAL_FILE) {
            self.copy_file(sensor, name, &dir)?;
        }
        if names.iter().any(|n| n == WAL_FILE) {
            self.copy_file(sensor, WAL_FILE, &dir)?;
        }
        let post = self.fetch_segment(sensor, u64::MAX)?;
        if post.log_start_lsn != pre.log_start_lsn {
            return Ok(false);
        }
        // Opening the copied log cuts off a torn frame the copy may end
        // in: frames appended behind torn bytes would be invisible to
        // recovery. The log starts with its one checkpoint.
        let local = open_log(&dir).map_err(|e| format!("open copied log: {e}"))?;
        if local.last_checkpoint_lsn() != pre.log_start_lsn {
            return Ok(false);
        }
        self.cursors.insert(sensor, local.next_lsn() - 1);
        Ok(true)
    }

    fn copy_file(&self, sensor: u32, name: &str, dir: &Path) -> Result<(), String> {
        let path = dir.join(name);
        let failed = |e: std::io::Error| format!("copy to {}: {e}", path.display());
        let out = OsVfs.create(&path).map_err(failed)?;
        let mut offset = 0u64;
        loop {
            let target = format!(
                "/wal/file?sensor={sensor}&name={name}&offset={offset}&len={}",
                self.cfg.max_bytes
            );
            let (status, chunk) = fetch_bytes(&self.cfg.primary, "GET", &target, None)?;
            if status != 200 {
                return Err(format!("GET {target}: status {status}"));
            }
            if chunk.is_empty() {
                break;
            }
            out.write_at(&chunk, offset).map_err(failed)?;
            offset += chunk.len() as u64;
        }
        if sync_from_env() {
            out.sync().map_err(failed)?;
        }
        Ok(())
    }

    /// Reopens the replica directory and swaps the serving engine. The
    /// old engine drops first — recovery rewrites the very files it
    /// holds open, and two buffer pools over one directory tear reads —
    /// so queries in the short gap get the typed reload error.
    fn refresh_engine(&mut self) -> Result<(), String> {
        self.engine_stale = true;
        self.cell.clear();
        let index = TransectIndex::open(&self.cfg.root, self.cfg.pool_pages)
            .map_err(|e| format!("open replica index: {e}"))?;
        self.cell.set(index);
        self.cell
            .set_applied_lsn(self.cursors.values().copied().max().unwrap_or(0));
        self.engine_stale = false;
        self.metrics.refreshes.inc();
        Ok(())
    }

    fn save_cursors(&self) -> Result<(), String> {
        let text: String = self
            .cursors
            .iter()
            .map(|(s, lsn)| format!("{s} {lsn}\n"))
            .collect();
        // Synced like the frames the cursor counts (`append_frames`): a
        // cursor may lag the local log, never lead it.
        pagestore::write_atomic(
            &OsVfs,
            &self.cfg.root.join(CURSOR_FILE),
            text.as_bytes(),
            sync_from_env(),
        )
        .map_err(|e| format!("persist {CURSOR_FILE}: {e}"))
    }
}

/// The log of the sensor directory `dir`, opened for appending.
fn open_log(dir: &Path) -> pagestore::Result<Wal> {
    Wal::open(Arc::new(OsVfs), dir, sync_from_env())
}

/// Loads persisted cursors; a missing or garbled file is an empty map
/// (the affected sensors re-bootstrap).
fn load_cursors(root: &Path) -> BTreeMap<u32, u64> {
    let text = OsVfs.read(&root.join(CURSOR_FILE)).unwrap_or_default();
    let lines = String::from_utf8_lossy(&text).into_owned();
    let cursor = |line: &str| {
        let (sensor, lsn) = line.split_once(' ')?;
        Some((sensor.parse().ok()?, lsn.parse().ok()?))
    };
    lines.lines().filter_map(cursor).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_file_round_trips() {
        let root = std::env::temp_dir().join(format!("segdiff-cursor-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        std::fs::create_dir_all(&root).expect("mkdir");
        assert!(load_cursors(&root).is_empty(), "missing file is empty");
        std::fs::write(root.join(CURSOR_FILE), "0 17\n3 9\nbad line\nx y\n").expect("write");
        let cursors = load_cursors(&root);
        assert_eq!(cursors.len(), 2);
        assert_eq!(cursors.get(&0), Some(&17));
        assert_eq!(cursors.get(&3), Some(&9));
        std::fs::remove_dir_all(&root).ok();
    }
}
