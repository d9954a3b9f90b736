//! Configuration of a [`crate::SegDiffIndex`].

use pagestore::{sync_from_env, DurabilityOptions};
use sensorgen::HOUR;

/// Parameters of the SegDiff framework.
///
/// The defaults match the paper's experimental defaults (§6): `ε = 0.2`
/// degree Celsius, `w = 8` hours.
#[derive(Debug, Clone)]
pub struct SegDiffConfig {
    /// User error tolerance `ε >= 0` (Definition 2). Segmentation keeps the
    /// approximation within `ε/2` of the data; query results are then exact
    /// up to `2ε` (Theorem 1).
    pub epsilon: f64,
    /// Window width `w` in seconds: the longest time span any future query
    /// may use (`T <= w`).
    pub window: f64,
    /// Buffer-pool capacity in 4 KiB pages.
    pub pool_pages: usize,
    /// Write-ahead logging: when `true` (the default) every stored segment
    /// ends in a WAL commit record, so a crash mid-ingest recovers to a
    /// prefix-consistent index (last committed segment boundary).
    pub durable: bool,
    /// Fsync discipline. Defaults to [`sync_from_env`] (`SEGDIFF_SYNC=0`
    /// turns fsyncs off for benchmarks that only need crash *consistency*
    /// against process kills, not power failure).
    pub sync: bool,
    /// Group commit: fsync the WAL once every this many commit records.
    pub group_commit: u64,
    /// Checkpoint the WAL (flush data pages, truncate the log) whenever it
    /// grows past this many bytes. Bounds replay time after a crash.
    pub checkpoint_wal_bytes: u64,
}

impl Default for SegDiffConfig {
    fn default() -> Self {
        let d = DurabilityOptions::default();
        Self {
            epsilon: 0.2,
            window: 8.0 * HOUR,
            pool_pages: 4096, // 16 MiB
            durable: true,
            sync: sync_from_env(),
            group_commit: d.group_commit,
            checkpoint_wal_bytes: d.checkpoint_wal_bytes,
        }
    }
}

impl SegDiffConfig {
    /// Sets the error tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is negative or not finite.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        assert!(
            epsilon.is_finite() && epsilon >= 0.0,
            "epsilon must be >= 0"
        );
        self.epsilon = epsilon;
        self
    }

    /// Sets the window width in seconds.
    ///
    /// # Panics
    ///
    /// Panics unless `window` is positive and finite.
    pub fn with_window(mut self, window: f64) -> Self {
        assert!(
            window.is_finite() && window > 0.0,
            "window must be positive"
        );
        self.window = window;
        self
    }

    /// Sets the buffer-pool size in pages.
    pub fn with_pool_pages(mut self, pages: usize) -> Self {
        self.pool_pages = pages;
        self
    }

    /// Enables or disables write-ahead logging.
    pub fn with_durable(mut self, durable: bool) -> Self {
        self.durable = durable;
        self
    }

    /// Enables or disables fsyncs (overrides the `SEGDIFF_SYNC` default).
    pub fn with_sync(mut self, sync: bool) -> Self {
        self.sync = sync;
        self
    }

    /// Sets the group-commit batch size (min 1).
    pub fn with_group_commit(mut self, every: u64) -> Self {
        self.group_commit = every.max(1);
        self
    }

    /// Sets the WAL size that triggers an automatic checkpoint.
    pub fn with_checkpoint_wal_bytes(mut self, bytes: u64) -> Self {
        self.checkpoint_wal_bytes = bytes;
        self
    }

    /// The [`DurabilityOptions`] this configuration asks the storage engine
    /// for.
    pub fn durability(&self) -> DurabilityOptions {
        DurabilityOptions {
            wal: self.durable,
            sync: self.sync,
            group_commit: self.group_commit,
            checkpoint_wal_bytes: self.checkpoint_wal_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SegDiffConfig::default();
        assert_eq!(c.epsilon, 0.2);
        assert_eq!(c.window, 8.0 * 3600.0);
    }

    #[test]
    fn builders() {
        let c = SegDiffConfig::default()
            .with_epsilon(0.4)
            .with_window(3600.0)
            .with_pool_pages(64);
        assert_eq!(c.epsilon, 0.4);
        assert_eq!(c.window, 3600.0);
        assert_eq!(c.pool_pages, 64);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn negative_epsilon_rejected() {
        SegDiffConfig::default().with_epsilon(-0.1);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        SegDiffConfig::default().with_window(0.0);
    }

    #[test]
    fn durability_knobs_map_to_options() {
        let c = SegDiffConfig::default()
            .with_durable(true)
            .with_sync(false)
            .with_group_commit(0)
            .with_checkpoint_wal_bytes(1 << 20);
        let d = c.durability();
        assert!(d.wal);
        assert!(!d.sync);
        assert_eq!(d.group_commit, 1, "group commit clamps to 1");
        assert_eq!(d.checkpoint_wal_bytes, 1 << 20);
        assert!(
            !SegDiffConfig::default()
                .with_durable(false)
                .durability()
                .wal
        );
    }
}
