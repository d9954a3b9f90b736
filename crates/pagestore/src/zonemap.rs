//! Zone maps: one whole-heap min/max summary per heap.
//!
//! A zone map holds the minimum and maximum of each column over every row
//! a heap stores. A plan with a *conservative* predicate (one that returns
//! `true` whenever any row in the summarized range could match) may then
//! skip the whole heap without reading a page of it — MacroBase-style
//! pruning adapted to the feature tables' corner columns. The search
//! generator asks it of `segments` before reading a segment
//! ([`crate::HeapFile::prune_whole_segment`]); the paper's sequential scan
//! reads every page of a heap the summary admits.
//!
//! Zone maps are derived data, like the B+trees: they are persisted to a
//! `<heap>.zones` sidecar (atomic temp + rename) keyed by the heap's row
//! count, and a sidecar that disagrees with the heap meta on it — e.g.
//! after WAL recovery truncated the heap — is discarded and rebuilt from a
//! scan. A seal moves rows without changing their count, so it deletes the
//! sidecar itself before it publishes the sealed file. They are maintained
//! incrementally on insert, so a freshly created heap always carries an
//! up-to-date map.

use crate::error::Result;
use crate::page::arr;
use crate::vfs::{write_atomic, Vfs};
use std::io::ErrorKind;
use std::path::{Path, PathBuf};

/// Version-3 magic ("SDZS" — zone summary). Earlier sidecars (version 1,
/// "SDZM"; version 2, "SDZH", which held page and extent entries too)
/// fail this check and are discarded/rebuilt on first open.
const MAGIC: u32 = 0x5344_5A53;

/// Sidecar header: magic, column count, row count.
const HEADER: usize = 16;

/// The whole-heap min/max summary of every column of a heap file.
#[derive(Debug, Clone)]
pub struct ZoneMap {
    /// Rows observed; must equal the heap's row count to be valid.
    nrows: u64,
    mins: Vec<f64>,
    maxs: Vec<f64>,
}

impl ZoneMap {
    /// An empty zone map for rows of `ncols` columns.
    pub fn new(ncols: usize) -> Self {
        assert!(ncols > 0, "zone map needs at least one column");
        Self {
            nrows: 0,
            mins: vec![f64::INFINITY; ncols],
            maxs: vec![f64::NEG_INFINITY; ncols],
        }
    }

    /// Rows observed so far.
    pub fn num_rows(&self) -> u64 {
        self.nrows
    }

    /// Folds one row into the summary.
    ///
    /// # Panics
    ///
    /// Panics if the row arity differs from the map's.
    pub fn observe(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.mins.len(), "row arity mismatch");
        for ((lo, hi), &v) in self.mins.iter_mut().zip(&mut self.maxs).zip(row) {
            *lo = lo.min(v);
            *hi = hi.max(v);
        }
        self.nrows += 1;
    }

    /// The whole-heap `(mins, maxs)` summary, or `None` for an empty map.
    pub fn segment_bounds(&self) -> Option<(&[f64], &[f64])> {
        (self.nrows > 0).then_some((&self.mins[..], &self.maxs[..]))
    }

    /// The sidecar path for a heap stored at `heap_path`.
    pub fn sidecar_path(heap_path: &Path) -> PathBuf {
        let mut os = heap_path.as_os_str().to_os_string();
        os.push(".zones");
        PathBuf::from(os)
    }

    /// Serializes the map (little-endian, fixed layout): the header, then
    /// the column minimums, then the maximums.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER + self.mins.len() * 16);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&(self.mins.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.nrows.to_le_bytes());
        for v in self.mins.iter().chain(&self.maxs) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Writes the sidecar for `heap_path` atomically, synced when `sync`:
    /// it is derived data, rebuilt from the heap when missing or stale, but
    /// one a crash left torn behind a valid header would pass for current.
    pub fn save(&self, vfs: &dyn Vfs, heap_path: &Path, sync: bool) -> Result<()> {
        write_atomic(vfs, &Self::sidecar_path(heap_path), &self.to_bytes(), sync)
    }

    /// Loads the sidecar for `heap_path`, returning `None` when it is
    /// missing, malformed, or stale (`ncols`/`nrows` disagree with the
    /// heap meta). A stale map is deleted so it cannot be mistaken for
    /// current later, once the heap has grown to its row count again.
    pub fn load(vfs: &dyn Vfs, heap_path: &Path, ncols: usize, nrows: u64) -> Result<Option<Self>> {
        let path = Self::sidecar_path(heap_path);
        let bytes = match vfs.read(&path) {
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
            read => read?,
        };
        let map = Self::from_bytes(&bytes).filter(|m| m.mins.len() == ncols && m.nrows == nrows);
        if map.is_none() {
            vfs.remove_file(&path)?;
        }
        Ok(map)
    }

    /// The map `b` serializes, if it is a well-formed one.
    fn from_bytes(b: &[u8]) -> Option<ZoneMap> {
        if b.len() < HEADER || u32::from_le_bytes(arr(b, 0)) != MAGIC {
            return None;
        }
        let ncols = u32::from_le_bytes(arr(b, 4)) as usize;
        if ncols == 0 || b.len() as u128 != HEADER as u128 + ncols as u128 * 16 {
            return None;
        }
        let values: Vec<f64> = b[HEADER..]
            .chunks_exact(8)
            .map(|v| f64::from_le_bytes(arr(v, 0)))
            .collect();
        let (mins, maxs) = values.split_at(ncols);
        Some(ZoneMap {
            nrows: u64::from_le_bytes(arr(b, 8)),
            mins: mins.to_vec(),
            maxs: maxs.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::OsVfs;

    #[test]
    fn observe_tracks_the_whole_heap_min_max() {
        let mut z = ZoneMap::new(2);
        assert!(z.segment_bounds().is_none());
        z.observe(&[1.0, -5.0]);
        z.observe(&[3.0, -1.0]);
        z.observe(&[10.0, 0.0]);
        assert_eq!(z.num_rows(), 3);
        let (mins, maxs) = z.segment_bounds().unwrap();
        assert_eq!(mins, &[1.0, -5.0]);
        assert_eq!(maxs, &[10.0, 0.0]);
    }

    #[test]
    fn sidecar_roundtrip_and_staleness() {
        let dir = std::env::temp_dir().join(format!("segdiff-zones-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let heap = dir.join("t.tbl");
        let mut z = ZoneMap::new(3);
        z.observe(&[1.0, 2.0, 3.0]);
        z.observe(&[-1.0, 0.0, 9.0]);
        z.observe(&[5.0, 5.0, 5.0]);
        z.save(&OsVfs, &heap, false).unwrap();
        assert_eq!(
            std::fs::metadata(ZoneMap::sidecar_path(&heap))
                .unwrap()
                .len(),
            16 + 3 * 16
        );
        let loaded = ZoneMap::load(&OsVfs, &heap, 3, 3)
            .unwrap()
            .expect("valid sidecar loads");
        assert_eq!(loaded.segment_bounds(), z.segment_bounds());
        // Column-count mismatch: discarded + deleted.
        assert!(ZoneMap::load(&OsVfs, &heap, 2, 3).unwrap().is_none());
        z.save(&OsVfs, &heap, false).unwrap();
        // Row-count mismatch (e.g. recovery truncation): discarded + deleted.
        assert!(ZoneMap::load(&OsVfs, &heap, 3, 1).unwrap().is_none());
        assert!(
            !ZoneMap::sidecar_path(&heap).exists(),
            "stale sidecar must be deleted"
        );
        // Malformed bytes: rejected.
        std::fs::write(ZoneMap::sidecar_path(&heap), b"junk").unwrap();
        assert!(ZoneMap::load(&OsVfs, &heap, 3, 2).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_sidecar_is_none() {
        let heap = std::env::temp_dir().join("segdiff-zones-missing.tbl");
        assert!(ZoneMap::load(&OsVfs, &heap, 2, 0).unwrap().is_none());
    }
}
