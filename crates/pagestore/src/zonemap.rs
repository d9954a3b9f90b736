//! Hierarchical zone maps: page / extent / segment min-max summaries.
//!
//! A zone map holds, for every data page of a heap, the minimum and
//! maximum of each column over the rows stored on that page. A sequential
//! scan with a *conservative* predicate (one that returns `true` whenever
//! any row in the summarized range could match) may then skip whole pages
//! without reading them — MacroBase-style pruning adapted to the feature
//! tables' corner columns.
//!
//! The summaries are stacked three levels deep in the same sidecar:
//!
//! * **page** — one entry per data page, as before;
//! * **extent** — one entry per [`EXTENT_PAGES`] consecutive data pages,
//!   so a selective scan over a large heap rejects 64 pages with one
//!   comparison and never touches their page entries;
//! * **segment** — a single whole-heap entry, letting a query plan skip
//!   an entire table (or answer a coarse "did anything in this heap ever
//!   reach the region?" probe) without walking the extent level.
//!
//! Every level is maintained by the same [`ZoneMap::observe`] fold, so the
//! hierarchy is consistent by construction: an upper entry always envelops
//! the entries below it, and pruning with the same predicate at every
//! level is lossless.
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

/// Version-2 magic ("SDZH" — zone hierarchy). Version-1 flat sidecars
/// fail this check and are discarded/rebuilt on first open.
const MAGIC: u32 = 0x5344_5A48;

/// Data pages summarized by one extent entry.
pub const EXTENT_PAGES: u32 = 64;

/// Hierarchical min/max summaries of every column of a heap file.
///
/// Data pages start at 1 (page 0 is the heap meta page); page `p` maps to
/// page entry `p - 1` and extent entry `(p - 1) / EXTENT_PAGES`. Entries
/// are stored page-major: `mins[(p-1)*ncols + c]` is the minimum of
/// column `c` on page `p`.
#[derive(Debug, Clone)]
pub struct ZoneMap {
    ncols: usize,
    /// Rows observed; must equal the heap's row count to be valid.
    nrows: u64,
    mins: Vec<f64>,
    maxs: Vec<f64>,
    ext_mins: Vec<f64>,
    ext_maxs: Vec<f64>,
    seg_mins: Vec<f64>,
    seg_maxs: Vec<f64>,
}

impl ZoneMap {
    /// An empty zone map for rows of `ncols` columns.
    pub fn new(ncols: usize) -> Self {
        assert!(ncols > 0, "zone map needs at least one column");
        Self {
            ncols,
            nrows: 0,
            mins: Vec::new(),
            maxs: Vec::new(),
            ext_mins: Vec::new(),
            ext_maxs: Vec::new(),
            seg_mins: Vec::new(),
            seg_maxs: Vec::new(),
        }
    }

    /// Number of data pages covered.
    pub fn pages(&self) -> u32 {
        (self.mins.len() / self.ncols) as u32
    }

    /// Number of extent entries covering those pages.
    pub fn extents(&self) -> u32 {
        (self.ext_mins.len() / self.ncols) as u32
    }

    /// Rows observed so far.
    pub fn num_rows(&self) -> u64 {
        self.nrows
    }

    /// The extent entry index covering data page `page`.
    pub fn extent_of(page: u32) -> u32 {
        debug_assert!(page > 0, "data pages start at 1");
        (page - 1) / EXTENT_PAGES
    }

    /// The data pages covered by extent entry `ext` (intersect with the
    /// heap's actual page range before use).
    pub fn extent_pages(ext: u32) -> std::ops::Range<u32> {
        1 + ext * EXTENT_PAGES..1 + (ext + 1) * EXTENT_PAGES
    }

    /// Folds one row stored on data page `page` into all three levels.
    ///
    /// # Panics
    ///
    /// Panics if `page == 0` (the meta page holds no rows) or the row
    /// arity differs from the map's.
    pub fn observe(&mut self, page: u32, row: &[f64]) {
        assert!(page > 0, "data pages start at 1");
        assert_eq!(row.len(), self.ncols, "row arity mismatch");
        let want = page as usize * self.ncols;
        if self.mins.len() < want {
            self.mins.resize(want, f64::INFINITY);
            self.maxs.resize(want, f64::NEG_INFINITY);
        }
        let ext = Self::extent_of(page);
        let ext_want = (ext as usize + 1) * self.ncols;
        if self.ext_mins.len() < ext_want {
            self.ext_mins.resize(ext_want, f64::INFINITY);
            self.ext_maxs.resize(ext_want, f64::NEG_INFINITY);
        }
        if self.seg_mins.is_empty() {
            self.seg_mins.resize(self.ncols, f64::INFINITY);
            self.seg_maxs.resize(self.ncols, f64::NEG_INFINITY);
        }
        let base = (page as usize - 1) * self.ncols;
        let ebase = ext as usize * self.ncols;
        for (c, &v) in row.iter().enumerate() {
            let m = &mut self.mins[base + c];
            *m = m.min(v);
            let m = &mut self.maxs[base + c];
            *m = m.max(v);
            let m = &mut self.ext_mins[ebase + c];
            *m = m.min(v);
            let m = &mut self.ext_maxs[ebase + c];
            *m = m.max(v);
            let m = &mut self.seg_mins[c];
            *m = m.min(v);
            let m = &mut self.seg_maxs[c];
            *m = m.max(v);
        }
        self.nrows += 1;
    }

    /// The `(mins, maxs)` column summaries of data page `page`, or `None`
    /// when the page is not covered (no rows observed there).
    pub fn page_bounds(&self, page: u32) -> Option<(&[f64], &[f64])> {
        if page == 0 || page > self.pages() {
            return None;
        }
        let base = (page as usize - 1) * self.ncols;
        Some((
            &self.mins[base..base + self.ncols],
            &self.maxs[base..base + self.ncols],
        ))
    }

    /// The `(mins, maxs)` summaries of extent entry `ext`, or `None` when
    /// no observed page falls in that extent.
    pub fn extent_bounds(&self, ext: u32) -> Option<(&[f64], &[f64])> {
        if ext >= self.extents() {
            return None;
        }
        let base = ext as usize * self.ncols;
        Some((
            &self.ext_mins[base..base + self.ncols],
            &self.ext_maxs[base..base + self.ncols],
        ))
    }

    /// The whole-heap `(mins, maxs)` summary, or `None` for an empty map.
    pub fn segment_bounds(&self) -> Option<(&[f64], &[f64])> {
        if self.seg_mins.is_empty() {
            return None;
        }
        Some((&self.seg_mins[..], &self.seg_maxs[..]))
    }

    /// The sidecar path for a heap stored at `heap_path`.
    pub fn sidecar_path(heap_path: &Path) -> PathBuf {
        let mut os = heap_path.as_os_str().to_os_string();
        os.push(".zones");
        PathBuf::from(os)
    }

    /// Serializes the map (little-endian, fixed layout).
    fn to_bytes(&self) -> Vec<u8> {
        let npages = self.pages();
        let next = self.extents();
        let seg = if self.seg_mins.is_empty() { 0u32 } else { 1 };
        let mut out = Vec::with_capacity(
            32 + (self.mins.len() + self.ext_mins.len() + self.seg_mins.len()) * 16,
        );
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&(self.ncols as u32).to_le_bytes());
        out.extend_from_slice(&self.nrows.to_le_bytes());
        out.extend_from_slice(&npages.to_le_bytes());
        out.extend_from_slice(&[0; 2]); // reserved (once a page-format stamp)
        out.extend_from_slice(&(EXTENT_PAGES as u16).to_le_bytes());
        out.extend_from_slice(&next.to_le_bytes());
        out.extend_from_slice(&seg.to_le_bytes());
        let mut dump = |vals: &[f64]| {
            for v in vals {
                out.extend_from_slice(&v.to_le_bytes());
            }
        };
        dump(&self.mins);
        dump(&self.maxs);
        dump(&self.ext_mins);
        dump(&self.ext_maxs);
        dump(&self.seg_mins);
        dump(&self.seg_maxs);
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
        let map = Self::from_bytes(&bytes).filter(|m| m.ncols == ncols && m.nrows == nrows);
        if map.is_none() {
            vfs.remove_file(&path)?;
        }
        Ok(map)
    }

    /// The map `b` serializes, if it is a well-formed one.
    fn from_bytes(b: &[u8]) -> Option<ZoneMap> {
        let word = |at: usize| u32::from_le_bytes(arr(b, at)) as usize;
        if b.len() < 32 || word(0) != MAGIC as usize {
            return None;
        }
        let (ncols, npages, next, seg) = (word(4), word(16), word(24), word(28));
        let ext_pages = u16::from_le_bytes(arr(b, 22)) as u32;
        let expected_ext = (npages as u32).div_ceil(EXTENT_PAGES) as usize;
        if ncols == 0 || ext_pages != EXTENT_PAGES || next != expected_ext || seg > 1 {
            return None;
        }
        let entries = (npages + next + seg).checked_mul(ncols)?;
        if b.len() as u128 != 32 + entries as u128 * 16 {
            return None;
        }
        let mut values = b[32..]
            .chunks_exact(8)
            .map(|v| f64::from_le_bytes(arr(v, 0)));
        let mut take = |count: usize| values.by_ref().take(count * ncols).collect();
        Some(ZoneMap {
            ncols,
            nrows: u64::from_le_bytes(arr(b, 8)),
            mins: take(npages),
            maxs: take(npages),
            ext_mins: take(next),
            ext_maxs: take(next),
            seg_mins: take(seg),
            seg_maxs: take(seg),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::OsVfs;

    #[test]
    fn observe_tracks_min_max_per_page() {
        let mut z = ZoneMap::new(2);
        z.observe(1, &[1.0, -5.0]);
        z.observe(1, &[3.0, -1.0]);
        z.observe(2, &[10.0, 0.0]);
        assert_eq!(z.pages(), 2);
        assert_eq!(z.num_rows(), 3);
        let (mins, maxs) = z.page_bounds(1).unwrap();
        assert_eq!(mins, &[1.0, -5.0]);
        assert_eq!(maxs, &[3.0, -1.0]);
        let (mins, maxs) = z.page_bounds(2).unwrap();
        assert_eq!(mins, &[10.0, 0.0]);
        assert_eq!(maxs, &[10.0, 0.0]);
        assert!(z.page_bounds(0).is_none());
        assert!(z.page_bounds(3).is_none());
    }

    #[test]
    fn upper_levels_envelop_lower_levels() {
        let mut z = ZoneMap::new(1);
        // Pages 1 and 64 fall in extent 0; page 65 starts extent 1.
        z.observe(1, &[5.0]);
        z.observe(64, &[-2.0]);
        z.observe(65, &[100.0]);
        assert_eq!(z.extents(), 2);
        assert_eq!(ZoneMap::extent_of(64), 0);
        assert_eq!(ZoneMap::extent_of(65), 1);
        assert_eq!(ZoneMap::extent_pages(1), 65..129);
        let (emin, emax) = z.extent_bounds(0).unwrap();
        assert_eq!((emin[0], emax[0]), (-2.0, 5.0));
        let (emin, emax) = z.extent_bounds(1).unwrap();
        assert_eq!((emin[0], emax[0]), (100.0, 100.0));
        let (smin, smax) = z.segment_bounds().unwrap();
        assert_eq!((smin[0], smax[0]), (-2.0, 100.0));
        // Every page entry is enveloped by its extent and the segment.
        for p in [1u32, 64, 65] {
            let (pmin, pmax) = z.page_bounds(p).unwrap();
            let (emin, emax) = z.extent_bounds(ZoneMap::extent_of(p)).unwrap();
            assert!(emin[0] <= pmin[0] && emax[0] >= pmax[0]);
            assert!(smin[0] <= pmin[0] && smax[0] >= pmax[0]);
        }
        assert!(z.extent_bounds(2).is_none());
        assert!(ZoneMap::new(1).segment_bounds().is_none());
    }

    #[test]
    fn sidecar_roundtrip_and_staleness() {
        let dir = std::env::temp_dir().join(format!("segdiff-zones-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let heap = dir.join("t.tbl");
        let mut z = ZoneMap::new(3);
        z.observe(1, &[1.0, 2.0, 3.0]);
        z.observe(2, &[-1.0, 0.0, 9.0]);
        z.observe(70, &[5.0, 5.0, 5.0]);
        z.save(&OsVfs, &heap, false).unwrap();
        let loaded = ZoneMap::load(&OsVfs, &heap, 3, 3)
            .unwrap()
            .expect("valid sidecar loads");
        assert_eq!(loaded.page_bounds(2), z.page_bounds(2));
        assert_eq!(loaded.extent_bounds(1), z.extent_bounds(1));
        assert_eq!(loaded.segment_bounds(), z.segment_bounds());
        // Bytes 20..22 are reserved: earlier releases stamped a page format
        // there, and their sidecars still load.
        let mut stamped = std::fs::read(ZoneMap::sidecar_path(&heap)).unwrap();
        assert_eq!(stamped[20..22], [0, 0]);
        stamped[20] = 1;
        std::fs::write(ZoneMap::sidecar_path(&heap), stamped).unwrap();
        assert!(ZoneMap::load(&OsVfs, &heap, 3, 3).unwrap().is_some());
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
    fn v1_flat_sidecars_are_rejected() {
        let dir = std::env::temp_dir().join(format!("segdiff-zones-v1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let heap = dir.join("t.tbl");
        // A well-formed version-1 sidecar (old magic "SDZM", flat layout).
        let mut v1 = Vec::new();
        v1.extend_from_slice(&0x5344_5A4Du32.to_le_bytes());
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&1u64.to_le_bytes());
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&[0u8; 4]);
        v1.extend_from_slice(&1.0f64.to_le_bytes());
        v1.extend_from_slice(&1.0f64.to_le_bytes());
        std::fs::write(ZoneMap::sidecar_path(&heap), &v1).unwrap();
        assert!(
            ZoneMap::load(&OsVfs, &heap, 1, 1).unwrap().is_none(),
            "v1 must not load"
        );
        assert!(!ZoneMap::sidecar_path(&heap).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_sidecar_is_none() {
        let heap = std::env::temp_dir().join("segdiff-zones-missing.tbl");
        assert!(ZoneMap::load(&OsVfs, &heap, 2, 0).unwrap().is_none());
    }
}
