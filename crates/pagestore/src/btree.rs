//! A disk-backed B+tree holding a multiset of fixed-width byte-string keys.
//!
//! This is the engine's analogue of the paper's "B-tree index ... on the
//! concatenation of" feature columns (§4.4): keys are order-preserving
//! encodings of column tuples that end in the heap row id (see
//! [`crate::encode`]), so an entry is its key and nothing else — the row
//! id is stored once. Only insert and inclusive range scans are provided
//! — the workload is append-then-query, matching the paper's
//! one-time-search setting.

use crate::buffer::BufferPool;
use crate::error::Result;
use crate::page::{self, PageBuf};
use crate::pagefile::{FileId, PageId};
use crate::{StoreError, PAGE_SIZE};
use std::sync::Arc;

/// "SDBK": trees of keys alone. A file with the magic of the layout this
/// one replaced ("SDBT": every leaf entry a key and a `u64` value) is not
/// a valid tree, so [`crate::Database::open`] rebuilds it from its heap.
const MAGIC: u32 = 0x5344_424B;
const META_PAGE: u32 = 0;
const HDR: usize = 8; // kind u8, pad u8, nkeys u16, next/child0 u32
const KIND_LEAF: u8 = 0;
const KIND_INTERNAL: u8 = 1;
/// Sentinel for "no next leaf".
const NO_PAGE: u32 = u32::MAX;
/// Widest key a tree takes: four separators, each with its child pointer,
/// must fit an internal node.
pub(crate) const MAX_KEY_WIDTH: usize = (PAGE_SIZE - HDR) / 4 - 4;
/// No tree is taller: an internal node has at least two children and a
/// file at most 2³² pages.
const MAX_HEIGHT: usize = 32;

/// Global-registry counters for index activity (`btree.*`), shared by
/// every tree in the process. The table layer counts what happens in a
/// tree's write buffer: an entry received, an entry scanned there.
pub(crate) struct BTreeMetrics {
    pub(crate) inserts: Arc<obs::Counter>,
    applies: Arc<obs::Counter>,
    apply_leaves: Arc<obs::Counter>,
    range_scans: Arc<obs::Counter>,
    pub(crate) entries_scanned: Arc<obs::Counter>,
}

impl BTreeMetrics {
    fn new() -> Self {
        let r = obs::global();
        BTreeMetrics {
            inserts: r.counter("btree.inserts"),
            applies: r.counter("btree.applies"),
            apply_leaves: r.counter("btree.apply_leaves"),
            range_scans: r.counter("btree.range_scans"),
            entries_scanned: r.counter("btree.entries_scanned"),
        }
    }
}

/// A B+tree index. See the module docs.
///
/// A tree with no applied entry owns no page: its file is empty, and its
/// key width is the catalogue's. The first entry applied takes page 0, the
/// meta page (magic, key width, root, height, entry count), and page 1,
/// the root leaf.
pub struct BTree {
    pool: Arc<BufferPool>,
    fid: FileId,
    key_width: usize,
    root: PageId,
    height: u32,
    count: u64,
    leaf_cap: usize,
    int_cap: usize,
    metrics: BTreeMetrics,
}

impl BTree {
    /// Opens the tree in file `fid`, of keys exactly `key_width` bytes wide
    /// (the catalogue's width; a meta page that says otherwise, or a width
    /// no page holds four of, is corrupt). A file of no page — a new tree,
    /// or one rebuilt over no row — is an empty tree.
    pub fn open(pool: Arc<BufferPool>, fid: FileId, key_width: usize) -> Result<Self> {
        if key_width == 0 || key_width > MAX_KEY_WIDTH {
            return Err(StoreError::Corrupt(format!("btree key width {key_width}")));
        }
        let (magic, kw, root, height, count) = match pool.file_pages(fid) {
            0 => (MAGIC, key_width, NO_PAGE, 0, 0),
            _ => pool.with_page(fid, META_PAGE, |b| {
                (
                    page::get_u32(b, 0),
                    page::get_u16(b, 4) as usize,
                    page::get_u32(b, 8),
                    page::get_u32(b, 12),
                    page::get_u64(b, 16),
                )
            })?,
        };
        if magic != MAGIC {
            return Err(StoreError::Corrupt("btree file has bad magic".into()));
        }
        if kw != key_width {
            return Err(StoreError::Corrupt(format!(
                "btree key width {kw}, the catalogue's keys are {key_width} bytes"
            )));
        }
        Ok(Self {
            leaf_cap: (PAGE_SIZE - HDR) / kw,
            int_cap: (PAGE_SIZE - HDR) / (kw + 4),
            pool,
            fid,
            key_width: kw,
            root,
            height,
            count,
            metrics: BTreeMetrics::new(),
        })
    }

    /// Gives a tree that owns no page its meta page and its root leaf: the
    /// first entry's pages.
    fn take_first_pages(&mut self) -> Result<()> {
        if self.pool.file_pages(self.fid) > 0 {
            return Ok(());
        }
        let meta = self.pool.allocate_page(self.fid)?;
        debug_assert_eq!(meta, META_PAGE);
        self.root = self.pool.allocate_page(self.fid)?;
        self.pool.with_page_mut(self.fid, self.root, |b| {
            b[0] = KIND_LEAF;
            page::put_u16(b, 2, 0);
            page::put_u32(b, 4, NO_PAGE);
        })?;
        self.write_meta()
    }

    fn write_meta(&self) -> Result<()> {
        self.pool.with_page_mut(self.fid, META_PAGE, |b| {
            page::put_u32(b, 0, MAGIC);
            page::put_u16(b, 4, self.key_width as u16);
            page::put_u32(b, 8, self.root);
            page::put_u32(b, 12, self.height);
            page::put_u64(b, 16, self.count);
        })
    }

    /// Persists root/height/count to the meta page; a tree with no entry
    /// has none to write.
    pub fn sync_meta(&self) -> Result<()> {
        if self.count == 0 {
            return Ok(());
        }
        self.write_meta()
    }

    /// Number of stored entries.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Key width in bytes.
    pub fn key_width(&self) -> usize {
        self.key_width
    }

    pub(crate) fn metrics(&self) -> &BTreeMetrics {
        &self.metrics
    }

    /// Counts this tree's scanned entries into a counter of its own from
    /// here on, and returns it: tests that assert exact counts run beside
    /// other tests' scans, which move the process-wide counter.
    #[cfg(test)]
    pub(crate) fn count_scans_apart(&mut self) -> Arc<obs::Counter> {
        self.metrics.entries_scanned = Arc::new(obs::Counter::default());
        self.metrics.entries_scanned.clone()
    }

    /// Bytes used on disk.
    pub fn size_bytes(&self) -> u64 {
        self.pool.file_size_bytes(self.fid)
    }

    /// The pool file id this tree lives in (for in-place rebuilds).
    pub(crate) fn fid(&self) -> FileId {
        self.fid
    }

    /// Tree height (0 = the root is a leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Inserts one key. Duplicate keys are allowed and kept adjacent (the
    /// engine ends every key in a unique row id anyway). Tables write
    /// through [`BTree::insert_sorted`]; this is the step it takes for a
    /// key whose leaf is full, and the oracle its tests compare to.
    pub fn insert(&mut self, key: &[u8]) -> Result<()> {
        assert_eq!(key.len(), self.key_width, "key width mismatch");
        self.take_first_pages()?;
        // Descend, recording the path of internal pages.
        let mut path = [NO_PAGE; MAX_HEIGHT];
        let mut depth = self.height as usize;
        let mut pid = self.root;
        for slot in &mut path[..depth] {
            *slot = pid;
            pid = self.child_for(pid, key, None)?;
        }
        // Fast path: leaf has room.
        let kw = self.key_width;
        let cap = self.leaf_cap;
        let inserted = self.pool.with_page_mut(self.fid, pid, |b| {
            let n = page::get_u16(b, 2) as usize;
            if n >= cap {
                return false;
            }
            let start = HDR + leaf_lower_bound(b, n, kw, key) * kw;
            b.copy_within(start..HDR + n * kw, start + kw);
            b[start..start + kw].copy_from_slice(key);
            page::put_u16(b, 2, (n + 1) as u16);
            true
        })?;
        if inserted {
            self.count += 1;
            return Ok(());
        }
        // Slow path: split the leaf, then propagate.
        let (mut sep, mut new_pid) = self.split_leaf(pid, key)?;
        self.count += 1;
        while depth > 0 {
            depth -= 1;
            match self.internal_insert(path[depth], &sep, new_pid)? {
                None => return Ok(()),
                Some((s, p)) => {
                    sep = s;
                    new_pid = p;
                }
            }
        }
        // The root itself split: grow the tree.
        let new_root = self.pool.allocate_page(self.fid)?;
        let (old_root, kw) = (self.root, self.key_width);
        self.pool.with_page_mut(self.fid, new_root, |b| {
            b[0] = KIND_INTERNAL;
            page::put_u16(b, 2, 1);
            page::put_u32(b, 4, old_root);
            b[HDR..HDR + kw].copy_from_slice(&sep);
            page::put_u32(b, HDR + kw, new_pid);
        })?;
        self.root = new_root;
        self.height += 1;
        Ok(())
    }

    /// Inserts `n` keys that are **already sorted** — `entry(0)`, …,
    /// `entry(n - 1)` — visiting each leaf they touch once instead of once
    /// per key. One descent finds the leaf of the next key and that leaf's
    /// upper fence (the tightest separator above the key on the path);
    /// every following key below the fence that still fits is merged into
    /// the leaf in the same backward pass. Only a key that finds its leaf
    /// full goes through [`BTree::insert`] and its split. The tree ends up holding what `n` single inserts would
    /// have stored; page contents may differ from theirs, but are a pure
    /// function of the tree and the run.
    ///
    /// # Panics
    ///
    /// Panics if a key has the wrong width or the run is not sorted.
    pub fn insert_sorted<'a>(&mut self, n: usize, entry: impl Fn(usize) -> &'a [u8]) -> Result<()> {
        self.metrics.applies.inc();
        if n > 0 {
            self.take_first_pages()?;
        }
        let kw = self.key_width;
        let cap = self.leaf_cap;
        let mut fence = Vec::new();
        let mut i = 0;
        while i < n {
            let key = entry(i);
            assert_eq!(key.len(), kw, "key width mismatch");
            fence.clear();
            let mut pid = self.root;
            for _ in 0..self.height {
                pid = self.child_for(pid, key, Some(&mut fence))?;
            }
            self.metrics.apply_leaves.inc();
            let taken = self.pool.with_page_mut(self.fid, pid, |b| {
                let have = page::get_u16(b, 2) as usize;
                // The run this leaf takes: below its fence, as many as fit.
                let mut take = 0;
                while take < cap - have && i + take < n {
                    let next = entry(i + take);
                    if i + take > 0 {
                        let sorted = key_cmp(entry(i + take - 1), next).is_le();
                        assert!(sorted, "insert_sorted input must be sorted");
                    }
                    if !fence.is_empty() && key_cmp(next, &fence).is_ge() {
                        break;
                    }
                    take += 1;
                }
                // Merge from the back: each stored entry moves at most
                // once, straight to its final slot. `src` and `dst` are
                // the exclusive ends of what is still to be placed and of
                // the room left for it. The page is walked, not searched:
                // the whole of it is touched anyway, and in address order
                // a cold page streams in where a binary search would
                // stall on every probe.
                let (mut src, mut dst) = (have, have + take);
                for j in (i..i + take).rev() {
                    let k = entry(j);
                    let mut pos = src;
                    while pos > 0 && key_cmp(&b[HDR + (pos - 1) * kw..][..kw], k).is_ge() {
                        pos -= 1;
                    }
                    dst -= src - pos;
                    b.copy_within(HDR + pos * kw..HDR + src * kw, HDR + dst * kw);
                    src = pos;
                    dst -= 1;
                    b[HDR + dst * kw..][..kw].copy_from_slice(k);
                }
                page::put_u16(b, 2, (have + take) as u16);
                take
            })?;
            if taken == 0 {
                self.insert(key)?;
                i += 1;
            } else {
                self.count += taken as u64;
                i += taken;
            }
        }
        Ok(())
    }

    /// Builds a tree in the freshly created file `fid` from keys that are
    /// **already sorted** (duplicates allowed). Orders of magnitude faster
    /// than repeated [`BTree::insert`]: leaves are written left to right at
    /// a ~90% fill factor and the internal levels are assembled bottom-up
    /// with no page ever touched twice. No key writes no page.
    ///
    /// # Panics
    ///
    /// Panics if a key has the wrong width or the input is not sorted.
    pub fn bulk_load<'a>(
        pool: Arc<BufferPool>,
        fid: FileId,
        key_width: usize,
        keys: impl IntoIterator<Item = &'a [u8]>,
    ) -> Result<Self> {
        let mut tree = Self::open(pool, fid, key_width)?;
        let mut keys = keys.into_iter().peekable();
        if keys.peek().is_none() {
            return Ok(tree);
        }
        tree.take_first_pages()?;
        let kw = key_width;
        let fill = (tree.leaf_cap * 9 / 10).max(1);

        // Phase 1: fill leaves. The first leaf is the root page the first
        // key took.
        let mut leaves: Vec<(Vec<u8>, PageId)> = Vec::new(); // (first key, pid)
        let mut current = tree.root;
        let mut in_page = 0usize;
        let mut count = 0u64;
        let mut prev_key: Option<Vec<u8>> = None;
        for key in keys {
            assert_eq!(key.len(), kw, "key width mismatch");
            if let Some(prev) = &prev_key {
                assert!(prev.as_slice() <= key, "bulk_load input must be sorted");
            }
            if in_page == fill {
                // Seal this leaf and chain a new one.
                let next = tree.pool.allocate_page(fid)?;
                tree.pool.with_page_mut(fid, current, |b| {
                    page::put_u32(b, 4, next);
                })?;
                tree.pool.with_page_mut(fid, next, |b| {
                    b[0] = KIND_LEAF;
                    page::put_u16(b, 2, 0);
                    page::put_u32(b, 4, NO_PAGE);
                })?;
                current = next;
                in_page = 0;
            }
            if in_page == 0 {
                leaves.push((key.to_vec(), current));
            }
            let off = HDR + in_page * kw;
            tree.pool.with_page_mut(fid, current, |b| {
                b[off..off + kw].copy_from_slice(key);
                page::put_u16(b, 2, (in_page + 1) as u16);
            })?;
            in_page += 1;
            count += 1;
            prev_key = Some(key.to_vec());
        }
        tree.count = count;
        if leaves.len() <= 1 {
            tree.write_meta()?;
            return Ok(tree);
        }

        // Phase 2: build internal levels bottom-up.
        let int_esz = kw + 4;
        let int_fill = (tree.int_cap * 9 / 10).max(2);
        let mut level = leaves;
        while level.len() > 1 {
            let mut upper: Vec<(Vec<u8>, PageId)> = Vec::new();
            let mut i = 0;
            while i < level.len() {
                let take = int_fill.min(level.len() - i).max(1);
                let chunk = &level[i..i + take];
                let pid = tree.pool.allocate_page(fid)?;
                tree.pool.with_page_mut(fid, pid, |b| {
                    b[0] = KIND_INTERNAL;
                    page::put_u16(b, 2, (chunk.len() - 1) as u16);
                    page::put_u32(b, 4, chunk[0].1);
                    for (k, (sep, child)) in chunk[1..].iter().enumerate() {
                        let off = HDR + k * int_esz;
                        b[off..off + kw].copy_from_slice(sep);
                        page::put_u32(b, off + kw, *child);
                    }
                })?;
                upper.push((chunk[0].0.clone(), pid));
                i += take;
            }
            level = upper;
            tree.height += 1;
        }
        tree.root = level[0].1;
        tree.write_meta()?;
        Ok(tree)
    }

    /// Visits every key with `lo <= key <= hi` in key order. Returning
    /// `false` from the visitor stops the scan.
    ///
    /// Leaf pages are copied out of the pool before the visitor runs, so
    /// the visitor may access other pool-backed structures.
    pub fn range(&self, lo: &[u8], hi: &[u8], mut visit: impl FnMut(&[u8]) -> bool) -> Result<()> {
        assert_eq!(lo.len(), self.key_width, "lo width mismatch");
        assert_eq!(hi.len(), self.key_width, "hi width mismatch");
        self.metrics.range_scans.inc();
        if lo > hi || self.count == 0 {
            return Ok(());
        }
        let mut pid = self.root;
        for _ in 0..self.height {
            pid = self.child_for_range_start(pid, lo)?;
        }
        let mut buf = PageBuf::zeroed();
        let mut first = true;
        loop {
            self.pool.read_page_into(self.fid, pid, &mut buf)?;
            let b = buf.bytes();
            debug_assert_eq!(b[0], KIND_LEAF);
            let n = page::get_u16(b, 2) as usize;
            let next = page::get_u32(b, 4);
            if !self.leaf_run(b, n, lo, first, hi, &mut visit) || next == NO_PAGE {
                return Ok(());
            }
            (pid, first) = (next, false);
        }
    }

    /// Visits one leaf's share of the range `[lo, hi]`: the entries of the
    /// `n`-entry leaf `b` from the first key `>= lo` (the leaf's first
    /// entry unless this is the `first` leaf of the range: a leaf a scan
    /// walked into holds no key below `lo`) up to the last key `<= hi`.
    /// The run is bounded before it is visited — a lower-bound search, one
    /// comparison of the leaf's last key with `hi`, an upper-bound search
    /// only in the leaf where the range ends — so the visit loop compares
    /// no key, and `btree.entries_scanned` moves once per run, by the
    /// number of calls `visit` received. Returns whether the range goes on
    /// into the next leaf: `false` once a key above `hi` turned up or
    /// `visit` returned `false`.
    fn leaf_run(
        &self,
        b: &[u8],
        n: usize,
        lo: &[u8],
        first: bool,
        hi: &[u8],
        mut visit: impl FnMut(&[u8]) -> bool,
    ) -> bool {
        let kw = self.key_width;
        let entries = &b[HDR..HDR + n * kw];
        let start = if first {
            leaf_lower_bound(b, n, kw, lo)
        } else {
            debug_assert!(n == 0 || key_cmp(&entries[..kw], lo).is_ge());
            0
        };
        let ends_here = n > 0 && key_cmp(&entries[(n - 1) * kw..], hi).is_gt();
        let end = if ends_here {
            let rest = &entries[start * kw..];
            start + partition_point(rest, n - start, kw, kw, |k| key_cmp(k, hi).is_le())
        } else {
            n
        };
        let mut visited = 0;
        let more = entries[start * kw..end * kw].chunks_exact(kw).all(|key| {
            visited += 1;
            visit(key)
        });
        self.metrics.entries_scanned.add(visited);
        more && !ends_here
    }

    /// Finds the child of internal node `pid` that covers `key`. When the
    /// node holds a separator above `key`, it replaces `fence`: the last
    /// one a descent leaves there bounds the leaf it ends in.
    fn child_for(&self, pid: PageId, key: &[u8], fence: Option<&mut Vec<u8>>) -> Result<PageId> {
        let kw = self.key_width;
        self.pool.with_page(self.fid, pid, |b| {
            debug_assert_eq!(b[0], KIND_INTERNAL);
            let n = page::get_u16(b, 2) as usize;
            // Largest entry with key <= search key, else child0.
            let pos = internal_upper_bound(b, n, kw, key);
            if let Some(fence) = fence.filter(|_| pos < n) {
                let off = HDR + pos * (kw + 4);
                fence.clear();
                fence.extend_from_slice(&b[off..off + kw]);
            }
            if pos == 0 {
                page::get_u32(b, 4)
            } else {
                let off = HDR + (pos - 1) * (kw + 4);
                page::get_u32(b, off + kw)
            }
        })
    }

    /// Like [`Self::child_for`], but descends to the *leftmost* child that
    /// can contain `key`: separators equal to `key` send the search left,
    /// so a range scan starting at `key` sees duplicates that ended up in
    /// an earlier leaf after a split.
    fn child_for_range_start(&self, pid: PageId, key: &[u8]) -> Result<PageId> {
        let kw = self.key_width;
        self.pool.with_page(self.fid, pid, |b| {
            debug_assert_eq!(b[0], KIND_INTERNAL);
            let n = page::get_u16(b, 2) as usize;
            // Count separators strictly below the key.
            let esz = kw + 4;
            let lo = partition_point(&b[HDR..], n, esz, kw, |k| key_cmp(k, key).is_lt());
            if lo == 0 {
                page::get_u32(b, 4)
            } else {
                let off = HDR + (lo - 1) * esz;
                page::get_u32(b, off + kw)
            }
        })
    }

    /// Splits the full leaf `pid` while inserting `key`; returns the
    /// separator (first key of the new right leaf) and the new page id.
    fn split_leaf(&mut self, pid: PageId, key: &[u8]) -> Result<(Vec<u8>, PageId)> {
        let kw = self.key_width;
        let mut old = PageBuf::zeroed();
        self.pool.read_page_into(self.fid, pid, &mut old)?;
        let old = old.bytes();
        let n = page::get_u16(old, 2) as usize;
        let next = page::get_u32(old, 4);

        // All n + 1 keys in order, as the bytes a page stores.
        let at = HDR + leaf_lower_bound(old, n, kw, key) * kw;
        let mut all = Vec::with_capacity((n + 1) * kw);
        all.extend_from_slice(&old[HDR..at]);
        all.extend_from_slice(key);
        all.extend_from_slice(&old[at..HDR + n * kw]);

        let mid = all.len() / kw / 2;
        let (left, right) = all.split_at(mid * kw);
        let new_pid = self.pool.allocate_page(self.fid)?;
        // Rewrite the left page (what lies past its entries stays).
        self.pool.with_page_mut(self.fid, pid, |b| {
            b[0] = KIND_LEAF;
            page::put_u16(b, 2, mid as u16);
            page::put_u32(b, 4, new_pid);
            b[HDR..HDR + left.len()].copy_from_slice(left);
        })?;
        // Fill the right page.
        self.pool.with_page_mut(self.fid, new_pid, |b| {
            b[0] = KIND_LEAF;
            page::put_u16(b, 2, (n + 1 - mid) as u16);
            page::put_u32(b, 4, next);
            b[HDR..HDR + right.len()].copy_from_slice(right);
        })?;
        Ok((right[..kw].to_vec(), new_pid))
    }

    /// Inserts (sep, child) into internal node `pid`; splits it when full,
    /// returning the promoted separator and new node.
    fn internal_insert(
        &mut self,
        pid: PageId,
        sep: &[u8],
        child: PageId,
    ) -> Result<Option<(Vec<u8>, PageId)>> {
        let kw = self.key_width;
        let esz = kw + 4;
        let cap = self.int_cap;
        let done = self.pool.with_page_mut(self.fid, pid, |b| {
            let n = page::get_u16(b, 2) as usize;
            if n >= cap {
                return false;
            }
            let pos = internal_upper_bound(b, n, kw, sep);
            let start = HDR + pos * esz;
            b.copy_within(start..HDR + n * esz, start + esz);
            b[start..start + kw].copy_from_slice(sep);
            page::put_u32(b, start + kw, child);
            page::put_u16(b, 2, (n + 1) as u16);
            true
        })?;
        if done {
            return Ok(None);
        }
        // Split: all n + 1 entries in key order as page bytes, the middle
        // one promoted (its key goes up, its child opens the right node).
        let mut old = PageBuf::zeroed();
        self.pool.read_page_into(self.fid, pid, &mut old)?;
        let old = old.bytes();
        let n = page::get_u16(old, 2) as usize;
        let child0 = page::get_u32(old, 4);
        let at = HDR + internal_upper_bound(old, n, kw, sep) * esz;
        let mut all = Vec::with_capacity((n + 1) * esz);
        all.extend_from_slice(&old[HDR..at]);
        all.extend_from_slice(sep);
        all.extend_from_slice(&child.to_le_bytes());
        all.extend_from_slice(&old[at..HDR + n * esz]);

        let mid = all.len() / esz / 2;
        let (left, rest) = all.split_at(mid * esz);
        let (promoted, right) = rest.split_at(esz);
        let new_pid = self.pool.allocate_page(self.fid)?;
        self.pool.with_page_mut(self.fid, pid, |b| {
            b[0] = KIND_INTERNAL;
            page::put_u16(b, 2, mid as u16);
            page::put_u32(b, 4, child0);
            b[HDR..HDR + left.len()].copy_from_slice(left);
        })?;
        self.pool.with_page_mut(self.fid, new_pid, |b| {
            b[0] = KIND_INTERNAL;
            page::put_u16(b, 2, (n - mid) as u16);
            page::put_u32(b, 4, page::get_u32(promoted, kw));
            b[HDR..HDR + right.len()].copy_from_slice(right);
        })?;
        Ok(Some((promoted[..kw].to_vec(), new_pid)))
    }
}

/// Byte-lexicographic order of two keys of one width. A width that is a
/// multiple of 8 — every key [`crate::encode`] builds — compares word by
/// word: big-endian words order as their bytes do.
pub(crate) fn key_cmp(a: &[u8], b: &[u8]) -> std::cmp::Ordering {
    let (words_a, words_b) = (a.chunks_exact(8), b.chunks_exact(8));
    if !words_a.remainder().is_empty() {
        return a.cmp(b);
    }
    for (x, y) in words_a.zip(words_b) {
        let (x, y) = (
            u64::from_be_bytes(page::arr(x, 0)),
            u64::from_be_bytes(page::arr(y, 0)),
        );
        if x != y {
            return x.cmp(&y);
        }
    }
    std::cmp::Ordering::Equal
}

/// How many of the `n` sorted entries in `entries` (`esz` bytes each, the
/// `kw`-byte key first) come before the first one whose key `before`
/// rejects.
fn partition_point(
    entries: &[u8],
    n: usize,
    esz: usize,
    kw: usize,
    before: impl Fn(&[u8]) -> bool,
) -> usize {
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if before(&entries[mid * esz..][..kw]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// First leaf index whose key is `>= key`.
fn leaf_lower_bound(b: &[u8], n: usize, kw: usize, key: &[u8]) -> usize {
    partition_point(&b[HDR..], n, kw, kw, |k| key_cmp(k, key).is_lt())
}

/// Number of internal entries with key `<= key` (insertion point for
/// separators, and the child selector during descent).
fn internal_upper_bound(b: &[u8], n: usize, kw: usize, key: &[u8]) -> usize {
    partition_point(&b[HDR..], n, kw + 4, kw, |k| key_cmp(k, key).is_le())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagefile::PageFile;
    use std::path::PathBuf;

    fn setup(name: &str, kw: usize) -> (Arc<BufferPool>, BTree, PathBuf) {
        let p = std::env::temp_dir().join(format!("pagestore-bt-{}-{name}", std::process::id()));
        let pool = Arc::new(BufferPool::new(128));
        let fid = pool.register_file(PageFile::create(&crate::OsVfs, &p).unwrap());
        let bt = BTree::open(pool.clone(), fid, kw).unwrap();
        (pool, bt, p)
    }

    fn key8(v: u64) -> [u8; 8] {
        v.to_be_bytes()
    }

    #[test]
    fn key_order_is_byte_order_at_every_width() {
        // Keys that differ in one byte only, at every position, so a word
        // compared in the wrong byte order would show.
        for width in [1, 7, 8, 12, 16, 24, 40] {
            let mut keys: Vec<Vec<u8>> = vec![vec![0x80; width]];
            for pos in 0..width {
                for byte in [0x00, 0x7F, 0x81, 0xFF] {
                    let mut k = vec![0x80; width];
                    k[pos] = byte;
                    keys.push(k);
                }
            }
            for a in &keys {
                for b in &keys {
                    assert_eq!(key_cmp(a, b), a.cmp(b), "{a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn insert_and_full_range() {
        let (_pool, mut bt, p) = setup("basic", 8);
        for i in (0..1000u64).rev() {
            bt.insert(&key8(i * 10)).unwrap();
        }
        assert_eq!(bt.len(), 1000);
        let mut seen = Vec::new();
        bt.range(&key8(0), &key8(u64::MAX), |k| {
            seen.push(u64::from_be_bytes(k.try_into().unwrap()));
            true
        })
        .unwrap();
        assert!(seen.into_iter().eq((0..1000u64).map(|i| i * 10)));
        assert!(bt.height() >= 1, "1000 keys of width 8 must split");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn partial_ranges_inclusive() {
        let (_pool, mut bt, p) = setup("ranges", 8);
        for i in 0..500u64 {
            bt.insert(&key8(i * 2)).unwrap(); // even keys only
        }
        let mut seen = Vec::new();
        bt.range(&key8(10), &key8(20), |k| {
            seen.push(u64::from_be_bytes(k.try_into().unwrap()));
            true
        })
        .unwrap();
        assert_eq!(seen, vec![10, 12, 14, 16, 18, 20]);
        // Bounds not present in the tree.
        seen.clear();
        bt.range(&key8(11), &key8(19), |k| {
            seen.push(u64::from_be_bytes(k.try_into().unwrap()));
            true
        })
        .unwrap();
        assert_eq!(seen, vec![12, 14, 16, 18]);
        // Empty and inverted ranges.
        seen.clear();
        bt.range(&key8(1001), &key8(2000), |k| {
            seen.push(u64::from_be_bytes(k.try_into().unwrap()));
            true
        })
        .unwrap();
        assert!(seen.is_empty());
        bt.range(&key8(20), &key8(10), |_| {
            panic!("inverted range must visit nothing")
        })
        .unwrap();
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn early_exit() {
        let (_pool, mut bt, p) = setup("early", 8);
        for i in 0..100u64 {
            bt.insert(&key8(i)).unwrap();
        }
        let mut n = 0;
        bt.range(&key8(0), &key8(u64::MAX), |_| {
            n += 1;
            n < 5
        })
        .unwrap();
        assert_eq!(n, 5);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn duplicate_keys_kept() {
        let (_pool, mut bt, p) = setup("dups", 8);
        // More copies of one key than a leaf holds, between two others.
        for k in [6, 8] {
            bt.insert(&key8(k)).unwrap();
        }
        for _ in 0..1300 {
            bt.insert(&key8(7)).unwrap();
        }
        let mut copies = 0;
        bt.range(&key8(7), &key8(7), |k| {
            assert_eq!(k, key8(7));
            copies += 1;
            true
        })
        .unwrap();
        assert_eq!(copies, 1300);
        assert_eq!(bt.len(), 1302);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn model_check_against_btreemap() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        use std::collections::BTreeSet;
        let (_pool, mut bt, p) = setup("model", 16);
        let mut rng = StdRng::seed_from_u64(99);
        let mut model: BTreeSet<Vec<u8>> = BTreeSet::new();
        for i in 0..20_000u64 {
            let mut k = vec![0u8; 16];
            rng.fill(&mut k[..8]);
            k[8..].copy_from_slice(&i.to_be_bytes()); // unique suffix
            bt.insert(&k).unwrap();
            model.insert(k);
        }
        assert_eq!(bt.len(), model.len() as u64);
        // Compare 50 random ranges.
        for _ in 0..50 {
            let mut lo = vec![0u8; 16];
            let mut hi = vec![0u8; 16];
            rng.fill(&mut lo[..2]);
            rng.fill(&mut hi[..2]);
            if lo > hi {
                std::mem::swap(&mut lo, &mut hi);
            }
            for b in hi[2..].iter_mut() {
                *b = 0xFF;
            }
            let mut got = Vec::new();
            bt.range(&lo, &hi, |k| {
                got.push(k.to_vec());
                true
            })
            .unwrap();
            let want: Vec<Vec<u8>> = model.range(lo.clone()..=hi.clone()).cloned().collect();
            assert_eq!(got, want);
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn reopen_preserves_tree() {
        let p = std::env::temp_dir().join(format!("pagestore-bt-{}-reopen", std::process::id()));
        {
            let pool = Arc::new(BufferPool::new(128));
            let fid = pool.register_file(PageFile::create(&crate::OsVfs, &p).unwrap());
            let mut bt = BTree::open(pool.clone(), fid, 8).unwrap();
            for i in 0..5000u64 {
                bt.insert(&key8(i)).unwrap();
            }
            bt.sync_meta().unwrap();
            pool.flush_all().unwrap();
        }
        let pool = Arc::new(BufferPool::new(128));
        let fid = pool.register_file(PageFile::open(&crate::OsVfs, &p).unwrap());
        let bt = BTree::open(pool, fid, 8).unwrap();
        assert_eq!(bt.len(), 5000);
        assert_eq!(bt.key_width(), 8);
        let mut n = 0u64;
        bt.range(&key8(0), &key8(u64::MAX), |k| {
            assert_eq!(u64::from_be_bytes(k.try_into().unwrap()), n);
            n += 1;
            true
        })
        .unwrap();
        assert_eq!(n, 5000);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn wide_keys_split_internals() {
        // Wide keys force small fanout, exercising multi-level splits.
        let (_pool, mut bt, p) = setup("wide", 200);
        let mut key = vec![0u8; 200];
        for i in 0..3000u64 {
            key[..8].copy_from_slice(&i.to_be_bytes());
            bt.insert(&key).unwrap();
        }
        assert!(bt.height() >= 2, "height {}", bt.height());
        let mut n = 0u64;
        let lo = vec![0u8; 200];
        let hi = vec![0xFFu8; 200];
        bt.range(&lo, &hi, |k| {
            assert_eq!(u64::from_be_bytes(k[..8].try_into().unwrap()), n);
            assert!(k[8..].iter().all(|&b| b == 0));
            n += 1;
            true
        })
        .unwrap();
        assert_eq!(n, 3000);
        std::fs::remove_file(&p).ok();
    }

    /// Feeds the same sorted runs to one tree through `insert_sorted` and
    /// to another one entry at a time, and after every run compares both,
    /// over the whole key space and over random sub-ranges, with a sorted
    /// model.
    fn check_sorted_runs(name: &str, kw: usize, runs: &[Vec<Vec<u8>>], min_height: u32) {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let (_pa, mut merged, pa) = setup(&format!("{name}-sorted"), kw);
        let (_pb, mut single, pb) = setup(&format!("{name}-single"), kw);
        let mut model: Vec<Vec<u8>> = Vec::new();
        let mut rng = StdRng::seed_from_u64(kw as u64);
        let dump = |bt: &BTree, lo: &[u8], hi: &[u8]| {
            let mut got = Vec::new();
            bt.range(lo, hi, |k| {
                got.push(k.to_vec());
                true
            })
            .unwrap();
            got
        };
        for (r, run) in runs.iter().enumerate() {
            merged
                .insert_sorted(run.len(), |i| run[i].as_slice())
                .unwrap();
            for k in run {
                single.insert(k).unwrap();
            }
            model.extend(run.iter().cloned());
            model.sort();
            assert_eq!(merged.len(), model.len() as u64, "{name}: run {r}");
            let mut bounds = vec![(vec![0u8; kw], vec![0xFFu8; kw])];
            for _ in 0..4 {
                let (mut lo, mut hi) = (vec![0u8; kw], vec![0xFFu8; kw]);
                rng.fill(&mut lo[..2]);
                rng.fill(&mut hi[..2]);
                bounds.push((lo.clone().min(hi.clone()), lo.max(hi)));
            }
            for (lo, hi) in &bounds {
                let want: Vec<_> = model
                    .iter()
                    .filter(|k| lo <= *k && *k <= hi)
                    .cloned()
                    .collect();
                assert_eq!(dump(&merged, lo, hi), want, "{name}: run {r}, sorted");
                assert_eq!(dump(&single, lo, hi), want, "{name}: run {r}, single");
            }
        }
        assert!(merged.height() >= min_height, "height {}", merged.height());
        std::fs::remove_file(&pa).ok();
        std::fs::remove_file(&pb).ok();
    }

    /// A run of `len` sorted `kw`-byte keys that open with a random draw
    /// from `domain` values (so keys repeat when it is small) and, when
    /// `unique`, close with a counter.
    fn sorted_run(
        rng: &mut impl rand::RngExt,
        kw: usize,
        len: usize,
        domain: u64,
        unique: &mut Option<u64>,
    ) -> Vec<Vec<u8>> {
        let mut run: Vec<Vec<u8>> = (0..len)
            .map(|_| {
                let mut k = vec![0u8; kw];
                let lead = rng.random_range(0..domain) * (u64::MAX / domain);
                k[..8].copy_from_slice(&lead.to_be_bytes());
                if let Some(n) = unique {
                    k[kw - 8..].copy_from_slice(&n.to_be_bytes());
                    *n += 1;
                }
                k
            })
            .collect();
        run.sort();
        run
    }

    #[test]
    fn insert_sorted_matches_single_inserts_on_random_runs() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        // 16-byte keys: 255 to a leaf. The first run goes into the empty
        // tree; many runs are longer than a leaf.
        let mut rng = StdRng::seed_from_u64(512);
        let mut unique = Some(0);
        let runs: Vec<_> = (0..40)
            .map(|_| {
                let len = rng.random_range(1..600usize);
                sorted_run(&mut rng, 16, len, 1 << 40, &mut unique)
            })
            .collect();
        check_sorted_runs("random", 16, &runs, 1);
    }

    #[test]
    fn insert_sorted_into_full_leaves_past_the_last_fence_and_onto_equal_keys() {
        // 8-byte keys: 511 to a leaf. Even keys fill the root leaf to the
        // brim; the next run finds it full at its first key (the split
        // step), a later one lies wholly above every separator, and the
        // last two repeat stored keys, and one key many times over.
        let cap = ((PAGE_SIZE - HDR) / 8) as u64;
        let evens = |range: std::ops::Range<u64>| -> Vec<Vec<u8>> {
            range.map(|i| key8(i * 2).to_vec()).collect()
        };
        let odds: Vec<_> = (100..140u64).map(|i| key8(i * 2 + 1).to_vec()).collect();
        let beyond: Vec<_> = (0..1400u64).map(|i| key8(1_000_000 + i).to_vec()).collect();
        let same: Vec<_> = (0..1200u64).map(|_| key8(300).to_vec()).collect();
        let runs = [
            evens(0..cap),
            odds,
            evens(cap..cap + 45),
            beyond,
            evens(0..cap),
            same,
        ];
        check_sorted_runs("edges", 8, &runs, 1);
    }

    #[test]
    fn insert_sorted_grows_a_tall_tree_of_wide_keys() {
        use rand::{rngs::StdRng, SeedableRng};
        // 200-byte keys: 20 to a leaf, 20 to an internal node.
        let mut rng = StdRng::seed_from_u64(200);
        let mut unique = Some(0);
        let runs: Vec<_> = (0..30)
            .map(|_| sorted_run(&mut rng, 200, 100, 1 << 30, &mut unique))
            .collect();
        check_sorted_runs("tall", 200, &runs, 2);
        // Few distinct keys, many copies: runs of equal keys span leaves.
        let runs: Vec<_> = (0..12)
            .map(|_| sorted_run(&mut rng, 200, 90, 5, &mut None))
            .collect();
        check_sorted_runs("tall-dups", 200, &runs, 2);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn insert_sorted_rejects_an_unsorted_run() {
        let (_pool, mut bt, _p) = setup("unsorted-run", 8);
        let keys = [key8(5), key8(3)];
        let _ = bt.insert_sorted(2, |i| keys[i].as_slice());
    }

    /// `range` over `[lo, hi]`, with a visitor that stops at its `stop`-th
    /// entry, delivers what the one-compare-per-entry loop delivered — the
    /// model's entries in range, cut at `stop` — and counts exactly the
    /// entries delivered.
    fn check_run(bt: &BTree, scanned: &obs::Counter, model: &[u64], lo: u64, hi: u64, stop: usize) {
        let want: Vec<u64> = model
            .iter()
            .copied()
            .filter(|&k| lo <= k && k <= hi)
            .take(stop)
            .collect();
        let (lo_key, hi_key) = (key8(lo), key8(hi));
        let before = scanned.get();
        let mut got = Vec::new();
        bt.range(&lo_key, &hi_key, |k| {
            got.push(u64::from_be_bytes(k.try_into().unwrap()));
            got.len() < stop
        })
        .unwrap();
        assert!(got == want, "range [{lo}, {hi}] stop {stop}");
        assert_eq!(scanned.get() - before, want.len() as u64, "count");
    }

    #[test]
    fn leaf_runs_deliver_and_count_what_the_per_entry_loop_did() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        // Bulk-loaded, so the leaf boundaries are known: 8-byte keys fill
        // a leaf to 459 entries; key 10 * i + 5 is entry i.
        let p = std::env::temp_dir().join(format!("pagestore-bt-{}-runs", std::process::id()));
        let pool = Arc::new(BufferPool::new(128));
        let fid = pool.register_file(PageFile::create(&crate::OsVfs, &p).unwrap());
        let per_leaf = (PAGE_SIZE - HDR) / 8 * 9 / 10;
        let model: Vec<u64> = (0..4 * per_leaf as u64 + 17).map(|i| 10 * i + 5).collect();
        let keys: Vec<[u8; 8]> = model.iter().map(|&k| key8(k)).collect();
        let mut bt = BTree::bulk_load(pool, fid, 8, keys.iter().map(|k| k.as_slice())).unwrap();
        let scanned = bt.count_scans_apart();
        let key_at = |leaf: usize, slot: usize| model[leaf * per_leaf + slot];
        let last = *model.last().unwrap();
        let bounds = [
            (key_at(0, 40), key_at(0, 90)),                     // inside one leaf
            (key_at(0, 40) - 3, key_at(0, 90) + 3),             // bounds between keys
            (key_at(1, 100), key_at(3, 7)),                     // mid-leaf to mid-leaf
            (key_at(1, 0), key_at(2, per_leaf - 1)),            // exactly two whole leaves
            (key_at(1, 0) - 1, key_at(2, per_leaf - 1) + 1),    // whole leaves, open bounds
            (key_at(1, per_leaf - 1), key_at(2, 0)), // one entry either side of a boundary
            (key_at(2, 0), key_at(2, 0)),            // a leaf's first key alone
            (key_at(2, per_leaf - 1), key_at(2, per_leaf - 1)), // a leaf's last key alone
            (key_at(1, 9) + 1, key_at(1, 10) - 1),   // between two keys: nothing
            (key_at(0, per_leaf - 1) + 1, key_at(1, 0) - 1), // between two leaves: nothing
            (0, 4),                                  // below the first key
            (0, last),                               // everything
            (key_at(3, 0), u64::MAX),                // into the last, partial leaf
            (last, u64::MAX),                        // the last key
            (last + 1, u64::MAX),                    // above the last key
        ];
        for &(lo, hi) in &bounds {
            let len = model.iter().filter(|&&k| lo <= k && k <= hi).count();
            // Never stopped, stopped at the first entry, mid-run, on the
            // run's last entry, and at the last entry of its first leaf.
            let to_leaf_end = per_leaf - model.partition_point(|&k| k < lo) % per_leaf;
            for stop in [usize::MAX, 1, len / 2, len, to_leaf_end, to_leaf_end + 1] {
                check_run(&bt, &scanned, &model, lo, hi, stop.max(1));
            }
        }
        // Leaves left by splits, random bounds.
        let (_pool, mut grown, p2) = setup("runs-grown", 8);
        let mut rng = StdRng::seed_from_u64(18);
        let mut model: Vec<u64> = (0..3000u64).map(|i| i * 7 % 3001).collect();
        for &k in &model {
            grown.insert(&key8(k)).unwrap();
        }
        model.sort_unstable();
        let scanned = grown.count_scans_apart();
        for _ in 0..200 {
            let (a, b) = (rng.random_range(0..3100u64), rng.random_range(0..3100u64));
            let stop = [usize::MAX, rng.random_range(1..400usize)][rng.random_range(0..2usize)];
            check_run(&grown, &scanned, &model, a.min(b), a.max(b), stop);
        }
        std::fs::remove_file(&p).ok();
        std::fs::remove_file(&p2).ok();
    }

    /// A registered, empty file for a bulk load.
    fn bulk_file(name: &str) -> (Arc<BufferPool>, FileId, PathBuf) {
        let p = std::env::temp_dir().join(format!("pagestore-bulk-{}-{name}", std::process::id()));
        let pool = Arc::new(BufferPool::new(256));
        let fid = pool.register_file(PageFile::create(&crate::OsVfs, &p).unwrap());
        (pool, fid, p)
    }

    #[test]
    fn bulk_load_matches_incremental() {
        let (pool, fid, p) = bulk_file("match");
        let keys: Vec<[u8; 8]> = (0..50_000u64).map(|i| key8(i * 3)).collect();
        let bt = BTree::bulk_load(pool.clone(), fid, 8, keys.iter().map(|k| k.as_slice())).unwrap();
        assert_eq!(bt.len(), 50_000);
        assert!(bt.height() >= 1);
        // Full scan returns everything in order.
        let mut n = 0u64;
        bt.range(&key8(0), &key8(u64::MAX), |k| {
            assert_eq!(u64::from_be_bytes(k.try_into().unwrap()), n * 3);
            n += 1;
            true
        })
        .unwrap();
        assert_eq!(n, 50_000);
        // Random sub-ranges agree with expectations.
        let mut got = Vec::new();
        bt.range(&key8(777), &key8(790), |k| {
            got.push(u64::from_be_bytes(k.try_into().unwrap()));
            true
        })
        .unwrap();
        assert_eq!(got, [777, 780, 783, 786, 789]);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn bulk_load_empty_and_tiny() {
        let (pool, fid, p) = bulk_file("tiny");
        let bt = BTree::bulk_load(pool, fid, 8, std::iter::empty::<&[u8]>()).unwrap();
        assert_eq!(bt.len(), 0);
        assert_eq!(bt.height(), 0);
        bt.range(&key8(0), &key8(10), |_| panic!("empty")).unwrap();
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn bulk_loaded_tree_accepts_inserts() {
        let (pool, fid, p) = bulk_file("insert-after");
        let evens: Vec<[u8; 8]> = (0..2000u64).map(|i| key8(i * 2)).collect();
        let mut bt = BTree::bulk_load(pool, fid, 8, evens.iter().map(|k| k.as_slice())).unwrap();
        for i in 0..2000u64 {
            bt.insert(&key8(i * 2 + 1)).unwrap();
        }
        assert_eq!(bt.len(), 4000);
        let mut n = 0u64;
        bt.range(&key8(0), &key8(u64::MAX), |k| {
            assert_eq!(u64::from_be_bytes(k.try_into().unwrap()), n);
            n += 1;
            true
        })
        .unwrap();
        assert_eq!(n, 4000);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn bulk_load_rejects_unsorted() {
        let (pool, fid, _p) = bulk_file("unsorted");
        let keys = [key8(5), key8(3)];
        let _ = BTree::bulk_load(pool, fid, 8, keys.iter().map(|k| k.as_slice()));
    }

    #[test]
    fn bulk_load_reopen() {
        let (pool, fid, p) = bulk_file("reopen");
        {
            let keys: Vec<[u8; 8]> = (0..10_000u64).map(key8).collect();
            let bt =
                BTree::bulk_load(pool.clone(), fid, 8, keys.iter().map(|k| k.as_slice())).unwrap();
            bt.sync_meta().unwrap();
            pool.flush_all().unwrap();
        }
        let pool = Arc::new(BufferPool::new(256));
        let fid = pool.register_file(PageFile::open(&crate::OsVfs, &p).unwrap());
        let bt = BTree::open(pool, fid, 8).unwrap();
        assert_eq!(bt.len(), 10_000);
        let mut n = 0;
        bt.range(&key8(0), &key8(u64::MAX), |k| {
            assert_eq!(k, key8(n));
            n += 1;
            true
        })
        .unwrap();
        assert_eq!(n, 10_000);
        std::fs::remove_file(&p).ok();
    }
}
