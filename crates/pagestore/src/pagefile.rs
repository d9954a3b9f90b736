//! File-backed page storage.

use crate::error::Result;
use crate::vfs::{Vfs, VfsFile};
use crate::{StoreError, PAGE_SIZE};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

/// Identifier of a page within one [`PageFile`].
pub type PageId = u32;

/// Identifier of a file registered with the buffer pool.
pub type FileId = u32;

/// A file holding an array of fixed-size pages.
///
/// `PageFile` does raw, unbuffered page I/O; all caching lives in the
/// [`crate::BufferPool`]. Every transfer is positional, through the
/// [`Vfs`] the file was opened in: one call a page, and no file cursor to
/// share, so transfers of different pages need no lock (the pool's frame
/// lock serializes those of one page).
///
/// Allocation writes nothing: it advances the page count, and a page
/// reaches the file at its first [`PageFile::write_page`]. The file's
/// length is therefore its highest written page + 1, and a page it skips
/// reads as zeros. A page below the count that was never written lies
/// past the file's end, so it is written before it is read: the pool
/// installs every page it allocates as a dirty page of zeros.
#[derive(Debug)]
pub struct PageFile {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    /// Pages allocated.
    pages: AtomicU32,
}

impl PageFile {
    /// Creates a new empty page file, truncating any existing file.
    pub fn create(vfs: &dyn Vfs, path: &Path) -> Result<Self> {
        Ok(Self {
            file: vfs.create(path)?,
            path: path.to_path_buf(),
            pages: AtomicU32::new(0),
        })
    }

    /// Opens an existing page file; its page count is its length in whole
    /// pages. A partial page at its end is a page's first write that a
    /// crash cut short — a write nothing synced, so nothing the last
    /// checkpoint holds, and one the log has the image of if a commit
    /// holds it — and is not counted: the page's next write covers it.
    pub fn open(vfs: &dyn Vfs, path: &Path) -> Result<Self> {
        let file = vfs.open(path)?;
        let len = file.len()?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            pages: AtomicU32::new((len / PAGE_SIZE as u64) as u32),
        })
    }

    /// Number of allocated pages.
    pub fn num_pages(&self) -> u32 {
        self.pages.load(Ordering::Acquire)
    }

    /// Total size on disk in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.num_pages() as u64 * PAGE_SIZE as u64
    }

    /// The backing path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends a page to the count and returns its id. No I/O: the page
    /// reaches the file at its first [`PageFile::write_page`], which must
    /// come before any [`PageFile::read_page`] of it.
    pub fn allocate(&self) -> Result<PageId> {
        self.pages
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_add(1))
            .map_err(|n| {
                StoreError::InvalidArgument(format!(
                    "{} holds {n} pages, the most a page file can",
                    self.path.display()
                ))
            })
    }

    /// The byte offset of page `id`, which the file must hold.
    fn offset(&self, id: PageId, what: &str) -> Result<u64> {
        match self.num_pages() {
            pages if id < pages => Ok(id as u64 * PAGE_SIZE as u64),
            pages => Err(StoreError::Corrupt(format!(
                "{what} of page {id} beyond end ({pages} pages) in {}",
                self.path.display()
            ))),
        }
    }

    /// Reads page `id` into `buf`.
    pub fn read_page(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<()> {
        Ok(self.file.read_at(buf, self.offset(id, "read")?)?)
    }

    /// Writes `buf` to page `id`.
    pub fn write_page(&self, id: PageId, buf: &[u8; PAGE_SIZE]) -> Result<()> {
        Ok(self.file.write_at(buf, self.offset(id, "write")?)?)
    }

    /// Makes the file's pages and length durable.
    pub fn sync(&self) -> Result<()> {
        self.file.sync()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OsVfs;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pagestore-pf-{}-{name}", std::process::id()))
    }

    #[test]
    fn allocate_read_write_roundtrip() {
        let p = tmp("rw");
        let f = PageFile::create(&OsVfs, &p).unwrap();
        let a = f.allocate().unwrap();
        let b = f.allocate().unwrap();
        assert_eq!((a, b), (0, 1));
        let mut page = [0u8; PAGE_SIZE];
        page[0] = 42;
        page[PAGE_SIZE - 1] = 7;
        f.write_page(b, &page).unwrap();
        let mut back = [0u8; PAGE_SIZE];
        f.read_page(b, &mut back).unwrap();
        assert_eq!(page, back);
        f.read_page(a, &mut back).unwrap();
        assert!(back.iter().all(|&x| x == 0));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn out_of_bounds_rejected() {
        let p = tmp("oob");
        let f = PageFile::create(&OsVfs, &p).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        assert!(f.read_page(0, &mut buf).is_err());
        assert!(f.write_page(3, &buf).is_err());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn reopen_preserves_pages() {
        let p = tmp("reopen");
        {
            let f = PageFile::create(&OsVfs, &p).unwrap();
            f.allocate().unwrap();
            f.allocate().unwrap();
            let mut page = [9u8; PAGE_SIZE];
            page[17] = 1;
            f.write_page(1, &page).unwrap();
            f.sync().unwrap();
        }
        let f = PageFile::open(&OsVfs, &p).unwrap();
        assert_eq!(f.num_pages(), 2);
        assert_eq!(f.size_bytes(), 2 * PAGE_SIZE as u64);
        let mut buf = [0u8; PAGE_SIZE];
        f.read_page(1, &mut buf).unwrap();
        assert_eq!(buf[17], 1);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn open_drops_a_torn_last_page() {
        let p = tmp("ragged");
        std::fs::write(&p, vec![1u8; PAGE_SIZE + 13]).unwrap();
        let f = PageFile::open(&OsVfs, &p).unwrap();
        assert_eq!(f.num_pages(), 1);
        assert_eq!(f.allocate().unwrap(), 1);
        // Allocation wrote nothing; the page's first write covers the tear.
        assert_eq!(std::fs::read(&p).unwrap().len(), PAGE_SIZE + 13);
        let mut page = [0u8; PAGE_SIZE];
        page[PAGE_SIZE - 1] = 5;
        f.write_page(1, &page).unwrap();
        assert_eq!(std::fs::read(&p).unwrap().len(), 2 * PAGE_SIZE);
        let mut back = [9u8; PAGE_SIZE];
        f.read_page(1, &mut back).unwrap();
        assert!(back == page, "the torn page was written over");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn allocation_writes_nothing_and_a_skipped_page_reads_as_zeros() {
        let p = tmp("holes");
        let f = PageFile::create(&OsVfs, &p).unwrap();
        assert_eq!(
            (0..3).map(|_| f.allocate().unwrap()).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        assert_eq!((f.num_pages(), f.size_bytes()), (3, 3 * PAGE_SIZE as u64));
        assert_eq!(std::fs::metadata(&p).unwrap().len(), 0);
        let mut page = [0u8; PAGE_SIZE];
        // Past the file's end until something writes it.
        assert!(f.read_page(0, &mut page).is_err());
        page[0] = 7;
        f.write_page(1, &page).unwrap();
        assert_eq!(std::fs::metadata(&p).unwrap().len(), 2 * PAGE_SIZE as u64);
        f.read_page(0, &mut page).unwrap();
        assert!(page.iter().all(|&b| b == 0), "a hole reads as zeros");
        std::fs::remove_file(&p).ok();
    }
}
