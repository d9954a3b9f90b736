//! File-backed page storage.

use crate::error::Result;
use crate::vfs::{Vfs, VfsFile};
use crate::{StoreError, PAGE_SIZE};
use parking_lot::Mutex;
use std::path::{Path, PathBuf};

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
#[derive(Debug)]
pub struct PageFile {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    /// Pages allocated; its lock serializes allocation.
    pages: Mutex<u32>,
}

impl PageFile {
    /// Creates a new empty page file, truncating any existing file.
    pub fn create(vfs: &dyn Vfs, path: &Path) -> Result<Self> {
        Ok(Self {
            file: vfs.create(path)?,
            path: path.to_path_buf(),
            pages: Mutex::new(0),
        })
    }

    /// Opens an existing page file. A partial page at its end is the
    /// allocation of a page a crash cut short — a write nothing synced,
    /// so nothing committed — and is not counted: the next
    /// [`PageFile::allocate`] writes over it.
    pub fn open(vfs: &dyn Vfs, path: &Path) -> Result<Self> {
        let file = vfs.open(path)?;
        let len = file.len()?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            pages: Mutex::new((len / PAGE_SIZE as u64) as u32),
        })
    }

    /// Number of allocated pages.
    pub fn num_pages(&self) -> u32 {
        *self.pages.lock()
    }

    /// Total size on disk in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.num_pages() as u64 * PAGE_SIZE as u64
    }

    /// The backing path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends a zeroed page and returns its id.
    pub fn allocate(&self) -> Result<PageId> {
        let mut pages = self.pages.lock();
        let id = *pages;
        self.file
            .write_at(&[0u8; PAGE_SIZE], id as u64 * PAGE_SIZE as u64)?;
        *pages += 1;
        Ok(id)
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
        assert_eq!(std::fs::read(&p).unwrap().len(), 2 * PAGE_SIZE);
        let mut page = [9u8; PAGE_SIZE];
        f.read_page(1, &mut page).unwrap();
        assert!(
            page.iter().all(|&b| b == 0),
            "the torn page was written over"
        );
        std::fs::remove_file(&p).ok();
    }
}
