//! File-backed page storage.

use crate::error::Result;
use crate::{StoreError, PAGE_SIZE};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Identifier of a page within one [`PageFile`].
pub type PageId = u32;

/// Identifier of a file registered with the buffer pool.
pub type FileId = u32;

/// A file holding an array of fixed-size pages.
///
/// `PageFile` does raw, unbuffered page I/O; all caching lives in the
/// [`crate::BufferPool`]. Every transfer is positional (`pread` /
/// `pwrite`): one system call a page, and no file cursor to share. Not
/// internally synchronized — callers (the pool) serialize access.
#[derive(Debug)]
pub struct PageFile {
    file: File,
    path: PathBuf,
    pages: u32,
}

impl PageFile {
    /// Creates a new empty page file, truncating any existing file.
    pub fn create(path: &Path) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            pages: 0,
        })
    }

    /// Opens an existing page file.
    pub fn open(path: &Path) -> Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(StoreError::Corrupt(format!(
                "{} has length {len}, not a multiple of the page size",
                path.display()
            )));
        }
        Ok(Self {
            file,
            path: path.to_path_buf(),
            pages: (len / PAGE_SIZE as u64) as u32,
        })
    }

    /// Number of allocated pages.
    pub fn num_pages(&self) -> u32 {
        self.pages
    }

    /// Total size on disk in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.pages as u64 * PAGE_SIZE as u64
    }

    /// The backing path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends a zeroed page and returns its id.
    pub fn allocate(&mut self) -> Result<PageId> {
        let id = self.pages;
        self.file
            .write_all_at(&[0u8; PAGE_SIZE], id as u64 * PAGE_SIZE as u64)?;
        self.pages += 1;
        Ok(id)
    }

    /// Reads page `id` into `buf`.
    pub fn read_page(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<()> {
        if id >= self.pages {
            return Err(StoreError::Corrupt(format!(
                "read of page {id} beyond end ({} pages) in {}",
                self.pages,
                self.path.display()
            )));
        }
        self.file.read_exact_at(buf, id as u64 * PAGE_SIZE as u64)?;
        Ok(())
    }

    /// Writes `buf` to page `id`.
    pub fn write_page(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> Result<()> {
        if id >= self.pages {
            return Err(StoreError::Corrupt(format!(
                "write of page {id} beyond end ({} pages) in {}",
                self.pages,
                self.path.display()
            )));
        }
        self.file.write_all_at(buf, id as u64 * PAGE_SIZE as u64)?;
        Ok(())
    }

    /// Flushes file contents to the OS (no durability guarantee).
    pub fn sync(&mut self) -> Result<()> {
        self.file.flush()?;
        Ok(())
    }

    /// Flushes and fsyncs: contents and length are durable on return.
    pub fn sync_all(&mut self) -> Result<()> {
        self.file.flush()?;
        self.file.sync_all()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pagestore-pf-{}-{name}", std::process::id()))
    }

    #[test]
    fn allocate_read_write_roundtrip() {
        let p = tmp("rw");
        let mut f = PageFile::create(&p).unwrap();
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
        let mut f = PageFile::create(&p).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        assert!(f.read_page(0, &mut buf).is_err());
        assert!(f.write_page(3, &buf).is_err());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn reopen_preserves_pages() {
        let p = tmp("reopen");
        {
            let mut f = PageFile::create(&p).unwrap();
            f.allocate().unwrap();
            f.allocate().unwrap();
            let mut page = [9u8; PAGE_SIZE];
            page[17] = 1;
            f.write_page(1, &page).unwrap();
            f.sync().unwrap();
        }
        let mut f = PageFile::open(&p).unwrap();
        assert_eq!(f.num_pages(), 2);
        assert_eq!(f.size_bytes(), 2 * PAGE_SIZE as u64);
        let mut buf = [0u8; PAGE_SIZE];
        f.read_page(1, &mut buf).unwrap();
        assert_eq!(buf[17], 1);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn open_rejects_ragged_file() {
        let p = tmp("ragged");
        std::fs::write(&p, vec![0u8; PAGE_SIZE + 13]).unwrap();
        assert!(matches!(PageFile::open(&p), Err(StoreError::Corrupt(_))));
        std::fs::remove_file(&p).ok();
    }
}
