//! The one file-I/O seam: every read, write, sync, rename and removal the
//! store makes goes through a [`Vfs`], whose [`VfsFile`] handles do
//! positional I/O. [`OsVfs`] is the one every binary links; tests put an
//! in-memory file system that crashes in its place. The store relies on
//! this much: a file's data and length are durable once [`VfsFile::sync`]
//! returns, and a directory's creates, renames and removals once
//! [`Vfs::sync_dir`] of it returns — in the order they were made.

use crate::error::Result;
use std::fmt::Debug;
use std::fs::File;
use std::io::{self, ErrorKind};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// A file system: files by path, and the directory operations on them.
pub trait Vfs: Debug + Send + Sync {
    /// Opens an existing file for reading and writing.
    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Creates a file for reading and writing, truncating one that exists.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Renames `from` to `to`, replacing any file there.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file; a file that does not exist is removed already.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// The names of the entries of a directory, in no particular order.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Creates a directory and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Makes the creates, renames and removals made in `dir` durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;

    /// The whole contents of a file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let file = self.open(path)?;
        let mut bytes = vec![0; file.len()? as usize];
        file.read_at(&mut bytes, 0)?;
        Ok(bytes)
    }

    /// Whether a file exists; any failure but "not found" is an error.
    fn exists(&self, path: &Path) -> io::Result<bool> {
        match self.open(path) {
            Ok(_) => Ok(true),
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        }
    }
}

/// An open file. Every transfer names its offset — there is no cursor —
/// and moves all of its bytes or fails.
#[allow(
    clippy::len_without_is_empty,
    reason = "a file's length is a syscall, not a collection size"
)]
pub trait VfsFile: Debug + Send + Sync {
    /// Fills `buf` from byte `offset`; a file that ends first is
    /// `UnexpectedEof`.
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()>;
    /// Writes `buf` at byte `offset` (a gap before it reads as zeros).
    fn write_at(&self, buf: &[u8], offset: u64) -> io::Result<()>;
    /// The length in bytes.
    fn len(&self) -> io::Result<u64>;
    /// Cuts the file to `len` bytes, or extends it with zeros.
    fn set_len(&self, len: u64) -> io::Result<()>;
    /// Makes the data and the length durable.
    fn sync(&self) -> io::Result<()>;
}

/// The operating system's file system.
#[derive(Debug, Clone, Copy, Default)]
pub struct OsVfs;

impl Vfs for OsVfs {
    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(File::options().read(true).write(true).open(path)?))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let mut options = File::options();
        options.read(true).write(true).create(true).truncate(true);
        Ok(Box::new(options.open(path)?))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match std::fs::remove_file(path) {
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(()),
            done => done,
        }
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            names.extend(entry?.file_name().into_string().ok());
        }
        Ok(names)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    /// A file system that cannot sync a directory says so with
    /// `Unsupported` or `EINVAL`; its renames are as durable as it makes
    /// them, and that is not an error.
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        match File::open(dir)?.sync_all() {
            Err(e) if matches!(e.kind(), ErrorKind::Unsupported | ErrorKind::InvalidInput) => {
                Ok(())
            }
            done => done,
        }
    }
}

impl VfsFile for File {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        self.read_exact_at(buf, offset)
    }

    fn write_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        self.write_all_at(buf, offset)
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.metadata()?.len())
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        File::set_len(self, len)
    }

    fn sync(&self) -> io::Result<()> {
        self.sync_data()
    }
}

/// Replaces the small file at `path` with `bytes` atomically: written to
/// `<path>.tmp` through one handle, synced through it when `sync`, renamed
/// over `path`, and — again when `sync` — its directory synced, so a crash
/// leaves the old file or the new one, never a mix or an empty file.
/// Without `sync` the rename is still atomic against readers and process
/// crashes, which is all derived data needs.
pub fn write_atomic(vfs: &dyn Vfs, path: &Path, bytes: &[u8], sync: bool) -> Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let file = vfs.create(&tmp)?;
    file.write_at(bytes, 0)?;
    if sync {
        file.sync()?;
    }
    drop(file);
    vfs.rename(&tmp, path)?;
    if sync {
        let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
        vfs.sync_dir(dir.unwrap_or(Path::new(".")))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pagestore-vfs-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn positional_io_extends_with_zeros_and_reads_back() {
        let dir = tmpdir("io");
        let path = dir.join("f");
        let f = OsVfs.create(&path).unwrap();
        f.write_at(b"tail", 8).unwrap();
        assert_eq!(f.len().unwrap(), 12);
        let mut buf = [1u8; 12];
        f.read_at(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"\0\0\0\0\0\0\0\0tail");
        let err = f.read_at(&mut [0u8; 4], 10).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        f.set_len(4).unwrap();
        f.sync().unwrap();
        assert_eq!(OsVfs.read(&path).unwrap(), vec![0; 4]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn directory_operations() {
        let dir = tmpdir("dir");
        let (a, b) = (dir.join("a"), dir.join("b"));
        assert!(!OsVfs.exists(&a).unwrap());
        assert_eq!(OsVfs.open(&a).unwrap_err().kind(), ErrorKind::NotFound);
        write_atomic(&OsVfs, &a, b"one", true).unwrap();
        write_atomic(&OsVfs, &a, b"two", false).unwrap();
        assert_eq!(OsVfs.read(&a).unwrap(), b"two");
        OsVfs.rename(&a, &b).unwrap();
        assert_eq!(OsVfs.list(&dir).unwrap(), vec!["b".to_string()]);
        OsVfs.remove_file(&b).unwrap();
        OsVfs.remove_file(&b).unwrap();
        OsVfs.sync_dir(&dir).unwrap();
        assert!(OsVfs.list(&dir).unwrap().is_empty());
        assert!(OsVfs.sync_dir(&dir.join("missing")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
