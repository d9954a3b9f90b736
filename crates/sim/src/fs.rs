//! [`SimVfs`]: a seeded in-memory file system that crashes and fails.
//!
//! Every file is an inode with two images: what the running process
//! reads, and what survives a crash. A write lands in the first at once
//! and reaches the second only through [`VfsFile::sync`]; a create, rename
//! or removal changes the running namespace at once and the durable one
//! only through [`Vfs::sync_dir`] of its directory. [`SimVfs::crash`]
//! then decides, from a seed and a [`CrashModel`], what of the rest the
//! disk kept, and the process starts over from that.
//!
//! Faults are aimed ([`SimVfs::fail_nth`]) or drawn at a rate
//! ([`SimVfs::inject`]); [`SimVfs::halt_after`] stops the process dead a
//! given number of mutations from now, which is how a schedule crashes
//! *inside* a step.

use pagestore::{Vfs, VfsFile};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, ErrorKind};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// Disk sectors: the unit a power loss tears a write at.
pub const SECTOR: u64 = 512;

/// What a crash keeps of what was not synced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashModel {
    /// The machine loses power: each unsynced write is kept, dropped or
    /// torn at [`SECTOR`]s, each unsynced length change kept or dropped,
    /// and of each directory's unsynced creates, renames and removals a
    /// prefix survives.
    PowerLoss,
    /// The process is killed and the kernel lives on: every write and
    /// every directory change is kept (what a store that does not sync
    /// promises to survive).
    ProcessKill,
}

/// A failure a call can be made to return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// `EIO`, on any call.
    Eio,
    /// `ENOSPC`, on a call that can grow a file.
    Enospc,
    /// A read or write that moves half the bytes asked for and fails.
    Short,
    /// A read that comes back with one bit flipped.
    FlipBit,
}

/// The calls of the seam.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Op {
    /// [`Vfs::open`].
    Open,
    /// [`Vfs::create`].
    Create,
    /// [`Vfs::rename`].
    Rename,
    /// [`Vfs::remove_file`].
    Remove,
    /// [`Vfs::list`].
    List,
    /// [`Vfs::create_dir_all`].
    CreateDir,
    /// [`Vfs::sync_dir`].
    SyncDir,
    /// [`VfsFile::read_at`].
    ReadAt,
    /// [`VfsFile::write_at`].
    WriteAt,
    /// [`VfsFile::len`].
    Len,
    /// [`VfsFile::set_len`].
    SetLen,
    /// [`VfsFile::sync`].
    Sync,
}

impl Op {
    /// Whether the call changes what a disk could hold.
    pub fn mutates(self) -> bool {
        matches!(
            self,
            Op::Create
                | Op::Rename
                | Op::Remove
                | Op::CreateDir
                | Op::SyncDir
                | Op::WriteAt
                | Op::SetLen
                | Op::Sync
        )
    }

    fn suffers(self, fault: Fault) -> bool {
        match fault {
            Fault::Eio => true,
            Fault::Enospc => matches!(self, Op::Create | Op::WriteAt | Op::SetLen),
            Fault::Short => matches!(self, Op::ReadAt | Op::WriteAt),
            Fault::FlipBit => self == Op::ReadAt,
        }
    }
}

#[derive(Debug, Clone)]
enum Pending {
    Write(u64, Vec<u8>),
    SetLen(u64),
}

#[derive(Debug, Clone, Default)]
struct Inode {
    /// What the running process reads.
    data: Vec<u8>,
    /// What any crash keeps.
    durable: Vec<u8>,
    /// The changes between the two, in order.
    pending: Vec<Pending>,
    /// Byte ranges of `data` that a write past the end skipped and no
    /// write has filled since: a page file's pages below a later one that
    /// reached it first.
    holes: Vec<(u64, u64)>,
}

#[derive(Debug, Clone)]
enum DirOp {
    Link(PathBuf, usize),
    Unlink(PathBuf),
    Rename(PathBuf, PathBuf),
}

impl DirOp {
    fn apply(&self, names: &mut BTreeMap<PathBuf, usize>) {
        match self {
            DirOp::Link(path, ino) => {
                names.insert(path.clone(), *ino);
            }
            DirOp::Unlink(path) => {
                names.remove(path);
            }
            DirOp::Rename(from, to) => {
                if let Some(ino) = names.remove(from) {
                    names.insert(to.clone(), ino);
                }
            }
        }
    }
}

#[derive(Debug, Clone)]
struct State {
    inodes: Vec<Inode>,
    names: BTreeMap<PathBuf, usize>,
    durable_names: BTreeMap<PathBuf, usize>,
    /// Unsynced namespace changes, in order, each with its directory.
    dir_ops: Vec<(PathBuf, DirOp)>,
    dirs: BTreeSet<PathBuf>,
    /// Bumped by every crash: handles from before it are dead.
    generation: u64,
    mutations: u64,
    halt_at: Option<u64>,
    rng: StdRng,
    rate: f64,
    kinds: Vec<Fault>,
    /// Aimed faults: the call of `Op` to fail, counting down, and how.
    aimed: Vec<(Op, u64, Fault)>,
    counts: BTreeMap<PathBuf, BTreeMap<Op, u64>>,
    trace: Option<Vec<(Op, PathBuf)>>,
}

fn crashed() -> io::Error {
    io::Error::other("simulated crash: the process is gone")
}

fn parent(path: &Path) -> PathBuf {
    path.parent().map(Path::to_path_buf).unwrap_or_default()
}

impl State {
    /// Counts a call and decides its fate: an error, a fault for the
    /// call to act out, or nothing.
    fn enter(&mut self, op: Op, path: &Path) -> io::Result<Option<Fault>> {
        if self.halt_at.is_some_and(|at| self.mutations >= at) {
            return Err(crashed());
        }
        match self.counts.get_mut(path) {
            Some(ops) => *ops.entry(op).or_default() += 1,
            None => drop(
                self.counts
                    .insert(path.to_path_buf(), BTreeMap::from([(op, 1)])),
            ),
        }
        if op.mutates() {
            self.mutations += 1;
            if let Some(trace) = &mut self.trace {
                trace.push((op, path.to_path_buf()));
            }
        }
        let mut aimed = None;
        self.aimed
            .retain_mut(|(o, skip, fault)| match (*o == op, *skip) {
                (true, 0) if aimed.is_none() => {
                    aimed = Some(*fault);
                    false
                }
                (true, _) => {
                    *skip = skip.saturating_sub(1);
                    true
                }
                _ => true,
            });
        let fault = match aimed {
            Some(fault) => Some(fault),
            None if self.rate > 0.0 && self.rng.random::<f64>() < self.rate => {
                let fits: Vec<Fault> = self
                    .kinds
                    .iter()
                    .copied()
                    .filter(|&f| op.suffers(f))
                    .collect();
                (!fits.is_empty()).then(|| fits[self.rng.random_range(0..fits.len())])
            }
            None => None,
        };
        match fault {
            Some(Fault::Eio) => Err(io::Error::from_raw_os_error(5)),
            Some(Fault::Enospc) => Err(io::Error::from_raw_os_error(28)),
            other => Ok(other),
        }
    }

    fn dir_change(&mut self, path: &Path, op: DirOp) {
        op.apply(&mut self.names);
        self.dir_ops.push((parent(path), op));
    }

    fn need_dir(&self, dir: &Path) -> io::Result<()> {
        match self.dirs.contains(dir) {
            true => Ok(()),
            false => Err(ErrorKind::NotFound.into()),
        }
    }
}

/// A seeded in-memory file system that crashes and fails; clones share
/// it. See the module docs.
#[derive(Debug, Clone)]
pub struct SimVfs {
    state: Arc<Mutex<State>>,
}

impl SimVfs {
    /// An empty file system whose injected faults draw on `seed`.
    pub fn new(seed: u64) -> SimVfs {
        let state = State {
            inodes: Vec::new(),
            names: BTreeMap::new(),
            durable_names: BTreeMap::new(),
            dir_ops: Vec::new(),
            dirs: BTreeSet::from([PathBuf::new(), PathBuf::from("/")]),
            generation: 0,
            mutations: 0,
            halt_at: None,
            rng: StdRng::seed_from_u64(seed),
            rate: 0.0,
            kinds: Vec::new(),
            aimed: Vec::new(),
            counts: BTreeMap::new(),
            trace: None,
        };
        SimVfs {
            state: Arc::new(Mutex::new(state)),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("a simulated call panicked")
    }

    /// An independent copy of this file system as it stands (handles
    /// open on this one stay on this one).
    pub fn fork(&self) -> SimVfs {
        SimVfs {
            state: Arc::new(Mutex::new(self.lock().clone())),
        }
    }

    /// From now on each call fails with probability `rate`, with one of
    /// `kinds` it can suffer ([`Fault::Short`] on a read or write alone,
    /// and so on); a rate of 0 stops it.
    pub fn inject(&self, rate: f64, kinds: &[Fault]) {
        let mut st = self.lock();
        st.rate = rate;
        st.kinds = kinds.to_vec();
    }

    /// Lets `skip` calls of `op` through, and makes the next suffer
    /// `fault`.
    pub fn fail_nth(&self, op: Op, skip: u64, fault: Fault) {
        self.lock().aimed.push((op, skip, fault));
    }

    /// Lets `mutations` more changing calls through, then fails every
    /// call as a dead process would, until [`SimVfs::crash`].
    pub fn halt_after(&self, mutations: u64) {
        let mut st = self.lock();
        st.halt_at = Some(st.mutations + mutations);
    }

    /// Lifts a [`SimVfs::halt_after`] whose budget did not run out.
    pub fn disarm(&self) {
        let mut st = self.lock();
        if st.halt_at > Some(st.mutations) {
            st.halt_at = None;
        }
    }

    /// Whether [`SimVfs::halt_after`]'s budget ran out.
    pub fn halted(&self) -> bool {
        let st = self.lock();
        st.halt_at.is_some_and(|at| st.mutations >= at)
    }

    /// Changing calls made so far.
    pub fn mutations(&self) -> u64 {
        self.lock().mutations
    }

    /// Calls of `op` so far on paths ending in `suffix`.
    pub fn count(&self, op: Op, suffix: &str) -> u64 {
        let st = self.lock();
        let matching = st
            .counts
            .iter()
            .filter(|(p, _)| p.to_string_lossy().ends_with(suffix));
        matching.filter_map(|(_, ops)| ops.get(&op)).sum()
    }

    /// The files, by name, that the running process sees with a hole: a
    /// range a write past the end skipped and nothing has written since.
    pub fn holes(&self) -> Vec<PathBuf> {
        let st = self.lock();
        let names = st.names.iter();
        names
            .filter(|(_, &ino)| !st.inodes[ino].holes.is_empty())
            .map(|(path, _)| path.clone())
            .collect()
    }

    /// Starts recording the changing calls, and returns the ones recorded
    /// since the last call (the first returns none).
    pub fn trace(&self) -> Vec<(Op, PathBuf)> {
        self.lock().trace.replace(Vec::new()).unwrap_or_default()
    }

    /// The machine crashes and comes back: what was synced stays, what was
    /// not is kept, dropped or torn as `model` and `seed` say; handles open
    /// before are dead, and aimed faults and a halt are cleared.
    pub fn crash(&self, seed: u64, model: CrashModel) {
        let mut st = self.lock();
        let st = &mut *st;
        let mut rng = StdRng::seed_from_u64(seed);
        let dir_ops = std::mem::take(&mut st.dir_ops);
        let dirs: BTreeSet<&PathBuf> = dir_ops.iter().map(|(dir, _)| dir).collect();
        for dir in dirs {
            let ops: Vec<&DirOp> = dir_ops
                .iter()
                .filter(|(d, _)| d == dir)
                .map(|(_, op)| op)
                .collect();
            let kept = match model {
                CrashModel::PowerLoss => rng.random_range(0..=ops.len()),
                CrashModel::ProcessKill => ops.len(),
            };
            for op in &ops[..kept] {
                op.apply(&mut st.durable_names);
            }
        }
        for inode in &mut st.inodes {
            let mut data = std::mem::take(&mut inode.durable);
            for change in inode.pending.drain(..) {
                let fate = match model {
                    CrashModel::PowerLoss => rng.random_range(0..3u8),
                    CrashModel::ProcessKill => 0,
                };
                match (change, fate) {
                    (_, 1) => {}
                    (Pending::SetLen(len), _) => data.resize(len as usize, 0),
                    (Pending::Write(at, bytes), 0) => write_into(&mut data, at, &bytes),
                    (Pending::Write(at, bytes), _) => {
                        // Torn: each sector of the write lands or does not.
                        let mut done = 0;
                        while done < bytes.len() {
                            let pos = at + done as u64;
                            let n = ((SECTOR - pos % SECTOR) as usize).min(bytes.len() - done);
                            if rng.random::<bool>() {
                                write_into(&mut data, pos, &bytes[done..done + n]);
                            }
                            done += n;
                        }
                    }
                }
            }
            inode.data = data.clone();
            inode.durable = data;
            inode.holes.clear();
        }
        st.names = st.durable_names.clone();
        st.generation += 1;
        st.halt_at = None;
        st.aimed.clear();
    }

    fn handle(&self, st: &State, ino: usize, path: &Path) -> Box<dyn VfsFile> {
        Box::new(SimFile {
            vfs: self.clone(),
            ino,
            generation: st.generation,
            path: path.to_path_buf(),
        })
    }
}

fn write_into(data: &mut Vec<u8>, at: u64, bytes: &[u8]) {
    let end = at as usize + bytes.len();
    if data.len() < end {
        data.resize(end, 0);
    }
    data[at as usize..end].copy_from_slice(bytes);
}

impl Vfs for SimVfs {
    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let mut st = self.lock();
        st.enter(Op::Open, path)?;
        match st.names.get(path) {
            Some(&ino) => Ok(self.handle(&st, ino, path)),
            None => Err(ErrorKind::NotFound.into()),
        }
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let mut st = self.lock();
        st.enter(Op::Create, path)?;
        st.need_dir(&parent(path))?;
        let ino = match st.names.get(path) {
            Some(&ino) => {
                let inode = &mut st.inodes[ino];
                inode.data.clear();
                inode.pending.push(Pending::SetLen(0));
                ino
            }
            None => {
                st.inodes.push(Inode::default());
                let ino = st.inodes.len() - 1;
                st.dir_change(path, DirOp::Link(path.to_path_buf(), ino));
                ino
            }
        };
        Ok(self.handle(&st, ino, path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = self.lock();
        st.enter(Op::Rename, to)?;
        if !st.names.contains_key(from) {
            return Err(ErrorKind::NotFound.into());
        }
        st.dir_change(to, DirOp::Rename(from.to_path_buf(), to.to_path_buf()));
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut st = self.lock();
        st.enter(Op::Remove, path)?;
        if st.names.contains_key(path) {
            st.dir_change(path, DirOp::Unlink(path.to_path_buf()));
        }
        Ok(())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut st = self.lock();
        st.enter(Op::List, dir)?;
        st.need_dir(dir)?;
        let files = st.names.keys();
        let entries = files
            .chain(st.dirs.iter())
            .filter(|p| p.parent() == Some(dir));
        Ok(entries
            .filter_map(|p| Some(p.file_name()?.to_str()?.to_string()))
            .collect())
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut st = self.lock();
        st.enter(Op::CreateDir, dir)?;
        st.dirs.extend(dir.ancestors().map(Path::to_path_buf));
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut st = self.lock();
        st.enter(Op::SyncDir, dir)?;
        st.need_dir(dir)?;
        let st = &mut *st;
        for (_, op) in st.dir_ops.iter().filter(|(d, _)| d == dir) {
            op.apply(&mut st.durable_names);
        }
        st.dir_ops.retain(|(d, _)| d != dir);
        Ok(())
    }
}

/// An open [`SimVfs`] file.
#[derive(Debug)]
struct SimFile {
    vfs: SimVfs,
    ino: usize,
    generation: u64,
    path: PathBuf,
}

impl SimFile {
    /// The file system, once this handle is known to be alive, and the
    /// fate of the call.
    fn enter(&self, op: Op) -> io::Result<(MutexGuard<'_, State>, Option<Fault>)> {
        let mut st = self.vfs.lock();
        if st.generation != self.generation {
            return Err(io::Error::other("a handle from before a simulated crash"));
        }
        let fault = st.enter(op, &self.path)?;
        Ok((st, fault))
    }
}

impl VfsFile for SimFile {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let (mut st, fault) = self.enter(Op::ReadAt)?;
        let data = &st.inodes[self.ino].data;
        let start = (offset as usize).min(data.len());
        let n = buf.len().min(data.len() - start);
        let n = if fault == Some(Fault::Short) {
            n / 2
        } else {
            n
        };
        buf[..n].copy_from_slice(&data[start..start + n]);
        if n < buf.len() {
            return Err(ErrorKind::UnexpectedEof.into());
        }
        if fault == Some(Fault::FlipBit) && n > 0 {
            let bit = st.rng.random_range(0..n * 8);
            buf[bit / 8] ^= 1 << (bit % 8);
        }
        Ok(())
    }

    /// A short write lands its first half and fails, as a disk that
    /// filled up in the middle of it would.
    fn write_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        let (mut st, fault) = self.enter(Op::WriteAt)?;
        let short = fault == Some(Fault::Short);
        let n = if short { buf.len() / 2 } else { buf.len() };
        let inode = &mut st.inodes[self.ino];
        let (len, end) = (inode.data.len() as u64, offset + n as u64);
        if offset > len {
            inode.holes.push((len, offset));
        }
        inode.holes = (inode.holes.iter())
            .flat_map(|&(a, b)| [(a, b.min(offset)), (a.max(end), b)])
            .filter(|(a, b)| a < b)
            .collect();
        write_into(&mut inode.data, offset, &buf[..n]);
        let pending = Pending::Write(offset, buf[..n].to_vec());
        inode.pending.push(pending);
        match short {
            true => Err(ErrorKind::WriteZero.into()),
            false => Ok(()),
        }
    }

    fn len(&self) -> io::Result<u64> {
        let (st, _) = self.enter(Op::Len)?;
        Ok(st.inodes[self.ino].data.len() as u64)
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        let (mut st, _) = self.enter(Op::SetLen)?;
        let inode = &mut st.inodes[self.ino];
        inode.data.resize(len as usize, 0);
        inode.holes.retain_mut(|(a, b)| {
            *b = (*b).min(len);
            a < b
        });
        inode.pending.push(Pending::SetLen(len));
        Ok(())
    }

    fn sync(&self) -> io::Result<()> {
        let (mut st, _) = self.enter(Op::Sync)?;
        let inode = &mut st.inodes[self.ino];
        for change in inode.pending.drain(..) {
            match change {
                Pending::Write(at, bytes) => write_into(&mut inode.durable, at, &bytes),
                Pending::SetLen(len) => inode.durable.resize(len as usize, 0),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs_with(dir: &str) -> SimVfs {
        let fs = SimVfs::new(1);
        fs.create_dir_all(Path::new(dir)).unwrap();
        fs
    }

    fn read(fs: &SimVfs, path: &str) -> Option<Vec<u8>> {
        fs.read(Path::new(path)).ok()
    }

    #[test]
    fn synced_data_and_entries_survive_power_loss() {
        let fs = fs_with("/d");
        let f = fs.create(Path::new("/d/a")).unwrap();
        f.write_at(b"hello", 0).unwrap();
        f.sync().unwrap();
        fs.sync_dir(Path::new("/d")).unwrap();
        f.write_at(b"J", 0).unwrap();
        for seed in 0..32 {
            let fs = fs.fork();
            fs.crash(seed, CrashModel::PowerLoss);
            let got = read(&fs, "/d/a").unwrap();
            assert!(got == b"hello" || got == b"Jello", "{got:?}");
        }
        fs.crash(0, CrashModel::ProcessKill);
        assert_eq!(read(&fs, "/d/a").unwrap(), b"Jello");
        assert!(f.len().is_err(), "a handle from before the crash is dead");
    }

    #[test]
    fn unsynced_entries_survive_as_a_prefix() {
        let fs = fs_with("/d");
        fs.create(Path::new("/d/a")).unwrap().sync().unwrap();
        fs.rename(Path::new("/d/a"), Path::new("/d/b")).unwrap();
        fs.create(Path::new("/d/c")).unwrap();
        let mut seen = BTreeSet::new();
        for seed in 0..64 {
            let fs = fs.fork();
            fs.crash(seed, CrashModel::PowerLoss);
            let mut names = fs.list(Path::new("/d")).unwrap();
            names.sort();
            seen.insert(names.join(","));
        }
        // Nothing; `a`; `b`; `b` and `c` — never `c` without the rename.
        let want = ["", "a", "b", "b,c"].map(String::from);
        assert_eq!(seen, want.into_iter().collect());
    }

    #[test]
    fn power_loss_tears_at_sectors() {
        let fs = fs_with("/d");
        let f = fs.create(Path::new("/d/a")).unwrap();
        fs.sync_dir(Path::new("/d")).unwrap();
        f.write_at(&[7; 4 * SECTOR as usize], 0).unwrap();
        let mut torn = false;
        for seed in 0..64 {
            let fs = fs.fork();
            fs.crash(seed, CrashModel::PowerLoss);
            let got = read(&fs, "/d/a").unwrap();
            for sector in got.chunks(SECTOR as usize) {
                assert!(sector.iter().all(|&b| b == sector[0]), "a torn sector");
            }
            torn |= got.len() == 4 * SECTOR as usize && got.contains(&0) && got.contains(&7);
        }
        assert!(torn, "no seed tore the write");
    }

    #[test]
    fn faults_halts_and_counts() {
        let fs = fs_with("/d");
        let f = fs.create(Path::new("/d/a")).unwrap();
        fs.fail_nth(Op::WriteAt, 0, Fault::Enospc);
        assert_eq!(f.write_at(b"x", 0).unwrap_err().raw_os_error(), Some(28));
        fs.fail_nth(Op::WriteAt, 0, Fault::Short);
        assert!(f.write_at(b"abcd", 0).is_err());
        assert_eq!(f.len().unwrap(), 2, "a short write lands its first half");
        fs.fail_nth(Op::ReadAt, 0, Fault::FlipBit);
        let mut buf = [0u8; 2];
        f.read_at(&mut buf, 0).unwrap();
        assert_eq!(
            (buf[0] ^ b'a').count_ones() + (buf[1] ^ b'b').count_ones(),
            1
        );
        assert_eq!(fs.count(Op::WriteAt, "/a"), 2);
        fs.halt_after(1);
        f.write_at(b"y", 9).unwrap();
        assert!(f.sync().is_err() && fs.halted());
        assert!(
            fs.open(Path::new("/d/a")).is_err(),
            "a halted process does nothing"
        );
        fs.crash(3, CrashModel::ProcessKill);
        assert_eq!(read(&fs, "/d/a").unwrap(), b"ab\0\0\0\0\0\0\0y");
    }
}
