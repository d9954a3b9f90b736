#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::let_underscore_untyped,
        clippy::let_underscore_must_use,
        reason = "a test may discard what it provokes"
    )
)]

//! An embedded page-based storage engine.
//!
//! The paper stores extracted features in MySQL tables with B-tree indexes
//! and issues standard SQL range queries (§4.4, §6). This crate is the
//! from-scratch substitute: a small relational storage engine with
//!
//! * fixed-size 4 KiB [`page`]s in files reached through one seam, [`vfs`],
//! * a shared [`BufferPool`] (clock eviction) with hit/miss/physical-I/O
//!   accounting, so experiments can run "cold" (cache dropped) or "warm"
//!   exactly like the paper's flushed-vs-cached runs,
//! * append-only [`HeapFile`]s of fixed-width `f64` rows,
//! * disk-backed [`BTree`] indexes over order-preserving big-endian
//!   composite keys (the analogue of MySQL's B-tree on concatenated
//!   columns),
//! * a [`Table`] layer tying heap + indexes together, and a [`Database`]
//!   catalog that persists across reopen.
//!
//! Everything both search systems (SegDiff and the exhaustive baseline) do
//! runs through this engine, so their measured ratios compare like for
//! like.
//!
//! # Example
//!
//! ```
//! use pagestore::{Database, TableSpec};
//!
//! let dir = std::env::temp_dir().join(format!("pagestore-doc-{}", std::process::id()));
//! let db = Database::create(&dir, 256).unwrap();
//! let table = db
//!     .create_table(TableSpec::new("events", &["dt", "dv", "t"]))
//!     .unwrap();
//! table.insert(&[30.0, -3.5, 1000.0]).unwrap();
//! table.insert(&[60.0, -1.0, 2000.0]).unwrap();
//! let mut deep = 0;
//! table
//!     .seq_scan(|_rid, row| {
//!         if row[1] <= -3.0 {
//!             deep += 1;
//!         }
//!         true
//!     })
//!     .unwrap();
//! assert_eq!(deep, 1);
//! ```

mod btree;
mod buffer;
pub mod colpage;
mod db;
mod encode;
mod error;
mod heap;
pub mod page;
mod pagefile;
pub mod recovery;
mod table;
pub mod vfs;
pub mod wal;
mod zonemap;

#[cfg(test)]
mod fault_tests;
#[cfg(test)]
mod proptests;
#[cfg(test)]
mod stress_tests;

pub use btree::BTree;
pub use buffer::{BufferPool, PoolStats};
pub use db::{sync_from_env, Database, DurabilityOptions, TableSpec};
pub use encode::{decode_f64, encode_f64};
pub use error::{Result, StoreError};
pub use heap::{CompressionStats, HeapFile, RowId, ScanPage, ZoneScanStats};
pub use pagefile::{FileId, PageFile, PageId};
pub use recovery::RecoveryReport;
pub use table::{Index, Table, BUFFER_ENTRIES};
pub use vfs::{write_atomic, OsVfs, Vfs, VfsFile};
pub use wal::{CommitState, Wal, WAL_FILE};

/// Size of every page in bytes.
pub const PAGE_SIZE: usize = 4096;
