//! Deterministic simulation of crashes and I/O faults under the store.
//!
//! [`SimVfs`] is an in-memory [`pagestore::Vfs`] whose files are volatile
//! until synced and whose directory entries are volatile until their
//! directory is synced; a seeded crash keeps, drops or tears what was
//! not, and any call can be made to fail. [`schedule`] drives a
//! [`segdiff::SegDiffIndex`] through it — pushes, checkpoints,
//! compactions, queries, crashes inside any of them — and after every
//! step holds the store to [`segdiff::oracle::check_prefix`]: the paper's
//! Theorem 1 and Lemma 5 over the prefix the store kept, its own
//! consistency, and one answer from both plans.
//!
//! This crate is test support: tests depend on it, binaries do not.

pub mod fs;
pub mod points;
pub mod schedule;

pub use fs::{CrashModel, Fault, Op, SimVfs};
pub use schedule::{run, Schedule};
