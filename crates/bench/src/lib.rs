//! Experiment harness: everything needed to regenerate every table and
//! figure of the paper's §6 on the synthetic CAD workload.
//!
//! The `reproduce` binary drives the functions in [`experiments`]; the CI
//! gate binaries share [`gate`]'s flag parser, checks and child process. What
//! is timed for engineering rather than for the paper lives in the repo's
//! benchmark (`benchmark/`, `BENCHMARK.json`), not here.

pub mod alertsmoke;
pub mod bigcorpus;
pub mod clustersmoke;
pub mod experiments;
pub mod gate;
pub mod harness;
pub mod report;
pub mod subsmoke;

pub use harness::{
    build_exh, build_segdiff, default_series, time_query_exh, time_query_segdiff, BuiltExh,
    BuiltSegDiff, Scale, TimedQuery,
};
pub use report::Report;
