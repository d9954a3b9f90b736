#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::let_underscore_untyped,
        clippy::let_underscore_must_use,
        reason = "a test may discard what it provokes"
    )
)]

//! **SegDiff** — searching for drops (and jumps) in sensor data.
//!
//! This crate is the top of the reproduction of *"On the brink: Searching
//! for drops in sensor data"* (Chen, Cho, Hansen; EDBT 2008). It ties the
//! substrates together:
//!
//! * [`sensorgen`] supplies time series and the data generating model G;
//! * [`segmentation`] turns a series into a piecewise-linear approximation
//!   within a user tolerance `ε` (Lemma 1);
//! * [`featurespace`] compresses all pairwise change events into
//!   parallelogram boundaries of 1–3 corner points (Lemma 3, Table 2);
//! * [`pagestore`] persists the segments and the boundaries in relational
//!   tables with B+tree indexes.
//!
//! A search ([`SegDiffIndex::query`]) generates its boundary rows from the
//! resident `segments` run. The paper's two plans over the stored rows, a
//! feature-table scan and the point/line range queries on the B+trees
//! (§4.4), are [`SegDiffIndex::query_stored_rows`].
//!
//! The two public index structures are:
//!
//! * [`SegDiffIndex`] — the paper's framework: online segmentation +
//!   feature extraction (Algorithm 1), with the quality guarantee of
//!   Theorem 1 (*no true event missed; every returned pair contains an
//!   event within `2ε` of the thresholds*);
//! * [`exh::ExhIndex`] — the exhaustive baseline **Exh** that stores every
//!   pairwise `(Δt, Δv)` within the window `w`.
//!
//! Both run on the same storage engine so that space and time comparisons
//! (paper §6) are apples to apples. [`oracle`] provides a brute-force
//! ground truth used by the test suite to validate the guarantees.
//!
//! # Quickstart
//!
//! ```
//! use segdiff::{SegDiffConfig, SegDiffIndex, QueryPlan};
//! use featurespace::QueryRegion;
//! use sensorgen::{generate_sensor, CadTransectConfig, HOUR};
//!
//! let dir = std::env::temp_dir().join(format!("segdiff-doc-{}", std::process::id()));
//!
//! // A week of synthetic canyon temperatures, five-minute sampling.
//! let series = generate_sensor(&CadTransectConfig::default().with_days(7).clean(), 12, 7);
//!
//! let mut index = SegDiffIndex::create(&dir, SegDiffConfig::default()).unwrap();
//! index.ingest_series(&series).unwrap();
//! index.finish().unwrap();
//!
//! // "Find every period with a 3 degree drop within one hour."
//! let region = QueryRegion::drop(1.0 * HOUR, -3.0);
//! let (results, _stats) = index.query(&region, QueryPlan::SeqScan).unwrap();
//! for pair in &results {
//!     // The drop starts in [t_d, t_c] and ends in [t_b, t_a].
//!     assert!(pair.t_d <= pair.t_c && pair.t_b <= pair.t_a);
//! }
//! ```

pub mod ablation;
pub mod alerts;
pub mod analysis;
mod cache;
mod config;
pub mod exh;
mod index;
mod ingest;
pub mod naive;
pub mod oracle;
pub mod pool;
mod query;
pub mod refine;
pub mod result;
mod stats;
pub mod subscribe;
mod tables;
pub mod transect;

pub use cache::{CacheKey, QueryCache};
pub use config::SegDiffConfig;
pub use index::SegDiffIndex;
pub use ingest::{FeatureExtractor, FeatureRow};
pub use query::{check_window, GeneratorStats, PhaseStats, QueryPlan, QueryStats};
pub use result::{merge_sharded, sort_dedup, SegmentPair, ShardResults};
pub use stats::{CornerHistogram, SegDiffStats};
pub use subscribe::{Notification, Subscription, SubscriptionRegistry};
pub use transect::TransectIndex;

// Re-export the vocabulary types callers need.
pub use featurespace::{QueryRegion, SearchKind};
pub use segmentation::Segmenter;
