//! The individual lint rules. The per-file rules are pure functions
//! over a [`crate::context::FileCtx`] (plus shared config for
//! L3/L7); the cross-file rules consume the assembled
//! [`crate::callgraph::CallGraph`] (L6) or the artifact sources (L4) —
//! so the unit tests feed them fixture snippets directly.
//! Every rule emits unfiltered diagnostics; suppression is applied
//! centrally by [`crate::context::SuppressionIndex`].

pub mod blocking;
pub mod interlock;
pub mod locks;
pub mod names;
