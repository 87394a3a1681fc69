//! Trace-driven performance advisor.
//!
//! The rest of the workspace *produces* performance evidence — per-rank
//! JSONL journals ([`autocfd_runtime::journal`]), overlap spans, static
//! traffic forecasts ([`autocfd_interp::forecast()`]) — but nothing
//! *consumes* it. This crate closes the loop, following the mining
//! approach of "Automatic Performance Debugging of SPMD Parallel
//! Programs":
//!
//! 1. [`diagnose()`] aggregates a merged trace into per-phase, per-rank
//!    load figures: compute-span skew, straggler identification,
//!    critical-path attribution, and per-sync exposed-communication
//!    percentages (the share of comm latency *not* hidden by overlap).
//! 2. [`divergence()`] compares the measured traffic against the static
//!    forecast phase by phase, flagging where the cost model stopped
//!    predicting reality.
//! 3. [`search()`] replays the diagnosis through the `cluster-sim` cost
//!    model over every candidate Table-1 partition and ranks them by
//!    predicted wall time, with the *measured* skew baked into the
//!    current partition's entry so a balanced candidate can beat it.
//! 4. [`advice`] assembles the above into a human-readable report and
//!    a schema-versioned `advice.json` document.

#![warn(missing_docs)]

pub mod advice;
pub mod diagnose;
pub mod divergence;
pub mod search;

pub use advice::{Advice, ADVICE_SCHEMA_VERSION};
pub use diagnose::{diagnose, hot_phase, render_diagnosis, Diagnosis};
pub use divergence::{divergence, render_divergence, PhaseDivergence};
pub use search::{render_recommendation, search, Candidate, Recommendation, SearchConfig};
