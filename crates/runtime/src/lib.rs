#![warn(missing_docs)]

//! Rank-per-thread message-passing runtime — the PVM/MPI substitute.
//!
//! The Auto-CFD paper generates SPMD programs with PVM/MPI calls and runs
//! them on a dedicated Ethernet cluster of Pentium workstations. This
//! crate provides the same programming model, layered over a pluggable
//! [`Transport`], so the generated parallel programs can actually
//! *execute* and be checked for equivalence with their sequential
//! originals:
//!
//! * [`Transport`] — the wire contract: nonblocking tagged
//!   point-to-point `isend`/`irecv` returning typed request handles
//!   ([`SendRequest`]/[`RecvRequest`]) with `wait`/`test` completion
//!   operations and per-`(source, tag)` FIFO matching (blocking
//!   `send`/`recv` are default-method shims over the handles), a
//!   barrier (default: dissemination over reserved tags), and
//!   wire-level byte counters.
//!   [`inproc::InprocTransport`] runs ranks as threads over channels;
//!   the companion crate `autocfd-runtime-net` runs them as processes
//!   over TCP with the same semantics;
//! * [`run_spmd`] — launch `n` ranks in-process, each a thread with a
//!   [`Comm`] endpoint, and collect their results;
//! * [`Comm`] — the transport-agnostic communicator: `send`/`recv`/
//!   `sendrecv` plus the collectives the restructured programs need
//!   (`barrier`, `allreduce` max / sum / min — the convergence test of a
//!   CFD frame is an allreduce-max of the local error), with program
//!   *phase* labels threaded into traces and errors;
//! * deadlock and failure surfacing: every receive carries a timeout and
//!   failures return a typed [`CommError`] saying *which* rank waited on
//!   which peer/tag in which phase, instead of hanging the run;
//! * per-rank statistics and event traces (message, element, and wire
//!   byte counts per phase), which the cluster cost model and the
//!   profiler consume.
//!
//! Sends are buffered, matching the eager-send semantics of
//! small-message MPI on Ethernet: a `send` never blocks, so the
//! symmetric `sendrecv` used by halo exchange cannot deadlock.

pub mod checkpoint;
pub mod comm;
pub mod error;
pub mod export;
pub mod inproc;
pub mod journal;
pub mod telemetry;
pub mod trace;
pub mod transport;

pub use checkpoint::{
    latest_consistent_epoch, load_epoch, load_manifest, load_snapshot, write_manifest,
    write_snapshot, ArraySnap, Cursor, DoProgress, OpsSnap, RunManifest, ScalarSnap, Snapshot,
    CHECKPOINT_SCHEMA_VERSION,
};
pub use comm::{Comm, CommStats, ReduceOp, DEFAULT_TIMEOUT};
pub use error::{CommError, CommErrorKind};
pub use export::{
    chrome_trace, exposed_pct, fold, fold_traces, imbalance, over_mean, phase_metrics,
    rank_breakdown, render_phase_metrics, render_rank_breakdown, Cell, PhaseRow, PhaseTable,
    RankBreakdown,
};
pub use inproc::{run_spmd, run_spmd_with_timeout, InprocTransport};
pub use journal::{
    epoch_unix_ns, load_trace_dir, merge, parse_line, parse_rank_journal, write_rank_journal,
    JournalError, JournalEvent, JournalHeader, JournalRecord, JournalWriter, MergedTrace,
    RankJournal, SCHEMA_VERSION,
};
pub use telemetry::{
    encode_stat_frame, parse_stat_frame, read_spool, spool_path, PeerTraffic, StatFrame,
    TelemetryConfig, TelemetrySink, DEFAULT_TELEMETRY_INTERVAL, TELEMETRY_SCHEMA,
};
pub use trace::{render_timeline, render_wire_table, EventKind, Recorder, TraceEvent};
pub use transport::{
    InboxMsg, MatchingInbox, RecvRequest, SendRequest, Transport, WireStats, BARRIER_TAG_BASE,
};
