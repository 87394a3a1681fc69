#![warn(missing_docs)]

//! The in-process compile cache `acfd_bench` measures: a loopback
//! service that answers compile requests from a bounded LRU of plans.
//!
//! A plan is a pure function of (source text, partition, analysis
//! options, plan schema), so it can be named by a
//! [`PlanKey`](autocfd_codegen::PlanKey) digest and served again
//! without running the frontend:
//!
//! * [`proto`] — JSON requests and responses over the `runtime-net`
//!   framed codec (`Request`/`Response` frames);
//! * `cache` — the content-addressed, bounded-LRU plan store;
//! * [`service`] — the accept loop, with single-flight deduplication
//!   (N identical in-flight compiles run the pipeline once);
//! * [`client`] — the blocking client.
//!
//! The pipeline itself is injected as a [`Backend`] implemented in the
//! `autocfd` crate; this crate knows protocols and caching, not
//! Fortran.

mod cache;
pub mod client;
pub mod proto;
pub mod service;

pub use client::Client;
pub use proto::{CompileReq, ErrorClass, Request, ServiceError, StreamItem};
pub use service::{Backend, Service, ServiceConfig, ServiceHandle};
