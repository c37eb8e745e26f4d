//! # hetgrid-serve
//!
//! Scheduling-as-a-service over the hetgrid solver/planner stack: a
//! long-running, multi-tenant TCP server (`hetgrid serve`) that
//! answers solve / plan / simulate requests, with
//!
//! * a **versioned wire protocol** — length-prefixed frames
//!   ([`wire`]), a canonical request/response codec with typed errors
//!   ([`proto`], written with [`hetgrid_plan::wire`]'s codec, the one
//!   the served plans use); malformed or truncated input can never
//!   panic the process, and a response too large for one frame is
//!   answered with a typed `BadRequest`;
//! * a **content-addressed plan cache** — requests are fingerprinted
//!   over a normalized key of the cycle-time matrix (raw `f64` bit
//!   patterns), grid shape, kernel, and block count
//!   ([`fingerprint`]); the cache stores the *encoded response bytes*
//!   under an LRU bound ([`cache`]), so identical requests get
//!   byte-identical answers;
//! * **request coalescing and load shedding** — concurrent identical
//!   requests share one solver invocation, admission depth is
//!   bounded, and excess load gets a typed `Busy` ([`service`]);
//! * **per-tenant token-bucket quotas** keyed by the tenant id in the
//!   request header ([`quota`]);
//! * **observability** — `serve.*` counters/gauges/latency histograms
//!   in the process-global [`hetgrid_obs`] registry, a `serve` trace
//!   track, and a metrics endpoint that exports them over the wire.
//!
//! The stack is dependency-free by design: `std::net` sockets and one
//! OS thread per connection, which also runs its admitted requests'
//! compute (bounded by the admission limit) — no async runtime, no
//! compute pool.
//!
//! The transport split matters for testing: [`Service`] knows nothing
//! about sockets, so the protocol/caching/coalescing semantics are
//! exercised in-process, and the [`server`] module is a thin accept
//! loop whose only job is moving frames.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod fingerprint;
pub mod proto;
pub mod quota;
pub mod server;
pub mod service;
pub mod wire;

pub use client::{submit, Client, ClientError};
pub use fingerprint::{cache_key, fingerprint, Fingerprint};
pub use proto::{Kernel, PlanSpec, Request, RequestBody, Response, SolveSpec};
pub use quota::QuotaConfig;
pub use server::{spawn, ServerHandle};
pub use service::{Service, ServiceConfig};
