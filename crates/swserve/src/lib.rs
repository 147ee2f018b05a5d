//! swserve — a std-only gate-evaluation HTTP service.
//!
//! The paper's gates are cheap to *query* (a truth-table row, a cost
//! figure) but expensive to *compute* (an LLG simulation), which makes
//! them a natural fit for a resident service: calibrate once, answer
//! many. This crate is that service, built on `std::net` alone — no
//! async runtime, no HTTP framework — with the serving techniques that
//! actually matter at this scale implemented from first principles:
//!
//! * [`eval`] — behavioral evaluation of MAJ3/XOR/derived gates and
//!   netlist circuits, with canonical request normalization. The CLI
//!   `repro eval` and `POST /v1/gate/eval` share [`eval::respond`], so
//!   HTTP answers are byte-identical to local ones.
//! * [`netlist`] — the circuit compiler service: `POST
//!   /v1/netlist/eval` accepts a demo name, swnet netlist text/JSON,
//!   or raw truth tables, and answers with the legalized, sized, and
//!   CMOS-scored circuit. `repro compile` shares [`netlist::respond`].
//! * [`cache`] — a content-addressed result cache with single-flight
//!   coalescing: N identical concurrent requests cost one evaluation.
//! * [`jobs`] — micromagnetic evaluations dispatched async onto an
//!   [`swrun::ResidentPool`], with content-addressed job ids and
//!   manifest-backed results.
//! * [`http`] — the workspace's one bounded HTTP/1.1 layer: head
//!   parser, request and response writers, the keep-alive client
//!   connection, and the [`http::serve`] loop the server and the
//!   `swrouter` router both run.
//! * [`metrics`] — lock-free counters and log2 latency histograms
//!   behind `GET /metrics`.
//! * [`server`] — routing, admission control (shed with `429` +
//!   `Retry-After` past `queue_depth`), and graceful drain.
//!
//! Start one with [`Server::bind`] + [`Server::run`], or from the CLI:
//! `repro serve --addr 127.0.0.1:8080 --workers 2 --queue-depth 64`.

pub mod cache;
pub mod eval;
pub mod http;
pub mod jobs;
pub mod metrics;
pub mod netlist;
pub mod server;
pub mod store;

pub use cache::{content_key, Begin, FlightError, ResultCache};
pub use eval::{normalize, respond, EvalError};
pub use jobs::{JobStore, SubmitError};
pub use metrics::ServerMetrics;
pub use server::{Server, ServerConfig, ServerHandle};
